"""Oracle-SQL dict entries (part 2/2) — split out of ``__ray_entry__.py````oracle_sql()``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def oracle_sql_part_02() -> dict:
    return {
        "bpe_encode": (
            "WITH t AS (SELECT doc_id, "
            "unnest(string_split(coalesce(text, ''), ' ')) AS word "
            "FROM documents), "
            "e AS (SELECT doc_id, CASE WHEN word = '' THEN 0 ELSE "
            f"{_sql_bpe_encode_tokens('word')} END AS k FROM t) "
            "SELECT doc_id, CAST(sum(k) AS BIGINT) AS n_bpe_tokens "
            "FROM e GROUP BY doc_id"
        ),
        # the MINIPDF walk text is the deterministic 8-words-per-line
        # relayout of the document text (build_from_text), independently
        # reconstructed here: line/block/page joins all collapse to one
        # '\n' per line boundary
        "pdf_layout_text": (
            "WITH t AS (SELECT doc_id, source, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 97 = 0 OR len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform(generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), chr(10)) END AS text, "
            "CASE WHEN doc_id % 97 = 0 THEN 'error' ELSE 'pdf' END AS payload_kind "
            "FROM t"
        ),
        "real_pdf_extract": (
            "WITH t AS (SELECT doc_id, source, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 97 = 0 OR len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform(generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), chr(10)) END AS text, "
            "CASE WHEN doc_id % 97 = 0 THEN 'error' ELSE 'pdf' END AS payload_kind "
            "FROM t"
        ),
        # IVF at nprobe=12/nlist=16 achieves recall 1.0 on this corpus with
        # margin (1.0 from nprobe=10 up) — the oracle IS the exact top-10;
        # nprobe is the documented recall/throughput knob at scale
        "ann_ivf": (
            "WITH s AS (SELECT vec_id, list_cosine_similarity(CAST(embedding AS DOUBLE[]), "
            "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)) AS c "
            "FROM embeddings WHERE vec_id <> 0) "
            "SELECT vec_id FROM s ORDER BY c DESC, vec_id LIMIT 10"
        ),
        "fingerprint": _sql_fingerprint(),
        "incremental_dedup": (
            "SELECT doc_id, source FROM documents WHERE md5(text) NOT IN "
            "(SELECT md5(text) FROM documents WHERE doc_id % 4 = 1)"
        ),
        # identical semantics by construction: the bloom path is exact
        "bloom_dedup": (
            "SELECT doc_id, source FROM documents WHERE md5(text) NOT IN "
            "(SELECT md5(text) FROM documents WHERE doc_id % 4 = 1)"
        ),
        "url_filter": (
            f"WITH p AS (SELECT url FROM ({_SQL_PAGES_WITH_AMP})), "
            "h AS (SELECT url, string_split(url, '/')[3] AS host FROM p), "
            "f AS (SELECT url, host, coalesce(host = 'heavy.example.com' OR "
            "(starts_with(host, 'src') AND TRY_CAST(substr("
            "string_split(host, '.')[1], 4) AS INT) % 7 = 3), false) "
            "AS blocked FROM h) "
            "SELECT url, host, "
            "CASE WHEN blocked OR contains(url, '?') THEN false "
            "ELSE true END AS keep, "
            "CASE WHEN blocked THEN 'blocked_host' "
            "WHEN contains(url, '?') THEN 'query_string' "
            "ELSE 'ok' END AS drop_reason FROM f"
        ),
        # prune rule mirrored as a self-join: drop iff ANY lower-id
        # same-cluster vector sits at cosine >= 0.4 (nearest pair is
        # ~1e-4 from the threshold vs ~1e-15 cross-engine drift)
        "semdedup": (
            f"WITH asg AS (SELECT vec_id, cluster FROM ({_sql_kmeans(4, 2)})), "
            "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
            "FROM embeddings), "
            "j AS (SELECT a.vec_id, a.cluster, e.v FROM asg a "
            "JOIN e ON a.vec_id = e.vec_id), "
            "p AS (SELECT j1.vec_id, "
            "bool_or(list_cosine_similarity(j1.v, j2.v) >= 0.4) AS hit "
            "FROM j j1 JOIN j j2 ON j1.cluster = j2.cluster "
            "AND j2.vec_id < j1.vec_id GROUP BY j1.vec_id) "
            "SELECT j.vec_id, j.cluster, NOT coalesce(p.hit, false) AS keep "
            "FROM j LEFT JOIN p ON j.vec_id = p.vec_id"
        ),
        "shard_export": (
            "WITH k AS (SELECT doc_id, "
            "(doc_id * 2654435761) % 4294967296 AS h FROM documents) "
            "SELECT doc_id, CAST(h % 16 AS BIGINT) AS shard, "
            "CAST(h AS BIGINT) AS h, "
            "CAST(row_number() OVER (PARTITION BY h % 16 ORDER BY h, doc_id) "
            "- 1 AS BIGINT) AS pos FROM k"
        ),
        # keep DSIR_BUCKETS (stages/curation.py) and the % 64 here in sync
        "dsir_weights": (
            "WITH tok AS (SELECT doc_id, "
            "unnest(list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '')) AS tok FROM documents), "
            f"b AS (SELECT doc_id, CAST({_sql_md5_le64('tok')} % 64 "
            "AS BIGINT) AS bucket FROM tok), "
            "raw AS (SELECT bucket, count(*) AS rc FROM b GROUP BY bucket), "
            "tgt AS (SELECT bucket, count(*) AS tc FROM b "
            "WHERE doc_id % 31 = 5 GROUP BY bucket), "
            "sc AS (SELECT raw.bucket, ((coalesce(tgt.tc, 0) + 1) * 1000000) "
            "// (raw.rc + 1) AS s FROM raw LEFT JOIN tgt "
            "ON raw.bucket = tgt.bucket), "
            "agg AS (SELECT b.doc_id, sum(sc.s) AS tot FROM b "
            "JOIN sc ON b.bucket = sc.bucket GROUP BY b.doc_id) "
            "SELECT d.doc_id, CAST(coalesce(agg.tot, 0) AS BIGINT) "
            "AS dsir_score_ppm FROM documents d "
            "LEFT JOIN agg ON d.doc_id = agg.doc_id"
        ),
        # keep k=30 in sync with _q_heavy_hitters
        "heavy_hitters": (
            "WITH tok AS (SELECT unnest(list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '')) AS token "
            "FROM documents), "
            "tot AS (SELECT count(*) AS n FROM tok) "
            "SELECT token, count(*) AS n_count FROM tok, tot "
            "GROUP BY token, tot.n HAVING count(*) * 31 > tot.n"
        ),
        # a doc is emitted at its snapshot class UNLESS its text already
        # appeared in a STRICTLY earlier class (cross-doc text duplicates
        # are real at sf0.1 — 4 docs — so the bare %4 closed form is too
        # narrow; same lesson as online_neardup)
        "incremental_session": (
            "WITH d AS (SELECT doc_id, CASE WHEN doc_id % 4 = 1 THEN 0 "
            "WHEN doc_id % 4 = 2 THEN 1 ELSE 2 END AS cls, md5(text) AS h "
            "FROM documents) "
            "SELECT a.doc_id, CAST(a.cls AS BIGINT) AS first_snapshot "
            "FROM d a WHERE NOT EXISTS (SELECT 1 FROM d b "
            "WHERE b.h = a.h AND b.cls < a.cls)"
        ),
        "web_curation": (
            f"WITH base AS ({_SQL_EXPECTED_PAGES}), "
            "f AS (SELECT doc_id, url, text FROM base WHERE text <> '' "
            "AND NOT coalesce(string_split(url, '/')[3] = 'heavy.example.com' "
            "OR (starts_with(string_split(url, '/')[3], 'src') AND "
            "TRY_CAST(substr(string_split(string_split(url, '/')[3], '.')[1], 4) "
            "AS INT) % 7 = 3), false)), "
            "c AS (SELECT doc_id, url, "
            "list_filter(string_split(text, chr(10)), l -> "
            "len(list_filter(string_split_regex(l, '\\s+'), x -> x <> '')) >= 5 "
            "AND NOT contains(l, '{') AND NOT ends_with(l, ':')) AS kept FROM f), "
            "k AS (SELECT doc_id, url, array_to_string(kept, chr(10)) AS ct, "
            "len(kept) AS n_lines_kept FROM c WHERE len(kept) > 0) "
            "SELECT url, n_lines_kept, length(ct) AS n_chars, CASE "
            "WHEN (doc_id * 2654435761) % 4294967296 / 4294967296.0 < 0.8 "
            "THEN 'train' "
            "WHEN (doc_id * 2654435761) % 4294967296 / 4294967296.0 < 0.9 "
            "THEN 'val' ELSE 'test' END AS split FROM k"
        ),
# keep weights (N%4+1) and budget_factor=2 in sync with _q_mix_plan
        "mix_assemble": (
            "WITH a AS (SELECT source, CAST(sum(len(list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> ''))) AS BIGINT) "
            "AS actual, CAST(substr(source, 4) AS INT) % 4 + 1 AS w "
            "FROM documents GROUP BY source), "
            "t AS (SELECT CAST(2 * sum(actual) AS BIGINT) AS budget, "
            "CAST(sum(w) AS BIGINT) AS wsum FROM a), "
            "p AS (SELECT source, actual, budget * w // wsum AS target "
            "FROM a, t), "
            "pl AS (SELECT source, CASE WHEN actual = 0 THEN 0 ELSE "
            "(target + actual - 1) // actual END AS n_epochs, "
            "CASE WHEN actual = 0 THEN 0 ELSE target * 1000000 // "
            "((target + actual - 1) // actual * actual) END AS rate_ppm "
            "FROM p) "
            "SELECT d.doc_id, d.source, CAST(e.e AS BIGINT) AS epoch "
            "FROM documents d JOIN pl ON d.source = pl.source, "
            "(SELECT unnest(range(0, 16)) AS e) e "
            "WHERE e.e < pl.n_epochs AND "
            f"list_sum(list_transform(generate_series(0, 7), q -> (CAST(strpos('0123456789abcdef', substr(md5('mix:' || d.doc_id || ':' || e.e), 2*q+1, 1)) - 1 AS HUGEINT) * 16 + CAST(strpos('0123456789abcdef', substr(md5('mix:' || d.doc_id || ':' || e.e), 2*q+2, 1)) - 1 AS HUGEINT)) * [CAST(1 AS HUGEINT), CAST(256 AS HUGEINT), CAST(65536 AS HUGEINT), CAST(16777216 AS HUGEINT), CAST(4294967296 AS HUGEINT), CAST(1099511627776 AS HUGEINT), CAST(281474976710656 AS HUGEINT), CAST(72057594037927936 AS HUGEINT)][q + 1])) % 1000000 < pl.rate_ppm"
        ),
        "mix_plan": (
            "WITH a AS (SELECT source, CAST(sum(len(list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> ''))) AS BIGINT) "
            "AS actual_tokens, CAST(substr(source, 4) AS INT) % 4 + 1 AS w "
            "FROM documents GROUP BY source), "
            "t AS (SELECT CAST(2 * sum(actual_tokens) AS BIGINT) AS budget, "
            "CAST(sum(w) AS BIGINT) AS wsum FROM a), "
            "p AS (SELECT source, actual_tokens, "
            "budget * w // wsum AS target_tokens FROM a, t) "
            "SELECT source, actual_tokens, target_tokens, "
            "CASE WHEN actual_tokens = 0 THEN 0 ELSE "
            "(target_tokens + actual_tokens - 1) // actual_tokens "
            "END AS n_epochs, "
            "CASE WHEN actual_tokens = 0 THEN 0 ELSE "
            "target_tokens * 1000000 // ("
            "(target_tokens + actual_tokens - 1) // actual_tokens "
            "* actual_tokens) END AS rate_ppm FROM p"
        ),
        # a distinct n-gram is novel exactly where its min(doc_id) lands
        "ngram_novelty": (
            "WITH sh AS (SELECT doc_id, "
            "list_distinct(list_transform(generate_series(1, "
            "len(toks) - 2), i -> toks[i] || ' ' || toks[i+1] || ' ' || "
            "toks[i+2])) AS sh FROM (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') "
            "AS toks FROM documents)), "
            "g AS (SELECT doc_id, unnest(sh) AS ngram FROM sh), "
            "mn AS (SELECT ngram, min(doc_id) AS mid FROM g GROUP BY 1), "
            "nv AS (SELECT mid AS doc_id, count(*) AS n_novel FROM mn "
            "GROUP BY 1) "
            "SELECT s.doc_id, CAST(len(s.sh) AS BIGINT) AS n_ngrams, "
            "CAST(coalesce(nv.n_novel, 0) AS BIGINT) AS n_novel, "
            "CAST(coalesce(nv.n_novel, 0) * 1000000 "
            "// greatest(len(s.sh), 1) AS BIGINT) AS novelty_ppm "
            "FROM sh s LEFT JOIN nv USING (doc_id)"
        ),
        # anti-join of unnested tokens vs the slice vocab
        "oov_rate": (
            "WITH ref AS (SELECT DISTINCT unnest(string_split(text, ' ')) "
            "AS tok FROM documents WHERE doc_id % 10 = 0), "
            "tk AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok "
            "FROM documents), "
            "j AS (SELECT tk.doc_id, CASE WHEN r.tok IS NULL THEN 1 "
            "ELSE 0 END AS o FROM tk LEFT JOIN ref r USING (tok)) "
            "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
            "CAST(SUM(o) AS BIGINT) AS n_oov, "
            "CAST(SUM(o) * 1000000 // count(*) AS BIGINT) AS oov_ppm "
            "FROM j GROUP BY 1"
        ),
        # keep-in-sync: mirrors sources/pages.py anchor templates (same
        # closed form as anchor_text, digit runs collapsed to {n})
        "url_templates": (
            "WITH d AS (SELECT doc_id, CASE WHEN doc_id % 3 = 0 "
            "THEN 'heavy.example.com' ELSE source || '.example.com' END "
            "AS host FROM documents WHERE doc_id % 97 <> 0), "
            "base AS (SELECT host, count(*) AS n FROM d GROUP BY host), "
            "ar AS (SELECT host, count(*) AS n FROM d "
            "WHERE doc_id % 5 IN (0, 3) GROUP BY host), "
            "farm AS (SELECT host, count(*) AS n FROM d "
            "WHERE doc_id % 5 = 1 GROUP BY host), "
            "fixed(t) AS (VALUES ('/'), ('/about'), ('/contact'), "
            "('/privacy'), ('/terms'), ('/subscribe')) "
            "SELECT b.host, f.t AS template, CAST(b.n AS BIGINT) "
            "AS n_links FROM base b, fixed f "
            "UNION ALL SELECT a.host, '/rel/{n}', CAST(2 * a.n AS BIGINT) "
            "FROM ar a "
            "UNION ALL SELECT fm.host, '/cat/{n}/{n}', "
            "CAST(12 * fm.n AS BIGINT) FROM farm fm"
        ),
        # BM25 with every fraction cleared: saturation 22·tf·L /
        # (10·tf·L + 3·L + 9·dl·N), rational idf 10⁶·(N−df+1)//(df+1)
        "bm25_topk": (
            "WITH " + _SQL_BM25_CORE + " "
            "SELECT query_id, CAST(rnk AS BIGINT) AS \"rank\", doc_id, "
            "CAST(score AS BIGINT) AS score_ppm FROM r WHERE rnk <= 5"
        ),
    }


__all__ = ['oracle_sql_part_02']
