"""Shared helpers for the driver query/oracle modules — split out of
``__ray_entry__.py`` (VERDICT r2 #5: no file > ~4k lines). Original
definition order preserved; ``__all__`` exports underscore names so
``from ..._helpers import *`` works in the qdefs/sql modules."""

from __future__ import annotations

import os

# repo root (configs/ lives there) — query fns were written against
# __ray_entry__.py's location; keep that path contract after the split
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# ---------------------------------------------------------------------------
# shared SQL fragments (mirror documentai_ray/sources/pages.py — keep in sync)
# ---------------------------------------------------------------------------

_SQL_URL = (
    "'https://' || CASE WHEN doc_id % 3 = 0 THEN 'heavy.example.com' "
    "ELSE source || '.example.com' END || '/p/' || doc_id"
)

_SQL_PO_TEXT = (
    "'PO NUMBER: PO-' || (10000 + doc_id) || ' DATED ' || "
    "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') || '.' || "
    "lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || '.2024' || chr(10) || "
    "'SELLER: GLOBAL TRADING COMPANY ' || (doc_id % 7) || ' LIMITED' || chr(10) || "
    "'BUYER: ACME IMPORTS ' || (doc_id % 5) || ' LLC' || chr(10) || "
    "'DESCRIPTION OF GOODS: STEEL COILS GRADE ' || (doc_id % 9) || chr(10) || "
    "'QUANTITY: ' || (100 + doc_id % 400) || '.00 MT NET WEIGHT' || chr(10) || "
    "'TOTAL AMOUNT: USD ' || format('{:,}', (100 + doc_id % 400) * 500) || '.00' || chr(10) || "
    "'DELIVERY CFR SINGAPORE (INCOTERMS 2020)'"
)

# invoice goods-row arithmetic (mirror sources/pages.py invoice_goods)
_INV_Q1 = "(50 + doc_id % 100)"
_INV_P1 = "(500 + doc_id % 50)"
_INV_Q2 = "(20 + doc_id % 80)"
_INV_P2 = "(30 + doc_id % 20)"

_SQL_INV_TEXT = (
    "'PROFORMA INVOICE NUMBER: INV-' || (20000 + doc_id) || ' DATED ' || "
    "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') || '.' || "
    "lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || '.2024' || chr(10) || "
    "'SELLER: GLOBAL TRADING COMPANY ' || (doc_id % 7) || ' LIMITED' || chr(10) || "
    "'BUYER: ACME IMPORTS ' || (doc_id % 5) || ' LLC' || chr(10) || "
    "'DESCRIPTION HS CODE QTY UNIT PRICE AMOUNT' || chr(10) || "
    f"'STEEL COILS GRADE ' || (doc_id % 9) || ' 7209.1' || (doc_id % 7) || ' ' || "
    f"{_INV_Q1} || ' MT ' || {_INV_P1} || '.00 ' || ({_INV_Q1} * {_INV_P1}) || '.00' || chr(10) || "
    f"'ALUMINIUM SHEETS TYPE ' || (doc_id % 4) || ' 7606.1' || (doc_id % 7) || ' ' || "
    f"{_INV_Q2} || ' KG ' || {_INV_P2} || '.00 ' || ({_INV_Q2} * {_INV_P2}) || '.00' || chr(10) || "
    f"'TOTAL AMOUNT: USD ' || ({_INV_Q1} * {_INV_P1} + {_INV_Q2} * {_INV_P2}) || '.00' || chr(10) || "
    "'DELIVERY CIF ROTTERDAM (INCOTERMS 2020)'"
)

# planted technique-disagreement suffix (sources/pages.py AMBIGUOUS_PO_SUFFIX)
_SQL_AMB_SUFFIX = (
    "CASE WHEN doc_id % 20 = 12 THEN chr(10) || "
    "'data query table row spark merge join scan filter sort group hash' "
    "ELSE '' END"
)

_SQL_GOLDEN_TEXT = (
    "CASE WHEN doc_id % 97 = 0 THEN '' "
    "WHEN doc_id % 5 IN (0, 3) THEN text "
    f"WHEN doc_id % 5 = 2 THEN {_SQL_PO_TEXT} || {_SQL_AMB_SUFFIX} "
    f"WHEN doc_id % 10 = 4 THEN {_SQL_INV_TEXT} "
    "ELSE '' END"
)

# votes: planted ambiguous POs fuse at 2/4 (regex+tokenset defect), all
# other classified docs at 4/4
_SQL_VOTES = (
    "CASE WHEN doc_id % 97 <> 0 AND doc_id % 5 = 2 AND doc_id % 20 = 12 "
    "THEN '2/4' ELSE '4/4' END"
)

# expected pages after exact dedup: one row per doc_id
_SQL_EXPECTED_PAGES = (
    f"SELECT {_SQL_URL} AS url, {_SQL_GOLDEN_TEXT} AS text, lang, doc_id "
    "FROM documents"
)

# pages corpus including planted near-dup (?amp=1) rows — mirror of
# synth_pages_table(with_near_dups=True)
_SQL_PAGES_WITH_AMP = (
    f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES}) "
    "UNION ALL "
    f"SELECT url || '?amp=1' AS url, text || ' the' AS text FROM ({_SQL_EXPECTED_PAGES}) "
    "WHERE doc_id % 50 IN (3, 7) AND doc_id % 97 <> 0 AND text <> ''"
)

# exact word-3-shingle Jaccard ground truth over every page pair — the
# MinHash-LSH pipeline must recover exactly this set (recall AND precision)
_SQL_JACCARD_PAIRS = (
    f"WITH pages AS ({_SQL_PAGES_WITH_AMP}), "
    "sh AS (SELECT url, list_distinct(list_transform(generate_series(1, len(toks) - 2), "
    "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS sh "
    "FROM (SELECT url, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
    "FROM pages WHERE text <> '')) "
    "SELECT a.url AS url_a, b.url AS url_b FROM sh a JOIN sh b ON a.url < b.url "
    "WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) / "
    "len(list_distinct(a.sh || b.sh)) >= 0.8"
)

_SQL_CATEGORY = (
    "CASE WHEN doc_id % 97 = 0 THEN 'unclassified' "
    "WHEN doc_id % 5 = 2 THEN 'purchase_order' "
    "WHEN doc_id % 5 IN (0, 3) THEN 'data_report' "
    "WHEN doc_id % 10 = 4 THEN 'invoice' "
    "ELSE 'unclassified' END"
)

# quality metrics mirrored from documentai_ray/stages/quality.py::score_text
_SQL_QUALITY_METRICS = """
  length(text) AS n_chars,
  len(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) AS n_tokens,
  len(list_distinct(list_filter(string_split_regex(text, '\\s+'), x -> x <> ''))) AS uniq_tokens,
  len(list_filter(string_split(text, chr(10)), x -> length(x) >= 20)) AS good_lines,
  len(string_split(text, chr(10))) AS n_lines
"""

_SQL_QUALITY_DERIVED = """
  floor(CASE WHEN n_tokens > 0 THEN CAST(uniq_tokens AS DOUBLE) / n_tokens ELSE 0.0 END * 1e6) / 1e6 AS rep_ratio,
  floor(CAST(good_lines AS DOUBLE) / n_lines * 1e6) / 1e6 AS struct_ratio,
  floor((0.4 * (least(n_chars, 400) / 400.0)
       + 0.4 * (CASE WHEN n_tokens > 0 THEN CAST(uniq_tokens AS DOUBLE) / n_tokens ELSE 0.0 END)
       + 0.2 * (CAST(good_lines AS DOUBLE) / n_lines)) * 1e6) / 1e6 AS confidence
"""

_SQL_VERDICT = (
    "CASE WHEN n_chars = 0 THEN 're_scan' "
    "WHEN confidence >= 0.95 THEN 'direct_analysis' "
    "WHEN confidence >= 0.80 THEN 'pre_processing' "
    "WHEN confidence >= 0.60 THEN 'deep_analysis' "
    "ELSE 'reupload' END"
)


def _sql_md5_le64(col: str) -> str:
    """HUGEINT expression for the repo-standard u64 hash of a string
    column: md5 hex → first 8 bytes little-endian (same construction the
    fingerprint oracle uses, parameterized by column name)."""
    pows = ", ".join(f"CAST({256 ** i} AS HUGEINT)" for i in range(8))
    return (
        "list_sum(list_transform(generate_series(0, 7), i -> "
        f"(CAST(strpos('0123456789abcdef', substr(md5({col}), 2*i+1, 1)) - 1 AS HUGEINT) * 16 "
        f"+ CAST(strpos('0123456789abcdef', substr(md5({col}), 2*i+2, 1)) - 1 AS HUGEINT)) "
        f"* [{pows}][i + 1]))"
    )


def _sql_pq(m: int = 4, k: int = 4, iters: int = 2, dim: int = 64) -> str:
    """Unrolled product-quantization oracle: the kmeans CTE trio per
    subspace slice, all m final assignments joined on vec_id — mirrors
    similarity.py::pq_fit/pq_encode op-for-op."""
    sub = dim // m
    sql = "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings), "
    for j in range(m):
        lo, hi = j * sub + 1, (j + 1) * sub
        p = f"s{j}"
        sql += (
            f"e{j} AS (SELECT vec_id, v[{lo}:{hi}] AS v FROM e), "
            f"{p}c0 AS (SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 "
            f"AS BIGINT) AS cid, v FROM (SELECT vec_id, v FROM e{j} "
            f"ORDER BY vec_id LIMIT {k})), "
        )
        for i in range(1, iters + 1):
            prev = f"{p}c{i - 1}"
            sql += (
                f"{p}a{i} AS (SELECT vec_id, cid FROM ("
                f"SELECT e{j}.vec_id, {prev}.cid, row_number() OVER ("
                f"PARTITION BY e{j}.vec_id ORDER BY "
                f"list_distance(e{j}.v, {prev}.v), {prev}.cid) AS rn "
                f"FROM e{j} CROSS JOIN {prev}) WHERE rn = 1), "
                f"{p}m{i} AS (SELECT cid, list(mv ORDER BY dim) AS nv FROM ("
                f"SELECT cid, dim, avg(val) AS mv FROM ("
                f"SELECT {p}a{i}.cid AS cid, unnest(e{j}.v) AS val, "
                f"unnest(range(1, len(e{j}.v) + 1)) AS dim "
                f"FROM {p}a{i} JOIN e{j} ON {p}a{i}.vec_id = e{j}.vec_id) "
                f"GROUP BY cid, dim) GROUP BY cid), "
                f"{p}c{i} AS (SELECT {prev}.cid, coalesce({p}m{i}.nv, {prev}.v) "
                f"AS v FROM {prev} LEFT JOIN {p}m{i} "
                f"ON {prev}.cid = {p}m{i}.cid), "
            )
        sql += (
            f"fin{j} AS (SELECT vec_id, cid AS code_{j} FROM ("
            f"SELECT e{j}.vec_id, {p}c{iters}.cid, row_number() OVER ("
            f"PARTITION BY e{j}.vec_id ORDER BY "
            f"list_distance(e{j}.v, {p}c{iters}.v), {p}c{iters}.cid) AS rn "
            f"FROM e{j} CROSS JOIN {p}c{iters}) WHERE rn = 1), "
        )
    sql = sql.rstrip(", ")
    joins = " ".join(f"JOIN fin{j} ON fin0.vec_id = fin{j}.vec_id"
                     for j in range(1, m))
    cols = ", ".join(f"fin{j}.code_{j}" for j in range(m))
    sql += f" SELECT fin0.vec_id, {cols} FROM fin0 {joins}"
    return sql


def _sql_kmeans(k: int = 4, iters: int = 2) -> str:
    """Unrolled Lloyd's k-means oracle: one (assign, mean, centroid) CTE
    trio per iteration, then a final assignment. Mirrors
    stages/similarity.py::kmeans_fit op-for-op — first-k init, squared-L2
    argmin with lowest-cid tie-break (list_distance's sqrt is monotone),
    empty clusters keep the previous centroid via LEFT JOIN + coalesce."""
    sql = (
        "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
        "FROM embeddings), "
        "c0 AS (SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) "
        f"AS cid, v FROM (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT {k})), "
    )
    for i in range(1, iters + 1):
        prev = f"c{i - 1}"
        sql += (
            f"a{i} AS (SELECT vec_id, cid FROM ("
            f"SELECT e.vec_id, {prev}.cid, row_number() OVER ("
            f"PARTITION BY e.vec_id ORDER BY list_distance(e.v, {prev}.v), "
            f"{prev}.cid) AS rn FROM e CROSS JOIN {prev}) WHERE rn = 1), "
            f"m{i} AS (SELECT cid, list(mv ORDER BY dim) AS nv FROM ("
            f"SELECT cid, dim, avg(val) AS mv FROM ("
            f"SELECT a{i}.cid AS cid, unnest(e.v) AS val, "
            f"unnest(range(1, len(e.v) + 1)) AS dim "
            f"FROM a{i} JOIN e ON a{i}.vec_id = e.vec_id) "
            f"GROUP BY cid, dim) GROUP BY cid), "
            f"c{i} AS (SELECT {prev}.cid, coalesce(m{i}.nv, {prev}.v) AS v "
            f"FROM {prev} LEFT JOIN m{i} ON {prev}.cid = m{i}.cid), "
        )
    sql += (
        f"fin AS (SELECT e.vec_id, c{iters}.cid, row_number() OVER ("
        f"PARTITION BY e.vec_id ORDER BY list_distance(e.v, c{iters}.v), "
        f"c{iters}.cid) AS rn FROM e CROSS JOIN c{iters}) "
        "SELECT vec_id, cid AS cluster FROM fin WHERE rn = 1"
    )
    return sql


def _sql_lang_id(id_col: str, table_expr: str) -> str:
    """lang_id oracle, generated from the SAME profile dicts the engine
    uses (stages/textstats.py) so they cannot drift. Mirrors the two-stage
    heuristic op-for-op: stopword-hit argmax (strict-greater update over
    sorted codes → first-max-wins tie-break), char-n-gram fallback when no
    stopword fires. The word regex [A-Za-z]+ equals the engine's
    ``[^\\W\\d_]+`` on ASCII corpora (documents fixture is ASCII)."""
    from documentai_ray.stages.textstats import CHAR_NGRAM_PROFILES, LANG_PROFILES

    codes = ["de", "en", "es", "fr"]  # sorted() order in the Python loop

    def sql_list(vals):
        return "[" + ", ".join("'" + v.replace("'", "''") + "'" for v in sorted(vals)) + "]"

    hits = ", ".join(
        f"len(list_filter(toks, x -> list_contains({sql_list(LANG_PROFILES[c])}, x))) AS h_{c}"
        for c in codes
    )

    def gcount(c):
        terms = " + ".join(
            f"(length(low) - length(replace(low, '{g}', ''))) // {len(g)}"
            for g in sorted(CHAR_NGRAM_PROFILES[c])
        )
        return f"({terms}) AS g_{c}"

    grams = ", ".join(gcount(c) for c in codes)
    return (
        f"WITH t AS (SELECT {id_col}, lower(text) AS low, "
        "list_transform(regexp_extract_all(text, '[A-Za-z]+'), w -> lower(w)) AS toks "
        f"FROM {table_expr}), "
        f"h AS (SELECT {id_col}, low, len(toks) AS n, {hits} FROM t), "
        f"g AS (SELECT *, {grams} FROM h) "
        f"SELECT {id_col}, CASE "
        "WHEN n = 0 THEN 'und' "
        "WHEN h_de > 0 OR h_en > 0 OR h_es > 0 OR h_fr > 0 THEN "
        "CASE WHEN h_de >= greatest(h_en, h_es, h_fr) AND h_de > 0 THEN 'de' "
        "WHEN h_en >= greatest(h_es, h_fr) AND h_en > 0 THEN 'en' "
        "WHEN h_es >= h_fr AND h_es > 0 THEN 'es' ELSE 'fr' END "
        "WHEN g_de = 0 AND g_en = 0 AND g_es = 0 AND g_fr = 0 THEN 'und' "
        "ELSE CASE WHEN g_de >= greatest(g_en, g_es, g_fr) AND g_de > 0 THEN 'de' "
        "WHEN g_en >= greatest(g_es, g_fr) AND g_en > 0 THEN 'en' "
        "WHEN g_es >= g_fr AND g_es > 0 THEN 'es' ELSE 'fr' END "
        "END AS pred_lang FROM g"
    )


def _norm_strings(table):
    """Cast large_string → string so schemas line up with DuckDB output."""
    import pyarrow as pa

    fields = []
    for f in table.schema:
        if f.type == pa.large_string():
            fields.append(pa.field(f.name, pa.string()))
        else:
            fields.append(f)
    return table.cast(pa.schema(fields))


def _norm_strings_ds(ds):
    """Streaming variant of ``_norm_strings`` (no driver materialization)."""
    return ds.map_batches(_norm_strings, batch_format="pyarrow")


def _minhash_verified_pairs(sf_dir: str):
    """Shared helper: (pages(url,text) Dataset, verified-pairs Dataset) for
    the near-dup queries — LSH candidates verified with exact 3-shingle
    Jaccard ≥ 0.8 (broadcast or join-based verification auto-selected by
    corpus size, dedup.verify_jaccard_pairs)."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import lsh_candidate_pairs, verify_jaccard_pairs
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    # materialize the (url, text) projection once: LSH, verification and
    # the caller's id pass all re-consume it, and each unpinned
    # consumption would re-run the extract chain over the corpus
    ds = ds.select_columns(["url", "text"]).materialize()
    cand = lsh_candidate_pairs(ds, id_col="url", num_perm=64, bands=16)
    return ds, verify_jaccard_pairs(ds, cand, threshold=0.8)


# SimHash screening radius for url-variant recaptures. 64-bit unigram
# SimHash of a page vs the same page plus ONE trailing token measures 0-10
# bits on this corpus (token-set deltas flip bits where the bit-vote margin
# is small); 20 gives 2× headroom while staying far below the ~32-bit
# expectation for unrelated pages. NOT a general near-dup radius: template
# twins (two POs differing only in digits) measure as low as 4-5 bits, so a
# corpus-wide Hamming ball at this radius needs an exact-similarity verify
# behind it (the MinHash→Jaccard path; simhash_candidate_pairs is the
# banded generator for that).
SIMHASH_VARIANT_MAX_HAMMING = 20


_GROUP_CATS = ["data_report", "purchase_order", "report_misc"]


def _extracted_pages_with_doc_id(sf_dir: str):
    """Shared prefix for line-level queries: pages → extract → exact dedup
    (latest capture per url) → non-empty docs with ``doc_id`` parsed back
    from the url tail (``/p/<doc_id>``) so line order has an int64 total
    order without a join."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(batch.column("text"), ""))
        ids = [int(u.rsplit("/", 1)[1]) for u in batch.column("url").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "url": batch.column("url").cast(pa.string()),
                         "text": batch.column("text").cast(pa.large_string())})

    return ds.map_batches(prep, batch_format="pyarrow")


_BM25_QUERIES = {
    "q_rare": ["dup", "merge"],
    "q_exec": ["window", "sort", "scan"],
    "q_cust": ["customer", "order", "dup"],
}


_FD_CANDIDATES = [
    ("o_orderkey", "o_orderstatus"),      # key → anything: holds
    ("o_custkey", "o_orderstatus"),       # fails where a customer mixes
    ("o_custkey", "o_orderpriority"),
    ("o_orderstatus", "o_orderpriority"),
    ("o_orderpriority", "o_orderstatus"),
]


def _trunc_ppm(num: int, den: int) -> int:
    return 1_000_000 * num // den


def _score_label_hist(sf_dir: str):
    """Shared (score, label) bounded histogram for the threshold-eval
    pair (conventions: score = quantity 1..50, label =
    returned 'R') — ONE exchange bounded by |scores|×2."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count

    def prep(batch: pa.Table) -> pa.Table:
        v = np.rint(batch.column("l_quantity").to_numpy()).astype("int64")
        return pa.table({
            "qty": pa.array(v, pa.int64()),
            "returned": pc.equal(batch.column("l_returnflag"), "R")})

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_returnflag"]
    ).map_batches(prep, batch_format="pyarrow")
    return (ds.groupby(["qty", "returned"])
            .aggregate(Count(alias_name="n"))).to_pandas()


def _arm_metric_stats(sf_dir: str):
    """Shared 5-metric × 2-arm 2×2 census for the multiple-testing
    pair (holm_bonferroni / bh_fdr): ONE user exchange carrying the
    five binary flags, Knuth-hash arms, fully-cleared per-metric χ²
    pieces.  Returns [(metric, n, chi2_milli, lhs, den)] with
    lhs = n·(ad−bc)² for the cross-multiplied comparisons."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        et = batch.column("event_type")
        conv = pc.and_(pc.equal(et, "purchase"),
                       pc.greater_equal(batch.column("value"),
                                        pa.scalar(150.0)))
        return pa.table({
            "user_id": batch.column("user_id"),
            "conv": conv.cast(pa.int64()),
            "err": pc.equal(et, "error").cast(pa.int64()),
            "clk": pc.equal(et, "click").cast(pa.int64()),
            "pur": pc.equal(et, "purchase").cast(pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Count(alias_name="n_ev"),
                           Max("conv", alias_name="conv"),
                           Max("err", alias_name="err"),
                           Max("clk", alias_name="clk"),
                           Sum("pur", alias_name="np")))
    names = ["converted", "any_error", "any_click", "repeat_buyer",
             "high_activity"]

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        hh = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        tr = hh < np.uint64(1 << 31)
        ys = [batch.column("conv").to_numpy() > 0,
              batch.column("err").to_numpy() > 0,
              batch.column("clk").to_numpy() > 0,
              batch.column("np").to_numpy() >= 12,
              batch.column("n_ev").to_numpy() >= 66]
        rows = [(name, int((tr & y).sum()), int((tr & ~y).sum()),
                 int((~tr & y).sum()), int((~tr & ~y).sum()))
                for name, y in zip(names, ys)]
        return pa.table({
            "metric": pa.array([r[0] for r in rows], pa.string()),
            "a": pa.array([r[1] for r in rows], pa.int64()),
            "b": pa.array([r[2] for r in rows], pa.int64()),
            "c": pa.array([r[3] for r in rows], pa.int64()),
            "d": pa.array([r[4] for r in rows], pa.int64())})

    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .groupby("metric")
         .aggregate(*[Sum(c, alias_name=c) for c in
                      ("a", "b", "c", "d")])).to_pandas()
    stats = []
    for _, r in g.iterrows():
        name = r["metric"]
        a, b, c, d = (int(r[x]) for x in ("a", "b", "c", "d"))
        n = a + b + c + d
        den = (a + b) * (c + d) * (a + c) * (b + d)
        num = a * d - b * c
        chi2 = 1000 * n * num * num // den if den > 0 else 0
        stats.append((name, n, chi2, n * num * num, den))
    return stats


_RAKE_STOPWORDS = ["the", "a", "and", "of", "is", "to", "in"]


_CONFORMANCE_MODEL = [
    ("signup", "view"), ("view", "view"), ("view", "click"),
    ("click", "view"), ("click", "purchase"), ("purchase", "view"),
]


def _bm25_top_rel(sf_dir: str):
    """Shared (query_id → [(rank, rel), ...]) scaffold for the
    position-weighted IR-eval pair: bm25_topk ranking + AND-relevance
    flags fetched ONLY for the ≤ |queries|·k candidate docs (the
    mrr_eval discipline — one pruned corpus scan, nothing
    corpus-sized materializes)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from documentai_ray.stages.indexing import bm25_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    top = bm25_topk(ds, queries=_BM25_QUERIES, k=5)
    cand = set(int(d) for d in top["doc_id"])

    def pick(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch.column("doc_id"),
                     value_set=pa.array(sorted(cand), pa.int64()))
        return batch.filter(m)

    toksets = {}
    for row in (ds.map_batches(pick, batch_format="pyarrow")
                .take_all()):
        toksets[int(row["doc_id"])] = set((row["text"] or "").split(" "))

    per_q = {}
    for qid, terms in sorted(_BM25_QUERIES.items()):
        need = set(terms)
        rows = top[top["query_id"] == qid]
        per_q[qid] = sorted(
            (int(r), int(need <= toksets.get(int(d), set())))
            for r, d in zip(rows["rank"], rows["doc_id"]))
    return per_q


_SQL_BPE_WORDS = (
    "SELECT token AS word, CAST(count(*) AS BIGINT) AS n FROM "
    "(SELECT unnest(string_split(text, ' ')) AS token FROM documents) "
    "WHERE token <> '' GROUP BY token"
)

# sentinel-delimited symbol string: chr(31)sym(chr30) per symbol, joined by
# ' ' — a string `replace` of "(31)lhs(30) (31)rhs(30)" is then EXACTLY one
# left-to-right non-overlapping whole-symbol merge pass (see stages/bpe.py)
_SQL_BPE_SPACED = (
    "array_to_string(list_transform(range(1, length({w})+1), "
    "i -> chr(31) || substr({w}, CAST(i AS INT), 1) || chr(30)), ' ')"
)


def _sql_bpe_train(num_merges: int) -> str:
    """Unrolled BPE training rounds: s{k} = vocab segmentation after k
    merges, p{k} = weighted adjacent-pair counts, m{k} = argmax pair."""
    spaced = _SQL_BPE_SPACED.format(w="word")
    parts = [f"WITH w AS ({_SQL_BPE_WORDS}), ",
             f"s0 AS (SELECT {spaced} AS s, n FROM w)"]
    for k in range(1, num_merges + 1):
        parts.append(
            f", p{k} AS (SELECT "
            "replace(replace(syms[CAST(i AS INT)], chr(31), ''), chr(30), '') AS lhs, "
            "replace(replace(syms[CAST(i AS INT)+1], chr(31), ''), chr(30), '') AS rhs, "
            "CAST(sum(n) AS BIGINT) AS n "
            "FROM (SELECT string_split(s, ' ') AS syms, n, "
            "unnest(range(1, len(string_split(s, ' ')))) AS i "
            f"FROM s{k-1}) GROUP BY lhs, rhs)"
            f", m{k} AS (SELECT lhs, rhs, n FROM p{k} "
            "ORDER BY n DESC, lhs, rhs LIMIT 1)"
            f", s{k} AS (SELECT replace(s, "
            f"chr(31) || (SELECT lhs FROM m{k}) || chr(30) || ' ' || "
            f"chr(31) || (SELECT rhs FROM m{k}) || chr(30), "
            f"chr(31) || (SELECT lhs || rhs FROM m{k}) || chr(30)) AS s, n "
            f"FROM s{k-1})")
    union = " UNION ALL ".join(
        f"SELECT {k} AS rank, lhs, rhs, n FROM m{k}"
        for k in range(1, num_merges + 1))
    return "".join(parts) + " " + union


def _sql_bpe_encode_tokens(word_expr: str) -> str:
    """Token count of a word under PRETRAINED_MERGES: nested replaces in
    training order over the sentinel symbol string."""
    from documentai_ray.stages.bpe import PRETRAINED_MERGES

    e = _SQL_BPE_SPACED.format(w=word_expr)
    for lhs, rhs in PRETRAINED_MERGES:
        pat = (f"chr(31) || '{lhs}' || chr(30) || ' ' || "
               f"chr(31) || '{rhs}' || chr(30)")
        rep = f"chr(31) || '{lhs}{rhs}' || chr(30)"
        e = f"replace({e}, {pat}, {rep})"
    return f"len(string_split({e}, ' '))"


# BM25 CTE chain of the bm25_topk oracle: cleared-fraction
# saturation × rational idf, positive scores ranked per query
_SQL_BM25_CORE = (
    "dl AS (SELECT doc_id, "
    "len(string_split(text, ' ')) AS dl FROM documents), "
    "st AS (SELECT count(*) AS n, SUM(dl) AS l FROM dl), "
    "qt AS (SELECT * FROM (VALUES "
    + ", ".join(f"('{qid}', '{t}')"
                for qid, ts in sorted(_BM25_QUERIES.items())
                for t in ts)
    + ") AS v(query_id, t)), "
    "terms AS (SELECT DISTINCT t FROM qt), "
    "tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t "
    "FROM documents), "
    "tf AS (SELECT tok.doc_id, tok.t, count(*) AS tf FROM tok "
    "JOIN terms USING (t) GROUP BY 1, 2), "
    "df AS (SELECT t, count(DISTINCT doc_id) AS df FROM tok "
    "JOIN terms USING (t) GROUP BY 1), "
    "sc AS (SELECT qt.query_id, tf.doc_id, "
    "SUM((1000000 * (st.n - df.df + 1) // (df.df + 1)) "
    "* (22 * CAST(tf.tf AS HUGEINT) * st.l) "
    "// (10 * CAST(tf.tf AS HUGEINT) * st.l + 3 * st.l "
    "+ 9 * CAST(dl.dl AS HUGEINT) * st.n)) AS score "
    "FROM qt JOIN tf ON tf.t = qt.t JOIN df ON df.t = qt.t "
    "JOIN dl ON dl.doc_id = tf.doc_id, st GROUP BY 1, 2), "
    "r AS (SELECT query_id, doc_id, score, row_number() OVER "
    "(PARTITION BY query_id ORDER BY score DESC, doc_id) AS rnk "
    "FROM sc WHERE score > 0)"
)


def _sql_fingerprint() -> str:
    """Fingerprint oracle: the full md5-token → LE-uint64 → 4-token window
    polynomial hash (mod 2⁶⁴ via HUGEINT) → %8 anchors → bit_xor chain in
    SQL, mirrored from stages/textstats.py (B, window, keep_mod inline).
    Verified bit-exact against the Python path over the whole corpus."""
    pows = ", ".join(f"CAST({256 ** i} AS HUGEINT)" for i in range(8))
    tok_hash = (
        "list_sum(list_transform(generate_series(0, 7), i -> "
        "(CAST(strpos('0123456789abcdef', substr(md5(tok), 2*i+1, 1)) - 1 AS HUGEINT) * 16 "
        "+ CAST(strpos('0123456789abcdef', substr(md5(tok), 2*i+2, 1)) - 1 AS HUGEINT)) "
        f"* [{pows}][i + 1]))"
    )
    B = 1000003
    M = 1 << 64
    bp = [pow(B, k, M) for k in range(4)]
    return (
        "WITH t AS (SELECT doc_id, "
        "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
        "FROM documents), "
        "th AS (SELECT doc_id, len(toks) AS nt, "
        f"list_transform(toks, tok -> {tok_hash}) AS hs FROM t), "
        "f AS (SELECT doc_id, CASE "
        "WHEN nt = 0 THEN CAST(0 AS HUGEINT) "
        f"WHEN nt < 4 THEN list_reduce(hs, (a, b) -> (a * {B} + b) % CAST({M} AS HUGEINT)) "
        "ELSE coalesce(list_aggregate(list_filter("
        "list_transform(generate_series(1, nt - 3), i -> "
        f"(hs[i] * CAST({bp[3]} AS HUGEINT) + hs[i+1] * CAST({bp[2]} AS HUGEINT) "
        f"+ hs[i+2] * CAST({bp[1]} AS HUGEINT) + hs[i+3]) % CAST({M} AS HUGEINT)), "
        "v -> v % 8 = 0), 'bit_xor'), CAST(0 AS HUGEINT)) END AS fp FROM th) "
        f"SELECT doc_id, CAST(CASE WHEN fp >= CAST({1 << 63} AS HUGEINT) "
        f"THEN fp - CAST({M} AS HUGEINT) ELSE fp END AS BIGINT) AS fingerprint "
        "FROM f"
    )

# hoisted from the former oracle_sql() pre-return body
quality_inner = (
    f"SELECT url, {_SQL_QUALITY_METRICS.strip()}, lang FROM ({_SQL_EXPECTED_PAGES})"
)


__all__ = ['_REPO_ROOT', 'quality_inner', 'SIMHASH_VARIANT_MAX_HAMMING', '_BM25_QUERIES', '_CONFORMANCE_MODEL', '_FD_CANDIDATES', '_GROUP_CATS', '_INV_P1', '_INV_P2', '_INV_Q1', '_INV_Q2', '_RAKE_STOPWORDS', '_SQL_AMB_SUFFIX', '_SQL_BM25_CORE', '_SQL_BPE_SPACED', '_SQL_BPE_WORDS', '_SQL_CATEGORY', '_SQL_EXPECTED_PAGES', '_SQL_GOLDEN_TEXT', '_SQL_INV_TEXT', '_SQL_JACCARD_PAIRS', '_SQL_PAGES_WITH_AMP', '_SQL_PO_TEXT', '_SQL_QUALITY_DERIVED', '_SQL_QUALITY_METRICS', '_SQL_URL', '_SQL_VERDICT', '_SQL_VOTES', '_arm_metric_stats', '_bm25_top_rel', '_extracted_pages_with_doc_id', '_minhash_verified_pairs', '_norm_strings', '_norm_strings_ds', '_score_label_hist', '_sql_bpe_encode_tokens', '_sql_bpe_train', '_sql_fingerprint', '_sql_kmeans', '_sql_lang_id', '_sql_md5_le64', '_sql_pq', '_trunc_ppm', 'os']
