"""Oracle-SQL dict entries (part 1/2) — split out of ``__ray_entry__.py````oracle_sql()``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def oracle_sql_part_01() -> dict:
    return {
        "extract_text": f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES})",
        "quality_pages": (
            "SELECT url, n_chars, n_tokens, uniq_tokens, rep_ratio, struct_ratio, "
            f"confidence, {_SQL_VERDICT} AS verdict, "
            "lang IN ('en','de','fr','es') AS lang_ok FROM ("
            f"SELECT url, n_chars, n_tokens, uniq_tokens, good_lines, n_lines, lang, "
            f"{_SQL_QUALITY_DERIVED.strip()} FROM ({quality_inner}))"
        ),
        "classify_pages": (
            f"SELECT {_SQL_URL} AS url, {_SQL_CATEGORY} AS category, "
            f"{_SQL_VOTES} AS votes FROM documents"
        ),
        "preprocess_decision": (
            "SELECT url, verdict, "
            "verdict IN ('pre_processing', 'deep_analysis') AS needs_preprocessing, "
            "CASE verdict "
            "WHEN 'pre_processing' THEN ['contrast_stretch', 'brightness'] "
            "WHEN 'deep_analysis' THEN ['contrast_stretch', 'black_point', 'brightness'] "
            "ELSE CAST([] AS VARCHAR[]) END AS pp_operations, "
            "CASE verdict WHEN 'direct_analysis' THEN 'none' "
            "WHEN 'pre_processing' THEN 'normal' "
            "WHEN 'deep_analysis' THEN 'high' "
            "ELSE 'reject' END AS pp_priority FROM ("
            f"SELECT url, {_SQL_VERDICT} AS verdict FROM ("
            "SELECT url, n_chars, "
            f"{_SQL_QUALITY_DERIVED.strip()} FROM ("
            f"SELECT url, {_SQL_QUALITY_METRICS.strip()} FROM ({_SQL_EXPECTED_PAGES}))))"
        ),
        "entities_po": (
            f"SELECT {_SQL_URL} AS url, "
            "'PO-' || (10000 + doc_id) AS po_number, "
            "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') || '.' || "
            "lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || '.2024' AS po_date, "
            "'GLOBAL TRADING COMPANY ' || (doc_id % 7) || ' LIMITED' AS seller, "
            "'ACME IMPORTS ' || (doc_id % 5) || ' LLC' AS buyer, "
            "'STEEL COILS GRADE ' || (doc_id % 9) AS goods, "
            "(100 + doc_id % 400) || '.00' AS quantity, "
            "'MT' AS unit, 'USD' AS currency, "
            "format('{:,}', (100 + doc_id % 400) * 500) || '.00' AS total_amount, "
            "'CFR SINGAPORE (INCOTERMS 2020)' AS incoterms "
            "FROM documents WHERE doc_id % 5 = 2 AND doc_id % 97 <> 0"
        ),
        "entities_invoice": (
            f"SELECT {_SQL_URL} AS url, "
            "'INV-' || (20000 + doc_id) AS inv_number, "
            "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') || '.' || "
            "lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || '.2024' AS inv_date, "
            "'GLOBAL TRADING COMPANY ' || (doc_id % 7) || ' LIMITED' AS seller, "
            "'ACME IMPORTS ' || (doc_id % 5) || ' LLC' AS buyer, "
            "'USD' AS currency, "
            f"({_INV_Q1} * {_INV_P1} + {_INV_Q2} * {_INV_P2}) || '.00' AS total_amount, "
            "'CIF ROTTERDAM (INCOTERMS 2020)' AS incoterms, "
            "[{'description': 'STEEL COILS GRADE ' || (doc_id % 9), "
            "'hs_code': '7209.1' || (doc_id % 7), "
            f"'quantity': CAST({_INV_Q1} AS VARCHAR), 'unit': 'MT', "
            f"'unit_price': {_INV_P1} || '.00', "
            f"'amount': ({_INV_Q1} * {_INV_P1}) || '.00'}}, "
            "{'description': 'ALUMINIUM SHEETS TYPE ' || (doc_id % 4), "
            "'hs_code': '7606.1' || (doc_id % 7), "
            f"'quantity': CAST({_INV_Q2} AS VARCHAR), 'unit': 'KG', "
            f"'unit_price': {_INV_P2} || '.00', "
            f"'amount': ({_INV_Q2} * {_INV_P2}) || '.00'}}] AS goods_items "
            "FROM documents WHERE doc_id % 10 = 4 AND doc_id % 97 <> 0"
        ),
        "rules_po": (
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 400 < 200 THEN 8 ELSE 7 END AS rules_passed, "
            "CASE WHEN doc_id % 400 < 200 THEN 0 ELSE 1 END AS rules_failed, "
            "doc_id % 400 < 200 AS overall_valid "
            "FROM documents WHERE doc_id % 5 = 2 AND doc_id % 97 <> 0"
        ),
        # closed-form layout geometry (minipdf.build_from_lines docstring):
        # x = 36 + Σ_before(6·len+4), y = 50 + 100·block + 12·line, ×2 scale.
        # L = len(po_number), A = len(total_amount) are the only variable widths.
        "wordbox_match": (
            f"SELECT {_SQL_URL} AS url, "
            "1 AS po_number_page, 196.0 AS po_number_x0, 100.0 AS po_number_y0, "
            "2 * (98 + 6 * L) AS po_number_x1, 120.0 AS po_number_y1, "
            "1 AS po_date_page, 2 * (136 + 6 * L) AS po_date_x0, 100.0 AS po_date_y0, "
            "2 * (136 + 6 * L) + 120.0 AS po_date_x1, 120.0 AS po_date_y1, "
            "1 AS seller_page, 164.0 AS seller_x0, 124.0 AS seller_y0, "
            "532.0 AS seller_x1, 144.0 AS seller_y1, "
            "1 AS buyer_page, 152.0 AS buyer_x0, 148.0 AS buyer_y0, "
            "356.0 AS buyer_x1, 168.0 AS buyer_y1, "
            "1 AS total_amount_page, 276.0 AS total_amount_x0, 348.0 AS total_amount_y0, "
            "2 * (138 + 6 * A) AS total_amount_x1, 368.0 AS total_amount_y1 "
            "FROM (SELECT doc_id, source, "
            "CAST(length('PO-' || (10000 + doc_id)) AS DOUBLE) AS L, "
            "CAST(length(format('{:,}', (100 + doc_id % 400) * 500) || '.00') AS DOUBLE) AS A "
            "FROM documents WHERE doc_id % 5 = 2 AND doc_id % 97 <> 0)"
        ),
        "flagship_boxes": (
            f"SELECT {_SQL_URL} AS url, 'purchase_order' AS category, "
            "1 AS po_number_page, 196.0 AS po_number_x0, 100.0 AS po_number_y0, "
            "2 * (98 + 6 * L) AS po_number_x1, 120.0 AS po_number_y1, "
            "1 AS po_date_page, 2 * (136 + 6 * L) AS po_date_x0, 100.0 AS po_date_y0, "
            "2 * (136 + 6 * L) + 120.0 AS po_date_x1, 120.0 AS po_date_y1, "
            "1 AS seller_page, 164.0 AS seller_x0, 124.0 AS seller_y0, "
            "532.0 AS seller_x1, 144.0 AS seller_y1, "
            "1 AS buyer_page, 152.0 AS buyer_x0, 148.0 AS buyer_y0, "
            "356.0 AS buyer_x1, 168.0 AS buyer_y1, "
            "1 AS total_amount_page, 276.0 AS total_amount_x0, 348.0 AS total_amount_y0, "
            "2 * (138 + 6 * A) AS total_amount_x1, 368.0 AS total_amount_y1 "
            "FROM (SELECT doc_id, source, "
            "CAST(length('PO-' || (10000 + doc_id)) AS DOUBLE) AS L, "
            "CAST(length(format('{:,}', (100 + doc_id % 400) * 500) || '.00') AS DOUBLE) AS A "
            "FROM documents WHERE doc_id % 5 = 2 AND doc_id % 97 <> 0)"
        ),
        "docs_exact_dedup": (
            "SELECT doc_id, lang, source FROM documents WHERE doc_id IN "
            "(SELECT min(doc_id) FROM documents GROUP BY md5(text))"
        ),
        "token_stats": (
            # CAST: DuckDB sum() over ints is HUGEINT → float64 in pandas;
            # the Ray side sums int64 (VERDICT r1 "What's wrong" #1)
            "SELECT lang, count(*) AS n_docs, "
            "CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS total_tokens, "
            "floor(CAST(sum(len(string_split(text, ' '))) AS DOUBLE) / count(*) * 1e6) / 1e6 "
            "AS avg_tokens FROM documents GROUP BY lang"
        ),
        "doc_quality": (
            "SELECT doc_id, n_chars, n_tokens, uniq_tokens, rep_ratio, struct_ratio, "
            f"confidence, {_SQL_VERDICT} AS verdict, "
            "lang IN ('en','de','fr','es') AS lang_ok FROM ("
            "SELECT doc_id, n_chars, n_tokens, uniq_tokens, good_lines, n_lines, lang, "
            f"{_SQL_QUALITY_DERIVED.strip()} FROM ("
            f"SELECT doc_id, lang, {_SQL_QUALITY_METRICS.strip()} FROM documents))"
        ),
        "minhash_neardup": _SQL_JACCARD_PAIRS,
        "ppjoin_pairs": _SQL_JACCARD_PAIRS,
        "containment_pairs": (
            f"WITH pages AS ({_SQL_PAGES_WITH_AMP}), "
            "sh AS (SELECT url, "
            "list_distinct(list_transform(generate_series(1, len(toks) - 2), "
            "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS sh "
            "FROM (SELECT url, list_filter(string_split_regex(text, "
            "'\\s+'), x -> x <> '') AS toks FROM pages "
            "WHERE text <> '')) "
            "SELECT a.url AS id_sub, b.url AS id_super, "
            "CAST(len(list_intersect(a.sh, b.sh)) AS BIGINT) AS inter, "
            "CAST(len(a.sh) AS BIGINT) AS n_sub "
            "FROM sh a JOIN sh b ON a.url <> b.url "
            "WHERE len(a.sh) > 0 AND "
            "len(list_intersect(a.sh, b.sh)) * 1000000 >= "
            "800000 * len(a.sh)"
        ),
        "jaccard_pairs": (
            "WITH sh AS (SELECT doc_id, source, "
            "list_distinct(list_transform(generate_series(1, len(toks) - 2), "
            "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS sh "
            "FROM (SELECT doc_id, source, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents)) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b FROM sh a JOIN sh b "
            "ON a.source = b.source AND a.doc_id < b.doc_id "
            "WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) / "
            "len(list_distinct(a.sh || b.sh)) >= 0.5"
        ),
        # survivors = min-of-component; near-dup components in this corpus
        # are cliques (every member pair exceeds the threshold), so the min
        # node is exactly the one never appearing on the greater (url_b) side
        "minhash_dedup_keep": (
            f"WITH pairs AS ({_SQL_JACCARD_PAIRS}) "
            f"SELECT url FROM ({_SQL_PAGES_WITH_AMP}) "
            "WHERE url NOT IN (SELECT url_b FROM pairs)"
        ),
        "simhash_hamming": (
            f"SELECT {_SQL_URL} AS url_a, {_SQL_URL} || '?amp=1' AS url_b "
            "FROM documents WHERE doc_id % 50 IN (3, 7) AND doc_id % 97 <> 0"
        ),
        "embedding_neardup": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b FROM embeddings a "
            "JOIN embeddings b ON a.label = b.label AND a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])) >= 0.4"
        ),
        "topk_similarity": (
            "WITH s AS (SELECT vec_id, list_cosine_similarity(CAST(embedding AS DOUBLE[]), "
            "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)) AS c "
            "FROM embeddings WHERE vec_id <> 0) "
            "SELECT vec_id, floor(c * 1e4) / 1e4 AS score FROM s "
            "ORDER BY c DESC, vec_id LIMIT 10"
        ),
        # gaps-and-islands segmentation: island = rn − rn-per-category;
        # a new group starts at every always_separate page or at run
        # position 0, 2, 4… (the max_pages_per_group=2 cap)
        "group_pages": (
            "WITH pages AS ("
            "  SELECT doc_id, i, CASE ((doc_id + i) // 3) % 3 "
            "    WHEN 0 THEN 'data_report' WHEN 1 THEN 'purchase_order' "
            "    ELSE 'report_misc' END AS category "
            "  FROM documents, LATERAL (SELECT unnest(range(0, 3 + doc_id % 6)) AS i)"
            "), runs AS ("
            "  SELECT doc_id, i, category, "
            "    row_number() OVER (PARTITION BY doc_id ORDER BY i) "
            "    - row_number() OVER (PARTITION BY doc_id, category ORDER BY i) AS island "
            "  FROM pages"
            "), pos AS ("
            "  SELECT doc_id, i, category, "
            "    row_number() OVER (PARTITION BY doc_id, category, island ORDER BY i) - 1 AS run_pos "
            "  FROM runs"
            "), flags AS ("
            "  SELECT doc_id, i, category, "
            "    CASE WHEN category = 'purchase_order' OR run_pos % 2 = 0 "
            "    THEN 1 ELSE 0 END AS new_group FROM pos"
            ") SELECT doc_id, i + 1 AS page_num, category, "
            "CAST(sum(new_group) OVER (PARTITION BY doc_id ORDER BY i) - 1 AS BIGINT) "
            "AS group_id FROM flags"
        ),
        "category_summary": (
            f"SELECT {_SQL_CATEGORY} AS category, count(*) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS total_chars, "
            "floor(sum(confidence) / count(*) * 1e6) / 1e6 AS avg_confidence "
            "FROM (SELECT doc_id, n_chars, "
            f"{_SQL_QUALITY_DERIVED.strip()} FROM ("
            f"SELECT doc_id, {_SQL_QUALITY_METRICS.strip()} "
            f"FROM ({_SQL_EXPECTED_PAGES}))) GROUP BY 1"
        ),
        "vote_distribution": (
            f"SELECT {_SQL_CATEGORY} AS category, {_SQL_VOTES} AS votes, "
            "count(*) AS n_docs FROM documents GROUP BY 1, 2"
        ),
        # WARC-fed flagship: same per-category roll-up as category_summary
        # (the wire container is transparent to the chain's semantics)
        "flagship_warc": (
            f"SELECT {_SQL_CATEGORY} AS category, count(*) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS total_chars, "
            "floor(sum(confidence) / count(*) * 1e6) / 1e6 AS avg_confidence "
            "FROM (SELECT doc_id, n_chars, "
            f"{_SQL_QUALITY_DERIVED.strip()} FROM ("
            f"SELECT doc_id, {_SQL_QUALITY_METRICS.strip()} "
            f"FROM ({_SQL_EXPECTED_PAGES}))) GROUP BY 1"
        ),
        "mean_embedding": (
            "WITH u AS (SELECT label, "
            "unnest(generate_series(1, len(embedding))) AS dim, "
            "unnest(list_transform(embedding, x -> "
            "CAST(round(CAST(x AS DOUBLE) * 1000000) AS BIGINT))) AS q "
            "FROM embeddings) "
            "SELECT label, dim, CAST(sum(q) AS BIGINT) AS sum_q, "
            "count(*) AS n FROM u GROUP BY label, dim"
        ),
        "readability": (
            "WITH a AS (SELECT doc_id, "
            "greatest(1, len(regexp_extract_all(lower(text), "
            "'[a-z]+'))) AS w, "
            "greatest(1, len(regexp_extract_all(text, '[.!?]+'))) AS s, "
            "len(regexp_extract_all(lower(text), '[aeiouy]+')) AS y0 "
            "FROM documents), "
            "b AS (SELECT doc_id, w, s, greatest(w, y0) AS y FROM a) "
            "SELECT doc_id, CAST(w AS BIGINT) AS n_words, "
            "CAST(s AS BIGINT) AS n_sents, CAST(y AS BIGINT) AS n_syll, "
            "CAST(206835000 - 1015 * (1000 * w // s) "
            "- 84600 * (1000 * y // w) AS BIGINT) AS flesch_ppm FROM b"
        ),
        "vocab_growth": (
            "WITH tok AS (SELECT u.token, min(d.doc_id) AS mid "
            "FROM documents d, "
            "unnest(string_split(d.text, ' ')) AS u(token) "
            "WHERE u.token <> '' GROUP BY u.token), "
            "tb AS (SELECT CASE WHEN mid = 0 THEN 0 "
            "ELSE length(bin(mid)) END AS b, count(*) AS n "
            "FROM tok GROUP BY 1), "
            "db AS (SELECT CASE WHEN doc_id = 0 THEN 0 "
            "ELSE length(bin(doc_id)) END AS b, count(*) AS n "
            "FROM documents GROUP BY 1), "
            "ks AS (SELECT * FROM generate_series(0, 63) AS t(k) "
            "WHERE k <= (SELECT max(b) FROM db)) "
            "SELECT CAST(ks.k AS BIGINT) AS k, "
            "CAST((SELECT coalesce(sum(n), 0) FROM db "
            "WHERE db.b <= ks.k) AS BIGINT) AS prefix_docs, "
            "CAST((SELECT coalesce(sum(n), 0) FROM tb "
            "WHERE tb.b <= ks.k) AS BIGINT) AS vocab FROM ks"
        ),
        # dup-shingle set over ALL positions (cross-doc AND within-doc),
        # then gaps-and-islands merge of fixed-length spans per doc
        "repeated_passages": (
            "WITH t AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents), "
            "p AS (SELECT doc_id, "
            "unnest(generate_series(1, len(toks) - 7)) - 1 AS pos, "
            "unnest(list_transform(generate_series(1, len(toks) - 7), "
            "i -> array_to_string(toks[i:i+7], ' '))) AS sh "
            "FROM t WHERE len(toks) >= 8), "
            "c AS (SELECT sh FROM p GROUP BY sh HAVING count(*) >= 2), "
            "m AS (SELECT doc_id, pos FROM p WHERE sh IN (SELECT sh FROM c)), "
            "w AS (SELECT doc_id, pos, CASE WHEN "
            "lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) IS NULL "
            "OR pos > lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) + 8 "
            "THEN 1 ELSE 0 END AS brk FROM m), "
            "g AS (SELECT doc_id, pos, sum(brk) OVER (PARTITION BY doc_id "
            "ORDER BY pos) AS island FROM w) "
            "SELECT doc_id, min(pos) AS span_start, max(pos) + 8 AS span_end, "
            "count(*) AS n_shingles FROM g GROUP BY doc_id, island"
        ),
        "category_split_pdfs": (
            "SELECT doc_id, group_id, min(category) AS category, "
            "count(*) AS n_pages, true AS pdf_valid FROM ("
            "WITH pages AS ("
            "  SELECT doc_id, i, CASE ((doc_id + i) // 3) % 3 "
            "    WHEN 0 THEN 'data_report' WHEN 1 THEN 'purchase_order' "
            "    ELSE 'report_misc' END AS category "
            "  FROM documents, LATERAL (SELECT unnest(range(0, 3 + doc_id % 6)) AS i)"
            "), runs AS ("
            "  SELECT doc_id, i, category, "
            "    row_number() OVER (PARTITION BY doc_id ORDER BY i) "
            "    - row_number() OVER (PARTITION BY doc_id, category ORDER BY i) AS island "
            "  FROM pages"
            "), pos AS ("
            "  SELECT doc_id, i, category, "
            "    row_number() OVER (PARTITION BY doc_id, category, island ORDER BY i) - 1 AS run_pos "
            "  FROM runs"
            "), flags AS ("
            "  SELECT doc_id, i, category, "
            "    CASE WHEN category = 'purchase_order' OR run_pos % 2 = 0 "
            "    THEN 1 ELSE 0 END AS new_group FROM pos"
            ") SELECT doc_id, category, "
            "CAST(sum(new_group) OVER (PARTITION BY doc_id ORDER BY i) - 1 AS BIGINT) "
            "AS group_id FROM flags) GROUP BY doc_id, group_id"
        ),
        "dedup_passages": (
            "WITH t AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents), "
            "p AS (SELECT doc_id, "
            "unnest(generate_series(1, len(toks) - 7)) - 1 AS pos, "
            "unnest(list_transform(generate_series(1, len(toks) - 7), "
            "i -> array_to_string(toks[i:i+7], ' '))) AS sh "
            "FROM t WHERE len(toks) >= 8), "
            "c AS (SELECT sh FROM p GROUP BY sh HAVING count(*) >= 2), "
            "m AS (SELECT doc_id, pos FROM p WHERE sh IN (SELECT sh FROM c)), "
            "w AS (SELECT doc_id, pos, CASE WHEN "
            "lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) IS NULL "
            "OR pos > lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) + 8 "
            "THEN 1 ELSE 0 END AS brk FROM m), "
            "g AS (SELECT doc_id, pos, sum(brk) OVER (PARTITION BY doc_id "
            "ORDER BY pos) AS island FROM w), "
            "sp AS (SELECT doc_id, min(pos) AS s, max(pos) + 8 AS e "
            "FROM g GROUP BY doc_id, island), "
            "tok AS (SELECT doc_id, unnest(toks) AS wd, "
            "unnest(range(0, len(toks))) AS j FROM t), "
            "kept AS (SELECT tok.doc_id, wd, j FROM tok WHERE NOT EXISTS ("
            "SELECT 1 FROM sp WHERE sp.doc_id = tok.doc_id "
            "AND tok.j >= sp.s AND tok.j < sp.e)), "
            "agg AS (SELECT doc_id, string_agg(wd, ' ' ORDER BY j) AS text_dedup, "
            "count(*) AS n_kept FROM kept GROUP BY doc_id) "
            "SELECT t.doc_id, coalesce(agg.text_dedup, '') AS text_dedup, "
            "len(t.toks) - coalesce(agg.n_kept, 0) AS n_tokens_removed, "
            "len(t.toks) AS n_tokens_total "
            "FROM t LEFT JOIN agg ON t.doc_id = agg.doc_id"
        ),
        "gopher_quality": (
            f"WITH d AS (SELECT url, text FROM ({_SQL_EXPECTED_PAGES}) "
            "WHERE text <> ''), "
            "m AS (SELECT url, text, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks, "
            "string_split(text, chr(10)) AS ls FROM d), "
            "s AS (SELECT url, len(toks) AS n_words, "
            "CASE WHEN len(toks) = 0 THEN 0 ELSE "
            "CAST(list_sum(list_transform(toks, w -> length(w))) * 1000000 "
            "// len(toks) AS BIGINT) "
            "END AS mean_word_len_ppm, "
            "CASE WHEN len(toks) = 0 OR length(text) = 0 THEN 0 ELSE "
            "length(regexp_replace(text, '[a-zA-Z0-9 ' || chr(10) || ']', '', 'g')) "
            "* 1000000 // length(text) END AS symbol_ppm, "
            "CASE WHEN len(toks) = 0 THEN 0 ELSE "
            "len(list_filter(ls, l -> starts_with(l, '-') OR starts_with(l, '*'))) "
            "* 1000000 // len(ls) END AS bullet_ppm FROM m) "
            "SELECT url, n_words, mean_word_len_ppm, symbol_ppm, bullet_ppm, "
            "n_words BETWEEN 50 AND 100000 "
            "AND mean_word_len_ppm BETWEEN 3000000 AND 10000000 "
            "AND symbol_ppm <= 100000 AND bullet_ppm <= 900000 AS gq_keep "
            "FROM s"
        ),
        "entities_table": (
            f"SELECT {_SQL_URL} AS url, 'PO-' || (10000 + doc_id) AS tag_po, "
            "(100 + doc_id % 400) || '.00' AS tag_qty, 'USD' AS tag_ccy "
            "FROM documents WHERE doc_id % 5 = 2 AND doc_id % 97 <> 0"
        ),
        "lc_tags": (
            f"SELECT {_SQL_URL} AS url, "
            "'IRREVOCABLE' AS tag_40a, "
            "'24' || lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || "
            "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') AS tag_31c, "
            "'25' || lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || "
            "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') AS tag_31d, "
            "'USD ' || (CASE WHEN doc_id % 4 = 1 THEN 0 "
            "ELSE 1000 * (1 + doc_id % 50) END) || '.00' AS tag_32b, "
            "'APPLICANT COMPANY ' || (doc_id % 5) AS tag_50, "
            "'BENEFICIARY ' || (doc_id % 7) || ' CORP' AS tag_59, "
            "34 AS n_tags, "
            "CASE WHEN doc_id % 4 = 1 THEN 5 ELSE 6 END AS rules_passed, "
            "CASE WHEN doc_id % 4 = 1 THEN 1 ELSE 0 END AS rules_failed, "
            "doc_id % 4 <> 1 AS overall_valid "
            "FROM documents WHERE doc_id % 10 = 9 AND doc_id % 97 <> 0"
        ),
        # M16 census closed form: lines = ceil(words/8), pages =
        # max(ceil(lines/12), 1) (build_from_text 8w/line, 3 lines/block,
        # 4 blocks/page); page i is reprocessed iff (doc_id+i)%5 in (1,2)
        "selective_reprocess": (
            f"WITH t AS (SELECT doc_id, source, "
            "len(list_filter(string_split_regex(coalesce(text, ''), '\\s+'), "
            "x -> x <> '')) AS nw FROM documents WHERE doc_id % 97 <> 0), "
            "p AS (SELECT doc_id, source, greatest(CAST(ceil("
            "CAST(ceil(nw / 8.0) AS BIGINT) / 12.0) AS BIGINT), 1) "
            "AS total_pages FROM t), "
            "c AS (SELECT doc_id, source, total_pages, "
            "len(list_filter(generate_series(0, total_pages - 1), "
            "i -> (doc_id + i) % 5 IN (1, 2))) AS n_processed FROM p) "
            f"SELECT {_SQL_URL} AS url, total_pages, CAST(n_processed AS BIGINT) "
            "AS n_processed, total_pages - CAST(n_processed AS BIGINT) "
            "AS n_skipped, true AS roundtrip_ok FROM c"
        ),
        # mixed-payload dispatch: html keeps main content (one-block
        # article, golden = text when the block clears MIN_BLOCK_CHARS);
        # all three binary document formats collapse to the same
        # 8-words/line relayout
        "extract_mixed": (
            "WITH t AS (SELECT doc_id, source, coalesce(text, '') AS text, "
            "list_filter(string_split_regex(coalesce(text, ''), '\\s+'), "
            "x -> x <> '') AS toks "
            "FROM documents WHERE doc_id % 97 <> 0) "
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 6 <= 1 THEN 'html' "
            "WHEN doc_id % 6 = 5 THEN 'docx' ELSE 'pdf' END AS payload_kind, "
            "CASE WHEN doc_id % 6 <= 1 THEN "
            "(CASE WHEN len(text) >= 25 THEN text ELSE '' END) "
            "WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform(generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), chr(10)) "
            "END AS text FROM t"
        ),
        "error_census": (
            "WITH n AS (SELECT count(*) AS total, "
            "count(*) FILTER (doc_id % 97 = 0) AS bad FROM documents) "
            "SELECT * FROM (SELECT 'error' AS payload_kind, "
            "'UnicodeDecodeError' AS reason, bad AS n_rows FROM n "
            "UNION ALL SELECT 'error', 'ValueError', bad FROM n "
            "UNION ALL SELECT 'html', 'ok', total - bad FROM n "
            "UNION ALL SELECT 'pdf', 'ok', total - bad FROM n)"
        ),
        "lc_tags_ocr": (
            f"SELECT {_SQL_URL} AS url, "
            "'IRREVOCABLE' AS tag_40a, "
            "'24' || lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || "
            "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') AS tag_31c, "
            "'25' || lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || "
            "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') AS tag_31d, "
            "'USD ' || (CASE WHEN doc_id % 4 = 1 THEN 0 "
            "ELSE 1000 * (1 + doc_id % 50) END) || '.00' AS tag_32b, "
            "'APPLICANT COMPANY ' || (doc_id % 5) AS tag_50, "
            "'BENEFICIARY ' || (doc_id % 7) || ' CORP' AS tag_59, "
            "34 AS n_tags, "
            "CASE WHEN doc_id % 4 = 1 THEN 5 ELSE 6 END AS rules_passed, "
            "CASE WHEN doc_id % 4 = 1 THEN 1 ELSE 0 END AS rules_failed, "
            "doc_id % 4 <> 1 AS overall_valid "
            "FROM documents WHERE doc_id % 10 = 9 AND doc_id % 97 <> 0"
        ),
        # regex and tokenset disagree with the fused category exactly on the
        # planted ambiguous POs — a broken technique changes these counts
        "technique_stats": (
            "WITH planted AS (SELECT count(*) AS p FROM documents "
            "WHERE doc_id % 97 <> 0 AND doc_id % 5 = 2 AND doc_id % 20 = 12), "
            "tot AS (SELECT count(*) AS n FROM documents) "
            "SELECT technique, n AS n_docs, "
            "CAST(n - CASE WHEN technique IN ('regex', 'tokenset') THEN p "
            "ELSE 0 END AS BIGINT) AS n_agree, "
            "floor(CAST(n - CASE WHEN technique IN ('regex', 'tokenset') THEN p "
            "ELSE 0 END AS DOUBLE) / n * 1e6) / 1e6 AS agree_rate "
            "FROM tot, planted, "
            "(SELECT unnest(['keyword','ml','regex','tokenset']) AS technique)"
        ),
        "audio_frames": (
            "SELECT doc_id, 4 AS n_frames, "
            "CAST(1000 + doc_id % 9000 AS DOUBLE) AS frame_rms FROM documents"
        ),
        # synthetic image archetypes (sources/images.py): closed-form
        # integer pixel sums per pattern; float ops mirror
        # stages/imaging.exact_metrics op-for-op (s1/n, ·m, /255.0)
        "image_quality": (
            "WITH d AS (SELECT doc_id, doc_id % 4 AS m, "
            "64 + 8 * (doc_id % 5) AS w, 64 + 8 * (doc_id % 3) AS h, "
            "40 + (doc_id % 6) * 10 AS fg, 200 + (doc_id % 5) * 10 AS bg "
            "FROM documents), "
            "s AS (SELECT doc_id, m, w, h, w * h AS n, "
            "CASE m WHEN 0 THEN (w * h - (h // 8) * w) * 255 "
            "WHEN 1 THEN w * h * 250 "
            "WHEN 2 THEN (w * h // 2) * (fg + bg) "
            "ELSE (w * h // 2) * 256 END AS s1, "
            "CASE m WHEN 0 THEN (w * h - (h // 8) * w) * 65025 "
            "WHEN 1 THEN w * h * 62500 "
            "WHEN 2 THEN (w * h // 2) * (fg * fg + bg * bg) "
            "ELSE (w * h // 2) * 32896 END AS s2, "
            "CASE m WHEN 0 THEN w * h - (h // 8) * w "
            "WHEN 1 THEN w * h ELSE 0 END AS blankpx, "
            "CASE m WHEN 0 THEN (h // 8) * w "
            "WHEN 2 THEN CASE WHEN fg < 64 THEN w * h // 2 ELSE 0 END "
            "ELSE 0 END AS darkpx "
            "FROM d) "
            "SELECT doc_id, width, height, brightness, contrast, blank_ratio, "
            "dark_ratio, glare_ratio, "
            "CASE WHEN blank_ratio > 0.95 THEN 'blank' "
            "WHEN contrast < 0.13 THEN 'low_contrast' ELSE 'ok' END AS img_verdict "
            "FROM (SELECT doc_id, w AS width, h AS height, "
            "(CAST(s1 AS DOUBLE) / n) / 255.0 AS brightness, "
            "sqrt(CAST(s2 AS DOUBLE) / n - "
            "(CAST(s1 AS DOUBLE) / n) * (CAST(s1 AS DOUBLE) / n)) / 255.0 AS contrast, "
            "CAST(blankpx AS DOUBLE) / n AS blank_ratio, "
            "CAST(darkpx AS DOUBLE) / n AS dark_ratio, "
            "CAST(blankpx AS DOUBLE) / n AS glare_ratio FROM s)"
        ),
        "image_preprocess": (
            # processed s1: only the low-contrast archetype actually
            # changes pixels (stretch → half 0 / half 255)
            "WITH d AS (SELECT doc_id, doc_id % 4 AS m, "
            "64 + 8 * (doc_id % 5) AS w, 64 + 8 * (doc_id % 3) AS h, "
            "40 + (doc_id % 6) * 10 AS fg, 200 + (doc_id % 5) * 10 AS bg "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN m IN (1, 3) THEN ['contrast_stretch'] "
            "ELSE CAST([] AS VARCHAR[]) END AS pp_ops, "
            "(CAST(CASE m WHEN 0 THEN (w * h - (h // 8) * w) * 255 "
            "WHEN 1 THEN w * h * 250 "
            "WHEN 2 THEN (w * h // 2) * (fg + bg) "
            "ELSE (w * h // 2) * 255 END AS DOUBLE) / (w * h)) / 255.0 "
            "AS new_brightness FROM d"
        ),
        "decontaminate": (
            "WITH sh AS (SELECT doc_id, CASE WHEN len(toks) < 13 THEN [] "
            "ELSE list_distinct(list_transform(generate_series(1, len(toks) - 12), "
            "i -> array_to_string(toks[i : i + 12], ' '))) END AS s "
            "FROM (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents)), "
            "bench AS (SELECT list_distinct(flatten(list(s))) AS bs FROM sh "
            "WHERE doc_id % 31 = 5) "
            "SELECT doc_id, len(s) > 0 AND list_has_any(s, bs) AS contaminated "
            "FROM sh CROSS JOIN bench"
        ),
        "sample_weighted": (
            "SELECT doc_id, source FROM documents WHERE "
            "((doc_id * 2654435761 + 12345) % 4294967296) / 4294967296.0 < "
            "(CAST(substr(source, 4) AS INT) % 4 + 1) / 4.0"
        ),
        "gopher_repetition": (
            "WITH t AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents), "
            "g AS (SELECT doc_id, unnest(list_transform(generate_series(1, len(toks) - 1), "
            "i -> toks[i] || ' ' || toks[i + 1])) AS gram FROM t WHERE len(toks) >= 2), "
            "c AS (SELECT doc_id, gram, count(*) AS n FROM g GROUP BY 1, 2), "
            "m AS (SELECT doc_id, max(n) AS top, sum(n) AS tot FROM c GROUP BY 1) "
            "SELECT t.doc_id, "
            "CASE WHEN len(toks) < 2 THEN 0.0 ELSE "
            "floor((1.0 - CAST(len(list_distinct(toks)) AS DOUBLE) / len(toks)) * 1e6) / 1e6 "
            "END AS dup_token_frac, "
            "CASE WHEN len(toks) < 2 THEN 0.0 ELSE "
            "floor(CAST(top AS DOUBLE) / tot * 1e6) / 1e6 END AS top2gram_frac, "
            "CASE WHEN len(toks) < 2 THEN true ELSE "
            "floor(CAST(top AS DOUBLE) / tot * 1e6) / 1e6 <= 0.03 END AS rep_keep "
            "FROM t LEFT JOIN m ON t.doc_id = m.doc_id"
        ),
        # keep REDACT_PATTERNS (stages/curation.py) and these two
        # regexp_replace calls in sync
        "redact_pii": (
            f"SELECT url, regexp_replace(regexp_replace(text, "
            "'\\d{2}\\.\\d{2}\\.\\d{4}', '<DATE>', 'g'), "
            "'[A-Z]{3} [\\d,]+\\.\\d{2}', '<AMT>', 'g') AS redacted "
            f"FROM ({_SQL_EXPECTED_PAGES})"
        ),
        "split_assign": (
            "SELECT doc_id, CASE "
            "WHEN (doc_id * 2654435761) % 4294967296 / 4294967296.0 < 0.8 THEN 'train' "
            "WHEN (doc_id * 2654435761) % 4294967296 / 4294967296.0 < 0.9 THEN 'val' "
            "ELSE 'test' END AS split FROM documents"
        ),
        "feature_hash": (
            "WITH t AS (SELECT doc_id, "
            "unnest(list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '')) AS tok FROM documents), "
            f"h AS (SELECT doc_id, {_sql_md5_le64('tok')} % 16 AS bucket "
            "FROM t) "
            "SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, "
            "count(*) AS n FROM h GROUP BY doc_id, bucket"
        ),
        "top_tokens": (
            "SELECT token, count(*) AS n FROM "
            "(SELECT unnest(string_split(text, ' ')) AS token FROM documents) "
            "GROUP BY token ORDER BY n DESC, token LIMIT 20"
        ),
        # first occurrence per distinct line = min (doc_id, line_idx); docs
        # whose every line occurred earlier drop out (GROUP BY over kept
        # lines ≡ the engine's inner-join rebuild)
        "line_dedup": (
            f"WITH d AS (SELECT doc_id, url, text FROM ({_SQL_EXPECTED_PAGES}) "
            "WHERE text <> ''), "
            "l AS (SELECT doc_id, url, "
            "unnest(string_split(text, chr(10))) AS line, "
            "unnest(range(1, len(string_split(text, chr(10))) + 1)) AS idx, "
            "len(string_split(text, chr(10))) AS n_total FROM d), "
            "k AS (SELECT *, row_number() OVER "
            "(PARTITION BY line ORDER BY doc_id, idx) AS rn FROM l) "
            "SELECT url, string_agg(line, chr(10) ORDER BY idx) AS text_dedup, "
            "count(*) AS n_kept, any_value(n_total) AS n_total "
            "FROM k WHERE rn = 1 GROUP BY doc_id, url"
        ),
        "c4_line_filter": (
            f"WITH d AS (SELECT url, text FROM ({_SQL_EXPECTED_PAGES}) "
            "WHERE text <> ''), "
            "f AS (SELECT url, len(string_split(text, chr(10))) AS n_lines, "
            "list_filter(string_split(text, chr(10)), l -> "
            "len(list_filter(string_split_regex(l, '\\s+'), x -> x <> '')) >= 5 "
            "AND NOT contains(l, '{') AND NOT ends_with(l, ':')) AS kept FROM d) "
            "SELECT url, array_to_string(kept, chr(10)) AS clean_text, "
            "len(kept) AS n_lines_kept, n_lines FROM f"
        ),
        "normalize_text": (
            "SELECT doc_id, norm_text, n_chars_raw, "
            "length(norm_text) AS n_chars_norm FROM ("
            "SELECT doc_id, trim(regexp_replace(nfc_normalize(text), "
            "'[ \\t\\n\\r]+', ' ', 'g'), ' ') AS norm_text, "
            "length(text) AS n_chars_raw FROM ("
            "SELECT doc_id, CASE "
            "WHEN doc_id % 3 = 1 THEN text || ' nai' || chr(776) || "
            "'ve fac' || chr(807) || 'ade' "
            "WHEN doc_id % 3 = 2 THEN chr(9) || ' ' || text || ' ' || "
            "chr(10) || chr(10) || 'out  ' "
            "ELSE text END AS text FROM documents))"
        ),
        "chunk_documents": (
            "WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks, "
            "len(string_split(text, ' ')) AS n FROM documents), "
            "k AS (SELECT doc_id, toks, n, unnest(range(0, "
            "(CASE WHEN n <= 32 THEN 0 ELSE (n - 32 + 23) // 24 END) + 1)) "
            "AS chunk_id FROM t) "
            "SELECT doc_id, chunk_id, "
            "array_to_string(list_slice(toks, chunk_id * 24 + 1, "
            "chunk_id * 24 + 32), ' ') AS chunk_text, "
            "least(32, n - chunk_id * 24) AS chunk_tokens FROM k"
        ),
        # greedy packing recurrence stepped per (source, rn) chain
        "pack_sequences": (
            "WITH RECURSIVE d AS ("
            "SELECT doc_id, source, len(string_split(text, ' ')) AS n_tokens, "
            "least(len(string_split(text, ' ')), 256) AS cost, "
            "row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn "
            "FROM documents), "
            "r AS ("
            "SELECT doc_id, source, n_tokens, cost, rn, "
            "CAST(0 AS BIGINT) AS bin_id, cost AS cum FROM d WHERE rn = 1 "
            "UNION ALL "
            "SELECT d.doc_id, d.source, d.n_tokens, d.cost, d.rn, "
            "CASE WHEN r.cum + d.cost > 256 THEN r.bin_id + 1 "
            "ELSE r.bin_id END AS bin_id, "
            "CASE WHEN r.cum + d.cost > 256 THEN d.cost "
            "ELSE r.cum + d.cost END AS cum "
            "FROM r JOIN d ON d.source = r.source AND d.rn = r.rn + 1) "
            "SELECT doc_id, source, n_tokens, cost, bin_id FROM r"
        ),
        "inverted_index": (
            "SELECT token, count(*) AS df, "
            "list(doc_id ORDER BY doc_id) AS postings FROM "
            "(SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token "
            "FROM documents) GROUP BY token"
        ),
        "tfidf_topk": (
            "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS "
            "token FROM documents), "
            "tf AS (SELECT doc_id, token, count(*) AS tf FROM tok "
            "GROUP BY doc_id, token), "
            "df AS (SELECT token, count(DISTINCT doc_id) AS df FROM tok "
            "GROUP BY token), "
            "s AS (SELECT tf.doc_id, tf.token, tf.tf, df.df, "
            "tf.tf * 1000000 // df.df AS score_ppm, "
            "row_number() OVER (PARTITION BY tf.doc_id "
            "ORDER BY tf.tf * 1000000 // df.df DESC, tf.token) AS term_rank "
            "FROM tf JOIN df USING (token)) "
            "SELECT doc_id, term_rank, token, tf, df, score_ppm FROM s "
            "WHERE term_rank <= 3"
        ),
        "canonical_url_dedup": (
            f"WITH p AS ({_SQL_PAGES_WITH_AMP}), "
            "c AS (SELECT url, text, "
            "string_split(string_split(url, '#')[1], '?')[1] AS canonical_url "
            "FROM p) "
            "SELECT canonical_url, min(url) AS url, arg_min(text, url) AS text, "
            "count(*) AS n_variants FROM c GROUP BY canonical_url"
        ),
        "host_stats": (
            f"SELECT string_split(url, '/')[3] AS host, count(*) AS n_docs, "
            f"CAST(sum(length(text)) AS BIGINT) AS total_chars "
            f"FROM ({_SQL_EXPECTED_PAGES}) GROUP BY host"
        ),
        "charset_extract": (
            f"SELECT {_SQL_URL} AS url, {_SQL_GOLDEN_TEXT} AS text "
            "FROM documents"
        ),
        "surt_keys": (
            f"WITH p AS (SELECT url FROM ({_SQL_PAGES_WITH_AMP})), "
            "h AS (SELECT url, string_split(url, '/')[3] AS host, "
            "substr(url, 9 + length(string_split(url, '/')[3])) AS pathq "
            "FROM p) "
            "SELECT url, lower(array_to_string(list_reverse("
            "string_split(host, '.')), ',') || ')' || pathq) AS surt_key "
            "FROM h"
        ),
        # keep-in-sync: mirrors sources/pages.py _NAV/_FOOTER/_ASIDE/
        # _html_linkfarm anchor templates
        "anchor_text": (
            "WITH d AS (SELECT doc_id, CASE WHEN doc_id % 3 = 0 "
            "THEN 'heavy.example.com' ELSE source || '.example.com' END "
            "AS host FROM documents WHERE doc_id % 97 <> 0), "
            "base AS (SELECT host, count(*) AS n FROM d GROUP BY host), "
            "ar AS (SELECT host, count(*) AS n FROM d "
            "WHERE doc_id % 5 IN (0, 3) GROUP BY host), "
            "farm AS (SELECT doc_id, host FROM d WHERE doc_id % 5 = 1), "
            "fixed(path, anchor) AS (VALUES ('/', 'Home'), "
            "('/about', 'About us'), ('/contact', 'Contact'), "
            "('/privacy', 'Privacy policy'), ('/terms', 'Terms of service'), "
            "('/subscribe', 'Subscribe to the newsletter')), "
            "rel(path, anchor) AS (VALUES "
            "('/rel/1', 'Related story about data engines'), "
            "('/rel/2', 'Another related story right here')) "
            "SELECT 'https://' || b.host || f.path AS link, f.anchor, "
            "CAST(b.n AS BIGINT) AS n_refs FROM base b, fixed f "
            "UNION ALL "
            "SELECT 'https://' || a.host || r.path, r.anchor, "
            "CAST(a.n AS BIGINT) FROM ar a, rel r "
            "UNION ALL "
            "SELECT 'https://' || host || '/cat/' || doc_id || '/' || i, "
            "'Category listing number ' || i || ' with many entries', "
            "CAST(1 AS BIGINT) FROM farm, "
            "(SELECT unnest(range(0, 12)) AS i)"
        ),
        "sitemap_frontier": (
            "WITH hosts AS (SELECT 'heavy.example.com' AS host, TRUE AS blk "
            "UNION ALL SELECT DISTINCT source || '.example.com', "
            "CAST(substr(source, 4) AS INT) % 2 = 0 FROM documents) "
            "SELECT host, 'https://' || host || '/new/' || n AS url, "
            "'2024-0' || (n + 1) || '-01' AS lastmod "
            "FROM hosts, (SELECT unnest(range(0, 3)) AS n) "
            "WHERE NOT (blk AND n = 2)"
        ),
        "recrawl_priority": (
            f"WITH caps AS (SELECT {_SQL_URL} AS url, j, "
            "CASE WHEN (doc_id + j) % 3 = 0 THEN md5(text || ' rev' || j) "
            "ELSE md5(text) END AS h "
            "FROM documents, (SELECT unnest(range(0, 4)) AS j) "
            "WHERE j <= doc_id % 4), "
            "w AS (SELECT url, h, lag(h) OVER "
            "(PARTITION BY url ORDER BY j) AS ph FROM caps), "
            "a AS (SELECT url, CAST(count(*) AS BIGINT) AS n_captures, "
            "CAST(count(CASE WHEN ph IS NOT NULL AND h <> ph THEN 1 END) "
            "AS BIGINT) AS n_changes FROM w GROUP BY url) "
            "SELECT url, n_captures, n_changes, "
            "CAST(CASE WHEN n_captures > 1 "
            "THEN n_changes * 1000000 // (n_captures - 1) "
            "ELSE 0 END AS BIGINT) AS change_ppm, "
            "CASE WHEN n_captures > 1 AND "
            "n_changes * 1000000 // (n_captures - 1) >= 500000 THEN 'hot' "
            "WHEN n_changes > 0 THEN 'warm' ELSE 'cold' END "
            "AS recrawl_bucket FROM a"
        ),
        "fetch_waves": (
            f"WITH p AS (SELECT {_SQL_URL} AS url FROM documents), "
            "h AS (SELECT url, string_split(url, '/')[3] AS host FROM p) "
            "SELECT url, host, CAST(row_number() OVER "
            "(PARTITION BY host ORDER BY url) AS BIGINT) AS wave FROM h"
        ),
        "dead_letter": (
            "SELECT CASE WHEN doc_id % 3 = 0 THEN 'heavy.example.com' "
            "ELSE source || '.example.com' END AS source, "
            "'UnicodeDecodeError' AS error_kind, "
            "CAST(count(*) AS BIGINT) AS n_errors FROM documents "
            "WHERE doc_id % 97 = 0 GROUP BY 1"
        ),
        "fetch_schedule": (
            f"WITH p AS (SELECT {_SQL_URL} AS url, source, doc_id "
            "FROM documents), "
            "h AS (SELECT url, CASE WHEN doc_id % 3 = 0 "
            "THEN 'heavy.example.com' ELSE source || '.example.com' END "
            "AS host, CASE WHEN doc_id % 3 = 0 THEN 5 "
            "ELSE 1 + CAST(substr(source, 4) AS INT) % 4 END AS delay "
            "FROM p), "
            "w AS (SELECT url, host, delay, CAST(row_number() OVER "
            "(PARTITION BY host ORDER BY url) AS BIGINT) AS wave FROM h) "
            "SELECT url, host, wave, CAST((wave - 1) * delay AS BIGINT) "
            "AS fetch_at_s FROM w"
        ),
        "lang_rebalance": (
            "SELECT doc_id, lang, n_chars FROM ("
            "SELECT doc_id, lang, CAST(length(text) AS BIGINT) AS n_chars, "
            "row_number() OVER (PARTITION BY lang "
            "ORDER BY length(text) DESC, doc_id) AS rn FROM documents) "
            "WHERE rn <= 30"
        ),
        "drop_funnel": (
            "SELECT doc_id, CASE WHEN n_chars < 100 THEN 'short' "
            "WHEN NOT lang_ok THEN 'bad_lang' "
            "WHEN confidence < 0.6 THEN 'low_confidence' "
            "ELSE 'kept' END AS drop_reason FROM ("
            "SELECT doc_id, n_chars, "
            "lang IN ('en','de','fr','es') AS lang_ok, "
            f"{_SQL_QUALITY_DERIVED.strip()} FROM ("
            f"SELECT doc_id, lang, {_SQL_QUALITY_METRICS.strip()} "
            "FROM documents))"
        ),
        "robots_txt_rules": (
            # mirrors the deterministic per-host policies in the query:
            # longest-match = the CASE ladder ordered longest pattern first
            f"WITH p AS (SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 3 = 0 THEN 'heavy.example.com' "
            "ELSE source || '.example.com' END AS host, "
            "'/p/' || doc_id AS path, source FROM documents) "
            "SELECT url, host, CASE "
            "WHEN host = 'heavy.example.com' THEN "
            "(CASE WHEN path LIKE '/p/12%' THEN TRUE "
            "WHEN path LIKE '/p/1%' THEN FALSE ELSE TRUE END) "
            "WHEN CAST(substr(source, 4) AS INT) % 3 = 0 THEN "
            "(CASE WHEN path LIKE '/p/234%' THEN FALSE "
            "WHEN path LIKE '/p/23%' THEN TRUE "
            "WHEN path LIKE '/p/2%' THEN FALSE ELSE TRUE END) "
            "ELSE TRUE END AS allowed FROM p"
        ),
        "robots_filter": (
            f"SELECT {_SQL_URL} AS url FROM documents "
            "WHERE doc_id % 11 <> 5 OR doc_id % 97 = 0"
        ),
        "warc_ingest": (
            f"SELECT {_SQL_URL} AS url, {_SQL_GOLDEN_TEXT} AS text "
            "FROM documents"
        ),
        # wire encodings are transparent: decoded text is identical
        "warc_wire_encodings": (
            f"SELECT {_SQL_URL} AS url, {_SQL_GOLDEN_TEXT} AS text "
            "FROM documents"
        ),
        # the HTTP-header charset resolves the legacy bodies; the head
        # marker never reaches extraction → encoding-independent golden
        "warc_http_charset": (
            f"SELECT {_SQL_URL} AS url, {_SQL_GOLDEN_TEXT} AS text "
            "FROM documents"
        ),
        "jsonl_roundtrip": (
            f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES})"
        ),
        "cdx_fetch": (
            f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES}) "
            "WHERE CAST(string_split(url, '/')[5] AS BIGINT) % 9 = 2"
        ),
        "kcenter_select": (
            "WITH e AS (SELECT vec_id, embedding FROM embeddings), "
            "s0 AS (SELECT vec_id, embedding AS c FROM e "
            "ORDER BY vec_id LIMIT 1), "
            "p1 AS (SELECT e.vec_id, e.embedding AS c FROM e, s0 "
            "ORDER BY list_distance(e.embedding, s0.c) DESC, e.vec_id "
            "LIMIT 1), "
            "p2 AS (SELECT e.vec_id, e.embedding AS c FROM e, s0, p1 "
            "ORDER BY least(list_distance(e.embedding, s0.c), "
            "list_distance(e.embedding, p1.c)) DESC, e.vec_id LIMIT 1), "
            "p3 AS (SELECT e.vec_id, e.embedding AS c FROM e, s0, p1, p2 "
            "ORDER BY least(list_distance(e.embedding, s0.c), "
            "list_distance(e.embedding, p1.c), "
            "list_distance(e.embedding, p2.c)) DESC, e.vec_id LIMIT 1) "
            "SELECT CAST(0 AS BIGINT) AS \"rank\", vec_id FROM s0 "
            "UNION ALL SELECT 1, vec_id FROM p1 "
            "UNION ALL SELECT 2, vec_id FROM p2 "
            "UNION ALL SELECT 3, vec_id FROM p3"
        ),
        # the TRUE amp-side Jaccard pair set (same ground-truth machinery
        # as minhash_neardup): at larger scales template-heavy pages make
        # an amp variant a genuine >=0.8 match of MORE than its original,
        # so a closed-form amp->original oracle is too narrow
        "online_neardup": (
            f"WITH pages AS ({_SQL_PAGES_WITH_AMP}), "
            "sh AS (SELECT url, list_distinct(list_transform("
            "generate_series(1, len(toks) - 2), "
            "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS sh "
            "FROM (SELECT url, list_filter(string_split_regex(text, "
            "'\\s+'), x -> x <> '') AS toks FROM pages WHERE text <> '')) "
            "SELECT q.url AS query_id, m.url AS match_id "
            "FROM sh q JOIN sh m ON q.url LIKE '%?amp=1' "
            "AND m.url NOT LIKE '%?amp=1' "
            "WHERE CAST(len(list_intersect(q.sh, m.sh)) AS DOUBLE) / "
            "len(list_distinct(q.sh || m.sh)) >= 0.8"
        ),
        "tfrecord_roundtrip": (
            f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES})"
        ),
        "csv_roundtrip": (
            f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES})"
        ),
        "ipc_roundtrip": (
            f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES})"
        ),
        "orc_roundtrip": (
            f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES})"
        ),
        "wet_roundtrip": (
            f"SELECT url, text FROM ({_SQL_EXPECTED_PAGES})"
        ),
        "page_meta": (
            f"SELECT {_SQL_URL} AS url, CASE "
            "WHEN doc_id % 5 = 0 THEN 'Article' "
            "WHEN doc_id % 5 = 1 THEN 'Index' "
            "WHEN doc_id % 5 = 2 THEN 'PO' "
            "WHEN doc_id % 5 = 3 THEN 'Report' "
            "WHEN doc_id % 10 = 4 THEN 'Invoice' "
            "WHEN doc_id % 10 = 9 THEN 'LC' "
            "ELSE '.' END AS title "
            "FROM documents WHERE doc_id % 97 <> 0"
        ),
        "curation_hostaware": (
            f"WITH d AS (SELECT url, string_split(url, '/')[3] AS host, "
            f"text, doc_id FROM ({_SQL_EXPECTED_PAGES}) WHERE text <> ''), "
            "hp AS (SELECT host, count(*) AS hp FROM d GROUP BY host), "
            "l AS (SELECT url, host, doc_id, "
            "unnest(string_split(text, chr(10))) AS line, "
            "unnest(range(1, len(string_split(text, chr(10))) + 1)) AS idx "
            "FROM d), "
            "lc AS (SELECT host, line, count(DISTINCT url) AS n "
            "FROM l GROUP BY host, line), "
            "t AS (SELECT lc.host, lc.line FROM lc JOIN hp USING (host) "
            "WHERE hp >= 5 AND 4 * n >= hp), "
            "k AS (SELECT l.url, l.host, l.doc_id, l.line FROM l "
            "WHERE NOT EXISTS (SELECT 1 FROM t "
            "WHERE t.host = l.host AND t.line = l.line)), "
            "c AS (SELECT url, host, any_value(doc_id) AS doc_id, "
            "CAST(sum(length(line)) + count(*) - 1 AS BIGINT) AS "
            "n_chars_clean FROM k GROUP BY url, host), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY host "
            "ORDER BY n_chars_clean DESC, url) AS rn FROM c) "
            "SELECT host, url, n_chars_clean, CASE "
            "WHEN (doc_id * 2654435761) % 4294967296 / 4294967296.0 < 0.8 "
            "THEN 'train' "
            "WHEN (doc_id * 2654435761) % 4294967296 / 4294967296.0 < 0.9 "
            "THEN 'val' ELSE 'test' END AS split FROM r WHERE rn <= 5"
        ),
        "snapshot_diff": (
            "WITH old AS (SELECT doc_id, text FROM documents "
            "WHERE doc_id % 4 = 1), "
            "new AS (SELECT doc_id, CASE WHEN doc_id % 5 = 0 "
            "THEN text || ' v2' ELSE text END AS text FROM documents "
            "WHERE doc_id % 3 <> 0) "
            "SELECT coalesce(old.doc_id, new.doc_id) AS doc_id, "
            "CASE WHEN old.doc_id IS NULL THEN 'added' "
            "WHEN new.doc_id IS NULL THEN 'removed' "
            "WHEN old.text = new.text THEN 'unchanged' "
            "ELSE 'changed' END AS status "
            "FROM old FULL OUTER JOIN new ON old.doc_id = new.doc_id"
        ),
        "host_cap": (
            f"WITH p AS (SELECT url, string_split(url, '/')[3] AS host, "
            f"length(text) AS n_chars FROM ({_SQL_EXPECTED_PAGES})), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY host "
            "ORDER BY n_chars DESC, url) AS rn FROM p) "
            "SELECT host, url, n_chars FROM r WHERE rn <= 5"
        ),
        "outlink_count": (
            f"SELECT {_SQL_URL} AS url, CAST(CASE "
            "WHEN doc_id % 5 IN (0, 3) THEN 8 "
            "WHEN doc_id % 5 = 1 THEN 18 "
            "ELSE 6 END AS BIGINT) AS n_links "
            "FROM documents WHERE doc_id % 97 <> 0 "
            "AND NOT (doc_id % 5 = 4 AND doc_id % 10 NOT IN (4, 9))"
        ),
        "host_template_strip": (
            f"WITH d AS (SELECT url, string_split(url, '/')[3] AS host, "
            f"text FROM ({_SQL_EXPECTED_PAGES}) WHERE text <> ''), "
            "hp AS (SELECT host, count(*) AS hp FROM d GROUP BY host), "
            "l AS (SELECT url, host, "
            "unnest(string_split(text, chr(10))) AS line, "
            "unnest(range(1, len(string_split(text, chr(10))) + 1)) AS idx, "
            "len(string_split(text, chr(10))) AS n_total FROM d), "
            "lc AS (SELECT host, line, count(DISTINCT url) AS n "
            "FROM l GROUP BY host, line), "
            "t AS (SELECT lc.host, lc.line FROM lc JOIN hp USING (host) "
            "WHERE hp >= 5 AND 4 * n >= hp), "
            "k AS (SELECT l.url, l.line, l.idx, l.n_total FROM l "
            "WHERE NOT EXISTS (SELECT 1 FROM t "
            "WHERE t.host = l.host AND t.line = l.line)) "
            "SELECT url, string_agg(line, chr(10) ORDER BY idx) AS "
            "text_clean, count(*) AS n_kept, any_value(n_total) AS n_total "
            "FROM k GROUP BY url"
        ),
        "skew_join": (
            f"WITH p AS (SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 3 = 0 THEN 'heavy.example.com' "
            "ELSE source || '.example.com' END AS host FROM documents), "
            "h AS (SELECT host, count(*) AS host_docs FROM p GROUP BY host) "
            "SELECT p.url, p.host, h.host_docs FROM p JOIN h USING (host)"
        ),
        "kmeans_clusters": _sql_kmeans(k=4, iters=2),
        "rendezvous_shards": (
            "WITH s AS (SELECT unnest(['shard-a', 'shard-b', 'shard-c', "
            "'shard-d', 'shard-e']) AS shard), "
            "m AS (SELECT d.doc_id, s.shard, "
            + _sql_md5_le64("CAST(d.doc_id AS VARCHAR) || '|' || s.shard")
            + " AS h FROM documents d CROSS JOIN s), "
            "r AS (SELECT doc_id, shard, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY h DESC, shard DESC) AS rn "
            "FROM m) "
            "SELECT doc_id, shard FROM r WHERE rn = 1"
        ),
        # closed form of the planted chain topology: i -> i-1 unless
        # i % 8 == 0, so every chain ends at the floor multiple of 8
        "redirect_resolve": (
            "SELECT doc_id AS node, (doc_id // 8) * 8 AS final "
            "FROM documents"
        ),
        # keep-in-sync: mirrors _q_fuzzy_hosts' planted deletion
        # (position doc_id % len, 0-based) and the argmin/tie-break
        "fuzzy_hosts": (
            "WITH d AS (SELECT doc_id, CASE WHEN doc_id % 3 = 0 "
            "THEN 'heavy.example.com' "
            "ELSE source || '.example.com' END AS host FROM documents), "
            "t AS (SELECT doc_id, "
            "substr(host, 1, CAST(doc_id % length(host) AS INT)) || "
            "substr(host, CAST(doc_id % length(host) AS INT) + 2) "
            "AS dirty FROM d), "
            "c AS (SELECT DISTINCT source || '.example.com' AS chost "
            "FROM documents UNION SELECT 'heavy.example.com'), "
            "m AS (SELECT t.doc_id, t.dirty, c.chost, "
            "levenshtein(t.dirty, c.chost) AS dist FROM t CROSS JOIN c), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY dist, chost) AS rn FROM m) "
            "SELECT doc_id, dirty, chost AS canon_host, dist "
            "FROM r WHERE rn = 1 AND dist <= 2"
        ),
        "pq_codes": _sql_pq(m=4, k=4, iters=2, dim=64),
        "images_to_pdf": (
            "SELECT doc_id, 1 + doc_id % 3 AS n_pages, true AS pdf_valid "
            "FROM documents"
        ),
        "base64_pages": (
            "SELECT doc_id, to_base64(encode(text)) AS payload_b64 "
            "FROM documents"
        ),
        # OCR must reproduce the first page's walk text byte-identically:
        # first min(96, n) tokens in lines of 8 joined by newlines
        "ocr_roundtrip": (
            "WITH t AS (SELECT doc_id, source, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 97 = 0 OR len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (least(len(toks), 96) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : least(j * 8 + 8, 96)], ' ')), "
            "chr(10)) END AS ocr_text FROM t"
        ),
        # note: the non-empty filter in the Ray prefix drops malformed
        # (empty-text) pages, so only archetype rows remain
        "doc_type_autodetect": (
            f"SELECT {_SQL_URL} AS url, CASE "
            "WHEN doc_id % 5 = 2 THEN 'purchase_order' "
            "WHEN doc_id % 10 = 4 THEN 'invoice' "
            "ELSE 'unknown' END AS doc_type "
            "FROM documents WHERE doc_id % 97 <> 0 "
            "AND (doc_id % 5 IN (0, 2, 3) OR doc_id % 10 = 4)"
        ),
        "jpeg_roundtrip": (
            "SELECT doc_id, "
            "((84 + 2 * (doc_id % 45)) * 1000000) // 255 AS brightness_ppm, "
            "true AS jpeg_nonempty FROM documents"
        ),
        "tiff_roundtrip": (
            "SELECT doc_id, CAST(16 * list_sum(list_transform("
            "generate_series(0, 7), y -> (doc_id + y) % 256)) AS BIGINT) "
            "AS pixel_sum FROM documents"
        ),
        "pdf_encrypted_extract": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text, "
            "CASE doc_id % 5 WHEN 0 THEN 'r2_40' WHEN 1 THEN 'r3_128' "
            "WHEN 2 THEN 'r3_40' WHEN 3 THEN 'aesv2' "
            "ELSE 'aesv3' END AS enc_mode FROM t"
        ),
        "pdf_links": (
            "SELECT doc_id, array_to_string(list_transform("
            "generate_series(0, doc_id % 3), "
            "i -> 'https://out' || i || '.example/d/' || doc_id), '; ') "
            "AS outlinks FROM documents"
        ),
        "pdf_outline": (
            "SELECT doc_id, array_to_string(list_transform("
            "generate_series(0, doc_id % 3), "
            "i -> 'Chapter ' || doc_id || '-' || i), '; ') AS toc "
            "FROM documents"
        ),
        "pdf_metadata": (
            "SELECT doc_id, "
            "'Document (' || doc_id || ')' AS title, "
            "'author-' || (doc_id % 7) AS author, "
            "'documentai-ray' AS producer FROM documents"
        ),
        "pdf_cmap_extract": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text FROM t"
        ),
        "fax_pdf_ocr": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text FROM t"
        ),
        "pdf_password_extract": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text, "
            "CASE doc_id % 3 WHEN 0 THEN 'r3_128' WHEN 1 THEN 'aesv2' "
            "ELSE 'aesv3' END AS enc_mode, "
            "CASE WHEN doc_id % 2 = 1 THEN 'owner' ELSE 'user' END "
            "AS opened_with, true AS title_ok FROM t"
        ),
        "pdf_jpx_extract": (
            "SELECT doc_id, CAST(list_sum(list_transform("
            "generate_series(0, 15), y -> list_sum(list_transform("
            "generate_series(0, 23), x -> CASE WHEN doc_id % 2 = 0 "
            "THEN (doc_id * 5 + 11 * y + 3 * x) % 256 ELSE ("
            "299 * ((doc_id * 7 + y * 3 + x) % 256) + "
            "587 * ((doc_id * 11 + y * 5 + 2 * x) % 256) + "
            "114 * ((doc_id * 13 + 3 * y + x) % 256) + 500) // 1000 "
            "END)))) AS BIGINT) AS jpx_pixel_sum, "
            "CASE WHEN doc_id % 2 = 0 THEN 'gray' ELSE 'rct' END "
            "AS jpx_mode, true AS dims_ok FROM documents"
        ),
        "pdf_jbig2_text_ocr": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text, "
            "CASE WHEN len(toks) = 0 THEN 0 ELSE "
            "len(list_distinct(list_filter(string_split_regex("
            "array_to_string(toks, ''), ''), c -> c <> ''))) END "
            "AS n_symbols, "
            "CASE doc_id % 4 WHEN 0 THEN 'arith' WHEN 1 THEN 'huffman' "
            "WHEN 2 THEN 'huffman_mmr' ELSE 'refagg' END "
            "AS coding FROM t"
        ),
        "jpeg12_roundtrip": (
            "SELECT doc_id, CAST(64 * list_sum(list_transform("
            "generate_series(0, 1), r -> list_sum(list_transform("
            "generate_series(0, 3), c -> "
            "(doc_id * 13 + r * 7 + c * 3) % 4096)))) AS BIGINT) "
            "AS px12_sum, true AS exact FROM documents"
        ),
        "jpeg_lossless_roundtrip": (
            "SELECT doc_id, CAST(list_sum(list_transform("
            "generate_series(0, 11), y -> list_sum(list_transform("
            "generate_series(0, 19), x -> CASE WHEN doc_id % 2 = 0 "
            "THEN (doc_id * 7 + 13 * y + 5 * x) % 256 "
            "ELSE (doc_id * 257 + 1031 * y + 419 * x) % 65536 END)))) "
            "AS BIGINT) AS ll_pixel_sum, "
            "doc_id % 7 + 1 AS predictor, true AS exact FROM documents"
        ),
        "pdf_jbig2_globals": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text, "
            "CASE WHEN len(toks) = 0 THEN 0 ELSE "
            "len(list_distinct(list_filter(string_split_regex("
            "array_to_string(toks, ''), ''), c -> c <> ''))) END "
            "AS n_symbols, "
            "CASE WHEN len(toks) = 0 THEN 0 "
            "WHEN (len(toks) - 1) // 8 + 1 = 1 THEN 1 ELSE 2 END "
            "AS n_pages, "
            "CASE WHEN doc_id % 2 = 0 THEN 'arith' ELSE 'huffman' END "
            "AS coding FROM t"
        ),
        "pdf_jbig2_ocr": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text, "
            "CASE doc_id % 5 WHEN 0 THEN 'arith' WHEN 1 THEN 'mmr' "
            "WHEN 2 THEN 'striped' WHEN 3 THEN 't2' ELSE 't3' END "
            "AS jbig2_mode FROM t"
        ),
        "pdf_g3_ocr": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text, "
            "CASE WHEN doc_id % 2 = 0 THEN 'g3' ELSE 'g3_2d' END "
            "AS g3_mode FROM t"
        ),
        "scanned_pdf_ocr": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text FROM t"
        ),
        "pdf_embedded_images": (
            "SELECT doc_id, CAST(list_sum(list_transform("
            "generate_series(0, 7), y -> list_sum(list_transform("
            "generate_series(0, 15), "
            "x -> (doc_id * 3 + 7 * y + 5 * x) % 256)))) AS BIGINT) "
            "AS flate_pixel_sum, "
            "84 + 2 * (doc_id % 45) AS dct_brightness, "
            "true AS dims_ok FROM documents"
        ),
        "pdf_modern_extract": (
            "WITH t AS (SELECT doc_id, list_filter("
            "string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, "
            "CASE WHEN len(toks) = 0 THEN '' ELSE "
            "array_to_string(list_transform("
            "generate_series(0, (len(toks) - 1) // 8), "
            "j -> array_to_string(toks[j * 8 + 1 : j * 8 + 8], ' ')), "
            "chr(10)) END AS text, "
            "CASE doc_id % 4 WHEN 0 THEN 'lzw' WHEN 1 THEN 'a85flate' "
            "WHEN 2 THEN 'hexflate' ELSE 'rl' END AS filter_chain "
            "FROM t"
        ),
        "jpeg_progressive_roundtrip": (
            "SELECT doc_id, "
            "((84 + 2 * (doc_id % 45)) * 1000000) // 255 AS brightness_ppm, "
            "true AS prog_equals_seq, true AS color_ok FROM documents"
        ),
        "png_color_roundtrip": (
            "SELECT doc_id, CAST(list_sum(list_transform("
            "generate_series(0, 7), y -> list_sum(list_transform("
            "generate_series(0, 15), x -> ("
            "299 * ((doc_id * 7 + y * 3 + x) % 256) + "
            "587 * ((doc_id * 11 + y * 5 + 2 * x) % 256) + "
            "114 * ((doc_id * 13 + 3 * y + x) % 256) + 500) // 1000"
            ")))) AS BIGINT) AS luma_sum, true AS lossless FROM documents"
        ),
        "tiff_compressed_roundtrip": (
            "SELECT doc_id, CAST(list_sum(list_transform("
            "generate_series(0, 7), y -> list_sum(list_transform("
            "generate_series(0, 15), "
            "x -> (doc_id * 31 + y * 7 + x * 13) % 256)))) AS BIGINT) "
            "AS pixel_sum, true AS codecs_agree FROM documents"
        ),
        "page_type_detect": (
            "SELECT doc_id, CASE "
            "WHEN doc_id % 25 > 15 THEN 'text' "
            "WHEN doc_id % 3 > 0 AND doc_id % 25 < 8 THEN 'image' "
            "WHEN (doc_id % 20) / 100.0 > 0.08 THEN 'text' "
            "ELSE 'image' END AS page_type FROM documents"
        ),
        "table_detect": (
            "SELECT doc_id, "
            "CASE WHEN doc_id % 4 = 0 THEN 0 ELSE 1 END AS n_tables, "
            "CASE WHEN doc_id % 4 = 0 THEN 0 ELSE 2 + doc_id % 3 END "
            "AS n_rows_first FROM documents"
        ),
        "field_validation": (
            "SELECT doc_id, doc_id % 3 <> 0 AS date_ok, "
            "doc_id % 5 <> 0 AS amount_ok, "
            "doc_id % 7 <> 0 AS currency_ok FROM documents"
        ),
        "layout_structure": (
            "WITH t AS (SELECT doc_id, source, "
            "least(len(list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '')), 96) AS m FROM documents) "
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 97 = 0 OR m = 0 THEN 0 "
            "ELSE ((m + 7) // 8 + 2) // 3 END AS n_blocks, "
            "CASE WHEN doc_id % 97 = 0 THEN 0 ELSE (m + 7) // 8 END "
            "AS n_lines, "
            "CASE WHEN doc_id % 97 = 0 THEN 0 ELSE m END AS n_words "
            "FROM t"
        ),
        "generic_entities": (
            f"SELECT {_SQL_URL} AS url, "
            "lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') || '.' || "
            "lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0') || '.2024' "
            "AS first_date, "
            "'USD ' || format('{:,}', (100 + doc_id % 400) * 500) || '.00' "
            "AS first_amount, "
            "1 AS n_dates, 1 AS n_amounts, 9 AS n_numbers, "
            "0 AS n_emails, 0 AS n_phones "
            "FROM documents WHERE doc_id % 5 = 2 AND doc_id % 97 <> 0"
        ),
        "office_extract": (
            "SELECT doc_id, CASE "
            "WHEN doc_id % 2 = 0 THEN array_to_string(list_transform("
            "generate_series(0, doc_id % 3), "
            "j -> 'Paragraph ' || j || ' of doc ' || doc_id), chr(10)) "
            "WHEN doc_id % 50 = 7 THEN repeat('x', 1000) "
            "ELSE array_to_string(list_transform("
            "generate_series(0, least(2 + doc_id % 150, 100) - 1), "
            "i -> 'r' || i || 'd' || (doc_id % 10)), chr(10)) END AS text, "
            "CASE WHEN doc_id % 2 = 0 THEN 'docx' ELSE 'xlsx' END "
            "AS payload_kind FROM documents"
        ),
        "ocr_classify": (
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 97 = 0 THEN 'unclassified' "
            "ELSE 'data_report' END AS category, '4/4' AS votes "
            "FROM documents"
        ),
        # first page holds <= 4 blocks x 3 lines x 8 words = 96 words;
        # disjoint 6·len x 10 span boxes -> ink = 60·Σ len
        "rasterize_pages": (
            "WITH t AS (SELECT doc_id, source, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks "
            "FROM documents) "
            f"SELECT {_SQL_URL} AS url, "
            "CASE WHEN doc_id % 97 = 0 THEN 0 ELSE "
            "CAST(coalesce(60 * list_sum(list_transform(toks[1:96], "
            "w -> length(w))), 0) AS BIGINT) END AS ink_px, "
            "CASE WHEN doc_id % 97 = 0 THEN 0 ELSE 612 END AS raster_w, "
            "CASE WHEN doc_id % 97 = 0 THEN 0 ELSE 792 END AS raster_h "
            "FROM t"
        ),
        "video_frames": (
            "WITH d AS (SELECT doc_id, 4 + doc_id % 5 AS n_frames "
            "FROM documents), "
            "f AS (SELECT doc_id, n_frames, "
            "unnest(range(0, n_frames, 2)) AS frame_idx FROM d) "
            "SELECT doc_id, n_frames, frame_idx, "
            "(((doc_id * 7 + frame_idx * 13) % 256) * 1000000) // 255 "
            "AS brightness_ppm FROM f"
        ),
        "curate_corpus": (
            "SELECT doc_id, lang, n_chars, confidence FROM ("
            "SELECT doc_id, lang, n_chars, "
            "lang IN ('en','de','fr','es') AS lang_ok, "
            f"{_SQL_QUALITY_DERIVED.strip()} FROM ("
            f"SELECT doc_id, lang, {_SQL_QUALITY_METRICS.strip()} FROM documents)) "
            "WHERE confidence >= 0.6 AND lang_ok AND n_chars >= 100"
        ),
        "lang_id": _sql_lang_id("doc_id", "documents"),
        "lang_prf": (
            "WITH pred AS (" + _sql_lang_id("doc_id", "documents")
            + "), "
            "p AS (SELECT d.lang AS t, pr.pred_lang AS y "
            "FROM documents d JOIN pred pr USING (doc_id)), "
            "labs AS (SELECT DISTINCT t AS lab FROM p "
            "UNION SELECT DISTINCT y FROM p), "
            "m AS (SELECT lab, "
            "(SELECT count(*) FROM p WHERE t = lab AND y = lab) AS tp, "
            "(SELECT count(*) FROM p WHERE t <> lab AND y = lab) "
            "AS fp, "
            "(SELECT count(*) FROM p WHERE t = lab AND y <> lab) "
            "AS fn FROM labs) "
            "SELECT lab AS label, CAST(tp AS BIGINT) AS tp, "
            "CAST(fp AS BIGINT) AS fp, CAST(fn AS BIGINT) AS fn, "
            "CAST(CASE WHEN tp + fp = 0 THEN 0 "
            "ELSE tp * 1000000 // (tp + fp) END AS BIGINT) "
            "AS precision_ppm, "
            "CAST(CASE WHEN tp + fn = 0 THEN 0 "
            "ELSE tp * 1000000 // (tp + fn) END AS BIGINT) "
            "AS recall_ppm, "
            "CAST(CASE WHEN 2 * tp + fp + fn = 0 THEN 0 "
            "ELSE 2 * tp * 1000000 // (2 * tp + fp + fn) END "
            "AS BIGINT) AS f1_ppm FROM m"
        ),
        "lang_kappa": (
            "WITH pred AS (" + _sql_lang_id("doc_id", "documents")
            + "), "
            "pairs AS (SELECT d.lang AS a, p.pred_lang AS b "
            "FROM documents d JOIN pred p USING (doc_id)), "
            "cm AS (SELECT a, b, count(*) AS n FROM pairs "
            "GROUP BY 1, 2), "
            "tot AS (SELECT sum(n) AS n FROM cm), "
            "diag AS (SELECT coalesce(sum(n), 0) AS d FROM cm "
            "WHERE a = b), "
            "ra AS (SELECT a AS lab, sum(n) AS r FROM cm GROUP BY 1), "
            "cb AS (SELECT b AS lab, sum(n) AS c FROM cm GROUP BY 1), "
            "pe AS (SELECT coalesce(sum(ra.r * cb.c), 0) AS e "
            "FROM ra JOIN cb USING (lab)) "
            "SELECT CAST(tot.n AS BIGINT) AS n, "
            "CAST(diag.d AS BIGINT) AS n_agree, "
            "CAST(pe.e AS BIGINT) AS e_sum, "
            "CAST((tot.n * diag.d - pe.e) * 1000000 "
            "// (tot.n * tot.n - pe.e) AS BIGINT) AS kappa_ppm "
            "FROM tot, diag, pe"
        ),
        "token_count_bpe": (
            # n_ws_tokens mirrors .split() (any-whitespace, empties dropped);
            # the BPE pre-tokenizer regex is RE2-compatible and matches
            # Python findall leftmost-first alternation exactly
            "SELECT doc_id, "
            "len(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) "
            "AS n_ws_tokens, "
            "len(regexp_extract_all(text, "
            "'''s|''t|''re|''ve|''m|''ll|''d| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+|\\s+')) "
            "AS n_bpe_tokens FROM documents"
        ),
        "bpe_pair_counts": (
            f"WITH w AS ({_SQL_BPE_WORDS}), "
            "p AS (SELECT substr(word, CAST(i AS INT), 2) AS pair, n FROM "
            "(SELECT word, n, unnest(range(1, length(word))) AS i FROM w)) "
            "SELECT pair, CAST(sum(n) AS BIGINT) AS n FROM p GROUP BY pair "
            "ORDER BY n DESC, pair LIMIT 20"
        ),
        "bpe_train_merges": _sql_bpe_train(3),
    }


__all__ = ['oracle_sql_part_01']
