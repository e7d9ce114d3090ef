"""Oracle-SQL dict entries (part 4/4) — split out of ``__ray_entry__.py````oracle_sql()``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def oracle_sql_part_04() -> dict:
    return {
        # Border/period duality: the mirror runs the naive
        # min-p shifted-prefix scan on the 128-letter prefix; the Ray
        # side runs KMP -- agreement is the classical duality
        "string_period": (
            "WITH s AS (SELECT doc_id, substr(lower(regexp_replace("
            "text, '[^a-zA-Z]', '', 'g')), 1, 128) AS t "
            "FROM documents), "
            "c AS (SELECT doc_id, t, length(t) AS n FROM s), "
            "p AS (SELECT c.doc_id, min(g.p) AS period FROM c, "
            "unnest(generate_series(1, c.n)) g(p) "
            "WHERE substr(c.t, 1, c.n - g.p) = "
            "substr(c.t, g.p + 1, c.n - g.p) GROUP BY 1) "
            "SELECT c.doc_id, CAST(c.n AS BIGINT) AS n_chars, "
            "CAST(coalesce(p.period, 0) AS BIGINT) AS period, "
            "CAST(c.n - coalesce(p.period, 0) AS BIGINT) "
            "AS border_len, "
            "CAST(CASE WHEN c.n > 0 AND c.n % p.period = 0 "
            "THEN 1 ELSE 0 END AS BIGINT) AS is_exact "
            "FROM c LEFT JOIN p USING (doc_id)"
        ),
        # LZ78: recursive CTE carrying the dictionary as a LIST,
        # longest prefix via list_filter/list_max lambdas, the same
        # incomplete-final-phrase convention as the kernel
        "lz_complexity": (
            "WITH RECURSIVE s AS (SELECT doc_id, substr(lower("
            "regexp_replace(text, '[^a-zA-Z]', '', 'g')), 1, 128) "
            "AS t FROM documents), "
            "base AS (SELECT doc_id, t, length(t) AS n FROM s), "
            "step AS (SELECT doc_id, t, n, 1 AS pos, [''] AS dict, "
            "0 AS c FROM base UNION ALL "
            "SELECT doc_id, t, n, pos + m + 1, "
            "list_append(dict, substr(t, pos, m + 1)), c + 1 FROM "
            "(SELECT doc_id, t, n, pos, dict, c, "
            "list_max(list_transform(list_filter(dict, "
            "d -> d = substr(t, pos, length(d))), "
            "d -> length(d))) AS m FROM step WHERE pos <= n) q) "
            "SELECT doc_id, CAST(any_value(n) AS BIGINT) AS n_chars, "
            "CAST(max(c) AS BIGINT) AS c_phrases, "
            "CAST(CASE WHEN any_value(n) > 0 THEN "
            "1000000 * max(c) // any_value(n) ELSE 0 END AS BIGINT) "
            "AS compress_ppm FROM step GROUP BY doc_id"
        ),
        # Levenshtein row DP; the prefix-min closed form
        # row[j] = min_k<=j(base[k] + j - k) unrolls the in-row
        # sequential dependency into list lambdas
        "edit_distance": (
            "WITH RECURSIVE t AS (SELECT doc_id, list_slice("
            "list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> ''), 1, 16) AS toks FROM documents), "
            "p AS (SELECT a.doc_id // 2 AS pair_id, a.doc_id "
            "AS doc_a, b.doc_id AS doc_b, a.toks AS ta, b.toks "
            "AS tb, len(a.toks) AS n, len(b.toks) AS m FROM t a "
            "JOIN t b ON b.doc_id = a.doc_id + 1 "
            "AND a.doc_id % 2 = 0), "
            "dp AS (SELECT pair_id, doc_a, doc_b, ta, tb, n, m, "
            "0 AS i, list_transform(generate_series(0, m), "
            "j -> CAST(j AS BIGINT)) AS row FROM p UNION ALL "
            "SELECT pair_id, doc_a, doc_b, ta, tb, n, m, i + 1, "
            "list_transform(generate_series(0, m), j -> "
            "CAST(j AS BIGINT) + list_min(list_transform("
            "generate_series(0, j), k -> (CASE WHEN k = 0 "
            "THEN row[1] + 1 ELSE least(row[k + 1] + 1, row[k] + "
            "CASE WHEN ta[i + 1] = tb[k] THEN 0 ELSE 1 END) END) "
            "- k))) FROM dp WHERE i < n) "
            "SELECT pair_id, doc_a, doc_b, CAST(n AS BIGINT) "
            "AS n_a, CAST(m AS BIGINT) AS n_b, "
            "CAST(row[m + 1] AS BIGINT) AS edit_dist, "
            "CAST(row[m + 1] - abs(n - m) AS BIGINT) "
            "AS lower_slack, "
            "CAST(greatest(n, m) - row[m + 1] AS BIGINT) "
            "AS upper_slack FROM dp WHERE i = n"
        ),
        "crc8_checksum": _sql_crc8(),
        # BWT: rotations via list lambdas, binary-collation sort,
        # last column, run count + permutation certificate
        "bwt_runs": (
            "WITH s AS (SELECT doc_id, substr(lower(regexp_replace("
            "text, '[^a-zA-Z]', '', 'g')), 1, 32) || '$' AS t "
            "FROM documents), "
            "c AS (SELECT doc_id, t, length(t) AS L FROM s), "
            "r AS (SELECT doc_id, t, L, list_transform(list_sort("
            "list_transform(generate_series(1, L), i -> "
            "substr(t, i, L - i + 1) || substr(t, 1, i - 1))), "
            "x -> substr(x, L, 1)) AS bwt, "
            "list_sort(string_split(t, '')) AS schars FROM c) "
            "SELECT doc_id, CAST(L AS BIGINT) AS n_chars, "
            "CAST(1 + coalesce(list_sum(list_transform("
            "generate_series(2, L), i -> CASE WHEN bwt[i] <> "
            "bwt[i - 1] THEN 1 ELSE 0 END)), 0) AS BIGINT) "
            "AS runs_bwt, "
            "CAST(1 + coalesce(list_sum(list_transform("
            "generate_series(2, L), i -> CASE WHEN "
            "substr(t, i, 1) <> substr(t, i - 1, 1) THEN 1 ELSE 0 "
            "END)), 0) AS BIGINT) AS runs_input, "
            "CAST(1000000 * (1 + coalesce(list_sum(list_transform("
            "generate_series(2, L), i -> CASE WHEN bwt[i] <> "
            "bwt[i - 1] THEN 1 ELSE 0 END)), 0)) // "
            "(1 + coalesce(list_sum(list_transform("
            "generate_series(2, L), i -> CASE WHEN "
            "substr(t, i, 1) <> substr(t, i - 1, 1) THEN 1 ELSE 0 "
            "END)), 0)) AS BIGINT) AS ratio_ppm, "
            "CAST(CASE WHEN list_sort(bwt) = schars THEN 1 ELSE 0 "
            "END AS BIGINT) AS is_permutation FROM r"
        ),
    }


__all__ = ['oracle_sql_part_04']
