"""Every oracle_sql() entry must produce driver-safe output dtypes.

DuckDB's ``list_sum`` (and un-cast integer aggregates in general) returns
HUGEINT (INT128); a HUGEINT column lands in pandas as float64, while the
Ray side emits int64 — the driver's hash canonicalization distinguishes
them, so the row fails ``hash_match`` even when every value is numerically
identical (this exact bug made ``rasterize_pages``/``tiff_roundtrip`` the
only red CORRECTNESS_r03 rows). ``DESCRIBE <sql>`` plans without executing,
so this sweep is cheap enough to pin forever.
"""

from __future__ import annotations

import os

import duckdb
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

FORBIDDEN = ("HUGEINT", "UHUGEINT")


@pytest.fixture(scope="module")
def oracle_types():
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(SF_DIR, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")
    out = {}
    for name, sql in e.oracle_sql().items():
        rows = con.execute(f"DESCRIBE {sql}").fetchall()
        out[name] = [(r[0], r[1]) for r in rows]
    con.close()
    return out


def test_no_hugeint_oracle_columns(oracle_types):
    bad = []
    for name, cols in oracle_types.items():
        for col, typ in cols:
            if any(f in typ.upper() for f in FORBIDDEN):
                bad.append(f"{name}.{col}: {typ}")
    assert not bad, (
        "HUGEINT-typed oracle columns reach pandas as float64 and "
        "hash-mismatch the engine's int64 — add CAST(... AS BIGINT): "
        + "; ".join(bad)
    )


def test_oracles_parse_and_have_columns(oracle_types):
    # DESCRIBE succeeded for every oracle (fixture would have raised) and
    # each produces at least one output column.
    empty = [n for n, cols in oracle_types.items() if not cols]
    assert not empty, f"oracles with no output columns: {empty}"


def test_registry_matches_oracles_and_keeps_prefix_order():
    # every query has exactly one oracle twin, and deleting entries never
    # shifts the 50-query prefix recorded in CORRECTNESS_r05.json
    import json

    import __ray_entry__ as e

    names = list(e.queries())
    assert set(names) == set(e.oracle_sql())
    path = os.path.join(os.path.dirname(__file__), "..", "CORRECTNESS_r05.json")
    with open(path) as f:
        prefix = list(json.load(f))
    assert len(prefix) == 50
    assert names[:50] == prefix
