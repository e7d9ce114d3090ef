"""The Arrow group bodies of ``dedup_latest`` and ``dedup_exact_first``
against the pandas bodies they replaced.

The references below are the former bodies, kept verbatim: a stable
``sort_values([key, ts])`` and ``drop_duplicates(keep="last")``, and a
stable ``sort_values(["content_md5", id])`` and
``drop_duplicates(keep="first")``. Every seeded table mixes null keys or
ids, ties, single-row groups and several chunks; ``v`` is unique per row,
so the comparison names the winning row of every key."""

from __future__ import annotations

import datetime as dt
import random

import pandas as pd
import pyarrow as pa
import pytest

from documentai_ray.stages.dedup import _keep_first_md5, _keep_latest
from tests.conftest import SF_SMOKE


def _pandas_latest(g: pd.DataFrame, key: str = "url", ts: str = "warc_ts") -> pa.Table:
    g = g.sort_values([key, ts], kind="mergesort")
    out = g.drop_duplicates(subset=[key], keep="last").drop(columns=["_pkey"])
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("text", pa.large_string()),
    ("v", pa.int64()),
    ("_pkey", pa.int32()),
])
T0 = dt.datetime(2024, 1, 1)


def _table(seed: int, rows: int = 300, chunks: int = 3) -> pa.Table:
    rng = random.Random(seed)
    urls = [f"https://h{rng.randrange(5)}.example/p{i}" for i in range(rows // 4)]
    recs = []
    for v in range(rows):
        r = rng.random()
        url = None if r < 0.08 else rng.choice(urls)
        # few distinct timestamps, so equal-ts ties are common
        ts = None if rng.random() < 0.1 else T0 + dt.timedelta(minutes=rng.randrange(6))
        recs.append({"url": url, "warc_ts": ts, "text": f"text {v} é",
                     "v": v, "_pkey": 0})
    # single-row groups: urls seen exactly once
    for v in range(rows, rows + 5):
        recs.append({"url": f"https://solo.example/{v}", "warc_ts": T0,
                     "text": "solo", "v": v, "_pkey": 0})
    rng.shuffle(recs)
    step = -(-len(recs) // chunks)
    return pa.concat_tables(pa.Table.from_pylist(recs[i:i + step], schema=SCHEMA)
                            for i in range(0, len(recs), step))


@pytest.mark.parametrize("seed", range(8))
def test_matches_pandas_body(seed):
    t = _table(seed, chunks=1 + seed % 4)
    assert t.column("url").num_chunks == 1 + seed % 4
    got = _keep_latest(t, "url", "warc_ts")
    want = _pandas_latest(t.to_pandas())
    assert got.to_pylist() == want.to_pylist()  # same rows, same order


def test_edge_cases_present():
    t = _table(0).to_pandas()
    assert t["url"].isna().sum() > 1
    assert t["warc_ts"].isna().sum() > 1
    dup = t.dropna().duplicated(["url", "warc_ts"], keep=False)
    assert dup.sum() > 10  # equal-ts ties within a url
    assert (t["url"].value_counts() == 1).sum() >= 5


def test_tie_and_null_rules():
    rows = [
        {"url": "a", "warc_ts": T0, "v": 0},
        {"url": "a", "warc_ts": T0, "v": 1},       # tie: later input row wins
        {"url": "b", "warc_ts": None, "v": 2},     # null ts sorts last: wins
        {"url": "b", "warc_ts": T0, "v": 3},
        {"url": None, "warc_ts": T0, "v": 4},      # null urls: one group
        {"url": None, "warc_ts": T0 + dt.timedelta(seconds=1), "v": 5},
    ]
    t = pa.Table.from_pylist(
        [dict(r, _pkey=0) for r in rows],
        schema=pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                          ("v", pa.int64()), ("_pkey", pa.int32())]))
    got = _keep_latest(t, "url", "warc_ts")
    assert got.column("v").to_pylist() == [1, 2, 5]
    assert got.to_pylist() == _pandas_latest(t.to_pandas()).to_pylist()


def test_small_groups_and_types_preserved():
    t = _table(3)
    want_schema = SCHEMA.remove(SCHEMA.get_field_index("_pkey"))
    for n in (0, 1, 2):
        got = _keep_latest(t.slice(0, n), "url", "warc_ts")
        assert got.schema == want_schema
        if n:
            want = _pandas_latest(t.slice(0, n).to_pandas())
            assert got.to_pylist() == want.to_pylist()
    out = _keep_latest(t, "url", "warc_ts")
    assert out.schema == want_schema  # text stays large_string


def test_flagship_schema_same_with_and_without_dedup(ray_session):
    from documentai_ray.pipelines.flagship import flagship

    schemas = [flagship(sf_dir=SF_SMOKE, dedup=d).materialize().schema().base_schema
               for d in (True, False)]
    assert schemas[0] == schemas[1]
    assert schemas[0].field("text").type == pa.large_string()


def _pandas_first(g: pd.DataFrame, id_col: str = "id") -> pa.Table:
    g = g.sort_values(["content_md5", id_col], kind="mergesort")
    out = g.drop_duplicates(subset=["content_md5"], keep="first").drop(
        columns=["_pkey", "content_md5"])
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


MD5_SCHEMA = pa.schema([
    ("id", pa.int64()),
    ("text", pa.large_string()),
    ("warc_ts", pa.timestamp("us")),
    ("v", pa.int64()),
    ("content_md5", pa.string()),
    ("_pkey", pa.int32()),
])


def _md5_table(seed: int, rows: int = 300, chunks: int = 3) -> pa.Table:
    rng = random.Random(seed)
    md5s = [f"{rng.getrandbits(128):032x}" for _ in range(rows // 5)]
    recs = []
    for v in range(rows):
        # few distinct ids, so equal-id ties within an md5 are common
        rid = None if rng.random() < 0.1 else rng.randrange(8)
        recs.append({"id": rid, "text": f"text {v} é", "v": v,
                     "warc_ts": T0 + dt.timedelta(minutes=v),
                     "content_md5": rng.choice(md5s), "_pkey": 0})
    for v in range(rows, rows + 5):  # single-row groups
        recs.append({"id": v, "text": "solo", "v": v, "warc_ts": None,
                     "content_md5": f"{v:032x}", "_pkey": 0})
    rng.shuffle(recs)
    step = -(-len(recs) // chunks)
    return pa.concat_tables(pa.Table.from_pylist(recs[i:i + step], schema=MD5_SCHEMA)
                            for i in range(0, len(recs), step))


@pytest.mark.parametrize("seed", range(8))
def test_first_md5_matches_pandas_body(seed):
    t = _md5_table(seed, chunks=1 + seed % 4)
    got = _keep_first_md5(t, "id")
    want = _pandas_first(t.to_pandas())
    assert got.to_pylist() == want.to_pylist()  # same rows, same order
    # the pandas body turned large_string into string and, with null ids,
    # int64 ids into float64; the Arrow body keeps the input types
    assert want.schema.field("text").type == pa.string()
    assert want.schema.field("id").type == pa.float64()
    assert got.schema == MD5_SCHEMA.remove(5).remove(4)


def test_first_md5_edge_cases_present():
    t = _md5_table(0).to_pandas()
    assert t["id"].isna().sum() > 1
    assert t.dropna().duplicated(["content_md5", "id"], keep=False).sum() > 10
    assert (t["content_md5"].value_counts() == 1).sum() >= 5


def test_first_md5_tie_and_null_rules():
    rows = [
        {"id": 2, "content_md5": "a", "v": 0},
        {"id": 1, "content_md5": "a", "v": 1},     # min id wins
        {"id": 1, "content_md5": "a", "v": 2},     # tie: earlier input row wins
        {"id": None, "content_md5": "b", "v": 3},  # null id sorts last
        {"id": 5, "content_md5": "b", "v": 4},
        {"id": None, "content_md5": "c", "v": 5},  # all-null group: first row
        {"id": None, "content_md5": "c", "v": 6},
    ]
    t = pa.Table.from_pylist(
        [dict(r, _pkey=0) for r in rows],
        schema=pa.schema([("id", pa.int64()), ("content_md5", pa.string()),
                          ("v", pa.int64()), ("_pkey", pa.int32())]))
    got = _keep_first_md5(t, "id")
    assert got.column("v").to_pylist() == [1, 4, 5]
    assert got.to_pylist() == _pandas_first(t.to_pandas()).to_pylist()
    for n in (1, 2):
        assert _keep_first_md5(t.slice(0, n), "id").column_names == ["id", "v"]


def test_dedup_exact_first_keeps_types(ray_session):
    from documentai_ray.stages.dedup import dedup_exact_first

    t = pa.table({"id": pa.array([3, None, 1, 2], pa.int64()),
                  "text": pa.array(["same", "same", "same", "other"], pa.large_string())})
    out = dedup_exact_first(ray_session.data.from_arrow(t), id_col="id").materialize()
    assert out.schema().base_schema == t.schema
    assert sorted(r["id"] for r in out.take_all()) == [1, 2]
