"""Driver query functions (part 2/6) — split out of ``__ray_entry__.py``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403




def _q_wet_roundtrip(sf_dir: str):
    """WET sink + source roundtrip: extract → latest-capture dedup →
    distributed WET write (url-hash bucketed ``.warc.wet.gz`` shards,
    per-record gzip members, atomic per-shard publish) → shard-parallel
    WET read-back. Oracle: the golden (url, text) set — any framing or
    encoding defect in the conversion-record chain breaks the match."""
    import hashlib
    import os

    from documentai_ray.functions.warc import read_wet, write_wet_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/wet_shards_{tag}"
    manifest = write_wet_shards(ds, out_dir, num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(read_wet(paths).select_columns(["url", "text"]))


def _q_jsonl_roundtrip(sf_dir: str):
    """JSONL.gz sink + source roundtrip (the C4/Pile interchange layout):
    extract → latest-capture dedup → url-hash bucketed byte-deterministic
    .jsonl.gz shards (sort_keys, mtime=0, atomic per-shard publish) →
    shard-parallel read-back. Oracle: the golden (url, text) set — any
    serialization/escaping defect (unicode, newlines-in-text) breaks the
    match."""
    import hashlib

    from documentai_ray.sources.jsonl import read_jsonl, write_jsonl_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/jsonl_shards_{tag}"
    manifest = write_jsonl_shards(ds.select_columns(["url", "text"]), out_dir,
                                  num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(read_jsonl(paths).select_columns(["url", "text"]))


def _q_cdx_fetch(sf_dir: str):
    """CDX random-access path end-to-end: distributed indexed-WARC write
    (url-hash bucketed shards whose write tasks EMIT their CDX index
    rows), select a deterministic url subset (doc_id % 9 == 2 parsed
    from the url), range-read exactly those records (one gzip member
    each — never a shard scan), then extract. Oracle: the golden
    (url, text) subset — a framing/offset defect anywhere in the
    write→index→fetch chain breaks the match."""
    import hashlib

    import pyarrow as pa

    from documentai_ray.functions.warc import (fetch_record,
                                               write_warc_shards_indexed)
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/cdx_shards_{tag}"
    idx = write_warc_shards_indexed(
        ds.select_columns(["url", "warc_ts", "html"]), out_dir, num_shards=8)

    def want(batch: pa.Table) -> pa.Table:
        ids = [int(u.rsplit("/", 1)[1])
               for u in batch.column("url").to_pylist()]
        mask = pa.array([i % 9 == 2 for i in ids])
        return batch.filter(mask)

    def fetch_and_extract(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for p, off, ln in zip(batch.column("path").to_pylist(),
                              batch.column("offset").to_pylist(),
                              batch.column("length").to_pylist()):
            u, _ts, body = fetch_record(p, off, ln)
            urls.append(u)
            htmls.append(body)
        t = pa.table({"url": pa.array(urls, pa.string()),
                      "html": pa.array(htmls, pa.large_binary())})
        return extract_batch(t).select(["url", "text"])

    sel = idx.map_batches(want, batch_format="pyarrow")
    return _norm_strings_ds(sel.map_batches(fetch_and_extract,
                                            batch_format="pyarrow",
                                            batch_size=64))


def _q_kcenter_select(sf_dir: str):
    """Greedy k-center (farthest-point) coreset selection over the
    embeddings table, k=4 — the diversity-coverage sampling op: one
    streaming pass per round, each batch ships ONE candidate row, global
    argmax ties to smallest id. Oracle: the greedy unrolled in SQL
    (ORDER BY least(list_distance...) DESC, vec_id chains — sqrt is
    monotone so L2 vs squared-L2 ordering agrees; margins ≫ ulp drift
    per the kmeans float contract)."""
    import ray.data

    from documentai_ray.stages.similarity import kcenter_select

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return kcenter_select(ds, k=4)


def _q_zorder_keys(sf_dir: str):
    """Z-order (Morton) clustering keys over (l_orderkey, l_partkey) low
    16 bits — the multi-dimensional layout key a storage optimizer sorts
    by so range scans on EITHER column touch few files. Map-only
    vectorized bit interleave; oracle mirrors the interleave bit-for-bit
    with a list_sum over generate_series."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import zorder_key

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_partkey",
                                        "l_linenumber"])

    def add_key(batch: pa.Table) -> pa.Table:
        z = zorder_key(batch.column("l_orderkey").to_numpy(),
                       batch.column("l_partkey").to_numpy())
        return batch.append_column("zkey", pa.array(z, pa.int64()))

    return ds.map_batches(add_key, batch_format="pyarrow")


def _q_merge_upsert(sf_dir: str):
    """CDC MERGE over the document snapshot: a changelog of updates
    (doc_id%3==0, ts=1, version=1) and deletes (doc_id%7==0, ts=2) is
    applied to the base (ts=0, version=0) — one key-hash exchange, one
    vectorized latest-wins-with-delete-priority pass per partition
    (joins.merge_changelog). Expected state is the closed form: deleted
    iff %7==0, else version = 1 iff %3==0."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    base = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def base_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"doc_id": batch.column("doc_id"),
                         "source": batch.column("source"),
                         "version": pa.array([0] * n, pa.int64()),
                         "ts": pa.array([0] * n, pa.int64()),
                         "op": pa.array(["I"] * n, pa.string())})

    def change_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").to_pylist(), np.int64)
        srcs = batch.column("source").to_pylist()
        out = {"doc_id": [], "source": [], "version": [], "ts": [], "op": []}
        for i, s in zip(ids, srcs):
            if i % 3 == 0:
                out["doc_id"].append(int(i)); out["source"].append(s)
                out["version"].append(1); out["ts"].append(1)
                out["op"].append("U")
            if i % 7 == 0:
                out["doc_id"].append(int(i)); out["source"].append(s)
                out["version"].append(-1); out["ts"].append(2)
                out["op"].append("D")
        return pa.table({"doc_id": pa.array(out["doc_id"], pa.int64()),
                         "source": pa.array(out["source"], pa.string()),
                         "version": pa.array(out["version"], pa.int64()),
                         "ts": pa.array(out["ts"], pa.int64()),
                         "op": pa.array(out["op"], pa.string())})

    from documentai_ray.stages.joins import merge_changelog

    changes = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    ).map_batches(change_rows, batch_format="pyarrow")
    merged = merge_changelog(base.map_batches(base_rows,
                                              batch_format="pyarrow"),
                             changes, key_col="doc_id")
    return merged.select_columns(["doc_id", "source", "version"])


def _q_scd2_build(sf_dir: str):
    """Build an SCD Type-2 dimension from the raw event stream — the
    inverse of scd2_join's consumer side: per user, consecutive equal
    event_type observations collapse into one [valid_from, valid_to)
    range, a change closes the previous range, the latest stays open
    (valid_to = 2100-01-01 epoch). Exercises ``windows.scd2_build``:
    one key-hash exchange, all keys per partition resolved in one
    vectorized change-mask pass; equal-ts ties resolve to the smallest
    value globally because keys co-locate."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.windows import scd2_build

    def prep(batch: pa.Table) -> pa.Table:
        t = (batch.column("ts").to_numpy().astype("datetime64[us]")
             .astype("int64") // 1_000_000)
        return pa.table({"user_id": batch.column("user_id"),
                         "t": pa.array(t, pa.int64()),
                         "event_type": batch.column("event_type")})

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_type"]
                               ).map_batches(prep, batch_format="pyarrow")
    return scd2_build(ds, key_col="user_id", val_col="event_type",
                      ts_col="t", open_end=4102444800,
                      num_partitions=32)


def _q_asof_snapshot(sf_dir: str):
    """Time-travel read (AS OF version 1): reconstruct the table state
    after the updates but BEFORE the deletes of merge_upsert's
    changelog — the lakehouse MVCC query, expressed as the same
    merge_changelog plan over changes filtered to ``ts ≤ 1``. The
    version cutoff is a pure pre-merge filter: snapshot isolation falls
    out of the changelog's own ordering, no extra state. Expected
    state: every doc present (deletes are at ts 2), version 1 iff
    doc_id % 3 == 0."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.joins import merge_changelog

    base = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def base_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"doc_id": batch.column("doc_id"),
                         "source": batch.column("source"),
                         "version": pa.array([0] * n, pa.int64()),
                         "ts": pa.array([0] * n, pa.int64()),
                         "op": pa.array(["I"] * n, pa.string())})

    def change_rows_upto_v1(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").to_pylist(), np.int64)
        srcs = batch.column("source").to_pylist()
        keep = ids % 3 == 0      # the ts=2 deletes are beyond the cutoff
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "source": pa.array([s for s, k in zip(srcs, keep) if k],
                               pa.string()),
            "version": pa.array([1] * int(keep.sum()), pa.int64()),
            "ts": pa.array([1] * int(keep.sum()), pa.int64()),
            "op": pa.array(["U"] * int(keep.sum()), pa.string())})

    changes = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    ).map_batches(change_rows_upto_v1, batch_format="pyarrow")
    merged = merge_changelog(base.map_batches(base_rows,
                                              batch_format="pyarrow"),
                             changes, key_col="doc_id")
    return merged.select_columns(["doc_id", "source", "version"])


def _q_late_events(sf_dir: str):
    """Watermark late-event routing: per-user watermark = max(ts) − 120
    min (one groupby-max row per key), shipped back via a bucketed
    hash_join; late = older than the watermark — the rows a streaming
    engine diverts to the late side-output. Oracle: the same flag via a
    max() window."""
    import ray.data

    from documentai_ray.stages.windows import route_late_events

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    out = route_late_events(ds)
    return out.select_columns(["event_id", "user_id", "is_late"])


def _q_online_neardup(sf_dir: str):
    """Online near-dup lookup against a SHARED MUTABLE LSH INDEX — the
    one shape the Dataset API can't express (state written by the index
    phase must be readable by later query batches), so it runs on
    hash-sharded Ray actors (state/lsh_index.py): band keys route to the
    shard that owns their bucket slice; adds and probes are batched RPCs.
    Index = the base pages; queries = the planted ?amp=1 variants; LSH
    candidates re-rank by exact Jaccard ≥ 0.8 (broadcast text maps —
    documented small-side path). Oracle: each amp variant matches exactly
    its original (the minhash_neardup recall/precision contract)."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.state.lsh_index import (build_lsh_index,
                                                query_lsh_index,
                                                verify_with_texts)

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.select_columns(["url", "text"]).materialize()

    def is_amp(batch: pa.Table, want: bool) -> pa.Table:
        mask = [u.endswith("?amp=1") == want
                for u in batch.column("url").to_pylist()]
        return batch.filter(pa.array(mask))

    base = ds.map_batches(lambda b: is_amp(b, False), batch_format="pyarrow")
    amps = ds.map_batches(lambda b: is_amp(b, True), batch_format="pyarrow")

    shards = build_lsh_index(base, id_col="url")
    cands = query_lsh_index(amps, shards, id_col="url")
    imap = {r["url"]: r["text"] for r in base.iter_rows()}
    qmap = {r["url"]: r["text"] for r in amps.iter_rows()}
    out = verify_with_texts(cands, qmap, imap, threshold=0.8)
    return out.select_columns(["query_id", "match_id"])


def _q_fetch_schedule(sf_dir: str):
    """Politeness-complete fetch schedule: per-host Crawl-delay parsed
    from synthesized robots.txt by the REAL parser (group selection
    incl. delay), waves from the bucketed per-host row_number, and
    fetch_at_s = (wave−1) × delay — the actual timestamp plan a polite
    crawler executes. Oracle: row_number window × the closed-form delay
    rule (1 + N%4 s for srcN, 5 s for the heavy host)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from documentai_ray.functions.robots import parse_robots_txt
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.windows import running_per_key

    srcs = sorted(set(pq.read_table(f"{sf_dir}/documents.parquet",
                                    columns=["source"])
                      .column("source").to_pylist()))
    robots = {"heavy.example.com": "User-agent: *\nCrawl-delay: 5\n"}
    for s in srcs:
        n = int(s[3:])
        robots[f"{s}.example.com"] = (
            f"User-agent: *\nCrawl-delay: {1 + n % 4}\n")
    delays = {h: int(parse_robots_txt(t).crawl_delay)
              for h, t in robots.items()}
    dref = ray.put(delays)

    ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = [u.split("/")[2] for u in urls]
        return pa.table({"url": batch.column("url"),
                         "host": pa.array(hosts, pa.string()),
                         "_one": pa.array([1] * len(urls), pa.int64())})

    waved = running_per_key(ds.map_batches(add_host, batch_format="pyarrow"),
                            key_col="host", order_cols=["url"],
                            cum_col="_one", seq_col="wave", out_col="_run")

    def schedule(batch: pa.Table) -> pa.Table:
        d = ray.get(dref)
        hosts = batch.column("host").to_pylist()
        waves = batch.column("wave").to_pylist()
        at = [int((w - 1) * d[h]) for h, w in zip(hosts, waves)]
        return pa.table({"url": batch.column("url"),
                         "host": batch.column("host"),
                         "wave": batch.column("wave"),
                         "fetch_at_s": pa.array(at, pa.int64())})

    return waved.map_batches(schedule, batch_format="pyarrow")


def _q_users_sketch(sf_dir: str):
    """Per-event-type distinct-user KMV sketch — the scale path past
    exact COUNT(DISTINCT) per key (users_per_event shuffles every
    distinct pair; this ships ≤ k=128 hashes per key per batch no matter
    how many users exist). Exact below k per group; estimator above.
    Oracle: the identical sketch per group via a row_number window +
    HUGEINT division."""
    import ray.data

    from documentai_ray.stages.sketches import grouped_kmv_distinct

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    return grouped_kmv_distinct(ds, key_col="event_type",
                                val_col="user_id", k=128)


def _q_events_anomaly(sf_dir: str):
    """Hourly event-count spike detection per event type in EXACT integer
    arithmetic: |x−μ| > 3σ cross-multiplied to (xn−S)² > 9(nQ−S²) so no
    float mean/std ever reaches the compared columns (windows.
    flag_count_anomalies). Oracle: the same integer inequality over SQL
    window sums."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.windows import flag_count_anomalies

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])

    def add_hour(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = batch.to_pandas()
        df["hour"] = df["ts"].dt.floor("h")
        return pa.Table.from_pandas(df[["event_type", "hour"]],
                                    preserve_index=False)

    hours = ds.map_batches(add_hour, batch_format="pyarrow")
    return flag_count_anomalies(hours, key_col="event_type",
                                bucket_col="hour")


def _q_table_checksum(sf_dir: str):
    """Order-independent cross-engine table digests — the data-validation
    primitive for migrations/replication: per table, a wrapping mod-2⁶⁴
    sum of the md5-LE64 hash of each row's canonical string.  Per-batch
    partials carry the sum as (hi, lo) 2³²-split int64 columns so no
    engine-side overflow is possible; one tiny groupby merges them and a
    final map reassembles (hi·2³² + lo) mod 2⁶⁴ → signed int64 with
    Python bignums.  Oracle: HUGEINT sum of the identical md5 expression
    % 2⁶⁴, signed-reinterpreted."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.sketches import md5_le64

    specs = {
        "customer": (["c_custkey", "c_name", "c_mktsegment"], "customer"),
        "orders": (["o_orderkey", "o_orderstatus", "o_orderpriority"],
                   "orders"),
        "nation": (["n_nationkey", "n_name"], "nation"),
    }

    def make_partial(tname: str, cols: list):
        def partial(batch: pa.Table) -> pa.Table:
            arrays = [batch.column(c).to_pylist() for c in cols]
            total = 0
            for vals in zip(*arrays):
                s = tname + "|" + "|".join(str(v) for v in vals)
                total = (total + md5_le64(s)) % (1 << 64)
            return pa.table({"table_name": pa.array([tname], pa.string()),
                             "n_rows": pa.array([batch.num_rows], pa.int64()),
                             "hi": pa.array([total >> 32], pa.int64()),
                             "lo": pa.array([total & 0xFFFFFFFF],
                                            pa.int64())})
        return partial

    parts = None
    for tname, (cols, fname) in specs.items():
        ds = ray.data.read_parquet(f"{sf_dir}/{fname}.parquet",
                                   columns=cols)
        p = ds.map_batches(make_partial(tname, cols),
                           batch_format="pyarrow")
        parts = p if parts is None else parts.union(p)

    agg = parts.groupby("table_name").aggregate(
        Sum("n_rows", alias_name="n_rows"),
        Sum("hi", alias_name="hi"), Sum("lo", alias_name="lo"))

    def derive(batch: pa.Table) -> pa.Table:
        out = []
        for hi, lo in zip(batch.column("hi").to_pylist(),
                          batch.column("lo").to_pylist()):
            v = ((hi << 32) + lo) % (1 << 64)
            out.append(v - (1 << 64) if v >= (1 << 63) else v)
        return pa.table({"table_name": batch.column("table_name"),
                         "n_rows": batch.column("n_rows"),
                         "checksum": pa.array(out, pa.int64())})

    return agg.map_batches(derive, batch_format="pyarrow")


def _q_string_agg_topdocs(sf_dir: str):
    """Grouped ORDERED string aggregation (string_agg ... ORDER BY): per
    source, the comma-joined list of its 5 smallest doc_ids.  Ordered
    concat can't pre-combine across unordered partials, so the scale-safe
    plan bounds the per-key row count FIRST (grouped_topk: map-side
    partial top-k, one key exchange) and concatenates only the ≤k
    surviving rows per key."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import grouped_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])
    top = grouped_topk(ds, key_col="source", sort_cols=["doc_id"],
                       ascending=[True], k=5, num_partitions=16)

    def concat(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "doc_list": [",".join(str(d) for d in g["doc_id"])],
            "n_top": pd.array([len(g)], dtype="int64")})

    return top.groupby("source").map_groups(concat, batch_format="pandas")


def _q_gap_fill(sf_dir: str):
    """Time-series gap fill: the per-type hourly series densified to the
    full global hour grid — missing hours get n_events=0 and carry the
    last observed hourly cents total forward (LOCF); hours before a
    type's first observation stay NULL.  Physical plan: one exchange
    aggregates (type, hour) cells with per-batch pre-combined partials;
    the grid construction + LOCF run on the AGGREGATED cells only
    (|types|·|hours| rows — bounded by the time span, not the corpus, a
    documented size contract), vectorized via reindex + groupby-ffill.
    Oracle: generate_series grid + last_value(... IGNORE NULLS) OVER."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["hour"] = df["ts"].dt.floor("h")
        df["cents"] = np.rint(df["value"].to_numpy() * 100).astype("int64")
        g = (df.groupby(["event_type", "hour"], as_index=False)
             .agg(n_events=("cents", "size"), cents=("cents", "sum")))
        g["n_events"] = g["n_events"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["event_type", "hour"])
             .aggregate(Sum("n_events", alias_name="n_events"),
                        Sum("cents", alias_name="cents")))

    # aggregated cells are span-bounded (|types| x |hours|) — the one
    # documented driver-side materialization, same contract as the
    # anomaly stats broadcast.
    from documentai_ray.stages.windows import gap_fill_locf

    full = gap_fill_locf(cells.to_pandas(), key_col="event_type",
                         bucket_col="hour", count_col="n_events",
                         gauge_col="cents")
    # mirror DuckDB's NULL-int convention so dtypes agree at ANY scale:
    # a BIGINT column with NULLs reaches pandas as float64 (NaN), an
    # all-present one as int64 — pre-first-observation hours only exist
    # at tiny scales, where the oracle side goes float
    c = full["cents"]
    full["cents"] = (c.astype("float64") if c.isna().any()
                     else c.astype("int64"))
    return ray.data.from_arrow(
        pa.Table.from_pandas(full, preserve_index=False))


def _q_cube_counts(sf_dir: str):
    """GROUPING SETS / CUBE(lang, source): counts and char totals at all
    four aggregation levels with an 'ALL' sentinel on rolled-up axes.
    Physical plan: ONE exchange aggregates the finest (lang, source)
    cells (per-batch pre-combined partials); the cube expansion then runs
    over the aggregated cells only (|langs|·|sources| rows — a flat-map
    emitting each cell's 4 grouping-set projections plus a tiny second
    groupby), never over the raw rows.  Oracle: GROUP BY CUBE +
    coalesce."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["lang", "source"], as_index=False)
             .agg(n_docs=("n_chars", "size"), total_chars=("n_chars", "sum")))
        g["n_docs"] = g["n_docs"].astype("int64")
        g["total_chars"] = g["total_chars"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["lang", "source"])
             .aggregate(Sum("n_docs", alias_name="n_docs"),
                        Sum("total_chars", alias_name="total_chars")))

    def expand(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        sets = []
        for roll_lang, roll_src in ((False, False), (False, True),
                                    (True, False), (True, True)):
            p = df.copy()
            if roll_lang:
                p["lang"] = "ALL"
            if roll_src:
                p["source"] = "ALL"
            sets.append(p)
        out = (pd.concat(sets, ignore_index=True)
               .groupby(["lang", "source"], as_index=False).sum())
        out["n_docs"] = out["n_docs"].astype("int64")
        out["total_chars"] = out["total_chars"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    # the cell table is tiny (|langs|·|sources|); a second 2-key groupby
    # merges the per-block expansions into exact cube cells.
    return (cells.map_batches(expand, batch_format="pyarrow")
            .groupby(["lang", "source"])
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("total_chars", alias_name="total_chars")))


def _q_scd2_join(sf_dir: str):
    """SCD Type-2 effective-dated dimension join: each order picks the
    customer-segment VERSION valid at its order date (valid_from ≤ date <
    valid_to).  Because every key's versions tile time completely, this
    is exactly a per-key backward as-of join — one bucketed exchange
    (joins.asof_join), never a broadcast (the dimension is
    customer-sized, i.e. fact-adjacent).  The versioned dimension is
    synthesized deterministically from customer (3 versions per key with
    custkey-derived boundaries); the oracle rebuilds it with
    lead() OVER and joins on the interval."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.joins import asof_join

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey"])

    def versions(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy()
        n = len(ck)
        keys = np.repeat(ck, 3)
        ver = np.tile(np.array([1, 2, 3], np.int64), n)
        base = np.empty(3 * n, "datetime64[us]")
        base[0::3] = np.datetime64("1992-01-01", "us")
        base[1::3] = (np.datetime64("1996-01-01", "us")
                      + (ck % 365).astype("timedelta64[D]").astype(
                          "timedelta64[us]"))
        base[2::3] = (np.datetime64("1999-01-01", "us")
                      + ((ck * 7) % 365).astype("timedelta64[D]").astype(
                          "timedelta64[us]"))
        seg = np.array(_SCD2_SEGMENTS)[(keys + ver) % 5]
        return pa.table({"o_custkey": pa.array(keys, pa.int64()),
                         "o_orderdate": pa.array(base,
                                                 pa.timestamp("us")),
                         "version": pa.array(ver, pa.int64()),
                         "segment": pa.array(seg, pa.string())})

    dim = cust.map_batches(versions, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])
    return asof_join(orders, dim, on="o_orderdate", by="o_custkey",
                     direction="backward")


def _q_grouped_regression(sf_dir: str):
    """Per-group OLS sufficient statistics in exact integer arithmetic —
    the corr/covar_pop/regr_slope aggregate family with no float crossing
    the engine boundary (aggregates.grouped_linreg): quantity vs
    extendedprice-cents per returnflag.  cov_num = n·Σxy−Σx·Σy,
    var_num = n·Σxx−(Σx)², slope_q = trunc-division — bit-identical to
    the HUGEINT-safe SQL mirror.  Domain bound n·max|x·y| < 2⁶³ holds
    through sf0.1 (≈3.4e18); rescale y for bigger corpora (documented)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import grouped_linreg

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy().astype("int64")
        cents = np.rint(batch.column("l_extendedprice").to_numpy()
                        * 100).astype("int64")
        return pa.table({"l_returnflag": batch.column("l_returnflag"),
                         "x": pa.array(q, pa.int64()),
                         "y": pa.array(cents, pa.int64())})

    return grouped_linreg(ds.map_batches(prep, batch_format="pyarrow"),
                          key_col="l_returnflag", x_col="x", y_col="y")


def _q_event_transitions(sf_dir: str):
    """Markov transition matrix over per-user event streams — the LAG
    window primitive (prev_type → next_type adjacency counts, ordered by
    ts with event_id tiebreak). One key-hash exchange; each partition
    pre-combines to ≤|types|² rows (windows.transitions_per_key).
    Oracle: lag() OVER (PARTITION BY user ORDER BY ts, event_id)."""
    import ray.data

    from documentai_ray.stages.windows import transitions_per_key

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"])
    return transitions_per_key(ds, key_col="user_id", ts_col="ts",
                               type_col="event_type",
                               tiebreak_col="event_id")


def _q_funnel_conversion(sf_dir: str):
    """Ordered multi-step funnel (view → click → purchase, strict time
    order): per-user deepest completed prefix, aggregated to a depth
    histogram. Per-partition vectorized step resolution (3 filtered
    groupby-min + merge passes for ALL users at once), partial depth
    counts pre-combined before the final tiny groupby
    (windows.funnel_depth). Only high-value events (value ≥ 150) count
    as funnel steps — the cutoff keeps every depth bucket populated
    (otherwise the dense synthetic stream puts all users at depth 3 and
    the check is vacuous). Oracle: chained min-ts subqueries."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.windows import funnel_depth

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])
    ds = (ds.filter(expr="value >= 150")
          .select_columns(["user_id", "ts", "event_type"]))
    per_user = funnel_depth(ds, key_col="user_id", ts_col="ts",
                            type_col="event_type",
                            steps=("view", "click", "purchase"))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = (df.groupby("depth", sort=False).size()
               .rename("n_users").reset_index())
        out["n_users"] = out["n_users"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    return (per_user.map_batches(partial, batch_format="pyarrow")
            .groupby("depth").aggregate(Sum("n_users", alias_name="n_users")))


def _q_lang_rebalance(sf_dir: str):
    """Language-balanced corpus cap: keep the K=30 longest docs per
    language — the rebalancing step multilingual corpora apply so
    high-resource languages don't swamp the mix (same grouped_topk
    physical plan as the per-domain cap: partial top-k per batch, one
    key-hash exchange). Oracle: row_number window."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import grouped_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])

    def measure(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({"doc_id": batch.column("doc_id"),
                         "lang": batch.column("lang"),
                         "n_chars": pa.array([len(t or "") for t in texts],
                                             pa.int64())})

    sized = ds.map_batches(measure, batch_format="pyarrow")
    return grouped_topk(sized, key_col="lang",
                        sort_cols=["n_chars", "doc_id"],
                        ascending=[False, True], k=30)


def _q_drop_funnel(sf_dir: str):
    """Curation drop-funnel audit: every document tagged with the FIRST
    rule that drops it (short → bad_lang → low_confidence → kept, the
    curate_corpus rule set in fixed order) — the funnel report a corpus
    run publishes so "why did my doc disappear" is answerable. Oracle:
    the same CASE ladder over the mirrored quality SQL."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.quality import quality_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
    ds = ds.map_batches(quality_batch, batch_format="pyarrow",
                        batch_size=512)

    def tag(t: pa.Table) -> pa.Table:
        import numpy as np
        n_chars = np.asarray(t.column("n_chars").to_pylist())
        lang_ok = np.asarray(t.column("lang_ok").to_pylist())
        conf = np.asarray(t.column("confidence").to_pylist())
        reason = np.where(n_chars < 100, "short",
                          np.where(~lang_ok, "bad_lang",
                                   np.where(conf < 0.6, "low_confidence",
                                            "kept")))
        return pa.table({"doc_id": t.column("doc_id"),
                         "drop_reason": pa.array(reason.tolist(),
                                                 pa.string())})

    return ds.map_batches(tag, batch_format="pyarrow")


def _q_tfrecord_roundtrip(sf_dir: str):
    """TFRecord sink + source roundtrip (the TF-ecosystem shard
    container, spec framing with masked CRC32C integrity — Castagnoli
    table in numpy, RFC 3720 vector pinned in tests): extract →
    latest-capture dedup → url-hash bucketed shards (atomic publish) →
    CRC-VALIDATING shard-parallel read-back. Oracle: the golden
    (url, text) set."""
    import hashlib

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.sources.tfrecord import (read_tfrecord,
                                                 write_tfrecord_shards)
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/tfrecord_shards_{tag}"
    manifest = write_tfrecord_shards(ds.select_columns(["url", "text"]),
                                     out_dir, num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_tfrecord(paths).select_columns(["url", "text"]))


def _q_csv_roundtrip(sf_dir: str):
    """CSV sink + source roundtrip (RFC 4180, QUOTE_ALL + CRLF so
    embedded newlines/quotes in extracted text survive): extract →
    latest-capture dedup → url-hash bucketed shards → shard-parallel
    read-back. Oracle: the golden (url, text) set — any quoting defect
    breaks the match on the first multi-line document."""
    import hashlib

    from documentai_ray.sources.jsonl import (read_csv_shards,
                                              write_csv_shards)
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/csv_shards_{tag}"
    manifest = write_csv_shards(ds.select_columns(["url", "text"]), out_dir,
                                num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_csv_shards(paths).select_columns(["url", "text"]))


def _q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather V2) sink + source roundtrip — the zero-copy
    columnar interchange: readers memory-map record batches with no
    parse step, the natural hand-off between Arrow-native engines.
    Oracle: the golden (url, text) set."""
    import hashlib

    from documentai_ray.sources.jsonl import read_ipc_shards, write_ipc_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/ipc_shards_{tag}"
    manifest = write_ipc_shards(ds.select_columns(["url", "text"]), out_dir,
                                num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_ipc_shards(paths).select_columns(["url", "text"]))


def _q_sorted_export(sf_dir: str):
    """Range-partitioned sorted export of the SURT key space (the CDX
    shard layout): explicit driver-chosen boundaries split the reversed-
    host key space into 4 shards, each written key-sorted with atomic
    publish — manifest (shard, n_rows, min_key, max_key) is the
    binary-searchable index. Oracle: bucket = count of boundaries ≤ key
    (string compare), group counts + min/max. Cross-shard global order
    pinned in pytest by reading the shards back."""
    import hashlib

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.curation import sorted_range_export
    from documentai_ray.stages.dedup import surt_batch

    ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])
    keyed = ds.map_batches(surt_batch, batch_format="pyarrow",
                           batch_size=512)
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/sorted_export_{tag}"
    bounds = ["com,example,src1", "com,example,src3",
              "com,example,src6"]
    return sorted_range_export(keyed, out_dir, key_col="surt_key",
                               boundaries=bounds)


def _q_orc_roundtrip(sf_dir: str):
    """ORC sink + source roundtrip (the Hive/Trino lake format) — rounds
    out the columnar interchange trio next to parquet and Arrow IPC.
    Oracle: the golden (url, text) set."""
    import hashlib

    from documentai_ray.sources.jsonl import read_orc_shards, write_orc_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/orc_shards_{tag}"
    manifest = write_orc_shards(ds.select_columns(["url", "text"]), out_dir,
                                num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_orc_shards(paths).select_columns(["url", "text"]))


def _q_page_meta(sf_dir: str):
    """Page-metadata extraction: first ``<title>`` text per decodable
    page (whitespace-collapsed). Oracle: the archetype→title closed form
    of the corpus templates; malformed pages emit no row."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import page_meta_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    return ds.select_columns(["url", "html"]).map_batches(
        page_meta_batch, batch_format="pyarrow", batch_size=512)


def _q_robots_filter(sf_dir: str):
    """Crawl-compliance filtering: pages carrying
    ``<meta name="robots" content="noindex">`` (planted on
    ``doc_id % 11 == 5``) are dropped by a byte-level head scan BEFORE
    any parse/extract cost; everything else passes through. Oracle: the
    url set minus the noindex rule."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import robots_filter_batch

    ds = pages_dataset(sf_dir, with_dups=False, robots=True)
    ds = ds.select_columns(["url", "html"]).map_batches(
        robots_filter_batch, batch_format="pyarrow", batch_size=512)
    return ds.select_columns(["url"])


def _q_robots_txt_rules(sf_dir: str):
    """Host-side robots.txt compliance (RFC 9309, functions/robots.py):
    per-host policies — synthesized deterministically from the corpus'
    host names — are parsed by the real parser (group selection,
    longest-match, allow-wins ties, empty-Disallow no-op, unknown keys)
    and applied to every page URL as vectorized prefix masks. The heavy
    host exercises agent-group fallback past a googlebot Disallow-all;
    src-hosts exercise a 3-layer longest-match stack (/p/2 < /p/23 <
    /p/234). Oracle: the matching CASE ladder in SQL."""
    import pyarrow.parquet as pq

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.curation import robots_txt_gate

    srcs = sorted(set(pq.read_table(f"{sf_dir}/documents.parquet",
                                    columns=["source"])
                      .column("source").to_pylist()))
    robots = {"heavy.example.com":
              "User-agent: googlebot\nDisallow: /\n\n"
              "User-agent: *\nDisallow: /p/1\nAllow: /p/12\n"}
    for s in srcs:
        n = int(s[3:])
        if n % 3 == 0:
            robots[f"{s}.example.com"] = (
                "# crawl policy\nUser-agent: *\nDisallow: /p/2\n"
                "Allow: /p/23\nDisallow: /p/234\n"
                "Sitemap: https://example.com/sitemap.xml\n")
        elif n % 3 == 1:
            robots[f"{s}.example.com"] = "User-agent: *\nDisallow:\n"
        # n % 3 == 2: no robots.txt published → allow everything

    ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])
    return robots_txt_gate(ds, robots)


def _q_surt_keys(sf_dir: str):
    """SURT canonical keys (the Common Crawl CDX sort key): reversed
    comma-joined host labels + ')' + path?query-sorted, lowercased — the
    key form that makes one domain a contiguous range. Runs over the
    amp-variant page set so the query-string path is exercised; www/port
    stripping pinned in pytest. Oracle: the same transform in SQL string
    ops (single-param corpus: sorted == original, multi-param order
    pinned in tests)."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import surt_batch

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    return (ds.select_columns(["url"])
            .map_batches(surt_batch, batch_format="pyarrow", batch_size=512))


def _q_anchor_text(sf_dir: str):
    """Anchor-text index (the classic link-graph enrichment signal):
    flat-map (page, link, anchor) edges, per-batch pandas pre-combine,
    then ONE (link, anchor)-keyed exchange summing partial counts — the
    shuffle carries (link, anchor, partial_n), never the edge stream.
    Oracle: the template closed form — every decodable page links
    nav+footer (6 fixed paths), article/report add /rel/1-2, link farms
    add 12 unique /cat/<id>/<i> targets."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import anchor_edges_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    edges = ds.select_columns(["url", "html"]).map_batches(
        anchor_edges_batch, batch_format="pyarrow", batch_size=256)

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.select(["link", "anchor"]).to_pandas()
        n = df.value_counts(["link", "anchor"]).reset_index(name="n")
        return pa.Table.from_pandas(n, preserve_index=False)

    return (edges.map_batches(combine, batch_format="pyarrow")
            .groupby(["link", "anchor"])
            .aggregate(Sum("n", alias_name="n_refs")))


def _q_sitemap_frontier(sf_dir: str):
    """Crawl-frontier discovery composition: per-host sitemapindex →
    child urlsets (real namespace-aware XML parse, broadcast body map
    standing in for the fetch cache) → anti hash_join against the
    already-crawled url set (only url hashes cross the exchange) →
    robots.txt gate (keep_only) — the sitemap-proposes / robots-disposes
    / index-dedups pipeline every recrawl runs. Sitemaps list each
    host's even-doc pages (all already crawled, so the anti-join must
    eliminate them) plus 3 phantom /new/<n> urls; robots blocks /new/2
    on heavy + even-numbered src hosts. Oracle: the phantom closed
    form."""
    import pyarrow.parquet as pq
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.curation import robots_txt_gate, sitemap_expand
    from documentai_ray.stages.joins import hash_join

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    ids = docs.column("doc_id").to_pylist()
    sources = docs.column("source").to_pylist()
    srcs = sorted(set(sources))
    hosts = ["heavy.example.com"] + [f"{s}.example.com" for s in srcs]

    def page_url(i: int, s: str) -> str:
        host = "heavy.example.com" if i % 3 == 0 else f"{s}.example.com"
        return f"https://{host}/p/{i}"

    by_host: dict[str, list[str]] = {h: [] for h in hosts}
    for i, s in zip(ids, sources):
        if i % 2 == 0:
            h = "heavy.example.com" if i % 3 == 0 else f"{s}.example.com"
            by_host[h].append(page_url(i, s))

    def urlset(entries):
        rows = "".join(
            f"<url><loc>{u}</loc><lastmod>{m}</lastmod></url>"
            for u, m in entries)
        return ('<?xml version="1.0"?><urlset '
                'xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
                f"{rows}</urlset>")

    entry_rows, bodies = [], {}
    for h in hosts:
        crawled = [(u, "2024-01-01") for u in by_host[h]]
        phantoms = [(f"https://{h}/new/{n}", f"2024-0{n + 1}-01")
                    for n in range(3)]
        c1, c2 = f"https://{h}/sm/1.xml", f"https://{h}/sm/2.xml"
        bodies[c1] = urlset(crawled)
        bodies[c2] = urlset(phantoms)
        entry_rows.append({"host": h, "xml": (
            '<?xml version="1.0"?><sitemapindex '
            'xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
            f"<sitemap><loc>{c1}</loc></sitemap>"
            f"<sitemap><loc>{c2}</loc></sitemap></sitemapindex>")})

    robots = {h: "User-agent: *\nDisallow: /new/2\n" for h in hosts
              if h == "heavy.example.com" or int(h.split(".")[0][3:]) % 2 == 0}

    proposed = sitemap_expand(ray.data.from_items(entry_rows), bodies)
    crawled_ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])
    fresh = hash_join(proposed, crawled_ds, on="url", how="anti")
    gated = robots_txt_gate(fresh, robots, keep_only=True)
    return gated.select_columns(["host", "url", "lastmod"])


def _q_recrawl_priority(sf_dir: str):
    """Freshness-driven recrawl scheduling over synthesized capture
    histories: each doc gets 1 + doc_id%4 captures; capture j's content
    hash flips to a revision whenever (doc_id+j)%3 == 0 — a closed-form
    mix of never-changed, sometimes-changed and always-changing urls.
    The operator (curation.recrawl_priority) co-locates each url's
    history with one crc32(url)%P exchange and computes change-rate ppm
    + hot/warm/cold buckets in a single vectorized pass per partition.
    Oracle: the same capture table + lag() window in SQL."""
    import hashlib

    import pyarrow as pa
    import ray.data

    from documentai_ray.sources.pages import url_for
    from documentai_ray.stages.curation import recrawl_priority

    def captures(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        srcs = batch.column("source").to_pylist()
        urls, tss, hs = [], [], []
        for i, t, s in zip(ids, texts, srcs):
            for j in range(1 + i % 4):
                urls.append(url_for(i, s))
                tss.append(j)
                body = (t or "") + f" rev{j}" if (i + j) % 3 == 0 else (t or "")
                hs.append(hashlib.md5(body.encode("utf-8")).hexdigest())
        return pa.table({"url": pa.array(urls, pa.string()),
                         "ts": pa.array(tss, pa.int64()),
                         "content_hash": pa.array(hs, pa.string())})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"])
    caps = ds.map_batches(captures, batch_format="pyarrow", batch_size=256)
    return recrawl_priority(caps)


def _q_price_quantiles(sf_dir: str):
    """Approximate p50/p95/p99 of l_extendedprice (exact integer cents)
    per returnflag via the mergeable HDR sketch (16 sub-buckets/octave,
    ≤1/16 relative error by construction): sketch state is keys×buckets
    regardless of value cardinality — the scale path past
    grouped_quantile_int's keys×distinct-values histogram. Oracle: the
    identical bucketing in SQL (length(bin()) bit-length, shift/mask
    sub-bucket, window cumsum rank pick)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import grouped_quantile_sketch

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_returnflag", "l_extendedprice"])

    def cents(batch: pa.Table) -> pa.Table:
        c = np.rint(batch.column("l_extendedprice").to_numpy() * 100
                    ).astype("int64")
        return pa.table({"l_returnflag": batch.column("l_returnflag"),
                         "price_c": pa.array(c, pa.int64())})

    return grouped_quantile_sketch(
        ds.map_batches(cents, batch_format="pyarrow"),
        key_cols=["l_returnflag"], val_col="price_c")


def _q_fetch_waves(sf_dir: str):
    """Politeness-constrained fetch scheduling: assign every frontier URL
    a wave number = row_number within its host (ordered by url) so wave w
    contains AT MOST ONE url per host — the per-host rate-limit batching
    a crawler executes wave-by-wave. Pure composition of the bucketed
    window stage (windows.running_per_key: one crc32(host)%P exchange,
    vectorized cumcount per partition). Oracle: row_number() window."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.windows import running_per_key

    ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = [u.split("/")[2] for u in urls]
        ones = [1] * len(urls)
        return pa.table({"url": batch.column("url"),
                         "host": pa.array(hosts, pa.string()),
                         "_one": pa.array(ones, pa.int64())})

    out = running_per_key(ds.map_batches(add_host, batch_format="pyarrow"),
                          key_col="host", order_cols=["url"], cum_col="_one",
                          seq_col="wave", out_col="_run")
    return out.select_columns(["url", "host", "wave"])


def _q_profile_columns(sf_dir: str):
    """ANALYZE-style catalog stats over lineitem dimension-ish columns:
    one streaming pass shipping only sketch-sized per-batch partials
    (counts, native-domain min/max, KMV hash state); n_distinct is exact
    below k=128 — the regime these columns live in — and the oracle
    computes the true count(DISTINCT). min/max stringified only at the
    driver so ordering is value-domain."""
    import ray.data

    from documentai_ray.stages.aggregates import profile_columns

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_linenumber"])
    return profile_columns(
        ds, ["l_returnflag", "l_linestatus", "l_quantity", "l_linenumber"])


def _q_dq_audit(sf_dir: str):
    """Declarative data-quality constraint suite (Deequ/dbt-test-style,
    ``stages/dq.py``) over the orders table — the attest-before-trust
    gate a 100 TB ingest runs ahead of every downstream consumer. Seven
    checks spanning all four physical plans: row-scope checks
    (NOT NULL / accepted domains / numeric range) fuse into ONE
    streaming partial-counts pass; each uniqueness check is one
    exchange bounded by the key's distinct count (violations =
    count(*) − count(DISTINCT)); referential integrity ships
    pre-combined child key counts through the partitioned anti
    hash_join against customers in good standing (c_acctbal ≥ 0) —
    negative-balance customers make the orphan count genuinely nonzero,
    so the audit exercises real failures, not just all-green rows."""
    import ray.data

    from documentai_ray.stages.dq import (AcceptedValues, ForeignKey,
                                          InRange, NotNull, Unique,
                                          dq_report)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_orderpriority", "o_totalprice"])

    import pyarrow as pa

    def good_standing(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = pc.greater_equal(batch.column("c_acctbal"), 0.0)
        return batch.filter(keep).select(["c_custkey"])

    ref = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal"]).map_batches(
            good_standing, batch_format="pyarrow")

    checks = [
        NotNull("o_custkey"),
        Unique("o_orderkey"),
        Unique("o_custkey"),
        AcceptedValues("o_orderstatus", ("O", "F", "P")),
        AcceptedValues("o_orderpriority",
                       ("1-URGENT", "2-HIGH", "3-MEDIUM")),
        InRange("o_totalprice", 0.01, 300000.0),
        ForeignKey("o_custkey", "customer_good"),
    ]
    return dq_report(orders, checks,
                     ref_datasets={"customer_good": (ref, "c_custkey")})


def _q_k_anonymity(sf_dir: str):
    """k-anonymity suppression over customer metadata
    (``privacy.k_anonymize``): before attribute tables ship with a
    corpus, quasi-identifier combinations that single out fewer than
    k=10 individuals are suppressed to '*' (the QI here is
    (nationkey, mktsegment) — re-identification comes from the JOIN of
    harmless columns, not any one). ONE row exchange keyed by the QI
    tuple hash; every equivalence class lands whole in one partition,
    which sizes all its classes in a single vectorized
    groupby-transform. At sf0.01 class sizes span 5–21, so both the
    suppressed and the passing population are genuinely nonempty."""
    import ray.data

    from documentai_ray.stages.privacy import k_anonymize

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_mktsegment"])
    return k_anonymize(cust, qi_cols=["c_nationkey", "c_mktsegment"],
                       k=10)


def _q_l_diversity(sf_dir: str):
    """l-diversity suppression over customer metadata
    (``privacy.l_diversify``) — k-anonymity's homogeneity-attack
    complement: a QI class whose members all share the SAME sensitive
    value (here the account-in-arrears flag) leaks it regardless of
    class size, so classes carrying < 2 distinct sensitive values get
    their QI suppressed to '*'. Same ONE-row-exchange plan as
    k_anonymity (classes co-locate whole, per-partition vectorized
    nunique-transform); at sf0.01 ~9% of balances are negative, so
    all-nonnegative classes genuinely fail while mixed ones pass."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from documentai_ray.stages.privacy import l_diversify

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "c_nationkey": batch.column("c_nationkey"),
            "c_mktsegment": batch.column("c_mktsegment"),
            "bal_neg": pc.less(batch.column("c_acctbal"), 0.0)})

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_mktsegment", "c_acctbal"],
    ).map_batches(prep, batch_format="pyarrow")
    return l_diversify(cust, qi_cols=["c_nationkey", "c_mktsegment"],
                       sensitive_col="bal_neg", l=2)


def _q_diversity_index(sf_dir: str):
    """Per-source language diversity of the documents table
    (``aggregates.grouped_diversity``): exact integer-ppm Gini–Simpson
    index 1 − Σ(c_i/n)² — the corpus-mix concentration check run
    before a training mix ships (a source whose diversity ≈ 0 is
    effectively monolingual; a crawl slice dominated by one domain
    shows the same signature). Chosen over Shannon entropy because it
    is rational: scale − (scale·Σc²) // n² reproduces bit-exactly in
    SQL. Two bounded exchanges (distinct (source, lang) pairs, then
    sources); rows never shuffle."""
    import ray.data

    from documentai_ray.stages.aggregates import grouped_diversity

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "lang"])
    return grouped_diversity(docs, key_col="source", cat_col="lang")


def _q_mad_outliers(sf_dir: str):
    """Robust per-source length-anomaly flags over documents
    (``aggregates.mad_outliers``): |n_chars − median| > 3·MAD, the
    distribution-free outlier rule (mean/σ break down exactly when
    outliers are present; median/MAD have 50% breakdown) — the
    curation pass that catches documents anomalously long/short FOR
    THEIR SOURCE. Doubled-unit integer arithmetic end to end (med×2,
    MAD×4, rule ×4) so the SQL oracle reproduces every flag
    bit-exactly; both medians read off ONE (source, n_chars)
    histogram exchange; at sf0.01 ten documents genuinely flag."""
    import ray.data

    from documentai_ray.stages.aggregates import mad_outliers

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "n_chars"])
    return mad_outliers(docs, key_col="source", val_col="n_chars",
                        k_num=3, k_den=1)


def _q_unpivot_measures(sf_dir: str):
    """Wide → long reshaping (``schema.unpivot`` — pandas melt / SQL
    UNPIVOT): lineitem's four measure columns become
    (l_orderkey, l_linenumber, measure, value) tall rows, 4× the input
    row count, in a pure per-batch Arrow transform with ZERO exchange
    — the layout the grouped/windowed ops downstream want. Cross-engine
    value identity holds because the doubles are carried, never
    recomputed."""
    import ray.data

    from documentai_ray.stages.schema import unpivot

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"])
    return unpivot(li, id_cols=["l_orderkey", "l_linenumber"],
                   value_cols=["l_quantity", "l_extendedprice",
                               "l_discount", "l_tax"],
                   var_name="measure", value_name="value")


def _q_benford_audit(sf_dir: str):
    """First-digit Benford audit of order amounts per priority class
    (``dq.benford_audit``): the forensic screen for fabricated or
    unit-corrupted numeric columns — natural multi-magnitude amounts
    lead with 1 ~30% of the time, re-scaled or invented ones don't
    (this corpus's price generator visibly doesn't: digits 5–9 are
    starved, dev_ppm shows it). Amounts integerized to cents with the
    house np.rint idiom; first digit via decimal-string head (no float
    log10); ONE exchange bounded by 9 × keys; shares in integer ppm
    against fixed Benford constants so SQL reproduces bit-exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.dq import benford_audit

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("o_totalprice").to_numpy()
                        * 100).astype("int64")
        return pa.table({
            "o_orderpriority": batch.column("o_orderpriority"),
            "cents": pa.array(cents, pa.int64())})

    return benford_audit(orders.map_batches(to_cents,
                                            batch_format="pyarrow"),
                         key_col="o_orderpriority", val_col="cents")


def _q_dead_letter(sf_dir: str):
    """Dead-letter routing summary: the extraction stage's row-level
    failure contract (any per-row exception → error record, job
    continues) aggregated into the ops view a 100 TB run monitors —
    per (source, error_kind) counts, error_kind = the exception class
    prefix of the error column. The malformed corpus slice (%97) is the
    planted failure population (strict-UTF-8 decode errors). Partial
    counts pre-combine per batch; the exchange carries (source, kind,
    n)."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False)

    def err_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = batch.select(["url", "error"]).to_pandas()
        df = df[df["error"] != ""]
        df["source"] = df["url"].str.split("/").str[2]
        df["error_kind"] = df["error"].str.split(":").str[0]
        g = (df.groupby(["source", "error_kind"], as_index=False).size()
             .rename(columns={"size": "n"}))
        return pa.Table.from_pandas(g, preserve_index=False)

    return (ds.map_batches(extract_batch, batch_format="pyarrow",
                           batch_size=256)
            .map_batches(err_partial, batch_format="pyarrow")
            .groupby(["source", "error_kind"])
            .aggregate(Sum("n", alias_name="n_errors")))


def _q_curation_hostaware(sf_dir: str):
    """End-to-end host-aware curation chain composing the round-2 web
    ops as ONE streaming Dataset: extract → latest-capture dedup →
    per-host template-line strip → per-domain cap (5 longest cleaned
    docs per host) → deterministic Knuth-hash split. Exchanges: the
    dedup sort, the 16-byte template-count shuffles, and one key-hash
    top-k exchange — text crosses only the dedup exchange."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.aggregates import grouped_topk
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch
    from documentai_ray.stages.lines import strip_host_templates

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))
    stripped = strip_host_templates(ds.select_columns(["url", "text"]),
                                    min_pages=5, share_num=1, share_den=4)

    M, MOD = 2654435761, 1 << 32

    def enrich(batch: pa.Table) -> pa.Table:
        import numpy as np
        urls = batch.column("url").to_pylist()
        texts = batch.column("text_clean").to_pylist()
        ids = np.array([int(u.rsplit("/", 1)[1]) for u in urls], np.int64)
        h = (ids.astype(np.uint64) * np.uint64(M)) % np.uint64(MOD)
        frac = h.astype(np.float64) / float(MOD)
        split = np.where(frac < 0.8, "train", np.where(frac < 0.9, "val",
                                                       "test"))
        return pa.table({
            "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
            "url": batch.column("url"),
            "n_chars_clean": pa.array([len(t) for t in texts], pa.int64()),
            "split": pa.array(split.tolist(), pa.string()),
        })

    enriched = stripped.map_batches(enrich, batch_format="pyarrow")
    return grouped_topk(enriched, key_col="host",
                        sort_cols=["n_chars_clean", "url"],
                        ascending=[False, True], k=5)


def _q_snapshot_diff(sf_dir: str):
    """Crawl-snapshot diff (the recrawl bookkeeping pass): FULL OUTER
    join of the old snapshot (docs with ``doc_id % 4 == 1``) against the
    new one (``doc_id % 3 != 0``; docs with ``doc_id % 5 == 0``
    re-crawled with edited content) → per-doc status
    added / removed / changed / unchanged. Both sides ship only
    (doc_id, md5-hash) through the one bucketed exchange — text never
    shuffles; the status CASE is a vectorized post-join map."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from documentai_ray.stages.joins import hash_join

    def snap(which: str):
        def f(batch: pa.Table) -> pa.Table:
            import numpy as np
            ids = np.asarray(batch.column("doc_id").to_pylist())
            texts = batch.column("text").to_pylist()
            if which == "old":
                keep = ids % 4 == 1
                h = [int.from_bytes(
                    hashlib.md5(t.encode()).digest()[:8], "little",
                    signed=True) for t, k in zip(texts, keep) if k]
                return pa.table({"doc_id": pa.array(ids[keep], pa.int64()),
                                 "h_old": pa.array(h, pa.int64())})
            keep = ids % 3 != 0
            h = [int.from_bytes(
                hashlib.md5((t + " v2" if i % 5 == 0 else t).encode())
                .digest()[:8], "little", signed=True)
                for i, t, k in zip(ids.tolist(), texts, keep) if k]
            return pa.table({"doc_id": pa.array(ids[keep], pa.int64()),
                             "h_new": pa.array(h, pa.int64())})
        return f

    read = lambda: ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                         columns=["doc_id", "text"])
    old = read().map_batches(snap("old"), batch_format="pyarrow")
    new = read().map_batches(snap("new"), batch_format="pyarrow")
    j = hash_join(old, new, on="doc_id", how="outer", num_partitions=32)

    def status(batch: pa.Table) -> pa.Table:
        ho, hn = batch.column("h_old"), batch.column("h_new")
        st = pc.if_else(
            pc.is_null(ho), pa.scalar("added"),
            pc.if_else(pc.is_null(hn), pa.scalar("removed"),
                       pc.if_else(pc.equal(ho, hn), pa.scalar("unchanged"),
                                  pa.scalar("changed"))))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "status": st})

    return j.map_batches(status, batch_format="pyarrow")


def _q_host_cap(sf_dir: str):
    """Per-domain document cap (RefinedWeb-style domain-diversity
    curation: no host may contribute more than K docs): keep the 5
    longest extracted docs per host, ties broken by url. Runs on the
    generic ``grouped_topk`` — map-side partial top-k per host, one
    bounded key-hash exchange, never a global sort; the heavy host's 33%
    share reduces to the same 5 rows as any other host."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.aggregates import grouped_topk
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    def host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table({
            "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
            "url": batch.column("url"),
            "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
        })

    ds = ds.map_batches(host, batch_format="pyarrow")
    return grouped_topk(ds, key_col="host", sort_cols=["n_chars", "url"],
                        ascending=[False, True], k=5)


def _q_outlink_count(sf_dir: str):
    """Outlink extraction (``<a href>`` parse + urljoin resolution,
    http(s) only) over the pages corpus → per-page link counts. The
    oracle is the template closed form: article/report pages carry
    nav(3)+aside(2)+footer(3)=8 links, link farms 3+12+3=18, PO/invoice/
    LC 6, blank 0 (no row), malformed pages decode-fail (no row). The
    flat-map edge stream is the input the host link graph / pagerank
    stage consumes at crawl scale."""
    import ray.data
    from ray.data.aggregate import Count

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import outlinks_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    edges = ds.select_columns(["url", "html"]).map_batches(
        outlinks_batch, batch_format="pyarrow", batch_size=256)
    return edges.groupby("url").aggregate(Count(alias_name="n_links"))


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means (k=4, 2 iterations) over the embeddings
    table — the canonical iterative algorithm: each iteration is one
    streaming pass emitting k partial (sum, count) rows per batch; only
    the k×(d+1) centroid state ever returns to the driver. Init = vectors
    of the 4 smallest ids (deterministic; at 10¹² rows you'd init from a
    pushdown-sampled shard instead of sort+limit). The oracle unrolls both
    iterations in SQL with list_distance; assignments are integers, so
    the ulp-level float drift between partial-sum orders never reaches
    the compared columns (clusters are separated by construction)."""
    import ray.data

    from documentai_ray.stages.similarity import kmeans_assign, kmeans_fit

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    C = kmeans_fit(ds, k=4, iters=2)
    return kmeans_assign(ds, C)


def _q_video_frames(sf_dir: str):
    """REAL video path: MPNG container (length-prefixed minipng PNG
    frames, functions/minivideo.py) with deterministic constant-gray
    frames g=(doc_id·7+f·13)%256; every 2nd frame is sampled and DECODED
    (skipped frames are hopped over, never decoded), brightness as exact
    integer ppm — closed-form construction oracle, the video analog of
    audio_frames."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minivideo import encode_frames
    from documentai_ray.stages.multimodal import VideoFrameSampleStage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        payloads = []
        for did in batch.column("doc_id").to_pylist():
            frames = [np.full((16, 16), (did * 7 + f * 13) % 256, np.uint8)
                      for f in range(4 + did % 5)]
            payloads.append(encode_frames(frames))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "payload": pa.array(payloads, pa.large_binary())})

    ds = ds.map_batches(gen, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(VideoFrameSampleStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4),
                        fn_constructor_kwargs={"step": 2})
    return ds


def _q_kmv_distinct(sf_dir: str):
    """KMV distinct-count sketch: corpus-wide distinct 3-shingle estimate
    from the k=128 smallest md5-LE64 hashes — each batch ships ≤128
    hashes, the estimator is pure integer math, and the oracle recomputes
    the identical sketch in HUGEINT SQL (exact below k, (k-1)·2⁶⁴//h_k
    above)."""
    import ray.data

    from documentai_ray.stages.sketches import kmv_distinct_shingles

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return kmv_distinct_shingles(ds, k=128)


def _q_hll_distinct(sf_dir: str):
    """HyperLogLog distinct-count sketch over the same corpus-wide
    3-shingle stream as kmv_distinct: per-batch register arrays merged by
    a 1024-group max — register state is fixed-size no matter how much
    data streams in, the scale advantage over KMV. Bit-exact oracle: the
    harmonic sum is the integer Σ 2^(64-M_j) and the raw estimator is one
    HUGEINT division (alpha in ppm shared from sketches.HLL_ALPHA_PPM);
    the ln()-based small-range correction deliberately stays out of the
    oracle surface (documented in hll_estimate_raw)."""
    import ray.data

    from documentai_ray.stages.sketches import hll_distinct_shingles

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return hll_distinct_shingles(ds)


def _q_p95_quantity(sf_dir: str):
    """Exact p95 per group via the bounded integer histogram (the
    grouped_median generalization): shuffle carries keys × distinct
    values, never rows; quantile = smallest value whose cumulative count
    reaches ceil(0.95·n) — a closed form the SQL window mirror hits
    exactly (no interpolation)."""
    import ray.data

    from documentai_ray.stages.aggregates import grouped_quantile_int

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"])
    return grouped_quantile_int(ds, key_cols=["l_returnflag", "l_linestatus"],
                                val_col="l_quantity", q=0.95,
                                out_col="p95_qty")


def _q_users_per_event(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type: batch-local pair dedup
    → distributed pair-distinct → per-key count (both exchanges carry
    only the (type, user) projection)."""
    import ray.data

    from documentai_ray.stages.aggregates import grouped_count_distinct

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    return grouped_count_distinct(ds, key_col="event_type",
                                  val_col="user_id")


def _q_events_rate_windows(sf_dir: str):
    """Range join (the join type Ray Data lacks natively): events ×
    overlapping 60-min rate windows starting every 45 min — each event
    matches 1-2 windows. The interval side is broadcast-small; candidates
    come from two vectorized searchsorted calls bounded by the max
    interval length (stages/joins.py::interval_join)."""
    import pandas as pd
    import ray.data

    from documentai_ray.stages.joins import interval_join

    base = pd.Timestamp("2024-01-01")
    k = pd.RangeIndex(960)
    iv = pd.DataFrame({
        "interval_id": k.astype("int64"),
        "start": base + pd.to_timedelta(k * 45, unit="m"),
        "end": base + pd.to_timedelta(k * 45 + 60, unit="m"),
        "rate_class": (k % 3).astype("int64"),
    })
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts"])
    out = interval_join(ds, iv, ts_col="ts", carry_cols=["rate_class"])
    return out.select_columns(["event_id", "interval_id", "rate_class"])


def _q_images_to_pdf(sf_dir: str):
    """REAL images→PDF sink (K2): per doc, 1+doc_id%3 constant-gray PNG
    pages → minipng decode → a genuine PDF 1.4 (real xref/XObject byte
    layout, functions/pdfwrite.py). ``pdf_valid`` re-parses every xref
    offset and round-trips the embedded pixels per row — the writer
    validates its own output inside the pipeline; page counts are the
    closed-form oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions import minipng
    from documentai_ray.functions.pdfwrite import validate
    from documentai_ray.stages.multimodal import ImagesToPdfStage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        pages = []
        for did in batch.column("doc_id").to_pylist():
            pages.append([minipng.encode_gray(
                np.full((12, 16), (did + 31 * p) % 256, np.uint8))
                for p in range(1 + did % 3)])
        return pa.table({"doc_id": batch.column("doc_id"),
                         "pages": pa.array(pages,
                                           pa.list_(pa.large_binary()))})

    ds = ds.map_batches(gen, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(ImagesToPdfStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))

    def check(batch: pa.Table) -> pa.Table:
        ok = []
        for pdf in batch.column("pdf").to_pylist():
            try:
                validate(pdf)
                ok.append(True)
            except ValueError:
                ok.append(False)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_pages": batch.column("n_pages"),
                         "pdf_valid": pa.array(ok, pa.bool_())})

    return ds.map_batches(check, batch_format="pyarrow")


def _q_base64_pages(sf_dir: str):
    """K5 base64 emitter: binary payloads (here the utf-8 text bytes, so
    the oracle can rebuild them) → standard-alphabet base64 column,
    mirrored bit-exactly by DuckDB to_base64(encode(text))."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.multimodal import base64_emit_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def to_payload(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "payload": pa.array([(t or "").encode("utf-8")
                                 for t in batch.column("text").to_pylist()],
                                pa.large_binary())})

    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    ds = ds.map_batches(base64_emit_batch, batch_format="pyarrow",
                        batch_size=512)
    return ds.select_columns(["doc_id", "payload_b64"])


def _q_rasterize_pages(sf_dir: str):
    """REAL S3 (pdf2image) analog: MINIPDF pages render to letter-size
    grayscale pixels (every span bbox an ink rectangle), first page only.
    Span boxes are disjoint 6·len×10 rectangles by construction, so
    ink_px has the closed form 60·Σ len(word) over the first page's ≤96
    words — the oracle; error payloads (doc_id%97) emit zeroed dims."""
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.multimodal import RasterizeStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))
    return ds.select_columns(["url", "ink_px", "raster_w", "raster_h"])


def _q_urgent_revenue(sf_dir: str):
    """Bloom-prefiltered join: lineitem is pre-filtered against a
    distributed bloom bitmap of URGENT orderkeys BEFORE the all-to-all
    join exchange (the classic shuffle-volume reducer — the fact side
    shrinks to matches + ~1% false positives, and the exact hash_join
    removes the false positives, so the result is exact regardless of
    filter error). Bitmap build is a batch-bitmap OR (sketch-sized state
    only); output matches the plain-join oracle bit-for-bit."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count, Sum

    from documentai_ray.stages.joins import (bloom_prefilter, build_bloom,
                                             hash_join)

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_orderpriority"])

    def urgent(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.equal(batch.column("o_orderpriority"), "1-URGENT"))
        return pa.table({"orderkey": batch.column("o_orderkey"),
                         "o_orderpriority": batch.column("o_orderpriority")})

    orders = orders.map_batches(urgent, batch_format="pyarrow")
    bloom = build_bloom(orders.select_columns(["orderkey"]),
                        key_col="orderkey", m_bits=1 << 20)

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def li_prep(batch: pa.Table) -> pa.Table:
        price_c = np.rint(batch.column("l_extendedprice").to_numpy() * 100).astype("int64")
        disc_c = np.rint(batch.column("l_discount").to_numpy() * 100).astype("int64")
        return pa.table({"orderkey": batch.column("l_orderkey"),
                         "rev_c2": pa.array(price_c * (100 - disc_c), pa.int64())})

    li = bloom_prefilter(li.map_batches(li_prep, batch_format="pyarrow"),
                         bloom, key_col="orderkey")
    joined = hash_join(li, orders, on="orderkey")
    agg = (
        joined.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_items"),
                   Sum("rev_c2", alias_name="_rev_c2"))
        .to_pandas()
    )
    agg["revenue"] = agg["_rev_c2"] / 10000.0  # exact integer-cents sum
    return agg[["o_orderpriority", "n_items", "revenue"]]


def _q_gopher_quality(sf_dir: str):
    """The non-repetition half of the Gopher quality rules (Rae et al.
    2021 Table A1): word-count bounds, mean word length in [3,10], symbol
    ratio ≤ 0.1, bullet-line ratio ≤ 0.9 — all ratios integer ppm so the
    SQL mirror is bit-exact. Runs over the extracted pages corpus."""
    from documentai_ray.stages.curation import gopher_quality_batch

    ds = _extracted_pages_with_doc_id(sf_dir)
    return ds.map_batches(gopher_quality_batch, batch_format="pyarrow",
                          batch_size=256).select_columns(
        ["url", "n_words", "mean_word_len_ppm", "symbol_ppm",
         "bullet_ppm", "gq_keep"])


def _q_repeated_passages(sf_dir: str):
    """Repeated-passage detection (the k-token-granular analog of Lee et
    al. 2022 suffix-array substring dedup): every maximal token span
    covered by 8-gram shingles occurring ≥2 times corpus-wide, marked in
    every doc that contains it. Three key-projected exchanges (explode →
    dup-set count → semi join), islands merged per doc bucket; grouping by
    64-bit shingle hash ≡ grouping by shingle string modulo ~2⁻⁶⁴
    collisions (the SQL oracle groups by the string)."""
    import ray.data

    from documentai_ray.stages.dedup import repeated_spans

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return repeated_spans(ds, k=8, num_partitions=16)


def _q_dedup_passages(sf_dir: str):
    """Passage-removal half of substring dedup (Lee et al. 2022): cut
    every span found by repeated_passages out of every doc (wholesale
    removal policy), rebuilding token streams in a doc-bucketed pass;
    unchanged docs pass through with 0 removed."""
    import ray.data

    from documentai_ray.stages.dedup import remove_repeated_spans, repeated_spans

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    spans = repeated_spans(ds, k=8, num_partitions=16)
    return remove_repeated_spans(ds, spans, num_partitions=16)


def _q_json_props(sf_dir: str):
    """Semi-structured column handling: events.props (JSON string) parsed
    ONCE into a typed int64 column at the pipeline edge, then plain
    columnar aggregation per event type — mirrored by DuckDB
    json_extract."""
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    from documentai_ray.stages.jsoncol import parse_json_column

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "props"])
    ds = parse_json_column(ds, col="props", fields={"k": "int64"})
    return (ds.groupby("event_type")
            .aggregate(Count(alias_name="n"),
                       Sum("k", alias_name="sum_k"),
                       Max("k", alias_name="max_k")))


def _q_customer_running(sf_dir: str):
    """Window functions (row_number + running sum) — the per-key ordered
    state Ray Data lacks natively, as a bucketed vectorized pass: every
    customer's order sequence and cumulative spend in exact integer
    cents."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.windows import running_per_key

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("o_totalprice").to_numpy() * 100).astype("int64")
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "o_custkey": batch.column("o_custkey"),
                         "o_orderdate": batch.column("o_orderdate"),
                         "cents": pa.array(cents, pa.int64())})

    out = running_per_key(ds.map_batches(prep, batch_format="pyarrow"),
                          key_col="o_custkey",
                          order_cols=["o_orderdate", "o_orderkey"],
                          cum_col="cents", num_partitions=16,
                          out_col="run_cents")
    return out.select_columns(["o_orderkey", "o_custkey", "seq", "run_cents"])


def _q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling: exactly 5 docs per source,
    chosen as the 5 smallest multiplicative-hash values (grouped_topk
    composition — map-side partial top-k, so only ≤5 rows per source per
    block reach the shuffle). Parallelism-independent; SQL mirrors the
    hash in integer math."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import grouped_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])

    def h(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        hv = (ids * 2654435761 + 12345) % (1 << 32)
        return batch.append_column("h", pa.array(hv, pa.int64()))

    ds = ds.map_batches(h, batch_format="pyarrow")
    return grouped_topk(ds, key_col="source", sort_cols=["h", "doc_id"],
                        ascending=[True, True], k=5, num_partitions=16)


def _q_events_pivot(sf_dir: str):
    """Pivot (wide aggregation): hour-of-day × event-type counts as
    columns. Map-side crosstab partials collapse each block to ≤24 rows
    before the shuffle; the final groupby sums per-type columns."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.windows import EVENT_TYPES

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["hour"] = df["ts"].dt.hour.astype("int64")
        ct = pd.crosstab(df["hour"], df["event_type"])
        ct = ct.reindex(columns=EVENT_TYPES, fill_value=0).reset_index()
        cols = {"hour": pa.array(ct["hour"].astype("int64"), pa.int64())}
        for t in EVENT_TYPES:
            cols[f"n_{t}"] = pa.array(ct[t].astype("int64"), pa.int64())
        return pa.table(cols)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("hour")
            .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}")
                         for t in EVENT_TYPES]))


def _q_category_split_pdfs(sf_dir: str):
    """K1 REAL: the reference's category-split writer — pages grouped by
    the A4 segmentation (consecutive same-category, cap 2, purchase_order
    always separate) and each group written as a GENUINE PDF (pdfwrite,
    one rasterized page per group page), validated in-row by xref/pixel
    round-trip. Output: one row per emitted PDF."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfwrite import images_to_pdf, validate
    from documentai_ray.stages.preprocess import group_pages

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def split(batch: pa.Table) -> pa.Table:
        d_out, g_out, c_out, n_out, ok_out = [], [], [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            n = 3 + doc_id % 6
            cats = [_GROUP_CATS[((doc_id + i) // 3) % 3] for i in range(n)]
            gids = group_pages(cats, max_pages_per_group=2,
                               always_separate=("purchase_order",))
            by_group: dict[int, list[int]] = {}
            for i, g in enumerate(gids):
                by_group.setdefault(g, []).append(i)
            for g, pages in sorted(by_group.items()):
                imgs = [np.full((12, 16), (doc_id + p * 17) % 256, np.uint8)
                        for p in pages]
                pdf = images_to_pdf(imgs)
                try:
                    ok = len(validate(pdf)) == len(pages)
                except ValueError:
                    ok = False
                d_out.append(doc_id)
                g_out.append(g)
                c_out.append(cats[pages[0]])
                n_out.append(len(pages))
                ok_out.append(ok)
        return pa.table({"doc_id": pa.array(d_out, pa.int64()),
                         "group_id": pa.array(g_out, pa.int64()),
                         "category": pa.array(c_out, pa.string()),
                         "n_pages": pa.array(n_out, pa.int64()),
                         "pdf_valid": pa.array(ok_out, pa.bool_())})

    return ds.map_batches(split, batch_format="pyarrow", batch_size=256)


def _q_bigram_lm(sf_dir: str):
    """CCNet-style LM quality scoring with a corpus-fit bigram model: the
    count fit is one distributed combiner pass, the vocabulary-sized
    tables broadcast once, and the per-doc score is mean conditional
    bigram probability in integer ppm (every division floors — bit-exact
    oracle, no float log)."""
    import ray
    import ray.data

    from documentai_ray.stages.textstats import (BigramScoreStage,
                                                 fit_bigram_counts)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    counts = fit_bigram_counts(ds)
    ref = ray.put(counts)
    out = ds.map_batches(BigramScoreStage, batch_format="pyarrow",
                         batch_size=512, concurrency=(1, 4),
                         fn_constructor_kwargs={"counts_ref": ref})
    return out.select_columns(["doc_id", "lm_score_ppm"])


def _q_pagerank(sf_dir: str):
    """Distributed PageRank (2 damped iterations) over the deterministic
    3-out link graph on doc ids — the join-per-iteration graph shape:
    edges ⋈ ranks, per-target contribution sum, left-join update (nodes
    without in-edges fall to the base term). Integer-ppm arithmetic
    throughout, so the unrolled SQL oracle is bit-exact."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import pagerank_int

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src = list(ids) * 3
        dst = (list((ids * 7 + 1) % n) + list((ids * 13 + 2) % n)
               + list((ids * 31 + 3) % n))
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id").cast(pa.int64())})

    e = docs.map_batches(edges, batch_format="pyarrow")
    nd = docs.map_batches(nodes, batch_format="pyarrow")
    return pagerank_int(e, nd, iters=2, out_deg=3, num_partitions=16)


def _q_pagerank_irregular(sf_dir: str):
    """PageRank over an IRREGULAR out-degree graph (1–3 out-edges per
    node, degree = 1 + doc_id % 3): exercises pagerank_int's
    degree-table path — out-degrees computed once (src-count partials →
    one exchange bounded by distinct src nodes), joined into the edge
    table ONCE before the loop and materialized, contribution =
    rank // deg per edge. Every node keeps ≥ 1 out-edge so no dangling
    mass; integer-ppm throughout so the unrolled oracle is bit-exact."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import pagerank_int

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src, dst = [ids], [(ids * 7 + 1) % n]
        m1 = ids % 3 >= 1
        src.append(ids[m1]); dst.append((ids[m1] * 13 + 2) % n)
        m2 = ids % 3 == 2
        src.append(ids[m2]); dst.append((ids[m2] * 31 + 3) % n)
        return pa.table({
            "src": pa.array(np.concatenate(src).astype("int64")),
            "dst": pa.array(np.concatenate(dst).astype("int64"))})

    def nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id").cast(pa.int64())})

    e = docs.map_batches(edges, batch_format="pyarrow")
    nd = docs.map_batches(nodes, batch_format="pyarrow")
    return pagerank_int(e, nd, iters=2, out_deg=None, num_partitions=16)


def _q_windowed_paths(sf_dir: str):
    """Time-bounded path counting (``windows.windowed_path_counts``):
    per user, distinct view→click→purchase paths where each step
    follows within 600 s (strictly later second) — the attribution
    counter unbounded subsequence counting overstates when old context
    should expire. Each DP level's windowed per-key prefix sum is one
    global composite-key searchsorted + cumsum difference (no per-key
    loop); SQL mirror is the stacked RANGE 600 PRECEDING AND 1
    PRECEDING frame."""
    import ray.data

    from documentai_ray.stages.windows import windowed_path_counts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"])
    return windowed_path_counts(
        ev, key_col="user_id", ts_col="ts", type_col="event_type",
        pattern=["view", "click", "purchase"], window_s=600)


def _q_user_features(sf_dir: str):
    """Feature-matrix builder (``windows.user_feature_matrix``): one
    wide row per user — event count, per-type counts over the closed
    vocabulary, first/last activity, active span, value sum in cents —
    the churn/propensity model input, built in ONE fused pass
    (per-batch pre-combined partials, a single key exchange; no
    per-feature passes or joins)."""
    import ray.data

    from documentai_ray.stages.windows import user_feature_matrix

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])
    return user_feature_matrix(ev)


def _q_user_ledger(sf_dir: str):
    """Floor-clamped running ledger (``windows.clamped_ledger_int``):
    per user, ordered by (ts, event_id), credits add round(value·100)
    cents and purchase/error debits subtract them but the balance never
    drops below zero — an overdraw is absorbed at the floor, so the
    forgiven deficit shifts every later balance (NOT a plain sum). The
    sequential recurrence b=max(0, b+d) clears to the Skorokhod
    reflection closed form b_n = A_n − min(0, min A_k): two vectorized
    grouped scans (cumsum + cummin), ONE co-locating exchange. SQL
    mirror stacks a running SUM and a running MIN window."""
    import ray.data

    from documentai_ray.stages.windows import clamped_ledger_int

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"])
    return clamped_ledger_int(ev)


def _q_cusum_alarms(sf_dir: str):
    """CUSUM changepoint monitor (``windows.cusum_alarms_int``): per
    event type, S = max(0, S + (hourly_count − k)) with self-calibrated
    target k = floor(mean)+1 and alarm line h = 3k — sustained upshifts
    ramp S past h while one-hour spikes decay, the drift detector plain
    threshold alerts miss. Same reflection closed form as user_ledger
    over the tiny pre-combined (hour, key) series; at sf0.1 some keys
    alarm and some never do, so the oracle discriminates."""
    import ray.data

    from documentai_ray.stages.windows import cusum_alarms_int

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return cusum_alarms_int(ev)


def _q_mann_kendall(sf_dir: str):
    """Mann–Kendall trend statistic (``windows.mann_kendall_int``):
    per event type, S = Σ sgn(x_j − x_i) over all time-ordered hourly
    pairs — monotone-drift score immune to outlier magnitude, where a
    least-squares slope is dominated by one spike. Completes the trend
    family (trend_flips = thrash, cusum_alarms = level shifts). One
    pre-combined hourly exchange; the bounded-series pair count is a
    chunked (K, T, T) broadcast; SQL mirror is the within-key
    self-join on a.w < b.w."""
    import ray.data

    from documentai_ray.stages.windows import mann_kendall_int

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return mann_kendall_int(ev)


def _q_lag_coactivity(sf_dir: str):
    """Lagged co-activity (``windows.lag_coactivity_int``): for every
    ordered event-type pair, the integer cross-correlation dot
    Σ n_a(t)·n_b(t+ℓ) over lags 0..6 h and its argmax (smallest lag
    wins ties) — "errors lead purchase drops by 2 hours" is a lag peak
    the same-hour join can't see. One hourly exchange; the sweep is
    L+1 K×K matmuls on the dense zero-filled series (missing hour IS
    zero events, so dense zeros are exact)."""
    import ray.data

    from documentai_ray.stages.windows import lag_coactivity_int

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return lag_coactivity_int(ev, max_lag_h=6)


def _q_vocab_growth(sf_dir: str):
    """Heaps'-law vocabulary growth (``textstats.vocab_growth``):
    distinct whitespace tokens within each doubling corpus prefix
    (doc_id < 2^k) — K nested COUNT DISTINCTs collapsed to ONE pass
    via first occurrences: vocab(k) = #{tokens with min(doc_id) <
    2^k} = a cumulative bit_length(min_id) histogram. Token→min-id
    exchange bounded by distinct tokens; only ≤64-row histograms
    reach the driver on both axes."""
    import ray.data

    from documentai_ray.stages.textstats import vocab_growth

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return vocab_growth(ds)


def _q_trend_flips(sf_dir: str):
    """Series volatility as direction-change counts
    (``windows.trend_flips``): per event type, how often the hourly
    volume series flips rise↔fall — the thrash statistic level-based
    anomaly flags miss; plateaus (zero diffs) neither continue nor
    break a trend. Bounded hourly exchange + tiny series scan; SQL
    double-lag mirror."""
    import ray.data

    from documentai_ray.stages.windows import trend_flips

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])
    return trend_flips(ev, ts_col="ts", key_col="event_type")


def _q_skew_histogram(sf_dir: str):
    """Group-size histogram over orders-per-customer
    (``aggregates.key_size_histogram``): the skew-diagnosis picture a
    shuffle planner reads before choosing partitioning. Two bounded
    exchanges — per-key counts pre-combined, then counts-of-counts."""
    import ray.data

    from documentai_ray.stages.aggregates import key_size_histogram

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey"])
    return key_size_histogram(orders, key_col="o_custkey")


def _q_gini_orders(sf_dir: str):
    """Order-volume concentration over customers
    (``aggregates.gini_concentration_int``): exact integer-ppm Gini of
    rows-per-key — the one-number skew summary (0 even, → 10⁶ one key
    owns all). Closed form Σ(2i−n−1)x_i over ascending sizes; ONE
    per-key count exchange + driver fold."""
    import ray.data

    from documentai_ray.stages.aggregates import gini_concentration_int

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey"])
    return gini_concentration_int(orders, key_col="o_custkey")


def _q_backtest_mae(sf_dir: str):
    """Seasonal-naive forecast backtest (``windows.seasonal_naive_mae``):
    MAE of predicting each event type's hourly volume with the same
    hour yesterday — the baseline every forecasting model must beat and
    the day-over-day predictability metric. Exact integer error sums,
    pairs only where both hours observed; the hourly aggregate rides
    ONE bounded exchange and the 24h-lag join runs over the tiny
    series table."""
    import ray.data

    from documentai_ray.stages.windows import seasonal_naive_mae

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])
    return seasonal_naive_mae(ev, ts_col="ts", key_col="event_type",
                              season_hours=24)


def _q_tvd_drift(sf_dir: str):
    """Per-source language-mix drift vs the corpus
    (``aggregates.tvd_drift_int``): total variation distance between
    each source's language distribution and the global one, exact
    integer ppm via cross-multiplication — the categorical sibling of
    ks_drift (KS needs an ordered domain; TVD doesn't), with absent
    categories contributing their full global mass (the zero-cell term
    skewed sources need). ONE exchange bounded by sources × langs."""
    import ray.data

    from documentai_ray.stages.aggregates import tvd_drift_int

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "lang"])
    return tvd_drift_int(docs, key_col="source", cat_col="lang")


def _q_readability(sf_dir: str):
    """Flesch reading-ease in integer ppm
    (``textstats.readability_batch``): sentence-length × syllable-
    weight score from regex run counts (words=[a-z]+ runs,
    sentences=[.!?]+ runs, syllables=[aeiouy]+ runs, clamped), each
    ratio floored at milli precision — completes the text-quality
    family (gopher gates junk, quality scores structure, this grades
    how hard fluent text reads). Pure per-row map, zero exchange."""
    import ray.data

    from documentai_ray.stages.textstats import readability_batch

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return docs.map_batches(readability_batch, batch_format="pyarrow")


def _q_clustering_coeff(sf_dir: str):
    """Global transitivity (``graph.clustering_coefficient``):
    3·triangles/wedges in exact ppm over the same deterministic web-ish
    link graph as triangle_count — the one-number clumpiness score (a
    spam link-farm shows as a transitivity spike). Wedges fold as a
    distributed Σ C(d,2) over the degree exchange; only scalars reach
    the driver."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import clustering_coefficient

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src = list(ids) * 3
        dst = (list((ids + 1) % n) + list((ids + 2) % n)
               + list((ids * 7 + 1) % n))
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return clustering_coefficient(
        docs.map_batches(edges, batch_format="pyarrow"),
        num_partitions=16)


def _q_unique_prefix(sf_dir: str):
    """Shortest distinguishing prefix per distinct part name
    (``indexing.shortest_unique_prefix``): the prefix-index sizing
    primitive — answer depends only on lexicographic neighbours, made
    distributed-exact WITHOUT a global sort by first-char bucketing
    (cross-bucket LCP is exactly 0); in-bucket neighbour LCPs are one
    padded char-matrix cumprod pass. Strict-prefix strings cap at
    their own length."""
    import ray.data

    from documentai_ray.stages.indexing import shortest_unique_prefix

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_name"])
    return shortest_unique_prefix(part, col="p_name")


def _q_soundex_blocking(sf_dir: str):
    """Phonetic blocking census (``fuzzy.soundex_blocking``): distinct
    part names grouped by simplified American Soundex (letter + 3
    class digits, runs collapsed, zeros dropped) — the sound-alike
    blocking key symspell's edit distance misses; counts size the
    candidate blocks before quadratic comparison. SQL mirror chains
    seven fixed-pattern regexp_replace calls because RE2 has no
    backreferences."""
    import ray.data

    from documentai_ray.stages.fuzzy import soundex_blocking

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_name"])
    return soundex_blocking(part, col="p_name")


def _q_zonemap_prune(sf_dir: str):
    """Zone-map pruning audit (``indexing.zonemap_prune``): with
    64-row buckets on doc_id and the band 1500 ≤ n_chars ≤ 3000, how
    many buckets a min/max zone map skips and what the surviving scan
    wastes — measures whether re-sorting on n_chars would pay
    (zorder_keys plans layouts; this scores the current one). One
    bucket-bounded exchange, scalars to the driver."""
    import ray.data

    from documentai_ray.stages.indexing import zonemap_prune

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])
    return zonemap_prune(docs, id_col="doc_id", val_col="n_chars",
                         bucket_size=64, lo=1500, hi=3000)


def _q_nest_tokens(sf_dir: str):
    """Explode→nest round trip (``schema.nest_list`` — the inverse of
    posexplode_tokens and the fourth reshaping surface): documents
    explode to (doc_id, pos, token) rows, then nest_list gathers each
    doc's tokens back into ONE ordered list cell; the query certifies
    the round trip by emitting the re-joined normalized text, which
    must equal the whitespace-normalized original. ONE co-locating
    exchange, per-partition vectorized groupby-agg(list) — never one
    map_groups per key."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.schema import nest_list, posexplode_tokens

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    toks = posexplode_tokens(docs, id_cols=["doc_id"], text_col="text")
    nested = nest_list(toks, key_cols=["doc_id"], order_cols=["pos"],
                       val_col="token", out_col="tokens")

    def finish(batch: pa.Table) -> pa.Table:
        toks_col = batch.column("tokens").to_pylist()
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array([len(t) for t in toks_col], pa.int64()),
            "text_norm": pa.array([" ".join(t) for t in toks_col],
                                  pa.string())})

    return nested.map_batches(finish, batch_format="pyarrow")


def _q_longest_streak(sf_dir: str):
    """Longest same-type event streak per user
    (``windows.longest_streak``): value-change islands — the
    engagement-streak / repeated-failure-run metric a plain groupby
    can't see; run ids are cumsums of change-points, vectorized across
    all keys of a partition. ONE 4-column row exchange; (ts, event_id)
    total order mirrors the SQL row_number-difference trick
    bit-exactly."""
    import ray.data

    from documentai_ray.stages.windows import longest_streak

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    return longest_streak(ev, key_col="user_id", ts_col="ts",
                          tie_col="event_id", type_col="event_type")


def _q_supplier_percentile(sf_dir: str):
    """Cross-table empirical CDF scoring
    (``aggregates.crosstable_percentile_int``): each supplier's balance
    placed within the CUSTOMER balance distribution in exact integer
    ppm — the benchmark-against-reference-population op. ONE histogram
    exchange over the reference, driver fold broadcast, probe scored by
    vectorized searchsorted; probe rows never shuffle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import crosstable_percentile_int

    def cents(col_in, col_key, key_name):
        def f(batch: pa.Table) -> pa.Table:
            c = np.rint(batch.column(col_in).to_numpy() * 100
                        ).astype("int64")
            return pa.table({key_name: batch.column(col_key),
                             "bal_c": pa.array(c, pa.int64())})
        return f

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal"],
    ).map_batches(cents("c_acctbal", "c_custkey", "c_custkey"),
                  batch_format="pyarrow")
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_acctbal"],
    ).map_batches(cents("s_acctbal", "s_suppkey", "s_suppkey"),
                  batch_format="pyarrow")
    return crosstable_percentile_int(cust, supp, ref_val_col="bal_c",
                                     probe_val_col="bal_c")


def _q_delta_varint(sf_dir: str):
    """Storage-layout advisor (``schema.delta_varint_size``): exact
    byte cost of order dates under sorted delta + LEB128 varint vs raw
    int64 — 150k rows over 2.4k distinct days delta-encode to ~1
    byte/row (duplicates are 1-byte zero deltas, each distinct day one
    real delta), the measurement behind choosing a sort key. ONE
    histogram exchange bounded by distinct values, driver scan over
    the distinct axis only."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.schema import delta_varint_size

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("o_orderdate").cast(pa.int64()).to_numpy()
        days = us // 86_400_000_000
        return pa.table({"day": pa.array(days, pa.int64())})

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderdate"]
                                   ).map_batches(prep,
                                                 batch_format="pyarrow")
    return delta_varint_size(orders, val_col="day")


def _q_impute_mode(sf_dir: str):
    """Group-mode imputation (``dq.impute_group_mode``): customers
    whose segment is 'missing' (deterministically: custkey % 20 == 0)
    get their NATION's modal segment (smallest-value tie-break from
    grouped_mode) — the standard categorical repair after a dq_audit
    flags NULLs; group mode beats global mode exactly when the column
    correlates with the grouping. Mode table rides one bounded
    exchange; data rows never shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from documentai_ray.stages.dq import impute_group_mode

    def knock_out(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy()
        seg = batch.column("c_mktsegment").to_pylist()
        seg = [None if k % 20 == 0 else s for k, s in zip(ck, seg)]
        return pa.table({"c_custkey": batch.column("c_custkey"),
                         "c_nationkey": batch.column("c_nationkey"),
                         "seg": pa.array(seg, pa.string())})

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_mktsegment"],
    ).map_batches(knock_out, batch_format="pyarrow")
    return impute_group_mode(cust, key_col="c_nationkey", val_col="seg")


def _q_rrf_fusion(sf_dir: str):
    """Reciprocal Rank Fusion (``indexing.rrf_fuse``): parts ranked by
    retail price AND by size, fused as Σ 10⁹ // (60 + rank) — the
    standard incomparable-scores ranking combiner (BM25 + cosine in a
    search stack), kept integer-exact by flooring each term so near-tie
    fused orders can't flip across libms. One bounded histogram
    exchange per ranking + broadcast min-rank maps; global top-20 as a
    per-batch partial top-N aggregation."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.indexing import rrf_fuse

    def prep(batch: pa.Table) -> pa.Table:
        pc_ = np.rint(batch.column("p_retailprice").to_numpy() * 100
                      ).astype("int64")
        return pa.table({
            "p_partkey": batch.column("p_partkey"),
            "price_c": pa.array(pc_, pa.int64()),
            "size_v": batch.column("p_size").cast(pa.int64())})

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_retailprice", "p_size"],
    ).map_batches(prep, batch_format="pyarrow")
    return rrf_fuse(parts, id_col="p_partkey",
                    score_cols=["price_c", "size_v"], k=60, top_n=20)


def _q_quantile_normalize(sf_dir: str):
    """Cross-source quantile normalization of document lengths
    (``aggregates.quantile_normalize_int``): each doc's n_chars is
    replaced by the GLOBAL length at the same within-source quantile —
    the calibration step before mixing per-source quality scores whose
    raw scales differ. Rank-exact integer mapping (smallest global w
    with cum_g(w)·n_s ≥ cum_s(v)·n_g); ONE (source, value) histogram
    exchange serves both CDFs; rows never shuffle."""
    import ray.data

    from documentai_ray.stages.aggregates import quantile_normalize_int

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "n_chars"])
    out = quantile_normalize_int(docs, key_col="source",
                                 val_col="n_chars")
    return out.select_columns(["doc_id", "source", "n_chars", "norm_v"])


def _q_subsequence_counts(sf_dir: str):
    """Order-preserving subsequence motif counting
    (``windows.subsequence_counts``): per user, how many distinct
    index-increasing ways the event stream spells view→click→purchase
    — the path-multiplicity signal behind path-weighted attribution
    (funnels only answer "converted or not"). Linear DP vectorized
    across all keys of a partition (k levels of per-key exclusive
    cumsums, no per-key Python loop); ONE 4-column row exchange; the
    (ts, event_id) order is total so the nested-window SQL mirror is
    bit-exact."""
    import ray.data

    from documentai_ray.stages.windows import subsequence_counts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    return subsequence_counts(
        ev, key_col="user_id", ts_col="ts", tie_col="event_id",
        type_col="event_type",
        pattern=["view", "click", "purchase"])


def _q_coordinated_sample(sf_dir: str):
    """Coordinated sampling across tables
    (``partitioning.coordinated_sample``): orders AND lineitems each
    keep rows whose join key's md5 starts with '0'/'1'/'2' (≈18.75 %) —
    the SAME deterministic rule on the SAME key, so referential
    integrity survives: every sampled order keeps ALL its line items
    (independent per-table sampling would keep only p² of joinable
    pairs and break FK completeness). Revenue per priority over the
    coordinated slice: two ZERO-exchange filters, one partitioned
    hash_join, one 5-group aggregate."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    from documentai_ray.stages.joins import hash_join
    from documentai_ray.state.partitioning import coordinated_sample

    orders = coordinated_sample(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderpriority"]),
        key_col="o_orderkey")

    def prep_line(batch: pa.Table) -> pa.Table:
        rc = np.rint(batch.column("l_extendedprice").to_numpy() * 100
                     ).astype("int64")
        return pa.table({"o_orderkey": batch.column("l_orderkey"),
                         "rc": pa.array(rc, pa.int64())})

    line = coordinated_sample(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_extendedprice"]
                              ).map_batches(prep_line,
                                            batch_format="pyarrow"),
        key_col="o_orderkey")
    j = hash_join(line, orders, on="o_orderkey", num_partitions=32)
    return (j.groupby("o_orderpriority")
            .aggregate(Count(alias_name="n_items"),
                       Sum("rc", alias_name="rev_c")))


def _q_kcore_nodes(sf_dir: str):
    """k-core decomposition (``graph.kcore_nodes``): iterative peeling
    of degree-<k nodes until fixpoint — the dense-backbone screen one
    degree pass cannot compute because peeling CASCADES (removing a
    pendant drops its neighbor below k next round). Graph: per block of
    6 consecutive customer keys, a triangle (b0-b1-b2) with a pendant
    chain b2-b3-b4-b5 — the 2-core is exactly the triangles and the
    peel takes 3 cascading rounds by construction. Per round: one
    degree groupby + two key-projected semi hash_joins; the live node
    count is a monotone fixed-point witness (early exit)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import kcore_nodes

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey"])
    n_full = (cust.count() // 6) * 6

    def edges(batch: pa.Table) -> pa.Table:
        c = batch.column("c_custkey").to_numpy().astype("int64")
        c = c[c <= n_full]
        r = (c - 1) % 6
        src1 = c[r <= 4]
        src2 = c[r == 2]
        return pa.table({
            "src": pa.array(np.concatenate([src1, src2]), pa.int64()),
            "dst": pa.array(np.concatenate([src1 + 1, src2 - 2]),
                            pa.int64())})

    e = cust.map_batches(edges, batch_format="pyarrow")
    return kcore_nodes(e, k=2, rounds=6)


def _q_rendezvous_shards(sf_dir: str):
    """Rendezvous / highest-random-weight shard routing
    (``partitioning.rendezvous_assign``): every doc goes to the shard
    maximizing md5-LE64("{key}|{shard}") — the consistent-placement
    rule where adding a shard moves only ~1/(K+1) of keys and removing
    one moves only its own (mod-N would reshuffle everything). Pure
    per-batch map over K=5 hash columns, ZERO exchange; deterministic
    lexically-larger tie-break mirrored in the oracle's
    ORDER BY h DESC, shard DESC."""
    import ray.data

    from documentai_ray.state.partitioning import rendezvous_assign

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    return rendezvous_assign(
        docs, key_col="doc_id",
        shards=["shard-a", "shard-b", "shard-c", "shard-d", "shard-e"])


def _q_kwic_snippets(sf_dir: str):
    """KWIC concordance (``indexing.kwic_snippets``): every exact-token
    occurrence of 'merge' in the documents corpus becomes one
    (doc_id, pos, snippet) row with a ±3-token context window clamped
    at document edges — the search-result snippet surface. ZERO
    exchange; vectorized token scan, Python assembly only on the
    sparse hits."""
    import ray.data

    from documentai_ray.stages.indexing import kwic_snippets

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return kwic_snippets(docs, id_cols=["doc_id"], text_col="text",
                         keyword="merge", before=3, after=3)


def _q_skipgram_pairs(sf_dir: str):
    """word2vec-style windowed co-occurrence counts
    (``textstats.skipgram_pair_counts``): ordered (left, right) token
    pairs at distance ≤ 3 within a document, counted corpus-wide —
    per-batch fully vectorized shift-and-mask pairing pre-combined into
    (pair, n) partials, ONE exchange bounded by distinct pairs (never
    token count), Zipf tail pruned at n ≥ 3 post-exchange."""
    import ray.data

    from documentai_ray.stages.textstats import skipgram_pair_counts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["text"])
    return skipgram_pair_counts(docs, text_col="text", window=3,
                                min_count=3)


def _q_collocation_lift(sf_dir: str):
    """Collocation mining via integer-ppm lift (the log-free PMI,
    ``textstats.collocation_lift``): for adjacent bigrams with ≥ 5
    occurrences, ``lift_ppm = c_ab·T·10⁶ // (c_a·c_b)`` — how much more
    often the pair occurs than token independence predicts. Bigram
    counts ride the skipgram exchange (window=1); unigram counts are a
    vocab-bounded exchange broadcast via ray.put; arithmetic is Python
    bigint / HUGEINT so the SQL mirror is bit-exact."""
    import ray.data

    from documentai_ray.stages.textstats import collocation_lift

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["text"])
    return collocation_lift(docs, text_col="text", min_pair=5)


def _q_posexplode_tokens(sf_dir: str):
    """Positional token explode (``schema.posexplode_tokens`` — Spark's
    posexplode over the repo-standard whitespace tokenization): each
    document becomes one (doc_id, pos, token) row per token, pos
    1-based in document order — the layout positional n-gram,
    co-occurrence and index builds start from. Pure per-batch pandas
    explode + vectorized offset arithmetic, ZERO exchange."""
    import ray.data

    from documentai_ray.stages.schema import posexplode_tokens

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return posexplode_tokens(docs, id_cols=["doc_id"], text_col="text")


def _q_weighted_median(sf_dir: str):
    """Revenue-weighted median quantity per return flag
    (``aggregates.grouped_weighted_median_int``): the quantity at which
    half of each flag's extended-price revenue sits at or below — the
    distribution summary a plain median misstates whenever weight and
    value correlate. Lower-median rule (smallest v with 2·cumw ≥ W),
    integer-exact end to end (weights in cents); ONE exchange bounded
    by flags × 50 distinct quantities."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import grouped_weighted_median_int

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        q = np.rint(batch.column("l_quantity").to_numpy()).astype("int64")
        c = np.rint(batch.column("l_extendedprice").to_numpy()
                    * 100).astype("int64")
        return pa.table({"l_returnflag": batch.column("l_returnflag"),
                         "qty": pa.array(q), "cents": pa.array(c)})

    return grouped_weighted_median_int(
        li.map_batches(prep, batch_format="pyarrow"),
        key_col="l_returnflag", val_col="qty", weight_col="cents",
        out_col="wmedian_qty")


def _q_ntile_split(sf_dir: str):
    """Exact distributed NTILE(10) per language by document size — the
    quantile-bucketed split labeling (size-decile stratification) done
    with two bounded exchanges (histogram offsets + tie-group cumcount)
    instead of a global sort. Matches SQL NTILE semantics exactly,
    including the first n%k tiles getting the extra row."""
    import ray.data

    from documentai_ray.stages.aggregates import grouped_ntile

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])
    return grouped_ntile(ds, key_col="lang", val_col="n_chars",
                         tiebreak_col="doc_id", k=10,
                         num_partitions=16)


def _q_fuzzy_hosts(sf_dir: str):
    """Edit-distance fuzzy join: every doc's host string gets a planted
    single-character deletion (at position doc_id % len), then is snapped
    back to the canonical host vocabulary by minimum Levenshtein distance
    (tie → lexicographically smallest, drop beyond dist 2). Physical
    plan: distinct dirty-key projection → small vocabulary match →
    broadcast lookup (stages/fuzzy.py's documented contract). Oracle:
    DuckDB's levenshtein() with the identical argmin/tie-break window."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.fuzzy import fuzzy_match_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])
    sources = sorted(docs.unique("source"))
    canon = ["heavy.example.com"] + [f"{s}.example.com" for s in sources]

    def dirty(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        out = []
        for did, s in zip(ids, srcs):
            host = ("heavy.example.com" if did % 3 == 0
                    else f"{s}.example.com")
            p = did % len(host)
            out.append(host[:p] + host[p + 1:])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "dirty": pa.array(out, pa.string())})

    ds = docs.map_batches(dirty, batch_format="pyarrow")
    out = fuzzy_match_join(ds, col="dirty", canon=canon, max_dist=2,
                           matched_col="canon_host", num_partitions=8)
    return out.select_columns(["doc_id", "dirty", "canon_host", "dist"])


def _q_symspell_pairs(sf_dir: str):
    """Fully-distributed edit-distance ≤ 1 join via SymSpell deletion-
    neighborhood hashing — the scale path past fuzzy_hosts'
    distinct-set × vocabulary quadratic: every (dirty host, canonical
    host) pair within one edit, both sides distributed, no broadcast.
    Candidates = pairs sharing a deletion variant (complete for ed ≤ 1
    by the deletion-intersection property), verified with the exact DP.
    Same planted-deletion corpus as fuzzy_hosts, compared as DISTINCT
    value pairs."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.fuzzy import symspell_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def dirty(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        out = []
        for did, s in zip(ids, srcs):
            host = ("heavy.example.com" if did % 3 == 0
                    else f"{s}.example.com")
            p = did % len(host)
            out.append(host[:p] + host[p + 1:])
        return pa.table({"dirty": pa.array(out, pa.string())})

    def canon(batch: pa.Table) -> pa.Table:
        hosts = sorted({f"{s}.example.com"
                        for s in batch.column("source").to_pylist()}
                       | {"heavy.example.com"})
        return pa.table({"canon": pa.array(hosts, pa.string())})

    dirty_ds = docs.map_batches(dirty, batch_format="pyarrow")
    canon_ds = docs.map_batches(canon, batch_format="pyarrow")
    return symspell_join(dirty_ds, canon_ds, left_col="dirty",
                         right_col="canon", num_partitions=16)


def _q_triangle_count(sf_dir: str):
    """Per-apex triangle counting over a deterministic web-ish link graph
    (local band edges i→i+1, i→i+2 that close ~n triangles, plus a hash
    jump i→(7i+1) mod n): oriented wedge enumeration via edge self-join,
    closing-edge semi-join on the composite (b,c) key — each triangle
    counted once at its smallest node. The oracle builds the identical
    edge set in SQL and closes wedges with a 3-way self-join."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import triangle_counts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src = list(ids) * 3
        dst = (list((ids + 1) % n) + list((ids + 2) % n)
               + list((ids * 7 + 1) % n))
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return triangle_counts(docs.map_batches(edges, batch_format="pyarrow"),
                           num_partitions=16)


def _q_redirect_resolve(sf_dir: str):
    """HTTP-redirect chain canonicalization via pointer doubling: every
    url whose doc_id is not a multiple of 8 301-redirects to doc_id-1,
    multiples of 8 are terminal — chains up to 7 hops, so 3 doubling
    rounds (2³ ≥ 7) resolve every url to its final target in O(log L)
    self-joins instead of O(L) sequential hops. The closed form the
    oracle checks: final(i) = (i // 8) * 8."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import resolve_pointers

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])

    def ptrs(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        ptr = ids - (ids % 8 != 0)
        return pa.table({"node": pa.array(ids, pa.int64()),
                         "ptr": pa.array(ptr, pa.int64())})

    resolved = resolve_pointers(
        docs.map_batches(ptrs, batch_format="pyarrow"),
        iters=3, num_partitions=16)
    return resolved.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "final": b.column("ptr")}),
        batch_format="pyarrow")


def _q_khop_frontier(sf_dir: str):
    """k-hop BFS over the directed link graph (same deterministic edge
    synthesis as triangle_count: i→i+1, i→i+2, i→7i+1 mod n): min hop
    depth ≤ 3 from the doc_id ≡ 0 (mod 997) seed set — the
    crawl-frontier-expansion / blast-radius primitive (graph.bfs_khop:
    one key-projected hash_join + groupby-min per round).  Oracle:
    WITH RECURSIVE level-by-level expansion + final min."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import bfs_khop

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src = list(ids) * 3
        dst = (list((ids + 1) % n) + list((ids + 2) % n)
               + list((ids * 7 + 1) % n))
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def seeds(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return pa.table({"node": pa.array(ids[ids % 997 == 0], pa.int64())})

    return bfs_khop(docs.map_batches(edges, batch_format="pyarrow"),
                    docs.map_batches(seeds, batch_format="pyarrow"),
                    k=3, num_partitions=16)


def _q_sssp_weighted(sf_dir: str):
    """Bounded-round WEIGHTED shortest paths (Bellman-Ford, 3 rounds)
    over the same link graph as khop_frontier, with deterministic edge
    weights w = 1 + (src + dst) % 5 — min COST, not min hops: a 2-hop
    path can undercut a heavy direct edge, which the oracle's
    unrestricted ≤3-edge path expansion confirms. graph.sssp_bounded:
    one key-projected join + monotone groupby-min fold per round."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import sssp_bounded

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        import numpy as np
        ids = batch.column("doc_id").to_numpy()
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate([(ids + 1) % n, (ids + 2) % n,
                              (ids * 7 + 1) % n])
        w = 1 + (src + dst) % 5
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64()),
                         "w": pa.array(w, pa.int64())})

    def seeds(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return pa.table({"node": pa.array(ids[ids % 997 == 0], pa.int64())})

    return sssp_bounded(docs.map_batches(edges, batch_format="pyarrow"),
                        docs.map_batches(seeds, batch_format="pyarrow"),
                        rounds=3, num_partitions=16)


def _q_ocr_roundtrip(sf_dir: str):
    """REAL OCR path (M3): MINIPDF pages render with the 5×7 bitfont →
    PNG encode → PNG decode → matched-template recognition — two
    independent real computations whose composition must reproduce the
    first page's walk text BYTE-IDENTICALLY (error payloads → '').
    The oracle is the closed-form first-page layout text."""
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.multimodal import RasterizeStage
    from documentai_ray.stages.ocr import OcrStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4),
                        fn_constructor_kwargs={"emit_png": True,
                                               "glyphs": True})
    ds = ds.map_batches(OcrStage, batch_format="pyarrow", batch_size=32,
                        concurrency=(1, 4))
    return ds.select_columns(["url", "ocr_text"])


def _q_ocr_classify(sf_dir: str):
    """M11 OCR-path classification: the 4-technique vote runs over text
    recovered by the REAL OCR chain (bitfont raster → PNG → template
    match) instead of native extraction — the reference's scanned-page
    branch. Walk text is plain report prose, so the closed form is
    data_report 4/4 (unclassified for error pages); any OCR corruption
    that touched keywords would break the vote and fail the oracle."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.classify import classify_batch_task
    from documentai_ray.stages.multimodal import RasterizeStage
    from documentai_ray.stages.ocr import OcrStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4),
                        fn_constructor_kwargs={"emit_png": True,
                                               "glyphs": True})
    ds = ds.map_batches(OcrStage, batch_format="pyarrow", batch_size=32,
                        concurrency=(1, 4))

    def to_text(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch.column("url"),
                         "text": batch.column("ocr_text")})

    ds = ds.map_batches(to_text, batch_format="pyarrow")
    ds = ds.map_batches(classify_batch_task, batch_format="pyarrow",
                        batch_size=256)
    return ds.select_columns(["url", "category", "votes"])


def _q_office_extract(sf_dir: str):
    """S4/S5 driver-level exercise: real DOCX / XLSX payloads (stdlib
    zip+XML builders) flow through the extraction dispatch. Even docs are
    DOCX (1-3 paragraphs); odd docs are XLSX with the 100-row cap binding
    above 100 rows and a planted 1200-char row (doc_id%50==7) exercising
    the 1000-char cap — all closed-form."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.sources import office
    from documentai_ray.stages.extract import extract_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        payloads: list[bytes] = []
        for did in batch.column("doc_id").to_pylist():
            if did % 2 == 0:
                payloads.append(office.make_docx(
                    [f"Paragraph {j} of doc {did}"
                     for j in range(1 + did % 3)]))
            elif did % 50 == 7:
                payloads.append(office.make_xlsx([["x" * 1200]]))
            else:
                payloads.append(office.make_xlsx(
                    [[f"r{i}d{did % 10}"] for i in range(2 + did % 150)]))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "url": pa.array([f"u{d}" for d in
                                          batch.column("doc_id").to_pylist()],
                                         pa.string()),
                         "html": pa.array(payloads, pa.large_binary())})

    ds = ds.map_batches(gen, batch_format="pyarrow", batch_size=128)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=128)
    return ds.select_columns(["doc_id", "text", "payload_kind"])


def _q_generic_entities(sf_dir: str):
    """M20 generic extractor over PO pages: dates / currency amounts /
    number counts from the compiled regex battery — every value and count
    closed-form from the PO archetype construction (the planted
    technique-disagreement suffix adds words, never digits)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from documentai_ray.stages.entities import extract_generic

    ds = _extracted_pages_with_doc_id(sf_dir)

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keep = [i % 5 == 2 and i % 97 != 0 for i in ids]
        batch = batch.filter(pa.array(keep))
        fd, fa, nd, na, nn, ne, np_ = [], [], [], [], [], [], []
        for t in batch.column("text").to_pylist():
            g = extract_generic(t or "")
            fd.append(g["dates"][0] if g["dates"] else "")
            fa.append(g["amounts"][0] if g["amounts"] else "")
            nd.append(len(g["dates"]))
            na.append(len(g["amounts"]))
            nn.append(len(g["numbers"]))
            ne.append(len(g["emails"]))
            np_.append(len(g["phones"]))
        return pa.table({"url": batch.column("url"),
                         "first_date": pa.array(fd, pa.string()),
                         "first_amount": pa.array(fa, pa.string()),
                         "n_dates": pa.array(nd, pa.int64()),
                         "n_amounts": pa.array(na, pa.int64()),
                         "n_numbers": pa.array(nn, pa.int64()),
                         "n_emails": pa.array(ne, pa.int64()),
                         "n_phones": pa.array(np_, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=256)


def _q_layout_structure(sf_dir: str):
    """T3-analog layout analysis over PIXELS: first-page raster → line
    bands / word boxes / block grouping recovered from ink geometry alone
    (never the source layout tree). Closed form: m = min(n_words, 96)
    first-page words, ceil(m/8) lines, ceil(lines/3) blocks."""
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.multimodal import RasterizeStage
    from documentai_ray.stages.ocr import LayoutAnalysisStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4),
                        fn_constructor_kwargs={"emit_png": True,
                                               "glyphs": True})
    ds = ds.map_batches(LayoutAnalysisStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4))
    return ds.select_columns(["url", "n_blocks", "n_lines", "n_words"])


def _q_page_type_detect(sf_dir: str):
    """M5 text-vs-image page detection: the 15-word / 8-word+images /
    0.08-density decision tree over closed-form synthetic page stats that
    sweep all three branches (wc=doc_id%25, images=doc_id%3,
    density=(doc_id%20)/100)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.extract import detect_page_type

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def f(batch: pa.Table) -> pa.Table:
        kinds = [detect_page_type(d % 25, d % 3, (d % 20) / 100.0)
                 for d in batch.column("doc_id").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "page_type": pa.array(kinds, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=512)

__all__ = ['_q_wet_roundtrip', '_q_jsonl_roundtrip', '_q_cdx_fetch', '_q_kcenter_select', '_q_zorder_keys', '_q_merge_upsert', '_q_scd2_build', '_q_asof_snapshot', '_q_late_events', '_q_online_neardup', '_q_fetch_schedule', '_q_users_sketch', '_q_events_anomaly', '_q_table_checksum', '_q_string_agg_topdocs', '_q_gap_fill', '_q_cube_counts', '_q_scd2_join', '_q_grouped_regression', '_q_event_transitions', '_q_funnel_conversion', '_q_lang_rebalance', '_q_drop_funnel', '_q_tfrecord_roundtrip', '_q_csv_roundtrip', '_q_ipc_roundtrip', '_q_sorted_export', '_q_orc_roundtrip', '_q_page_meta', '_q_robots_filter', '_q_robots_txt_rules', '_q_surt_keys', '_q_anchor_text', '_q_sitemap_frontier', '_q_recrawl_priority', '_q_price_quantiles', '_q_fetch_waves', '_q_profile_columns', '_q_dq_audit', '_q_k_anonymity', '_q_l_diversity', '_q_diversity_index', '_q_mad_outliers', '_q_unpivot_measures', '_q_benford_audit', '_q_dead_letter', '_q_curation_hostaware', '_q_snapshot_diff', '_q_host_cap', '_q_outlink_count', '_q_kmeans_clusters', '_q_video_frames', '_q_kmv_distinct', '_q_hll_distinct', '_q_p95_quantity', '_q_users_per_event', '_q_events_rate_windows', '_q_images_to_pdf', '_q_base64_pages', '_q_rasterize_pages', '_q_urgent_revenue', '_q_gopher_quality', '_q_repeated_passages', '_q_dedup_passages', '_q_json_props', '_q_customer_running', '_q_stratified_sample', '_q_events_pivot', '_q_category_split_pdfs', '_q_bigram_lm', '_q_pagerank', '_q_pagerank_irregular', '_q_windowed_paths', '_q_user_features', '_q_user_ledger', '_q_cusum_alarms', '_q_mann_kendall', '_q_lag_coactivity', '_q_vocab_growth', '_q_trend_flips', '_q_skew_histogram', '_q_gini_orders', '_q_backtest_mae', '_q_tvd_drift', '_q_readability', '_q_clustering_coeff', '_q_unique_prefix', '_q_soundex_blocking', '_q_zonemap_prune', '_q_nest_tokens', '_q_longest_streak', '_q_supplier_percentile', '_q_delta_varint', '_q_impute_mode', '_q_rrf_fusion', '_q_quantile_normalize', '_q_subsequence_counts', '_q_coordinated_sample', '_q_kcore_nodes', '_q_rendezvous_shards', '_q_kwic_snippets', '_q_skipgram_pairs', '_q_collocation_lift', '_q_posexplode_tokens', '_q_weighted_median', '_q_ntile_split', '_q_fuzzy_hosts', '_q_symspell_pairs', '_q_triangle_count', '_q_redirect_resolve', '_q_khop_frontier', '_q_sssp_weighted', '_q_ocr_roundtrip', '_q_ocr_classify', '_q_office_extract', '_q_generic_entities', '_q_layout_structure', '_q_page_type_detect']
