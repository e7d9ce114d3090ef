"""Distributed aggregation shapes beyond plain groupby (SURVEY §2.6).

- ``grouped_topk``       top-k rows per key: per-batch partial top-k (only
  ≤ k rows per key per block survive to the shuffle), then the same
  selection per hash partition — "top-k is an aggregation", the grouped
  form of similarity.brute_force_topk's pattern.
- ``grouped_median_int`` EXACT median per group for integer-valued
  columns, with NO per-group gather: per-batch (key, value) count
  partials → one small groupby sum → median read off the cumulative
  histogram. Shuffle volume is bounded by keys × distinct values, not by
  row count — the right shape when the value domain is small (quantities,
  ratings, ages); for unbounded domains swap in a t-digest.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa


def grouped_topk(ds, *, key_col: str, sort_cols: list[str],
                 ascending: list[bool], k: int, num_partitions: int = 32):
    """Top-k rows per key by ``sort_cols`` (include a unique tiebreak
    column for determinism). Two-level: map-side partial top-k per key,
    hash-partition on the key, final top-k per partition (vectorized
    sort + groupby-head — never one map_groups call per key)."""
    from documentai_ray.stages.dedup import _add_pkey

    def select(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, ascending=ascending, kind="mergesort")
        return df.groupby(key_col, sort=False).head(k)

    def partial(batch: pa.Table) -> pa.Table:
        out = select(batch.to_pandas())
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return select(g.drop(columns=["_pkey"]))

    return (
        _add_pkey(partials, key_col, num_partitions)
        .groupby("_pkey")
        .map_groups(final, batch_format="pandas")
    )


def grouped_median_int(ds, *, key_cols: list[str], val_col: str,
                       out_col: str = "median"):
    """Exact per-group median of an integer-valued column via histogram
    counts. Returns one row per key group with ``out_col`` (float64 —
    even-count groups average the two middle values, matching SQL
    ``median()``)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = df.groupby(key_cols + ["_v"], as_index=False).size()
        g = g.rename(columns={"size": "_n"})
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_cols + ["_v"])
        .aggregate(Sum("_n", alias_name="_n"))
    )

    def median_of(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_v", kind="mergesort")
        n = int(g["_n"].sum())
        cum = g["_n"].cumsum().to_numpy()
        vals = g["_v"].to_numpy()
        if n % 2:
            med = float(vals[np.searchsorted(cum, n // 2 + 1)])
        else:
            lo = float(vals[np.searchsorted(cum, n // 2)])
            hi = float(vals[np.searchsorted(cum, n // 2 + 1)])
            med = (lo + hi) / 2.0
        out = {c: [g[c].iloc[0]] for c in g.columns if c not in ("_v", "_n")}
        out[out_col] = [med]
        return pd.DataFrame(out)

    # the histogram is tiny (keys × distinct values); group count equals
    # key-group count which is small by contract for a median-per-group op
    return hist.groupby(key_cols).map_groups(median_of, batch_format="pandas")


def grouped_quantile_int(ds, *, key_cols: list[str], val_col: str,
                         q: float, out_col: str = "quantile"):
    """Exact discrete per-group quantile of an integer-valued column via
    the same bounded histogram as ``grouped_median_int`` — the quantile is
    the smallest value whose cumulative count reaches ``ceil(q·n)``
    (a closed form the SQL oracle reproduces with a window cumsum; no
    interpolation, so the result stays an exact int64). Same shuffle
    contract: keys × distinct values, never row count."""
    import math

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = df.groupby(key_cols + ["_v"], as_index=False).size()
        g = g.rename(columns={"size": "_n"})
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_cols + ["_v"])
        .aggregate(Sum("_n", alias_name="_n"))
    )

    def quant_of(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_v", kind="mergesort")
        n = int(g["_n"].sum())
        cum = g["_n"].cumsum().to_numpy()
        vals = g["_v"].to_numpy()
        rank = math.ceil(q * n)
        v = int(vals[np.searchsorted(cum, rank)])
        out = {c: [g[c].iloc[0]] for c in g.columns if c not in ("_v", "_n")}
        out[out_col] = [v]
        return pd.DataFrame(out)

    return hist.groupby(key_cols).map_groups(quant_of, batch_format="pandas")


def grouped_count_distinct(ds, *, key_col: str, val_col: str,
                           out_col: str = "n_distinct"):
    """Exact COUNT(DISTINCT val) per key: batch-local dedup of
    (key, val) pairs → distributed pair-distinct groupby → per-key count.
    Both exchanges carry only the key/val projection; the first is
    pre-combined per block so hot (key, val) pairs collapse before the
    wire. For approximate cardinalities at lower shuffle cost see
    ``sketches.kmv_distinct_shingles``."""
    from ray.data.aggregate import Count

    def pair_distinct(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        df = df.drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    pairs = (
        ds.map_batches(pair_distinct, batch_format="pyarrow")
        .groupby([key_col, val_col])
        .aggregate(Count(alias_name="_c"))
    )
    return (
        pairs.groupby(key_col)
        .aggregate(Count(alias_name=out_col))
    )


# ---------------------------------------------------------------------------
# HDR-style mergeable quantile sketch (log2 octaves × 16 sub-buckets)
# ---------------------------------------------------------------------------

def hdr_bucket(v: np.ndarray) -> np.ndarray:
    """HdrHistogram-style bucket index for positive int64 values: exact
    below 16; above, 16 sub-buckets per octave → relative error ≤ 1/16.
    idx = 16·(bitlen−4) + ((v >> (bitlen−5)) & 15); continuous at the
    octave joins (idx == v for v ≤ 31). Integer-exact, so the SQL mirror
    (length(bin(v)) for bitlen) lands in the identical bucket."""
    v = v.astype(np.int64)
    # vectorized bit_length via float exponent is unsafe near 2^53;
    # np.frexp on int64→float64 rounds. Use the string-free integer way:
    bl = np.zeros(len(v), np.int64)
    x = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (1 << shift)
        bl[big] += shift
        x[big] >>= shift
    bl += (x > 0)
    small = v < 16
    idx = np.where(small, v, 16 * (bl - 4) + ((v >> np.maximum(bl - 5, 0)) & 15))
    return idx.astype(np.int64)


def hdr_bucket_upper(idx: np.ndarray) -> np.ndarray:
    """Upper bound of each bucket (the sketch's reported quantile value):
    idx itself below 32, else ((idx%16 + 17) << (idx//16 − 1)) − 1."""
    idx = idx.astype(np.int64)
    g = idx // 16
    s = idx % 16
    return np.where(idx < 32, idx, ((s + 17) << np.maximum(g - 1, 0)) - 1)


def grouped_quantile_sketch(ds, *, key_cols: list[str], val_col: str,
                            qs: tuple = (0.5, 0.95, 0.99)):
    """Approximate per-group quantiles from a MERGEABLE bounded sketch —
    the scale path when ``grouped_quantile_int``'s keys×distinct-values
    histogram is too wide (e.g. prices/latencies with millions of
    distinct values): the HDR bucketing caps state at keys × ~16/octave
    buckets regardless of value cardinality, with a documented ≤ 1/16
    relative-error contract (exact below 16).

    Plan: per-batch bucket counts (vectorized) pre-combine, ONE
    (key, bucket) exchange sums them, then per-key cumulative scan picks
    the smallest bucket whose cumulative count reaches ceil(q·n) and
    reports its upper bound. Returns (key_cols..., q_ppm, est) — q as
    integer ppm so the SQL oracle needs no float equality."""
    import math

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["_b"] = hdr_bucket(df[val_col].to_numpy())
        g = df.groupby(key_cols + ["_b"], as_index=False).size()
        g = g.rename(columns={"size": "_n"})
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(key_cols + ["_b"])
            .aggregate(Sum("_n", alias_name="_n")))

    def quants(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_b", kind="mergesort")
        n = int(g["_n"].sum())
        cum = g["_n"].cumsum().to_numpy()
        idx = g["_b"].to_numpy(np.int64)
        rows = []
        for q in qs:
            rank = math.ceil(q * n)
            b = idx[np.searchsorted(cum, rank)]
            rows.append({**{k: g[k].iloc[0] for k in key_cols},
                         "q_ppm": int(round(q * 1e6)),
                         "est": int(hdr_bucket_upper(np.array([b]))[0])})
        return pd.DataFrame(rows)

    return hist.groupby(key_cols).map_groups(quants, batch_format="pandas")


def profile_columns(ds, cols: list, *, kmv_k: int = 128):
    """ANALYZE-style column profiling in ONE streaming pass: per column
    ``(column, n_rows, n_null, n_distinct, min_v, max_v)``.

    Each batch emits one sketch-sized row per profiled column — counts,
    native-domain min/max, and its ≤ k smallest distinct md5-LE64 value
    hashes (the KMV state) — and the driver merges the partials: counts
    sum, min/max fold, hash union re-truncates to k. n_distinct is the
    KMV estimate, EXACT whenever the true cardinality is below k (the
    regime catalog stats usually live in; the estimate degrades gracefully
    ~1/√(k−2) above). min/max stringify ONLY at the end, so ordering
    happens in the value domain (never lexicographically on numbers);
    float columns are better profiled via an integer mapping (cents) —
    stringification of binary floats is representation-fragile."""
    from documentai_ray.stages.sketches import kmv_estimate, md5_le64

    def partial(batch: pa.Table) -> pa.Table:
        # min/max ride in TYPED carrier columns (numeric vs string) so the
        # partial stream has one fixed Arrow schema across heterogeneous
        # profiled columns; numerics use a float64 carrier (exact for
        # integers < 2^53 — catalog-stat domains)
        rows = []
        for c in cols:
            col = batch.column(c)
            vals = [v for v in col.to_pylist() if v is not None]
            hs = {md5_le64(str(v)) for v in set(vals)}
            arr = np.fromiter(hs, np.uint64, count=len(hs))
            if len(arr) > kmv_k:
                arr = np.partition(arr, kmv_k)[:kmv_k]
            numeric = bool(vals) and isinstance(vals[0], (int, float))
            rows.append({
                "column": c,
                "n_rows": batch.num_rows,
                "n_null": batch.num_rows - len(vals),
                "vmin_num": float(min(vals)) if vals and numeric else None,
                "vmax_num": float(max(vals)) if vals and numeric else None,
                "vmin_str": str(min(vals)) if vals and not numeric else None,
                "vmax_str": str(max(vals)) if vals and not numeric else None,
                "hashes": np.sort(arr).tolist(),
            })
        schema = pa.schema([("column", pa.string()), ("n_rows", pa.int64()),
                            ("n_null", pa.int64()),
                            ("vmin_num", pa.float64()),
                            ("vmax_num", pa.float64()),
                            ("vmin_str", pa.string()),
                            ("vmax_str", pa.string()),
                            ("hashes", pa.list_(pa.uint64()))])
        return pa.Table.from_pylist(rows, schema=schema)

    def render(v):
        if v is None:
            return None
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return str(v)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = []
    for c in cols:
        p = parts[parts["column"] == c]
        nmins = [v for v in p["vmin_num"] if v is not None and v == v]
        nmaxs = [v for v in p["vmax_num"] if v is not None and v == v]
        smins = [v for v in p["vmin_str"] if v is not None]
        smaxs = [v for v in p["vmax_str"] if v is not None]
        merged = np.unique(np.concatenate(
            [np.asarray(h, np.uint64) for h in p["hashes"]]
        )) if len(p) else np.empty(0, np.uint64)
        _, est = kmv_estimate(merged, kmv_k)
        out.append({
            "column": c,
            "n_rows": int(p["n_rows"].sum()),
            "n_null": int(p["n_null"].sum()),
            "n_distinct": int(est),
            "min_v": render(min(nmins)) if nmins else (min(smins) if smins else None),
            "max_v": render(max(nmaxs)) if nmaxs else (max(smaxs) if smaxs else None),
        })
    return pa.Table.from_pylist(out)


def zorder_key(x: np.ndarray, y: np.ndarray, bits: int = 16) -> np.ndarray:
    """Morton/Z-order interleave of two non-negative int columns
    (``bits`` low bits each → one int64 key): sorting or range-
    partitioning by this key co-locates rows that are close in BOTH
    dimensions — the multi-column clustering trick behind Z-ordered data
    layouts (Delta/Iceberg OPTIMIZE ZORDER). Pure integer bit math,
    vectorized, and mirrored bit-for-bit by the SQL oracle."""
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    out = np.zeros(len(x), np.int64)
    for i in range(bits):
        out |= ((x >> i) & 1) << (2 * i)
        out |= ((y >> i) & 1) << (2 * i + 1)
    return out


def grouped_ntile(ds, *, key_col: str, val_col: str, tiebreak_col: str,
                  k: int, out_col: str = "tile",
                  num_partitions: int = 32):
    """Exact distributed ``ntile(k) OVER (PARTITION BY key ORDER BY val,
    tiebreak)`` — the quantile-bucketed split assignment (train/val/test
    by size decile, latency band labeling) that naive plans compute with
    a global per-partition sort.

    Two bounded exchanges, no global sort:

    1. histogram pass — per (key, val) counts (shuffle = keys × distinct
       values, the grouped_median_int contract), collected to the driver
       (bounded by the same contract) and turned into per-(key, val)
       0-based rank OFFSETS + per-key totals, shipped via ``ray.put``;
    2. tie-rank pass — rows bucket by hash(key, val) so each exact tie
       group co-locates; one vectorized pandas sort+cumcount per
       partition ranks WITHIN tie groups by ``tiebreak_col``.

    rank = offset[key, val] + tie_rank; the tile then follows SQL NTILE
    semantics exactly: the first ``n % k`` tiles get ``n // k + 1`` rows.
    Integer ordering on ``val``; ``tiebreak_col`` must be unique per row
    for deterministic output (SQL ntile with a non-unique ORDER BY is
    nondeterministic — same caveat)."""
    import zlib

    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = df.groupby([key_col, "_v"], as_index=False).size()
        g = g.rename(columns={"size": "_n"})
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "_v"])
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()

    offsets: dict[tuple, int] = {}
    totals: dict = {}
    for key, g in hist.groupby(key_col, sort=False):
        g = g.sort_values("_v", kind="mergesort")
        cum = g["_n"].cumsum().to_numpy()
        start = np.concatenate(([0], cum[:-1]))
        for v, s in zip(g["_v"].to_numpy(), start):
            offsets[(key, int(v))] = int(s)
        totals[key] = int(cum[-1])
    off_ref = ray.put((offsets, totals))

    def bucket(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        vals = batch.column(val_col).to_numpy()
        pk = np.fromiter(
            (zlib.crc32(f"{kk}|{vv}".encode()) % num_partitions
             for kk, vv in zip(keys, vals)),
            dtype=np.int32, count=len(keys))
        return batch.append_column("_pkey", pa.array(pk))

    def rank_partition(g: pd.DataFrame) -> pd.DataFrame:
        offs, tots = ray.get(off_ref)
        g = g.sort_values([key_col, val_col, tiebreak_col],
                          kind="mergesort")
        tie = g.groupby([key_col, val_col], sort=False).cumcount().to_numpy()
        base = np.fromiter(
            (offs[(kk, int(vv))] for kk, vv in
             zip(g[key_col], g[val_col])), dtype=np.int64, count=len(g))
        n = np.fromiter((tots[kk] for kk in g[key_col]),
                        dtype=np.int64, count=len(g))
        r0 = base + tie
        big = n % k
        ceil = n // k + 1
        split = big * ceil
        in_big = r0 < split
        tile = np.where(
            in_big, r0 // np.maximum(ceil, 1) + 1,
            big + (r0 - split) // np.maximum(n // k, 1) + 1)
        g = g.drop(columns=["_pkey"])
        g[out_col] = tile.astype("int64")
        return g

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_pkey")
            .map_groups(rank_partition, batch_format="pandas"))


def grouped_linreg(ds, *, key_col: str, x_col: str, y_col: str):
    """Per-group ordinary-least-squares sufficient statistics in EXACT
    integer arithmetic — the corr()/covar_pop()/regr_slope() family
    without a float ever crossing an engine boundary.

    Inputs must already be integer columns (scale money to cents etc.).
    Per batch, a vectorized pandas groupby pre-combines to one partial
    row per key: (n, sum_x, sum_y, sum_xx, sum_xy).  One tiny key
    exchange sums the partials; a final map over the ≤|keys| rows emits
    the cross-multiplied numerators

        cov_num = n·Σxy − Σx·Σy        (= n² · covar_pop)
        var_num = n·Σxx − (Σx)²        (= n² · var_pop(x))
        slope_q = trunc(cov_num / var_num)

    slope_q uses truncation-toward-zero division (SQL's integer ``//``),
    NOT Python floor division — the two differ on negative covariance, and
    the SQL mirror must land bit-identically.  Domain bound (documented,
    like the other integer ops): n·max|x·y| and n·max(x²) must stay below
    2⁶³ per group; rescale inputs when they don't."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        x = df[x_col].astype("int64")
        y = df[y_col].astype("int64")
        g = pd.DataFrame({key_col: df[key_col], "n": 1, "sum_x": x,
                          "sum_y": y, "sum_xx": x * x, "sum_xy": x * y})
        return pa.Table.from_pandas(
            g.groupby(key_col, as_index=False).sum(), preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(key_col)
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_x", alias_name="sum_x"),
                      Sum("sum_y", alias_name="sum_y"),
                      Sum("sum_xx", alias_name="sum_xx"),
                      Sum("sum_xy", alias_name="sum_xy")))

    def derive(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_pylist()
        sx = batch.column("sum_x").to_pylist()
        sy = batch.column("sum_y").to_pylist()
        sxx = batch.column("sum_xx").to_pylist()
        sxy = batch.column("sum_xy").to_pylist()
        cov, var, slope = [], [], []
        for ni, sxi, syi, sxxi, sxyi in zip(n, sx, sy, sxx, sxy):
            c = ni * sxyi - sxi * syi
            v = ni * sxxi - sxi * sxi
            cov.append(c)
            var.append(v)
            if v == 0:
                slope.append(0)
            else:
                q = abs(c) // abs(v)
                slope.append(q if (c >= 0) == (v >= 0) else -q)
        return (batch
                .append_column("cov_num", pa.array(cov, pa.int64()))
                .append_column("var_num", pa.array(var, pa.int64()))
                .append_column("slope_q", pa.array(slope, pa.int64())))

    return agg.map_batches(derive, batch_format="pyarrow")


def pareto_frontier(ds, *, maximize: list[str], minimize: list[str]):
    """Distributed skyline: the rows NOT dominated by any other row —
    q dominates p when q is ≥ p on every objective (after sign-
    normalizing ``minimize`` columns) and strictly better on at least
    one. Identical points never dominate each other, so exact ties ALL
    survive (matches the SQL ``NOT EXISTS`` strict-clause skyline).

    The multi-objective reduction every curation run wants somewhere:
    "cheapest for its quality" / "longest doc per unit of repetition".

    Physical plan — skylines compose: the global skyline is a subset of
    the union of per-block skylines, so (1) a map-side vectorized
    dominance pass keeps only each block's frontier, (2) the surviving
    union is coalesced into ONE task for the final pass. No shuffle at
    all — the only exchange is the survivors' coalesce. SIZE CONTRACT:
    the per-block-skyline union must fit one task (~O(log^{d−1} n) for
    independent dims; adversarial all-incomparable data — e.g. points on
    an anti-chain — degrades to the full input, at which point a skyline
    is the wrong reduction). The in-block pass is O(n²·d) numpy
    broadcasting — bound ``batch_size`` accordingly (default 1024)."""
    cols = list(maximize) + list(minimize)

    def _frontier(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        x = df[cols].to_numpy(dtype=np.int64, copy=True)
        x[:, len(maximize):] *= -1          # minimize → maximize
        ge = (x[:, None, :] >= x[None, :, :]).all(-1)
        gt = (x[:, None, :] > x[None, :, :]).any(-1)
        dominated = (ge & gt).any(axis=0)   # any q beats p
        return df[~dominated]

    def block(batch: pa.Table) -> pa.Table:
        out = _frontier(batch.to_pandas())
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    survivors = ds.map_batches(block, batch_format="pyarrow",
                               batch_size=1024)

    def final(batch: pd.DataFrame) -> pd.DataFrame:
        return _frontier(batch)

    # one task sees the whole (small) survivor union: batch_size=None
    # with a single block
    return (survivors.repartition(1)
            .map_batches(final, batch_format="pandas", batch_size=None))


def grouped_mode(ds, *, key_col: str, val_col: str,
                 num_partitions: int = 32):
    """Statistical MODE per group — the most frequent value of
    ``val_col`` for each ``key_col``, count ties broken toward the
    SMALLEST value (deterministic, engine-independent).

    Physical plan: per-batch vectorized ``(key, value) → partial count``
    pre-combine, ONE key-hash exchange shipping at most
    |keys × distinct values| rows per block (never raw rows), then a
    per-partition sum + argmax read off a single sort. The classic
    "dominant label per entity" reduction (a user's typical action, a
    host's dominant language). Output: ``key_col, mode, n``."""
    from documentai_ray.stages.dedup import _add_pkey

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        out = (df.groupby([key_col, val_col], sort=False)
               .size().reset_index(name="_n"))
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    partials = _add_pkey(ds.map_batches(partial, batch_format="pyarrow"),
                         key_col, num_partitions)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby([key_col, val_col], sort=False)["_n"]
             .sum().reset_index())
        c = c.sort_values([key_col, "_n", val_col],
                          ascending=[True, False, True], kind="mergesort")
        c = c.drop_duplicates(subset=[key_col], keep="first")
        return c.rename(columns={val_col: "mode", "_n": "n"})

    return (partials.groupby("_pkey")
            .map_groups(lambda g: pick(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def grouped_percent_rank(ds, *, key_col: str, val_col: str,
                         out_col: str = "pct_ppm"):
    """Exact distributed ``percent_rank() OVER (PARTITION BY key ORDER
    BY val)`` in integer ppm — the per-row CDF position (how extreme is
    this row within its group) behind outlier screens and score
    normalization. SQL ``percent_rank`` builds on ``rank()``: ties share
    the MIN rank, so unlike ``grouped_ntile`` no tie-breaking pass is
    needed — the whole window collapses to a histogram.

    Physical plan: ONE (key, value)-count exchange (bounded by
    keys × distinct values, the grouped_median_int contract); the
    driver turns cumulative counts into per-(key, value) min-ranks,
    ships them via ``ray.put``, and application is a pure per-batch
    lookup — rows never shuffle. ``pct_ppm = (rank−1)·10⁶ // (n−1)``
    (0 for single-row groups), integer end to end."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = (df.groupby([key_col, "_v"], as_index=False).size()
             .rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g[[key_col, "_v", "_n"]],
            preserve_index=False).replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "_v"])
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()

    ppm: dict[tuple, int] = {}
    for key, g in hist.groupby(key_col, sort=False):
        g = g.sort_values("_v", kind="mergesort")
        cum = g["_n"].cumsum().to_numpy()
        n = int(cum[-1])
        start = np.concatenate(([0], cum[:-1]))   # rank − 1 (min rank)
        for v, s in zip(g["_v"].to_numpy(), start):
            ppm[(key, int(v))] = (int(s) * 1_000_000 // (n - 1)
                                  if n > 1 else 0)
    ppm_ref = ray.put(ppm)

    def attach(batch: pa.Table) -> pa.Table:
        lk = ray.get(ppm_ref)
        keys = batch.column(key_col).to_pylist()
        vals = batch.column(val_col).to_numpy().astype(np.int64)
        out = np.fromiter((lk[(kk, int(vv))]
                           for kk, vv in zip(keys, vals)),
                          dtype=np.int64, count=len(keys))
        return batch.append_column(out_col, pa.array(out, pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def grouped_cume_dist(ds, *, key_col: str, val_col: str,
                      out_col: str = "cume_ppm"):
    """Exact distributed ``cume_dist() OVER (PARTITION BY key ORDER BY
    val)`` in integer ppm — the inclusive-CDF sibling of
    ``grouped_percent_rank``: the fraction of the group at or BELOW this
    row's value (ties all share the cumulative count of their peer
    group), the form quantile cutoffs and "top x% of the group" filters
    want. ``cume_ppm = cum_count(v' ≤ v)·10⁶ // n`` — always in
    (0, 10⁶], 10⁶ for the group maximum, never 0 (every row counts
    itself), where percent_rank is 0 at the minimum and needs an n=1
    special case; cume_dist needs none.

    Identical physical plan: ONE (key, value)-count exchange bounded by
    keys × distinct values, driver cumulative scan, ``ray.put``
    broadcast, pure per-batch lookup — rows never shuffle."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = (df.groupby([key_col, "_v"], as_index=False).size()
             .rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g[[key_col, "_v", "_n"]],
            preserve_index=False).replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "_v"])
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()

    ppm: dict[tuple, int] = {}
    for key, g in hist.groupby(key_col, sort=False):
        g = g.sort_values("_v", kind="mergesort")
        cum = g["_n"].cumsum().to_numpy()
        n = int(cum[-1])
        for v, c in zip(g["_v"].to_numpy(), cum):
            ppm[(key, int(v))] = int(c) * 1_000_000 // n
    ppm_ref = ray.put(ppm)

    def attach(batch: pa.Table) -> pa.Table:
        lk = ray.get(ppm_ref)
        keys = batch.column(key_col).to_pylist()
        vals = batch.column(val_col).to_numpy().astype(np.int64)
        out = np.fromiter((lk[(kk, int(vv))]
                           for kk, vv in zip(keys, vals)),
                          dtype=np.int64, count=len(keys))
        return batch.append_column(out_col, pa.array(out, pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def ks_statistic_int(ds_a, ds_b, *, val_col: str):
    """Two-sample Kolmogorov–Smirnov statistic in EXACT integer
    arithmetic — the distribution-drift detector a pipeline runs between
    yesterday's and today's corpus (or between two strata):
    ``D = max_v |F_a(v) − F_b(v)|`` over empirical CDFs. Float CDFs
    divide; cross-multiplying instead —
    ``D_scaled = max_v |cum_a(v)·n_b − cum_b(v)·n_a|`` — keeps every
    compared value an integer (D = D_scaled / (n_a·n_b)), so any engine
    lands bit-identically.

    Physical plan: per side ONE value-histogram exchange (bounded by
    distinct values — the grouped_median_int contract; for unbounded
    domains bucket first); the CDF scan runs driver-side over the
    bounded value axis. int64 domain: |cum| ≤ n, so n_a·n_b must stay
    below 2⁶³ (fine to ~3·10⁹ rows per side; split hi/lo beyond).
    Returns one row ``(n_a, n_b, d_scaled)``."""
    from ray.data.aggregate import Sum

    def hist(ds) -> pd.DataFrame:
        def partial(batch: pa.Table) -> pa.Table:
            df = batch.select([val_col]).to_pandas()
            g = (df.groupby(val_col, as_index=False).size()
                 .rename(columns={"size": "_n"}))
            return pa.Table.from_pandas(
                g, preserve_index=False).replace_schema_metadata(None)
        return (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(val_col).aggregate(Sum("_n", alias_name="_n"))
                ).to_pandas()

    ha, hb = hist(ds_a), hist(ds_b)
    na, nb = int(ha["_n"].sum()), int(hb["_n"].sum())
    m = (ha.rename(columns={"_n": "_ca"})
         .merge(hb.rename(columns={"_n": "_cb"}), on=val_col, how="outer")
         .fillna(0).sort_values(val_col))
    fa = m["_ca"].cumsum().to_numpy().astype(np.int64)
    fb = m["_cb"].cumsum().to_numpy().astype(np.int64)
    d = int(np.abs(fa * nb - fb * na).max()) if len(m) else 0
    return pa.table({"n_a": pa.array([na], pa.int64()),
                     "n_b": pa.array([nb], pa.int64()),
                     "d_scaled": pa.array([d], pa.int64())})


def grouped_dense_rank(ds, *, key_col: str, val_col: str,
                       out_col: str = "dense_rank"):
    """Exact distributed ``dense_rank() OVER (PARTITION BY key ORDER BY
    val)`` — rank over DISTINCT values (no gaps after ties), completing
    the rank-window family beside grouped_ntile (tiles),
    grouped_percent_rank (CDF) and grouped_topk (selection). Same
    collapsed physical plan as percent_rank: dense rank depends only on
    the set of distinct values below, so ONE (key, value)-histogram
    exchange + a driver-built broadcast lookup rank the rows in a pure
    map — rows never shuffle."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = (df.groupby([key_col, "_v"], as_index=False).size()
             .rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g[[key_col, "_v", "_n"]],
            preserve_index=False).replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "_v"])
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()

    rank: dict[tuple, int] = {}
    for key, g in hist.groupby(key_col, sort=False):
        for i, v in enumerate(sorted(g["_v"].tolist()), start=1):
            rank[(key, int(v))] = i
    rank_ref = ray.put(rank)

    def attach(batch: pa.Table) -> pa.Table:
        lk = ray.get(rank_ref)
        keys = batch.column(key_col).to_pylist()
        vals = batch.column(val_col).to_numpy().astype(np.int64)
        out = np.fromiter((lk[(kk, int(vv))]
                           for kk, vv in zip(keys, vals)),
                          dtype=np.int64, count=len(keys))
        return batch.append_column(out_col, pa.array(out, pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def global_row_index(ds, *, val_col: str, tiebreak_col: str,
                     out_col: str = "row_idx", num_partitions: int = 32):
    """zipWithIndex: a contiguous 0-based GLOBAL row index under
    ``ORDER BY (val, tiebreak)`` — the stable-id assignment every
    training-data pipeline needs before sharding/packing (sample ids,
    curriculum positions, deterministic interleave order), computed
    WITHOUT a global sort and independent of block layout.

    The global rank decomposes exactly like ``grouped_ntile`` with one
    degenerate (constant) key:

    1. histogram pass — per-``val`` counts (ONE exchange bounded by the
       number of DISTINCT values, the grouped_median_int contract — use
       an integer-valued order column whose domain is bounded: lengths,
       buckets, scores); the driver prefix-sums them into per-value
       0-based rank offsets shipped via ``ray.put``;
    2. tie-rank pass — rows bucket by hash(val) so each exact tie group
       co-locates; one vectorized sort+cumcount per partition ranks
       within tie groups by ``tiebreak_col`` (must be unique per row for
       a deterministic total order).

    ``row_idx = offset[val] + tie_rank``. Rows themselves shuffle once
    (the tie-group exchange); nothing is ever gathered on the driver but
    the bounded value histogram. Mirrors ``row_number() OVER (ORDER BY
    val, tiebreak) - 1``."""
    import zlib

    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(val_col).to_numpy().astype(np.int64)
        uniq, cnt = np.unique(v, return_counts=True)
        return pa.table({"_v": pa.array(uniq, pa.int64()),
                         "_n": pa.array(cnt, pa.int64())})

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("_v")
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    hist = hist.sort_values("_v", kind="mergesort")
    cum = hist["_n"].cumsum().to_numpy()
    start = np.concatenate(([0], cum[:-1]))
    offsets = {int(v): int(s)
               for v, s in zip(hist["_v"].to_numpy(), start)}
    off_ref = ray.put(offsets)

    def bucket(batch: pa.Table) -> pa.Table:
        vals = batch.column(val_col).to_numpy()
        pk = np.fromiter(
            (zlib.crc32(str(int(vv)).encode()) % num_partitions
             for vv in vals),
            dtype=np.int32, count=len(vals))
        return batch.append_column("_pkey", pa.array(pk))

    def rank_partition(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        g = g.sort_values([val_col, tiebreak_col], kind="mergesort")
        tie = g.groupby(val_col, sort=False).cumcount().to_numpy()
        base = np.fromiter((offs[int(vv)] for vv in g[val_col]),
                           dtype=np.int64, count=len(g))
        g = g.drop(columns=["_pkey"])
        g[out_col] = (base + tie).astype("int64")
        return g

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_pkey")
            .map_groups(rank_partition, batch_format="pandas"))


def grouped_diversity(ds, *, key_col: str, cat_col: str,
                      scale: int = 1_000_000):
    """Gini–Simpson diversity index per key, exact in integer ppm —
    the corpus-mix concentration metric ("is this source effectively
    monolingual? is the training mix dominated by one domain?"):
    ``diversity = 1 − Σ (c_i/n)²`` where c_i are the per-category
    counts within the key. 0 = all mass on one category, → 1 = evenly
    spread. Chosen over Shannon entropy because it is RATIONAL — the
    whole computation stays in integers (``scale − (scale·Σc²) // n²``),
    so any SQL engine reproduces it bit-exactly; entropy's log never
    would.

    Physical plan: per-batch (key, cat) count partials → one exchange
    bounded by DISTINCT (key, cat) pairs → per-batch additive fold to
    (key, n, Σc², k_cats) partials (additive because categories are
    disjoint across the grouped rows) → one tiny exchange bounded by
    keys. Rows never shuffle. Σc² is computed in Python ints (exact at
    any magnitude); the int64 output contract holds while per-category
    counts stay below ~3·10⁹ (c² < 2⁶³) — document-scale groups beyond
    that want the count pre-bucketed.

    Returns (key_col, n_rows, n_cats, diversity_ppm), all int64.
    """
    from ray.data.aggregate import Sum

    def pair_counts(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, cat_col]).to_pandas()
        g = (df.groupby([key_col, cat_col], sort=False, dropna=False)
             .size().reset_index(name="_gd_c"))
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    pairs = (ds.map_batches(pair_counts, batch_format="pyarrow")
             .groupby([key_col, cat_col])
             .aggregate(Sum("_gd_c", alias_name="_gd_c")))

    def fold(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, "_gd_c"]).to_pandas()
        # python-int squares: exact regardless of magnitude
        df["_gd_ss"] = [int(v) * int(v) for v in df["_gd_c"]]
        df["_gd_k"] = 1
        g = df.groupby(key_col, sort=False, dropna=False).agg(
            _gd_n=("_gd_c", "sum"), _gd_ss=("_gd_ss", "sum"),
            _gd_k=("_gd_k", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    folded = (pairs.map_batches(fold, batch_format="pyarrow")
              .groupby(key_col)
              .aggregate(Sum("_gd_n", alias_name="n_rows"),
                         Sum("_gd_ss", alias_name="ss"),
                         Sum("_gd_k", alias_name="n_cats")))

    def finish(batch: pa.Table) -> pa.Table:
        n = [int(v) for v in batch.column("n_rows").to_pylist()]
        ss = [int(v) for v in batch.column("ss").to_pylist()]
        div = [scale - (scale * s) // (x * x) for x, s in zip(n, ss)]
        return pa.table({
            key_col: batch.column(key_col),
            "n_rows": pa.array(n, pa.int64()),
            "n_cats": batch.column("n_cats").cast(pa.int64()),
            "diversity_ppm": pa.array(div, pa.int64()),
        })

    return folded.map_batches(finish, batch_format="pyarrow")


def _median2_weighted(vals: np.ndarray, counts: np.ndarray) -> int:
    """2 × median of a weighted integer histogram (vals sorted asc) —
    doubled so even-count medians (.5) stay integer."""
    n = int(counts.sum())
    cum = counts.cumsum()
    if n % 2:
        return 2 * int(vals[np.searchsorted(cum, n // 2 + 1)])
    lo = int(vals[np.searchsorted(cum, n // 2)])
    hi = int(vals[np.searchsorted(cum, n // 2 + 1)])
    return lo + hi


def mad_outliers(ds, *, key_col: str, val_col: str,
                 k_num: int = 3, k_den: int = 1,
                 flag_col: str = "is_outlier"):
    """Robust per-key outlier flagging by the median-absolute-deviation
    rule — flag rows where ``|v − median| > (k_num/k_den) · MAD`` — the
    standard distribution-free anomaly test (mean/stddev break down
    exactly when outliers are present; median/MAD have 50% breakdown).
    The curation use: documents anomalously long/short FOR THEIR SOURCE.

    Everything stays integer-exact via doubled units: ``med_x2 = 2·med``
    is always integer (even-count medians average two integers),
    deviations ``d = |2v − med_x2| = 2|v − med|`` are integer, and
    ``mad_x4 = 2·median(d) = 4·MAD`` is integer — the flag test
    ``2·d·k_den > k_num·mad_x4`` multiplies the rule by 4·k_den, so a
    SQL engine reproduces every flag bit-exactly with no float anywhere.

    Physical plan: ONE (key, v) count-histogram exchange bounded by
    distinct (key, value) pairs (the grouped_median_int contract —
    integer-valued columns with a bounded domain; bucket first for
    unbounded ones); BOTH medians are read off the same collapsed
    histogram inside one tiny map_groups (the deviation histogram is a
    re-keying of the value histogram — rows are never touched twice);
    the per-key (med_x2, mad_x4) table is driver-small by the same
    contract and broadcasts via ``ray.put`` into a vectorized flagging
    pass (swap for joins.hash_join at extreme key cardinality).

    Returns the input rows + (med_x2, mad_x4, ``flag_col``).
    """
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = df.groupby([key_col, "_v"], as_index=False).size()
        g = g.rename(columns={"size": "_n"})
        return pa.Table.from_pandas(g[[key_col, "_v", "_n"]],
                                    preserve_index=False) \
                       .replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "_v"])
            .aggregate(Sum("_n", alias_name="_n")))

    def stats_of(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_v", kind="mergesort")
        vals = g["_v"].to_numpy()
        cnts = g["_n"].to_numpy()
        med2 = _median2_weighted(vals, cnts)
        d = np.abs(2 * vals - med2)
        # collapse duplicate deviations (v and its mirror share a d)
        uniq, inv = np.unique(d, return_inverse=True)
        dsum = np.zeros(len(uniq), np.int64)
        np.add.at(dsum, inv, cnts)
        mad4 = _median2_weighted(uniq, dsum)
        return pd.DataFrame({key_col: [g[key_col].iloc[0]],
                             "med_x2": [med2], "mad_x4": [mad4]})

    stats = (hist.groupby(key_col)
             .map_groups(stats_of, batch_format="pandas").to_pandas())
    med_map = dict(zip(stats[key_col], stats["med_x2"].astype("int64")))
    mad_map = dict(zip(stats[key_col], stats["mad_x4"].astype("int64")))
    med_ref = ray.put(med_map)
    mad_ref = ray.put(mad_map)

    def flag(batch: pa.Table) -> pa.Table:
        meds = ray.get(med_ref)
        mads = ray.get(mad_ref)
        keys = batch.column(key_col).to_pylist()
        v = batch.column(val_col).to_numpy().astype(np.int64)
        med2 = np.fromiter((meds[k] for k in keys), np.int64,
                           count=len(keys))
        mad4 = np.fromiter((mads[k] for k in keys), np.int64,
                           count=len(keys))
        d = np.abs(2 * v - med2)
        out = 2 * d * k_den > k_num * mad4
        batch = batch.append_column("med_x2", pa.array(med2))
        batch = batch.append_column("mad_x4", pa.array(mad4))
        return batch.append_column(flag_col,
                                   pa.array(out.tolist(), pa.bool_()))

    return ds.map_batches(flag, batch_format="pyarrow")


def grouped_weighted_median_int(ds, *, key_col: str, val_col: str,
                                weight_col: str, out_col: str = "wmedian"):
    """Exact per-key WEIGHTED lower median of an integer-valued column:
    the smallest v whose cumulative weight reaches half the key's total
    (``2·cumw(v) ≥ W``) — "the quantity at which half the revenue sits
    at or below". The lower-median rule (rather than interpolation) is
    chosen because it is closed over the value domain and integer-exact,
    so a SQL window mirror reproduces it bit-for-bit.

    Same physical plan as grouped_median_int with counts generalized to
    weight sums: per-batch (key, v, Σw) partials → ONE exchange bounded
    by keys × distinct values → the median read off the cumulative
    weight histogram per key group (tiny map_groups, group count =
    keys). Weights must be non-negative int64; rows with zero weight
    can never be selected unless they share a value with weighted rows
    (they add nothing to cumw).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col, weight_col]).to_pandas()
        df["_v"] = df[val_col].astype("int64")
        df["_w"] = df[weight_col].astype("int64")
        if (df["_w"] < 0).any():
            raise ValueError(f"negative weight in {weight_col!r}")
        g = (df.groupby([key_col, "_v"], as_index=False)["_w"].sum())
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "_v"])
            .aggregate(Sum("_w", alias_name="_w")))

    def median_of(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_v", kind="mergesort")
        w = g["_w"].to_numpy().astype("int64")
        total = int(w.sum())
        cum = w.cumsum()
        idx = int(np.searchsorted(2 * cum, total))
        return pd.DataFrame({key_col: [g[key_col].iloc[0]],
                             out_col: [int(g["_v"].to_numpy()[idx])]})

    return hist.groupby(key_col).map_groups(median_of,
                                            batch_format="pandas")


def target_encode_int(ds, *, cat_col: str, target_col: str, m: int = 10,
                      out_col: str = "enc"):
    """Smoothed target encoding — the ML-prep categorical featurizer:
    each category is replaced by the smoothed mean of the target,
    ``enc = (sum_c + m·prior) // (n_c + m)`` with ``prior = total_sum //
    total_n`` — rare categories shrink toward the global mean (m is the
    pseudo-count weight), frequent ones dominate their own evidence.
    Pure integer floor arithmetic end to end so the SQL mirror is
    bit-exact; callers must shift the target to be non-negative first
    (floor vs truncation divergence on negatives is the classic
    cross-engine trap, same contract as the median/MAD ops).

    Physical plan: per-batch (cat, sum, n) partials → ONE exchange
    bounded by distinct categories → driver computes prior + per-cat
    encodings → ``ray.put`` broadcast, per-batch lookup attach. Rows
    never shuffle."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([cat_col, target_col]).to_pandas()
        g = (df.groupby(cat_col, as_index=False)[target_col]
             .agg(["sum", "size"]).reset_index(drop=True))
        g.columns = [cat_col, "_s", "_n"]
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(cat_col)
           .aggregate(Sum("_s", alias_name="_s"),
                      Sum("_n", alias_name="_n"))).to_pandas()
    total_s = int(agg["_s"].sum())
    total_n = int(agg["_n"].sum())
    if total_n == 0:
        raise ValueError("target_encode_int: empty input")
    if int(agg["_s"].min()) < 0:
        raise ValueError("target_encode_int requires a non-negative "
                         "target (shift upstream)")
    prior = total_s // total_n
    enc = {c: (int(s) + m * prior) // (int(n) + m)
           for c, s, n in zip(agg[cat_col], agg["_s"], agg["_n"])}
    enc_ref = ray.put(enc)

    def attach(batch: pa.Table) -> pa.Table:
        lk = ray.get(enc_ref)
        cats = batch.column(cat_col).to_pylist()
        out = np.fromiter((lk[c] for c in cats), dtype=np.int64,
                          count=len(cats))
        return batch.append_column(out_col, pa.array(out, pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def rank_auc_int(ds, *, score_col: str, label_col: str):
    """Exact ROC-AUC of an integer score against a boolean label, in
    integer ppm — THE threshold-free eval for a quality/relevance score
    ("does the score rank positives above negatives?"), computed
    rank-based: AUC = [#(pos > neg) + ½·#(pos = neg)] / (n_pos·n_neg),
    the Mann–Whitney U identity. Doubled units keep the tie term
    integral: ``u2 = Σ_v p(v)·(2·cumneg_before(v) + q(v))`` and
    ``auc_ppm = u2·10⁶ // (2·n_pos·n_neg)`` — pure integer end to end,
    so the SQL window mirror is bit-exact (a float trapezoid AUC never
    is).

    Physical plan: per-batch (score, n_pos, n_neg) count partials → ONE
    exchange bounded by distinct score values (grouped_median_int
    contract — bucket unbounded scores first) → driver cumulative scan.
    Returns one row (n_pos, n_neg, u2, auc_ppm)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([score_col, label_col]).to_pandas()
        v = df[score_col].astype("int64")
        lab = df[label_col].astype(bool)
        g = (pd.DataFrame({"v": v, "_p": lab.astype("int64"),
                           "_q": (~lab).astype("int64")})
             .groupby("v", as_index=False).sum())
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("v")
            .aggregate(Sum("_p", alias_name="_p"),
                       Sum("_q", alias_name="_q"))).to_pandas()
    hist = hist.sort_values("v", kind="mergesort")
    p = hist["_p"].to_numpy()
    q = hist["_q"].to_numpy()
    n_pos, n_neg = int(p.sum()), int(q.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("rank_auc_int needs both classes present")
    cq_before = np.concatenate(([0], q.cumsum()[:-1]))
    u2 = int((p * (2 * cq_before + q)).sum())
    auc_ppm = u2 * 1_000_000 // (2 * n_pos * n_neg)
    return pa.table({"n_pos": pa.array([n_pos], pa.int64()),
                     "n_neg": pa.array([n_neg], pa.int64()),
                     "u2": pa.array([u2], pa.int64()),
                     "auc_ppm": pa.array([auc_ppm], pa.int64())})


def cohens_kappa_int(ds, *, col_a: str, col_b: str):
    """Cohen's kappa in integer ppm — chance-corrected agreement
    between two categorical labelings of the same rows (annotator vs
    model, two classifier techniques, stored label vs prediction):
    ``kappa = (p_o − p_e) / (1 − p_e)`` cleared of denominators to
    ``(n·Σdiag − ΣR_i·C_i)·10⁶ / (n² − ΣR_i·C_i)`` — every term an
    exact integer (raw accuracy Σdiag/n rewards majority-class
    parroting; kappa subtracts the agreement the marginals alone would
    produce). The final division TRUNCATES toward zero (kappa can be
    negative and SQL ``//`` truncates where Python floors — the one
    cross-engine arithmetic divergence, handled here).

    Physical plan: per-batch (a, b) confusion-cell count partials →
    ONE exchange bounded by |A|·|B| cells → driver margin fold.
    Returns one row (n, n_agree, e_sum, kappa_ppm); raises when the
    chance term saturates (n² = e_sum: a degenerate single-marginal
    labeling has no chance-corrected signal)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([col_a, col_b]).to_pandas()
        g = (df.groupby([col_a, col_b], as_index=False, dropna=False)
             .size().rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    cm = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby([col_a, col_b])
          .aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    n = int(cm["_n"].sum())
    n_agree = int(cm.loc[cm[col_a] == cm[col_b], "_n"].sum())
    ra = cm.groupby(col_a)["_n"].sum()
    cb = cm.groupby(col_b)["_n"].sum()
    labs = ra.index.union(cb.index)
    e_sum = int(sum(int(ra.get(l, 0)) * int(cb.get(l, 0)) for l in labs))
    den = n * n - e_sum
    if den == 0:
        raise ValueError("cohens_kappa_int: degenerate marginals "
                         "(chance agreement saturates)")
    num = (n * n_agree - e_sum) * 1_000_000
    kappa_ppm = abs(num) // den * (1 if num >= 0 else -1)
    return pa.table({"n": pa.array([n], pa.int64()),
                     "n_agree": pa.array([n_agree], pa.int64()),
                     "e_sum": pa.array([e_sum], pa.int64()),
                     "kappa_ppm": pa.array([kappa_ppm], pa.int64())})


def gini_gain_int(ds, *, split_col: str, label_col: str):
    """Exact Gini impurity gain of a BINARY split over a categorical
    label, in integer ppm — the decision-stump feature score ("how much
    does knowing split_col purify the labels?"), the feature-selection
    primitive CART-style trainers evaluate thousands of times. Chosen
    over information gain because Gini is RATIONAL: with parent counts
    ``Sp = Σc²`` (and SL/SR per side) the gain clears to one division,
    ``gain_ppm = 10⁶·[(n²−Sp)·n_L·n_R − (n_L²−SL)·n·n_R −
    (n_R²−SR)·n·n_L] // (n²·n_L·n_R)`` — Python bigints here, HUGEINT
    in the SQL mirror, bit-identical (entropy's log never is).
    Non-negative by Jensen, so floor-vs-trunc never diverges.

    Physical plan: per-batch (side, label) count partials → ONE
    exchange bounded by 2 × |labels| cells → driver arithmetic.
    Returns one row (n, n_left, n_right, gain_ppm); raises when either
    side is empty (a non-split has no gain)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([split_col, label_col]).to_pandas()
        g = (df.groupby([split_col, label_col], as_index=False)
             .size().rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    cm = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby([split_col, label_col])
          .aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    left = cm[cm[split_col].astype(bool)]
    right = cm[~cm[split_col].astype(bool)]
    n_l = int(left["_n"].sum())
    n_r = int(right["_n"].sum())
    if n_l == 0 or n_r == 0:
        raise ValueError("gini_gain_int: both split sides must be "
                         "non-empty")
    n = n_l + n_r
    parent = cm.groupby(label_col)["_n"].sum()
    sp = int((parent.astype(object) ** 2).sum())
    sl = int((left.groupby(label_col)["_n"].sum().astype(object)
              ** 2).sum())
    sr = int((right.groupby(label_col)["_n"].sum().astype(object)
              ** 2).sum())
    num = ((n * n - sp) * n_l * n_r - (n_l * n_l - sl) * n * n_r
           - (n_r * n_r - sr) * n * n_l)
    gain_ppm = 1_000_000 * num // (n * n * n_l * n_r)
    return pa.table({"n": pa.array([n], pa.int64()),
                     "n_left": pa.array([n_l], pa.int64()),
                     "n_right": pa.array([n_r], pa.int64()),
                     "gain_ppm": pa.array([gain_ppm], pa.int64())})


def quantile_normalize_int(ds, *, key_col: str, val_col: str,
                           out_col: str = "norm_v"):
    """Cross-group quantile normalization — the score-calibration op
    run before comparing or mixing per-source scores whose raw scales
    differ (one crawl source's "length 400" may sit at the same
    quantile as another's "length 2000"): each row's value is replaced
    by the GLOBAL value at the same quantile position, computed
    rank-exactly with no float CDF — the mapped value is the smallest
    global w with ``cum_g(w)·n_s ≥ cum_s(v)·n_g`` (inclusive ranks,
    cross-multiplied integer test), so a single-group input maps to
    itself identically and the SQL non-equi-join mirror is bit-exact.

    Physical plan: ONE (key, value) count exchange (bounded by
    keys × distinct values) serves BOTH the per-key CDFs and the
    global CDF (the global histogram is the key-marginal of the same
    table); the driver builds the (key, v) → w map via one vectorized
    searchsorted per key and broadcasts it via ``ray.put``; application
    is a per-batch lookup — rows never shuffle."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        df["_v"] = df[val_col].astype("int64")
        g = (df.groupby([key_col, "_v"], as_index=False).size()
             .rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g[[key_col, "_v", "_n"]],
            preserve_index=False).replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "_v"])
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()

    glob = (hist.groupby("_v", as_index=False)["_n"].sum()
            .sort_values("_v", kind="mergesort"))
    gv = glob["_v"].to_numpy()
    gcum = glob["_n"].cumsum().to_numpy()
    n_g = int(gcum[-1])

    mapping: dict[tuple, int] = {}
    for key, g in hist.groupby(key_col, sort=False):
        g = g.sort_values("_v", kind="mergesort")
        cum_s = g["_n"].cumsum().to_numpy()
        n_s = int(cum_s[-1])
        # smallest global index with gcum * n_s >= cum_s * n_g
        idx = np.searchsorted(gcum * n_s, cum_s * n_g, side="left")
        for v, i in zip(g["_v"].to_numpy(), idx):
            mapping[(key, int(v))] = int(gv[i])
    map_ref = ray.put(mapping)

    def attach(batch: pa.Table) -> pa.Table:
        lk = ray.get(map_ref)
        keys = batch.column(key_col).to_pylist()
        vals = batch.column(val_col).to_numpy().astype(np.int64)
        out = np.fromiter((lk[(kk, int(vv))]
                           for kk, vv in zip(keys, vals)),
                          dtype=np.int64, count=len(keys))
        return batch.append_column(out_col, pa.array(out, pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def crosstable_percentile_int(ref_ds, probe_ds, *, ref_val_col: str,
                              probe_val_col: str,
                              out_col: str = "pct_ppm"):
    """Cross-table empirical CDF position: each probe row's value is
    scored by WHERE IT SITS in a REFERENCE population (supplier
    balances ranked within the customer-balance distribution; a new
    source's doc lengths within the trusted corpus's) — the
    benchmark-against-population op, in exact integer ppm:
    ``pct = count(ref ≤ v) · 10⁶ // n_ref`` (inclusive, 0 for values
    below the reference minimum).

    Physical plan: ONE (value, count) histogram exchange over the
    REFERENCE (bounded by its distinct values), driver cumulative
    fold broadcast via ``ray.put``, probe side scored per batch by
    one vectorized searchsorted — probe rows never shuffle and the
    reference never ships row-wise."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([ref_val_col]).to_pandas()
        g = (df.groupby(ref_val_col, as_index=False).size()
             .rename(columns={"size": "_n", ref_val_col: "_v"}))
        g["_v"] = g["_v"].astype("int64")
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    hist = (ref_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("_v")
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    if hist.empty:
        raise ValueError("crosstable_percentile_int: empty reference")
    hist = hist.sort_values("_v", kind="mergesort")
    vs = hist["_v"].to_numpy()
    cum = hist["_n"].cumsum().to_numpy()
    n_ref = int(cum[-1])
    cdf_ref = ray.put((vs, cum, n_ref))

    def score(batch: pa.Table) -> pa.Table:
        v_arr, c_arr, n = ray.get(cdf_ref)
        pv = batch.column(probe_val_col).to_numpy().astype(np.int64)
        idx = np.searchsorted(v_arr, pv, side="right")  # count <= v
        cle = np.where(idx > 0, c_arr[np.maximum(idx - 1, 0)], 0)
        ppm = cle.astype(object) * 1_000_000 // n
        return batch.append_column(
            out_col, pa.array(ppm.astype(np.int64), pa.int64()))

    return probe_ds.map_batches(score, batch_format="pyarrow")


def tvd_drift_int(ds, *, key_col: str, cat_col: str):
    """Per-key categorical drift vs the corpus: total variation
    distance between each key's category distribution and the GLOBAL
    one, in exact integer ppm — the categorical sibling of the KS
    drift op (KS needs an ordered domain; TVD doesn't). TVD = ½·Σ|p_i −
    q_i| is rational, so cross-multiplying clears every float:
    ``tvd_ppm = 10⁶·Σ_cat |c_{k,cat}·n_g − c_{g,cat}·n_k| //
    (2·n_k·n_g)`` — bit-exact in HUGEINT where an entropy/χ² drift
    score never is. Categories absent from a key still contribute
    their global mass (the zero-cell term — dropping it understates
    drift exactly for the most-skewed keys).

    ONE exchange of per-batch (key, cat) count partials bounded by
    keys × categories; driver fold over the tiny grid. Returns
    (key, n, tvd_ppm)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, cat_col]).to_pandas()
        g = (df.groupby([key_col, cat_col], as_index=False)
             .size().rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    cm = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby([key_col, cat_col])
          .aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    if cm.empty:
        raise ValueError("tvd_drift_int: empty input")
    grid = (cm.pivot_table(index=key_col, columns=cat_col,
                           values="_n", fill_value=0, aggfunc="sum"))
    gc = grid.sum(axis=0).astype(object)          # global per category
    n_g = int(gc.sum())
    rows = []
    for key, r in grid.iterrows():
        n_k = int(r.sum())
        dev = sum(abs(int(ck) * n_g - int(cg) * n_k)
                  for ck, cg in zip(r.to_numpy(), gc.to_numpy()))
        rows.append((key, n_k,
                     1_000_000 * dev // (2 * n_k * n_g)))
    out = pd.DataFrame(rows, columns=[key_col, "n", "tvd_ppm"])
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def key_size_histogram(ds, *, key_col: str):
    """Skew diagnosis: the histogram of GROUP SIZES for a key column —
    (size, n_keys) — the first thing a shuffle planner looks at before
    choosing partitioning (a long tail of size-1 keys wants hash
    partitioning; a 30%-of-rows head key wants salting; see
    ``partitioning.detect_heavy_hosts``). Two bounded exchanges: per-key
    counts (pre-combined per batch), then counts-of-counts (bounded by
    distinct sizes — tiny by construction)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col]).to_pandas()
        g = (df.groupby(key_col, as_index=False).size()
             .rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    sizes = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(key_col).aggregate(Sum("_n", alias_name="_n")))

    def size_partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["_n"]).to_pandas()
        g = (df.groupby("_n", as_index=False).size()
             .rename(columns={"_n": "size", "size": "n_keys"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    return (sizes.map_batches(size_partial, batch_format="pyarrow")
            .groupby("size").aggregate(Sum("n_keys",
                                           alias_name="n_keys")))


def gini_concentration_int(ds, *, key_col: str):
    """Concentration of rows over keys as an exact integer-ppm Gini
    coefficient — the one-number skew summary next to
    ``key_size_histogram``'s full picture: 0 = perfectly even,
    → 10⁶ = one key owns everything (a crawl where one host is 30% of
    rows shows immediately). Closed form over ascending sizes
    ``x_1 ≤ … ≤ x_n``: ``G = Σ(2i − n − 1)·x_i / (n·Σx)`` — every term
    an integer, mirrored in HUGEINT SQL bit-exactly. Ties are
    order-independent in this form (equal x under symmetric weights),
    so no tiebreak is needed.

    ONE per-key count exchange (pre-combined), then a driver fold over
    the key-bounded size table. Returns (n_keys, total, gini_ppm)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col]).to_pandas()
        g = (df.groupby(key_col, as_index=False).size()
             .rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    sizes = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(key_col).aggregate(Sum("_n", alias_name="_n"))
             ).to_pandas()
    if sizes.empty:
        raise ValueError("gini_concentration_int: empty input")
    x = np.sort(sizes["_n"].to_numpy().astype(np.int64))
    n = len(x)
    total = int(x.sum())
    i = np.arange(1, n + 1, dtype=object)
    num = int(((2 * i - n - 1) * x.astype(object)).sum())
    gini_ppm = 1_000_000 * num // (n * total)
    return pa.table({"n_keys": pa.array([n], pa.int64()),
                     "total": pa.array([total], pa.int64()),
                     "gini_ppm": pa.array([gini_ppm], pa.int64())})


def classification_prf_int(ds, *, true_col: str, pred_col: str):
    """Per-class precision / recall / F1 in integer ppm — the
    class-level eval completing the trio (AUC = ranking quality,
    cohens_kappa = overall chance-corrected agreement, this = WHERE the
    model fails): every metric is a ratio of confusion-matrix counts,
    and F1's harmonic mean clears to one division —
    ``f1_ppm = 2·tp·10⁶ // (2·tp + fp + fn)`` — so all three are
    bit-exact in SQL. Classes appearing only in predictions (or only
    in truth) still get a row: precision with tp+fp = 0 is reported 0
    (no predictions to be wrong about — the lenient convention,
    documented), likewise recall with tp+fn = 0.

    ONE confusion-cell exchange bounded by |true| × |pred| labels;
    driver margin fold. Returns (label, tp, fp, fn, precision_ppm,
    recall_ppm, f1_ppm)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([true_col, pred_col]).to_pandas()
        g = (df.groupby([true_col, pred_col], as_index=False)
             .size().rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    cm = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby([true_col, pred_col])
          .aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    labels = sorted(set(cm[true_col]) | set(cm[pred_col]))
    rows = []
    for lab in labels:
        tp = int(cm.loc[(cm[true_col] == lab)
                        & (cm[pred_col] == lab), "_n"].sum())
        fp = int(cm.loc[(cm[true_col] != lab)
                        & (cm[pred_col] == lab), "_n"].sum())
        fn = int(cm.loc[(cm[true_col] == lab)
                        & (cm[pred_col] != lab), "_n"].sum())
        prec = tp * 1_000_000 // (tp + fp) if tp + fp else 0
        rec = tp * 1_000_000 // (tp + fn) if tp + fn else 0
        f1 = (2 * tp * 1_000_000 // (2 * tp + fp + fn)
              if 2 * tp + fp + fn else 0)
        rows.append((lab, tp, fp, fn, prec, rec, f1))
    out = pd.DataFrame(rows, columns=["label", "tp", "fp", "fn",
                                      "precision_ppm", "recall_ppm",
                                      "f1_ppm"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)

__all__ = ['_median2_weighted', 'classification_prf_int', 'cohens_kappa_int', 'crosstable_percentile_int', 'gini_concentration_int', 'gini_gain_int', 'global_row_index', 'grouped_count_distinct', 'grouped_cume_dist', 'grouped_dense_rank', 'grouped_diversity', 'grouped_linreg', 'grouped_median_int', 'grouped_mode', 'grouped_ntile', 'grouped_percent_rank', 'grouped_quantile_int', 'grouped_quantile_sketch', 'grouped_topk', 'grouped_weighted_median_int', 'hdr_bucket', 'hdr_bucket_upper', 'key_size_histogram', 'ks_statistic_int', 'mad_outliers', 'pareto_frontier', 'profile_columns', 'quantile_normalize_int', 'rank_auc_int', 'target_encode_int', 'tvd_drift_int', 'zorder_key']
