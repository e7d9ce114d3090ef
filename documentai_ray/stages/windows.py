"""Windowed aggregation operators over event streams (SURVEY §2.10).

The reference has no event-time semantics (request/response only); these
operators are part of the training-data-pipeline surface: Ray Data is a
batch engine, so windows are expressed as deterministic batch transforms:

- ``tumbling_window_agg``   — truncate ts to the window, groupby.
- ``sliding_window_agg``    — each event is expanded to the ``window/slide``
  windows containing it (vectorized per batch), then a tumbling groupby.
  The expansion happens map-side, so the shuffle carries
  (window_start, key) partials — never raw events times k.
- ``session_windows``       — gap-based sessionization, bucketed: keys are
  hash-partitioned (``crc32(key) % P``) and ALL keys in a partition are
  sessionized in one vectorized pandas pass (sort + shift + cumsum) — one
  ``map_groups`` call per partition, never per key (the per-row-key
  ``map_groups`` anti-pattern costs ~ms × millions of users at scale).

Ordering contract: none required across rows — every operator keys on
values derived from the row itself (event time), per SURVEY §2.10's
"no watermarks, no late data" scope (batch = complete input).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def tumbling_window_agg(ds, *, ts_col: str = "ts", key_col: str = "event_type",
                        unit: str = "hour", value_col: str = "value"):
    """Per (window, key): count + sum(value). One pre-aggregated shuffle."""
    from ray.data.aggregate import Count, Sum

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "window_start", pc.floor_temporal(batch.column(ts_col), unit=unit)
        )

    return (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby(["window_start", key_col])
        .aggregate(Count(alias_name="n_events"), Sum(value_col, alias_name="sum_value"))
    )


def sliding_window_agg(ds, *, ts_col: str = "ts", key_col: str = "event_type",
                       window_minutes: int = 60, slide_minutes: int = 15):
    """Count events per (sliding window, key).

    Each event belongs to ``window/slide`` windows; the per-batch expansion
    emits one (window_start, key) row per membership — vectorized numpy
    timestamp math, no per-row Python."""
    assert window_minutes % slide_minutes == 0
    k = window_minutes // slide_minutes
    slide_us = np.int64(slide_minutes * 60 * 1_000_000)

    from ray.data.aggregate import Count

    def expand(batch: pa.Table) -> pa.Table:
        ts = (
            batch.column(ts_col)
            .cast(pa.timestamp("us"))  # normalize unit before integer math
            .cast(pa.int64())
            .to_numpy()
        )  # µs since epoch
        keys = batch.column(key_col).to_pylist()
        bucket = (ts // slide_us) * slide_us  # slide-aligned bucket of the event
        starts = np.concatenate([bucket - i * slide_us for i in range(k)])
        keys_rep = keys * k
        return pa.table(
            {
                "window_start": pa.array(starts, pa.int64()).cast(pa.timestamp("us")),
                key_col: pa.array(keys_rep, pa.string()),
            }
        )

    return (
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby(["window_start", key_col])
        .aggregate(Count(alias_name="n_events"))
    )


def session_windows(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                    gap_minutes: int = 30, num_partitions: int = 64):
    """Per key: number of sessions and max session length (events), with a
    session break whenever the gap to the previous event exceeds ``gap``.

    Physical plan: hash-partition on ``crc32(key) % P`` (all events of a key
    co-locate), then ONE vectorized pass per partition sessionizes every
    key at once — sort by (key, ts); a session starts at each key change or
    over-gap timestamp; ``cumsum`` over the start mask yields session ids;
    two grouped reductions produce counts and max sizes. Group count is
    bounded by P, not by key cardinality."""
    from documentai_ray.stages.dedup import _add_pkey

    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        new_key = g[key_col].ne(g[key_col].shift())
        start = new_key | (g[ts_col].diff() > gap)
        sess_id = start.cumsum()
        sizes = sess_id.groupby(sess_id, sort=False).size()
        sess_key = g.loc[start.to_numpy(), key_col]
        sess_key.index = pd.RangeIndex(1, len(sess_key) + 1)  # sess ids are 1-based
        per_key = pd.DataFrame({key_col: sess_key, "size": sizes})
        out = per_key.groupby(key_col, sort=False).agg(
            n_sessions=("size", "size"), max_session_events=("size", "max")
        ).reset_index()
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["max_session_events"] = out["max_session_events"].astype("int64")
        return out

    return (
        _add_pkey(ds, key_col, num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: sessions_partition(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


def running_per_key(ds, *, key_col: str, order_cols: list[str],
                    cum_col: str, num_partitions: int = 64,
                    seq_col: str = "seq", out_col: str = "running"):
    """Window functions Ray Data lacks natively: per-key sequence number
    (row_number) and running sum of ``cum_col``, ordered by
    ``order_cols`` (include a unique tiebreak for determinism).

    Same bucketed plan as sessionization: one hash-partition shuffle on
    ``crc32(key) % P`` co-locates each key's rows, then ONE vectorized
    pass per partition computes cumcount/cumsum for every key at once —
    group count bounded by P, not key cardinality."""
    from documentai_ray.stages.dedup import _add_pkey

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        grp = g.groupby(key_col, sort=False)[cum_col]
        g[seq_col] = grp.cumcount().astype("int64") + 1
        g[out_col] = grp.cumsum()
        return g

    return (
        _add_pkey(ds, key_col, num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: run(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


# the synthetic events corpus's closed type vocabulary (pivot column set)
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def flag_count_anomalies(ds, *, key_col: str, bucket_col: str,
                         sigma: int = 3):
    """Spike detection over per-(key, bucket) event counts in EXACT
    integer arithmetic: bucket b of key k is anomalous iff

        (x_b·n − S) > 0  and  (x_b·n − S)² > sigma²·(n·Q − S²)

    which is |x−μ| > sigma·σ cross-multiplied by n² — no float mean/std
    ever materializes, so the flag is bit-identical in any engine (the
    repo's integer-inequality pattern; a float z-score column would be
    ulp-fragile). n, S, Q are the key's bucket count, Σx and Σx².

    Plan: count per (key, bucket) (pre-combined), per-key (n, S, Q) via
    a second tiny groupby, broadcast-joined back (keys ≪ data; swap in
    hash_join past the broadcast budget). Emits counts + ``is_spike``."""
    import ray
    from ray.data.aggregate import Sum

    def pair_counts(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, bucket_col]).to_pandas()
        g = (df.groupby([key_col, bucket_col], as_index=False).size()
             .rename(columns={"size": "n"}))
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(pair_counts, batch_format="pyarrow")
              .groupby([key_col, bucket_col])
              .aggregate(Sum("n", alias_name="x")))
    counts = counts.materialize()      # consumed twice (stats + flag)

    def stat_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        x = df["x"].astype("int64")
        g = pd.DataFrame({key_col: df[key_col], "n": 1, "s": x, "q": x * x})
        return pa.Table.from_pandas(
            g.groupby(key_col, as_index=False).sum(), preserve_index=False)

    from ray.data.aggregate import Sum as _Sum

    stats = (counts.map_batches(stat_partial, batch_format="pyarrow")
             .groupby(key_col)
             .aggregate(_Sum("n", alias_name="n"),
                        _Sum("s", alias_name="s"),
                        _Sum("q", alias_name="q")))
    stat_map = {r[key_col]: (int(r["n"]), int(r["s"]), int(r["q"]))
                for r in stats.iter_rows()}
    ref = ray.put(stat_map)

    def flag(batch: pa.Table) -> pa.Table:
        sm = ray.get(ref)
        keys = batch.column(key_col).to_pylist()
        xs = batch.column("x").to_pylist()
        out = []
        for k, x in zip(keys, xs):
            n, s, q = sm[k]
            d = x * n - s
            out.append(d > 0 and d * d > sigma * sigma * (n * q - s * s))
        return batch.append_column("is_spike", pa.array(out, pa.bool_()))

    return counts.map_batches(flag, batch_format="pyarrow")


def transitions_per_key(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                        type_col: str = "event_type",
                        tiebreak_col: str = "event_id",
                        num_partitions: int = 64):
    """Markov transition counts over per-key ordered event streams — the
    LAG-window primitive: for every key, order its events by
    (ts, tiebreak) and count each (previous type → next type) adjacency
    across the whole corpus.  Equivalent SQL:
    ``lag(type) OVER (PARTITION BY key ORDER BY ts, tiebreak)`` + groupby.

    Physical plan: hash-partition on ``crc32(key) % P`` co-locates each
    key's events; ONE vectorized pass per partition sorts (key, ts,
    tiebreak), shifts, masks out key boundaries, and pre-combines to a
    ≤|types|² partial per partition — so the final exchange carries
    P × |types|² rows, never events."""
    from documentai_ray.stages.dedup import _add_pkey

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tiebreak_col], kind="mergesort")
        prev = g[type_col].shift()
        same = g[key_col].eq(g[key_col].shift())
        m = same.to_numpy()
        out = pd.DataFrame({"prev_type": prev[m], "next_type": g[type_col][m]})
        out = (out.groupby(["prev_type", "next_type"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    from ray.data.aggregate import Sum

    return (
        _add_pkey(ds, key_col, num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: partial(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
        .groupby(["prev_type", "next_type"])
        .aggregate(Sum("n", alias_name="n"))
    )


def funnel_depth(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                 type_col: str = "event_type",
                 steps: tuple = ("view", "click", "purchase"),
                 num_partitions: int = 64):
    """Ordered multi-step funnel: per key, the deepest prefix of ``steps``
    completed in strict time order (step i+1 must occur at a ts STRICTLY
    after the key's earliest completion of step i).  Emits one row per
    key: (key, depth ∈ [0, len(steps)]).  Every key with ≥1 event is
    emitted, depth 0 included.

    Physical plan: one hash-partition exchange on ``crc32(key) % P``;
    inside a partition each step is resolved for ALL keys at once with a
    filtered groupby-min + merge (len(steps) vectorized passes), never a
    per-key Python loop.  Emits |keys| rows; downstream aggregation
    (depth histogram) pre-combines per partition."""
    from documentai_ray.stages.dedup import _add_pkey

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        users = g[[key_col]].drop_duplicates().reset_index(drop=True)
        depth = pd.Series(np.zeros(len(users), dtype="int64"))
        prev_t = None  # per-user ts of the previous step's first completion
        for i, step in enumerate(steps):
            ev = g[g[type_col] == step][[key_col, ts_col]]
            if prev_t is not None:
                ev = ev.merge(prev_t, on=key_col)
                ev = ev[ev[ts_col] > ev["_prev"]].drop(columns=["_prev"])
            t = (ev.groupby(key_col, as_index=False)[ts_col].min()
                 .rename(columns={ts_col: "_prev"}))
            hit = users[key_col].isin(set(t[key_col]))
            depth = depth.where(~(hit & (depth == i)), i + 1)
            prev_t = t
        return pd.DataFrame({key_col: users[key_col],
                             "depth": depth.astype("int64")})

    return (
        _add_pkey(ds, key_col, num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: resolve(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


def gap_fill_locf(cells: pd.DataFrame, *, key_col: str, bucket_col: str,
                  count_col: str, gauge_col: str,
                  freq: str = "h") -> pd.DataFrame:
    """Densify aggregated (key, time-bucket) cells to the full global
    bucket grid: missing buckets get ``count_col``=0 and carry the last
    observed ``gauge_col`` forward (LOCF); buckets before a key's first
    observation stay NULL (nullable Int64).  Pure pandas on the
    aggregated cells — span-bounded (|keys|·|buckets|), never the raw
    rows; the caller owns the single aggregation exchange."""
    df = cells.sort_values([key_col, bucket_col])
    buckets = pd.date_range(df[bucket_col].min(), df[bucket_col].max(),
                            freq=freq)
    grid = pd.MultiIndex.from_product(
        [sorted(df[key_col].unique()), buckets],
        names=[key_col, bucket_col])
    full = df.set_index([key_col, bucket_col]).reindex(grid).reset_index()
    full[count_col] = full[count_col].fillna(0).astype("int64")
    full[gauge_col] = (full.groupby(key_col)[gauge_col].ffill()
                       .astype("Int64"))
    return full


def interval_coverage(ds, *, key_col: str, start_col: str, end_col: str,
                      num_partitions: int = 32):
    """Total measure COVERED by a key's (possibly overlapping) intervals
    — union length, the "active seconds" / uptime metric that double-
    counts if you just sum durations. Classic gaps-and-islands, made
    distributed: ONE key-hash exchange co-locates each key's intervals
    (only the 3-column projection ships), then each partition resolves
    ALL its keys in one vectorized pass — sort by (key, start, end),
    per-key running max of end (grouped cummax, shifted), an island
    starts where start > previous max, island id = cumsum of breaks,
    covered = Σ per island (max end − min start). Half-open [start, end)
    semantics: touching intervals merge, a zero-length interval adds 0.

    Output: one row per key ``(key_col, covered)``."""
    from documentai_ray.stages.dedup import _add_pkey

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, start_col, end_col], kind="mergesort")
        cummax = g.groupby(key_col, sort=False)[end_col].cummax()
        prev_max = cummax.groupby(g[key_col], sort=False).shift(1)
        brk = prev_max.isna() | (g[start_col] > prev_max)
        island = brk.cumsum()          # globally increasing → per-key unique
        isl = (g.assign(_isl=island)
               .groupby([key_col, "_isl"], sort=False)
               .agg(_s=(start_col, "min"), _e=(end_col, "max")))
        isl["_len"] = isl["_e"] - isl["_s"]
        out = (isl.reset_index().groupby(key_col, sort=False)["_len"]
               .sum().reset_index(name="covered"))
        return out

    keyed = _add_pkey(ds.select_columns([key_col, start_col, end_col]),
                      key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: cover(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def sliding_distinct_count(ds, *, key_col: str, bucket_col: str,
                           width: int, num_partitions: int = 32
                           ) -> pd.DataFrame:
    """Distinct keys per TRAILING window — "unique users in the last 24
    hours, per hour" — without expanding every (key, bucket) pair
    ``width`` times and without a COUNT DISTINCT per window.

    A key is active at bucket g iff it has an observation in
    ``(g − width, g]``; equivalently each observed bucket b opens the
    interval ``[b, b + width)``. Per key those intervals are merged into
    islands (the interval_coverage trick), each island contributes a +1
    delta at its start and a −1 at its (exclusive) end, and the running
    sum of deltas over the bucket axis IS the distinct count — each key
    counted once however many observations it has inside the window.

    Physical plan: ONE key-hash exchange of the distinct (key, bucket)
    projection; per-partition vectorized island merge → delta rows;
    a tiny bucket exchange sums deltas (bounded by distinct buckets);
    the final cumsum runs driver-side over the bounded bucket axis
    (buckets ≪ rows — the documented small-axis exception). Returns a
    pandas frame ``(bucket_col, n_distinct)`` for every bucket in
    [min observed, max observed]."""
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        g = g[[key_col, bucket_col]].drop_duplicates()
        g = g.sort_values([key_col, bucket_col], kind="mergesort")
        s = g[bucket_col].to_numpy()
        e = s + width
        cummax = (pd.Series(e).groupby(g[key_col].to_numpy(), sort=False)
                  .cummax())
        prev_max = cummax.groupby(g[key_col].to_numpy(), sort=False).shift(1)
        brk = prev_max.isna().to_numpy() | (s > prev_max.to_numpy())
        isl = np.cumsum(brk)
        f = pd.DataFrame({"_isl": isl, "_s": s, "_e": e})
        agg = f.groupby("_isl", sort=False).agg(
            start=("_s", "min"), end=("_e", "max"))
        out = pd.concat([
            pd.DataFrame({bucket_col: agg["start"], "_d": 1}),
            pd.DataFrame({bucket_col: agg["end"], "_d": -1}),
        ])
        return (out.groupby(bucket_col, sort=False)["_d"]
                .sum().reset_index(name="_d"))

    keyed = _add_pkey(ds.select_columns([key_col, bucket_col]),
                      key_col, num_partitions)
    dd = (keyed.groupby("_pkey")
          .map_groups(lambda g: deltas(g.drop(columns=["_pkey"])),
                      batch_format="pandas")
          .groupby(bucket_col).aggregate(Sum("_d", alias_name="_d"))
          ).to_pandas().sort_values(bucket_col)

    lo = int(dd[bucket_col].min())
    hi = int(dd[bucket_col].max()) - width   # max observed bucket
    grid = pd.DataFrame({bucket_col: np.arange(lo, hi + 1)})
    grid = grid.merge(dd, on=bucket_col, how="left").fillna({"_d": 0})
    # deltas BEYOND the grid start never apply; all island starts are
    # observed buckets ≥ lo, so the plain cumsum is exact
    grid["n_distinct"] = grid["_d"].cumsum().astype("int64")
    return grid[[bucket_col, "n_distinct"]]


def scd2_build(ds, *, key_col: str, val_col: str, ts_col: str,
               open_end: int, num_partitions: int = 32):
    """BUILD an SCD Type-2 dimension from an observation stream — the
    inverse of an SCD2 point-in-time join: per key, consecutive equal
    values collapse into one validity range ``[valid_from, valid_to)``;
    a value change closes the previous range at the new observation's
    timestamp; the latest range stays open until ``open_end``. Repeated
    observations of the SAME value extend nothing (only changes
    matter) — the classic change-data-capture compaction.

    ONE key-hash exchange of the (key, ts, value) projection; each
    partition resolves all its keys in one vectorized pass: sort by
    (key, ts), a change mask (key boundary OR value ≠ previous) selects
    range starts, ``valid_to`` = next range's start within the key
    (vectorized shift), else ``open_end``. Simultaneous observations
    (equal key AND ts) resolve deterministically to the SMALLEST value
    — the keys are co-located, so the tie-break is global."""
    from documentai_ray.stages.dedup import _add_pkey

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, val_col], kind="mergesort")
        g = g.drop_duplicates(subset=[key_col, ts_col], keep="first")
        key_change = g[key_col].ne(g[key_col].shift(1))
        val_change = g[val_col].ne(g[val_col].shift(1))
        start = key_change | val_change
        s = g[start]
        nxt_from = s[ts_col].shift(-1)
        nxt_key = s[key_col].shift(-1)
        valid_to = nxt_from.where(nxt_key.eq(s[key_col]),
                                  other=open_end).astype("int64")
        return pd.DataFrame({key_col: s[key_col],
                             val_col: s[val_col],
                             "valid_from": s[ts_col].astype("int64"),
                             "valid_to": valid_to})

    keyed = _add_pkey(ds.select_columns([key_col, ts_col, val_col]),
                      key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: build(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def subsequence_counts(ds, *, key_col: str, ts_col: str, tie_col: str,
                       type_col: str, pattern: list[str],
                       num_partitions: int = 32,
                       out_col: str = "n_seq"):
    """Order-preserving subsequence pattern counting — the sequence-
    mining primitive: for each key, how many ways can the event stream
    spell ``pattern`` with strictly increasing positions (non-contiguous
    allowed)? The funnel ops answer "did the user convert"; this counts
    HOW MANY distinct paths spell view→click→purchase — the signal
    behind path-weighted attribution and motif frequency.

    Counting all subsequences naively is exponential; the standard DP
    is one linear pass: walking in time order, ``c_i`` (ways to spell
    the first i steps so far) gains ``c_{i-1}``-so-far at every row
    matching step i. Here the pass is VECTORIZED across all keys of a
    partition: level by level, ``contrib_i = (type == p_i) ·
    cumsum_excl(contrib_{i-1})`` with per-key exclusive cumsums
    (groupby-cumsum minus self) — k levels ⇒ k vectorized sweeps, no
    per-key Python loop. Order is (ts, tie) so ties are total and the
    SQL window mirror lands bit-identically.

    ONE row exchange co-locates each key (only the 3 needed columns
    ship); int64 contract: counts grow ~(n_k/k)^k for n_k events per
    key — with 64-bit headroom that caps n_k in the millions for k=3;
    beyond, bucket the stream first. Returns (key, n_seq) for every
    key, zeros included."""
    from documentai_ray.stages.dedup import _add_pkey

    if len(pattern) < 1:
        raise ValueError("pattern must have at least one step")

    def count(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col], kind="mergesort")
        cur = (g[type_col] == pattern[0]).to_numpy("int64")
        for step in pattern[1:]:
            g = g.assign(_c=cur)
            cum_excl = (g.groupby(key_col, sort=False)["_c"].cumsum()
                        .to_numpy() - cur)
            cur = np.where(g[type_col] == step, cum_excl, 0)
        g = g.assign(_c=cur)
        out = (g.groupby(key_col, sort=False)["_c"].sum()
               .reset_index(name=out_col))
        out[out_col] = out[out_col].astype("int64")
        return out

    keyed = _add_pkey(
        ds.select_columns([key_col, ts_col, tie_col, type_col]),
        key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: count(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def longest_streak(ds, *, key_col: str, ts_col: str, tie_col: str,
                   type_col: str, out_col: str = "longest",
                   num_partitions: int = 32):
    """Longest same-value run per key — the max-run summary missing
    from the islands family (sessions = gap islands, coverage = overlap
    islands; this is VALUE-CHANGE islands): the longest streak of
    identical ``type_col`` in (ts, tie) order per key, the
    engagement-streak / repeated-failure-run metric. A plain groupby
    can't see runs; the vectorized trick is the run id = cumsum of
    change-points, computed per key with no per-key Python loop.

    ONE row exchange co-locates each key (4-column projection); per
    partition: sort, per-key change-point cumsum, (key, run) size,
    per-key max. Returns (key, longest) — keys with any events have
    longest ≥ 1."""
    from documentai_ray.stages.dedup import _add_pkey

    def runs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col], kind="mergesort")
        new_key = (g[key_col] != g[key_col].shift()).to_numpy()
        new_val = (g[type_col] != g[type_col].shift()).to_numpy()
        run_id = np.cumsum(new_key | new_val)
        g = g.assign(_run=run_id)
        lens = (g.groupby([key_col, "_run"], sort=False)
                .size().reset_index(name="_len"))
        out = (lens.groupby(key_col, sort=False)["_len"].max()
               .reset_index(name=out_col))
        out[out_col] = out[out_col].astype("int64")
        return out

    keyed = _add_pkey(
        ds.select_columns([key_col, ts_col, tie_col, type_col]),
        key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: runs(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def seasonal_naive_mae(ds, *, ts_col: str, key_col: str,
                       season_hours: int = 24):
    """Forecast-eval backtest: the mean absolute error of the
    SEASONAL-NAIVE predictor (ŷ_t = y_{t−season}) over the per-key
    hourly count series — the baseline every real forecasting model
    must beat, and the capacity-planning sanity metric ("how
    predictable is this stream day-over-day?"). Exact integers: counts
    are ints, the error sum is an int, and MAE floors once at the end.
    Pairs exist only where BOTH hours were observed (an absent hour is
    no observation, not zero — the join semantics, mirrored in SQL).

    Physical plan: the hourly aggregate rides ONE pre-combined
    (hour, key) exchange bounded by hours × keys (the tumbling-window
    contract); the lag join runs driver-side over that tiny series
    table. Returns (key, n_pairs, sum_abs_err, mae)."""
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("seasonal_naive_mae: empty input")
    lag = hourly.copy()
    lag["_w"] = lag["_w"] + pd.Timedelta(hours=season_hours)
    j = hourly.merge(lag, on=["_w", key_col], suffixes=("", "_prev"))
    j["_err"] = (j["_n"] - j["_n_prev"]).abs()
    out = (j.groupby(key_col, sort=False)
           .agg(n_pairs=("_err", "size"), sum_abs_err=("_err", "sum"))
           .reset_index())
    out["n_pairs"] = out["n_pairs"].astype("int64")
    out["sum_abs_err"] = out["sum_abs_err"].astype("int64")
    out["mae"] = (out["sum_abs_err"] // out["n_pairs"]).astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def naive_mase(ds, *, ts_col: str, key_col: str,
               season_hours: int = 24):
    """MASE (mean absolute SCALED error) of the seasonal-naive
    predictor over the per-key hourly count series — the unit-free
    forecast grade backtest_mae can't give: a raw MAE of 40 is
    meaningless without knowing how volatile the series is, so
    Hyndman's MASE divides the forecast MAE by the IN-SAMPLE one-step
    naive MAE (ŷ_t = y_{t−1}); < 1 means the seasonal forecast beats
    the drift floor, > 1 means yesterday's-same-hour is WORSE than
    just repeating the last hour.  Both error sums are exact integers
    over OBSERVED-hour pairs (an absent hour is no observation — the
    backtest_mae join semantics, applied at lag ``season_hours`` for
    the numerator and lag 1 for the denominator), and the ratio clears
    both means in one floor:

        mase_ppm = 10⁶ · sae_season · n_naive // (sae_naive · n_season)

    (0 when either denominator term is 0 — a constant series has no
    scale to measure against).

    Physical plan: the hourly aggregate rides ONE pre-combined
    (hour, key) exchange bounded by hours × keys; both lag joins run
    driver-side over that tiny series table.  Returns (key,
    n_pairs_season, sae_season, n_pairs_naive, sae_naive, mase_ppm)."""
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("naive_mase: empty input")

    def lag_errors(lag_h: int) -> pd.DataFrame:
        lag = hourly.copy()
        lag["_w"] = lag["_w"] + pd.Timedelta(hours=lag_h)
        j = hourly.merge(lag, on=["_w", key_col],
                         suffixes=("", "_prev"))
        j["_err"] = (j["_n"] - j["_n_prev"]).abs()
        return (j.groupby(key_col, sort=False)
                .agg(n=("_err", "size"), sae=("_err", "sum"))
                .reset_index())

    s = lag_errors(season_hours).rename(
        columns={"n": "n_pairs_season", "sae": "sae_season"})
    o = lag_errors(1).rename(
        columns={"n": "n_pairs_naive", "sae": "sae_naive"})
    out = s.merge(o, on=key_col, how="inner")
    num = out["sae_season"].astype(object) * out["n_pairs_naive"]
    den = out["sae_naive"].astype(object) * out["n_pairs_season"]
    out["mase_ppm"] = [
        int(1_000_000 * a // b) if b > 0 else 0
        for a, b in zip(num, den)]
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def anomaly_ensemble_int(ds, *, key_col: str = "event_type",
                         ts_col: str = "ts", max_obs: int = 8784):
    """Detector-consensus spike alerts — the alert-fatigue fix: each
    single rule has a known blind spot (the global 3σ band inflates
    under drift, XmR under-reacts when the jump itself inflates the
    moving range, the hod band needs a real daily cycle), so
    production alerting demands AGREEMENT: an hour pages only when
    ≥ 2 of the 3 rules vote.  All three votes are the UPWARD breach
    (spike consensus — a quiet hour is not a page), each in the
    existing cross-multiplied integer form over the same dense grid:

        global: m·x − S > 0  ∧ (m·x−S)² > 9·(m·Q − S²)
        xmr:    m·x − S > 0  ∧ 100(m−1)(m·x−S) > 266·m·ΣMR
        hod:    m_h·x − S_h > 0 ∧ (m_h·x−S_h)² > 9·(m_h·Q_h − S_h²)

    Emits ONLY hours with votes ≥ 2 (the bounded alert set), with the
    three votes exposed so the consumer sees WHICH detectors agreed.
    Same single bounded (hour, key) exchange; per-key folds vectorize
    over the K × H driver matrix."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)

    def to_hour(batch: pa.Table) -> pa.Table:
        t = pc.floor_temporal(batch.column(ts_col), unit="hour")
        return pa.table({"_h": t.cast(pa.timestamp("us"))
                        .cast(pa.int64())})

    h0 = int(ds.map_batches(to_hour, batch_format="pyarrow").min("_h"))
    hod0 = (h0 // 3_600_000_000) % 24
    hods = (hod0 + np.arange(h)) % 24
    rows = []
    for i, key in enumerate(keys):
        x = mat[i].astype(object)
        m = h
        s = int(x.sum())
        q = int(sum(int(v) * int(v) for v in x))
        var_g = m * q - s * s
        mrsum = int(np.abs(np.diff(mat[i])).sum())
        # hod stats
        hstat = {}
        for hd in range(24):
            msk = hods == hd
            mh = int(msk.sum())
            if mh == 0:
                continue
            xs = x[msk]
            sh = int(xs.sum())
            qh = int(sum(int(v) * int(v) for v in xs))
            hstat[hd] = (mh, sh, mh * qh - sh * sh)
        for t_idx in range(h):
            c = int(mat[i][t_idx])
            lhs_g = m * c - s
            vg = 1 if (lhs_g > 0 and lhs_g * lhs_g > 9 * var_g) else 0
            vx = 1 if (lhs_g > 0 and 100 * (m - 1) * lhs_g
                       > 266 * m * mrsum) else 0
            mh, sh, var_h = hstat[int(hods[t_idx])]
            lhs_h = mh * c - sh
            vh = 1 if (lhs_h > 0 and lhs_h * lhs_h > 9 * var_h) else 0
            votes = vg + vx + vh
            if votes >= 2:
                rows.append((key, h0 + t_idx * 3_600_000_000, c,
                             vg, vx, vh, votes))
    out = pd.DataFrame(rows, columns=[
        key_col, "hr", "c", "vote_global", "vote_xmr", "vote_hod",
        "votes"])
    out["hr"] = pd.to_datetime(out["hr"].astype("int64"), unit="us")
    for col in ("c", "vote_global", "vote_xmr", "vote_hod", "votes"):
        out[col] = out[col].astype("int64")
    return out.sort_values([key_col, "hr"],
                           kind="mergesort").reset_index(drop=True)


def conformal_backtest(ds, *, ts_col: str, key_col: str,
                       season_hours: int = 24):
    """Split-conformal prediction interval for the seasonal-naive
    forecaster — the uncertainty the point-error ops (backtest_mae,
    naive_mase) can't give: an alerting system needs "how far off can
    this forecast be at 90% confidence", and split conformal answers
    it DISTRIBUTION-FREE: rank the calibration-half nonconformity
    scores s = |y_t − y_{t−season}| and take the k-th smallest with
    k = ⌈(n_cal+1)·0.9⌉ (the finite-sample-valid rank, computed as the
    exact integer (9·n_cal+18)//10 and clamped to n_cal); the marginal
    coverage guarantee P(s_test ≤ q) ≥ 0.9 then holds by
    exchangeability alone, and the held-out half measures it.

    Calibration/test split is the Knuth coin on the EPOCH-HOUR index
    (deterministic, parallelism-independent).  Pairs exist only where
    both hours were observed (the backtest_mae join semantics).  Keys
    with an empty calibration or test half are dropped.  Coverage
    floors once: 10⁶·n_cov // n_test.

    Physical plan: the hourly aggregate rides ONE pre-combined
    (hour, key) exchange bounded by hours × keys; the lag join, rank
    pick and coverage count run driver-side over that tiny series
    table.  Returns (key, n_cal, n_test, k, threshold, n_covered,
    coverage_ppm)."""
    from ray.data.aggregate import Count

    if key_col == "k":
        raise ValueError("conformal_backtest: key_col 'k' collides "
                         "with the rank output column")

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("conformal_backtest: empty input")
    lag = hourly.copy()
    lag["_w"] = lag["_w"] + pd.Timedelta(hours=season_hours)
    j = hourly.merge(lag, on=["_w", key_col], suffixes=("", "_prev"))
    j["_s"] = (j["_n"] - j["_n_prev"]).abs()
    hh = (j["_w"].astype("datetime64[ns]").astype("int64").to_numpy()
          // 3_600_000_000_000)
    coin = (hh.astype(np.uint64) * np.uint64(2654435761)) \
        % np.uint64(1 << 32)
    j["_cal"] = coin < np.uint64(1 << 31)
    rows = []
    for key, g in j.groupby(key_col, sort=True):
        cal = np.sort(g.loc[g["_cal"], "_s"].to_numpy())
        test = g.loc[~g["_cal"], "_s"].to_numpy()
        n_cal, n_test = len(cal), len(test)
        if n_cal == 0 or n_test == 0:
            continue
        k = min((9 * n_cal + 18) // 10, n_cal)
        thr = int(cal[k - 1])
        n_cov = int((test <= thr).sum())
        rows.append((key, n_cal, n_test, k, thr, n_cov,
                     1_000_000 * n_cov // n_test))
    out = pd.DataFrame(rows, columns=[
        key_col, "n_cal", "n_test", "k", "threshold", "n_covered",
        "coverage_ppm"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def trend_flips(ds, *, ts_col: str, key_col: str,
                out_col: str = "n_flips"):
    """Volatility of a per-key hourly count series as the number of
    DIRECTION CHANGES (rise→fall or fall→rise) — the shape statistic
    level-based anomaly flags miss: a series can stay in range while
    thrashing. Zero diffs are skipped (a plateau neither continues nor
    breaks a trend), so a flip is two consecutive NONZERO diffs with
    opposite signs — the convention the SQL double-lag mirror
    reproduces exactly. Diffs run over OBSERVED hours in order (an
    absent hour is no observation).

    The hourly aggregate rides ONE pre-combined (hour, key) exchange
    bounded by hours × keys; the flip scan is a driver/vectorized pass
    over that tiny series. Returns (key, n_obs, n_flips)."""
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("trend_flips: empty input")
    hourly = hourly.sort_values([key_col, "_w"], kind="mergesort")
    rows = []
    for key, g in hourly.groupby(key_col, sort=False):
        n = g["_n"].to_numpy()
        d = np.diff(n)
        s = np.sign(d[d != 0])
        flips = int((s[1:] * s[:-1] == -1).sum()) if len(s) > 1 else 0
        rows.append((key, len(n), flips))
    out = pd.DataFrame(rows, columns=[key_col, "n_obs", out_col])
    out["n_obs"] = out["n_obs"].astype("int64")
    out[out_col] = out[out_col].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def user_feature_matrix(ds, *, key_col: str = "user_id",
                        ts_col: str = "ts", type_col: str = "event_type",
                        value_col: str = "value",
                        type_vocab: list[str] = EVENT_TYPES):
    """Feature-matrix builder — the ML-prep fan-in that turns an event
    stream into ONE wide row per entity (counts, per-type counts over a
    closed vocabulary, first/last timestamps, active span, value sum in
    cents): the input every churn/propensity model starts from. The
    whole matrix is ONE fused pass: per-batch pandas groupby emits
    partial rows (count/min/max/sums pre-combined per block), a single
    key exchange sums them — no per-feature passes, no joins between
    feature pipelines.

    Types outside ``type_vocab`` count toward ``n_events`` but get no
    per-type column (closed-vocabulary contract).
    Returns (key, n_events, first_us, last_us, span_s,
    n_<type>..., value_c)."""
    from ray.data.aggregate import Max, Min, Sum

    tcols = [f"n_{t}" for t in type_vocab]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, ts_col, type_col,
                           value_col]).to_pandas()
        # normalize the unit BEFORE integer math: parquet carries us,
        # but in-memory paths can carry s/ns (the span would silently
        # mis-scale by 10^6 either way)
        df["_us"] = df[ts_col].astype("datetime64[us]").astype("int64")
        df["_vc"] = np.rint(df[value_col].to_numpy() * 100
                            ).astype("int64")
        g = df.groupby(key_col)
        out = g.agg(n_events=(ts_col, "size"), first_us=("_us", "min"),
                    last_us=("_us", "max"), value_c=("_vc", "sum"))
        ct = pd.crosstab(df[key_col], df[type_col])  # one C pass
        for t, c in zip(type_vocab, tcols):
            out[c] = (ct[t].reindex(out.index, fill_value=0)
                      if t in ct.columns else 0)
        out = out.reset_index()
        return pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)

    aggs = ([Sum("n_events", alias_name="n_events"),
             Min("first_us", alias_name="first_us"),
             Max("last_us", alias_name="last_us"),
             Sum("value_c", alias_name="value_c")]
            + [Sum(c, alias_name=c) for c in tcols])
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(key_col).aggregate(*aggs))

    def finish(batch: pa.Table) -> pa.Table:
        span = ((batch.column("last_us").to_numpy()
                 - batch.column("first_us").to_numpy())
                // 1_000_000)
        cols = {c: batch.column(c) for c in batch.column_names}
        cols["span_s"] = pa.array(span, pa.int64())
        for c in ["n_events", "value_c"] + tcols:
            cols[c] = pa.array(
                batch.column(c).to_numpy().astype("int64"), pa.int64())
        return pa.table(cols)

    return out.map_batches(finish, batch_format="pyarrow")


def windowed_path_counts(ds, *, key_col: str, ts_col: str,
                         type_col: str, pattern: list[str],
                         window_s: int, num_partitions: int = 32,
                         out_col: str = "n_paths"):
    """Time-bounded path counting — ``subsequence_counts`` with a
    clock: per key, how many ways the stream spells ``pattern`` where
    EACH consecutive step happens within ``window_s`` seconds of the
    previous (strictly later second) — the attribution counter that
    unbounded subsequence counting overstates whenever old context
    should expire. Granularity is whole seconds: a step at second s
    extends steps at seconds [s − window_s, s − 1].

    Same DP as subsequence_counts, but each level needs a WINDOWED
    per-key prefix sum, not a running one. Vectorized without a
    per-key loop via a composite sort key ``user_idx·2³⁵ + second``:
    one global ``np.searchsorted`` pair per level finds every row's
    [lo, hi) window inside its own key block (the key stride separates
    blocks, so a window reaching before a key's first event clamps to
    the block start for free), and the windowed sum is a difference of
    global cumsums. k levels ⇒ k vectorized sweeps.

    ONE row exchange co-locates keys; SQL mirror is the stacked
    ``RANGE BETWEEN W PRECEDING AND 1 PRECEDING`` frame over epoch
    seconds. int64 contract as subsequence_counts. Returns
    (key, n_paths), zeros included."""
    from documentai_ray.stages.dedup import _add_pkey

    if len(pattern) < 1:
        raise ValueError("pattern must have at least one step")
    if window_s < 1:
        raise ValueError("window_s must be >= 1")

    STRIDE = np.int64(1) << np.int64(35)

    def count(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        secs = (g[ts_col].astype("datetime64[us]").astype("int64")
                // 1_000_000).to_numpy()
        uidx = (g[key_col] != g[key_col].shift()).to_numpy().cumsum()
        kk = uidx.astype(np.int64) * STRIDE + secs
        cur = (g[type_col] == pattern[0]).to_numpy("int64")
        for step in pattern[1:]:
            cum = np.concatenate(([0], np.cumsum(cur)))
            hi = np.searchsorted(kk, kk, side="left")          # < s
            lo = np.searchsorted(kk, kk - window_s, side="left")
            win = cum[hi] - cum[lo]
            cur = np.where(g[type_col] == step, win, 0)
        g = g.assign(_c=cur)
        out = (g.groupby(key_col, sort=False)["_c"].sum()
               .reset_index(name=out_col))
        out[out_col] = out[out_col].astype("int64")
        return out

    keyed = _add_pkey(ds.select_columns([key_col, ts_col, type_col]),
                      key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: count(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def clamped_ledger_int(ds, *, key_col: str = "user_id",
                       ts_col: str = "ts", tie_col: str = "event_id",
                       type_col: str = "event_type",
                       value_col: str = "value",
                       debit_types: tuple = ("purchase", "error"),
                       num_partitions: int = 32):
    """Floor-clamped running ledger — per key, ordered by (ts, tie),
    credits add ``round(value·100)`` cents and debits subtract them,
    but the balance can never go below zero: a debit that would
    overdraw is absorbed down to the floor (prepaid-account / lost-
    backorder / token-bucket semantics — NOT a plain sum, because the
    forgiven deficit is gone forever and every later balance shifts).

    The recurrence b_n = max(0, b_{n-1} + d_n) looks sequential but has
    a closed form (Skorokhod reflection at zero):
    ``b_n = A_n − min(0, min_{k≤n} A_k)`` with A the plain running sum.
    So the whole ledger is two vectorized grouped scans (cumsum +
    cummin — both C-level pandas kernels), no per-row loop, no per-key
    Python. A clamp happens at exactly the rows where the running min
    makes a NEW low below zero (A_n < min(0, min_{k<n} A_k)), which the
    same scan yields for free.

    ONE co-locating exchange (crc32(key) % P); each partition ledgers
    all its keys in one pandas pass. Returns per key:
    (key, n_events, final_c, peak_c, n_clamps) — final balance, peak
    balance ever held, and how many debits hit the floor. All int64
    cents; SQL mirror is two stacked window functions (running SUM +
    running MIN) plus a filtered count."""
    from documentai_ray.stages.dedup import _add_pkey

    def ledger(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col], kind="mergesort")
        cents = np.rint(g[value_col].to_numpy() * 100).astype("int64")
        sign = np.where(g[type_col].isin(debit_types), -1, 1)
        g = g.assign(_d=cents * sign)
        gb = g.groupby(key_col, sort=False)
        a = gb["_d"].cumsum()
        g = g.assign(_a=a)
        m = np.minimum(g.groupby(key_col, sort=False)["_a"].cummin(), 0)
        bal = a - m
        # previous row's floor (0 at each key's first row): a NEW low
        # below it means this debit was clamped
        m_prev = m.groupby(g[key_col], sort=False).shift(1).fillna(0)
        clamped = (a < m_prev).astype("int64")
        g = g.assign(_bal=bal, _cl=clamped)
        out = (g.groupby(key_col, sort=False)
               .agg(n_events=("_d", "size"), final_c=("_bal", "last"),
                    peak_c=("_bal", "max"), n_clamps=("_cl", "sum"))
               .reset_index())
        for c in ["n_events", "final_c", "peak_c", "n_clamps"]:
            out[c] = out[c].astype("int64")
        return out

    keyed = _add_pkey(
        ds.select_columns([key_col, ts_col, tie_col, type_col, value_col]),
        key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: ledger(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def cusum_alarms_int(ds, *, key_col: str = "event_type",
                     ts_col: str = "ts", k_extra: int = 1,
                     h_mult: int = 3):
    """CUSUM changepoint monitor over per-key hourly volumes — the
    sequential drift detector threshold alerts miss: S_n =
    max(0, S_{n−1} + (x_n − k)) accumulates only sustained excess over
    the target rate k, so a one-hour spike decays but a persistent
    upshift ramps S past the alarm line h. Same Skorokhod reflection
    closed form as clamped_ledger_int — S_n = A_n − min(0, min_{k≤n}
    A_k) over the drift-adjusted running sum — so the "sequential"
    statistic is two vectorized grouped scans.

    Per key the target is self-calibrated: k = floor(mean hourly
    count) + ``k_extra`` (strictly above the mean so S returns to zero
    under steady load), alarm line h = ``h_mult·k``. The series runs
    over OBSERVED hours in order (absent hour = no observation), the
    trend_flips convention. The hourly aggregate rides ONE pre-combined
    (hour, key) exchange bounded by hours × keys; the reflection is a
    vectorized pass over that tiny series.

    Returns (key, n_obs, k, h, n_alarms, max_s, first_alarm_s) — hours
    with S ≥ h, the peak statistic, and the first alarm hour as epoch
    seconds (−1 when no alarm). All int64; SQL mirror stacks running
    SUM + running MIN windows over the hourly CTE."""
    from ray.data.aggregate import Count

    if k_extra < 0 or h_mult < 1:
        raise ValueError("cusum_alarms_int: k_extra >= 0, h_mult >= 1")

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("cusum_alarms_int: empty input")
    hourly = hourly.sort_values([key_col, "_w"], kind="mergesort")
    gb0 = hourly.groupby(key_col, sort=False)["_n"]
    k = (gb0.transform("sum") // gb0.transform("size") + k_extra)
    h = h_mult * k
    hourly = hourly.assign(_k=k, _h=h, _d=hourly["_n"] - k)
    a = hourly.groupby(key_col, sort=False)["_d"].cumsum()
    hourly = hourly.assign(_a=a)
    m = np.minimum(
        hourly.groupby(key_col, sort=False)["_a"].cummin(), 0)
    s = a - m
    alarm = s >= h
    ws = (hourly["_w"].astype("datetime64[us]").astype("int64")
          // 1_000_000)
    hourly = hourly.assign(_s=s, _al=alarm.astype("int64"),
                           _aw=np.where(alarm, ws, np.int64(2**62)))
    out = (hourly.groupby(key_col, sort=False)
           .agg(n_obs=("_n", "size"), k=("_k", "first"),
                h=("_h", "first"), n_alarms=("_al", "sum"),
                max_s=("_s", "max"), first_alarm_s=("_aw", "min"))
           .reset_index())
    out.loc[out["first_alarm_s"] == 2**62, "first_alarm_s"] = -1
    for c in ["n_obs", "k", "h", "n_alarms", "max_s", "first_alarm_s"]:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def mann_kendall_int(ds, *, key_col: str = "event_type",
                     ts_col: str = "ts", max_obs: int = 4096):
    """Mann–Kendall trend statistic over per-key hourly volumes — the
    nonparametric answer to "is this series drifting?" that completes
    the trend family: trend_flips counts thrash, cusum_alarms_int
    catches sustained level shifts, this scores MONOTONE tendency:
    S = Σ_{i<j} sgn(x_j − x_i) over all time-ordered pairs, immune to
    outlier magnitude (a 100× spike contributes the same ±1 as a +1
    blip) where a least-squares slope is dominated by it.

    The hourly aggregate rides ONE pre-combined (hour, key) exchange
    bounded by hours × keys; the pairwise count runs on that tiny
    series, vectorized across keys at once: keys are pivoted into a
    dense (K, T) NaN-padded matrix and the full pair comparison is a
    (K, T, T) broadcast, chunked over key blocks so memory stays under
    ~16 MB per block regardless of K. Series length is bounded by the
    calendar (T ≤ hours in span, enforced ≤ ``max_obs``), so the T²
    term is a documented constant, not a data-scaled blowup.

    Returns per key: (key, n_obs, n_conc, n_disc, s_stat, trend) with
    trend = sgn(S) ∈ {-1, 0, 1}. All int64, bit-exact in SQL (the
    mirror is a within-key self-join on a.w < b.w summing sign cases).
    """
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("mann_kendall_int: empty input")
    hourly = hourly.sort_values([key_col, "_w"], kind="mergesort")
    sizes = hourly.groupby(key_col, sort=False).size()
    t = int(sizes.max())
    if t > max_obs:
        raise ValueError(
            f"mann_kendall_int: series length {t} exceeds max_obs="
            f"{max_obs}; widen the window unit or raise the bound")
    keys = sizes.index.to_numpy()
    k = len(keys)
    # dense (K, T) with NaN padding; per-key block size keeps the
    # (block, T, T) comparison tensor ~16 MB however many keys exist
    arr = np.full((k, t), np.nan)
    pos = hourly.groupby(key_col, sort=False).cumcount().to_numpy()
    row = np.repeat(np.arange(k), sizes.to_numpy())
    arr[row, pos] = hourly["_n"].to_numpy()
    upper = np.triu(np.ones((t, t), dtype=bool), 1)
    blk = max(1, (16 << 20) // (t * t))
    conc = np.zeros(k, dtype="int64")
    disc = np.zeros(k, dtype="int64")
    for s in range(0, k, blk):
        a = arr[s:s + blk]
        with np.errstate(invalid="ignore"):
            gt = (a[:, None, :] > a[:, :, None]) & upper
            lt = (a[:, None, :] < a[:, :, None]) & upper
        conc[s:s + blk] = gt.sum(axis=(1, 2))
        disc[s:s + blk] = lt.sum(axis=(1, 2))
    s_stat = conc - disc
    out = pd.DataFrame({
        key_col: keys, "n_obs": sizes.to_numpy().astype("int64"),
        "n_conc": conc, "n_disc": disc, "s_stat": s_stat,
        "trend": np.sign(s_stat).astype("int64")})
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def lag_coactivity_int(ds, *, key_col: str = "event_type",
                       ts_col: str = "ts", max_lag_h: int = 24):
    """Lagged co-activity between per-key hourly series — for every
    ordered pair (a, b) of keys, the unnormalized cross-correlation
    dot_ℓ = Σ_t n_a(t)·n_b(t+ℓ) over lags ℓ = 0..``max_lag_h`` and the
    lag that maximizes it (smallest lag wins ties): "errors lead
    purchase drops by 2 hours" is a lag-2 peak the same-hour join
    can't see. Integer products of integer counts — bit-exact in SQL.

    ONE pre-combined (hour, key) exchange; the lag sweep runs on the
    tiny dense matrix: keys pivot to (K, T) int64 with zero fill
    (a missing hour IS zero events, so dense zeros are exact, and the
    SQL mirror's inner join drops the same zero products), then each
    lag is one K×K matmul — L+1 BLAS calls total, no per-pair loop.

    Returns (key_a, key_b, best_lag, best_dot, lag0_dot) for all
    ordered pairs a ≠ b. Lags beyond the span contribute empty sums
    (dot 0); an all-zero sweep reports best_lag 0."""
    from ray.data.aggregate import Count

    if max_lag_h < 0:
        raise ValueError("lag_coactivity_int: max_lag_h >= 0")

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("lag_coactivity_int: empty input")
    w = hourly["_w"].astype("datetime64[us]").astype("int64").to_numpy()
    h = (w - w.min()) // 3_600_000_000
    keys = np.sort(hourly[key_col].unique())
    kidx = {kv: i for i, kv in enumerate(keys)}
    k, t = len(keys), int(h.max()) + 1
    dense = np.zeros((k, t), dtype="int64")
    dense[hourly[key_col].map(kidx).to_numpy(), h] = \
        hourly["_n"].to_numpy()
    best_dot = np.zeros((k, k), dtype="int64")
    best_lag = np.zeros((k, k), dtype="int64")
    lag0 = dense @ dense.T
    for lag in range(0, max_lag_h + 1):
        if lag >= t:
            break
        d = (dense[:, :t - lag] @ dense[:, lag:].T if lag
             else lag0)
        better = d > best_dot  # strict: earliest lag keeps ties
        best_dot[better] = d[better]
        best_lag[better] = lag
    a, b = np.nonzero(~np.eye(k, dtype=bool))
    out = pd.DataFrame({
        "key_a": keys[a], "key_b": keys[b],
        "best_lag": best_lag[a, b], "best_dot": best_dot[a, b],
        "lag0_dot": lag0[a, b]})
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def max_concurrency(ds, *, key_col: str, start_col: str, end_col: str,
                    num_partitions: int = 32):
    """Peak number of SIMULTANEOUSLY open intervals per key — the
    max-overlap-depth statistic (peak concurrent sessions, peak open
    connections) that ``interval_coverage``'s union length deliberately
    erases: ten nested windows and ten disjoint ones can cover the same
    measure but have depths 10 vs 1.

    Classic boundary sweep, made distributed the same way as
    interval_coverage: ONE key-hash exchange co-locates each key's
    intervals (3-column projection only), then each partition resolves
    ALL its keys in one vectorized pass — explode every interval into
    (+1 at start, −1 at end) boundary rows (map-side 2×, still bounded),
    sort by (key, t, delta) so at equal t the −1 sorts FIRST (half-open
    [start, end): touching intervals never overlap), per-key running
    cumsum, per-key max.  Equal (t, delta) runs are permutation-
    invariant for the running max (each step adds the same delta), so
    the sort is deterministic where it matters and the SQL window
    mirror (SUM OVER ORDER BY t, delta ROWS UNBOUNDED PRECEDING, then
    MAX) lands identically.  Zero-length intervals contribute depth 0
    by the same tie rule.

    Output: one row per key ``(key_col, n_intervals, peak)``."""
    from documentai_ray.stages.dedup import _add_pkey

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        s = g[[key_col, start_col]].rename(columns={start_col: "_t"})
        s["_d"] = 1
        e = g[[key_col, end_col]].rename(columns={end_col: "_t"})
        e["_d"] = -1
        b = pd.concat([s, e], ignore_index=True)
        b = b.sort_values([key_col, "_t", "_d"], kind="mergesort")
        run = b.groupby(key_col, sort=False)["_d"].cumsum()
        peak = (run.groupby(b[key_col], sort=False).max()
                .rename("peak").reset_index())
        n = (g.groupby(key_col, sort=False).size()
             .rename("n_intervals").reset_index())
        out = n.merge(peak, on=key_col)
        out["n_intervals"] = out["n_intervals"].astype("int64")
        out["peak"] = out["peak"].astype("int64")
        return out

    keyed = _add_pkey(ds.select_columns([key_col, start_col, end_col]),
                      key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: sweep(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def attribution_linear(ds, *, key_col: str, ts_col: str, type_col: str,
                       conversion_type: str, window: int,
                       credit_unit: int = 1_000_000,
                       num_partitions: int = 32):
    """Linear multi-touch attribution — every conversion looks BACK at
    its preceding touchpoints (non-conversion events of the same key
    with ts in the half-open window ``[conv_ts − window, conv_ts)``,
    strict on the right so same-timestamp events never self-credit) and
    splits ``credit_unit`` equally among them, floor division per
    conversion (``credit_unit // k``, the SQL ``//``).  The funnel family
    counts ordered completions; attribution answers the budget question
    — WHICH channel types earned the conversions.

    Distributed plan: ONE key-hash exchange, then each partition
    resolves ALL its keys in one vectorized pass with NO per-conversion
    loop: sort by (key, ts), composite key = key_code·SHIFT + rel_ts so
    a single ``np.searchsorted`` pair finds every conversion's window
    [lo, hi) (the left target clamps at rel 0, so windows never leak
    into a neighbouring key's range); touch counts are prefix-sum
    differences; per-row credit is the classic range-add trick (+q at
    lo, −q at hi, cumsum), collected only on touch rows.  Partials
    pre-combine to ≤|types| rows per partition before a tiny final
    groupby.  SHIFT·max_key_code must stay below 2⁶³ — asserted; raise
    ``num_partitions`` if a partition ever holds too many keys.

    Output: one row per touch event type ``(type_col, n_touches,
    credit_ppm)`` where n_touches counts (touch, conversion) pairs."""
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        t = g[ts_col].to_numpy().astype("int64")
        rel = t - int(t.min()) if len(t) else t
        codes = pd.factorize(g[key_col], sort=False)[0].astype("int64")
        shift = int(rel.max()) + window + 2 if len(rel) else 1
        assert codes.max(initial=0) < (2**62) // max(shift, 1), \
            "attribution_linear: composite key overflow — raise " \
            "num_partitions"
        comp = codes * shift + rel
        is_touch = (g[type_col] != conversion_type).to_numpy()
        pref = np.concatenate([[0], np.cumsum(is_touch)])
        cpos = np.flatnonzero(~is_touch)
        lo = np.searchsorted(comp, codes[cpos] * shift
                             + np.maximum(rel[cpos] - window, 0), "left")
        hi = np.searchsorted(comp, comp[cpos], "left")
        k = pref[hi] - pref[lo]
        live = k > 0
        q = np.zeros(len(cpos), dtype="int64")
        q[live] = credit_unit // k[live]
        credit_d = np.zeros(len(g) + 1, dtype="int64")
        np.add.at(credit_d, lo[live], q[live])
        np.add.at(credit_d, hi[live], -q[live])
        count_d = np.zeros(len(g) + 1, dtype="int64")
        np.add.at(count_d, lo[live], 1)
        np.add.at(count_d, hi[live], -1)
        row_credit = np.cumsum(credit_d)[:len(g)]
        row_count = np.cumsum(count_d)[:len(g)]
        out = (pd.DataFrame({type_col: g[type_col].to_numpy()[is_touch],
                             "n_touches": row_count[is_touch],
                             "credit_ppm": row_credit[is_touch]})
               .groupby(type_col, as_index=False).sum())
        out = out[out["n_touches"] > 0]
        out["n_touches"] = out["n_touches"].astype("int64")
        out["credit_ppm"] = out["credit_ppm"].astype("int64")
        return out

    keyed = _add_pkey(ds.select_columns([key_col, ts_col, type_col]),
                      key_col, num_partitions)
    return (keyed.groupby("_pkey")
            .map_groups(lambda g: attribute(g.drop(columns=["_pkey"])),
                        batch_format="pandas")
            .groupby(type_col)
            .aggregate(Sum("n_touches", alias_name="n_touches"),
                       Sum("credit_ppm", alias_name="credit_ppm")))


def changepoint_binary_int(ds, *, key_col: str = "event_type",
                           ts_col: str = "ts"):
    """Single-changepoint LOCALIZATION per key — binary segmentation's
    first split: the hour t* that maximizes the between-segment term
    B(t) = S1²/n1 + S2²/n2 of the hourly-count series (equivalently,
    the split with the largest SSE reduction; S²/n is constant in t).
    ``cusum_alarms_int`` DETECTS that a sustained shift happened and when the
    statistic crossed the line; this answers WHERE the level actually
    moved, the estimator binary segmentation recurses on.

    Exactness: scores are fractions with t-dependent denominators, so
    the op is DEFINED on the milli-floored integer score
    ``score_milli(t) = 1000·(S1²·n2 + S2²·n1) // (n1·n2)`` (Python
    bigints; HUGEINT in SQL) with argmax ties broken toward the
    smallest t — both engines rank the identical integer.  Series runs
    over OBSERVED hours in order (the trend_flips convention).

    Physical plan: ONE pre-combined (hour, key) exchange bounded by
    hours × keys; the T−1 split scan is a prefix-sum fold over that
    tiny series on the driver (the kendall/kappa pattern — only the
    bounded histogram ever leaves the cluster).

    Returns per key: (key, n_obs, split_idx [1-based size of the left
    segment], split_hour_s [epoch seconds of the first right-segment
    hour], mean_l_milli, mean_r_milli, score_milli).  Keys with a
    single observed hour have no split and raise."""
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("changepoint_binary_int: empty input")
    hourly = hourly.sort_values([key_col, "_w"], kind="mergesort")

    rows = []
    for key, g in hourly.groupby(key_col, sort=True):
        c = [int(v) for v in g["_n"]]
        tt = len(c)
        if tt < 2:
            raise ValueError(
                f"changepoint_binary_int: key {key!r} has a single "
                "observed hour — no split exists")
        stot = sum(c)
        best = None
        s1 = 0
        for t in range(1, tt):
            s1 += c[t - 1]
            s2 = stot - s1
            n2 = tt - t
            score = 1000 * (s1 * s1 * n2 + s2 * s2 * t) // (t * n2)
            if best is None or score > best[0]:
                best = (score, t, s1, s2)
        score, t, s1, s2 = best
        hr = (g["_w"].iloc[t].to_datetime64().astype("datetime64[us]")
              .astype("int64")) // 1_000_000
        rows.append((key, tt, t, int(hr), 1000 * s1 // t,
                     1000 * s2 // (tt - t), score))

    out = pd.DataFrame(rows, columns=[key_col, "n_obs", "split_idx",
                                      "split_hour_s", "mean_l_milli",
                                      "mean_r_milli", "score_milli"])
    for col in out.columns[1:]:
        out[col] = out[col].astype("int64")
    return out


def seasonality_strength_int(ds, *, key_col: str = "event_type",
                             ts_col: str = "ts"):
    """Hour-of-day seasonality strength per key — one-way ANOVA eta² =
    SS_between / SS_total of the hourly-count series grouped by hour of
    day, in exact integer ppm.  The design is BALANCED by construction
    (the window is whole calendar days covering the data, dense zeros
    counted, so every hour-of-day has exactly D = days slots), which is
    what clears the fractions: n·Σ_h S_h²/n_h − S² = 24·ΣS_h² − S² and
    n·Σc² − S² = 24D·Σc² − S², both integers, and — the free lunch —
    neither needs the dense grid materialized: zero cells contribute 0
    to Σc² and to every S_h, so the OBSERVED (hour, key) histogram
    suffices.  eta² ∈ [0, 1] by Cauchy–Schwarz, so floor ≡ trunc.

    trend/cusum/changepoint ask about drift along time; this asks about
    structure WITHIN the day (crawl-rate shaping, peak-hour budgeting).

    ONE pre-combined (hour, key) exchange bounded by hours × keys;
    24-value driver folds.  Returns per key: (key, days, s_total,
    eta2_ppm, peak_hour, peak_share_ppm, trough_hour) — peak/trough
    over all 24 hours-of-day (absent → 0), smallest-hour ties."""
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("seasonality_strength_int: empty input")
    hrs = hourly["_w"].astype("datetime64[us]")
    d0 = hrs.min().normalize()
    d1 = hrs.max().normalize()
    days = (d1 - d0).days + 1
    hourly = hourly.assign(_h=hrs.dt.hour.astype("int64"))

    rows = []
    for key, g in hourly.groupby(key_col, sort=True):
        c = [int(v) for v in g["_n"]]
        s = sum(c)
        sc2 = sum(v * v for v in c)
        sh = [0] * 24
        for h, v in zip(g["_h"], c):
            sh[int(h)] += v
        ssh2 = sum(v * v for v in sh)
        den = 24 * days * sc2 - s * s
        if den == 0:
            raise ValueError(
                f"seasonality_strength_int: constant series for {key!r}")
        eta2 = 1_000_000 * (24 * ssh2 - s * s) // den
        peak = max(range(24), key=lambda h: (sh[h], -h))
        trough = min(range(24), key=lambda h: (sh[h], h))
        rows.append((key, days, s, eta2, peak,
                     1_000_000 * sh[peak] // s, trough))

    out = pd.DataFrame(rows, columns=[key_col, "days", "s_total",
                                      "eta2_ppm", "peak_hour",
                                      "peak_share_ppm", "trough_hour"])
    for col in out.columns[1:]:
        out[col] = out[col].astype("int64")
    return out


def _median2(sorted_vals: np.ndarray) -> int:
    """2 × median of a sorted integer array (doubled-unit convention)."""
    n = len(sorted_vals)
    if n % 2:
        return 2 * int(sorted_vals[n // 2])
    return int(sorted_vals[n // 2 - 1]) + int(sorted_vals[n // 2])


def theil_sen_int(ds, *, key_col: str = "event_type", ts_col: str = "ts",
                  max_obs: int = 4096):
    """Theil–Sen robust trend slope per key, in exact doubled-milli
    units — the MAGNITUDE companion to ``mann_kendall_int``'s direction-only S:
    the median of all pairwise slopes (c_j − c_i)/(x_j − x_i) over the
    hourly-count series, immune to outlier hours the OLS slope chases.
    Slopes are DEFINED trunc-milli (sign · 1000|dy| // dx, the SQL
    ``//``) so both engines rank identical integers, and the median is
    the repo's doubled-unit convention (even counts stay integer).
    x = epoch hours, so a gap of k missing hours counts k in dx.

    ONE pre-combined (hour, key) exchange bounded by hours × keys
    (documented calendar bound: T ≤ ``max_obs`` per key — raises
    beyond, the ``mann_kendall_int`` contract); the T² pair fold is a
    vectorized numpy triangle per key on the driver histogram.

    Returns per key: (key, n_obs, n_pairs, slope_med_x2_milli)."""
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("theil_sen_int: empty input")
    hourly = hourly.sort_values([key_col, "_w"], kind="mergesort")
    x_all = (hourly["_w"].astype("datetime64[us]").astype("int64")
             // 3_600_000_000)

    rows = []
    for key, g in hourly.groupby(key_col, sort=True):
        x = x_all.loc[g.index].to_numpy()
        c = g["_n"].to_numpy().astype("int64")
        t = len(c)
        if t < 2:
            raise ValueError(f"theil_sen_int: key {key!r} has a single "
                             "observed hour")
        if t > max_obs:
            raise ValueError("theil_sen_int: series longer than max_obs "
                             "— raise the bound knowingly (T² pairs)")
        dy = c[None, :] - c[:, None]
        dx = x[None, :] - x[:, None]
        iu = np.triu_indices(t, k=1)
        dy, dx = dy[iu], dx[iu]
        slope = np.sign(dy) * (1000 * np.abs(dy) // dx)
        slope.sort()
        rows.append((key, t, len(slope), _median2(slope)))

    out = pd.DataFrame(rows, columns=[key_col, "n_obs", "n_pairs",
                                      "slope_med_x2_milli"])
    for col in out.columns[1:]:
        out[col] = out[col].astype("int64")
    return out


def interarrival_stats(ds, *, key_col: str = "event_type",
                       ts_col: str = "ts", tie_col: str = "event_id",
                       num_partitions: int = 32):
    """Inter-arrival gap distribution per key — the evidence behind
    every session-threshold and rate-limit choice (sessions ASSUME a
    gap cutoff; this reports the actual gap quantiles): consecutive
    gaps in whole seconds, ordered by (ts, tie), per key.  min / max /
    doubled-unit median (even counts stay integer).

    ONE key-hash exchange co-locates each key's events (3-column
    projection); each partition diffs ALL its keys in one vectorized
    pass (sort + grouped shift — no per-key loop), pre-combines to a
    per-key gap-value histogram, and a second tiny exchange sums
    histograms so the median is exact over the full key (the
    grouped_median_int plan).  Gap seconds floor (µs // 10⁶ of the
    difference — positive, so floor ≡ trunc ≡ SQL date-diff)."""
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col], kind="mergesort")
        t = g[ts_col].astype("datetime64[us]").astype("int64")
        prev = t.groupby(g[key_col], sort=False).shift(1)
        ok = prev.notna()
        gap = ((t[ok] - prev[ok].astype("int64")) // 1_000_000)
        out = (pd.DataFrame({key_col: g[key_col][ok], "_gap": gap})
               .groupby([key_col, "_gap"], as_index=False).size()
               .rename(columns={"size": "_n"}))
        out["_gap"] = out["_gap"].astype("int64")
        out["_n"] = out["_n"].astype("int64")
        return out

    keyed = _add_pkey(ds.select_columns([key_col, ts_col, tie_col]),
                      key_col, num_partitions)
    hist = (keyed.groupby("_pkey")
            .map_groups(lambda g: gaps(g.drop(columns=["_pkey"])),
                        batch_format="pandas")
            .groupby([key_col, "_gap"])
            .aggregate(Sum("_n", alias_name="_n"))).to_pandas()

    from documentai_ray.stages.aggregates import _median2_weighted

    rows = []
    for key, g in hist.groupby(key_col, sort=True):
        g = g.sort_values("_gap", kind="mergesort")
        vals = g["_gap"].to_numpy().astype("int64")
        cnts = g["_n"].to_numpy().astype("int64")
        rows.append((key, int(cnts.sum()), int(vals[0]), int(vals[-1]),
                     _median2_weighted(vals, cnts)))

    out = pd.DataFrame(rows, columns=[key_col, "n_gaps", "min_gap_s",
                                      "max_gap_s", "med_gap_x2_s"])
    for col in out.columns[1:]:
        out[col] = out[col].astype("int64")
    return out


def _dense_hourly_matrix(ds, *, key_col: str, ts_col: str,
                         max_obs: int) -> tuple:
    """Shared dense-series builder for the whole-grid statistics
    (acf_lag_int, runs_test_int): per-key hourly counts laid on the
    GLOBAL hour grid [floor_hour(min ts), floor_hour(max ts)] with
    explicit zeros — absence IS a measurement for autocorrelation and
    runs (a silent gap reads as activity continuing, which is exactly
    the error these statistics exist to catch).

    ONE pre-combined (hour, key) exchange bounded by hours × keys; the
    dense (K, H) int64 matrix is a driver-side fold over that bounded
    histogram (H ≤ ``max_obs`` enforced with the standard loud raise —
    the calendar bounds it, not the data size).  Returns
    (sorted key array, H, (K, H) count matrix)."""
    from ray.data.aggregate import Count

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_w", pc.floor_temporal(batch.column(ts_col), unit="hour"))

    hourly = (ds.map_batches(add_window, batch_format="pyarrow")
              .groupby(["_w", key_col])
              .aggregate(Count(alias_name="_n"))).to_pandas()
    if hourly.empty:
        raise ValueError("dense hourly series: empty input")
    t = hourly["_w"].astype("datetime64[us]").astype("int64")
    h0 = int(t.min())
    off = ((t - h0) // 3_600_000_000).to_numpy()
    h = int(off.max()) + 1
    if h > max_obs:
        raise ValueError(
            f"dense hourly series: span {h} hours exceeds max_obs="
            f"{max_obs}; widen the window unit or raise the bound")
    keys = np.sort(hourly[key_col].unique())
    kpos = {k: i for i, k in enumerate(keys)}
    mat = np.zeros((len(keys), h), dtype="int64")
    rows = hourly[key_col].map(kpos).to_numpy()
    mat[rows, off] = hourly["_n"].to_numpy()
    return keys, h, mat


def acf_lag_int(ds, *, key_col: str = "event_type", ts_col: str = "ts",
                lags: tuple = (1, 24), max_obs: int = 8784):
    """Autocorrelation of the dense hourly series per key at fixed
    lags, exact integer ppm — the PERIODICITY detector the trend family
    can't see: ``mann_kendall_int``/``theil_sen_int`` score monotone
    drift, ``seasonality_strength_int`` scores hour-of-day structure via ANOVA
    buckets; ACF(24) measures whether the series actually REPEATS at
    day scale (and ACF(1) how sticky adjacent hours are), phase and
    all, which bucket variance analysis erases.

    Exactness: with n = H (grid length) and S = Σx, the mean-centered
    products clear to integers via y_t = n·x_t − S:
    acf(k) = Σ_{t<n−k} y_t·y_{t+k} / Σ y_t², both integer sums
    (the usual biased estimator up to the common n² factor, which
    cancels).  Reported as trunc-toward-zero ppm (SQL ``//`` truncates;
    sign split keeps both engines identical on negative numerators).
    Python-int folds — the numerator times 10⁶ can clear int64.

    Physical plan: the ONE bounded (hour, key) exchange of
    ``_dense_hourly_matrix``; everything after runs on K × H ≤
    keys × calendar-hours integers driver-side.  Raises on a constant
    series (den = 0: acf undefined)."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    for k in lags:
        if not 0 < k < h:
            raise ValueError(f"acf_lag_int: lag {k} outside series "
                             f"length {h}")
    recs = []
    for i, key in enumerate(keys):
        x = [int(v) for v in mat[i]]
        s = sum(x)
        y = [h * v - s for v in x]
        den = sum(v * v for v in y)
        if den == 0:
            raise ValueError(f"acf_lag_int: constant series for {key!r}")
        row = [key, h]
        for k in lags:
            num = sum(a * b for a, b in zip(y[:-k], y[k:]))
            ppm = (1_000_000 * num // den if num >= 0
                   else -((1_000_000 * -num) // den))
            row.append(ppm)
        recs.append(tuple(row))
    cols = [key_col, "n_obs"] + [f"acf{k}_ppm" for k in lags]
    out = pd.DataFrame(recs, columns=cols)
    for col in cols[1:]:
        out[col] = out[col].astype("int64")
    return out


def runs_test_int(ds, *, key_col: str = "event_type", ts_col: str = "ts",
                  max_obs: int = 8784):
    """Wald–Wolfowitz runs test of the dense hourly series against its
    own median, exact integers — the LEVEL-CLUSTERING question none of
    the trend family asks: trend_flips counts direction thrash,
    ``mann_kendall_int`` scores monotone drift; this asks whether
    above-median and below-median hours arrive in long blocks (bursty
    regimes, R far below expectation) or alternate (R above).

    Classic construction: binarize each hour against the doubled-unit
    median of the DENSE series (zeros included), DROP hours exactly at
    the median (the standard runs-test convention — a tie is neither
    side), count runs R = 1 + sign changes over the kept subsequence.
    E[R] = 1 + 2·n₁·n₂/(n₁+n₂) is rational → exact ppm (all positive,
    floor ≡ trunc); ``clustered`` = [R·(n₁+n₂) < (n₁+n₂) + 2·n₁·n₂]
    compares against the UN-truncated expectation — integer-exact.

    Same single bounded exchange as acf_lag_int; driver folds on the
    calendar-bounded series.  Raises when every hour ties the median
    (n₁+n₂ = 0: no runs to count)."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    recs = []
    for i, key in enumerate(keys):
        x = mat[i]
        med2 = _median2(np.sort(x))
        kept = x[2 * x != med2]
        if kept.size == 0:
            raise ValueError(
                f"runs_test_int: every hour ties the median for {key!r}")
        signs = (2 * kept > med2)
        n1 = int(signs.sum())
        n2 = int(kept.size) - n1
        runs = 1 + int((signs[1:] != signs[:-1]).sum())
        nk = n1 + n2
        exp_ppm = 1_000_000 + (2_000_000 * n1 * n2) // nk
        clustered = int(runs * nk < nk + 2 * n1 * n2)
        recs.append((key, h, med2, n1, n2, runs, exp_ppm, clustered))
    out = pd.DataFrame(recs, columns=[key_col, "n_obs", "med_x2",
                                      "n_above", "n_below", "n_runs",
                                      "exp_runs_ppm", "clustered"])
    for col in out.columns[1:]:
        out[col] = out[col].astype("int64")
    return out


def haar_energy_int(ds, *, key_col: str = "event_type",
                    ts_col: str = "ts", max_obs: int = 8784):
    """Unnormalized Haar wavelet energy decomposition of the dense
    hourly series per key, exact integers — the MULTI-SCALE variance
    question nothing else in the series family asks: AT WHICH TIMESCALE
    does the variance live?  acf probes one lag at a time,
    ``seasonality_strength_int`` one fixed grouping; the Haar pyramid splits
    the total centered energy into per-octave detail energies (level 1
    = hour-to-hour jitter, level 5 = 16–32 h ≈ daily structure, level 9
    = 256 h regime shifts) in one pass.

    Exactness: the series is truncated to the leading m = 2^L samples
    (L = ⌊log₂ H⌋ — a dyadic window is what makes the pyramid total;
    the truncation is the documented contract).  With unnormalized
    pairwise sums/differences a_l, d_l the Parseval identity
    m·Σx² − A² = Σ_l E_l·(m/2^l), E_l = Σ d_l², holds in INTEGERS —
    asserted per key — so each level's share_ppm = 10⁶·E_l·(m/2^l) // T
    is exact (floor ≡ trunc: all terms ≥ 0).

    Same ONE bounded (hour, key) exchange as the other dense-grid
    statistics; the pyramid folds driver-side in Python ints (no
    overflow at any scale).  Returns one row per (key, level):
    (key, n_used, level, e_scaled, share_ppm).  Raises on a constant
    dyadic window (T = 0: no energy to decompose)."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    lmax = h.bit_length() - 1
    m = 1 << lmax
    if m < 2:
        raise ValueError("haar_energy_int: need at least 2 grid hours")
    recs = []
    for i, key in enumerate(keys):
        cur = [int(v) for v in mat[i, :m]]
        a_tot = sum(cur)
        x2 = sum(v * v for v in cur)
        total = m * x2 - a_tot * a_tot
        if total == 0:
            raise ValueError(
                f"haar_energy_int: constant dyadic window for {key!r}")
        scaled = []
        for lvl in range(1, lmax + 1):
            nxt, e = [], 0
            for j in range(0, len(cur), 2):
                d = cur[j] - cur[j + 1]
                nxt.append(cur[j] + cur[j + 1])
                e += d * d
            scaled.append(e * (m >> lvl))
            cur = nxt
        assert sum(scaled) == total, "Haar Parseval identity violated"
        for lvl, es in enumerate(scaled, 1):
            recs.append((key, m, lvl, es, 1_000_000 * es // total))
    out = pd.DataFrame(recs, columns=[key_col, "n_used", "level",
                                      "e_scaled", "share_ppm"])
    for col in out.columns[1:]:
        out[col] = out[col].astype("int64")
    return out


def ewma_backtest_int(ds, *, key_col: str = "event_type",
                      ts_col: str = "ts", window: int = 8,
                      max_obs: int = 8784):
    """One-step forecast backtest of a dyadic-weight trailing smoother
    over the dense hourly series, exact integers — the short-memory
    companion to seasonal_naive_mae's same-hour-yesterday predictor:
    that one bets on periodicity, this one on local momentum
    (prediction for hour t = Σ_{k=1..W} 2^{W−k}·x_{t−k} / (2^W − 1),
    the truncated-EWMA whose halving weights make the denominator the
    Mersenne constant 2^W − 1 and every error integer-exact when kept
    in 255ths: err_t = |255·x_t − Σ 2^{W−k}·x_{t−k}|).

    The first W hours have no full history and are skipped (documented:
    n_eval = H − W).  Same single bounded exchange; the backtest is one
    vectorized numpy shift-and-add across ALL keys at once.  Returns
    (key, n_eval, sae_scaled, mae_milli) — sae_scaled in units of 2^W − 1 — with
    mae_milli = 1000·sae // (255·n_eval) — floor ≡ trunc (all ≥ 0)."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    if h <= window:
        raise ValueError(
            f"ewma_backtest_int: grid span {h} <= window {window}")
    denom = (1 << window) - 1
    pred = np.zeros((mat.shape[0], h - window), dtype="int64")
    for k in range(1, window + 1):
        pred += (1 << (window - k)) * mat[:, window - k:h - k]
    err = np.abs(denom * mat[:, window:] - pred)
    sae = err.sum(axis=1)
    n_eval = h - window
    out = pd.DataFrame({
        key_col: keys,
        "n_eval": np.full(len(keys), n_eval, dtype="int64"),
        "sae_scaled": sae.astype("int64"),
        "mae_milli": (1000 * sae) // (denom * n_eval)})
    out["mae_milli"] = out["mae_milli"].astype("int64")
    return out


def conversion_lag(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                   type_col: str = "event_type",
                   from_type: str = "signup", to_type: str = "purchase",
                   num_partitions: int = 32):
    """First-touch conversion lag per user: seconds from the user's
    FIRST ``from_type`` event to their first ``to_type`` event strictly
    after it — the funnel-TIMING metric the funnel family leaves out
    (a conversion funnel counts who converts, attribution says which
    touches earn it; this measures HOW LONG conversion takes, the
    number LTV windows and re-engagement deadlines are set from).
    Users who never convert after their first touch emit no row — the
    denominator lives in the conversion funnel, by design.

    ONE key-hash exchange of the (key, ts, type) projection filtered
    to the two event types AT THE READ-side map (everything else never
    shuffles); each partition resolves ALL its users in two vectorized
    groupby-min passes (no per-user loop).  Lag floors to whole
    seconds (non-negative, so floor ≡ trunc ≡ SQL epoch diff //)."""
    from documentai_ray.stages.dedup import _add_pkey

    def prefilter(batch: pa.Table) -> pa.Table:
        mask = pc.or_(pc.equal(batch.column(type_col), from_type),
                      pc.equal(batch.column(type_col), to_type))
        return batch.filter(mask)

    keyed = _add_pkey(
        ds.select_columns([key_col, ts_col, type_col])
        .map_batches(prefilter, batch_format="pyarrow"),
        key_col, num_partitions)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        t = g[ts_col].astype("datetime64[us]").astype("int64")
        src = g[g[type_col] == from_type]
        first = t[src.index].groupby(src[key_col], sort=False).min()
        dst = g[g[type_col] == to_type].copy()
        dst["_t"] = t[dst.index]
        dst["_t0"] = dst[key_col].map(first)
        dst = dst[dst["_t0"].notna() & (dst["_t"] > dst["_t0"])]
        if dst.empty:
            return pd.DataFrame({key_col: pd.Series([], dtype=g[key_col].dtype),
                                 "lag_s": pd.Series([], dtype="int64")})
        conv = dst.groupby(key_col, sort=False).agg(
            _t=("_t", "min"), _t0=("_t0", "first")).reset_index()
        conv["lag_s"] = ((conv["_t"] - conv["_t0"].astype("int64"))
                         // 1_000_000).astype("int64")
        return conv[[key_col, "lag_s"]]

    return (keyed.groupby("_pkey")
            .map_groups(lambda g: resolve(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def markov_kstep_int(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     type_col: str = "event_type",
                     tiebreak_col: str = "event_id", steps: int = 4,
                     num_partitions: int = 64):
    """k-step Markov forecast from the per-key transition counts —
    the FORWARD question the ``transitions_per_key`` census doesn't
    answer: starting from a uniform state mix, where does the process
    concentrate after k hops?  (The k-step distribution is the finite-
    horizon stand-in for the stationary distribution, which is
    irrational in general — a fixed k with per-step truncation is what
    both engines can reproduce bit-exactly.)

    Arithmetic contract: transition probabilities are trunc-ppm
    p_ij = 10⁶·n_ij // n_i (all ≥ 0 so floor ≡ trunc), the start
    vector is 10⁶ // T per type (T types; Σ may undershoot 10⁶ by the
    floor remainder — documented), and each step is
    v'_j = (Σ_i v_i·p_ij) // 10⁶ — sum THEN floor, exactly once per
    step.  The truncation order IS the op definition; the SQL mirror
    applies the identical fold through k generated CTEs.

    Physical plan: the transition census rides
    ``transitions_per_key``'s exchanges (events shuffle once, partials
    are ≤ P·|types|²); the k-step fold runs on the ≤|types|² matrix
    driver-side.  Returns (type, p0_ppm, pk_ppm).  Raises if a type
    ever receives mass but has no outgoing row (n_i = 0: its column
    would silently leak mass)."""
    tr = transitions_per_key(
        ds, key_col=key_col, ts_col=ts_col, type_col=type_col,
        tiebreak_col=tiebreak_col, num_partitions=num_partitions
    ).to_pandas()
    if tr.empty:
        raise ValueError("markov_kstep_int: no transitions")
    types = sorted(set(tr["prev_type"]) | set(tr["next_type"]))
    idx = {t: i for i, t in enumerate(types)}
    tn = len(types)
    n = [[0] * tn for _ in range(tn)]
    for p_, nx, c in tr.itertuples(index=False):
        n[idx[p_]][idx[nx]] = int(c)
    row = [sum(r) for r in n]
    p = [[(1_000_000 * n[i][j] // row[i]) if row[i] else 0
          for j in range(tn)] for i in range(tn)]
    v0 = [1_000_000 // tn] * tn
    v = list(v0)
    for _ in range(steps):
        if any(v[i] and not row[i] for i in range(tn)):
            bad = types[next(i for i in range(tn)
                             if v[i] and not row[i])]
            raise ValueError(
                f"markov_kstep_int: type {bad!r} holds mass but has no "
                "outgoing transitions (absorbing leak)")
        v = [sum(v[i] * p[i][j] for i in range(tn)) // 1_000_000
             for j in range(tn)]
    out = pd.DataFrame({type_col: types,
                        "p0_ppm": pd.array(v0, dtype="int64"),
                        "pk_ppm": pd.array(v, dtype="int64")})
    return out


def dispersion_index_int(ds, *, key_col: str = "event_type",
                         ts_col: str = "ts", max_obs: int = 8784):
    """Index of dispersion (Fano factor) of the dense hourly series per
    key, exact integer ppm — the POISSON question none of the series
    family asks: acf/runs/haar score time STRUCTURE, this scores the
    count DISTRIBUTION against the Poisson yardstick var = mean
    (D ≈ 1: memoryless arrivals; D ≫ 1: overdispersed/bursty — the
    same total events arriving in clumps; D < 1: regular/underdispersed,
    rate-limited or scheduled traffic).

    Exactness: population variance over the dense grid clears to
    integers via n·Σx² − S² (≥ 0 by Cauchy–Schwarz), so
    D = var/mean = (n·Σx² − S²)/(n·S) is rational →
    ``dispersion_ppm = 10⁶·(n·Σx² − S²) // (n·S)`` exact floor (all
    terms ≥ 0), and ``overdispersed`` compares the UN-truncated sides
    (n·Σx² − S² > n·S).  Zeros are counted (absence is a measurement —
    dropping empty hours would bias D down exactly when burstiness is
    highest).

    Physical plan: the ONE bounded (hour, key) exchange of
    ``_dense_hourly_matrix``; the fold is three sums per key on the
    K × H ≤ keys × calendar-hours matrix driver-side.  Every present
    key has S ≥ 1, so the ratio is always defined."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    recs = []
    for i, key in enumerate(keys):
        x = [int(v) for v in mat[i]]
        s = sum(x)
        q = sum(v * v for v in x)
        num = h * q - s * s
        den = h * s
        recs.append((key, h, s, 1_000_000 * num // den, num > den))
    out = pd.DataFrame(recs, columns=[key_col, "n_obs", "total",
                                      "dispersion_ppm", "overdispersed"])
    for c in ("n_obs", "total", "dispersion_ppm"):
        out[c] = out[c].astype("int64")
    out["overdispersed"] = out["overdispersed"].astype(bool)
    return out


def leadlag_beta_int(ds, *, x_type: str = "click", y_type: str = "purchase",
                     key_col: str = "event_type", ts_col: str = "ts",
                     lags: tuple = (0, 1, 2, 3), max_obs: int = 8784):
    """Lead–lag regression slope between two keys' dense hourly series,
    exact integer ppm: for each lag k, the slope of response y on
    predictor x shifted k hours earlier —
    β_k = Σ_{t<n−k} x̃_t·ỹ_{t+k} / Σ x̃² with FULL-series mean
    centering (the acf_lag_int convention: x̃_t = n·x_t − Sx clears
    every fraction; the n² factors cancel in the ratio).

    The question is the CENTERED complement to ``lag_coactivity_int``'s
    raw dot: two busy series co-move trivially through their shared
    baseline rate — the uncentered Σ n_a(t)·n_b(t+ℓ) peaks wherever
    volume is high.  Removing the means leaves "extra y per extra x, k
    hours later", signed: β > 0 at k = 2 reads "clicks lead purchases
    by two hours"; β < 0 reads suppression.  trunc-toward-zero ppm with
    the sign split (SQL ``//`` truncates).

    Same single bounded exchange (``_dense_hourly_matrix``); the sweep
    is |lags| dot products on two length-H integer vectors driver-side.
    Raises if either key is absent or the predictor is constant
    (β undefined)."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    kpos = {k: i for i, k in enumerate(keys)}
    for t in (x_type, y_type):
        if t not in kpos:
            raise ValueError(f"leadlag_beta_int: key {t!r} absent")
    for k in lags:
        if not 0 <= k < h:
            raise ValueError(f"leadlag_beta_int: lag {k} outside series "
                             f"length {h}")
    x = [int(v) for v in mat[kpos[x_type]]]
    y = [int(v) for v in mat[kpos[y_type]]]
    sx, sy = sum(x), sum(y)
    xc = [h * v - sx for v in x]
    yc = [h * v - sy for v in y]
    den = sum(v * v for v in xc)
    if den == 0:
        raise ValueError(
            f"leadlag_beta_int: constant predictor series {x_type!r}")
    recs = []
    for k in lags:
        num = sum(a * b for a, b in zip(xc[: h - k if k else None], yc[k:]))
        ppm = (1_000_000 * num // den if num >= 0
               else -((1_000_000 * -num) // den))
        recs.append((int(k), h, ppm))
    out = pd.DataFrame(recs, columns=["lag", "n_obs", "beta_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def km_survival_int(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                    horizon_days: int = 30, censor_gap_hours: int = 6,
                    num_partitions: int = 64):
    """Kaplan–Meier survival curve over user lifetimes, exact integer
    ppm — the survival-analysis question none of the engagement family
    asks: weekly retention counts who RETURNS in week k,
    ``session_windows`` cuts activity into visits, but neither estimates
    "what fraction of users are still alive at day d" under CENSORING
    — users still active at the horizon haven't died, and counting
    them as either dead or immortal biases the curve (the exact error
    KM exists to fix).

    Definitions (each a documented contract):
    - lifetime_d = (last_ts − first_ts) // 1 day, per user (whole
      days; single-event users live 0 days);
    - a death is OBSERVED iff the user's last event precedes the
      corpus max ts by ≥ ``censor_gap_hours`` (they went quiet with
      room to have returned; hour-granular because the corpus ships
      a synthetic month where every user stays active to the final
      days — a day-scale gap would observe nothing); later users are
      CENSORED at their lifetime;
    - at day d: at_risk n_d = #{lifetime ≥ d} (censored users count
      while they last — the KM point), deaths d_d = #{observed ∧
      lifetime = d};
    - the curve is the per-step trunc-ppm fold (the ``markov_kstep_int``
      discipline: the truncation order IS the op): s_{−1} = 10⁶,
      s_d = s_{d−1}·(n_d − d_d) // n_d, carried unchanged when
      n_d = 0.  Deaths past ``horizon_days`` are invisible (the haar
      dyadic-truncation analogue — a fixed step count is what both
      engines can generate).

    Physical plan: ONE key-hash exchange for per-user (min, max) ts
    (bounded by users), the corpus max folded as a scalar, then a
    ≤ horizon×2 histogram of (lifetime-day-capped, observed) and the
    30-step fold driver-side.  Emits (day, at_risk, deaths,
    hazard_ppm, s_ppm) for day 0..horizon−1."""
    import ray.data  # noqa: F401
    from ray.data.aggregate import Max, Min

    day_us = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({key_col: batch.column(key_col), "t_us": t})

    t = ds.map_batches(prep, batch_format="pyarrow")
    t_max = int(t.max("t_us"))
    per_user = (t.groupby(key_col)
                .aggregate(Min("t_us", alias_name="f"),
                           Max("t_us", alias_name="l")))

    def hist(batch: pa.Table) -> pa.Table:
        f = batch.column("f").to_numpy()
        l = batch.column("l").to_numpy()
        ld = (l - f) // day_us
        obs = (t_max - l) >= censor_gap_hours * 3_600_000_000
        # cap at horizon: lifetimes ≥ horizon stay at risk through every
        # step and their deaths are invisible — fold obs=False for them
        capped = np.minimum(ld, horizon_days)
        o = obs & (ld < horizon_days)
        df = pd.DataFrame({"_ld": capped, "_obs": o})
        g = df.groupby(["_ld", "_obs"], as_index=False).size()
        return pa.table({"_ld": pa.array(g["_ld"], pa.int64()),
                         "_obs": pa.array(g["_obs"], pa.bool_()),
                         "_n": pa.array(g["size"], pa.int64())})

    from ray.data.aggregate import Sum

    h = (per_user.map_batches(hist, batch_format="pyarrow")
         .groupby(["_ld", "_obs"])
         .aggregate(Sum("_n", alias_name="n"))).to_pandas()
    if h.empty:
        raise ValueError("km_survival_int: no users")
    lifet = h["_ld"].to_numpy()
    obs = h["_obs"].to_numpy()
    cnt = h["n"].to_numpy()
    recs = []
    s = 1_000_000
    for d in range(horizon_days):
        at_risk = int(cnt[lifet >= d].sum())
        deaths = int(cnt[(lifet == d) & obs].sum())
        if at_risk > 0:
            s = s * (at_risk - deaths) // at_risk
            hz = 1_000_000 * deaths // at_risk
        else:
            hz = 0
        recs.append((d, at_risk, deaths, hz, s))
    out = pd.DataFrame(recs, columns=["day", "at_risk", "deaths",
                                      "hazard_ppm", "s_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def decayed_sum_topk(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     k: int = 10, max_age_days: int = 30):
    """Time-decayed leaderboard: per key, the halving-decay activity
    score Σ 10⁶ // 2^age_days (age in whole days behind the corpus max
    ts), top-k keys by (score desc, key asc) — the freshness-weighted
    ranking a plain count can't give (a user active yesterday outranks
    one with twice the events three weeks ago), with the half-life
    chosen DYADIC so the weight is exact integer division (e^{−λt} is
    irrational; 2^{−days} is a shift — the ``ewma_backtest_int`` discipline).
    Weights vanish past day 19 (10⁶ < 2²⁰), so the ``max_age_days``
    shift cap bounds the arithmetic, not the semantics.

    Physical plan: the corpus max ts folds as a scalar; weights are a
    vectorized shift per batch, pre-combined per key before ONE
    key-bounded exchange; top-k is ``grouped_topk``'s partial-then-
    partitioned selection on a constant group (top-k is an
    aggregation, never a global sort)."""
    import ray.data  # noqa: F401
    from ray.data.aggregate import Sum

    from documentai_ray.stages.aggregates import grouped_topk

    day_us = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({key_col: batch.column(key_col), "t_us": t})

    t = ds.map_batches(prep, batch_format="pyarrow")
    t_max = int(t.max("t_us"))

    def weigh(batch: pa.Table) -> pa.Table:
        tu = batch.column("t_us").to_numpy()
        age = np.minimum((t_max - tu) // day_us, max_age_days)
        w = 1_000_000 >> age.astype("int64")
        df = pd.DataFrame({key_col: batch.column(key_col).to_pandas(),
                           "_w": w})
        g = df.groupby(key_col, as_index=False)["_w"].sum()
        return pa.table({key_col: pa.array(g[key_col]),
                         "score_ppm": pa.array(g["_w"].astype("int64"),
                                               pa.int64())})

    scored = (t.map_batches(weigh, batch_format="pyarrow")
              .groupby(key_col)
              .aggregate(Sum("score_ppm", alias_name="score_ppm")))

    def const_key(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_g", pa.array(np.zeros(len(batch), dtype="int64")))

    top = grouped_topk(scored.map_batches(const_key, batch_format="pyarrow"),
                       key_col="_g", sort_cols=["score_ppm", key_col],
                       ascending=[False, True], k=k).to_pandas()
    top = top.sort_values(["score_ppm", key_col],
                          ascending=[False, True], kind="mergesort")
    top = top.drop(columns=["_g"]).reset_index(drop=True)
    top["rank"] = np.arange(1, len(top) + 1, dtype="int64")
    top["score_ppm"] = top["score_ppm"].astype("int64")
    return top[["rank", key_col, "score_ppm"]]


def seasonal_anomaly_int(ds, *, key_col: str = "event_type",
                         ts_col: str = "ts", max_obs: int = 8784):
    """Hour-of-day-conditioned spike detection, exact integers — the
    SEASONAL complement to ``flag_count_anomalies``' global 3σ rule:
    a 3 a.m. burst can sit well inside the global band (nights are
    quiet, the global mean is dragged up by daytime) while being ten
    sigma against other 3 a.m. hours; conversely a big-but-normal noon
    count trips a global detector.  Each hour competes only with its
    OWN hour-of-day peer group.

    Per (key, hod) peer group over the dense grid (m_h hours, sum S_h,
    sum-of-squares Q_h), the |x − μ_h| > 3σ_h test cross-multiplies to
    the integer inequality (m_h·x − S_h)² > 9·(m_h·Q_h − S_h²) — the
    flag_count_anomalies discipline, conditioned.  Peer groups of one
    (0 = 0) never flag in both engines.  Emits ONLY the anomalous
    hours (key, hr, c) — the bounded alert set, not the grid.

    Same single bounded (hour, key) exchange (``_dense_hourly_matrix``);
    the per-hod folds are vectorized over the K × H matrix
    driver-side."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    # hod of grid position t: grid origin hod folds from the data via
    # the first hour's timestamp — recover it from a tiny re-aggregate
    # is wasteful; instead _dense_hourly_matrix's contract pins grid
    # slot 0 at floor_hour(min ts), so recompute its hod from one
    # bounded pass
    from ray.data.aggregate import Min

    def to_hour(batch: pa.Table) -> pa.Table:
        t = pc.floor_temporal(batch.column(ts_col), unit="hour")
        return pa.table({"_h": t.cast(pa.timestamp("us")).cast(pa.int64())})

    h0 = int(ds.map_batches(to_hour, batch_format="pyarrow").min("_h"))
    hod0 = (h0 // 3_600_000_000) % 24
    hods = (hod0 + np.arange(h)) % 24
    out_k, out_hr, out_c = [], [], []
    for i, key in enumerate(keys):
        x = mat[i].astype(object)
        for hd in range(24):
            m = hods == hd
            mh = int(m.sum())
            if mh == 0:
                continue
            xs = x[m]
            s = int(xs.sum())
            q = int(sum(int(v) * int(v) for v in xs))
            var_t = mh * q - s * s
            lhs = (mh * xs - s)
            flag = np.array([int(v) * int(v) > 9 * var_t for v in lhs])
            idx = np.nonzero(m)[0][flag]
            for t in idx:
                out_k.append(key)
                out_hr.append(h0 + int(t) * 3_600_000_000)
                out_c.append(int(mat[i][t]))
    out = pd.DataFrame({key_col: out_k,
                        "hr": pd.to_datetime(np.array(out_hr,
                                                      dtype="int64"),
                                             unit="us"),
                        "c": pd.array(out_c, dtype="int64")})
    return out.sort_values([key_col, "hr"],
                           kind="mergesort").reset_index(drop=True)


def logrank_test_int(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     horizon_days: int = 30, censor_gap_hours: int = 6,
                     hash_mult: int = 2654435761):
    """Log-rank test between two survival arms, exact integers — the
    A/B of survival: ab_conversion compares END-STATE rates and
    ``km_survival_int`` draws one pooled curve, but "does the treatment arm
    die SLOWER" needs the whole time axis compared under censoring —
    two arms with identical 30-day death totals differ if one front-
    loads its deaths, which a rate test cannot see and the log-rank
    statistic exists to catch.

    Same subject contract as ``km_survival_int`` (lifetime in whole
    days, death observed iff quiet ≥ ``censor_gap_hours`` before the
    corpus max); arms from the Knuth-hash coin on the key (the
    split_assign convention).  Per day d with n₁/n₀ at risk and d_d
    pooled deaths, the hypergeometric terms are per-day TRUNC-ppm (one
    floor per day — the fractions have different denominators n_d, so
    a common clearing would need Πn_d):
      E₁ += 10⁶·n₁·d_d // n_d
      V  += 10⁶·n₁·n₀·d_d·(n_d − d_d) // (n_d²·(n_d − 1)),  n_d > 1
    O₁ = Σd₁ exactly.  statistic_milli = (10⁶·O₁ − E₁)² // (1000·V);
    significant ⟺ (10⁶·O₁ − E₁)² > 3841459·V (χ²₍₀.₀₅,1₎ as the exact
    rational constant, the ab_conversion discipline).  Unlike the KM
    curve this is a PLAIN SUM over days — no sequential fold, so the
    mirror needs no generated CTEs.

    ONE key exchange for per-user (min, max), a ≤ 2·2·horizon
    histogram, driver fold."""
    import ray.data  # noqa: F401
    from ray.data.aggregate import Max, Min, Sum

    day_us = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({key_col: batch.column(key_col), "t_us": t})

    t = ds.map_batches(prep, batch_format="pyarrow")
    t_max = int(t.max("t_us"))
    per_user = (t.groupby(key_col)
                .aggregate(Min("t_us", alias_name="f"),
                           Max("t_us", alias_name="l")))

    def hist(batch: pa.Table) -> pa.Table:
        f = batch.column("f").to_numpy()
        l = batch.column("l").to_numpy()
        ids = batch.column(key_col).to_numpy()
        ld = np.minimum((l - f) // day_us, horizon_days)
        obs = ((t_max - l) >= censor_gap_hours * 3_600_000_000) \
            & (ld < horizon_days)
        h = (ids.astype(np.uint64) * np.uint64(hash_mult)) \
            % np.uint64(1 << 32)
        treat = h < np.uint64(1 << 31)
        df = pd.DataFrame({"_ld": ld, "_obs": obs, "_tr": treat})
        g = df.groupby(["_ld", "_obs", "_tr"], as_index=False).size()
        return pa.table({"_ld": pa.array(g["_ld"], pa.int64()),
                         "_obs": pa.array(g["_obs"], pa.bool_()),
                         "_tr": pa.array(g["_tr"], pa.bool_()),
                         "_n": pa.array(g["size"], pa.int64())})

    h = (per_user.map_batches(hist, batch_format="pyarrow")
         .groupby(["_ld", "_obs", "_tr"])
         .aggregate(Sum("_n", alias_name="n"))).to_pandas()
    if h.empty:
        raise ValueError("logrank_test_int: no users")
    lifet = h["_ld"].to_numpy()
    obs = h["_obs"].to_numpy()
    tr = h["_tr"].to_numpy()
    cnt = h["n"].to_numpy()
    o1 = 0
    e1_ppm = 0
    v_ppm = 0
    for d in range(horizon_days):
        n1 = int(cnt[(lifet >= d) & tr].sum())
        n0 = int(cnt[(lifet >= d) & ~tr].sum())
        d1 = int(cnt[(lifet == d) & obs & tr].sum())
        d0 = int(cnt[(lifet == d) & obs & ~tr].sum())
        nd, dd = n1 + n0, d1 + d0
        o1 += d1
        if nd > 0:
            e1_ppm += 1_000_000 * n1 * dd // nd
        if nd > 1:
            v_ppm += (1_000_000 * n1 * n0 * dd * (nd - dd)
                      // (nd * nd * (nd - 1)))
    num = (1_000_000 * o1 - e1_ppm) ** 2
    stat_milli = num // (1000 * v_ppm) if v_ppm else 0
    sig = num > 3_841_459 * v_ppm if v_ppm else False
    n_t = int(cnt[tr].sum())
    n_c = int(cnt[~tr].sum())
    out = pd.DataFrame([{
        "n_treat": n_t, "n_ctrl": n_c, "o1": o1, "e1_ppm": e1_ppm,
        "v_ppm": v_ppm, "logrank_milli": stat_milli,
        "significant": bool(sig)}])
    for c in out.columns[:-1]:
        out[c] = out[c].astype("int64")
    out["significant"] = out["significant"].astype(bool)
    return out


def bounce_rate_int(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                    type_col: str = "event_type",
                    tiebreak_col: str = "event_id",
                    gap_minutes: int = 30, num_partitions: int = 64):
    """Bounce rate by LANDING event type: sessionize (the
    ``session_windows`` gap rule — break when the gap to the previous
    event strictly exceeds ``gap_minutes``), then group sessions by
    their FIRST event's type and report how many ended after a single
    event — the landing-page quality readout session counts alone
    can't give (a session that opens with an error bounces for a
    different reason than one that opens with a view, and fixing the
    wrong one wastes the sprint).

    Determinism: simultaneous events order by ``tiebreak_col``, so
    "first of the session" is well-defined where (key, ts) alone
    isn't.  bounce_ppm = 10⁶·n_bounced // n_sessions, exact.

    Physical plan: the standard bucketed sessionize — ONE key-hash
    exchange, one vectorized (sort + shift + cumsum) pass per
    partition for ALL keys, per-partition (landing_type, n, bounced)
    partials, then a tiny |types|-bounded exchange."""
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    gap = pd.Timedelta(minutes=gap_minutes)

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tiebreak_col],
                          kind="mergesort")
        new_key = g[key_col].ne(g[key_col].shift())
        start = new_key | (g[ts_col].diff() > gap)
        sess_id = start.cumsum()
        sizes = sess_id.groupby(sess_id, sort=False).size()
        landing = g.loc[start.to_numpy(), type_col].reset_index(drop=True)
        per_sess = pd.DataFrame({
            "landing_type": landing,
            "_one": 1,
            "_bounced": (sizes.to_numpy() == 1).astype("int64")})
        out = per_sess.groupby("landing_type", as_index=False).agg(
            n_sessions=("_one", "sum"), n_bounced=("_bounced", "sum"))
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["n_bounced"] = out["n_bounced"].astype("int64")
        return out

    agg = (_add_pkey(ds, key_col, num_partitions)
           .groupby("_pkey")
           .map_groups(lambda g: partial(g.drop(columns=["_pkey"])),
                       batch_format="pandas")
           .groupby("landing_type")
           .aggregate(Sum("n_sessions", alias_name="n_sessions"),
                      Sum("n_bounced", alias_name="n_bounced")))

    def rate(batch: pa.Table) -> pa.Table:
        n = batch.column("n_sessions").to_numpy()
        b = batch.column("n_bounced").to_numpy()
        return pa.table({
            "landing_type": batch.column("landing_type"),
            "n_sessions": batch.column("n_sessions").cast(pa.int64()),
            "n_bounced": batch.column("n_bounced").cast(pa.int64()),
            "bounce_ppm": pa.array(1_000_000 * b // n, pa.int64())})

    return agg.map_batches(rate, batch_format="pyarrow")


def xmr_alarms_int(ds, *, key_col: str = "event_type", ts_col: str = "ts",
                   max_obs: int = 8784):
    """XmR (individuals / moving-range) control chart over the dense
    hourly series, exact integers — the SPC classic and the THIRD
    spike rule next to the 3σ band and the hod-peer band
    (``seasonal_anomaly_int``): the XmR limit scales with the MOVING
    RANGE MR̄ = mean |x_t − x_{t−1}| instead of the global σ, so a
    series whose variance comes from slow drift (inflating σ, hiding
    spikes) still alarms on sharp hour-to-hour jumps — and a noisy-
    but-stationary series doesn't false-alarm on its own wiggle.

    Classic limits x̄ ± 2.66·MR̄ with the Shewhart constant kept
    RATIONAL (266/100 — the convention's own two-decimal definition),
    cross-multiplied so no float decides:
    flag t ⟺ 100·(m−1)·|m·x_t − S| > 266·m·ΣMR.
    Emits only the alarm rows (key, hr, c).  Raises on a single-hour
    series (MR undefined).  Same ONE bounded (hour, key) exchange."""
    keys, h, mat = _dense_hourly_matrix(
        ds, key_col=key_col, ts_col=ts_col, max_obs=max_obs)
    if h < 2:
        raise ValueError("xmr_alarms_int: need at least 2 hours")

    def to_hour(batch: pa.Table) -> pa.Table:
        t = pc.floor_temporal(batch.column(ts_col), unit="hour")
        return pa.table({"_h": t.cast(pa.timestamp("us")).cast(pa.int64())})

    h0 = int(ds.map_batches(to_hour, batch_format="pyarrow").min("_h"))
    out_k, out_hr, out_c = [], [], []
    for i, key in enumerate(keys):
        x = [int(v) for v in mat[i]]
        s = sum(x)
        mrsum = sum(abs(a - b) for a, b in zip(x[1:], x[:-1]))
        lhs_scale = 100 * (h - 1)
        rhs = 266 * h * mrsum
        for t, v in enumerate(x):
            if lhs_scale * abs(h * v - s) > rhs:
                out_k.append(key)
                out_hr.append(h0 + t * 3_600_000_000)
                out_c.append(v)
    out = pd.DataFrame({key_col: out_k,
                        "hr": pd.to_datetime(
                            np.array(out_hr, dtype="int64"), unit="us"),
                        "c": pd.array(out_c, dtype="int64")})
    return out.sort_values([key_col, "hr"],
                           kind="mergesort").reset_index(drop=True)


def stratified_logrank_int(ds, *, key_col: str = "user_id",
                           ts_col: str = "ts", horizon_days: int = 30,
                           censor_gap_hours: int = 6, strata_mod: int = 3,
                           hash_mult: int = 2654435761):
    """STRATIFIED log-rank test — the confounder-adjusted member of
    the survival suite: ``logrank_test_int`` compares two arms
    pooled, but when a stratifying factor (cohort, platform, region)
    shifts BOTH the hazard and the arm mix, the pooled test sees a
    difference that is really composition (the survival edition of
    the Simpson reversal ``mh_stratified`` guards against for
    rates).  The stratified statistic computes the hypergeometric
    O−E and V WITHIN each stratum — each stratum has its own risk
    sets, so its own daily denominators — and pools by SUMMING:

        O₁ = Σ_s Σ_d d₁      (exact)
        E₁ = Σ_s Σ_d 10⁶·n₁·d // n        (one floor per (s,d))
        V  = Σ_s Σ_d 10⁶·n₁·n₀·d·(n−d) // (n²(n−1))
        statistic_milli = (10⁶·O₁ − E₁)² // (1000·V)
        significant ⟺ (10⁶·O₁ − E₁)² > 3841459·V      (χ²₁ exact)

    Subject contracts shared verbatim with km/logrank (whole-day
    lifetimes, quiet ≥ ``censor_gap_hours`` before corpus max =
    observed death, Knuth-hash coin arms); strata are
    ``key % strata_mod`` — deterministic and independent of the
    multiplicative-hash arm coin (low-order residue vs high-order
    hash bits, the split_assign discipline).  Still a PLAIN SUM over
    the (stratum, day) grid — no sequential fold, no recursion in
    the mirror.  ONE key exchange, a ≤ strata·2·2·horizon histogram,
    driver fold.  Returns one row PER STRATUM (stratum, n_treat,
    n_ctrl, o1, e1_ppm, v_ppm) with the pooled statistic repeated on
    every row (the kruskal_wallis row-shape convention)."""
    import ray.data  # noqa: F401
    from ray.data.aggregate import Max, Min, Sum

    day_us = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({key_col: batch.column(key_col), "t_us": t})

    t = ds.map_batches(prep, batch_format="pyarrow")
    t_max = int(t.max("t_us"))
    per_user = (t.groupby(key_col)
                .aggregate(Min("t_us", alias_name="f"),
                           Max("t_us", alias_name="l")))

    def hist(batch: pa.Table) -> pa.Table:
        f = batch.column("f").to_numpy()
        l = batch.column("l").to_numpy()
        ids = batch.column(key_col).to_numpy()
        ld = np.minimum((l - f) // day_us, horizon_days)
        obs = ((t_max - l) >= censor_gap_hours * 3_600_000_000) \
            & (ld < horizon_days)
        h = (ids.astype(np.uint64) * np.uint64(hash_mult)) \
            % np.uint64(1 << 32)
        treat = h < np.uint64(1 << 31)
        st = ids.astype(np.int64) % strata_mod
        df = pd.DataFrame({"_st": st, "_ld": ld, "_obs": obs,
                           "_tr": treat})
        g = df.groupby(["_st", "_ld", "_obs", "_tr"],
                       as_index=False).size()
        return pa.table({"_st": pa.array(g["_st"], pa.int64()),
                         "_ld": pa.array(g["_ld"], pa.int64()),
                         "_obs": pa.array(g["_obs"], pa.bool_()),
                         "_tr": pa.array(g["_tr"], pa.bool_()),
                         "_n": pa.array(g["size"], pa.int64())})

    h = (per_user.map_batches(hist, batch_format="pyarrow")
         .groupby(["_st", "_ld", "_obs", "_tr"])
         .aggregate(Sum("_n", alias_name="n"))).to_pandas()
    if h.empty:
        raise ValueError("stratified_logrank_int: no users")
    rows = []
    o1_tot = e1_tot = v_tot = 0
    for s in sorted(h["_st"].unique()):
        hs = h[h["_st"] == s]
        lifet = hs["_ld"].to_numpy()
        obs = hs["_obs"].to_numpy()
        tr = hs["_tr"].to_numpy()
        cnt = hs["n"].to_numpy()
        o1 = e1 = v = 0
        for d in range(horizon_days):
            n1 = int(cnt[(lifet >= d) & tr].sum())
            n0 = int(cnt[(lifet >= d) & ~tr].sum())
            d1 = int(cnt[(lifet == d) & obs & tr].sum())
            d0 = int(cnt[(lifet == d) & obs & ~tr].sum())
            nd, dd = n1 + n0, d1 + d0
            o1 += d1
            if nd > 0:
                e1 += 1_000_000 * n1 * dd // nd
            if nd > 1:
                v += (1_000_000 * n1 * n0 * dd * (nd - dd)
                      // (nd * nd * (nd - 1)))
        rows.append({"stratum": int(s),
                     "n_treat": int(cnt[tr].sum()),
                     "n_ctrl": int(cnt[~tr].sum()),
                     "o1": o1, "e1_ppm": e1, "v_ppm": v})
        o1_tot += o1
        e1_tot += e1
        v_tot += v
    num = (1_000_000 * o1_tot - e1_tot) ** 2
    stat = num // (1000 * v_tot) if v_tot else 0
    sig = num > 3_841_459 * v_tot if v_tot else False
    out = pd.DataFrame(rows)
    out["logrank_milli"] = stat
    out["significant"] = bool(sig)
    for c in out.columns[:-1]:
        out[c] = out[c].astype("int64")
    return out.sort_values("stratum").reset_index(drop=True)
