"""Declarative data-quality verification (Deequ/dbt-test-style).

A production ingest of 100 TB of crawl-derived tables runs constraint
suites before anything downstream trusts the data: completeness
(NOT NULL), uniqueness of keys, accepted value domains, numeric ranges,
and referential integrity. This module expresses such a suite as a list
of small check objects and computes the WHOLE report with the minimum
possible data movement:

- All ROW-SCOPE checks (NotNull / AcceptedValues / InRange) fuse into
  ONE streaming ``map_batches`` pass that emits per-batch partial
  ``(check, violations, rows)`` counts — the exchange carries
  n_checks × n_blocks tiny rows, never data.
- ``Unique`` needs key co-location: per-batch ``value_counts`` partials
  pre-combine before a single ``(key, c)`` exchange bounded by the
  column's DISTINCT count; violations = Σ(c−1) (rows in excess of one
  per key — exactly ``count(*) - count(DISTINCT col)``).
- ``ForeignKey`` reuses the partitioned ``hash_join(how='anti')``: the
  child side ships pre-combined distinct-key counts (bounded by distinct
  keys, not rows), the reference side ships per-batch-distinct keys, and
  orphan violations = Σc over the anti-join survivors. NULL child keys
  are orphans by definition (they reference nothing).

The report is a driver-small ``pyarrow.Table`` — one row per check —
with integer-exact ``violations`` / ``total_rows`` so a SQL engine
reproduces every number bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


@dataclass(frozen=True)
class NotNull:
    col: str

    @property
    def name(self) -> str:
        return f"not_null:{self.col}"


@dataclass(frozen=True)
class AcceptedValues:
    col: str
    values: tuple = field(default=())

    @property
    def name(self) -> str:
        return f"accepted_values:{self.col}"


@dataclass(frozen=True)
class InRange:
    """Violation when value < lo or value > hi (NULL also violates —
    an unknown value cannot be attested in-range)."""
    col: str
    lo: float
    hi: float

    @property
    def name(self) -> str:
        return f"in_range:{self.col}"


@dataclass(frozen=True)
class Unique:
    col: str

    @property
    def name(self) -> str:
        return f"unique:{self.col}"


@dataclass(frozen=True)
class ForeignKey:
    """Child rows whose ``col`` value does not appear in the reference
    key set violate. The reference is passed to ``dq_report`` as a
    Dataset; ``ref_label`` only names the check."""
    col: str
    ref_label: str

    @property
    def name(self) -> str:
        return f"foreign_key:{self.col}->{self.ref_label}"


def _row_scope_pass(ds, checks):
    """ONE fused pass for every row-scope check: per-batch partials,
    then a single tiny groupby-sum."""
    from ray.data.aggregate import Sum

    names = [c.name for c in checks]
    specs = list(checks)

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out_v = []
        for c in specs:
            col = batch.column(c.col)
            if isinstance(c, NotNull):
                v = col.null_count
            elif pa.types.is_null(col.type):
                # a block where every value is NULL infers type `null`;
                # NULL violates both accepted-values and in-range
                v = n
            elif isinstance(c, AcceptedValues):
                ok = pc.is_in(col, value_set=pa.array(list(c.values),
                                                      col.type))
                # NULL membership is null, not False — count non-True
                s = pc.sum(ok.cast(pa.int64())).as_py()
                v = n - (s or 0)
            elif isinstance(c, InRange):
                ok = pc.and_(pc.greater_equal(col, c.lo),
                             pc.less_equal(col, c.hi))
                s = pc.sum(ok.cast(pa.int64())).as_py()
                v = n - (s or 0)
            else:  # pragma: no cover
                raise TypeError(f"not a row-scope check: {c!r}")
            out_v.append(int(v))
        return pa.table({
            "check": pa.array(names, pa.string()),
            "v": pa.array(out_v, pa.int64()),
            "t": pa.array([n] * len(names), pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("check")
           .aggregate(Sum("v", alias_name="violations"),
                      Sum("t", alias_name="total_rows")))
    return agg.to_pandas()


def _keyed_counts(ds, col: str):
    """Per-batch pre-combined ``(k, c)`` value counts → one exchange
    bounded by the column's distinct count. NULL keys participate under
    a reserved sentinel string key."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        col_a = batch.column(col)
        keys = ["\x00null" if v is None else str(v)
                for v in col_a.to_pylist()]
        import collections
        cnt = collections.Counter(keys)
        return pa.table({"k": pa.array(list(cnt.keys()), pa.string()),
                         "c": pa.array(list(cnt.values()), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("k").aggregate(Sum("c", alias_name="c")))


def _unique_counts(counts) -> tuple[int, int]:
    """(violations, total) from a grouped (k, c) table: Σ(c−1), Σc."""
    from ray.data.aggregate import Sum

    def fold(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy()
        return pa.table({"v": pa.array([int((c - 1).sum())], pa.int64()),
                         "t": pa.array([int(c.sum())], pa.int64())})

    res = counts.map_batches(fold, batch_format="pyarrow").aggregate(
        Sum("v", alias_name="v"), Sum("t", alias_name="t"))
    return int(res["v"] or 0), int(res["t"] or 0)


def _fk_counts(child_counts, ref_ds, ref_col: str,
               num_partitions: int) -> tuple[int, int]:
    """(orphan rows, total child rows). ``child_counts`` is the grouped
    (k, c) table of the child key; the reference ships per-batch-distinct
    stringified keys and the anti-join is the partitioned hash_join."""
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    def ref_keys(batch: pa.Table) -> pa.Table:
        vals = batch.column(ref_col).to_pylist()
        uniq = list({str(v) for v in vals if v is not None})
        return pa.table({"k": pa.array(uniq, pa.string())})

    refs = ref_ds.map_batches(ref_keys, batch_format="pyarrow")
    child_mat = child_counts.materialize()  # read twice: total + anti
    tot = child_mat.aggregate(Sum("c", alias_name="t"))
    orphans = hash_join(child_mat, refs, on="k", how="anti",
                        num_partitions=num_partitions)
    v = orphans.aggregate(Sum("c", alias_name="v"))
    return int(v["v"] or 0), int(tot["t"] or 0)


def dq_report(ds, checks, *, ref_datasets: dict | None = None,
              num_partitions: int = 32) -> pa.Table:
    """Run a constraint suite over ``ds`` and return the report as a
    driver-small Arrow table ``(check, violations, total_rows, passed)``
    in the order the checks were declared.

    ``ref_datasets`` maps a ForeignKey check's ``ref_label`` to
    ``(ref_ds, ref_col)``.
    """
    row_checks = [c for c in checks
                  if isinstance(c, (NotNull, AcceptedValues, InRange))]
    results: dict[str, tuple[int, int]] = {}

    if row_checks:
        df = _row_scope_pass(ds, row_checks)
        for _, r in df.iterrows():
            results[r["check"]] = (int(r["violations"]),
                                   int(r["total_rows"]))

    for c in checks:
        if isinstance(c, Unique):
            results[c.name] = _unique_counts(_keyed_counts(ds, c.col))
        elif isinstance(c, ForeignKey):
            ref_ds, ref_col = (ref_datasets or {})[c.ref_label]
            results[c.name] = _fk_counts(_keyed_counts(ds, c.col),
                                         ref_ds, ref_col, num_partitions)

    names = [c.name for c in checks]
    v = np.array([results[n][0] for n in names], np.int64)
    t = np.array([results[n][1] for n in names], np.int64)
    return pa.table({
        "check": pa.array(names, pa.string()),
        "violations": pa.array(v),
        "total_rows": pa.array(t),
        "passed": pa.array((v == 0).tolist(), pa.bool_()),
    })


# Benford first-digit reference shares in ppm: round(log10(1 + 1/d) * 1e6).
# Fixed integer constants so every engine agrees bit-exactly; the log only
# ever ran once, offline, to derive them (public knowledge — Benford 1938).
BENFORD_PPM = {1: 301030, 2: 176091, 3: 124939, 4: 96910, 5: 79181,
               6: 66947, 7: 57992, 8: 51153, 9: 45757}


def benford_audit(ds, *, key_col: str, val_col: str):
    """First-digit (Benford) audit per key — the classic forensic /
    data-quality screen for fabricated or unit-corrupted numeric
    columns: naturally-occurring multi-magnitude amounts lead with 1
    ~30% of the time; human-invented or re-scaled ones don't.

    ``val_col`` must be positive int64 magnitudes (integerize money to
    cents upstream); zero/negative values are excluded (Benford is a
    positive-magnitude law). Emits one row per (key, observed digit):
    ``(key, digit, n_values, share_ppm, benford_ppm, dev_ppm)`` with
    ``share_ppm = (c·10⁶) // n`` integer-exact and ``dev_ppm`` the
    absolute gap to the fixed reference constants — every number
    reproducible bit-for-bit in SQL.

    Physical plan: first digit via vectorized decimal-string head (no
    float log10 — exact at magnitude boundaries), per-batch (key,
    digit) count partials, ONE exchange bounded by 9 × keys, per-key
    shares folded in a tiny map_groups (≤ 9 rows per group).
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, val_col]).to_pandas()
        v = df[val_col].astype("int64")
        df = df[v > 0]
        if not len(df):
            return pa.table({key_col: pa.array([], pa.string()),
                             "digit": pa.array([], pa.string()),
                             "_c": pa.array([], pa.int64())})
        df["digit"] = df[val_col].astype("int64").astype(str).str[0]
        g = (df.groupby([key_col, "digit"], sort=False)
             .size().reset_index(name="_c"))
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "digit"])
            .aggregate(Sum("_c", alias_name="_c")))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["_c"].sum())
        c = g["_c"].astype("int64")
        share = (c * 1_000_000) // n
        bref = g["digit"].map(lambda d: BENFORD_PPM[int(d)]).astype("int64")
        return pd.DataFrame({
            key_col: g[key_col],
            "digit": g["digit"],
            "n_values": c,
            "share_ppm": share,
            "benford_ppm": bref,
            "dev_ppm": (share - bref).abs(),
        })

    return hist.groupby(key_col).map_groups(finish, batch_format="pandas")


def impute_group_mode(ds, *, key_col: str, val_col: str,
                      flag_col: str = "was_imputed",
                      num_partitions: int = 32):
    """Mode imputation per group — the standard categorical repair
    after a data-quality audit flags NULLs: each missing ``val_col`` is filled
    with its GROUP's most frequent non-missing value (a customer's
    missing segment becomes their nation's modal segment — the group
    mode beats the global mode exactly when the column correlates with
    the grouping). Tie-break toward the smallest value, inherited from
    ``aggregates.grouped_mode``, so the repair is deterministic and
    engine-independent. Groups with NO observed value at all keep NULL
    (flagged but unfilled — inventing a value there is a lie).

    Physical plan: the mode table rides grouped_mode's bounded
    exchange (|keys × distinct values| partials, never rows), then
    ships driver → ``ray.put`` → per-batch vectorized fill; the data
    rows themselves never shuffle. Adds ``{flag_col}`` (bool: row was
    missing) and replaces ``val_col`` with the filled column."""
    import ray

    from documentai_ray.stages.aggregates import grouped_mode

    def observed(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch.column(val_col)))

    modes = grouped_mode(ds.map_batches(observed,
                                        batch_format="pyarrow"),
                         key_col=key_col, val_col=val_col,
                         num_partitions=num_partitions).to_pandas()
    lookup = dict(zip(modes[key_col], modes["mode"]))
    lk_ref = ray.put(lookup)

    def fill(batch: pa.Table) -> pa.Table:
        lk = ray.get(lk_ref)
        vals = batch.column(val_col).to_pylist()
        keys = batch.column(key_col).to_pylist()
        missing = [v is None for v in vals]
        filled = [lk.get(k) if m else v
                  for v, k, m in zip(vals, keys, missing)]
        out = batch.drop_columns([val_col])
        out = out.append_column(val_col, pa.array(
            filled, batch.schema.field(val_col).type))
        return out.append_column(flag_col, pa.array(missing, pa.bool_()))

    return ds.map_batches(fill, batch_format="pyarrow")


def fd_g3_error(ds, *, lhs_col: str, rhs_col: str):
    """Approximate-functional-dependency discovery score: the g3 error
    of ``lhs → rhs`` — the minimum number of rows you must DELETE for
    the dependency to hold exactly, ``n − Σ_lhs max_rhs count(lhs,
    rhs)`` (Kivinen–Mannila; the standard profiling measure TANE-style
    FD miners rank candidates by).  A data-quality audit asserts declared
    constraints; this MEASURES how far an undeclared one is from true.

    Fully distributed — the pair table never reaches the driver: per-
    batch (lhs, rhs) count partials → exchange bounded by distinct
    pairs → per-lhs MAX (second bounded exchange) → each side folds to
    per-block scalar partials and only ≤|blocks| rows hit the driver.
    g3_ppm uses floor division (non-negative, so floor ≡ trunc ≡ SQL
    ``//``).

    Returns one row: (n, n_keep, g3_err, g3_ppm)."""
    import pandas as pd
    from ray.data.aggregate import Max, Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([lhs_col, rhs_col]).to_pandas()
        g = (df.groupby([lhs_col, rhs_col], as_index=False)
             .size().rename(columns={"size": "_n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    pairs = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby([lhs_col, rhs_col])
             .aggregate(Sum("_n", alias_name="_n")))

    def fold_n(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc
        return pa.table({"_s": pa.array(
            [_pc.sum(batch.column("_n")).as_py() or 0], pa.int64())})

    def fold_keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc
        return pa.table({"_s": pa.array(
            [_pc.sum(batch.column("_mx")).as_py() or 0], pa.int64())})

    n = int(pairs.map_batches(fold_n, batch_format="pyarrow")
            .to_pandas()["_s"].sum())
    keep = int(pairs.groupby(lhs_col)
               .aggregate(Max("_n", alias_name="_mx"))
               .map_batches(fold_keep, batch_format="pyarrow")
               .to_pandas()["_s"].sum())
    if n == 0:
        raise ValueError("fd_g3_error: empty input")
    err = n - keep
    return pd.DataFrame({"n": [n], "n_keep": [keep], "g3_err": [err],
                         "g3_ppm": [err * 1_000_000 // n]}).astype("int64")
