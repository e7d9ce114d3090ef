"""Record linkage / entity resolution: blocked candidate generation +
agreement-weight scoring (the Fellegi–Sunter shape every master-data /
dedup-across-sources pipeline runs; reference analog: the cross-source
document identity matching the gateway performs by filename+hash —
re-expressed as the general blocking/scoring join).

``blocked_linkage`` is the physical plan; the scoring rule is a plain
vectorized function over the candidate-pair frame, so any agreement
model (exact / edit-distance / numeric-tolerance field comparators with
integer weights) plugs in without touching the exchange.

Physical plan — ONE block-key exchange, no cross join:

- both sides project to their compare columns + the ``block`` column
  and route by ``crc32(block) % P`` (union schema, side-tagged);
- each partition does a vectorized pandas merge on the block value —
  candidate pairs ONLY ever materialize inside the partition — then
  scores the pair frame and keeps rows at ``score ≥ threshold``;
- sub-threshold pairs never enter the object store (scoring is fused
  into the join partition, not a post-filter over a materialized
  pair dataset).

Scale contract (documented, same family as band_join / ppjoin): the
work per partition is Σ_b |L_b|·|R_b| over its blocks — the BLOCKING
KEY is the scale knob. Pick keys whose blocks are bounded (multi-
attribute blocks, rolling blocks); a hot block is a data-model problem
the engine surfaces rather than silently grinding through.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def blocked_linkage(left_ds, right_ds, *, block_col: str, scorer,
                    out_cols: list[str], threshold: int,
                    num_partitions: int = 32):
    """Score candidate pairs sharing ``block_col``; keep pairs with
    ``scorer(pairs_df) >= threshold``.

    ``scorer``: vectorized ``(pd.DataFrame) -> np.ndarray[int64]`` over
    the merged candidate frame (left columns + right columns, block
    column shared). Column names must not collide across sides (rename
    upstream). Returns ``out_cols`` + ``score``.
    """
    lschema, rschema = left_ds.schema(), right_ds.schema()
    all_cols: dict[str, pa.DataType] = dict(zip(lschema.names, lschema.types))
    for name, typ in zip(rschema.names, rschema.types):
        if name != block_col:
            if name in all_cols:
                raise ValueError(
                    f"column collision: {name!r} (rename before linkage)")
            all_cols[name] = typ
    lcols = [c for c in lschema.names if c != block_col]
    rcols = [c for c in rschema.names if c != block_col]

    def tag(side: str):
        def f(batch: pa.Table) -> pa.Table:
            from documentai_ray.stages._hashutil import hash_pkey

            blocks = [str(b) for b in batch.column(block_col).to_pylist()]
            pk = hash_pkey([pa.array(blocks, pa.string())],
                           num_partitions)
            cols: dict[str, pa.Array] = {
                block_col: pa.array(blocks, pa.string())}
            for name, typ in all_cols.items():
                if name == block_col:
                    continue
                if name in batch.column_names:
                    cols[name] = batch.column(name).cast(typ)
                else:
                    cols[name] = pa.nulls(batch.num_rows, typ)
            cols["_side"] = pa.array([side] * batch.num_rows, pa.string())
            cols["_pkey"] = pa.array(pk, pa.int32())
            return pa.table(cols)
        return f

    tagged = (left_ds.map_batches(tag("l"), batch_format="pyarrow")
              .union(right_ds.map_batches(tag("r"), batch_format="pyarrow")))

    # the union pads each side's columns with nulls on the OTHER side's
    # rows, so pandas upcasts int64 -> float64 inside map_groups; after
    # side-filtering no nulls remain and the integer dtype must come back
    # (a float64 c_custkey hash-mismatches the oracle's int64 even when
    # every value is integral)
    int_cols = {name for name, typ in all_cols.items()
                if pa.types.is_integer(typ)}

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["_side"] == "l"][[block_col] + lcols].copy()
        rf = g[g["_side"] == "r"][[block_col] + rcols].copy()
        for fr in (lf, rf):
            for c in fr.columns:
                if c in int_cols:
                    fr[c] = fr[c].astype("int64")
        if lf.empty or rf.empty:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in out_cols + ["score"]})
        pairs = lf.merge(rf, on=block_col, how="inner")
        if pairs.empty:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in out_cols + ["score"]})
        score = np.asarray(scorer(pairs), dtype=np.int64)
        keep = pairs.loc[score >= threshold, out_cols].copy()
        keep["score"] = score[score >= threshold]
        return keep.reset_index(drop=True)

    return tagged.groupby("_pkey").map_groups(resolve, batch_format="pandas")


def within_edit1(a: str, b: str) -> bool:
    """O(len) check for Levenshtein distance ≤ 1 — the comparator a
    linkage rule actually needs (full DP is O(n²) and computes a number
    the threshold immediately collapses to a boolean). Equal strings
    count (distance 0)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        # ≤ 1 substitution
        diff = sum(1 for x, y in zip(a, b) if x != y)
        return diff <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # one insertion into a: walk both, allow a single skip in b
    i = j = 0
    skipped = False
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif not skipped:
            skipped = True
            j += 1
        else:
            return False
    return True


def golden_record(ds, *, key_col: str, order_col: str,
                  field_cols: list[str], count_col: str = "n_versions",
                  num_partitions: int = 32):
    """Survivorship merge — build the GOLDEN RECORD per entity from its
    matched/duplicate observations: for every field independently, keep
    the value of the LATEST observation where that field is non-null
    (the "most recent non-missing wins" rule master-data systems apply
    after linkage; per-field recency beats per-row recency because a
    newer record with a missing phone must not erase an older phone).

    Physical plan: ONE key-hash exchange of the (key, order, fields)
    projection; each partition resolves ALL its keys in one vectorized
    pass — sort by (key, order), then a single ``groupby(key).last()``
    (pandas ``last`` skips nulls per column, which IS the survivorship
    rule) plus a size count. Ties on ``order_col`` resolve to the later
    row under a (key, order, fields-as-tiebreak) stable sort only if
    order values are unique per key — pass a unique version/timestamp.

    When version fan-in per key is large (CDC firehoses), pre-combine
    per batch first (survivorship is associative: latest-non-null of
    latest-non-nulls) — documented optimization, not needed while
    observations per key are bounded."""
    import zlib

    import ray.data  # noqa: F401

    def bucket(batch: pa.Table) -> pa.Table:
        from documentai_ray.stages._hashutil import hash_pkey

        pk = hash_pkey([batch.column(key_col)], num_partitions)
        return batch.append_column("_pkey", pa.array(pk))

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="mergesort")
        gb = g.groupby(key_col, sort=False)
        out = gb[field_cols].last()          # last non-null per field
        out[count_col] = gb.size()
        return out.reset_index()

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_pkey")
            .map_groups(resolve, batch_format="pandas"))
