"""Similarity search over embedding columns (training-data-pipeline ops).

- ``brute_force_topk`` — baseline ANN: per-batch float64 matmul of the block
  against a broadcast query matrix (``ray.put`` once, read per task), then a
  global merge of per-batch partial top-k — the classic "top-k is an
  aggregation, not a sort" pattern: only k rows per batch reach the driver,
  never a global sort.
- ``embedding_neardup_pairs`` — near-duplicate pairs by cosine ≥ threshold,
  blocked on a key column (e.g. ``label``) so the pairwise comparison is
  per-group (``groupby().map_groups``) instead of a full cross join.
- ``lsh_topk`` — scale path: random-hyperplane LSH (Charikar 2002) buckets
  candidates; exact cosine re-rank within the probed buckets. At 10^12 rows
  this bounds the scan to matching buckets; brute force stays the oracle.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd
import pyarrow as pa


def _as_matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix.

    Fast path: reshape the flat Arrow values buffer (no per-element
    Python objects — the hot path of every embedding op runs this per
    batch). Falls back to ``to_pylist`` for ragged/null lists, which the
    embedding contract excludes but tests may feed."""
    arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    try:
        n = len(arr)
        if n and arr.null_count == 0:
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            if flat.size % n == 0:
                d = flat.size // n
                offsets = getattr(arr, "offsets", None)
                if offsets is None or np.all(
                        np.diff(offsets.to_numpy(zero_copy_only=False)) == d):
                    return flat.reshape(n, d).astype(np.float64, copy=False)
    except (pa.ArrowInvalid, ValueError, AttributeError):
        pass
    return np.asarray(arr.to_pylist(), dtype=np.float64)


def _cosine_scores(M: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / np.linalg.norm(q)
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    return Mn @ qn


def brute_force_topk(ds, query: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     exclude_ids: set | None = None) -> pd.DataFrame:
    """Exact cosine top-k. Per-batch partial top-k (vectorized argpartition)
    → tiny driver-side heap merge. Returns (id, score) sorted desc, id asc."""
    import ray

    qref = ray.put(np.asarray(query, dtype=np.float64))
    excl = exclude_ids or set()

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(qref)
        ids = np.asarray(batch.column(id_col).to_pylist())
        M = _as_matrix(batch.column(vec_col))
        s = _cosine_scores(M, q)
        if excl:
            keep = ~np.isin(ids, list(excl))
            ids, s = ids[keep], s[keep]
        if len(s) > k:
            part = np.argpartition(-s, k)[:k]
            ids, s = ids[part], s[part]
        return pa.table({id_col: pa.array(ids.tolist()),
                         "score": pa.array(s.tolist(), pa.float64())})

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    top = heapq.nsmallest(k, partials, key=lambda r: (-r["score"], r[id_col]))
    return pd.DataFrame({id_col: [r[id_col] for r in top],
                         "score": [r["score"] for r in top]})


def embedding_neardup_pairs(ds, *, threshold: float = 0.95,
                            id_col: str = "vec_id", vec_col: str = "embedding",
                            block_col: str = "label"):
    """Cosine-near-dup pairs within blocks: groupby(block) → per-group
    normalized Gram matrix → upper-triangle threshold. Output
    (id_a, id_b) with id_a < id_b.

    Scale contract: the block key must bound group size (the Gram matrix is
    O(n²) per group). For unbounded corpora, block on an LSH/IVF bucket
    (HyperplaneLSH / IVFIndex assignments) instead of a natural label."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        M = np.asarray(g[vec_col].tolist(), dtype=np.float64)
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        ids, M = ids[order], M[order]
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        G = Mn @ Mn.T
        iu, ju = np.triu_indices(len(ids), k=1)
        hit = G[iu, ju] >= threshold
        return pd.DataFrame({"id_a": ids[iu[hit]], "id_b": ids[ju[hit]]})

    return ds.groupby(block_col).map_groups(pairs, batch_format="pandas")


class IVFIndex:
    """Inverted-file ANN index (IVF-flat): k-means centroids trained on a
    sample (driver-side, seeded numpy Lloyd iterations), vectors assigned to
    their nearest centroid, queries probe the ``nprobe`` nearest lists and
    re-rank exactly. The scale path for 10^12 rows: the centroid table is
    tiny and broadcast; the per-batch assignment is one matmul; a probe
    touches nprobe/nlist of the data."""

    def __init__(self, nlist: int = 16, nprobe: int = 4, seed: int = 42,
                 iters: int = 10):
        self.nlist, self.nprobe, self.seed, self.iters = nlist, nprobe, seed, iters
        self.centroids: np.ndarray | None = None

    def train(self, sample: np.ndarray) -> "IVFIndex":
        rng = np.random.RandomState(self.seed)
        X = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-12)
        idx = rng.choice(len(X), size=min(self.nlist, len(X)), replace=False)
        C = X[idx].copy()
        for _ in range(self.iters):
            assign = (X @ C.T).argmax(axis=1)
            for c in range(len(C)):
                m = assign == c
                if m.any():
                    v = X[m].mean(axis=0)
                    C[c] = v / max(np.linalg.norm(v), 1e-12)
        self.centroids = C
        return self

    def assign(self, M: np.ndarray) -> np.ndarray:
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        return (Mn @ self.centroids.T).argmax(axis=1)

    def probe_lists(self, q: np.ndarray) -> np.ndarray:
        qn = q / max(np.linalg.norm(q), 1e-12)
        scores = self.centroids @ qn
        return np.argsort(-scores)[: self.nprobe]


def ivf_topk(ds, query: np.ndarray, k: int = 10, *, index: IVFIndex,
             id_col: str = "vec_id", vec_col: str = "embedding",
             exclude_ids: set | None = None) -> pd.DataFrame:
    """ANN via IVF: per-batch centroid assignment filters to probed lists,
    exact cosine re-rank of survivors, partial top-k per batch."""
    import ray

    q = np.asarray(query, dtype=np.float64)
    probe = set(index.probe_lists(q).tolist())
    idx_ref = ray.put(index)
    qref = ray.put(q)
    excl = exclude_ids or set()

    def partial(batch: pa.Table) -> pa.Table:
        ix = ray.get(idx_ref)
        ids = np.asarray(batch.column(id_col).to_pylist())
        M = _as_matrix(batch.column(vec_col))
        keep = np.isin(ix.assign(M), list(probe))
        if excl:
            keep &= ~np.isin(ids, list(excl))
        ids, M = ids[keep], M[keep]
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        s = _cosine_scores(M, ray.get(qref))
        if len(s) > k:
            part = np.argpartition(-s, k)[:k]
            ids, s = ids[part], s[part]
        return pa.table({id_col: pa.array(ids.tolist(), pa.int64()),
                         "score": pa.array(s.tolist(), pa.float64())})

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    top = heapq.nsmallest(k, partials, key=lambda r: (-r["score"], r[id_col]))
    return pd.DataFrame({id_col: [r[id_col] for r in top],
                         "score": [r["score"] for r in top]})


class HyperplaneLSH:
    """Random-hyperplane signatures: bucket = sign bits of (V @ H)."""

    def __init__(self, dim: int, n_bits: int = 12, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.H = rng.standard_normal((dim, n_bits))

    def buckets(self, M: np.ndarray) -> np.ndarray:
        bits = (M @ self.H) > 0
        return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1).astype(np.int64)


def lsh_topk(ds, query: np.ndarray, k: int = 10, *, dim: int, n_bits: int = 8,
             id_col: str = "vec_id", vec_col: str = "embedding",
             exclude_ids: set | None = None) -> pd.DataFrame:
    """ANN via hyperplane-LSH bucket filter + exact re-rank of candidates.

    Probes the query's bucket and all buckets at Hamming distance ≤ 1 (multi-
    probe) — recall/speed trade-off documented in tests against brute force.
    """
    import ray

    lsh = HyperplaneLSH(dim, n_bits)
    q = np.asarray(query, dtype=np.float64)
    qb = int(lsh.buckets(q[None, :])[0])
    probe = {qb} | {qb ^ (1 << b) for b in range(n_bits)}
    qref = ray.put(q)
    probe_arr = pa.array(sorted(probe), pa.int64())
    excl = exclude_ids or set()

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        M = _as_matrix(batch.column(vec_col))
        b = lsh.buckets(M)
        tbl = batch.append_column("bucket", pa.array(b, pa.int64()))
        tbl = tbl.filter(pc.is_in(tbl.column("bucket"), value_set=probe_arr))
        if tbl.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        ids = np.asarray(tbl.column(id_col).to_pylist())
        M2 = _as_matrix(tbl.column(vec_col))
        s = _cosine_scores(M2, ray.get(qref))
        if excl:
            keep = ~np.isin(ids, list(excl))
            ids, s = ids[keep], s[keep]
        if len(s) > k:
            part = np.argpartition(-s, k)[:k]
            ids, s = ids[part], s[part]
        return pa.table({id_col: pa.array(ids.tolist(), pa.int64()),
                         "score": pa.array(s.tolist(), pa.float64())})

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    top = heapq.nsmallest(k, partials, key=lambda r: (-r["score"], r[id_col]))
    return pd.DataFrame({id_col: [r[id_col] for r in top],
                         "score": [r["score"] for r in top]})


# ---------------------------------------------------------------------------
# distributed k-means (Lloyd's iterations over Dataset passes)
# ---------------------------------------------------------------------------

def kmeans_fit(ds, *, k: int = 4, iters: int = 2, id_col: str = "vec_id",
               vec_col: str = "embedding") -> np.ndarray:
    """Distributed Lloyd's k-means: the canonical iterative algorithm over
    a Dataset, shaped so each iteration is ONE streaming pass.

    - Init: the vectors of the ``k`` smallest ids (deterministic and
      SQL-mirrorable — no RNG state to reproduce).
    - Each iteration broadcasts the (k, d) centroid matrix via ``ray.put``
      and runs ``map_batches``; every batch emits k partial rows
      (cluster, vector sum, count) — the exchange back to the driver is
      k×(d+1) floats per batch, never the data. The driver combines
      partials and divides once (empty cluster keeps its previous
      centroid).
    - Assignment = argmin squared-L2 (expanded ‖x‖²-2x·c+‖c‖² matmul
      form), ties to the lowest cluster id — the ordering DuckDB's
      ``list_distance`` oracle reproduces (sqrt is monotone).

    The input is ``materialize()``d first: k-means makes ``iters + 1``
    passes over the SAME data, so pinning the blocks in the object store
    is the correct trade (this is the documented exception to the
    no-mid-pipeline-materialize rule — input reuse, not an intermediate).

    Float contract: embeddings widen to float64 before any arithmetic;
    partial-sum order differs from the oracle's ``avg`` by ~ulps, which
    only matters for near-equidistant points (the synthetic clusters are
    separated by construction).
    """
    import ray

    mat = ds.materialize()
    init = mat.sort(id_col).limit(k).to_pandas()
    C = np.asarray(init[vec_col].tolist(), dtype=np.float64)

    for _ in range(iters):
        ref = ray.put(C)

        def partial(batch: pa.Table, _ref=ref, _k=len(C)) -> pa.Table:
            Cc = ray.get(_ref)
            X = _as_matrix(batch.column(vec_col))
            d2 = ((X * X).sum(1)[:, None] - 2.0 * X @ Cc.T
                  + (Cc * Cc).sum(1)[None, :])
            a = d2.argmin(axis=1)
            sums = np.zeros_like(Cc)
            counts = np.zeros(_k, np.int64)
            np.add.at(sums, a, X)
            np.add.at(counts, a, 1)
            return pa.table({"cid": pa.array(range(_k), pa.int64()),
                             "vsum": pa.array(sums.tolist(),
                                              pa.list_(pa.float64())),
                             "cnt": pa.array(counts, pa.int64())})

        parts = mat.map_batches(partial, batch_format="pyarrow").to_pandas()
        newC = C.copy()
        for cid, g in parts.groupby("cid"):
            cnt = int(g["cnt"].sum())
            if cnt > 0:
                newC[cid] = np.sum(np.asarray(g["vsum"].tolist()), axis=0) / cnt
        C = newC
    return C


def kmeans_assign(ds, centroids: np.ndarray, *, id_col: str = "vec_id",
                  vec_col: str = "embedding"):
    """Map-side final assignment: ``(id, cluster)`` per vector."""
    import ray

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        Cc = ray.get(ref)
        X = _as_matrix(batch.column(vec_col))
        d2 = ((X * X).sum(1)[:, None] - 2.0 * X @ Cc.T
              + (Cc * Cc).sum(1)[None, :])
        return pa.table({id_col: batch.column(id_col).cast(pa.int64()),
                         "cluster": pa.array(d2.argmin(axis=1), pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# product quantization (embedding compression for ANN at scale)
# ---------------------------------------------------------------------------

def pq_fit(ds, *, m: int = 4, k: int = 4, iters: int = 2,
           id_col: str = "vec_id", vec_col: str = "embedding") -> list[np.ndarray]:
    """Product-quantization codebooks (Jégou et al. 2011): split the
    vector into ``m`` contiguous subspaces and run the SAME distributed
    Lloyd's k-means (kmeans_fit's plan — per-batch partial sums, centroid
    state only on the driver) independently in each subspace. At 10¹²
    vectors the m fits share the one materialized pass structure; the
    codebooks are m·k·(d/m) floats — always broadcast-small."""
    import pyarrow as pa

    mat = ds.materialize()
    first = mat.sort(id_col).limit(k).to_pandas()
    X0 = np.asarray(first[vec_col].tolist(), dtype=np.float64)
    d = X0.shape[1]
    assert d % m == 0, "dim must split evenly into m subspaces"
    sub = d // m
    books: list[np.ndarray] = []
    for j in range(m):
        C = X0[:, j * sub:(j + 1) * sub].copy()
        for _ in range(iters):
            import ray

            ref = ray.put(C)

            def partial(batch: pa.Table, _ref=ref, _j=j, _k=len(C)) -> pa.Table:
                import ray as _ray

                Cc = _ray.get(_ref)
                M = _as_matrix(batch.column(vec_col))[:, _j * sub:(_j + 1) * sub]
                d2 = ((M * M).sum(1)[:, None] - 2.0 * M @ Cc.T
                      + (Cc * Cc).sum(1)[None, :])
                a = d2.argmin(axis=1)
                sums = np.zeros_like(Cc)
                counts = np.zeros(_k, np.int64)
                np.add.at(sums, a, M)
                np.add.at(counts, a, 1)
                return pa.table({"cid": pa.array(range(_k), pa.int64()),
                                 "vsum": pa.array(sums.tolist(),
                                                  pa.list_(pa.float64())),
                                 "cnt": pa.array(counts, pa.int64())})

            parts = mat.map_batches(partial, batch_format="pyarrow").to_pandas()
            newC = C.copy()
            for cid, g in parts.groupby("cid"):
                cnt = int(g["cnt"].sum())
                if cnt > 0:
                    newC[cid] = np.sum(np.asarray(g["vsum"].tolist()),
                                       axis=0) / cnt
            C = newC
        books.append(C)
    return books


def pq_encode(ds, codebooks: list[np.ndarray], *, id_col: str = "vec_id",
              vec_col: str = "embedding"):
    """Map-side encoding: each vector → m small codes (argmin squared-L2
    per subspace, ties to the lowest code). Returns
    ``(id, code_0..code_{m-1})`` — the 64-dim float32 vector compresses
    to m bytes."""
    import pyarrow as pa
    import ray

    m = len(codebooks)
    sub = codebooks[0].shape[1]
    ref = ray.put([np.asarray(c, np.float64) for c in codebooks])

    def encode(batch: pa.Table) -> pa.Table:
        books = ray.get(ref)
        X = _as_matrix(batch.column(vec_col))
        cols = {id_col: batch.column(id_col).cast(pa.int64())}
        for j, C in enumerate(books):
            M = X[:, j * sub:(j + 1) * sub]
            d2 = ((M * M).sum(1)[:, None] - 2.0 * M @ C.T
                  + (C * C).sum(1)[None, :])
            cols[f"code_{j}"] = pa.array(d2.argmin(axis=1), pa.int64())
        return pa.table(cols)

    return ds.map_batches(encode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SemDeDup (semantic dedup: k-means clusters + within-cluster cosine prune)
# ---------------------------------------------------------------------------

def semdedup(ds, *, k: int = 4, iters: int = 2, threshold: float = 0.4,
             id_col: str = "vec_id", vec_col: str = "embedding"):
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
    web-scale through semantic deduplication"): cluster embeddings with
    k-means, then inside each cluster drop every vector that has a
    LOWER-id neighbor at cosine ≥ ``threshold`` (the deterministic
    keep-one-representative rule — no union-find needed, and exactly
    mirrorable in SQL as a NOT EXISTS).

    Physical plan: the distributed ``kmeans_fit`` (per-batch partial
    sums; only k×(d+1) floats return to the driver), then ONE bucketed
    exchange on the cluster id (group count = k, bounded), then a
    vectorized per-cluster Gram matrix. The O(n²)-per-cluster compare is
    the documented scale contract: at 10¹² rows raise k so clusters are
    bounded (SemDeDup's own recipe) or sub-block clusters with the LSH
    bucketer — the plan shape stays identical.

    Returns ``(id, cluster, keep:bool)`` for every input vector.
    """
    import ray

    C = kmeans_fit(ds, k=k, iters=iters, id_col=id_col, vec_col=vec_col)
    ref = ray.put(np.asarray(C, np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        Cc = ray.get(ref)
        X = _as_matrix(batch.column(vec_col))
        d2 = ((X * X).sum(1)[:, None] - 2.0 * X @ Cc.T
              + (Cc * Cc).sum(1)[None, :])
        return pa.table({id_col: batch.column(id_col).cast(pa.int64()),
                         vec_col: batch.column(vec_col),
                         "cluster": pa.array(d2.argmin(axis=1), pa.int64())})

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        M = np.asarray(g[vec_col].to_numpy()[order].tolist(), np.float64)
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        G = Mn @ Mn.T
        # strict lower triangle: G[i, j] for j < i = similarity to a
        # smaller-id vector (ids sorted ascending)
        keep = (np.tril(G, k=-1) >= threshold).sum(axis=1) == 0
        return pd.DataFrame({id_col: ids.astype(np.int64),
                             "cluster": g["cluster"].to_numpy()[order],
                             "keep": keep})

    return (ds.map_batches(assign, batch_format="pyarrow")
            .groupby("cluster")
            .map_groups(prune, batch_format="pandas"))


def kcenter_select(ds, *, k: int = 4, id_col: str = "vec_id",
                   vec_col: str = "embedding"):
    """Greedy k-center (farthest-point) coreset selection — the
    diversity-sampling curation op (Gonzalez 1985; 2-approx for the
    k-center cover): pick the min-id vector, then k−1 times add the point
    FARTHEST from the selected set. The selected ids are the maximally
    spread sample a curation pipeline keeps when it wants coverage rather
    than density.

    Physical plan mirrors ``kmeans_fit``: the input materializes once
    (k passes over the same data), each round broadcasts the (≤k, d)
    selected matrix and runs one streaming ``map_batches`` where every
    batch emits ONE candidate row (its farthest point) — the exchange is
    k rows per batch, never the data. Determinism: distances in float64
    expanded-matmul form, global argmax ties break to the SMALLEST id
    (same float contract as kmeans_fit: synthetic margins ≫ cross-engine
    ulp drift). Returns ``(rank, vec_id)`` — rank is selection order.
    """
    import ray

    mat = ds.materialize()
    first = mat.sort(id_col).limit(1).to_pandas()
    sel_ids = [int(first[id_col].iloc[0])]
    sel_vecs = np.asarray(first[vec_col].tolist(), dtype=np.float64)

    for _ in range(k - 1):
        ref = ray.put(sel_vecs)

        def cand(batch: pa.Table, _ref=ref) -> pa.Table:
            C = ray.get(_ref)
            X = _as_matrix(batch.column(vec_col))
            ids = np.asarray(batch.column(id_col).to_pylist(), np.int64)
            d2 = ((X * X).sum(1)[:, None] - 2.0 * X @ C.T
                  + (C * C).sum(1)[None, :]).min(axis=1)
            order = np.lexsort((ids, -d2))        # max dist, then min id
            b = order[0]
            return pa.table({id_col: pa.array([int(ids[b])], pa.int64()),
                             "d2": pa.array([float(d2[b])], pa.float64()),
                             "vec": pa.array([X[b].tolist()],
                                             pa.list_(pa.float64()))})

        parts = mat.map_batches(cand, batch_format="pyarrow").to_pandas()
        parts = parts.sort_values(["d2", id_col],
                                  ascending=[False, True], kind="mergesort")
        win = parts.iloc[0]
        sel_ids.append(int(win[id_col]))
        sel_vecs = np.vstack([sel_vecs, np.asarray(win["vec"], np.float64)])

    import pyarrow as _pa
    return _pa.table({"rank": _pa.array(range(k), _pa.int64()),
                      id_col: _pa.array(sel_ids, _pa.int64())})


def grouped_centroid(ds, *, key_col: str = "label",
                     vec_col: str = "embedding", scale: int = 1_000_000,
                     num_partitions: int = 8):
    """Per-group embedding CENTROID sufficient statistics in exact
    integer arithmetic — the class-prototype / cluster-seed / domain-
    signature computation (mean vector per label). Float vector sums
    depend on summation order across parallel blocks; quantizing each
    component to ``round(x·scale)`` int64 FIRST makes the per-group sum
    associative, so any engine and any block layout lands bit-identically
    (the vector analog of grouped_linreg's integer partials).

    Physical plan: per batch ONE vectorized pass — the (n, d) matrix is
    quantized and summed per key (np.add.at on key codes) — shipping at
    most |keys seen| × d partial rows per block, never raw vectors; one
    tiny (key, dim)-hash exchange sums the partials. Output
    ``(key_col, dim, sum_q, n)`` with dim 1-based; the consumer divides
    (mean = sum_q / n / scale) in whatever numeric domain it wants."""
    import pandas as pd

    from documentai_ray.stages.dedup import _add_pkey

    def partial(batch: pa.Table) -> pa.Table:
        M = _as_matrix(batch.column(vec_col))
        q = np.rint(M * scale).astype(np.int64)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(keys, return_inverse=True)
        sums = np.zeros((len(uniq), q.shape[1]), np.int64)
        np.add.at(sums, codes, q)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        d = q.shape[1]
        return pa.table({
            key_col: pa.array(np.repeat(uniq, d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1), len(uniq)),
                            pa.int64()),
            "sum_q": pa.array(sums.ravel(), pa.int64()),
            "n": pa.array(np.repeat(counts, d), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby([key_col, "dim"], sort=False)[["sum_q", "n"]]
                .sum().reset_index())

    return (_add_pkey(partials, key_col, num_partitions)
            .groupby("_pkey")
            .map_groups(lambda g: combine(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))
