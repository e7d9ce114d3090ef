"""Distributed graph operators: integer-exact PageRank.

The canonical iterative *graph* computation over a Dataset (the join-
per-iteration shape k-means avoids): each iteration joins the edge list
against the current rank table, aggregates contributions per target, and
rebuilds the rank table — two key-projected exchanges per iteration,
never a driver-side materialization of the graph.

All arithmetic is INTEGER ppm: ranks start at 10⁶, a node's contribution
is ``r // out_deg`` (floor), and the damping update is
``150_000 + 850_000 · Σcontrib // 10⁶`` — no floats anywhere, so a SQL
oracle reproduces every iteration bit-exactly (float PageRank would
drift by summation order). The floor divisions lose ≤1 ppm per step —
irrelevant for ranking, essential for cross-engine determinism.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DAMP_PPM = 850_000
BASE_PPM = 150_000
SCALE = 1_000_000


def _relax_witness(ds, val_col: str) -> tuple:
    """(row count, Σ value) of a relaxation loop state — a FIXED-POINT
    WITNESS for monotone relaxations: dag_layers' layers only increase
    and its node set is constant; sssp's distances only decrease and
    its node set only grows; so the pair is unchanged between rounds
    IFF no row changed, and the loop can stop early instead of
    spending the whole round budget. One native count (metadata-cheap
    on a materialized state) + one native sum per round — far cheaper
    than a per-row digest (measured: md5-digest early-exit cost MORE
    than the rounds it saved at small scale)."""
    total = ds.sum(val_col)
    return ds.count(), (0 if total is None else int(total))


def _bound_blocks(ds, n: int):
    """Coalesce loop state to ≤ ``n`` blocks (split/merge, NO shuffle)
    before materializing it for the next round.

    Every iterative op in this family folds via union + groupby (or a
    self-join), and both hash_join's map_groups and groupby emit a block
    count proportional to their INPUT block count. Left unbounded, the
    loop state's blocks compound ~2× per round (B_{r+1} ≈ 2·B_r + E) —
    rows stay constant while task count grows exponentially, turning
    constant per-round work into an exponential scheduling bill (measured:
    48→112→240→496→1008 blocks over 5 rounds on a 150-row label table).
    One metadata-cheap repartition per round pins the state at ``n``."""
    return ds.repartition(n)


def pagerank_int(edges_ds, nodes_ds, *, iters: int = 2,
                 out_deg: int | None = None, num_partitions: int = 32):
    """``edges_ds``: (src, dst). ``nodes_ds``: (node). Returns
    (node, rank_ppm) after ``iters`` damped iterations.

    ``out_deg``: pass the constant when every src has exactly that many
    edges (the regular-graph fast path — a literal column, no join);
    pass ``None`` for irregular graphs and the out-degree table is
    computed once (per-batch src-count partials → one exchange bounded
    by distinct src nodes) and joined into the edge table ONCE before
    the loop, materialized so iterations reuse it. Contribution is
    ``rank // deg`` per edge either way. Dangling nodes (no out-edges)
    simply contribute nothing — their mass is NOT redistributed, same
    as the unrolled SQL mirror; add a virtual sink upstream if
    redistribution semantics are wanted."""
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    def init(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({"node": batch.column("node").cast(pa.int64()),
                         "rank_ppm": pa.array(np.full(n, SCALE), pa.int64())})

    ranks = nodes_ds.map_batches(init, batch_format="pyarrow")

    if out_deg is None:
        def deg_partial(batch: pa.Table) -> pa.Table:
            import pandas as pd
            s = pd.Series(batch.column("src").to_numpy())
            g = s.value_counts()
            return pa.table({"node": pa.array(g.index.to_numpy()
                                              .astype("int64")),
                             "_d": pa.array(g.to_numpy()
                                            .astype("int64"))})

        deg = (edges_ds.map_batches(deg_partial, batch_format="pyarrow")
               .groupby("node").aggregate(Sum("_d", alias_name="deg")))
        tagged_src = edges_ds.map_batches(
            lambda b: pa.table({"node": b.column("src").cast(pa.int64()),
                                "dst": b.column("dst").cast(pa.int64())}),
            batch_format="pyarrow")
        edges_aug = hash_join(tagged_src, deg, on="node",
                              num_partitions=num_partitions).materialize()
    else:
        edges_aug = edges_ds.map_batches(
            lambda b: pa.table({"node": b.column("src").cast(pa.int64()),
                                "dst": b.column("dst").cast(pa.int64()),
                                "deg": pa.array([out_deg] * b.num_rows,
                                                pa.int64())}),
            batch_format="pyarrow")

    for _ in range(iters):
        # contributions: edges ⋈ ranks on src → (dst, r // deg)
        joined = hash_join(edges_aug, ranks, on="node",
                           num_partitions=num_partitions)

        def contrib(batch: pa.Table) -> pa.Table:
            r = batch.column("rank_ppm").to_numpy()
            d = batch.column("deg").to_numpy()
            return pa.table({"node": batch.column("dst"),
                             "c": pa.array(r // d, pa.int64())})

        # zero-row injection instead of a second join: every node
        # contributes a 0 so sink nodes survive the groupby with s=0 —
        # one exchange saved per iteration
        zeros = ranks.map_batches(
            lambda b: pa.table({"node": b.column("node"),
                                "c": pa.array(np.zeros(len(b), np.int64),
                                              pa.int64())}),
            batch_format="pyarrow")
        sums = (joined.map_batches(contrib, batch_format="pyarrow")
                .union(zeros)
                .groupby("node").aggregate(Sum("c", alias_name="s")))

        def update(batch: pa.Table) -> pa.Table:
            s = batch.column("s").to_numpy()
            new_r = BASE_PPM + (DAMP_PPM * s) // SCALE
            return pa.table({"node": batch.column("node").cast(pa.int64()),
                             "rank_ppm": pa.array(new_r, pa.int64())})

        ranks = _bound_blocks(
            sums.map_batches(update, batch_format="pyarrow"),
            num_partitions).materialize()

    return ranks


def resolve_pointers(ptr_ds, *, iters: int, num_partitions: int = 32):
    """Pointer doubling (parallel pointer jumping): resolve every node of
    a functional graph ``node → ptr`` to the end of its chain in
    O(log L) join rounds instead of O(L) sequential hops — the
    transitive-resolution primitive behind HTTP-redirect canonicalization
    (301 chains must collapse to the final URL before url-keyed dedup),
    symlink/alias tables, and union-find path compression.

    ``ptr_ds``: (node:int64, ptr:int64) with exactly one row per node;
    terminals point at themselves (``ptr == node``). Each round replaces
    ``ptr[v]`` with ``ptr[ptr[v]]``, doubling the distance covered, so
    ``iters`` rounds resolve every chain of length ≤ 2**iters. Chains
    longer than that remain partially resolved — size ``iters`` to
    ⌈log2(max chain length)⌉; redirect chains are browser-capped (~20
    hops) so iters=5 covers the web case.

    Physical plan per round: ONE key-projected hash_join of the pointer
    table against itself (left keyed by ptr, right by node) — shuffle
    volume is 2 int64 columns × n rows, never the payload; the result is
    materialized because the next round reads it twice (the documented
    input-reuse exception, as in pagerank_int). Self-pointing terminals
    join against themselves, so no row is ever lost. Returns
    (node, ptr) with ptr = chain end."""
    from documentai_ray.stages.joins import hash_join

    cur = ptr_ds.map_batches(
        lambda b: pa.table({"node": b.column("node").cast(pa.int64()),
                            "ptr": b.column("ptr").cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        left = cur.map_batches(
            lambda b: pa.table({"node": b.column("node"),
                                "key": b.column("ptr")}),
            batch_format="pyarrow")
        right = cur.map_batches(
            lambda b: pa.table({"key": b.column("node"),
                                "nxt": b.column("ptr")}),
            batch_format="pyarrow")
        joined = hash_join(left, right, on="key",
                           num_partitions=num_partitions)
        cur = _bound_blocks(
            joined.map_batches(
                lambda b: pa.table({"node": b.column("node"),
                                    "ptr": b.column("nxt")}),
                batch_format="pyarrow"),
            num_partitions).materialize()

    return cur


def triangle_counts(edges_ds, *, num_partitions: int = 32,
                    id_bits: int = 31):
    """Per-apex triangle counting via the oriented wedge join (the
    node-iterator algorithm of Schank & Wagner 2005, expressed as two
    Dataset joins): orient every undirected edge low→high (self-loops
    dropped, duplicates removed), enumerate wedges (a,b,c) with
    a < b < c by self-joining the oriented edge list on its low
    endpoint, then keep the wedges whose closing edge (b,c) exists —
    a semi-join against the edge set on a composite key. Each triangle
    is counted exactly once, attributed to its smallest node (the apex).

    Orientation bounds wedge blowup: a node's wedge count is
    C(out_deg, 2) over HIGHER-id neighbours only, so a celebrity node
    with d in-edges generates no wedges from its in-side (the standard
    mitigation; orient by degree instead of id when skew profiling
    demands it). Shuffle volume is int64 key projections throughout —
    edges as (lo, hi), wedges as (bc_key, apex); node ids must fit
    ``id_bits`` bits so the composite ``lo << id_bits | hi`` stays in
    int64. Returns (node, n_triangles) for apexes with ≥ 1 triangle.
    """
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    shift = np.int64(1 << id_bits)

    def orient(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        keep = s != d
        lo = np.minimum(s, d)[keep]
        hi = np.maximum(s, d)[keep]
        pk = ((lo * shift + hi) % num_partitions).astype(np.int32)
        return pa.table({"lo": pa.array(lo, pa.int64()),
                         "hi": pa.array(hi, pa.int64()),
                         "_pkey": pa.array(pk, pa.int32())})

    def distinct(g: pa.Table) -> pa.Table:
        df = g.to_pandas().drop_duplicates(["lo", "hi"])
        return pa.table({"lo": pa.array(df["lo"].to_numpy(), pa.int64()),
                         "hi": pa.array(df["hi"].to_numpy(), pa.int64())})

    # materialized: the oriented-distinct edge list feeds three scans
    # (wedge left, wedge right, closing semi-join)
    e = (edges_ds.map_batches(orient, batch_format="pyarrow")
         .groupby("_pkey").map_groups(distinct, batch_format="pyarrow")
         .materialize())

    wedges = hash_join(
        e.map_batches(lambda b: pa.table({"key": b.column("lo"),
                                          "b": b.column("hi")}),
                      batch_format="pyarrow"),
        e.map_batches(lambda b: pa.table({"key": b.column("lo"),
                                          "c": b.column("hi")}),
                      batch_format="pyarrow"),
        on="key", num_partitions=num_partitions)

    def wedge_keys(batch: pa.Table) -> pa.Table:
        b = batch.column("b").to_numpy()
        c = batch.column("c").to_numpy()
        keep = b < c
        return pa.table({
            "key": pa.array(b[keep] * shift + c[keep], pa.int64()),
            "apex": batch.column("key").to_numpy()[keep]})

    closing = e.map_batches(
        lambda b: pa.table({"key": pa.array(
            b.column("lo").to_numpy() * shift + b.column("hi").to_numpy(),
            pa.int64())}),
        batch_format="pyarrow")

    closed = hash_join(wedges.map_batches(wedge_keys,
                                          batch_format="pyarrow"),
                       closing, on="key",
                       num_partitions=num_partitions, how="semi")

    ones = closed.map_batches(
        lambda b: pa.table({"node": pa.array(b.column("apex").to_numpy(),
                                             pa.int64()),
                            "one": pa.array(np.ones(len(b), np.int64))}),
        batch_format="pyarrow")
    return ones.groupby("node").aggregate(Sum("one",
                                              alias_name="n_triangles"))


def bfs_khop(edges_ds, seeds_ds, *, k: int, num_partitions: int = 32):
    """k-hop BFS frontier: minimum hop distance (≤ k) from a seed set
    over a directed edge table — crawl-frontier expansion, blast-radius
    queries, n-degree link neighborhoods.

    ``edges_ds``: (src:int64, dst:int64); ``seeds_ds``: (node:int64).
    Returns (node, depth) with depth = min hops from any seed, for every
    node within k hops.

    Physical plan per round: ONE key-projected hash_join of the current
    frontier against the edge table (shuffle carries 2 int64 columns),
    then a groupby-min dedups the next frontier.  No visited-set
    anti-join is kept: the frontier at round d is the full ≤d-hop
    neighborhood, so re-expansions are bounded by the neighborhood's own
    edge count (the output size), and non-minimal depth candidates lose
    the final groupby-min.  Rounds materialize (the documented
    input-reuse exception, as in resolve_pointers)."""
    from ray.data.aggregate import Min

    from documentai_ray.stages.joins import hash_join

    frontier = seeds_ds.map_batches(
        lambda b: pa.table({"node": b.column("node").cast(pa.int64()),
                            "depth": pa.array([0] * b.num_rows,
                                              pa.int64())}),
        batch_format="pyarrow").materialize()
    levels = [frontier]

    for d in range(1, k + 1):
        left = frontier.map_batches(
            lambda b: pa.table({"src": b.column("node")}),
            batch_format="pyarrow")
        joined = hash_join(left, edges_ds, on="src",
                           num_partitions=num_partitions)
        frontier = (joined.map_batches(
            lambda b, _d=d: pa.table({"node": b.column("dst"),
                                      "depth": pa.array(
                                          [_d] * b.num_rows, pa.int64())}),
            batch_format="pyarrow")
            .groupby("node").aggregate(Min("depth", alias_name="depth")))
        frontier = _bound_blocks(frontier, num_partitions).materialize()
        if frontier.count() == 0:
            break  # no node reachable at depth d ⇒ none at d+1 either
        levels.append(frontier)

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out.groupby("node").aggregate(Min("depth", alias_name="depth"))


def cooccurrence_pairs(ds, *, basket_col: str, item_col: str,
                       min_support: int = 2, num_partitions: int = 32,
                       max_basket: int = 10_000):
    """Market-basket co-occurrence (bipartite projection): count, for
    every unordered item pair, the baskets containing BOTH items; keep
    pairs with support ≥ ``min_support``. The frequently-bought-together
    / co-citation / co-occurring-token primitive.

    Physical plan: ONE basket-hash exchange co-locates each basket's
    (basket, item) rows — the projection, never payloads; per partition
    a vectorized distinct + self-merge emits each basket's
    ``m·(m−1)/2`` ordered pairs (item_a < item_b) and pre-combines them
    to per-partition pair counts; a second exchange ships only those
    partial counts (bounded by distinct pairs, not pair instances) for
    the final sum + support filter.

    Skew contract: a basket of m items contributes m²/2 pairs — one
    viral basket can dominate a partition. ``max_basket`` REJECTS
    baskets beyond the cap loudly (raise, not silent drop): at web
    scale, cap-or-sample is an explicit upstream curation decision, not
    something a join should decide silently."""
    from documentai_ray.stages.dedup import _add_pkey
    import pandas as pd

    keyed = _add_pkey(ds.select_columns([basket_col, item_col]),
                      basket_col, num_partitions)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[[basket_col, item_col]].drop_duplicates()
        sizes = g.groupby(basket_col, sort=False)[item_col].transform("size")
        if (sizes > max_basket).any():
            big = g.loc[sizes > max_basket, basket_col].iloc[0]
            raise ValueError(
                f"basket {big!r} exceeds max_basket={max_basket}; "
                "cap or sample upstream")
        m = g.merge(g, on=basket_col, suffixes=("_a", "_b"))
        m = m[m[f"{item_col}_a"] < m[f"{item_col}_b"]]
        out = (m.groupby([f"{item_col}_a", f"{item_col}_b"], sort=False)
               .size().reset_index(name="_n"))
        return out.rename(columns={f"{item_col}_a": "item_a",
                                   f"{item_col}_b": "item_b"})

    partials = (keyed.groupby("_pkey")
                .map_groups(lambda g: pairs(g.drop(columns=["_pkey"])),
                            batch_format="pandas"))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["item_a", "item_b"], sort=False)["_n"]
             .sum().reset_index(name="n"))
        return c[c["n"] >= min_support]

    def pair_key(batch: pa.Table) -> pa.Table:
        from documentai_ray.stages._hashutil import hash_pkey

        pk = hash_pkey([batch.column("item_a"), batch.column("item_b")],
                       num_partitions)
        return batch.append_column("_ppk", pa.array(pk, pa.int32()))

    return (partials.map_batches(pair_key, batch_format="pyarrow")
            .groupby("_ppk")
            .map_groups(lambda g: finish(g.drop(columns=["_ppk"])),
                        batch_format="pandas"))


def sssp_bounded(edges_ds, seeds_ds, *, rounds: int,
                 num_partitions: int = 32):
    """Bounded-round single-source(-set) shortest paths over WEIGHTED
    directed edges — bfs_khop's cost-aware sibling (min hop count ≠ min
    cost once weights differ: a 2-hop path can undercut a heavy direct
    edge). Bellman-Ford relaxation, ``rounds`` iterations: exact for
    every shortest path using ≤ ``rounds`` edges.

    ``edges_ds``: (src, dst, w) int64, w ≥ 0; ``seeds_ds``: (node).
    Returns (node, dist) = min path cost reachable within the round
    budget. Physical plan per round: ONE key-projected hash_join of the
    current distance table against the edges (3 int64 columns shuffle),
    candidate dist = dist + w, then groupby-min folds candidates AND the
    previous table (monotone: distances only decrease). Rounds
    materialize — the documented input-reuse exception, as in
    bfs_khop/resolve_pointers."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    from documentai_ray.stages.joins import hash_join

    dist = seeds_ds.map_batches(
        lambda b: pa.table({"node": b.column("node").cast(pa.int64()),
                            "dist": pa.array([0] * b.num_rows,
                                             pa.int64())}),
        batch_format="pyarrow").materialize()

    prev_witness: tuple | None = None
    for _ in range(rounds):
        left = dist.map_batches(
            lambda b: pa.table({"src": b.column("node"),
                                "dist": b.column("dist")}),
            batch_format="pyarrow")
        joined = hash_join(left, edges_ds, on="src",
                           num_partitions=num_partitions)
        cand = joined.map_batches(
            lambda b: pa.table({
                "node": b.column("dst"),
                "dist": pc.add(b.column("dist"), b.column("w"))}),
            batch_format="pyarrow")
        dist = (dist.union(cand)
                .groupby("node").aggregate(Min("dist", alias_name="dist")))
        dist = _bound_blocks(dist, num_partitions).materialize()
        w = _relax_witness(dist, "dist")
        if w == prev_witness:
            break  # fixed point: monotone, so no further round changes
        prev_witness = w
    return dist


def dag_layers(edges_ds, nodes_ds, *, rounds: int,
               num_partitions: int = 32):
    """Topological LAYERING of a DAG: ``layer(v)`` = length of the
    longest path ending at ``v`` (sources are layer 0) — the
    scheduling-wave / critical-path-depth primitive (which jobs can run
    in parallel wave k; how deep is the dependency chain). The
    max-relaxation sibling of ``sssp_bounded``: exact once ``rounds`` ≥
    the DAG's longest-path length (on a DAG the relaxation is monotone
    non-decreasing and fixes after depth rounds; there are no cycles to
    guard against).

    ``edges_ds``: (src, dst) int64 with src → dst; ``nodes_ds``:
    (node). Physical plan per round: ONE key-projected hash_join of the
    current layer table against the edges (2 int64 columns shuffle),
    candidate layer = layer + 1 at the destination, groupby-MAX folds
    candidates and the previous table. Rounds materialize — the
    documented input-reuse exception (bfs_khop / sssp_bounded)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from documentai_ray.stages.joins import hash_join

    layer = nodes_ds.map_batches(
        lambda b: pa.table({"node": b.column("node").cast(pa.int64()),
                            "layer": pa.array([0] * b.num_rows,
                                              pa.int64())}),
        batch_format="pyarrow").materialize()

    prev_witness: tuple | None = None
    for _ in range(rounds):
        left = layer.map_batches(
            lambda b: pa.table({"src": b.column("node"),
                                "layer": b.column("layer")}),
            batch_format="pyarrow")
        joined = hash_join(left, edges_ds, on="src",
                           num_partitions=num_partitions)
        cand = joined.map_batches(
            lambda b: pa.table({
                "node": b.column("dst"),
                "layer": pc.add(b.column("layer"), 1)}),
            batch_format="pyarrow")
        layer = (layer.union(cand)
                 .groupby("node").aggregate(Max("layer",
                                                alias_name="layer")))
        layer = _bound_blocks(layer, num_partitions).materialize()
        w = _relax_witness(layer, "layer")
        if w == prev_witness:
            break  # fixed point: relaxation is monotone, so done
        prev_witness = w
    return layer


def kcore_nodes(edges_ds, *, k: int, rounds: int,
                num_partitions: int = 32):
    """k-core decomposition by iterative peeling: repeatedly delete
    every node of degree < k (with its edges) until none remains — the
    surviving subgraph is the k-core, the classic "dense backbone"
    screen (link-graph spam cores, co-purchase communities, collab
    clusters). Peeling cascades: removing a pendant node can drop its
    neighbor below k next round, so one degree pass is NOT enough.

    ``edges_ds``: undirected edge list (src:int64, dst:int64), each
    edge given ONCE, no self-loops / multi-edges (symmetrized
    internally). Returns (node, deg) for k-core members with deg = the
    node's degree INSIDE the core.

    Physical plan per round: one degree groupby (exchange bounded by
    live nodes) + two semi hash_joins restricting the live edge set to
    surviving endpoints (key-projected — 2 int64 columns move). The
    live node count is monotone DECREASING, so its count is a
    sufficient fixed-point witness (the `_relax_witness` argument):
    the loop exits as soon as a round removes nobody. ``rounds`` caps
    the budget; if the cascade is deeper than ``rounds`` the result is
    the (documented) partial peel — choose rounds ≥ the longest pendant
    chain. Blocks re-bounded per round (`_bound_blocks`)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from documentai_ray.stages.joins import hash_join

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def sym(batch: pa.Table) -> pa.Table:
        s = batch.column("src").cast(pa.int64())
        d = batch.column("dst").cast(pa.int64())
        return pa.table({
            "src": pa.concat_arrays([s.combine_chunks(),
                                     d.combine_chunks()]),
            "dst": pa.concat_arrays([d.combine_chunks(),
                                     s.combine_chunks()])})

    live = (edges_ds.map_batches(sym, batch_format="pyarrow")
            .materialize())
    prev_nodes = -1

    for _ in range(rounds):
        deg = live.groupby("src").aggregate(Count())
        survivors = deg.map_batches(
            lambda b: pa.table(
                {"node": b.column("src").filter(
                    pc.greater_equal(b.column("count()"), k))}),
            batch_format="pyarrow").materialize()
        n_nodes = survivors.count()
        if n_nodes == prev_nodes:
            break  # nobody removed -> fixpoint
        prev_nodes = n_nodes
        if n_nodes == 0:
            live = live.limit(0)
            break
        keep_src = survivors.map_batches(
            lambda b: pa.table({"src": b.column("node")}),
            batch_format="pyarrow")
        keep_dst = survivors.map_batches(
            lambda b: pa.table({"dst": b.column("node")}),
            batch_format="pyarrow")
        live = hash_join(live, keep_src, on="src", how="semi",
                         num_partitions=num_partitions)
        live = hash_join(live, keep_dst, on="dst", how="semi",
                         num_partitions=num_partitions)
        live = _bound_blocks(live, num_partitions).materialize()

    deg = live.groupby("src").aggregate(Count())
    return deg.map_batches(
        lambda b: pa.table({"node": b.column("src"),
                            "deg": b.column("count()").cast(pa.int64())}),
        batch_format="pyarrow")


def clustering_coefficient(edges_ds, *, num_partitions: int = 32,
                           id_bits: int = 31):
    """Global clustering coefficient — the transitivity ratio
    3·triangles / wedges in exact integer ppm, the one-number answer
    to "is this link graph clumpy or random?" (web link graphs run
    high, random graphs near zero; a spam link-farm shows as a
    transitivity spike). Rational by construction — triangles and
    wedges are both counts — so the ppm floor is bit-exact in SQL
    where a float ratio is not.

    Composes the existing machinery: triangles from
    ``triangle_counts`` (oriented wedge join, each counted once at its
    apex), wedges = Σ_v C(d_v, 2) over UNDIRECTED degrees from the
    deduped edge list — degree counting is one endpoint-flatten +
    Count exchange bounded by nodes, the per-node C(d,2) terms fold
    with a distributed sum (d·(d−1) is always even, so //2 is exact).
    Only scalars reach the driver. Returns one row
    (n_nodes, n_edges, n_wedges, n_triangles, clustering_ppm);
    a wedge-free graph reports 0 ppm."""
    from ray.data.aggregate import Count, Sum

    shift = np.int64(1 << id_bits)

    def orient(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        keep = s != d
        lo = np.minimum(s, d)[keep]
        hi = np.maximum(s, d)[keep]
        pk = ((lo * shift + hi) % num_partitions).astype(np.int32)
        return pa.table({"lo": pa.array(lo, pa.int64()),
                         "hi": pa.array(hi, pa.int64()),
                         "_pkey": pa.array(pk, pa.int32())})

    def distinct(g: pa.Table) -> pa.Table:
        df = g.to_pandas().drop_duplicates(["lo", "hi"])
        return pa.table({"lo": pa.array(df["lo"].to_numpy(), pa.int64()),
                         "hi": pa.array(df["hi"].to_numpy(), pa.int64())})

    e = (edges_ds.map_batches(orient, batch_format="pyarrow")
         .groupby("_pkey").map_groups(distinct, batch_format="pyarrow")
         .materialize())  # key-projection list, feeds degree + triangle scans

    def endpoints(batch: pa.Table) -> pa.Table:
        lo = batch.column("lo").to_numpy()
        hi = batch.column("hi").to_numpy()
        return pa.table({"node": pa.array(np.concatenate([lo, hi]),
                                          pa.int64())})

    deg = (e.map_batches(endpoints, batch_format="pyarrow")
           .groupby("node").aggregate(Count(alias_name="d")))

    def wedge_terms(batch: pa.Table) -> pa.Table:
        d = batch.column("d").to_numpy().astype(np.int64)
        return pa.table({"w": pa.array(d * (d - 1) // 2, pa.int64())})

    n_nodes = deg.count()
    n_wedges = int(deg.map_batches(wedge_terms, batch_format="pyarrow")
                   .sum("w") or 0)
    n_edges = e.count()

    tri = triangle_counts(
        e.map_batches(lambda b: pa.table({"src": b.column("lo"),
                                          "dst": b.column("hi")}),
                      batch_format="pyarrow"),
        num_partitions=num_partitions, id_bits=id_bits)
    n_tri = int(tri.sum("n_triangles") or 0)

    ppm = (3 * n_tri * 10**6 // n_wedges) if n_wedges else 0
    return pa.table({
        "n_nodes": pa.array([n_nodes], pa.int64()),
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_wedges": pa.array([n_wedges], pa.int64()),
        "n_triangles": pa.array([n_tri], pa.int64()),
        "clustering_ppm": pa.array([ppm], pa.int64())})


def frequent_triples(ds, *, basket_col: str, item_col: str,
                     min_support: int = 2, num_partitions: int = 32,
                     max_basket: int = 128, max_freq_items: int = 5_000_000):
    """A-priori frequent 3-itemsets — the market-basket level above
    ``cooccurrence_pairs``: for every unordered item TRIPLE, the number
    of baskets containing all three, kept at support ≥ ``min_support``.
    The triple is where naive enumeration dies (m items → m³/6
    candidates per basket) and where the a-priori principle starts
    paying: an item in a frequent triple must itself be frequent, so a
    cheap item-support pass prunes the per-basket combination base
    BEFORE any triple is ever materialized.

    Physical plan: (1) item supports over DISTINCT (basket, item) —
    one pair exchange + one item-bounded exchange; the surviving item
    set ships ONCE via ``ray.put`` (bounded by ``max_freq_items``, the
    loud guard — at web scale a frequent-item table that doesn't fit a
    broadcast means min_support is set wrong). (2) one basket-hash
    exchange co-locates baskets; per partition the filtered baskets are
    grouped BY SIZE and each size class emits all its baskets' triples
    in one fancy-index (B, C(L,3), 3) numpy gather — no per-basket
    Python loop — pre-combined to per-partition triple counts.
    (3) a second exchange ships only those partials (bounded by
    distinct candidate triples) for the final sum + support filter.

    Skew contract: a basket of m frequent items contributes C(m,3)
    triples; ``max_basket`` REJECTS larger baskets loudly (cap-or-
    sample is an upstream curation decision, not a silent join-side
    drop)."""
    import zlib
    from itertools import combinations

    import pandas as pd
    import ray
    from ray.data.aggregate import Count

    from documentai_ray.stages.dedup import _add_pkey

    proj = ds.select_columns([basket_col, item_col])
    sup = (proj.groupby([basket_col, item_col]).aggregate(
               Count(alias_name="_d"))
           .groupby(item_col).aggregate(Count(alias_name="_sup")))
    freq_tbl = sup.filter(
        expr=f"_sup >= {int(min_support)}").to_pandas()
    if freq_tbl.empty:
        # no frequent items at all → no triples (empty to_pandas loses
        # the schema, so build the typed empty result explicitly)
        import ray.data
        return ray.data.from_pandas(pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ["item_a", "item_b", "item_c", "n"]}))
    if len(freq_tbl) > max_freq_items:
        raise ValueError(
            f"frequent_triples: {len(freq_tbl)} frequent items exceed "
            f"max_freq_items={max_freq_items}; raise min_support")
    freq_ref = ray.put(np.sort(freq_tbl[item_col].to_numpy()))

    keyed = _add_pkey(proj, basket_col, num_partitions)

    def triples(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"item_a": pd.Series([], dtype="int64"),
                              "item_b": pd.Series([], dtype="int64"),
                              "item_c": pd.Series([], dtype="int64"),
                              "_n": pd.Series([], dtype="int64")})
        g = g[[basket_col, item_col]].drop_duplicates()
        freq = ray.get(freq_ref)
        g = g[np.isin(g[item_col].to_numpy(), freq)]
        if g.empty:
            return empty
        g = g.sort_values([basket_col, item_col], kind="mergesort")
        items = g[item_col].to_numpy()
        _, starts, counts = np.unique(g[basket_col].to_numpy(),
                                      return_index=True,
                                      return_counts=True)
        if (counts > max_basket).any():
            big = g[basket_col].to_numpy()[starts[counts > max_basket][0]]
            raise ValueError(
                f"frequent_triples: basket {big!r} has "
                f"{int(counts.max())} frequent items > max_basket="
                f"{max_basket}; cap or sample upstream")
        outs = []
        for size in np.unique(counts):
            ln = int(size)
            if ln < 3:
                continue
            st = starts[counts == size]
            mat = items[st[:, None] + np.arange(ln)]
            idx = np.array(list(combinations(range(ln), 3)))
            outs.append(mat[:, idx].reshape(-1, 3))
        if not outs:
            return empty
        arr = np.concatenate(outs)
        df = pd.DataFrame(arr, columns=["item_a", "item_b", "item_c"])
        return (df.groupby(["item_a", "item_b", "item_c"], sort=False)
                .size().reset_index(name="_n"))

    partials = (keyed.groupby("_pkey")
                .map_groups(lambda g: triples(g.drop(columns=["_pkey"])),
                            batch_format="pandas"))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["item_a", "item_b", "item_c"], sort=False)["_n"]
             .sum().reset_index(name="n"))
        return c[c["n"] >= min_support]

    def triple_key(batch: pa.Table) -> pa.Table:
        from documentai_ray.stages._hashutil import hash_pkey

        pk = hash_pkey([batch.column("item_a"), batch.column("item_b"),
                        batch.column("item_c")], num_partitions)
        return batch.append_column("_ppk", pa.array(pk, pa.int32()))

    return (partials.map_batches(triple_key, batch_format="pyarrow")
            .groupby("_ppk")
            .map_groups(lambda g: finish(g.drop(columns=["_ppk"])),
                        batch_format="pandas"))


def common_neighbor_predict(edges_ds, *, top_k: int = 20,
                            num_partitions: int = 16,
                            max_degree: int = 10_000):
    """Common-neighbor link prediction: for every NON-adjacent node
    pair at distance 2, count the shared neighbors (the triadic-closure
    score — the open wedges a triangle count leaves open) and return
    the top-k candidates by (cn desc, a, b).

    Physical plan: symmetrize + drop self-loops (map-only), then the
    wedge fan-out IS a basket projection — each middle node is a basket
    of its distinct neighbors — so ``cooccurrence_pairs`` does the
    heavy lifting (one middle-hash exchange, vectorized per-basket
    self-merge, per-partition pre-combine; its ``max_basket`` cap is
    the hub guard here, surfaced as ``max_degree``).  Adjacent pairs
    are removed WITHOUT a join: undirected edges ride the same pair
    exchange as (cn=0, adj=1) marker rows, one groupby folds
    (Σcn, max adj), and the filter keeps adj = 0.  The k-row result is
    a global sort+limit (k bounded).

    Partitioning assumption: wedge count per middle is C(deg, 2) —
    a hub beyond ``max_degree`` raises loudly (cap upstream), the
    cooccurrence_pairs skew contract."""
    import pyarrow as pa
    from ray.data.aggregate import Max, Sum

    def sym(batch: pa.Table) -> pa.Table:
        import numpy as np
        s = batch.column("src").to_numpy()
        d = batch.column("dst").to_numpy()
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({
            "src": pa.array(np.concatenate([s, d]), pa.int64()),
            "dst": pa.array(np.concatenate([d, s]), pa.int64())})

    sym_ds = edges_ds.map_batches(sym, batch_format="pyarrow")
    wedges = cooccurrence_pairs(sym_ds, basket_col="src",
                                item_col="dst", min_support=1,
                                num_partitions=num_partitions,
                                max_basket=max_degree)

    def wedge_rows(batch: pa.Table) -> pa.Table:
        import numpy as np
        return pa.table({
            "a": batch.column("item_a"),
            "b": batch.column("item_b"),
            "cn": batch.column("n"),
            "adj": pa.array(
                np.zeros(batch.num_rows, dtype="int64"), pa.int64())})

    def edge_rows(batch: pa.Table) -> pa.Table:
        import numpy as np
        s = batch.column("src").to_numpy()
        d = batch.column("dst").to_numpy()
        keep = s != d
        s, d = s[keep], d[keep]
        z = np.zeros(len(s), dtype="int64")
        return pa.table({
            "a": pa.array(np.minimum(s, d), pa.int64()),
            "b": pa.array(np.maximum(s, d), pa.int64()),
            "cn": pa.array(z, pa.int64()),
            "adj": pa.array(z + 1, pa.int64())})

    both = (wedges.map_batches(wedge_rows, batch_format="pyarrow")
            .union(edges_ds.map_batches(edge_rows,
                                        batch_format="pyarrow")))
    def keep_open(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(
            pc.equal(batch.column("adj"), 0)).select(["a", "b", "cn"])

    return (both.groupby(["a", "b"])
            .aggregate(Sum("cn", alias_name="cn"),
                       Max("adj", alias_name="adj"))
            .map_batches(keep_open, batch_format="pyarrow")
            .sort(["cn", "a", "b"], descending=[True, False, False])
            .limit(top_k))
