"""Deduplication operators (SURVEY §2.8 + training-data-pipeline extensions).

The reference has no dedup (its unit of work is one uploaded file); at
Common-Crawl scale the pages table has url re-captures and near-duplicate
content, so the engine provides:

- ``dedup_latest``      exact dedup by key, latest-timestamp wins
  (hash-partition shuffle on the key + per-group first — SURVEY §7.4).
- ``dedup_exact_first`` exact content dedup: md5(content) groups, min-id wins.
- MinHash + LSH near-dup (``minhash_batch`` → band explode →
  ``groupby(band_key)`` → candidate pairs → Jaccard verify) — the
  shingle→minhash→band→bucket pipeline from the MinHash/LSH literature
  (Broder 1997; Leskovec-Rajaraman-Ullman ch.3).
- SimHash (Charikar 2002) 64-bit fingerprints + Hamming-ball grouping.
- n-gram Jaccard verification kernel (used by both LSH and as a standalone).

Scale notes: minhash signatures are computed vectorized per batch (numpy
universal hashing — no per-shingle Python hashing); the only all-to-all
exchange is the tiny ``(band_id, band_hash, id)`` table, never the payload.
Candidate verification joins text back via an id→text broadcast only at
test scale; at 100 TB it would be a bucket-partitioned self-join.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# 2^31-1: products a*x stay < 2^62, so (a*x+b) % p is exact in uint64
_MERSENNE = (1 << 31) - 1


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def _add_pkey(ds, col: str, num_partitions: int, out: str = "_pkey"):
    """Hash-partition key column: ``hash(col) % P``. P is bounded (≈2-4×
    cores), so the downstream ``groupby(_pkey).map_groups`` sees few, large
    groups — per-group Python overhead amortizes and the group body stays
    vectorized (Arrow or pandas). (One ``map_groups`` call per *row-key*
    group is the classic Ray Data anti-pattern: ~ms of overhead × millions
    of keys.)

    The hash is polars' vectorized 64-bit xxhash (seeded, process-stable —
    every worker maps the same key to the same partition); the per-row
    Python ``crc32`` loop it replaces was the hottest non-extract map in
    front of every dedup exchange (VERDICT r3 #6). Any deterministic hash
    is valid here: the partitioner only needs same-key → same-partition,
    and no output ever depends on WHICH partition a group lands in.

    Sizing P at scale: a partition must fit one worker's heap, so choose
    ``P ≈ max(cluster_cores × 2, total_rows / rows_per_worker)`` — the
    single-node default (64) is NOT a constant to keep on a 256-node run."""

    def f(batch: pa.Table) -> pa.Table:
        try:
            import polars as pl

            s = pl.from_arrow(batch.select([col]))
            if isinstance(s, pl.DataFrame):
                s = s.to_series()
            pk = (s.hash(seed=0) % num_partitions).cast(pl.Int32).to_numpy()
        except Exception:  # pragma: no cover - non-polars-hashable dtype
            import zlib

            keys = batch.column(col).to_pylist()
            pk = np.fromiter(
                (zlib.crc32(str(k).encode()) % num_partitions for k in keys),
                dtype=np.int32, count=len(keys),
            )
        return batch.append_column(out, pa.array(pk, pa.int32()))

    return ds.map_batches(f, batch_format="pyarrow")


def _one_per_run(g: pa.Table, sort_keys: list[tuple[str, str]],
                 keep: str) -> pa.Table:
    """One stable sort of a partition on ``sort_keys`` (nulls last), then
    the ``keep="first"`` or ``"last"`` row of each run of equal values in
    the first sort key (all nulls form one run). ``_pkey`` is dropped."""
    g = g.drop_columns(["_pkey"])
    if g.num_rows < 2:
        return g
    order = pc.sort_indices(g, sort_keys=sort_keys, null_placement="at_end")
    k = g.column(sort_keys[0][0]).take(order)
    head, tail = k[:-1], k[1:]
    same = pc.or_(pc.fill_null(pc.equal(head, tail), False),
                  pc.and_(pc.is_null(head), pc.is_null(tail)))
    edge = ~same.to_numpy()
    keep_mask = np.append(edge, True) if keep == "last" else np.insert(edge, 0, True)
    return g.take(order.filter(pa.array(keep_mask)))


def _keep_latest(g: pa.Table, key: str, ts: str) -> pa.Table:
    """``dedup_latest``'s group body: one stable sort on ``(key, ts)``, then
    the last row of each run of equal keys."""
    return _one_per_run(g, [(key, "ascending"), (ts, "ascending")], "last")


def _keep_first_md5(g: pa.Table, id_col: str) -> pa.Table:
    """``dedup_exact_first``'s group body: one stable sort on
    ``(content_md5, id_col)``, then the first row of each md5 run; the
    md5 column is dropped."""
    out = _one_per_run(g, [("content_md5", "ascending"), (id_col, "ascending")],
                       "first")
    return out.drop_columns(["content_md5"])


def dedup_latest(ds, key: str = "url", ts: str = "warc_ts",
                 num_partitions: int = 64):
    """Keep the latest capture per key.

    One shuffle, hash-partitioned on ``hash(key) % P`` (all captures of a
    key land in one partition); within each partition an Arrow body
    (``_keep_latest``). Keys are near-unique (dup rate a few %), so
    partitions are balanced. Nulls sort last: all null keys form one
    group, and a null ``ts`` wins its group. On equal ``ts`` the row later
    in the partition's input order wins. Output rows come in key order,
    and column types stay as they came in."""
    return (
        _add_pkey(ds, key, num_partitions)
        .groupby("_pkey")
        .map_groups(_keep_latest, batch_format="pyarrow",
                    fn_kwargs={"key": key, "ts": ts})
    )


def add_md5(ds, col: str = "text", out: str = "content_md5"):
    """Vectorized-ish content hash column (md5 hex) for exact content dedup."""

    def h(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_pylist()
        hashes = [hashlib.md5(v.encode("utf-8") if isinstance(v, str) else v).hexdigest() for v in vals]
        return batch.append_column(out, pa.array(hashes, type=pa.string()))

    return ds.map_batches(h, batch_format="pyarrow")


def dedup_exact_first(ds, id_col: str, content_col: str = "text",
                      num_partitions: int = 64):
    """Exact content dedup: hash-partition by md5(content), keep the min-id
    row per content hash (Arrow body ``_keep_first_md5``). Null ids sort
    last; on equal ids the row earlier in the partition's input order
    wins. Column types stay as they came in."""
    hashed = add_md5(ds, col=content_col)
    return (
        _add_pkey(hashed, "content_md5", num_partitions)
        .groupby("_pkey")
        .map_groups(_keep_first_md5, batch_format="pyarrow",
                    fn_kwargs={"id_col": id_col})
    )


def dedup_against_snapshot(new_ds, old_ds, *, content_col: str = "text",
                           num_partitions: int = 64):
    """Incremental crawl dedup (the CCNet/CC-per-snapshot pattern): keep
    only the NEW-snapshot rows whose content does not already exist in
    the PRIOR snapshot.

    Physical plan: both sides get an md5 content-hash column map-side,
    the old side is projected to ONLY its hash column (at 100 TB the
    prior snapshot's hash table is ~3% of its text bytes), then one
    bucketed anti ``hash_join`` on the hash — matching hashes co-locate,
    the existence test is a per-partition vectorized ``isin``. Nothing
    but (hash) ever shuffles for the old side; the new side shuffles its
    projected columns once. Output = the new rows' original columns.
    """
    new_h = add_md5(new_ds, col=content_col)
    old_h = add_md5(old_ds, col=content_col).select_columns(["content_md5"])
    from documentai_ray.stages.joins import hash_join

    kept = hash_join(new_h, old_h, on="content_md5",
                     num_partitions=num_partitions, how="anti")
    return kept.drop_columns(["content_md5"])


def dedup_against_snapshot_bloom(new_ds, old_ds, *, content_col: str = "text",
                                 m_bits: int = 1 << 20,
                                 num_partitions: int = 64):
    """Bloom-prefiltered incremental dedup — the scale path for
    :func:`dedup_against_snapshot` when the new snapshot dwarfs the prior
    one's hash table.

    Physical plan: the old side's u64 content hashes build a bloom bitmap
    (per-batch bitmap OR-merge, sketch-sized state only — joins.py::
    build_bloom), which ships once via ``ray.put``. The new side splits
    map-side: rows whose hash MISSES the bloom are *definitely new*
    (bloom has no false negatives) and bypass the exchange entirely; only
    the hits (true dups + ~1% false positives at 10 bits/key) go through
    the exact anti ``hash_join``, which removes the false positives — so
    the union of both branches is EXACTLY the plain anti-join result
    regardless of the filter's error rate.

    Cost contract: the two branches each execute the new side's map
    lineage (column-pruned read + hash + bitmap test, embarrassingly
    parallel, no exchange) — the trade is a second map-side scan for an
    all-to-all exchange that shrinks from |new| rows to |dups + FP| rows.
    At a 10⁰-duplication crawl snapshot that's a ~50× shuffle-volume cut;
    pick the plain path when the new snapshot is small enough that its
    full shuffle is cheap.
    """
    import numpy as np

    from documentai_ray.stages.joins import (_bloom_positions, bloom_prefilter,
                                             build_bloom, hash_join)

    # ONE md5 per row yields both keys: the full hex digest (the exact
    # join key — at 10¹² docs a bare 64-bit key WOULD birthday-collide
    # and silently drop genuinely-new rows) and its first-8-bytes-LE u64
    # (sketches.md5_le64 construction) for the bloom's integer mixing.
    def add_hashes(batch: pa.Table) -> pa.Table:
        vals = batch.column(content_col).to_pylist()
        digs = [hashlib.md5((v or "").encode("utf-8")).digest() for v in vals]
        hs = np.fromiter((int.from_bytes(d[:8], "little") for d in digs),
                         np.uint64, count=len(digs)).astype(np.int64)
        return (batch.append_column("content_md5",
                                    pa.array([d.hex() for d in digs],
                                             pa.string()))
                .append_column("content_h64", pa.array(hs, pa.int64())))

    new_h = new_ds.map_batches(add_hashes, batch_format="pyarrow")
    old_h = old_ds.map_batches(add_hashes, batch_format="pyarrow")
    bloom = build_bloom(old_h.select_columns(["content_h64"]),
                        key_col="content_h64", m_bits=m_bits)

    import ray

    ref = ray.put(np.packbits(bloom))

    def definitely_new(batch: pa.Table) -> pa.Table:
        bits = np.unpackbits(ray.get(ref)).astype(bool)
        pos = _bloom_positions(batch.column("content_h64").to_numpy(),
                               m_bits, 2)
        mask = np.ones(batch.num_rows, bool)
        for i in range(pos.shape[0]):
            mask &= bits[pos[i]]
        return batch.filter(pa.array(~mask))

    misses = new_h.map_batches(definitely_new, batch_format="pyarrow")
    hits = bloom_prefilter(new_h, bloom, key_col="content_h64")
    survivors = hash_join(hits, old_h.select_columns(["content_md5"]),
                          on="content_md5",
                          num_partitions=num_partitions, how="anti")
    return (misses.union(survivors)
            .drop_columns(["content_md5", "content_h64"]))


def canonicalize_url(url: str) -> str:
    """Crawl URL canonicalization: strip the query string and fragment.
    (Hosts in the synthetic corpus are already lowercase; a real crawl
    adds host lowercasing + default-port stripping here.)"""
    return url.split("?", 1)[0].split("#", 1)[0]


def surt(url: str) -> str:
    """Sort-friendly URI Reordering Transform — the key form the Common
    Crawl / Wayback CDX indexes sort by: reversed comma-joined host
    labels, then ``)``, then path?query, all lowercased.

    ``https://WWW.Example.com:443/A/b?z=1&a=2`` →
    ``com,example)/a/b?a=2&z=1``. Rules: scheme dropped; host lowercased,
    leading ``www.`` stripped, default ports (80/443) stripped,
    non-default ports kept as ``:port`` after the reversed host; query
    params sorted bytewise (the canonical total order that makes equal
    resources adjacent); fragment dropped. Host-reversal is what makes a
    RANGE SCAN over one domain a contiguous key range — the reason CDX
    shards sort by SURT, and the natural range-partitioning key for a
    per-domain pipeline stage."""
    scheme, sep, rest = url.partition("://")
    if not sep:
        scheme, rest = "http", url
    hostport, _, pathq = rest.partition("/")
    host, _, port = hostport.partition(":")
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    default = {"http": "80", "https": "443"}.get(scheme.lower())
    rev = ",".join(reversed(host.split(".")))
    if port and port != default:
        rev += ":" + port
    pathq = "/" + pathq
    pathq = pathq.partition("#")[0]
    pathq = _normalize_pct(pathq)
    path, qmark, query = pathq.partition("?")
    if qmark:
        path = path + "?" + "&".join(sorted(query.split("&")))
    return (rev + ")" + path).lower()


def _normalize_pct(s: str) -> str:
    """Percent-encoding normalization (RFC 3986 §6.2.2): decode escapes
    of UNRESERVED characters (%41 → A — equivalent URIs must get equal
    SURT keys) and uppercase the hex of every other escape (%3a → %3A);
    malformed escapes pass through untouched."""
    out = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "%" and i + 2 < n + 1 and i + 3 <= n:
            hx = s[i + 1:i + 3]
            try:
                v = int(hx, 16)
            except ValueError:
                out.append(c)
                i += 1
                continue
            ch = chr(v)
            if ch.isalnum() and ch.isascii() or ch in "-._~":
                out.append(ch)
            else:
                out.append("%" + hx.upper())
            i += 3
        else:
            out.append(c)
            i += 1
    return "".join(out)


def surt_batch(batch: pa.Table, *, url_col: str = "url",
               out_col: str = "surt_key") -> pa.Table:
    """Append the SURT key column (pure per-row string transform)."""
    keys = [surt(u) for u in batch.column(url_col).to_pylist()]
    return batch.append_column(out_col, pa.array(keys, pa.string()))


def dedup_canonical_url(ds, *, url_col: str = "url", text_col: str = "text",
                        num_partitions: int = 64):
    """Collapse URL variants (``?utm=...``, ``?amp=1``, ``#section``) to
    one row per canonical URL — the crawl-frontier dedup that runs BEFORE
    content dedup. Keeps the lexicographically smallest variant (the bare
    URL sorts before any ``?``-suffixed variant) and reports
    ``n_variants``.

    Same physical plan as ``dedup_latest``: one hash-partition shuffle on
    ``crc32(canonical) % P``, vectorized first-per-group within each
    partition. Returns ``(canonical_url, url, text, n_variants)``."""

    def canon(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        return batch.append_column(
            "canonical_url",
            pa.array([canonicalize_url(u) for u in urls], pa.string()))

    def first(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["canonical_url", url_col], kind="mergesort")
        agg = g.groupby("canonical_url", sort=False).agg(
            url=(url_col, "first"), text=(text_col, "first"),
            n_variants=(url_col, "size")).reset_index()
        return pa.table({
            "canonical_url": pa.array(agg["canonical_url"], pa.string()),
            "url": pa.array(agg["url"], pa.string()),
            "text": pa.array(agg["text"], pa.large_string()),
            "n_variants": pa.array(agg["n_variants"].astype("int64"),
                                   pa.int64())})

    return (
        _add_pkey(ds.map_batches(canon, batch_format="pyarrow"),
                  "canonical_url", num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: first(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# shingling + MinHash (vectorized)
# ---------------------------------------------------------------------------

_TOKEN_HASH_CACHE: dict[str, int] = {}
_SH_P1 = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio multipliers
_SH_P2 = np.uint64(0xC2B2AE3D27D4EB4F)
_SH_P3 = np.uint64(0x165667B19E3779F9)


def _token_hash(tok: str) -> int:
    h = _TOKEN_HASH_CACHE.get(tok)
    if h is None:
        h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")
        if len(_TOKEN_HASH_CACHE) < 1_000_000:  # bounded per-worker cache (T2/T5 pattern)
            _TOKEN_HASH_CACHE[tok] = h
    return h


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Distinct 64-bit hashes of word k-shingles.

    Vectorized: each token is md5-hashed once (worker-local cache — corpus
    vocabularies repeat heavily), then the k-shingle hash is a position-
    weighted mix of k consecutive token hashes computed as one numpy
    expression over the whole token array (no per-shingle string building).
    """
    toks = text.split()
    if len(toks) < k:
        # < k tokens → empty shingle set (matches ngram_jaccard / the SQL
        # oracle's generate_series semantics; such rows can never pair)
        return np.empty(0, dtype=np.uint64)
    th = np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64, count=len(toks))
    if k == 3:  # fast path: one fused expression
        sh = th[:-2] * _SH_P1 + th[1:-1] * _SH_P2 + th[2:] * _SH_P3
    else:  # generic k: polynomial mix over the k offsets
        n = len(th) - k + 1
        sh = np.zeros(n, dtype=np.uint64)
        for j in range(k):
            sh = sh * _SH_P1 + th[j : j + n] * _SH_P2
    return np.unique(sh)


def _shingle_hashes_positional(text: str, k: int) -> np.ndarray:
    """Like ``_shingle_hashes`` but POSITION-ALIGNED: element ``i`` is the
    hash of tokens ``[i, i+k)``, duplicates kept, no sorting — the form
    span-level operators (``repeated_spans``) need."""
    toks = text.split()
    if len(toks) < k:
        return np.empty(0, dtype=np.uint64)
    th = np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64,
                     count=len(toks))
    n = len(th) - k + 1
    sh = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        sh = sh * _SH_P1 + th[j : j + n] * _SH_P2
    return sh


def minhash_signature(text: str, perm_a: np.ndarray, perm_b: np.ndarray, k: int = 3) -> np.ndarray:
    """num_perm MinHash values via universal hashing ((a*x+b) mod p) — one
    vectorized numpy op over all shingles × permutations."""
    h = _shingle_hashes(text, k)
    if h.size == 0:
        return np.full(perm_a.shape[0], np.iinfo(np.uint64).max, dtype=np.uint64)
    x64 = h % np.uint64(_MERSENNE)
    vals = (perm_a[:, None] * x64[None, :] + perm_b[:, None]) % np.uint64(_MERSENNE)
    return vals.min(axis=1).astype(np.uint64)


def make_permutations(num_perm: int = 64, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm).astype(np.uint64)
    return a, b


class MinHashStage:
    """Actor-pool stage: permutations built once per actor (SURVEY §2.4 T2
    pattern), signatures appended per batch."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 42):
        self.a, self.b = make_permutations(num_perm, seed)
        self.k = shingle_k
        self.num_perm = num_perm

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sigs = [minhash_signature(t or "", self.a, self.b, self.k).tolist() for t in texts]
        return batch.append_column("minhash", pa.array(sigs, type=pa.list_(pa.uint64())))


def lsh_candidate_pairs(ds, id_col: str, *, num_perm: int = 64, bands: int = 16,
                        num_partitions: int = 64, bucket_cap: int = 200):
    """MinHash-LSH: signature → band rows → hash-partitioned per-band
    self-join → deduplicated candidate pairs ``(id_a, id_b)``, id_a < id_b.

    Shuffle cost: only the tiny ``(band_key, id)`` projection moves (never
    text), partitioned by ``crc32(band_key) % P`` so every band bucket lands
    whole in one partition; the pair emission is one vectorized pandas
    self-merge per partition; a second tiny shuffle on a pair-hash key
    dedups pairs produced by multiple bands.

    Rows whose text produced NO shingles (empty / fewer than k tokens, i.e.
    an all-max signature) are dropped before banding: they can never verify
    at any Jaccard threshold, and at scale millions of empty docs would
    otherwise share identical band buckets and emit O(n²) junk candidates
    (ADVICE r1). ``bucket_cap`` bounds the k² pair blowup of a pathological
    band bucket; a bucket larger than the cap is SKIPPED, which can drop
    true pairs — the exact-recall contract holds only while genuine near-dup
    clusters stay under the cap, so size it ≥ the largest expected cluster
    (it is a knob, not a constant)."""
    rows_per_band = num_perm // bands
    sigged = ds.map_batches(
        MinHashStage,
        batch_format="pyarrow",
        concurrency=(1, 4),
        fn_constructor_kwargs={"num_perm": num_perm},
    )
    _ALLMAX = np.iinfo(np.uint64).max

    def explode(batch: pa.Table) -> pa.Table:
        # Vectorized banding (VERDICT r3 #6 — replaces a per-signature md5
        # loop): the fixed-width list<uint64> signature column flattens
        # zero-copy to an (n, num_perm) matrix; each band folds its
        # rows_per_band columns with an FNV-1a-style uint64 mix seeded by
        # the band index. The band key is only a bucket label — any
        # deterministic ~64-bit mix works; two signatures share a key iff
        # they share the band's values (collisions ~2^-64, and candidates
        # are exact-verified downstream anyway).
        sig_col = batch.column("minhash").combine_chunks()
        n = len(sig_col)
        if n == 0:
            return pa.table({id_col: batch.column(id_col),
                             "band_key": pa.array([], pa.uint64())})
        M = np.asarray(sig_col.flatten(), dtype=np.uint64).reshape(
            n, num_perm)
        keep = M[:, 0] != _ALLMAX           # shingle-less rows: skip
        M = M[keep]
        ids_kept = batch.column(id_col).filter(pa.array(keep))
        if isinstance(ids_kept, pa.Array):
            ids_kept = pa.chunked_array([ids_kept])
        FNV = np.uint64(0x100000001B3)
        band_keys = []
        with np.errstate(over="ignore"):    # uint64 wraparound is the mix
            for b in range(bands):
                key = np.full(M.shape[0], 0xCBF29CE484222325 ^ (b + 1),
                              dtype=np.uint64)
                for j in range(b * rows_per_band, (b + 1) * rows_per_band):
                    key = (key ^ M[:, j]) * FNV
                band_keys.append(key)
        ids_out = pa.chunked_array(
            [c for _ in range(bands) for c in ids_kept.chunks],
            type=ids_kept.type)
        return pa.table({
            id_col: ids_out,
            "band_key": pa.array(np.concatenate(band_keys)
                                 if band_keys else
                                 np.empty(0, np.uint64), pa.uint64())})

    bandrows = _add_pkey(
        sigged.map_batches(explode, batch_format="pyarrow"),
        "band_key", num_partitions,
    )

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["band_key", id_col]]
        # bound pathological buckets (a band value shared by thousands of
        # ids would emit k² pairs — cap like the reference caps inputs);
        # see bucket_cap contract in the docstring
        sizes = g.groupby("band_key")["band_key"].transform("size")
        g = g[sizes <= bucket_cap]
        m = g.merge(g, on="band_key", suffixes=("_a", "_b"))
        a, b = m[f"{id_col}_a"], m[f"{id_col}_b"]
        m = m[a < b]
        out = pd.DataFrame({"id_a": m[f"{id_col}_a"], "id_b": m[f"{id_col}_b"]})
        return out.drop_duplicates()

    cand = (
        bandrows.groupby("_pkey")
        .map_groups(pairs_in_partition, batch_format="pandas")
    )

    def dedup_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["id_a", "id_b"]).drop(columns=["_pair_pkey"])

    def add_pair_pkey(batch: pa.Table) -> pa.Table:
        from documentai_ray.stages._hashutil import hash_pkey

        pk = hash_pkey([batch.column("id_a"), batch.column("id_b")],
                       num_partitions)
        return batch.append_column("_pair_pkey", pa.array(pk, pa.int32()))

    return (
        cand.map_batches(add_pair_pkey, batch_format="pyarrow")
        .groupby("_pair_pkey")
        .map_groups(dedup_pairs, batch_format="pandas")
    )


def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    """Word-k-gram Jaccard similarity (verification kernel).

    Texts with fewer than ``k`` tokens have an EMPTY shingle set and can
    never pair (similarity 0.0) — mirroring the SQL oracles'
    ``generate_series(1, len - k + 1)`` semantics, where a short text
    yields no shingles and drops out of the union (ADVICE r1)."""
    sa = set(map(tuple, _zip_ngrams(a, k)))
    sb = set(map(tuple, _zip_ngrams(b, k)))
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _zip_ngrams(text: str, k: int):
    toks = text.split()
    if len(toks) < k:
        return []
    return [tuple(toks[i : i + k]) for i in range(len(toks) - k + 1)]


def blocked_jaccard_pairs(ds, *, id_col: str, block_col: str,
                          text_col: str = "text", threshold: float = 0.5,
                          k: int = 3, num_partitions: int = 64):
    """Exact pairwise k-shingle Jaccard ≥ ``threshold`` within blocks,
    WITHOUT the O(n²)-per-block pair loop: an inverted-index co-occurrence
    count per block (vectorized numpy).

    Per block: hash every doc's distinct k-shingles, sort the flat
    (shingle, doc) list, and count pair co-occurrences from equal-shingle
    runs — only doc pairs that actually share ≥1 shingle are ever touched,
    so the cost is output-bound (Σ_shingle df²) instead of n² full-text
    comparisons. At threshold ≥ 0.5 a qualifying pair shares ≥ ⅓ of its
    shingles, so spurious co-occurrences are sparse. Blocks are
    hash-partitioned on ``block_col`` (one partition holds whole blocks);
    Jaccard = inter / (|A| + |B| − inter) is evaluated on the counted
    intersections only. Exact modulo 64-bit shingle-hash collisions
    (~2⁻⁶⁴ per pair)."""

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        ids_dtype = g[id_col].dtype
        out_a, out_b = [], []
        for _, blk in g.groupby(block_col, sort=True):
            blk = blk.sort_values(id_col, kind="mergesort")
            ids = blk[id_col].to_numpy()
            n = len(ids)
            if n < 2:
                continue
            sets = [_shingle_hashes(t or "", k) for t in blk[text_col]]
            sizes = np.array([s.size for s in sets], dtype=np.int64)
            if sizes.sum() == 0:
                continue
            doc_idx = np.repeat(np.arange(n), sizes)
            hashes = np.concatenate([s for s in sets if s.size])
            order = np.argsort(hashes, kind="stable")
            h, d = hashes[order], doc_idx[order]
            starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
            ends = np.r_[starts[1:], h.size]
            runlen = ends - starts
            key_parts = []
            two = np.flatnonzero(runlen == 2)  # vectorized common case
            if two.size:
                a, b = d[starts[two]], d[starts[two] + 1]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                key_parts.append(lo.astype(np.int64) * n + hi)
            for s, e in zip(starts[runlen > 2], ends[runlen > 2]):
                run = np.sort(d[s:e])
                ia, ib = np.triu_indices(run.size, 1)
                key_parts.append(run[ia].astype(np.int64) * n + run[ib])
            if not key_parts:
                continue
            keys, counts = np.unique(np.concatenate(key_parts),
                                     return_counts=True)
            ia, ib = keys // n, keys % n
            union = sizes[ia] + sizes[ib] - counts
            keep = counts.astype(np.float64) / union >= threshold
            out_a.append(ids[ia[keep]])
            out_b.append(ids[ib[keep]])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=ids_dtype),
                                 "id_b": pd.Series(dtype=ids_dtype)})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)})

    return (
        _add_pkey(ds, block_col, num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: pairs_in_partition(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# connected components over candidate pairs (cluster near-dups)
# ---------------------------------------------------------------------------

def neardup_components(ids_ds, pairs_ds, *, id_col: str = "url",
                       max_iters: int = 6, num_partitions: int = 32):
    """Distributed min-label propagation: every node's label converges to
    the minimum id of its connected component in ≤ diameter iterations
    (clusters from near-dup pairs are shallow — ``max_iters`` bounds it).

    Each iteration is one partitioned hash join (labels→edges) plus one
    grouped min — no driver-side graph. Converged iterations are skipped:
    after each round a tiny order-insensitive digest (sum of per-(node,
    label) md5-int64s) is aggregated; an unchanged digest ⇒ no label moved
    ⇒ fixed point (collision-masking probability ~2⁻⁶⁴ per changed pair),
    so shallow graphs pay for their actual diameter, not ``max_iters``.
    Returns (id, component) where ``component`` is the min id of the
    node's component. Survivor set for dedup = rows with
    ``component == id``."""
    import hashlib as _hl

    import pandas as pd

    from documentai_ray.stages.joins import hash_join

    def to_labels(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        return pa.table({"node": ids, "label": ids})

    labels = ids_ds.map_batches(to_labels, batch_format="pyarrow")

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_pylist()
        b = batch.column("id_b").to_pylist()
        return pa.table({"node": pa.array(a + b), "nbr": pa.array(b + a)})

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow")

    from ray.data.aggregate import Min, Sum

    def digest_batch(batch: pa.Table) -> pa.Table:
        nodes = batch.column("node").to_pylist()
        labs = batch.column("label").to_pylist()
        d = [int.from_bytes(_hl.md5(f"{n}\x00{l}".encode()).digest()[:8],
                            "little", signed=True)
             for n, l in zip(nodes, labs)]
        return pa.table({"d": pa.array(d, pa.int64())})

    def labels_digest(lab_ds) -> int:
        agg = lab_ds.map_batches(digest_batch, batch_format="pyarrow").sum("d")
        return int(agg) % (1 << 64) if agg is not None else 0

    prev_digest: int | None = None
    for _ in range(max_iters):
        # neighbor labels: join edges (keyed by nbr) to labels (keyed by node)
        def ren(batch: pa.Table) -> pa.Table:
            return pa.table({"join_key": batch.column("nbr"),
                             "node": batch.column("node")})

        def lab(batch: pa.Table) -> pa.Table:
            return pa.table({"join_key": batch.column("node"),
                             "label": batch.column("label")})

        nbr_labels = hash_join(
            edges.map_batches(ren, batch_format="pyarrow"),
            labels.map_batches(lab, batch_format="pyarrow"),
            on="join_key", num_partitions=num_partitions,
        ).drop_columns(["join_key"])
        merged = labels.union(nbr_labels)
        labels = merged.groupby("node").aggregate(Min("label", alias_name="label"))
        # materialize the small (node,label) table so the lazy plan doesn't
        # re-execute the whole chain each iteration; coalesce first so the
        # loop state's block count stays pinned at num_partitions instead
        # of compounding ~2x per round (see graph._bound_blocks)
        labels = labels.repartition(num_partitions).materialize()
        dg = labels_digest(labels)
        if dg == prev_digest:
            break  # fixed point: no label changed this round
        prev_digest = dg

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch.column("node"),
                         "component": batch.column("label")})

    return labels.map_batches(finish, batch_format="pyarrow")


def verify_jaccard_pairs(texts_ds, pairs_ds, *, id_col: str = "url",
                         text_col: str = "text", threshold: float = 0.8,
                         k: int = 3, broadcast_limit: int = 100_000,
                         num_partitions: int = 64):
    """Exact-Jaccard verification of candidate pairs.

    Two physical plans, chosen by corpus size:

    - ``count(texts) ≤ broadcast_limit``: id→text dict broadcast once via
      ``ray.put``; verification is a pure map over the pair set.
    - larger: fully distributed — two partitioned hash joins attach
      ``text_a`` / ``text_b`` to the pair rows, then a vectorized batch
      filter computes Jaccard. No driver materialization of texts.

    Both paths return the identical pair set (id_a, id_b), empty texts
    excluded.

    The texts input is ``materialize()``d first — every plan below
    consumes it more than once (count + broadcast take_all, or count +
    two hash joins), and an unpinned lineage re-executes the upstream
    extract chain per consumption (the kmeans_fit input-reuse exception
    to the no-mid-pipeline-materialize rule)."""
    import ray

    texts_ds = texts_ds.materialize()
    n_texts = texts_ds.count()

    def jac_ok(ta: str, tb: str) -> bool:
        return bool(ta) and bool(tb) and ngram_jaccard(ta, tb, k) >= threshold

    if n_texts <= broadcast_limit:
        lookup = ray.put({r[id_col]: r[text_col] for r in texts_ds.take_all()})

        def verify(batch: pd.DataFrame) -> pd.DataFrame:
            lk = ray.get(lookup)
            keep = [jac_ok(lk.get(a, ""), lk.get(b, ""))
                    for a, b in zip(batch["id_a"], batch["id_b"])]
            return batch[pd.Series(keep, index=batch.index)]

        return pairs_ds.map_batches(verify, batch_format="pandas")

    from documentai_ray.stages.joins import hash_join

    # hash_join derives its union schema from Dataset.schema() — pandas-
    # block inputs (map_groups(batch_format="pandas") lineages) report
    # numpy dtypes there, not Arrow types; one pass-through arrow batch
    # normalizes the block format so the join schema is well-typed
    pairs_ds = pairs_ds.map_batches(lambda t: t, batch_format="pyarrow")

    def side(col_id, col_text):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({col_id: batch.column(id_col),
                             col_text: batch.column(text_col)})
        return f

    with_a = hash_join(
        pairs_ds, texts_ds.map_batches(side("id_a", "text_a"), batch_format="pyarrow"),
        on="id_a", num_partitions=num_partitions,
    )
    with_ab = hash_join(
        with_a, texts_ds.map_batches(side("id_b", "text_b"), batch_format="pyarrow"),
        on="id_b", num_partitions=num_partitions,
    )

    def verify_joined(batch: pd.DataFrame) -> pd.DataFrame:
        keep = [jac_ok(ta or "", tb or "")
                for ta, tb in zip(batch["text_a"], batch["text_b"])]
        out = batch[pd.Series(keep, index=batch.index)]
        return out[["id_a", "id_b"]]

    return with_ab.map_batches(verify_joined, batch_format="pandas")


def neardup_components_auto(ids_ds, pairs_ds, *, id_col: str = "url",
                            driver_limit: int = 1_000_000, **kwargs):
    """Pick the component algorithm by candidate-set size.

    Verified near-dup pairs are orders of magnitude fewer than corpus rows,
    so when the pair count is provably small (≤ ``driver_limit``) a
    driver-side union-find over just the pairs + a broadcast label map is
    both faster and exactly equivalent; otherwise fall back to the fully
    distributed min-label propagation (``neardup_components``). The
    size check itself is one cheap ``count()``."""
    import ray

    # Materialize the pairs ONCE: they are consumed twice below (count +
    # take_all / propagation joins), and without pinning, each consumption
    # re-executes the whole upstream LSH+verify lineage. Verified near-dup
    # pairs are orders of magnitude smaller than the corpus, so this is
    # the legitimate small-side materialization, not a mid-pipeline spill.
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs > driver_limit:
        return neardup_components(ids_ds, pairs_ds, id_col=id_col, **kwargs)

    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in pairs_ds.take_all():
        a, b = r["id_a"], r["id_b"]
        for v in (a, b):
            parent.setdefault(v, v)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    # canonical component label = min member id (matches propagation result)
    members: dict = {}
    for v in parent:
        members.setdefault(find(v), []).append(v)
    label = {}
    for root, vs in members.items():
        m = min(vs)
        for v in vs:
            label[v] = m
    label_ref = ray.put(label)

    def assign(batch: pa.Table) -> pa.Table:
        lk = ray.get(label_ref)
        ids = batch.column(id_col).to_pylist()
        comp = [lk.get(i, i) for i in ids]
        return pa.table({id_col: batch.column(id_col),
                         "component": pa.array(comp)})

    return ids_ds.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit SimHash over word unigrams (Charikar 2002)."""
    acc = np.zeros(64, dtype=np.int64)
    for tok in set(text.split()):
        h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")
        bits = np.unpackbits(np.frombuffer(h.to_bytes(8, "little"), dtype=np.uint8))
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << i
    return out


def add_simhash(ds, text_col: str = "text", out: str = "simhash"):
    def f(batch: pa.Table) -> pa.Table:
        vals = [simhash64(t or "") for t in batch.column(text_col).to_pylist()]
        return batch.append_column(out, pa.array(vals, type=pa.uint64()))

    return ds.map_batches(f, batch_format="pyarrow")


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def simhash_candidate_pairs(ds, id_col: str, *, bands: int = 4,
                            max_hamming: int = 12, num_partitions: int = 64):
    """SimHash near-dup candidates via band bucketing (Manku et al., WWW'07
    shape): 64 bits split into ``bands`` exact-match tables. Pigeonhole
    GUARANTEE: any pair with Hamming distance < ``bands`` shares at least
    one band and is always found; pairs between ``bands`` and
    ``max_hamming`` are found best-effort (raise ``bands`` or add permuted
    tables to extend the guarantee). Reported pairs are verified with a
    vectorized popcount ≤ ``max_hamming``. Same partitioned self-join shape
    as MinHash-LSH; input needs a ``simhash`` column (``add_simhash``)."""
    width = 64 // bands
    mask = (1 << width) - 1

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        hashes = batch.column("simhash").to_pylist()
        ids_out, keys, full = [], [], []
        for i, h in zip(ids, hashes):
            h = int(h)
            for b in range(bands):
                ids_out.append(i)
                keys.append(f"{b}:{(h >> (b * width)) & mask:04x}")
                full.append(h)
        return pa.table({id_col: pa.array(ids_out), "band_key": pa.array(keys),
                         "simhash": pa.array(full, pa.uint64())})

    bandrows = _add_pkey(ds.map_batches(explode, batch_format="pyarrow"),
                         "band_key", num_partitions)

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["band_key", id_col, "simhash"]]
        sizes = g.groupby("band_key")["band_key"].transform("size")
        g = g[sizes <= 200]
        m = g.merge(g, on="band_key", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if m.empty:
            return pd.DataFrame({"id_a": pd.Series(dtype=object),
                                 "id_b": pd.Series(dtype=object)})
        ha = m["simhash_a"].astype("uint64").to_numpy()
        hb = m["simhash_b"].astype("uint64").to_numpy()
        x = ha ^ hb
        # vectorized popcount via byte-LUT
        lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
        dist = np.zeros(len(x), dtype=np.int64)
        for shift in range(0, 64, 8):
            dist += lut[((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.int64)]
        keep = dist <= max_hamming
        out = pd.DataFrame({"id_a": m[f"{id_col}_a"].to_numpy()[keep],
                            "id_b": m[f"{id_col}_b"].to_numpy()[keep]})
        return out.drop_duplicates()

    cand = bandrows.groupby("_pkey").map_groups(pairs_in_partition,
                                               batch_format="pandas")

    def add_pair_pkey(batch: pa.Table) -> pa.Table:
        from documentai_ray.stages._hashutil import hash_pkey

        pk = hash_pkey([batch.column("id_a"), batch.column("id_b")],
                       num_partitions)
        return batch.append_column("_pair_pkey", pa.array(pk, pa.int32()))

    def dedup_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["id_a", "id_b"]).drop(columns=["_pair_pkey"])

    return (
        cand.map_batches(add_pair_pkey, batch_format="pyarrow")
        .groupby("_pair_pkey")
        .map_groups(dedup_pairs, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# repeated-passage detection (exact substring dedup at k-token granularity)
# ---------------------------------------------------------------------------

def repeated_spans(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   k: int = 8, min_count: int = 2, num_partitions: int = 64,
                   idx_bits: int = 20):
    """Find every maximal token span covered by k-gram shingles that occur
    ≥ ``min_count`` times corpus-wide — the k-token-granular analog of
    suffix-array exact substring dedup (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): a passage repeated
    anywhere (across docs or within one) is marked in EVERY document that
    contains it, as merged ``[span_start, span_end)`` token ranges.

    Physical plan — three key-projected exchanges, no text ever shuffles:
    1. EXPLODE: per doc, the position-aligned shingle-hash vector
       (vectorized ``_shingle_hashes``) → ``(sh: u64, lkey = doc<<bits|pos)``.
    2. DUP SET: ``groupby(sh).count() ≥ min_count`` (block-level
       pre-combine collapses hot shingles before the wire).
    3. MARK: semi hash-join of positions against the dup set on ``sh``.
    4. MERGE: decode → bucket by doc → one vectorized pass per partition
       merges overlapping/adjacent spans (sorted fixed-length intervals:
       break where ``pos > prev_pos + k``), emitting
       ``(doc_id, span_start, span_end, n_shingles)`` in token units.
    """
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    mask = (1 << idx_bits) - 1

    def explode(batch: pa.Table) -> pa.Table:
        sh_out: list[np.ndarray] = []
        key_out: list[np.ndarray] = []
        for did, t in zip(batch.column(id_col).to_pylist(),
                          batch.column(text_col).to_pylist()):
            hs = _shingle_hashes_positional(t or "", k)
            if hs.size:
                sh_out.append(hs)
                key_out.append((np.int64(did) << idx_bits)
                               | np.arange(len(hs), dtype=np.int64))
        if not sh_out:
            return pa.table({"sh": pa.array([], pa.int64()),
                             "lkey": pa.array([], pa.int64())})
        # int64 bit-reinterpret: groupby/join keys stay a native Arrow type
        return pa.table({"sh": pa.array(np.concatenate(sh_out).view(np.int64),
                                        pa.int64()),
                         "lkey": pa.array(np.concatenate(key_out), pa.int64())})

    # Pin the exploded (sh, lkey) table: both the dup-set count and the
    # mark pass consume it, and an unpinned lineage re-shingles the whole
    # corpus for the second consumer. ~16 B/token in the object store
    # (spillable); re-exploding instead costs a full second tokenize+hash
    # pass — pinning wins whenever the store can hold/spill the keys.
    pairs = ds.map_batches(explode, batch_format="pyarrow").materialize()

    # count exchange: project away lkey and pre-combine per block
    # (np.unique) so the wire carries (sh, partial_n) — within-block
    # repeats (boilerplate-heavy corpora) collapse before the shuffle
    def precombine(batch: pa.Table) -> pa.Table:
        sh, n = np.unique(batch.column("sh").to_numpy(), return_counts=True)
        return pa.table({"sh": pa.array(sh, pa.int64()),
                         "_n": pa.array(n.astype(np.int64), pa.int64())})

    counts = (pairs.map_batches(precombine, batch_format="pyarrow")
              .groupby("sh").aggregate(Sum("_n", alias_name="_n")))

    def dup_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.greater_equal(batch.column("_n"), min_count))
        return batch.select(["sh"])

    dup = counts.map_batches(dup_only, batch_format="pyarrow")

    # Auto-select the mark plan (the verify_jaccard_pairs pattern): the dup
    # set is usually tiny relative to the corpus (hot boilerplate), so
    # broadcast it and semi-filter map-side — saves the join's two
    # exchanges. Fall back to the distributed semi hash-join when the dup
    # set is too large to broadcast (~40 MB at the default threshold).
    dup_mat = dup.materialize()
    if dup_mat.count() <= 5_000_000:
        import ray

        dup_arr = np.sort(dup_mat.to_pandas()["sh"].to_numpy())
        ref = ray.put(dup_arr)

        def semi_filter(batch: pa.Table) -> pa.Table:
            arr = ray.get(ref)
            sh = batch.column("sh").to_numpy()
            if len(arr) == 0:
                keep = np.zeros(len(sh), bool)
            else:
                idx = np.clip(np.searchsorted(arr, sh), 0, len(arr) - 1)
                keep = arr[idx] == sh
            return batch.filter(pa.array(keep))

        marked = pairs.map_batches(semi_filter, batch_format="pyarrow")
    else:
        marked = hash_join(pairs, dup_mat, on="sh", how="semi",
                           num_partitions=num_partitions)

    def decode(batch: pa.Table) -> pa.Table:
        lk = batch.column("lkey").to_numpy().astype(np.int64)
        return pa.table({id_col: pa.array(lk >> idx_bits, pa.int64()),
                         "pos": pa.array(lk & mask, pa.int64())})

    def merge_islands(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        doc = g[id_col].to_numpy()
        pos = g["pos"].to_numpy()
        brk = np.ones(len(g), bool)
        if len(g) > 1:
            brk[1:] = (doc[1:] != doc[:-1]) | (pos[1:] > pos[:-1] + k)
        island = np.cumsum(brk)
        df = pd.DataFrame({id_col: doc, "pos": pos, "_i": island})
        out = df.groupby("_i", sort=False).agg(
            **{id_col: (id_col, "first")},
            span_start=("pos", "min"), span_end=("pos", "max"),
            n_shingles=("pos", "size")).reset_index(drop=True)
        out["span_end"] = out["span_end"] + k
        for c in (id_col, "span_start", "span_end", "n_shingles"):
            out[c] = out[c].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return (
        _add_pkey(marked.map_batches(decode, batch_format="pyarrow"),
                  id_col, num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: merge_islands(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


def remove_repeated_spans(ds, spans_ds, *, id_col: str = "doc_id",
                          text_col: str = "text", num_partitions: int = 64):
    """Cut the spans found by ``repeated_spans`` out of every document —
    the removal half of substring dedup (Lee et al. 2022 drop repeated
    passages wholesale; a keep-one-canonical-copy policy would pass the
    globally-first span through, same plumbing).

    Same bucketed-union plan as ``lines.dedup_lines``: spans and docs are
    padded onto one schema, hash-bucketed by doc, and one vectorized pass
    per partition rebuilds each doc's token stream minus its covered
    ranges. Returns ``(doc_id, text_dedup, n_tokens_removed,
    n_tokens_total)`` for EVERY doc (unchanged docs pass through)."""

    def pad_spans(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "_s": batch.column("span_start").cast(pa.int64()),
            "_e": batch.column("span_end").cast(pa.int64()),
            text_col: pa.array([None] * n, pa.large_string()),
        })

    def pad_docs(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "_s": pa.array(np.full(n, -1), pa.int64()),
            "_e": pa.array(np.full(n, -1), pa.int64()),
            text_col: batch.column(text_col).cast(pa.large_string()),
        })

    tagged = spans_ds.map_batches(pad_spans, batch_format="pyarrow").union(
        ds.map_batches(pad_docs, batch_format="pyarrow"))

    def rebuild(g: pd.DataFrame) -> pa.Table:
        spans = g[g["_s"] >= 0]
        docs = g[g["_s"] < 0]
        by_doc: dict[int, list[tuple[int, int]]] = {}
        for did, s, e in zip(spans[id_col], spans["_s"], spans["_e"]):
            by_doc.setdefault(did, []).append((s, e))
        ids, outs, nrem, ntot = [], [], [], []
        for did, text in zip(docs[id_col], docs[text_col]):
            toks = (text or "").split()
            keep = np.ones(len(toks), bool)
            for s, e in by_doc.get(did, ()):
                keep[s:e] = False
            ids.append(did)
            outs.append(" ".join(t for t, k in zip(toks, keep) if k))
            nrem.append(int((~keep).sum()))
            ntot.append(len(toks))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "text_dedup": pa.array(outs, pa.large_string()),
                         "n_tokens_removed": pa.array(nrem, pa.int64()),
                         "n_tokens_total": pa.array(ntot, pa.int64())})

    return (
        _add_pkey(tagged, id_col, num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: rebuild(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


def prefix_filter_pairs(ds, *, id_col: str = "url", text_col: str = "text",
                        threshold: float = 0.8, k: int = 3,
                        num_partitions: int = 64,
                        freq_order: bool | str = "auto",
                        max_broadcast_vocab: int = 2_000_000):
    """EXACT set-similarity self-join via prefix filtering (the
    PPJoin/AllPairs family, Bayardo 2007 / Xiao 2008) — the
    deterministic-recall alternative to MinHash-LSH: every pair with
    word-k-shingle Jaccard ≥ ``threshold`` is guaranteed a shared
    candidate key, no probabilistic misses.

    Principle: order every record's shingle set by ONE global total
    order; a record of size L needs only its first
    ``p = L − ⌈t·L⌉ + 1`` shingles as candidate keys — two sets with
    Jaccard ≥ t must intersect within those prefixes (pigeonhole on the
    ≥ ⌈t·L⌉ shared elements).  The order is ascending
    ``_shingle_hashes`` value (token-cached md5 + fused numpy mix —
    the minhash path's vectorized hasher; ANY fixed total order is
    valid, so the cheap one wins: the previous per-shingle md5 loop
    was the whole-query hot spot).  Frequency ordering (rarest first)
    is the classic bucket-size OPTIMIZATION — it shrinks candidate
    buckets but needs a counting pass; hash order keeps correctness
    and trades candidate volume.  Hash collisions are SAFE for recall:
    shared shingles still share a hash and distinct ones can only
    merge, so J_hash ≥ J_true and every true pair keeps its prefix
    guarantee — collisions only ADD candidates, which exact
    verification removes.

    Physical plan: map-side prefix explosion ships (tok:int64, id) —
    never text; one hash-partition exchange co-locates each token's
    bucket; a vectorized self-merge per partition emits candidate pairs
    (id_a < id_b); a second tiny pair-hash exchange dedups.  NO bucket
    cap: exactness forbids dropping (contrast lsh_candidate_pairs).

    ``freq_order`` implements the classic AllPairs optimization: a cheap
    document-frequency pre-pass (per-batch distinct-shingle partials →
    one exchange bounded by distinct shingles) and prefixes take each
    doc's RAREST shingles first — on boilerplate-heavy corpora this
    collapses the hot buckets the hash order suffers (measured here:
    3.5M → far fewer candidate pairs; the hottest bucket was a 1.5k-doc
    template shingle). The df table broadcasts via ``ray.put``
    (vocabulary-sized) — which is only safe for BOUNDED vocabularies, so
    the default ``freq_order="auto"`` MEASURES the distinct-shingle
    count with a distributed ``Dataset.count()`` (the vocab never
    reaches the driver) and drops to hash order above
    ``max_broadcast_vocab``: for threshold t the hash-order prefix ships
    only ~(1−t)·L tokens per doc with zero extra exchanges, which beats
    a full-explode df hash-join (2 extra exchanges over ALL shingles) on
    open-vocabulary corpora; the trade is candidate volume, which exact
    verification absorbs. ``freq_order=True`` forces the broadcast
    (caller asserts a bounded vocab), ``False`` forces hash order.
    Any fixed total order preserves exactness; (df, hash) is total
    because the hash breaks ties. Returns the candidate pair Dataset —
    verify with ``verify_jaccard_pairs`` for the final exact pair set."""
    import math

    import ray
    from ray.data.aggregate import Sum

    df_ref = None
    if freq_order:
        def df_partial(batch: pa.Table) -> pa.Table:
            texts = batch.column(text_col).to_pylist()
            per = [_shingle_hashes(t or "", k) for t in texts]
            per = [h for h in per if len(h)]
            toks = (np.concatenate(per) if per
                    else np.empty(0, np.uint64))
            return pa.table({"_t": pa.array(toks.view(np.int64),
                                            pa.int64()),
                             "_c": pa.array(np.ones(len(toks),
                                                    np.int64),
                                            pa.int64())})

        df_agg = (ds.map_batches(df_partial, batch_format="pyarrow")
                  .groupby("_t").aggregate(Sum("_c", alias_name="_c")))
        if freq_order == "auto":
            df_agg = df_agg.materialize()  # one distributed pass: count + reuse
            if df_agg.count() > max_broadcast_vocab:
                df_agg = None  # open vocabulary: never driver-materialize it
        if df_agg is not None:
            dfs = df_agg.to_pandas()
            df_ref = ray.put(dict(zip(dfs["_t"].astype("int64"),
                                      dfs["_c"].astype("int64"))))

    def explode_prefix(batch: pa.Table) -> pa.Table:
        lk = ray.get(df_ref) if df_ref is not None else None
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_id: list = []
        per_tok: list = []
        for i, t in zip(ids, texts):
            hs = _shingle_hashes(t or "", k)   # sorted unique uint64
            L = len(hs)
            if L == 0:
                continue
            p = L - math.ceil(threshold * L) + 1
            if lk is not None:
                signed = hs.view(np.int64)
                freq = np.fromiter((lk[int(h)] for h in signed),
                                   dtype=np.int64, count=L)
                order = np.lexsort((signed, freq))  # (df asc, hash asc)
                hs = hs[order]
            out_id.extend([i] * p)
            per_tok.append(hs[:p])
        toks = (np.concatenate(per_tok) if per_tok
                else np.empty(0, np.uint64))
        return pa.table({id_col: pa.array(out_id),
                         "tok": pa.array(toks.view(np.int64),
                                         pa.int64())})

    tokrows = _add_pkey(ds.map_batches(explode_prefix,
                                       batch_format="pyarrow"),
                        "tok", num_partitions)

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["tok", id_col]]
        m = g.merge(g, on="tok", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        out = pd.DataFrame({"id_a": m[f"{id_col}_a"],
                            "id_b": m[f"{id_col}_b"]})
        return out.drop_duplicates()

    cand = (tokrows.groupby("_pkey")
            .map_groups(pairs_in_partition, batch_format="pandas"))

    def add_pair_pkey(batch: pa.Table) -> pa.Table:
        from documentai_ray.stages._hashutil import hash_pkey

        pk = hash_pkey([batch.column("id_a"), batch.column("id_b")],
                       num_partitions)
        return batch.append_column("_pair_pkey", pa.array(pk, pa.int32()))

    def dedup_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop_duplicates(subset=["id_a", "id_b"])
                .drop(columns=["_pair_pkey"]))

    return (cand.map_batches(add_pair_pkey, batch_format="pyarrow")
            .groupby("_pair_pkey")
            .map_groups(dedup_pairs, batch_format="pandas"))


def containment_candidate_pairs(ds, *, id_col: str = "url",
                                text_col: str = "text",
                                threshold_ppm: int = 800_000, k: int = 3,
                                num_partitions: int = 64):
    """Candidate pairs for SET CONTAINMENT ≥ t — the asymmetric sibling
    of prefix_filter_pairs: find (sub, super) where
    ``|S_sub ∩ S_super| ≥ t·|S_sub|`` (quotation / inclusion / boilerplate-
    wrapping detection, where Jaccard fails because the container can be
    arbitrarily larger).

    Pigeonhole (any fixed subset works; ascending ``_shingle_hashes``
    order keeps it deterministic — the vectorized token-cached hasher,
    same collision-safety argument as prefix_filter_pairs): if the
    container misses ALL of the sub's first
    ``p = L − ceil(t·L) + 1`` shingle hashes, the intersection is at
    most ``ceil(t·L) − 1`` — below threshold. So the SUB side explodes
    only its p-prefix, while the CONTAINER side must explode ALL its
    shingles (no length bound exists for an unknown container) — the
    inverted-index volume, same contract as blocked_jaccard_pairs.
    Shingle-less rows are skipped (cannot contain or be contained).
    Returns (id_sub, id_super) candidates, id_sub ≠ id_super —
    verify with ``verify_containment_pairs``."""
    def explode(which: str):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_pylist()
            texts = batch.column(text_col).to_pylist()
            out_id: list = []
            per_tok: list = []
            for i, t in zip(ids, texts):
                hs = _shingle_hashes(t or "", k)  # sorted unique u64
                L = len(hs)
                if L == 0:
                    continue
                if which == "sub":
                    need = -(-threshold_ppm * L // 1_000_000)  # ceil
                    hs = hs[:L - need + 1]
                out_id.extend([i] * len(hs))
                per_tok.append(hs)
            toks = (np.concatenate(per_tok) if per_tok
                    else np.empty(0, np.uint64))
            return pa.table({id_col: pa.array(out_id),
                             "tok": pa.array(toks.view(np.int64),
                                             pa.int64()),
                             "side": pa.array([which] * len(out_id))})
        return f

    tokrows = _add_pkey(
        ds.map_batches(explode("sub"), batch_format="pyarrow")
        .union(ds.map_batches(explode("sup"), batch_format="pyarrow")),
        "tok", num_partitions)

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        sub = g[g["side"] == "sub"][["tok", id_col]]
        sup = g[g["side"] == "sup"][["tok", id_col]]
        m = sub.merge(sup, on="tok", suffixes=("_sub", "_sup"))
        m = m[m[f"{id_col}_sub"] != m[f"{id_col}_sup"]]
        return (pd.DataFrame({"id_sub": m[f"{id_col}_sub"],
                              "id_super": m[f"{id_col}_sup"]})
                .drop_duplicates())

    cand = (tokrows.groupby("_pkey")
            .map_groups(lambda g: pairs_in_partition(
                g.drop(columns=["_pkey"])), batch_format="pandas"))

    def add_pair_pkey(batch: pa.Table) -> pa.Table:
        from documentai_ray.stages._hashutil import hash_pkey

        pk = hash_pkey([batch.column("id_sub"),
                        batch.column("id_super")], num_partitions)
        return batch.append_column("_pair_pkey", pa.array(pk, pa.int32()))

    return (cand.map_batches(add_pair_pkey, batch_format="pyarrow")
            .groupby("_pair_pkey")
            .map_groups(lambda g: g.drop_duplicates(
                subset=["id_sub", "id_super"]).drop(
                    columns=["_pair_pkey"]), batch_format="pandas"))


def verify_containment_pairs(texts_ds, pairs_ds, *, id_col: str = "url",
                             text_col: str = "text",
                             threshold_ppm: int = 800_000, k: int = 3,
                             broadcast_limit: int = 100_000):
    """Exact containment verification: keep (sub, super) where
    ``inter · 10⁶ ≥ threshold_ppm · |S_sub|`` (integer compare — no
    float at the boundary), emitting ``inter`` and ``n_sub`` for
    engine-independent value comparison.

    Two physical plans, auto-selected by corpus size (same contract as
    ``verify_jaccard_pairs``):

    - ``count(texts) ≤ broadcast_limit``: id→text dict broadcast once via
      ``ray.put``; verification is a pure map over the pair set.
    - larger: fully distributed — two partitioned hash joins attach
      ``text_sub`` / ``text_super`` to the pair rows, then a per-batch
      shingle-set compare. No driver materialization of texts; only the
      pair rows (candidate-bounded) carry text across the exchange.
    """
    import ray

    from documentai_ray.stages.sketches import _shingles

    def row_result(a, b, ta: str, tb: str):
        sa = set(_shingles(ta or "", k))
        sb = set(_shingles(tb or "", k))
        if not sa:
            return None
        inter = len(sa & sb)
        if inter * 1_000_000 >= threshold_ppm * len(sa):
            return (a, b, inter, len(sa))
        return None

    def rows_table(rows) -> pa.Table:
        # explicit schema: empty partitions must not degrade to null types
        return pa.table({
            "id_sub": pa.array([r[0] for r in rows], pa.string()),
            "id_super": pa.array([r[1] for r in rows], pa.string()),
            "inter": pa.array([r[2] for r in rows], pa.int64()),
            "n_sub": pa.array([r[3] for r in rows], pa.int64())})

    texts_ds = texts_ds.materialize()
    if texts_ds.count() <= broadcast_limit:
        lookup = ray.put({r[id_col]: r[text_col]
                          for r in texts_ds.take_all()})

        def verify(batch: pd.DataFrame) -> pa.Table:
            lk = ray.get(lookup)
            rows = [r for a, b in zip(batch["id_sub"], batch["id_super"])
                    if (r := row_result(a, b, lk.get(a, ""), lk.get(b, "")))
                    is not None]
            return rows_table(rows)

        return pairs_ds.map_batches(verify, batch_format="pandas")

    from documentai_ray.stages.joins import hash_join

    # normalize pair blocks to arrow so hash_join sees well-typed schema
    # (see verify_jaccard_pairs for why)
    pairs_ds = pairs_ds.map_batches(lambda t: t, batch_format="pyarrow")

    def side(col_id, col_text):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({col_id: batch.column(id_col),
                             col_text: batch.column(text_col)})
        return f

    with_sub = hash_join(
        pairs_ds,
        texts_ds.map_batches(side("id_sub", "text_sub"),
                             batch_format="pyarrow"),
        on="id_sub", num_partitions=64)
    with_both = hash_join(
        with_sub,
        texts_ds.map_batches(side("id_super", "text_super"),
                             batch_format="pyarrow"),
        on="id_super", num_partitions=64)

    def verify_joined(batch: pd.DataFrame) -> pa.Table:
        rows = [r for a, b, ta, tb in zip(
                    batch["id_sub"], batch["id_super"],
                    batch["text_sub"], batch["text_super"])
                if (r := row_result(a, b, ta or "", tb or "")) is not None]
        return rows_table(rows)

    return with_both.map_batches(verify_joined, batch_format="pandas")


def capture_line_diff(ds, *, url_col: str = "url", ts_col: str = "warc_ts",
                      text_col: str = "text", num_partitions: int = 32):
    """Earliest-vs-latest capture line diff per multi-captured url —
    the CHANGE measurement the dedup family deliberately erases
    (``dedup_latest`` keeps one winner; this reads what changed):
    distinct-line set difference (n_added / n_removed / n_common) and
    change_ppm = 10⁶·(added+removed) // |union| — the recrawl-value
    signal a freshness scheduler feeds on.

    ONE url-hash exchange of the (url, ts, text) projection; per
    partition a vectorized capture-count prefilter keeps only
    multi-capture urls before any Python-level set work, and only the
    earliest/latest pair is compared (middle captures are invisible —
    the endpoints ARE the contract)."""

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        counts = g.groupby(url_col)[ts_col].transform("size")
        g = g[counts >= 2]
        recs = []
        for url, sub in g.groupby(url_col, sort=False):
            sub = sub.sort_values(ts_col, kind="mergesort")
            early = set((sub[text_col].iloc[0] or "").split("\n"))
            late = set((sub[text_col].iloc[-1] or "").split("\n"))
            a = len(late - early)
            r = len(early - late)
            u = len(late | early)
            recs.append((url, a, r, len(late & early),
                         1_000_000 * (a + r) // u))
        out = pd.DataFrame(recs, columns=[url_col, "n_added",
                                          "n_removed", "n_common",
                                          "change_ppm"])
        for c in out.columns[1:]:
            out[c] = out[c].astype("int64")
        return out

    return (_add_pkey(ds, url_col, num_partitions)
            .groupby("_pkey")
            .map_groups(lambda x: diff(x.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def cdc_chunk_stats(ds, *, text_col: str = "text", mod: int = 16):
    """Token-level content-defined chunking (the restic/borg/LBFS
    storage-dedup primitive, on the repo's token axis): a chunk
    boundary falls AFTER every token whose md5-LE64 hash ≡ 0
    (mod ``mod``), so boundaries depend only on local content —
    insert a paragraph and every untouched chunk keeps its identity,
    which fixed-size blocking cannot do.  Expected chunk length is
    ``mod`` tokens; chunk key = md5-LE64 of the single-space token
    join (the token axis makes whitespace normalization part of the
    contract).

    Emits one row per DISTINCT chunk (key, chars, n occurrences);
    keys live in the shifted signed-i64 domain (md5 − 2⁶³).
    Per-batch partials pre-combine duplicate chunks, the ONE
    exchange is bounded by distinct chunks, and a worker-local
    token-hash cache (the T5 discipline) amortizes the md5s."""
    import hashlib

    import pyarrow as pa
    from ray.data.aggregate import Min, Sum

    cache: dict[str, bool] = {}

    def partial(batch: pa.Table) -> pa.Table:
        import collections
        agg = collections.Counter()
        chars = {}
        for t in batch.column(text_col).to_pylist():
            toks = (t or "").split()
            if not toks:
                continue
            cur = []
            segs = []
            for tok in toks:
                cur.append(tok)
                b = cache.get(tok)
                if b is None:
                    h = int.from_bytes(
                        hashlib.md5(tok.encode()).digest()[:8],
                        "little")
                    b = h % mod == 0
                    if len(cache) < 1_000_000:
                        cache[tok] = b
                if b:
                    segs.append(" ".join(cur))
                    cur = []
            if cur:
                segs.append(" ".join(cur))
            for s in segs:
                k = int.from_bytes(
                    hashlib.md5(s.encode()).digest()[:8], "little")
                k -= 1 << 63          # signed i64 domain
                agg[k] += 1
                chars[k] = len(s)
        keys = list(agg.keys())
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "chars": pa.array([chars[k] for k in keys], pa.int64()),
            "n": pa.array([agg[k] for k in keys], pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("key")
            .aggregate(Sum("n", alias_name="n"),
                       Min("chars", alias_name="chars")))
