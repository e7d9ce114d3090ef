"""Distributed text indexing: inverted index (postings) and TF-IDF.

The two classic wide operations of a corpus indexer, expressed so the
shuffles stay proportional to the DISTINCT (token, doc) relation, never
the raw token stream:

- ``inverted_index``  token → (df, sorted posting list). Map side emits
  each (token, doc_id) pair ONCE per doc (per-doc set()), so the exchange
  carries the distinct relation. The reduce side is bucketed by
  ``crc32(token) % P`` — the posting lists of all tokens in a bucket are
  built in one vectorized pandas pass, so group count is bounded by P,
  not vocabulary size (the per-key ``map_groups`` anti-pattern noted in
  ``dedup._add_pkey``).
- ``tfidf_topk``      per-doc top-k terms by ``score_ppm =
  tf · 10⁶ // df`` (integer rarity-weighted term frequency — a pure
  integer-math rank that the SQL oracle reproduces bit-exactly; float
  ``log`` idf would differ across libm implementations at the ulp level
  and flip near-tie ranks). Document frequencies are computed in one
  distributed pass and broadcast via ``ray.put`` — valid while the
  vocabulary is broadcast-small (≤ ~10⁷ terms: a 100 MB dict). For
  open-vocabulary corpora swap the broadcast for a hash_join of the
  (doc, token, tf) relation against the df table on token — same
  bucketed plan as ``joins.hash_join``; the rank step is unchanged.

At 100 TB the posting lists themselves are the output bottleneck: cap
them with ``max_postings`` (keep the first N doc_ids + the true df), the
standard impact-ordered-index compromise.
"""

from __future__ import annotations

import collections

import pandas as pd
import pyarrow as pa

from documentai_ray.stages.dedup import _add_pkey


def _explode_distinct(ds, id_col: str, text_col: str):
    """One (token, id) row per DISTINCT token of each doc — single-space
    split, the corpus token contract (empties kept)."""

    def explode(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        ids: list[int] = []
        for did, t in zip(batch.column(id_col).to_pylist(),
                          batch.column(text_col).to_pylist()):
            for tok in set((t or "").split(" ")):
                toks.append(tok)
                ids.append(did)
        return pa.table({"token": pa.array(toks, pa.string()),
                         id_col: pa.array(ids, pa.int64())})

    return ds.map_batches(explode, batch_format="pyarrow")


def inverted_index(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   num_partitions: int = 64, max_postings: int | None = None):
    """Build ``(token, df, postings: list<int64>)`` — postings sorted
    ascending, ``df`` always the TRUE document frequency even when
    ``max_postings`` truncates the stored list."""

    pairs = _explode_distinct(ds, id_col, text_col)

    def build(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["token", id_col], kind="mergesort")
        grouped = g.groupby("token", sort=False)[id_col]
        tokens = list(grouped.groups.keys())
        lists = [v.to_numpy() for _, v in grouped]
        df = [len(v) for v in lists]
        if max_postings is not None:
            lists = [v[:max_postings] for v in lists]
        return pa.table({"token": pa.array(tokens, pa.string()),
                         "df": pa.array(df, pa.int64()),
                         "postings": pa.array([v.tolist() for v in lists],
                                              pa.list_(pa.int64()))})

    return (
        _add_pkey(pairs, "token", num_partitions)
        .groupby("_pkey")
        .map_groups(lambda g: build(g.drop(columns=["_pkey"])),
                    batch_format="pandas")
    )


def document_frequencies(ds, *, id_col: str = "doc_id",
                         text_col: str = "text") -> dict[str, int]:
    """Distributed df computation: distinct (token, doc) pairs →
    ``groupby(token).count()``. Materializes only the (token, df) table —
    vocabulary-sized, the broadcast-small side."""
    from ray.data.aggregate import Count

    pairs = _explode_distinct(ds, id_col, text_col)
    out = pairs.groupby("token").aggregate(Count(alias_name="df")).to_pandas()
    return dict(zip(out["token"], out["df"].astype(int)))


class TfIdfTopK:
    """Per-doc top-k terms by integer score ``tf · 10⁶ // df`` (ties →
    token ascending). The df dict ships once per worker via the object
    store ref, not per batch."""

    def __init__(self, df_ref, *, id_col: str = "doc_id",
                 text_col: str = "text", k: int = 3):
        import ray

        self.df = ray.get(df_ref)
        self.id_col = id_col
        self.text_col = text_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        ranks: list[int] = []
        toks_out: list[str] = []
        tf_out: list[int] = []
        df_out: list[int] = []
        score_out: list[int] = []
        for did, t in zip(batch.column(self.id_col).to_pylist(),
                          batch.column(self.text_col).to_pylist()):
            tf = collections.Counter((t or "").split(" "))
            scored = sorted(
                ((-(c * 1_000_000 // self.df[tok]), tok, c) for tok, c in tf.items()),
                key=lambda x: (x[0], x[1]),
            )[: self.k]
            for r, (neg, tok, c) in enumerate(scored, start=1):
                ids.append(did)
                ranks.append(r)
                toks_out.append(tok)
                tf_out.append(c)
                df_out.append(self.df[tok])
                score_out.append(-neg)
        return pa.table({self.id_col: pa.array(ids, pa.int64()),
                         "term_rank": pa.array(ranks, pa.int64()),
                         "token": pa.array(toks_out, pa.string()),
                         "tf": pa.array(tf_out, pa.int64()),
                         "df": pa.array(df_out, pa.int64()),
                         "score_ppm": pa.array(score_out, pa.int64())})


def tfidf_topk(ds, *, id_col: str = "doc_id", text_col: str = "text",
               k: int = 3):
    """Two-pass TF-IDF: distributed df → broadcast → map-side per-doc
    top-k. See module docstring for the open-vocabulary join variant."""
    import ray

    df = document_frequencies(ds, id_col=id_col, text_col=text_col)
    ref = ray.put(df)
    return ds.map_batches(
        TfIdfTopK, batch_format="pyarrow", concurrency=(1, 4),
        fn_constructor_kwargs={"df_ref": ref, "id_col": id_col,
                               "text_col": text_col, "k": k},
    )


def kwic_snippets(ds, *, id_cols: list[str], text_col: str,
                  keyword: str, before: int = 3, after: int = 3):
    """KWIC (keyword-in-context) concordance — the search-result
    snippet extractor: every occurrence of ``keyword`` (exact token
    match under the repo-standard whitespace rule) becomes one
    ``(id_cols..., pos, snippet)`` row, ``pos`` the 1-based token
    position and ``snippet`` the space-joined window of ``before``
    tokens left and ``after`` right (clamped at document edges).

    Pure per-batch transform, ZERO exchange: token explode reuses the
    posexplode layout (flat token array + doc index + positions, all
    vectorized); only the MATCHES pay Python-level snippet joins, so
    per-batch cost is O(tokens) scan + O(hits · window) assembly — the
    right trade for sparse keywords (for dense ones the snippet column
    itself is the output bottleneck, not the assembly)."""
    import numpy as np

    if before < 0 or after < 0:
        raise ValueError("before/after must be >= 0")

    def snip(batch: pa.Table) -> pa.Table:
        toks_per = (batch.select([text_col]).to_pandas()[text_col]
                    .fillna("").str.split())
        lens = toks_per.str.len().fillna(0).astype(np.int64).to_numpy()
        total = int(lens.sum())
        ids = {c: batch.column(c).to_pylist() for c in id_cols}
        empty = pa.table(
            {**{c: pa.array([], batch.schema.field(c).type)
                for c in id_cols},
             "pos": pa.array([], pa.int64()),
             "snippet": pa.array([], pa.string())})
        if total == 0:
            return empty
        flat = np.fromiter((t for lst in toks_per for t in lst),
                           dtype=object, count=total)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        starts = np.repeat(
            np.concatenate(([0], lens.cumsum()[:-1])), lens)
        pos0 = np.arange(total, dtype=np.int64) - starts  # 0-based
        hits = np.nonzero(flat == keyword)[0]
        if len(hits) == 0:
            return empty
        out_ids = {c: [ids[c][doc_idx[h]] for h in hits]
                   for c in id_cols}
        snippets = []
        for h in hits:
            d, p = doc_idx[h], pos0[h]
            lo = starts[h] + max(0, p - before)
            hi = min(starts[h] + lens[d], h + after + 1)
            snippets.append(" ".join(flat[lo:hi]))
        return pa.table(
            {**{c: pa.array(out_ids[c], batch.schema.field(c).type)
                for c in id_cols},
             "pos": pa.array((pos0[hits] + 1).tolist(), pa.int64()),
             "snippet": pa.array(snippets, pa.string())})

    return ds.map_batches(snip, batch_format="pyarrow")


def rrf_fuse(ds, *, id_col: str, score_cols: list[str], k: int = 60,
             top_n: int = 20, out_col: str = "rrf"):
    """Reciprocal Rank Fusion — the standard way to combine rankings
    whose raw scores are incomparable (BM25 + embedding cosine, price +
    recency): each ranking contributes ``1/(k + rank)`` and the fused
    order is by the sum (Cormack et al. 2009, public knowledge). Kept
    integer-exact by flooring EACH term at 10⁹ scale —
    ``rrf = Σ 10⁹ // (k + rank_i)`` — so the SQL mirror reproduces the
    fused order bit-for-bit (a float 1/(k+r) sum can flip near-ties
    across libms). Ranks are SQL ``rank()`` min-rank-with-ties,
    DESCENDING (higher score = rank 1).

    Physical plan: one value-count histogram exchange PER ranking
    (bounded by that column's distinct values — the percent_rank
    contract), driver turns cumulative counts into min-ranks and
    broadcasts the maps via ``ray.put``; per-batch attach computes the
    fused score, and the global top-N is an aggregation (per-batch
    partial top-N, ≤ N rows per block to the driver). Ties in rrf
    break by ascending id, so the result is total. Returns an Arrow
    table (id, rank cols..., rrf) of the top N."""
    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    if k < 1 or top_n < 1:
        raise ValueError("k and top_n must be >= 1")

    maps = []
    for col in score_cols:
        def partial(batch: pa.Table, _c=col) -> pa.Table:
            df = batch.select([_c]).to_pandas()
            g = (df.groupby(_c, as_index=False).size()
                 .rename(columns={"size": "_n", _c: "_v"}))
            return pa.Table.from_pandas(
                g, preserve_index=False).replace_schema_metadata(None)

        hist = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("_v")
                .aggregate(Sum("_n", alias_name="_n"))).to_pandas()
        hist = hist.sort_values("_v", ascending=False,
                                kind="mergesort")
        cum = hist["_n"].cumsum().to_numpy()
        start = [1] + (cum[:-1] + 1).tolist()   # min rank, desc order
        maps.append({v: int(r) for v, r in
                     zip(hist["_v"].tolist(), start)})
    maps_ref = ray.put(maps)

    rank_cols = [f"rank_{c}" for c in score_cols]

    def attach(batch: pa.Table) -> pa.Table:
        lks = ray.get(maps_ref)
        out = {id_col: batch.column(id_col)}
        rrf = None
        for col, rc, lk in zip(score_cols, rank_cols, lks):
            vals = batch.column(col).to_pylist()
            r = np.fromiter((lk[v] for v in vals), dtype=np.int64,
                            count=len(vals))
            out[rc] = pa.array(r, pa.int64())
            term = 1_000_000_000 // (k + r)
            rrf = term if rrf is None else rrf + term
        out[out_col] = pa.array(rrf, pa.int64())
        tbl = pa.table(out)
        df = tbl.to_pandas().sort_values(
            [out_col, id_col], ascending=[False, True],
            kind="mergesort").head(top_n)          # partial top-N
        return pa.Table.from_pandas(
            df, preserve_index=False).replace_schema_metadata(None)

    cand = ds.map_batches(attach, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values([out_col, id_col],
                            ascending=[False, True],
                            kind="mergesort").head(top_n)
    return pa.Table.from_pandas(
        cand, preserve_index=False).replace_schema_metadata(None)


def shortest_unique_prefix(ds, *, col: str):
    """Shortest distinguishing prefix per distinct string — the
    prefix-index sizing primitive (autocomplete, router tables, key
    truncation: "how many leading bytes must a shard key keep before
    collisions vanish?"). The answer depends ONLY on each string's two
    lexicographic neighbours: plen = min(len, 1 + max(lcp(prev),
    lcp(next))) — a string that is a strict prefix of another caps at
    its own length (it can never be unique; the cap is the standard
    convention), an empty string reports 0.

    Distributed exactness without a global sort: strings in different
    FIRST-CHARACTER buckets have LCP exactly 0, so co-locating by
    first char makes every in-bucket neighbour computation complete —
    no block-boundary fix-up a range-partitioned sort would need.
    (Scale path under one-char skew: recurse — level-k buckets answer
    every string whose plen > k exactly, and only strings answered
    ≤ k need the level-(k−1) pass; first-char is the k=1 base case.)
    Inside a bucket the LCP is one vectorized pass: names sort, pad to
    a fixed-width char matrix, and consecutive-row cumprod-equality
    gives every neighbour LCP at once — the '\\0' padding makes
    prefix-of pairs stop exactly at the shorter length. Exchange
    carries distinct (bucket, name) only. Returns (name, plen)."""
    import numpy as np

    from ray.data.aggregate import Count

    def add_bucket(batch: pa.Table) -> pa.Table:
        names = batch.column(col).to_pylist()
        b = [ord(n[0]) if n else -1 for n in names]
        return pa.table({col: pa.array(names, pa.string()),
                         "_b": pa.array(b, pa.int64())})

    distinct = (ds.select_columns([col])
                .map_batches(add_bucket, batch_format="pyarrow")
                .groupby(["_b", col]).aggregate(Count(alias_name="_n")))

    def prefixes(g: pd.DataFrame) -> pd.DataFrame:
        names = sorted(g[col].tolist())
        n = len(names)
        lens = np.array([len(s) for s in names], dtype="int64")
        if n == 1:
            plen = np.minimum(lens, 1)
        else:
            L = int(lens.max())
            mat = np.array(names, dtype=f"U{L}").view("U1") \
                    .reshape(n, L)
            eq = mat[1:] == mat[:-1]
            lcp = np.cumprod(eq, axis=1).sum(axis=1).astype("int64")
            mx = np.zeros(n, dtype="int64")
            mx[:-1] = lcp
            mx[1:] = np.maximum(mx[1:], lcp)
            plen = np.minimum(lens, 1 + mx)
            plen[lens == 0] = 0
        return pd.DataFrame({col: names, "plen": plen})

    return (distinct.groupby("_b")
            .map_groups(lambda g: prefixes(g.drop(columns=["_b", "_n"])),
                        batch_format="pandas"))


def zonemap_prune(ds, *, id_col: str, val_col: str,
                  bucket_size: int = 64, lo: int, hi: int):
    """Zone-map pruning audit — for a fixed physical bucketing
    (``id // bucket_size`` ~ a row group) and a band predicate
    ``lo ≤ val ≤ hi``, how many buckets a min/max zone map would skip
    and how many rows the surviving scan touches vs actually match —
    the number that tells you whether re-sorting the table on
    ``val_col`` is worth it (a Z-order key plans the layout; this
    measures what the CURRENT layout wastes). One exchange bounded by
    buckets, each carrying pre-combined (min, max, count, matched);
    scalars fold on the driver. Returns one row (n_buckets, n_pruned,
    n_rows, n_scanned, n_matched, prune_ppm, waste_ppm) — waste_ppm is
    the scanned-but-unmatched share of scanned rows."""
    from ray.data.aggregate import Count, Max, Min, Sum

    if bucket_size < 1 or lo > hi:
        raise ValueError("zonemap_prune: bucket_size >= 1 and lo <= hi")

    def add(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        v = batch.column(val_col).to_numpy()
        return pa.table({
            "_b": pa.array(ids // bucket_size, pa.int64()),
            "_v": pa.array(v.astype("int64"), pa.int64()),
            "_m": pa.array(((v >= lo) & (v <= hi)).astype("int64"),
                           pa.int64())})

    z = (ds.select_columns([id_col, val_col])
         .map_batches(add, batch_format="pyarrow")
         .groupby("_b")
         .aggregate(Min("_v", alias_name="mn"),
                    Max("_v", alias_name="mx"),
                    Count(alias_name="n"),
                    Sum("_m", alias_name="m"))).to_pandas()
    if z.empty:
        raise ValueError("zonemap_prune: empty input")
    pruned = (z["mx"] < lo) | (z["mn"] > hi)
    n_buckets = len(z)
    n_pruned = int(pruned.sum())
    n_rows = int(z["n"].sum())
    n_scanned = int(z.loc[~pruned, "n"].sum())
    n_matched = int(z["m"].sum())
    out = pd.DataFrame([{
        "n_buckets": n_buckets, "n_pruned": n_pruned,
        "n_rows": n_rows, "n_scanned": n_scanned,
        "n_matched": n_matched,
        "prune_ppm": 10**6 * n_pruned // n_buckets,
        "waste_ppm": (10**6 * (n_scanned - n_matched) // n_scanned
                      if n_scanned else 0)}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


def bm25_topk(ds, *, queries: dict[str, list[str]],
              id_col: str = "doc_id", text_col: str = "text", k: int = 5):
    """Integer-exact BM25 retrieval: top-k docs per query under the
    Okapi scoring shape — tf SATURATION (a 10th occurrence is worth
    less than a 2nd) and LENGTH NORMALIZATION (a match in a short doc
    outranks the same tf in a long one) — the two behaviors
    ``tfidf_topk``'s raw rarity score tf·10⁶//df deliberately lacks.

    Arithmetic contract (every fraction cleared, both engines land on
    identical integers):

    - k₁ = 6/5, b = 3/4 (the standard 1.2/0.75 as exact rationals);
      with dl = per-doc token count (repo single-space rule, empties
      kept), N docs, L total tokens (avdl = L/N kept as a ratio), the
      saturation term clears to ``22·tf·L / (10·tf·L + 3·L + 9·dl·N)``.
    - idf is the RATIONAL variant ``idf_ppm = 10⁶·(N − df + 1) //
      (df + 1)`` — monotone in rarity like Robertson's log idf but
      exactly representable (log is irrational; libm ulp differences
      would flip near-tie ranks across engines).  The +1 smoothing
      stands in for the classic +0.5 to stay integral.
    - per-term contribution = ``idf_ppm · 22·tf·L // (10·tf·L + 3·L +
      9·dl·N)`` (ONE floor per matched term), summed per (query, doc);
      only score > 0 rows rank.  Ties → doc_id ascending.

    Physical plan: pass 1 folds (N, L, df per query term) from
    per-batch partials through ONE exchange bounded by P·(|terms|+1)
    rows; the ≤|terms| df table ships in a closure.  Pass 2 is
    map-side: flat-token scan (the kwic layout) + bincount per term;
    only the sparse (doc, term) HITS pay Python-int exact division
    (idf·22·tf·L clears int64 at corpus scale, so the hit loop is
    deliberately object-int — exactness over fake vectorization).
    Only positive (query, doc, score) rows leave the map; the final
    top-k is ``grouped_topk``'s partial-then-partitioned selection.
    At 10¹² docs the broadcast-small side is the per-term stats (a few
    rows), never the corpus."""
    import numpy as np
    from ray.data.aggregate import Sum

    from documentai_ray.stages.aggregates import grouped_topk

    terms = sorted({t for ts in queries.values() for t in ts})
    if not terms:
        raise ValueError("bm25_topk: no query terms")

    def stats_partial(batch: pa.Table) -> pa.Table:
        texts = batch.select([text_col]).to_pandas()[text_col].fillna("")
        toks_per = texts.str.split(" ")
        lens = toks_per.str.len().astype("int64")
        rows_t = ["\x00stats"]
        rows_a = [int(len(texts))]
        rows_b = [int(lens.sum())]
        tok_sets = [set(t) for t in toks_per]
        for t in terms:
            rows_t.append(t)
            rows_a.append(sum(1 for s in tok_sets if t in s))
            rows_b.append(0)
        return pa.table({"_t": pa.array(rows_t, pa.string()),
                         "_a": pa.array(rows_a, pa.int64()),
                         "_b": pa.array(rows_b, pa.int64())})

    st = (ds.map_batches(stats_partial, batch_format="pyarrow")
          .groupby("_t")
          .aggregate(Sum("_a", alias_name="a"),
                     Sum("_b", alias_name="b"))).to_pandas()
    srow = st[st["_t"] == "\x00stats"]
    n_docs = int(srow["a"].iloc[0])
    total_len = int(srow["b"].iloc[0])
    df = {t: int(a) for t, a in zip(st["_t"], st["a"])
          if t != "\x00stats"}
    idf = {t: 1_000_000 * (n_docs - d + 1) // (d + 1)
           for t, d in df.items() if d > 0}
    qlist = sorted(queries.items())

    def score(batch: pa.Table) -> pa.Table:
        texts = batch.select([text_col]).to_pandas()[text_col].fillna("")
        toks_per = texts.str.split(" ")
        lens = toks_per.str.len().astype("int64").to_numpy()
        nb = len(texts)
        total = int(lens.sum())
        ids = batch.column(id_col).to_numpy()
        flat = np.fromiter((t for lst in toks_per for t in lst),
                           dtype=object, count=total)
        doc_idx = np.repeat(np.arange(nb, dtype=np.int64), lens)
        tf = {}
        for t in terms:
            hits = doc_idx[flat == t]
            if len(hits):
                tf[t] = dict(zip(*[a.tolist() for a in
                                   np.unique(hits, return_counts=True)]))
        q_out, d_out, s_out = [], [], []
        for qid, qterms in qlist:
            acc: dict[int, int] = {}
            for t in qterms:
                w = idf.get(t)
                if w is None:
                    continue
                for di, c in tf.get(t, {}).items():
                    dl = int(lens[di])
                    contrib = (w * 22 * c * total_len
                               // (10 * c * total_len + 3 * total_len
                                   + 9 * dl * n_docs))
                    acc[di] = acc.get(di, 0) + contrib
            for di, s in acc.items():
                if s > 0:
                    q_out.append(qid)
                    d_out.append(int(ids[di]))
                    s_out.append(s)
        return pa.table({"query_id": pa.array(q_out, pa.string()),
                         id_col: pa.array(d_out, pa.int64()),
                         "score_ppm": pa.array(s_out, pa.int64())})

    top = grouped_topk(ds.map_batches(score, batch_format="pyarrow"),
                       key_col="query_id",
                       sort_cols=["score_ppm", id_col],
                       ascending=[False, True], k=k).to_pandas()
    top = top.sort_values(["query_id", "score_ppm", id_col],
                          ascending=[True, False, True], kind="mergesort")
    top["rank"] = top.groupby("query_id", sort=False).cumcount() + 1
    for c in (id_col, "score_ppm", "rank"):
        top[c] = top[c].astype("int64")
    return top[["query_id", "rank", id_col, "score_ppm"]] \
        .reset_index(drop=True)
