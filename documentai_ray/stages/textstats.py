"""Text analysis operators for training-data pipelines.

- language ID: character-n-gram/stopword heuristic (profiles compiled once
  per worker — stateless-state T2 pattern);
- token counting: whitespace tokens + a BPE-ish regex tokenizer
  (GPT-2-style pre-tokenization pattern);
- quality scoring: see stages/quality.py (shared);
- document fingerprinting: Rabin-Karp-style rolling hash over the token
  stream with content-defined anchors.

All pure + deterministic; each has a `queries()` entry over `documents`.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# language identification (stopword-profile heuristic)
# ---------------------------------------------------------------------------

LANG_PROFILES: dict[str, set[str]] = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for",
           "was", "with", "his", "they", "at", "be", "this", "from", "not"},
    "de": {"der", "die", "das", "und", "ist", "ich", "nicht", "ein", "mit",
           "auf", "für", "sie", "des", "dem", "zu", "den", "von", "im"},
    "fr": {"le", "la", "les", "des", "est", "et", "un", "une", "dans", "que",
           "pour", "qui", "sur", "pas", "avec", "au", "par", "ce"},
    "es": {"el", "la", "los", "las", "es", "y", "un", "una", "en", "que",
           "por", "con", "para", "del", "se", "no", "su", "al"},
}

_word_re = re.compile(r"[^\W\d_]+", re.UNICODE)


# character-trigram profiles (top distinctive trigrams per language,
# derived from common function-word patterns — the n-gram fallback when no
# stopword hits, e.g. compound-heavy German text)
CHAR_NGRAM_PROFILES: dict[str, set[str]] = {
    "en": {"th", "he", "ing", "ion", "and", " th", "ed ", "er ", "ght", "wh"},
    "de": {"sch", "ung", "ein", "ich", "der", "cht", "ße", "äu", "ö", "ü"},
    "fr": {"eau", "oux", "ais", "ent", "qu", "é", "è", "ç", "aux", "oi"},
    "es": {"ción", "los", "ente", "ñ", "ado", "ista", "mie", "á", "í", "ó"},
}


def _char_ngram_score(low: str, code: str) -> int:
    return sum(low.count(g) for g in CHAR_NGRAM_PROFILES[code])


def lang_id(text: str) -> tuple[str, float]:
    """Two-stage heuristic: argmax stopword-hit ratio over language
    profiles; when no stopword matches at all, fall back to character-n-gram
    profile scoring. 'und' (undetermined) when neither fires. Deterministic
    tie-break by language code."""
    toks = [t.lower() for t in _word_re.findall(text)]
    if not toks:
        return "und", 0.0
    best, best_hits = "und", 0
    for code in sorted(LANG_PROFILES):
        hits = sum(1 for t in toks if t in LANG_PROFILES[code])
        if hits > best_hits:
            best, best_hits = code, hits
    if best != "und":
        return best, best_hits / len(toks)
    low = text.lower()
    best_g, best_score = "und", 0
    for code in sorted(CHAR_NGRAM_PROFILES):
        s = _char_ngram_score(low, code)
        if s > best_score:
            best_g, best_score = code, s
    if best_g == "und":
        return "und", 0.0
    return best_g, min(1.0, best_score / max(1, len(toks)))


def lang_id_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    preds, confs = [], []
    for t in batch.column(text_col).to_pylist():
        p, c = lang_id(t or "")
        preds.append(p)
        confs.append(c)
    out = batch.append_column("pred_lang", pa.array(preds, pa.string()))
    return out.append_column("pred_lang_conf", pa.array(confs, pa.float64()))


# ---------------------------------------------------------------------------
# token counting
# ---------------------------------------------------------------------------

# GPT-2-style pre-tokenization (contractions, words, numbers, punct runs)
BPE_SPLIT_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
)


def count_ws_tokens(text: str) -> int:
    return len(text.split())


def count_bpe_tokens(text: str) -> int:
    return len(BPE_SPLIT_RE.findall(text))


def token_count_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    ws = [count_ws_tokens(t or "") for t in texts]
    bpe = [count_bpe_tokens(t or "") for t in texts]
    out = batch.append_column("n_ws_tokens", pa.array(ws, pa.int64()))
    return out.append_column("n_bpe_tokens", pa.array(bpe, pa.int64()))


# ---------------------------------------------------------------------------
# document fingerprinting (rolling hash, content-defined anchors)
# ---------------------------------------------------------------------------

_B = np.uint64(1000003)
_MASK = np.uint64((1 << 64) - 1)


def fingerprint(text: str, window: int = 4, keep_mod: int = 8) -> int:
    """64-bit document fingerprint: rolling polynomial hash over tokens;
    window-hashes whose value ≡ 0 (mod keep_mod) are anchors (winnowing-
    style content-defined selection, Schleimer et al. 2003); the fingerprint
    is the XOR of anchor hashes (order-insensitive → stable under
    re-chunking). Empty text → 0."""
    toks = text.split()
    if not toks:
        return 0
    th = np.array(
        [hash_token64(t) for t in toks], dtype=np.uint64
    )
    if len(th) < window:
        h = np.uint64(0)
        for v in th:
            h = (h * _B + v) & _MASK
        return int(h)
    # window hash closed form (uint64 wraparound == mod 2^64):
    # H[i] = Σ_{j<window} th[i+j] · B^(window-1-j) — one numpy expression
    # over all windows, then mask-select anchors and XOR-reduce
    n = len(th) - window + 1
    H = np.zeros(n, dtype=np.uint64)
    p = np.uint64(1)
    for j in range(window - 1, -1, -1):
        with np.errstate(over="ignore"):
            H += th[j : j + n] * p
            p = p * _B
    anchors = H[H % np.uint64(keep_mod) == 0]
    return int(np.bitwise_xor.reduce(anchors)) if anchors.size else 0


def hash_token64(t: str) -> np.uint64:
    import hashlib

    return np.uint64(int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little"))


def fingerprint_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    fps = [fingerprint(t or "") for t in batch.column(text_col).to_pylist()]
    return batch.append_column("fingerprint", pa.array(fps, pa.uint64()))


# ---------------------------------------------------------------------------
# bigram language-model scoring (distributed count fit -> broadcast score)
# ---------------------------------------------------------------------------

def fit_bigram_counts(ds, *, text_col: str = "text"):
    """Distributed n-gram LM fit: per-batch Counter partials for unigrams
    and bigrams → one small groupby sum each. Returns
    ``(unigram: dict[str,int], bigram: dict[tuple,int])`` — vocabulary-
    sized state, the broadcast-small side (a CCNet-style quality LM; for
    open vocabularies shard the count tables by token hash and score via
    join instead)."""
    import collections

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        uni: collections.Counter = collections.Counter()
        bi: collections.Counter = collections.Counter()
        for t in batch.column(text_col).to_pylist():
            toks = (t or "").split(" ")
            uni.update(toks)
            bi.update(zip(toks, toks[1:]))
        keys = [f"u\x00{k}" for k in uni] + [f"b\x00{a}\x00{c}" for a, c in bi]
        vals = list(uni.values()) + list(bi.values())
        return pa.table({"k": pa.array(keys, pa.string()),
                         "n": pa.array(vals, pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("k").aggregate(Sum("n", alias_name="n")).to_pandas())
    unigram: dict[str, int] = {}
    bigram: dict[tuple[str, str], int] = {}
    for k, n in zip(agg["k"], agg["n"]):
        parts = k.split("\x00")
        if parts[0] == "u":
            unigram[parts[1]] = int(n)
        else:
            bigram[(parts[1], parts[2])] = int(n)
    return unigram, bigram


def bigram_score_batch(batch: pa.Table, unigram: dict, bigram: dict, *,
                       text_col: str = "text") -> pa.Table:
    """Per-doc mean conditional bigram probability, integer ppm:
    ``floor( Σ floor(n(a,b)·10⁶ / n(a)) / n_bigrams )`` — every division
    floors, so DuckDB reproduces the score exactly (no float log:
    cross-libm ulp drift would break near-ties; the ranking behavior is
    the same)."""
    scores: list[int] = []
    for t in batch.column(text_col).to_pylist():
        toks = (t or "").split(" ")
        if len(toks) < 2:
            scores.append(0)
            continue
        s = 0
        for a, b in zip(toks, toks[1:]):
            s += bigram.get((a, b), 0) * 1_000_000 // unigram[a]
        scores.append(s // (len(toks) - 1))
    return batch.append_column("lm_score_ppm", pa.array(scores, pa.int64()))


# ---------------------------------------------------------------------------
# windowed co-occurrence (skip-gram pairs) and collocation lift
# ---------------------------------------------------------------------------

def skipgram_pair_counts(ds, *, text_col: str = "text", window: int = 3,
                         min_count: int = 1):
    """word2vec-style skip-gram pair counting: for every token position
    i, the ordered pairs ``(tok[i], tok[i+d])`` for d = 1..window within
    the same document, counted corpus-wide — the co-occurrence table
    embedding trainers, collocation miners and PMI scorers start from.
    Tokenization is the repo-standard whitespace rule (``\\s+`` split,
    empties dropped — the posexplode_tokens semantics).

    Physical plan: per-batch fully vectorized pairing (one flat token
    array + a repeated doc index; pairs at shift d keep only positions
    whose doc index matches — no per-row Python loop), pre-combined into
    per-batch (left, right, n) partials, then ONE exchange bounded by
    DISTINCT ordered pairs (≤ vocab², in practice Zipf-bounded), never
    by token count. ``min_count`` prunes the long tail after the
    exchange. Returns a Dataset ``(left_tok, right_tok, n)``."""
    import pandas as pd
    from ray.data.aggregate import Sum

    if window < 1:
        raise ValueError("window must be >= 1")

    def partial(batch: pa.Table) -> pa.Table:
        toks_per = (pa.table({"t": batch.column(text_col)})
                    .to_pandas()["t"].fillna("").str.split())
        lens = toks_per.str.len().fillna(0).astype(np.int64).to_numpy()
        total = int(lens.sum())
        empty = pa.table({"left_tok": pa.array([], pa.string()),
                          "right_tok": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if total == 0:
            return empty
        flat = np.fromiter((tok for lst in toks_per for tok in lst),
                           dtype=object, count=total)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        ls, rs = [], []
        for d in range(1, window + 1):
            if total <= d:
                break
            same = doc_idx[:-d] == doc_idx[d:]
            ls.append(flat[:-d][same])
            rs.append(flat[d:][same])
        if not ls:
            return empty
        pdf = pd.DataFrame({"left_tok": np.concatenate(ls),
                            "right_tok": np.concatenate(rs)})
        g = (pdf.groupby(["left_tok", "right_tok"], as_index=False)
             .size().rename(columns={"size": "n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["left_tok", "right_tok"])
           .aggregate(Sum("n", alias_name="n")))
    if min_count > 1:
        def prune(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return batch.filter(
                pc.greater_equal(batch.column("n"), min_count))
        out = out.map_batches(prune, batch_format="pyarrow")
    return out


def collocation_lift(ds, *, text_col: str = "text", min_pair: int = 5):
    """Collocation mining via integer-ppm lift — the log-free PMI: for
    each adjacent bigram (a, b), ``lift = P(ab) / (P(a)·P(b))`` tells
    how much more often the pair occurs than independence predicts
    (lift ≫ 1 marks multi-word expressions; ≈ 1 marks chance
    adjacency). Computed as ``lift_ppm = c_ab · T · 10⁶ //
    (c_a · c_b)`` with T = total tokens — pure integer arithmetic
    (Python bigints / HUGEINT in SQL), so every value reproduces
    bit-for-bit where a float log2 PMI never would.

    Physical plan: bigram counts via ``skipgram_pair_counts(window=1)``
    (one exchange bounded by distinct bigrams); unigram counts via one
    vocab-bounded exchange, collected and broadcast via ``ray.put``
    (vocab fits driver memory by the bigram-LM contract — for open
    vocabularies swap the attach for a hash_join on the count TABLES,
    still never on rows). Returns ``(left_tok, right_tok, n_pair,
    lift_ppm)`` for pairs with ``n_pair >= min_pair``."""
    import ray
    from ray.data.aggregate import Sum

    def uni_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd
        toks_per = (pa.table({"t": batch.column(text_col)})
                    .to_pandas()["t"].fillna("").str.split())
        flat = pd.Series([tok for lst in toks_per for tok in lst],
                         dtype=object)
        if flat.empty:
            return pa.table({"tok": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        g = flat.value_counts()
        return pa.table({"tok": pa.array(g.index, pa.string()),
                         "n": pa.array(g.to_numpy(), pa.int64())})

    uni = (ds.map_batches(uni_partial, batch_format="pyarrow")
           .groupby("tok").aggregate(Sum("n", alias_name="n"))).to_pandas()
    counts = {t: int(n) for t, n in zip(uni["tok"], uni["n"])}
    total = sum(counts.values())
    uni_ref = ray.put((counts, total))

    pairs = skipgram_pair_counts(ds, text_col=text_col, window=1,
                                 min_count=min_pair)

    def attach(batch: pa.Table) -> pa.Table:
        lk, tot = ray.get(uni_ref)
        l = batch.column("left_tok").to_pylist()
        r = batch.column("right_tok").to_pylist()
        n = batch.column("n").to_pylist()
        lift = [int(c) * tot * 1_000_000 // (lk[a] * lk[b])
                for a, b, c in zip(l, r, n)]
        return pa.table({"left_tok": batch.column("left_tok"),
                         "right_tok": batch.column("right_tok"),
                         "n_pair": pa.array([int(x) for x in n], pa.int64()),
                         "lift_ppm": pa.array(lift, pa.int64())})

    return pairs.map_batches(attach, batch_format="pyarrow")


def vocab_growth(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Heaps'-law vocabulary growth curve — distinct whitespace tokens
    seen within each DOUBLING prefix of the corpus (docs with id < 2^k)
    — the tokenizer-sizing / dedup-health curve: sub-linear growth is
    healthy natural text, near-linear growth screams unique-id noise or
    unbounded junk vocab, and a flat tail says more data buys no new
    words. Naively this is K running COUNT DISTINCTs over nested
    prefixes; it collapses to ONE pass because membership in prefix k
    depends only on each token's FIRST occurrence: vocab(k) = #{tokens
    with min(doc_id) < 2^k} — a histogram of bit_length(min_id) plus a
    cumulative sum.

    Physical plan: per-batch (token → min id) partials (one pandas
    groupby per batch), ONE exchange bounded by distinct tokens, a Min
    fold, then the ≤64-bucket bit-length histogram; doc counts per
    prefix come from the same bit-length trick on ids alone. Buckets
    use exact float64 frexp (ids < 2^53 — 10^12 docs is 2^40, fine),
    never log2-rounding. Empty tokens from consecutive spaces are
    dropped (the ``split(' ')`` convention shared with top_tokens).

    Returns (k, prefix_docs, vocab) for k = 0..bit_length(max_id), all
    int64; SQL mirrors the histogram with length(bin(min_id)) — the
    log2_quantile_sketch bucket function — plus a running-sum window.
    """
    import pandas as pd
    from ray.data.aggregate import Min

    def bit_length(x: np.ndarray) -> np.ndarray:
        _, e = np.frexp(np.maximum(x.astype("float64"), 0.0))
        return e.astype("int64")  # frexp exp == bit_length for ints

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        texts = batch.column(text_col).to_pylist()
        toks, tid = [], []
        for i, t in zip(ids, texts):
            ts = [w for w in (t or "").split(" ") if w]
            toks.extend(ts)
            tid.extend([i] * len(ts))
        df = pd.DataFrame({"token": toks, "_mid": tid})
        out = df.groupby("token", sort=False)["_mid"].min().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    def id_hist_partial(batch: pa.Table) -> pa.Table:
        b = bit_length(batch.column(id_col).to_numpy())
        h = np.bincount(b)
        return pa.table({"_b": pa.array(np.arange(len(h)), pa.int64()),
                         "_n": pa.array(h, pa.int64())})

    def mid_hist_partial(batch: pa.Table) -> pa.Table:
        b = bit_length(batch.column("_mid").to_numpy())
        h = np.bincount(b)
        return pa.table({"_b": pa.array(np.arange(len(h)), pa.int64()),
                         "_n": pa.array(h, pa.int64())})

    from ray.data.aggregate import Sum

    # first-occurrence ids stay distributed (vocab on a junk-heavy
    # corpus approaches corpus size); only ≤64-row histograms fold to
    # the driver on BOTH axes
    th = (ds.select_columns([id_col, text_col])
          .map_batches(partial, batch_format="pyarrow")
          .groupby("token")
          .aggregate(Min("_mid", alias_name="_mid"))
          .map_batches(mid_hist_partial, batch_format="pyarrow")
          .groupby("_b").aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    if th.empty:
        raise ValueError("vocab_growth: empty input")
    dh = (ds.select_columns([id_col])
          .map_batches(id_hist_partial, batch_format="pyarrow")
          .groupby("_b").aggregate(Sum("_n", alias_name="_n"))).to_pandas()
    kmax = int(dh["_b"].max())
    tok_hist = np.zeros(kmax + 1, dtype="int64")
    tok_hist[th["_b"].to_numpy()] = th["_n"].to_numpy()
    doc_hist = np.zeros(kmax + 1, dtype="int64")
    doc_hist[dh["_b"].to_numpy()] = dh["_n"].to_numpy()
    out = pd.DataFrame({
        "k": np.arange(kmax + 1, dtype="int64"),
        "prefix_docs": np.cumsum(doc_hist).astype("int64"),
        "vocab": np.cumsum(tok_hist).astype("int64")})
    return pa.Table.from_pandas(out, preserve_index=False) \
                   .replace_schema_metadata(None)


_SENT_RE = re.compile(r"[.!?]+")
_WORD_RE = re.compile(r"[a-z]+")
_VOWEL_RE = re.compile(r"[aeiouy]+")


def readability_batch(batch: pa.Table, *, id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """Flesch reading-ease in exact integer ppm — the classic
    sentence-length × syllable-weight readability score, completing
    the text-quality family (gopher rules gate junk, quality_pages
    scores structure, this grades HOW HARD fluent text reads). The
    206.835 − 1.015·(words/sent) − 84.6·(syll/word) formula clears to
    integers by flooring each ratio at milli precision:
    ``f_ppm = 206835·10³ − 1015·(10³·w // s) − 84600·(10³·y // w)``.

    Counting conventions (ASCII contract, mirrored verbatim in SQL):
    words = runs of [a-z] in the lowercased text; sentences = runs of
    [.!?]; syllables = runs of [aeiouy] in the lowercased text (the
    standard vowel-group approximation, counted corpus-side not
    per-word — identical arithmetic both sides); each denominator
    clamps ≥ 1 and syllables clamp ≥ words (every word has a vowel
    nucleus — 'rhythm'-like consonant words count 1, matching the
    classic heuristic). Pure per-row map, zero exchange. Emits
    (id, n_words, n_sents, n_syll, flesch_ppm); scores can go
    negative on run-on jargon — that is the scale working."""
    ids = batch.column(id_col).to_pylist()
    out_w, out_s, out_y, out_f = [], [], [], []
    for t in batch.column(text_col).to_pylist():
        t = t or ""
        low = t.lower()
        w = max(1, len(_WORD_RE.findall(low)))
        s = max(1, len(_SENT_RE.findall(t)))
        y = max(w, len(_VOWEL_RE.findall(low)))
        f = 206835 * 1000 - 1015 * (1000 * w // s) \
            - 84600 * (1000 * y // w)
        out_w.append(w); out_s.append(s); out_y.append(y); out_f.append(f)
    return pa.table({id_col: pa.array(ids),
                     "n_words": pa.array(out_w, pa.int64()),
                     "n_sents": pa.array(out_s, pa.int64()),
                     "n_syll": pa.array(out_y, pa.int64()),
                     "flesch_ppm": pa.array(out_f, pa.int64())})


def build_vocab_distributed(ds, *, text_col: str = "text") -> np.ndarray:
    """Distinct tokens of a (usually filtered) corpus slice, as a sorted
    numpy unicode array ready to broadcast — one exchange bounded by the
    vocabulary (Heaps' law keeps |V| ≪ corpus; see vocab_growth).
    Token = single-space split, empties counted (top_tokens convention)."""
    import collections

    def partial(batch: pa.Table) -> pa.Table:
        seen = set()
        for t in batch.column(text_col).to_pylist():
            seen.update((t or "").split(" "))
        return pa.table({"token": pa.array(sorted(seen), pa.string())})

    toks = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("token").count().to_pandas())
    return np.sort(toks["token"].to_numpy().astype("U"))


def oov_rate(ds, vocab_ref, *, id_col: str = "doc_id",
             text_col: str = "text"):
    """Per-document out-of-vocabulary rate against a broadcast reference
    vocabulary — the tokenizer-coverage eval (how much of each document
    a fixed vocab fails to cover).  The vocab ships ONCE via ``ray.put``
    (pass the object ref); each batch flattens its tokens to one array,
    one hash-based ``np.isin`` answers membership for every token of
    every doc at once, and ``np.add.reduceat`` folds per-doc counts —
    no per-token Python in the hot path.  oov_ppm floors (non-negative).
    Pure map, zero exchange."""
    import ray

    def score(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        texts = batch.column(text_col).to_pylist()
        toks = [(t or "").split(" ") for t in texts]
        lens = np.array([len(tk) for tk in toks], dtype="int64")
        flat = np.array([w for tk in toks for w in tk], dtype="U")
        oov = ~np.isin(flat, vocab)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        n_oov = (np.add.reduceat(oov.astype("int64"), starts)
                 if len(flat) else np.zeros(0, dtype="int64"))
        n_oov = np.where(lens > 0, n_oov, 0)
        return pa.table({
            id_col: batch.column(id_col),
            "n_tokens": pa.array(lens, pa.int64()),
            "n_oov": pa.array(n_oov, pa.int64()),
            "oov_ppm": pa.array(n_oov * 1_000_000 // np.maximum(lens, 1),
                                pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow")


def ngram_novelty(ds, *, id_col: str = "doc_id", text_col: str = "text",
                  n: int = 3, num_partitions: int = 64):
    """Per-document n-gram NOVELTY: the fraction of each doc's distinct
    n-grams that occur for the FIRST time in the corpus when docs are
    read in id order — the repetition-between-documents curation signal
    at per-doc granularity (vocab_growth plots the corpus curve;
    decontaminate flags overlap with a fixed benchmark; this scores
    every document against everything BEFORE it).  Boilerplate-heavy
    docs score near 0, fresh prose near 10⁶.

    The trick that keeps it one pass: a distinct n-gram is novel in
    EXACTLY the doc where its min(doc_id) lands, so per-doc novel
    counts are just the min-table grouped by its own value — no
    ngram→doc join back.  Shingles are the dedup convention (whitespace
    tokens, space-joined windows, per-doc distinct; <n tokens → no
    shingles).

    Physical plan: map emits per-doc distinct (ngram, id) pairs [the
    one corpus-ngram-sized exchange — same cost class as the MinHash
    band shuffle] + a per-doc (id, n_ngrams) side stream with NO
    exchange; groupby(ngram).min → groupby(min_id).count → distributed
    left hash-join against the side stream (docs with zero novel or
    zero ngrams keep rows).  Output: (id, n_ngrams, n_novel,
    novelty_ppm), ppm floored, 0 when the doc has no ngrams."""
    from ray.data.aggregate import Count, Min

    from documentai_ray.stages.joins import hash_join

    def shingles(text: str) -> set[str]:
        toks = (text or "").split()
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    def pairs(batch: pa.Table) -> pa.Table:
        ids, grams = [], []
        for did, t in zip(batch.column(id_col).to_pylist(),
                          batch.column(text_col).to_pylist()):
            for g in shingles(t):
                ids.append(did)
                grams.append(g)
        return pa.table({"ngram": pa.array(grams, pa.string()),
                         "_id": pa.array(ids, pa.int64())})

    def per_doc(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        counts = [len(shingles(t))
                  for t in batch.column(text_col).to_pylist()]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_ngrams": pa.array(counts, pa.int64())})

    novel = (ds.map_batches(pairs, batch_format="pyarrow")
             .groupby("ngram")
             .aggregate(Min("_id", alias_name="_min_id"))
             .groupby("_min_id")
             .aggregate(Count(alias_name="n_novel"))
             .map_batches(lambda b: b.rename_columns([id_col, "n_novel"]),
                          batch_format="pyarrow"))
    docs = ds.map_batches(per_doc, batch_format="pyarrow")
    joined = hash_join(docs, novel, on=id_col, how="left",
                       num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        nn = pc.fill_null(batch.column("n_novel"), 0)
        ng = batch.column("n_ngrams")
        ppm = (nn.to_numpy(zero_copy_only=False) * 1_000_000
               // np.maximum(ng.to_numpy(), 1))
        return pa.table({id_col: batch.column(id_col),
                         "n_ngrams": ng,
                         "n_novel": pc.cast(nn, pa.int64()),
                         "novelty_ppm": pa.array(ppm, pa.int64())})

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# stringology: smallest period / border (KMP), LZ78 complexity
# ---------------------------------------------------------------------------

def smallest_period(s: str) -> int:
    """Smallest (weak) period of ``s`` — the least p ≥ 1 with
    s[i] = s[i+p] for every valid i, equivalently n − border(n) where
    border(n) is the longest proper border from the KMP failure
    function.  The KMP route is O(n); the mirror uses the equivalent
    naive definition min{p : s[1..n−p] = s[p+1..n]} directly (their
    equality is the classical border/period duality, cross-checked in
    tests).  Empty string → 0 by convention."""
    n = len(s)
    if n == 0:
        return 0
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = fail[k - 1]
        if s[i] == s[k]:
            k += 1
        fail[i] = k
    return n - fail[n - 1]


def lz78_phrases(s: str) -> int:
    """LZ78 phrase count of ``s`` — the Lempel-Ziv complexity proxy:
    parse left to right, each phrase = (longest dictionary prefix of
    the remainder) + one symbol, the new phrase joining the
    dictionary.  The dictionary is prefix-closed by construction (every
    phrase extends an earlier one), so greedy longest-prefix match is
    the LZ78 parse.  A final incomplete phrase (input exhausted while
    still inside a dictionary word) counts as a phrase — the classical
    convention, stated because the mirror must share it.  O(n) via a
    trie walk."""
    trie: dict = {}
    c = 0
    node = trie
    for ch in s:
        if ch in node:
            node = node[ch]
        else:
            node[ch] = {}
            c += 1
            node = trie
    if node is not trie:  # incomplete final phrase
        c += 1
    return c


def token_edit_distance(a: list, b: list) -> int:
    """Levenshtein distance between two token sequences (unit
    insert/delete/substitute costs) — classic row DP, O(|a|·|b|).
    The mirror computes the same rows through the prefix-min closed
    form row[j] = min_{k≤j}(base[k] + (j−k)) with base[k] =
    min(prev[k]+1, prev[k−1]+cost_k), which unrolls the sequential
    in-row dependency into list lambdas; the two recurrences are
    equivalent (the horizontal +1 chain telescopes) and their
    agreement is cross-checked corpus-wide in tests."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[m]


# CRC-8 (poly 0x07, init 0, MSB-first, no reflection / final xor) —
# table generated once at import (T2 discipline)
CRC8_TABLE = []
for _b in range(256):
    _c = _b
    for _ in range(8):
        _c = ((_c << 1) ^ 0x07) & 0xFF if _c & 0x80 else (_c << 1) & 0xFF
    CRC8_TABLE.append(_c)


def crc8(data: bytes) -> int:
    """CRC-8/SMBUS of ``data`` — POLYNOMIAL CODES over GF(2), the
    coding family's division-residue member (hamming74 is a block
    parity code; Luhn a decimal checksum).  Table-driven MSB-first:
    crc' = T[crc XOR byte].  The defining algebraic property — the
    residue of (message ‖ crc) is 0 — and exhaustive ≤8-bit
    burst-error detection are pinned in tests; the mirror replays
    the same table walk in a recursive CTE with the 256-entry table
    as a generated list literal."""
    c = 0
    for b in data:
        c = CRC8_TABLE[c ^ b]
    return c


def bwt_runs(s: str):
    """Burrows–Wheeler transform + run count — COMPRESSED INDEXING,
    the modern-stringology family member (periodicity is classical
    combinatorics on words; the BWT's run count r is THE parameter
    of FM-indexes/r-indexes, and repetitive text collapses to few
    runs).  Full rotation sort with '$' sentinel (byte order '$' <
    letters matches DuckDB's binary collation — stated).  Returns
    (bwt, runs).  INVERTIBILITY (LF mapping) and the permutation
    property are pinned in tests; the mirror rebuilds the same
    rotations with list lambdas."""
    rots = sorted(s[i:] + s[:i] for i in range(len(s)))
    b = "".join(r[-1] for r in rots)
    runs = 1 + sum(1 for i in range(1, len(b))
                   if b[i] != b[i - 1]) if b else 0
    return b, runs


def bwt_inverse(b: str) -> str:
    """Inverse BWT via LF mapping (test-side witness of
    invertibility; assumes exactly one '$' sentinel that sorts
    first)."""
    n = len(b)
    order = sorted(range(n), key=lambda i: (b[i], i))
    out, i = [], order[b.index("$")] if "$" in b else 0
    # standard: start from the row whose last char is '$'
    i = order[b.index("$")]
    for _ in range(n):
        out.append(b[i])
        i = order[i]
    s = "".join(out)
    return s
