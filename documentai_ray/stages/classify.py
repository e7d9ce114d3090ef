"""4-technique page/document classification with majority-vote fusion.

Reference parity (all under /root/reference/document_classification_updated/):

- keyword technique — Σ len(kw)·4·weight over substring hits on
  alnum-lowercase-normalized text, argmax category, confidence 0.8 hit /
  0.1 miss (documentClassifier.py:373-437, "PyMuPDF" technique M8).
- regex technique — per-category compiled patterns, score = matches·weight,
  confidence = max_score / total_score (documentClassifier.py:440-509, M9).
- token-set technique — |token set ∩ keyword set|, confidence 0.7
  (documentClassifier.py:512-574, M10).
- ML technique — vectorizer + linear model scoring, argmax
  (documentClassifier.py:260-369, M12). Rebuilt as a hashed bag-of-ngrams
  multinomial Naive Bayes in pure numpy (sklearn is not available);
  batch-native predict (one ``np.bincount`` per class over the batch's
  hashed features), model artifact loaded once per worker or actor
  (SURVEY §2.4 T1).
- 4/4 majority vote — votes per category across the four results,
  confidence string "k/4" (documentClassifier.py:928-948, M13); in-row fuse,
  zero shuffle.

Empty text (blank / malformed / stripped-to-nothing pages) short-circuits
every technique to ``unclassified`` — the reference's error-row degradation
(documentClassifier.py:888-896).

Config is the user-extension surface (configs/classification_config.json),
loaded once on the driver and shipped in task/actor closures (broadcast
pattern — SURVEY §2.5 J3/J4).
"""

from __future__ import annotations

import functools
import json
import os
import re
import zlib
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from documentai_ray.functions.text import normalize_alnum_lower, tokenize

UNCLASSIFIED = "unclassified"

_CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "configs", "classification_config.json")
_MODEL_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "configs", "ml_model.npz")

HASH_DIM = 1 << 15


def load_config(path: str | None = None) -> dict[str, Any]:
    with open(path or os.path.abspath(_CONFIG_PATH)) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# batch path: which rows take it, and the shared per-batch tokenization
# ---------------------------------------------------------------------------

# A row takes the batch path unless it holds a character outside ASCII, or
# \v or \x1c-\x1f (Python's ``\s`` matches those, RE2's does not). On the
# other rows Arrow's RE2 kernels and Python ``re``/``str`` agree. The rows
# this pattern matches take the scalar path: the keyword and regex
# techniques' ``classify`` and ``tokenize`` run on them per row.
_SCALAR_ROW_RE = r"[^\x00-\x0a\x0c-\x1b\x20-\x7f]"


def _split_rows(text: pa.Array) -> tuple[pa.Array, list[tuple[int, str]]]:
    """``text`` with the scalar-path rows nulled, and those rows as
    ``(row, text)`` pairs."""
    scalar = pc.match_substring_regex(text, _SCALAR_ROW_RE).fill_null(False)
    rows = np.flatnonzero(scalar.to_numpy(zero_copy_only=False))
    if not len(rows):
        return text, []
    fast = pc.if_else(scalar, pa.scalar(None, text.type), text)
    return fast, [(int(i), text[int(i)].as_py()) for i in rows]


class _Tokens:
    """``tokenize`` of every row, in text order: ``rows`` is each token's
    row, ``ids`` its index into ``vocab``, the batch's distinct tokens.
    Arrow splits the batch-path rows ``fast`` (nulls elsewhere); the
    scalar-path rows are appended from ``tokenize``. ``norm`` is each
    batch-path row's ``normalize_alnum_lower``: its tokens joined, without
    underscores."""

    def __init__(self, fast: pa.Array, scalar: list[tuple[int, str]]):
        split = pc.split_pattern_regex(pc.ascii_lower(fast), "[^a-z0-9_]+")
        self.norm = pc.replace_substring(pc.binary_join(split, pa.scalar("", fast.type)), "_", "")
        flat = pc.list_flatten(split)
        keep = pc.greater(pc.binary_length(flat), 0)
        flat = flat.filter(keep)
        rows = pc.list_parent_indices(split).filter(keep).to_numpy().astype(np.int64)
        if scalar:
            toks = [tokenize(t) for _, t in scalar]
            flat = pa.concat_arrays([flat, pa.array([x for ts in toks for x in ts], flat.type)])
            rows = np.concatenate([rows, np.repeat(np.array([i for i, _ in scalar], np.int64),
                                                   [len(ts) for ts in toks])])
        self.rows = rows
        enc = flat.dictionary_encode()
        self.ids = enc.indices.to_numpy().astype(np.int64)
        self.vocab = enc.dictionary


def _codes_and_conf(scores: np.ndarray, hit_conf) -> tuple[np.ndarray, np.ndarray]:
    """Per row (column of ``scores``, one row per category in sorted
    order): the first best category, or ``len(scores)`` (unclassified)
    with confidence 0.1 when no category scores above 0."""
    hit = scores.max(axis=0, initial=0) > 0
    best = scores.argmax(axis=0) if len(scores) else 0
    return np.where(hit, best, len(scores)), np.where(hit, hit_conf, 0.1)


def _label_column(labels: pa.Array, codes: np.ndarray) -> pa.Array:
    return labels.take(pa.array(codes, pa.int64()))


# ---------------------------------------------------------------------------
# technique 1: weighted keyword substring scoring (M8)
# ---------------------------------------------------------------------------

class KeywordClassifier:
    def __init__(self, config: dict[str, Any]):
        self.table = {
            cat: [(normalize_alnum_lower(kw), kw, w) for kw, w in spec["keywords"].items()]
            for cat, spec in config["categories"].items()
        }

    def classify(self, text: str) -> tuple[str, float]:
        if not text:
            return UNCLASSIFIED, 0.1
        norm = normalize_alnum_lower(text)
        best_cat, best_score = UNCLASSIFIED, 0.0
        for cat in sorted(self.table):
            score = 0.0
            for kw_norm, _kw, w in self.table[cat]:
                hits = norm.count(kw_norm) if kw_norm else 0
                if hits:
                    score += len(kw_norm) * 4 * w * hits
            if score > best_score:
                best_cat, best_score = cat, score
        return (best_cat, 0.8) if best_score > 0 else (UNCLASSIFIED, 0.1)

    def classify_batch(self, toks: _Tokens) -> tuple[np.ndarray, np.ndarray]:
        """``classify`` over batch-path rows: category codes into
        ``sorted(categories) + [UNCLASSIFIED]`` and confidences. Scores add
        up in config order, one ``(len·4·w)·hits`` term per keyword (a
        0-hit term adds 0.0), so the floats are those of ``classify``.
        Hits are counted by RE2 on the escaped keyword: non-overlapping,
        like ``str.count``, and faster than ``count_substring``."""
        scores = np.zeros((len(self.table), len(toks.norm)))
        for i, cat in enumerate(sorted(self.table)):
            for kw_norm, _kw, w in self.table[cat]:
                if kw_norm:
                    hits = pc.count_substring_regex(toks.norm, re.escape(kw_norm))
                    scores[i] += len(kw_norm) * 4 * w * hits.fill_null(0).to_numpy()
        return _codes_and_conf(scores, 0.8)


# ---------------------------------------------------------------------------
# technique 2: regex pattern scoring (M9)
# ---------------------------------------------------------------------------

class RegexClassifier:
    """Patterns are Python ``re`` syntax. The batch path counts them with
    RE2, so they should mean the same in both on ASCII text (no ``$``
    before a final newline, no ``\\Z``). A pattern RE2 cannot compile
    (lookaround, backreferences) sends every row to ``classify``."""

    def __init__(self, config: dict[str, Any]):
        self.patterns = {
            cat: [re.compile(p, re.IGNORECASE) for p in spec["patterns"]]
            for cat, spec in config["categories"].items()
        }
        try:
            for pats in self.patterns.values():
                for p in pats:
                    pc.count_substring_regex(pa.array([""]), p.pattern, ignore_case=True)
            self.re2 = True
        except pa.ArrowInvalid:
            self.re2 = False

    def classify(self, text: str) -> tuple[str, float]:
        if not text:
            return UNCLASSIFIED, 0.1
        scores: dict[str, int] = {}
        for cat in sorted(self.patterns):
            s = sum(len(p.findall(text)) for p in self.patterns[cat])
            if s:
                scores[cat] = s
        if not scores:
            return UNCLASSIFIED, 0.1
        total = sum(scores.values())
        best = max(sorted(scores), key=lambda c: scores[c])
        return best, scores[best] / total

    def classify_batch(self, text: pa.Array) -> tuple[np.ndarray, np.ndarray]:
        """``classify`` over batch-path rows: codes as in
        ``KeywordClassifier.classify_batch``, confidence best/total."""
        cats = sorted(self.patterns)
        if not self.re2:
            labels = {c: i for i, c in enumerate(cats + [UNCLASSIFIED])}
            res = [self.classify(t or "") for t in text.to_pylist()]
            return (np.array([labels[c] for c, _ in res], np.int64),
                    np.array([f for _, f in res], np.float64))
        counts = np.zeros((len(cats), len(text)), np.int64)
        for i, cat in enumerate(cats):
            for p in self.patterns[cat]:
                counts[i] += pc.count_substring_regex(
                    text, p.pattern, ignore_case=True).fill_null(0).to_numpy()
        total = counts.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            share = counts.max(axis=0, initial=0) / total
        return _codes_and_conf(counts, share)


# ---------------------------------------------------------------------------
# technique 3: token-set intersection (M10)
# ---------------------------------------------------------------------------

class TokenSetClassifier:
    def __init__(self, config: dict[str, Any]):
        self.sets = {cat: set(spec["tokens"]) for cat, spec in config["categories"].items()}

    def classify(self, text: str) -> tuple[str, float]:
        if not text:
            return UNCLASSIFIED, 0.1
        toks = set(tokenize(text))
        best_cat, best = UNCLASSIFIED, 0
        for cat in sorted(self.sets):
            n = len(toks & self.sets[cat])
            if n > best:
                best_cat, best = cat, n
        return (best_cat, 0.7) if best > 0 else (UNCLASSIFIED, 0.1)

    def classify_batch(self, toks: _Tokens, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``classify`` over every row: per row, the number of its distinct
        tokens in each category's set."""
        member = np.array([
            pc.is_in(toks.vocab, value_set=pa.array(sorted(self.sets[cat]), pa.string()))
            .to_numpy(zero_copy_only=False)
            for cat in sorted(self.sets)
        ], dtype=bool).reshape(len(self.sets), len(toks.vocab))
        hit = member.any(axis=0)[toks.ids]
        d = max(len(toks.vocab), 1)
        rows, ids = np.divmod(np.unique(toks.rows[hit] * d + toks.ids[hit]), d)
        counts = np.array([np.bincount(rows[m[ids]], minlength=n) for m in member],
                          np.int64).reshape(len(member), n)
        return _codes_and_conf(counts, 0.7)


# ---------------------------------------------------------------------------
# technique 4: hashed-ngram Naive Bayes (M12 rebuilt without sklearn)
# ---------------------------------------------------------------------------

def feature_ids(text: str) -> list[int]:
    """Hashed unigram and bigram ids of ``tokenize(text)`` in feature order:
    ``t0, t1, t0_t1, t2, t1_t2, …``, each ``crc32(utf-8) % HASH_DIM``."""
    toks = tokenize(text)
    ids = []
    for j, t in enumerate(toks):
        ids.append(zlib.crc32(t.encode("utf-8")) % HASH_DIM)
        if j:
            ids.append(zlib.crc32(f"{toks[j - 1]}_{t}".encode("utf-8")) % HASH_DIM)
    return ids


def featurize(text: str) -> np.ndarray:
    """Hashed unigram+bigram counts → dense vector (HASH_DIM)."""
    ids = np.asarray(feature_ids(text), dtype=np.int64)
    return np.bincount(ids, minlength=HASH_DIM).astype(np.float64)


# crc32 arithmetic after zlib's crc32_combine: a crc is a polynomial over
# GF(2) in zlib's reflected 32-bit form (bit 31 is x^0), and
# crc32(a + b) == crc(a)·x^(8·len(b)) mod P  xor  crc32(b).
_CRC_POLY = 0xEDB88320


def _mulmodp(a: int, b):
    """a·b mod P (zlib's ``multmodp``); ``b`` may be a uint32 array."""
    p = b & 0
    for i in range(32):
        if a >> (31 - i) & 1:
            p = p ^ b
        b = (b >> 1) ^ (b & 1) * _CRC_POLY
    return p


_BYTE_BASIS = np.arange(256, dtype=np.uint32) << np.array([[0], [8], [16], [24]], np.uint32)


@functools.lru_cache(maxsize=256)
def _shift_table(nbytes: int) -> np.ndarray:
    """(4, 256) table: entry [k, v] is (v << 8k)·x^(8·nbytes) mod P."""
    x, sq = 1 << 31, 1 << 23  # x^0 and x^8
    while nbytes:
        if nbytes & 1:
            x = _mulmodp(sq, x)
        sq = _mulmodp(sq, sq)
        nbytes >>= 1
    return _mulmodp(x, _BYTE_BASIS)


def _crc32_combine(crc1: np.ndarray, crc2, tables: np.ndarray, which) -> np.ndarray:
    """zlib's ``crc32_combine`` per element: crc32(a + b) from crc1 =
    crc32(a) and crc2 = crc32(b), with ``tables[which]`` the element's
    ``_shift_table(len(b))``."""
    return (tables[which, 0, crc1 & 0xFF] ^ tables[which, 1, crc1 >> 8 & 0xFF]
            ^ tables[which, 2, crc1 >> 16 & 0xFF] ^ tables[which, 3, crc1 >> 24] ^ crc2)


_CRC_UNDERSCORE = zlib.crc32(b"_")


def _batch_features(toks: _Tokens) -> tuple[np.ndarray, np.ndarray]:
    """``feature_ids`` of every row as (row, id) arrays; each row's ids keep
    their order, so ``np.bincount`` sums its weights in that order. One
    crc32 per distinct token; a bigram's crc is combined from
    crc32(a + "_") and crc32(b), so no bigram string is built."""
    rows, ids = toks.rows, toks.ids
    crc = np.fromiter((zlib.crc32(t.encode("utf-8")) for t in toks.vocab.to_pylist()),
                      np.uint32, len(toks.vocab))
    lengths, which = np.unique(pc.binary_length(toks.vocab).to_numpy(), return_inverse=True)
    tables = np.stack([_shift_table(1)] + [_shift_table(int(n)) for n in lengths])
    crc_u = _crc32_combine(crc, np.uint32(_CRC_UNDERSCORE), tables, 0)  # crc32(a + "_")
    follows = np.zeros(len(ids), bool)
    follows[1:] = rows[1:] == rows[:-1]
    a, b = ids[:-1][follows[1:]], ids[1:][follows[1:]]
    bigram = _crc32_combine(crc_u[a], crc[b], tables, which[b] + 1)
    width = 1 + follows
    start = np.cumsum(width) - width
    feats = np.empty(int(width.sum()), np.int64)
    feats[start] = crc[ids] % HASH_DIM
    feats[start[follows] + 1] = bigram % HASH_DIM
    return np.repeat(rows, width), feats


def train_nb(samples: list[tuple[str, str]], alpha: float = 1.0) -> dict[str, np.ndarray]:
    """Multinomial NB: log P(class) + Σ count · log P(feature|class)."""
    classes = sorted({c for _t, c in samples})
    counts = np.zeros((len(classes), HASH_DIM), dtype=np.float64)
    prior = np.zeros(len(classes), dtype=np.float64)
    idx = {c: i for i, c in enumerate(classes)}
    for text, cls in samples:
        counts[idx[cls]] += featurize(text)
        prior[idx[cls]] += 1.0
    log_prior = np.log(prior / prior.sum())
    feat = counts + alpha
    log_like = np.log(feat / feat.sum(axis=1, keepdims=True))
    return {"classes": np.array(classes), "log_prior": log_prior, "log_like": log_like}


def save_model(model: dict[str, np.ndarray], path: str | None = None) -> None:
    np.savez_compressed(path or os.path.abspath(_MODEL_PATH), **model)


class MLScorer:
    """Actor-pool stage: model loaded once per actor in ``__init__``
    (reference loads joblib once per process, documentClassifier.py:99-215);
    per-batch predict sums each row's feature weights with ``np.bincount``
    over the batch's (row, feature id) arrays, with no dense vectors."""

    def __init__(self, model_path: str | None = None):
        data = np.load(model_path or os.path.abspath(_MODEL_PATH), allow_pickle=False)
        self.classes = [str(c) for c in data["classes"]]
        self.labels = pa.array(self.classes + [UNCLASSIFIED], pa.string())
        self.log_prior = data["log_prior"]
        self.log_like = data["log_like"]

    def predict_one(self, text: str) -> tuple[str, float]:
        if not text:
            return UNCLASSIFIED, 0.1
        v = featurize(text)
        scores = self.log_prior + self.log_like @ v
        # softmax over log-joint for a confidence
        m = scores.max()
        p = np.exp(scores - m)
        p /= p.sum()
        i = int(scores.argmax())
        return self.classes[i], float(p[i])

    def predict_batch(self, text: pa.Array, toks: _Tokens) -> tuple[np.ndarray, np.ndarray]:
        """Codes into ``self.labels`` and confidences; empty and null rows
        are unclassified."""
        n = len(text)
        rows, feats = _batch_features(toks)
        S = np.tile(self.log_prior, (n, 1))
        if len(rows):
            for c in range(len(self.classes)):
                S[:, c] += np.bincount(rows, weights=self.log_like[c, feats], minlength=n)
        m = S.max(axis=1, keepdims=True)
        P = np.exp(S - m)
        P /= P.sum(axis=1, keepdims=True)
        arg = S.argmax(axis=1)
        has_text = pc.binary_length(text).fill_null(0).to_numpy() > 0
        return (np.where(has_text, arg, len(self.classes)),
                np.where(has_text, P[np.arange(n), arg], 0.1))

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("text").combine_chunks()
        codes, conf = self.predict_batch(text, _Tokens(*_split_rows(text)))
        out = batch.append_column("tech_ml", _label_column(self.labels, codes))
        return out.append_column("tech_ml_conf", pa.array(conf, pa.float64()))


# ---------------------------------------------------------------------------
# stateless 3-technique stage + vote fusion (M13)
# ---------------------------------------------------------------------------

class ThreeTechniqueStage:
    """Stateless-state pattern: pattern tables compiled once per actor/worker
    (reference compiles per process, documentClassifier.py:31-38). Runs the
    scalar ``classify`` of each technique per row."""

    def __init__(self, config: dict[str, Any] | None = None):
        cfg = config or load_config()
        self.kw = KeywordClassifier(cfg)
        self.rx = RegexClassifier(cfg)
        self.ts = TokenSetClassifier(cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        kw_c, kw_f, rx_c, rx_f, ts_c, ts_f = [], [], [], [], [], []
        for t in texts:
            t = t or ""
            c, f = self.kw.classify(t); kw_c.append(c); kw_f.append(f)
            c, f = self.rx.classify(t); rx_c.append(c); rx_f.append(f)
            c, f = self.ts.classify(t); ts_c.append(c); ts_f.append(f)
        out = batch
        out = out.append_column("tech_keyword", pa.array(kw_c, pa.string()))
        out = out.append_column("tech_keyword_conf", pa.array(kw_f, pa.float64()))
        out = out.append_column("tech_regex", pa.array(rx_c, pa.string()))
        out = out.append_column("tech_regex_conf", pa.array(rx_f, pa.float64()))
        out = out.append_column("tech_tokenset", pa.array(ts_c, pa.string()))
        out = out.append_column("tech_tokenset_conf", pa.array(ts_f, pa.float64()))
        return out


_TECHNIQUES = ("tech_keyword", "tech_regex", "tech_tokenset", "tech_ml")
_VOTE_LABELS = pa.array([f"{k}/4" for k in range(5)], pa.string())


def fuse_votes(batch: pa.Table) -> pa.Table:
    """Majority vote across the four technique columns → category + "k/4".

    Tie-break: vote count desc, then summed confidence desc, then category
    name asc (deterministic). Pure per-row fuse — no shuffle (SURVEY A1).
    Categories become integer codes in name order, so the tie-break is
    numpy over a (4, rows) array.
    """
    n = batch.num_rows
    names = pa.concat_arrays([batch.column(c).combine_chunks().cast(pa.string())
                              for c in _TECHNIQUES]).dictionary_encode()
    order = pc.sort_indices(names.dictionary).to_numpy()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    code = rank[names.indices.to_numpy()].reshape(4, n)
    conf = np.array([batch.column(c + "_conf").to_numpy() for c in _TECHNIQUES],
                    np.float64).reshape(4, n)
    votes = np.zeros((4, n), np.int64)
    score = np.zeros((4, n))
    for p in range(4):
        for q in range(4):  # in technique order, as a per-row tally adds them
            same = code[q] == code[p]
            votes[p] += same
            score[p] += np.where(same, conf[q], 0.0)
    bv, bs, bc = votes[0], score[0], code[0]
    for p in range(1, 4):
        better = (votes[p] > bv) | (votes[p] == bv) & (
            (score[p] > bs) | (score[p] == bs) & (code[p] < bc))
        bv = np.where(better, votes[p], bv)
        bs = np.where(better, score[p], bs)
        bc = np.where(better, code[p], bc)
    category = _label_column(names.dictionary.take(pa.array(order)), bc)
    out = batch.append_column("category", category)
    return out.append_column("votes", _label_column(_VOTE_LABELS, bv))


class ClassifyStage:
    """Fused 4-technique + vote stage: ONE pool (a task pool, or an actor
    pool with ``ml_concurrency``) holding all warm state (compiled
    keyword/regex/token tables + the NB model). One pool instead
    of three chained stages = one actor-startup barrier and no inter-stage
    batch serialization — the pipeline-level analog of the reference running
    all techniques per page inside one process (documentClassifier.py:847-926).

    Batch path: each technique runs once per batch as Arrow kernels. One
    regex split plus ``dictionary_encode`` gives every row's tokens and
    the batch's distinct tokens; from them come the alnum-normalized text
    (keyword hits: one RE2 count per keyword), the token-set hits
    (``is_in`` over the distinct tokens) and the NB features (one crc32
    per distinct token, bigram hashes by crc32 combination). Regex hits
    are one ``count_substring_regex`` per pattern. The batch path takes
    every row that is ASCII with no \\v or \\x1c-\\x1f, where RE2 and
    Python ``re`` agree. Scalar path: on the other rows the keyword and
    regex techniques run their ``classify`` per row, and ``tokenize``
    gives the tokens that join the batch's for the token sets and the NB
    features. Results stay in row order.
    Output is bit-identical to the unfused ThreeTechniqueStage → MLScorer →
    fuse_votes chain (pinned by test)."""

    def __init__(self, config: dict[str, Any] | None = None,
                 model_path: str | None = None):
        self.three = ThreeTechniqueStage(config)
        self.ml = MLScorer(model_path)
        self.labels = sorted(self.three.kw.table) + [UNCLASSIFIED]

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("text").combine_chunks()
        fast, scalar = _split_rows(text)
        toks = _Tokens(fast, scalar)
        kw, rx = self.three.kw, self.three.rx
        per_row = [(kw, kw.classify_batch(toks)), (rx, rx.classify_batch(fast))]
        for i, t in scalar:
            for clf, (codes, conf) in per_row:
                c, conf[i] = clf.classify(t)
                codes[i] = self.labels.index(c)
        labels = pa.array(self.labels, pa.string())
        techs = [("tech_keyword", labels, per_row[0][1]),
                 ("tech_regex", labels, per_row[1][1]),
                 ("tech_tokenset", labels, self.three.ts.classify_batch(toks, len(text))),
                 ("tech_ml", self.ml.labels, self.ml.predict_batch(text, toks))]
        out = batch
        for name, names, (codes, conf) in techs:
            out = out.append_column(name, _label_column(names, codes))
            out = out.append_column(name + "_conf", pa.array(conf, pa.float64()))
        return fuse_votes(out)


_TASK_STAGE: ClassifyStage | None = None


def classify_batch_task(batch: pa.Table) -> pa.Table:
    """Task-pool form of the fused classify stage: the warm state (compiled
    tables + NB model) builds once per WORKER PROCESS on first call and is
    reused across tasks — same load-once semantics as the actor pool, but
    with no actor-startup barrier, and the stage fuses with its task-based
    neighbors (read→extract→quality→classify→entities run as ONE operator).
    Right whenever the model is process-cache-sized (this NB artifact is
    <1 MB); switch to the actor pool (``ml_concurrency=...``) when the
    model is GB-scale and the pool must be sized to memory (SURVEY T1)."""
    global _TASK_STAGE
    if _TASK_STAGE is None:
        _TASK_STAGE = ClassifyStage()
    return _TASK_STAGE(batch)


def classify_pipeline(ds, *, ml_concurrency=None, batch_size: int = 1024):
    """text-bearing Dataset → + technique columns + fused category/votes.

    ``ml_concurrency=None`` (default) → task pool with per-worker warm
    state; a tuple/int → actor pool of that size (for heavy models)."""
    if ml_concurrency is None:
        return ds.map_batches(classify_batch_task, batch_format="pyarrow",
                              batch_size=batch_size)
    return ds.map_batches(ClassifyStage, batch_format="pyarrow",
                          concurrency=ml_concurrency, batch_size=batch_size)
