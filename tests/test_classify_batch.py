"""Batch-native classify against the scalar technique classes.

``ClassifyStage`` runs the four techniques as Arrow kernels over the rows
where RE2 and Python ``re`` agree (ASCII, no \\v, no \\x1c-\\x1f). Every
other row takes the scalar path: the keyword and regex ``classify`` and
Python ``tokenize`` run on it per row. These tests compare both paths,
column by column, with the scalar definitions on a seeded batch that mixes
the two kinds of rows."""

from __future__ import annotations

import random
import zlib

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from documentai_ray.sources.pages import po_lines
from documentai_ray.stages import classify

CFG = classify.load_config()
STAGE = classify.ClassifyStage()
TECHS = ["tech_keyword", "tech_regex", "tech_tokenset", "tech_ml"]
# one per scalar-path trigger: non-ASCII letters (the Kelvin sign and the
# long s case-fold to ASCII k and s in Python ``re``), \v and \x1c-\x1f
SCALAR_CHARS = ["é", "ß", "K", "ſ", "\v", "\x1f", "\x1c"]


def _words() -> list[str]:
    words = []
    for spec in CFG["categories"].values():
        words += list(spec["keywords"]) + spec["tokens"]
    return words + ["PO Number", "Incoterms 2020", "INV-77", "Quantity:",
                    "Description  of\tgoods", "hs code", "the", "and", "of",
                    "a_b", "42", "--", "(x)", "\r\n"]


def mixed_rows(seed: int, n: int = 160) -> list[str | None]:
    rng = random.Random(seed)
    words = _words()
    po = "\n".join(po_lines(1234))
    # "ΑΣ'Α": the apostrophe decides Python's final-sigma lowercasing;
    # token sets and NB features both take tokenize() of the raw text
    rows: list[str | None] = [None, "", "   ", "!!!", po, po.upper(), "ΑΣ'Α seller"]
    for ch in SCALAR_CHARS:
        rows.append(f"seller{ch}buyer po{ch}number h{ch} code spar{ch} table")
    while len(rows) < n:
        toks = [rng.choice(words) for _ in range(rng.randrange(1, 60))]
        if rng.random() < 0.15:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(SCALAR_CHARS))
        rows.append(rng.choice([" ", "\n", ", ", ""]).join(toks))
    rng.shuffle(rows)
    return rows


def table(rows: list[str | None], chunks: int = 3) -> pa.Table:
    cuts = sorted(random.Random(len(rows)).sample(range(len(rows) + 1), chunks - 1))
    bounds = [0] + cuts + [len(rows)]
    text = pa.chunked_array([pa.array(rows[a:b], pa.large_string())
                             for a, b in zip(bounds, bounds[1:])], pa.large_string())
    return pa.table({"id": pa.array(range(len(rows)), pa.int64()), "text": text})


def scalar_ml(ml: classify.MLScorer, text: str) -> tuple[str, float]:
    """The per-row sparse NB score: each class's weights summed from 0.0 in
    feature order, then the batch softmax on a one-row matrix."""
    if not text:
        return classify.UNCLASSIFIED, 0.1
    ids = classify.feature_ids(text)
    S = np.tile(ml.log_prior, (1, 1))
    for c in range(len(ml.classes)):
        acc = 0.0
        for f in ids:
            acc += ml.log_like[c, f]
        S[0, c] += acc
    m = S.max(axis=1, keepdims=True)
    P = np.exp(S - m)
    P /= P.sum(axis=1, keepdims=True)
    a = int(S.argmax(axis=1)[0])
    return ml.classes[a], float(P[0, a])


def scalar_fuse(cats: list[str], confs: list[float]) -> tuple[str, str]:
    tally: dict[str, list[float]] = {}
    for c, f in zip(cats, confs):
        tally.setdefault(c, []).append(f)
    best = sorted(tally.items(), key=lambda kv: (-len(kv[1]), -sum(kv[1]), kv[0]))[0]
    return best[0], f"{len(best[1])}/4"


class TestBatchMatchesScalar:
    def test_columns_match_scalar_classifiers(self):
        rows = mixed_rows(7)
        out = STAGE(table(rows)).to_pydict()
        three = STAGE.three
        for i, t in enumerate(rows):
            t = t or ""
            want = [three.kw.classify(t), three.rx.classify(t), three.ts.classify(t),
                    scalar_ml(STAGE.ml, t)]
            got = [(out[c][i], out[c + "_conf"][i]) for c in TECHS]
            assert got == want, (i, t)
            assert (out["category"][i], out["votes"][i]) == scalar_fuse(
                [c for c, _ in want], [f for _, f in want]), (i, t)

    def test_fused_equals_unfused_chain(self):
        t = table(mixed_rows(11))
        chain = classify.fuse_votes(classify.MLScorer()(classify.ThreeTechniqueStage()(t)))
        fused = STAGE(t)
        assert fused.schema == chain.schema
        assert fused.equals(chain)

    def test_chunking_does_not_change_output(self):
        rows = mixed_rows(3)
        assert STAGE(table(rows, chunks=1)).equals(STAGE(table(rows, chunks=5)))

    def test_scalar_path_takes_exactly_the_rows_outside_the_ascii_rule(self):
        rows = mixed_rows(5)
        text = table(rows).column("text").combine_chunks()
        fast, scalar = classify._split_rows(text)
        expect = [i for i, t in enumerate(rows)
                  if t and any(not c.isascii() or c == "\v" or "\x1c" <= c <= "\x1f"
                               for c in t)]
        assert [i for i, _ in scalar] == expect
        assert [t for _, t in scalar] == [rows[i] for i in expect]
        assert all(any(ch in t for _, t in scalar) for ch in SCALAR_CHARS)
        assert fast.null_count == len(expect) + rows.count(None)

    def test_zero_rows(self):
        for text in (pa.array([], pa.large_string()),
                     pa.chunked_array([], pa.string())):
            out = STAGE(pa.table({"text": text}))
            assert out.num_rows == 0
            assert out.column_names == ["text"] + [
                c for t in TECHS for c in (t, t + "_conf")] + ["category", "votes"]

    def test_regex_outside_re2_goes_scalar(self):
        cfg = classify.load_config()
        cfg["categories"]["invoice"]["patterns"].append(r"inv(?=oice)")
        stage = classify.ClassifyStage(cfg)
        assert not stage.three.rx.re2
        t = table(mixed_rows(13, n=40))
        chain = classify.fuse_votes(classify.MLScorer()(classify.ThreeTechniqueStage(cfg)(t)))
        assert stage(t).equals(chain)


class TestFuseVotes:
    def test_forced_ties_match_the_sorted_tally(self):
        rng = random.Random(1)
        cats = ["a", "b", "c", classify.UNCLASSIFIED]
        n = 400
        cols: dict[str, list] = {c: [rng.choice(cats[:2]) for _ in range(n)] for c in TECHS}
        for c in TECHS:
            cols[c + "_conf"] = [rng.choice([0.1, 0.3, 0.5, 0.7]) for _ in range(n)]
        for i in range(0, n, 3):  # 2-2 splits with equal confidence sums
            cols["tech_keyword"][i] = cols["tech_regex"][i] = rng.choice(cats)
            cols["tech_tokenset"][i] = cols["tech_ml"][i] = rng.choice(cats)
            for c in TECHS:
                cols[c + "_conf"][i] = 0.4
        out = classify.fuse_votes(pa.table(cols)).to_pydict()
        for i in range(n):
            want = scalar_fuse([cols[c][i] for c in TECHS],
                               [cols[c + "_conf"][i] for c in TECHS])
            assert (out["category"][i], out["votes"][i]) == want, i


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.binary(max_size=300))
def test_bigram_hash_by_crc32_combine(a, b):
    tables = np.stack([classify._shift_table(1), classify._shift_table(len(b))])
    crc_u = classify._crc32_combine(np.array([zlib.crc32(a)], np.uint32),
                                    np.uint32(zlib.crc32(b"_")), tables, 0)
    h = classify._crc32_combine(crc_u, np.uint32(zlib.crc32(b)), tables, 1)
    assert int(h[0]) % classify.HASH_DIM == zlib.crc32(a + b"_" + b) % classify.HASH_DIM
    assert int(h[0]) == zlib.crc32(a + b"_" + b)
