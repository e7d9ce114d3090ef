"""Property-based tests (hypothesis) — invariants the reference never pinned
(SURVEY §5: no property tests in the reference; golden + properties here)."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from documentai_ray.functions import minipdf
from documentai_ray.functions.text import collapse_ws, normalize_alnum_lower, r6
from documentai_ray.stages.dedup import ngram_jaccard, simhash64
from documentai_ray.stages.extract import html_main_content
from documentai_ray.stages.preprocess import group_pages
from documentai_ray.stages.quality import score_text

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)
texts = st.lists(words, min_size=0, max_size=80).map(" ".join)


class TestTextFunctions:
    @given(st.text(max_size=200))
    def test_collapse_ws_idempotent(self, s):
        once = collapse_ws(s)
        assert collapse_ws(once) == once
        assert once == once.strip()
        assert "  " not in once

    @given(st.text(max_size=200))
    def test_collapse_ws_equals_regex_form(self, s):
        assert collapse_ws(s) == re.sub(r"\s+", " ", s).strip()

    def test_collapse_ws_every_code_point(self):
        # str.split() and the regex \s agree on every code point
        s = "".join(f"a{chr(c)}" for c in range(0x110000) if not 0xD800 <= c < 0xE000)
        assert collapse_ws(s) == re.sub(r"\s+", " ", s).strip()

    @given(st.text(max_size=200))
    def test_normalize_alnum_lower_matches_per_char_filter(self, s):
        low = s.lower()
        assert normalize_alnum_lower(s) == "".join(c for c in low if c.isalnum())

    @given(st.text(max_size=200))
    def test_normalize_alnum_lower_closed(self, s):
        out = normalize_alnum_lower(s)
        assert out == out.lower()
        assert all(c.isalnum() for c in out)
        # idempotent
        assert normalize_alnum_lower(out) == out

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_r6_truncates_downward(self, x):
        y = r6(x)
        assert y <= x
        assert x - y < 1e-6 + 1e-9 * max(1.0, x)


class TestMiniPdfRoundtrip:
    @given(texts)
    @settings(max_examples=50, deadline=None)
    def test_walk_reproduces_construction(self, text):
        payload, expected = minipdf.build_from_text(text, shuffle_key=7)
        got, boxes = minipdf.walk(payload)
        assert got == expected
        assert [b["text"] for b in boxes] == text.split()


class TestQualityInvariants:
    @given(texts, st.sampled_from(["en", "de", "zz"]))
    @settings(max_examples=100, deadline=None)
    def test_score_ranges(self, text, lang):
        r = score_text(text, lang)
        assert 0 <= r["confidence"] <= 1
        assert 0 <= r["rep_ratio"] <= 1
        assert 0 <= r["struct_ratio"] <= 1
        assert r["uniq_tokens"] <= r["n_tokens"]
        assert (r["verdict"] == "re_scan") == (r["n_chars"] == 0)

    @given(texts)
    @settings(max_examples=50, deadline=None)
    def test_score_deterministic(self, text):
        assert score_text(text) == score_text(text)


class TestDedupInvariants:
    @given(texts, texts)
    @settings(max_examples=50, deadline=None)
    def test_jaccard_symmetric_bounded(self, a, b):
        j = ngram_jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == ngram_jaccard(b, a)
        # self-similarity is 1.0 only with a non-empty shingle set (< k
        # tokens → empty set → 0.0, matching the SQL oracle semantics)
        expected_self = 1.0 if len(a.split()) >= 3 else 0.0
        assert ngram_jaccard(a, a) == expected_self

    @given(texts)
    @settings(max_examples=50, deadline=None)
    def test_simhash_stable_and_64bit(self, t):
        h = simhash64(t)
        assert 0 <= h < (1 << 64)
        assert h == simhash64(t)


class TestExtractionSafety:
    @given(st.text(max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_extractor_never_raises_on_any_html(self, s):
        out = html_main_content(s)
        assert isinstance(out, str)
        assert out == collapse_ws_lines(out)

    @given(st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_extract_one_never_raises_on_any_bytes(self, payload):
        from documentai_ray.stages.extract import extract_one

        text, kind, err, boxes = extract_one(payload)
        assert kind in ("html", "pdf", "docx", "xlsx", "error")
        assert (err == "") or (text == "")


def collapse_ws_lines(s: str) -> str:
    return "\n".join(collapse_ws(ln) for ln in s.split("\n"))


class TestGroupPagesInvariants:
    @given(st.lists(st.sampled_from(["a", "b", "po"]), max_size=60),
           st.integers(min_value=1, max_value=10))
    def test_group_ids_contiguous_and_capped(self, cats, cap):
        gids = group_pages(cats, max_pages_per_group=cap, always_separate=("po",))
        assert len(gids) == len(cats)
        if gids:
            # ids start at 0 and increase by 0 or 1
            assert gids[0] == 0
            assert all(b - a in (0, 1) for a, b in zip(gids, gids[1:]))
        # no group exceeds cap; 'po' groups are singletons
        from collections import Counter

        sizes = Counter(gids)
        for gid, size in sizes.items():
            assert size <= cap
        for cat, gid in zip(cats, gids):
            if cat == "po":
                assert sizes[gid] == 1
