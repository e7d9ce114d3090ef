"""Fast-path equivalence: ``html_main_content`` (fast + fallback) must
produce byte-identical output to the pure html.parser implementation on
every input — corpus, goldens, handwritten edge cases, generated pages
and fuzz — and the fast path must stay linear on hostile shapes."""

from __future__ import annotations

import json
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from documentai_ray.sources import pages
from documentai_ray.stages.extract import (
    _extract_with_htmlparser,
    _fast_main_content,
    html_main_content,
)
from tests.conftest import SF_SMOKE


_fast_only = _fast_main_content  # ONLY the fast path; None if it bailed


class TestEquivalence:
    def test_full_corpus(self):
        t = pages.synth_pages_table(SF_SMOKE, with_dups=True, with_near_dups=True)
        n_fast = 0
        for payload in t.column("html").to_pylist():
            try:
                s = payload.decode("utf-8")
            except UnicodeDecodeError:
                continue
            slow = _extract_with_htmlparser(s)
            assert html_main_content(s) == slow
            if _fast_only(s) is not None:
                n_fast += 1
                assert _fast_only(s) == slow
        assert n_fast > 400  # the fast path must actually serve the corpus

    def test_golden_cases(self):
        path = os.path.join(os.path.dirname(__file__), "golden_html_cases.json")
        for c in json.load(open(path)):
            assert html_main_content(c["html"]) == _extract_with_htmlparser(c["html"]) \
                == c["expected"], c["name"]

    def test_handwritten_tricky_cases(self):
        cases = [
            '<p>quoted attr <a href="x>y">link text here okay</a> continues on</p>',
            "<p>self closing <br/> inside a long enough paragraph here</p>",
            "<SCRIPT>var x = '<p>not content</p>';</SCRIPT><p>Real content after script block here.</p>",
            "<style>p > a {color:red}</style><p>Content following the style block here.</p>",
            "<!-- <p>commented out</p> --><p>Content outside the comment here okay.</p>",
            "<!DOCTYPE html><p>Content after a doctype declaration here.</p>",
            "<p class='a' id=b data-x=\"c\">Attribute soup paragraph long enough here.</p>",
            "<P>UPPERCASE tag paragraph long enough to keep here.</P>",
            "<p>entity test &amp; &lt; &gt; &#65; inside long paragraph</p>",
            "<div/>text after self-closed div long enough here<p>And a paragraph too, long enough.</p>",
            "<script src='x.js'></script><p>After empty script, long enough text.</p>",
            "</p>stray close tag then <p>a normal paragraph long enough here.</p>",
            "<foo-bar>custom element text long enough to keep here</foo-bar>",
            # bare quote inside a tag NOT following '=': html.parser ends
            # the tag at the first '>' (quotes only quote after '='); the
            # fast path must bail here, not treat 'q>z' as a quoted run —
            # the naive any-quote scan silently dropped the "z'>" text
            "&unknown;<a 'q>z'> trailing text long enough to keep here",
            "<p>spaced attr <a b = 'y'>link text long enough here</a></p>",
            "<a b=c'd>mid-value quote long enough paragraph here</a>",
            "<a b=>empty unquoted value long enough text here</a>",
        ]
        for s in cases:
            assert html_main_content(s) == _extract_with_htmlparser(s), s

    def test_html_parser_tag_grammar(self):
        # markup where html.parser's tag grammar, not a quote-aware scan,
        # decides: the fast path must read it the same way or bail
        t = " long enough paragraph text to keep here"
        cases = [
            # a '/' ending an unquoted value does not self-close the tag
            "<nav x=y/>nav text" + t + "<p>para" + t + "</p>",
            "<script src=a.js/><p>hidden" + t + "</p></script><p>after" + t + "</p>",
            # comments close at '--' + whitespace + '>'
            "<!-- comment --\t><p>after" + t + "</p>-->",
            # end tags end at the first '>', quotes or not
            '<p>one <b>bold</b a=">"> two' + t + "</p>",
            # script content ends only at '</script' + whitespace + '>'
            "<script>x</script/>hidden" + t + "</script><p>shown" + t + "</p>",
            # a tag name ending in NUL makes the tag text
            "<p\x00>nul" + t + "</p>",
            # '=' that starts an attribute name opens no quoted value
            "<span ='>'>text" + t + "</span>",
            # '=' runs are one value indicator; a bare value keeps quotes
            "<y/c== x='>'>" + t,
        ]
        for s in cases:
            assert html_main_content(s) == _extract_with_htmlparser(s), repr(s)

    def test_bail_cases_fall_back(self):
        # constructs the fast path refuses — dispatcher must equal html.parser
        cases = [
            "<p>unterminated <!-- comment <p>more text that is long enough</p>",
            "<![CDATA[ raw ]]><p>After a cdata section, long enough text.</p>",
            "<p>bad tag <3 sideways heart in a long enough paragraph</p>",
            "<p>unterminated tag at the end of input here <a href='x",
            "<script>never closed... <p>xx</p>",
        ]
        for s in cases:
            assert _fast_only(s) is None or _fast_only(s) == _extract_with_htmlparser(s)
            assert html_main_content(s) == _extract_with_htmlparser(s), repr(s)

    @given(st.text(alphabet="<>/ab &;#!-='\"p\n\t", max_size=120))
    @settings(max_examples=400, deadline=None)
    def test_fuzz_tag_soup(self, s):
        assert html_main_content(s) == _extract_with_htmlparser(s)

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_arbitrary_text(self, s):
        assert html_main_content(s) == _extract_with_htmlparser(s)


# ---------------------------------------------------------------------------
# generated well-formed pages: the fast path must serve them, not bail
# ---------------------------------------------------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "report", "market", "data",
          "&amp;", "&lt;", "&#65;", "&eacute;", "naïve", "x")
_BLOCKS = ("p", "div", "section", "li", "td", "h2", "blockquote", "P", "DIV")
_INLINE = ("span", "b", "em", "SPAN", "i")
_STRIP = ("nav", "aside", "header", "footer", "NAV")
_ATTRS = ("", ' class="c"', " id=x", " data-x='a>b'", ' href = "/p?a=1&b=2"',
          " hidden", ' title="x"/', " style='a:b' ")


def _text(rng: random.Random) -> str:
    ws = ("", " ", "\n", "  \t")
    return "".join(rng.choice(_WORDS) + rng.choice(ws) for _ in range(rng.randint(1, 12)))


def _node(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth > 4 or r < 0.25:
        return _text(rng)
    if r < 0.35:
        return rng.choice(("<br>", "<br/>", "<BR />", '<img src="i.png" />',
                           "<hr>", "<div/>", "<p />", "<!-- <p>no</p> -->"))
    if r < 0.40:  # an entity split across tags
        return "&am<b></b>p; " + _text(rng)
    if r < 0.47:  # ignored regions, with <br> and '<' inside
        kind = rng.choice(("script", "style", "SCRIPT", "noscript", "template", "svg"))
        if kind.lower() in ("script", "style"):
            body = rng.choice(("if (a < b && c > d) { x = '<p>'; }",
                               "p > a { color: red } /* </div> */", "var s = '<br>';"))
        else:
            body = "<br>" + _text(rng) + "<br/>"
        return f"<{kind}>{body}</{kind}>"
    if r < 0.55:  # nested boilerplate containers
        t = rng.choice(_STRIP)
        return f"<{t}>{_node(rng, depth + 1)}<{rng.choice(_STRIP)}>{_text(rng)}" \
               f"</{rng.choice(_STRIP).lower()}></{t}>"
    if r < 0.63:  # a link spanning block tags
        return f'<a href="/x{rng.randrange(9)}">' + "".join(
            f"<{b}>{_text(rng)}</{b}>" for b in rng.sample(_BLOCKS, 2)) + "</a>"
    tag = rng.choice(_BLOCKS + _INLINE + ("a", "A"))
    inner = "".join(_node(rng, depth + 1) for _ in range(rng.randint(1, 4)))
    return f"<{tag}{rng.choice(_ATTRS)}>{inner}</{tag}>"


def _page(rng: random.Random) -> str:
    body = "".join(_node(rng, 0) for _ in range(rng.randint(2, 8)))
    head = "<head><title>T &amp; t</title><style>b{x:1}</style></head>"
    return f"<!DOCTYPE html><html>{head}<body>{body}</body></html>"


def test_generated_pages_are_served_by_fast_path():
    rng = random.Random(20260)
    n, served = 400, 0
    for _ in range(n):
        s = _page(rng)
        slow = _extract_with_htmlparser(s)
        assert html_main_content(s) == slow, s
        fast = _fast_only(s)
        if fast is not None:
            served += 1
            assert fast == slow, s
    assert served >= 0.95 * n


# ---------------------------------------------------------------------------
# the fast path is linear on hostile shapes
# ---------------------------------------------------------------------------

def _best_of_3(s: str) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _fast_only(s)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("unit", ["<a", "<a ", "<a =", "<"])
def test_fast_path_linear(unit):
    n = 20_000
    small, big = _best_of_3(unit * n), _best_of_3(unit * 4 * n)
    # 1 ms absorbs timer noise where the fast path rejects at the first tag
    assert big <= 5 * small + 1e-3, (unit, small, big)
