"""Extraction operator tests — the byte-identity gate (BASELINE.md).

Handwritten fixtures pin the canonical extraction spec; the synthesized
corpus pins byte-identical extracted text per url end-to-end.
"""

from __future__ import annotations

import pytest

from documentai_ray.functions import minipdf
from documentai_ray.sources import pages
from documentai_ray.stages.extract import (
    extract_batch,
    extract_one,
    html_main_content,
)
from tests.conftest import SF_SMOKE


class TestHtmlMainContent:
    def test_single_paragraph(self):
        html = "<html><body><p>This paragraph is long enough to keep around.</p></body></html>"
        assert html_main_content(html) == "This paragraph is long enough to keep around."

    def test_boilerplate_containers_stripped(self):
        html = (
            "<html><body><nav><a href='/'>Home page link text is long</a></nav>"
            "<header><h1>A headline that is quite long indeed</h1></header>"
            "<p>Main content paragraph that should definitely survive.</p>"
            "<footer>Footer legalese that is also quite long here.</footer></body></html>"
        )
        assert html_main_content(html) == "Main content paragraph that should definitely survive."

    def test_link_density_strips_nav_blocks(self):
        html = (
            "<html><body><div><a href='/a'>one long link text here</a> "
            "<a href='/b'>another long link text here</a></div>"
            "<p>Real content sentence with no links at all in it.</p></body></html>"
        )
        assert html_main_content(html) == "Real content sentence with no links at all in it."

    def test_short_blocks_dropped(self):
        html = "<html><body><p>too short</p><p>This one is long enough to be kept.</p></body></html>"
        assert html_main_content(html) == "This one is long enough to be kept."

    def test_multiple_blocks_joined_with_newline(self):
        html = (
            "<html><body><p>First content paragraph long enough.</p>"
            "<p>Second content paragraph long enough.</p></body></html>"
        )
        assert html_main_content(html) == (
            "First content paragraph long enough.\nSecond content paragraph long enough."
        )

    def test_whitespace_collapse(self):
        html = "<html><body><p>Spaced   out\n\ttext   that is long enough here.</p></body></html>"
        assert html_main_content(html) == "Spaced out text that is long enough here."

    def test_script_style_ignored(self):
        html = (
            "<html><head><style>p {color: red; margin: 1em}</style></head><body>"
            "<script>var x = 'this string is long enough to matter';</script>"
            "<p>Visible paragraph content long enough to keep.</p></body></html>"
        )
        assert html_main_content(html) == "Visible paragraph content long enough to keep."

    def test_moderate_link_density_kept(self):
        # one short link inside a long paragraph stays below the 0.30 cutoff
        html = (
            "<html><body><p>A long paragraph of body text that happens to "
            "mention <a href='/x'>a link</a> somewhere inside it.</p></body></html>"
        )
        out = html_main_content(html)
        assert out.startswith("A long paragraph")
        assert "a link" in out

    def test_empty_and_blank(self):
        assert html_main_content("") == ""
        assert html_main_content("<html><body><div>&nbsp;</div></body></html>") == ""


class TestMiniPdf:
    def test_roundtrip_reading_order(self):
        text = " ".join(f"word{i}" for i in range(100))
        payload, expected = minipdf.build_from_text(text, shuffle_key=3)
        got, boxes = minipdf.walk(payload)
        assert got == expected
        # every word becomes a box, reading order preserved
        assert [b["text"] for b in boxes] == text.split()
        assert all(b["conf"] == 1.0 for b in boxes)

    def test_bbox_scale(self):
        payload, _ = minipdf.build_from_text("alpha beta gamma delta")
        _, boxes = minipdf.walk(payload, bbox_scale=2.0)
        assert boxes[0]["x0"] == 72.0  # 36.0 * 2

    def test_empty_text(self):
        payload, expected = minipdf.build_from_text("")
        got, boxes = minipdf.walk(payload)
        assert got == expected == ""
        assert boxes == []

    def test_not_minipdf_raises(self):
        with pytest.raises(ValueError):
            minipdf.decode(b"<html></html>")


class TestExtractOne:
    def test_html_payload(self):
        t, kind, err, boxes = extract_one(
            b"<html><body><p>Hello world content long enough here.</p></body></html>"
        )
        assert (t, kind, err, boxes) == ("Hello world content long enough here.", "html", "", [])

    def test_pdf_payload(self):
        payload, expected = minipdf.build_from_text("one two three four five six")
        t, kind, err, boxes = extract_one(payload)
        assert t == expected and kind == "pdf" and err == "" and len(boxes) == 6

    def test_malformed_payload_is_error_row(self):
        t, kind, err, _ = extract_one(b"\xff\xfe\x00garbage")
        assert t == "" and kind == "error" and "UnicodeDecodeError" in err


class TestMarkedSections:
    """A ``<![`` html.parser cannot read as a marked section is a bogus
    comment up to the next ``>`` (HTML5), not an error row for the page."""

    HEAD = "<p>Opening paragraph long enough to be kept as content.</p>"
    TAIL = "<p>Closing paragraph that is also long enough to keep.</p>"
    BOTH = ("Opening paragraph long enough to be kept as content.\n"
            "Closing paragraph that is also long enough to keep.")

    @pytest.mark.parametrize("section", ["<![]>", "<![]", "<![ x>", "<![foo bar]>"])
    def test_unparsable_section_is_skipped(self, section):
        html = self.HEAD + section + self.TAIL
        assert html_main_content(html) == self.BOTH
        t, kind, err, _ = extract_one(html.encode())
        assert (t, kind, err) == (self.BOTH, "html", "")

    def test_unterminated_at_end_of_input(self):
        html = self.HEAD + "<!["
        first = self.BOTH.split("\n")[0]
        assert html_main_content(html) == first
        t, kind, err, _ = extract_one(html.encode())
        assert (t, kind, err) == (first, "html", "")

    def test_cdata_section_unchanged(self):
        html = self.HEAD + "<![CDATA[hidden <b>markup</b>]]>" + self.TAIL
        assert html_main_content(html) == self.BOTH
        t, kind, err, _ = extract_one(html.encode())
        assert (t, kind, err) == (self.BOTH, "html", "")


class TestCorpusByteIdentity:
    """The correctness gate: byte-identical extracted text per url."""

    def _check(self, table):
        import pyarrow as pa

        out = extract_batch(table)
        got = out.column("text").to_pylist()
        exp = table.column("text").to_pylist()
        urls = table.column("url").to_pylist()
        for u, g, e in zip(urls, got, exp):
            assert g == e, f"extraction mismatch for {u}"
        assert isinstance(out, pa.Table)
        assert "html" not in out.column_names  # payload projected away

    def test_html_corpus(self):
        self._check(pages.synth_pages_table(SF_SMOKE, with_dups=False))

    def test_pdf_corpus(self):
        self._check(pages.synth_pages_table(SF_SMOKE, with_dups=False, pdf_mode=True))

    def test_malformed_rows_flagged_not_fatal(self):
        t = pages.synth_pages_table(SF_SMOKE, with_dups=False)
        out = extract_batch(t)
        kinds = out.column("payload_kind").to_pylist()
        urls = out.column("url").to_pylist()
        errors = {u for u, k in zip(urls, kinds) if k == "error"}
        expected_err = {
            u for u in urls
            if pages.is_malformed(int(u.rsplit("/", 1)[1]))
        }
        assert errors == expected_err and len(errors) > 0


class TestGoldenHtmlCorpus:
    """Handwritten golden corpus pinning the canonical extraction spec
    (tests/golden_html_cases.json) — byte-for-byte expected output."""

    def test_all_golden_cases(self):
        import json
        import os

        path = os.path.join(os.path.dirname(__file__), "golden_html_cases.json")
        with open(path) as f:
            cases = json.load(f)
        assert len(cases) >= 15
        failures = []
        for c in cases:
            got = html_main_content(c["html"])
            if got != c["expected"]:
                failures.append((c["name"], got, c["expected"]))
        assert not failures, failures


class TestPageCaps:
    def test_first_page_only_and_page_cap(self):
        text = " ".join(f"w{i}" for i in range(300))  # several pages
        payload, full = minipdf.build_from_text(text)
        all_text, all_boxes = minipdf.walk(payload)
        assert all_text == full
        first_text, first_boxes = minipdf.walk(payload, max_pages=1)
        assert full.startswith(first_text) and len(first_text) < len(full)
        assert all(b["page"] == 1 for b in first_boxes)
        assert len(first_boxes) < len(all_boxes)
