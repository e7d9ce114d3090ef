"""MINIPDF — a deterministic binary layout-document format for the PDF path.

The reference's PDF path walks ``page.get_text("dict")`` → ``blocks`` →
``lines`` → ``spans`` with ``bbox [x0,y0,x1,y1]`` (PyMuPDF layout tree;
/root/reference/microservices/entity-extraction-service/app.py:547-593) and
joins pages with ``"\\n"`` (app.py:522-527). PyMuPDF is not available in this
environment, so the engine defines MINIPDF: a self-contained binary encoding
of exactly that page→block→line→span tree. The *walk* (reading-order sort,
span joining, word-box emission) is the real, tested operator; only the
on-disk codec is synthetic.

Layout semantics (the canonical extraction spec for binary payloads):

- blocks of a page are emitted in **reading order**: sorted by
  ``(y0, x0)`` of the block bbox — the rebuild's analog of PyMuPDF's
  document-order iteration (SURVEY.md §2.2 M2);
- spans of a line are sorted by ``x0`` and joined with a single space;
- lines of a block are sorted by ``y0`` and joined with ``"\\n"``;
- blocks are joined with ``"\\n"``; pages are joined with ``"\\n"``
  (one separator per page boundary, reference M1 semantics);
- every span also yields a word box ``{text, page, x0, y0, x1, y1, conf}``
  (entity-extraction-service/app.py:562-579 shape), in reading order.

Wire format: ``b"%MPDF1\\n"`` magic followed by a UTF-8 JSON document
``{"pages": [{"page_num": int, "blocks": [{"bbox": [f,f,f,f],
"lines": [{"bbox": [...], "spans": [{"bbox": [...], "text": str}]}]}]}]}``.
Encoding uses ``sort_keys=True`` + fixed separators → byte-deterministic.

A payload that is not this shape raises ``ValueError`` and nothing else:
bad JSON, a missing key, a wrong container type, a short bbox, a page
number outside int32 (the word-box ``page`` type) or a lone surrogate in
a span text.
"""

from __future__ import annotations

import functools
import json
from typing import Any

MAGIC = b"%MPDF1\n"


def is_minipdf(payload: bytes) -> bool:
    return payload[: len(MAGIC)] == MAGIC


def encode(pages: list[dict[str, Any]]) -> bytes:
    """Serialize a page tree. ``pages`` uses the documented dict shape."""
    doc = {"pages": pages}
    return MAGIC + json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode(payload: bytes) -> list[dict[str, Any]]:
    if not is_minipdf(payload):
        raise ValueError("not a MINIPDF payload")
    doc = json.loads(payload[len(MAGIC):].decode("utf-8"))
    pages = doc.get("pages") if isinstance(doc, dict) else None
    if not isinstance(pages, list):
        raise ValueError("MINIPDF document has no page list")
    return pages


def _tree_faults_as_value_error(fn):
    """A page tree that parsed as JSON but has the wrong structure fails
    inside the walk with KeyError, TypeError, IndexError, AttributeError
    or OverflowError; re-raise those as ValueError, the one error type of
    a malformed payload."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (KeyError, TypeError, IndexError, AttributeError,
                OverflowError) as exc:
            raise ValueError(
                f"malformed MINIPDF page tree: {type(exc).__name__}: {exc}"
            ) from exc

    return wrapper


@_tree_faults_as_value_error
def walk(payload: bytes, bbox_scale: float = 2.0,
         max_pages: int | None = None) -> tuple[str, list[dict[str, Any]]]:
    """Reading-order walk → ``(text, word_boxes)``.

    ``bbox_scale`` mirrors the reference's ×2 coordinate scale for frontend
    overlay (entity-extraction-service/app.py:571-579). ``max_pages``
    truncates the walk — ``max_pages=1`` is the reference's first-page-only
    OCR semantics (extractor/base.py:11-14, SURVEY O3); the page cap
    (≤200 pages, documentClassifier.py:1369) is the same knob."""
    pages = decode(payload)
    page_texts: list[str] = []
    boxes: list[dict[str, Any]] = []
    ordered = sorted(pages, key=lambda p: p["page_num"])
    if max_pages is not None:
        ordered = ordered[:max_pages]
    for page in ordered:
        page_num = int(page["page_num"])
        if not -2**31 <= page_num < 2**31:
            raise ValueError(f"MINIPDF page number out of range: {page_num}")
        block_texts: list[str] = []
        for block in sorted(page["blocks"], key=lambda b: (b["bbox"][1], b["bbox"][0])):
            line_texts: list[str] = []
            for line in sorted(block["lines"], key=lambda l: l["bbox"][1]):
                spans = sorted(line["spans"], key=lambda s: s["bbox"][0])
                line_texts.append(" ".join(s["text"] for s in spans))
                for s in spans:
                    x0, y0, x1, y1 = s["bbox"]
                    boxes.append(
                        {
                            "text": s["text"],
                            "page": page_num,
                            "x0": float(x0) * bbox_scale,
                            "y0": float(y0) * bbox_scale,
                            "x1": float(x1) * bbox_scale,
                            "y1": float(y1) * bbox_scale,
                            "conf": 1.0,
                        }
                    )
            block_texts.append("\n".join(line_texts))
        page_texts.append("\n".join(block_texts))
    text = "\n".join(page_texts)
    # every box text is a substring of the walk text: one encode rejects a
    # lone surrogate (a "\\ud800" escape), which Arrow strings cannot hold
    text.encode("utf-8")
    return text, boxes


@_tree_faults_as_value_error
def page_lines(page: dict[str, Any]) -> list[str]:
    """Reading-order text LINES of one page dict — the per-page slice of
    ``walk()``'s ordering (blocks by (y0, x0), lines by y0, spans by x0,
    spans joined with a single space). Used by the M16 selective
    reprocessor to re-emit an untouched page as text."""
    out: list[str] = []
    for block in sorted(page["blocks"], key=lambda b: (b["bbox"][1], b["bbox"][0])):
        for line in sorted(block["lines"], key=lambda l: l["bbox"][1]):
            spans = sorted(line["spans"], key=lambda s: s["bbox"][0])
            out.append(" ".join(s["text"] for s in spans))
    return out


def build_from_text(
    text: str,
    *,
    words_per_line: int = 8,
    lines_per_block: int = 3,
    blocks_per_page: int = 4,
    shuffle_key: int = 0,
) -> tuple[bytes, str]:
    """Deterministically lay ``text`` out as a MINIPDF and return
    ``(payload, expected_walk_text)``.

    Blocks are stored **out of reading order** (rotated by ``shuffle_key``)
    so that ``walk()`` only reproduces ``expected_walk_text`` if its
    reading-order sort is correct — this is what the golden tests pin.
    """
    words = text.split()
    lines = [" ".join(words[i : i + words_per_line]) for i in range(0, len(words), words_per_line)]
    return build_from_lines(lines, lines_per_block=lines_per_block,
                            blocks_per_page=blocks_per_page,
                            shuffle_key=shuffle_key)


def build_from_lines(
    lines: list[str],
    *,
    lines_per_block: int = 3,
    blocks_per_page: int = 4,
    shuffle_key: int = 0,
) -> tuple[bytes, str]:
    """Like ``build_from_text`` but one input line per layout line — the
    input's line structure survives the walk (needed when downstream
    MULTILINE regex extractors depend on line boundaries, e.g. the PO
    extractor over word-box documents).

    Geometry (the word-box oracle's closed form): block ``b`` starts at
    ``y = 50 + 100·b`` (page-local), line ``li`` within it at ``+12·li``,
    spans start at ``x = 36`` and each word advances ``6·len(word) + 4``;
    span height 10. ``walk()`` scales all coordinates ×2.
    """
    or_blocks: list[list[str]] = [
        lines[i : i + lines_per_block] for i in range(0, len(lines), lines_per_block)
    ]
    pages: list[dict[str, Any]] = []
    expected_pages: list[str] = []
    for pi in range(0, len(or_blocks), blocks_per_page):
        page_blocks = or_blocks[pi : pi + blocks_per_page]
        blocks_json = []
        for bi, blines in enumerate(page_blocks):
            y_base = 50.0 + 100.0 * bi
            lines_json = []
            for li, ltext in enumerate(blines):
                y = y_base + 12.0 * li
                spans = []
                x = 36.0
                for w in ltext.split(" "):
                    spans.append({"bbox": [x, y, x + 6.0 * len(w), y + 10.0], "text": w})
                    x += 6.0 * len(w) + 4.0
                lines_json.append({"bbox": [36.0, y, x, y + 10.0], "spans": spans})
            blocks_json.append({"bbox": [36.0, y_base, 560.0, y_base + 12.0 * len(blines)], "lines": lines_json})
        # rotate stored order so decode order != reading order
        rot = (shuffle_key + pi) % max(1, len(blocks_json))
        stored = blocks_json[rot:] + blocks_json[:rot]
        pages.append({"page_num": pi // blocks_per_page + 1, "blocks": stored})
        expected_pages.append("\n".join("\n".join(b) for b in page_blocks))
    if not pages:  # empty text → one empty page
        pages = [{"page_num": 1, "blocks": []}]
        expected_pages = [""]
    return encode(pages), "\n".join(expected_pages)
