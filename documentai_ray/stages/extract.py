"""Main-content extraction — the byte-identity-critical operator (SURVEY §2.2 M1/M2).

Two payload paths behind one ``map_batches`` UDF, dispatched per row on the
payload bytes:

- **HTML** → DOM-heuristic main-content extraction: the document is segmented
  into text blocks at block-level element boundaries; each block carries its
  text length and link-text length; boilerplate is stripped with a
  trafilatura/readability-style rule (semantic containers ``nav/header/
  footer/aside`` dropped; short blocks dropped; high link-density blocks
  dropped). This plays the role of the reference's native text extraction
  ``page.get_text()`` joined with ``"\\n"``
  (/root/reference/microservices/entity-extraction-service/app.py:515-533).
  A single-pass fast path (``_fast_main_content``) takes one compiled
  regex step per text run plus tag and keeps the block state in local
  variables, in linear time; html.parser driving ``_BlockParser`` is the
  spec, and it runs instead whenever the fast path bails on markup whose
  reading needs its recovery rules.
- **MINIPDF binary** → page→block→line→span walk with reading-order sort
  (reference layout walk, app.py:547-593), emitting word boxes.

Canonical serialization (the spec that makes byte-identical output possible,
SURVEY §7.5 risk 1): content blocks joined with ``"\\n"``; block text is
whitespace-collapsed; no other normalization. Scores may be float-tolerant;
text may not — this module contains no floating-point math on the text path.

Row-level failure semantics: any per-row exception (bad UTF-8, truncated
payload, codec error) becomes an error record (``text=""``,
``error=<reason>``) and the job continues — mirroring the reference's
convert-exception-to-error-row behavior (documentClassifier.py:888-896).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape as _unescape
from html.parser import HTMLParser
from typing import Any

import pyarrow as pa

from documentai_ray.functions import minipdf, pdfread
from documentai_ray.functions.text import collapse_ws
from documentai_ray.sources import office

# ---------------------------------------------------------------------------
# HTML block segmentation
# ---------------------------------------------------------------------------

BLOCK_TAGS = {
    "p", "div", "section", "article", "main", "h1", "h2", "h3", "h4", "h5",
    "h6", "li", "ul", "ol", "table", "tr", "td", "th", "blockquote", "pre",
    "nav", "header", "footer", "aside", "body", "form", "figure", "figcaption",
}
IGNORE_TAGS = {"script", "style", "noscript", "template", "head", "title", "svg"}
STRIP_TAGS = {"nav", "header", "footer", "aside"}
VOID_TAGS = {"br", "hr", "img", "meta", "link", "input"}

MIN_BLOCK_CHARS = 25        # blocks shorter than this are boilerplate/headline noise
MAX_LINK_DENSITY = 0.30     # blocks with more link text than this are navigation


@dataclass
class _Block:
    parts: list[str] = field(default_factory=list)
    link_parts: list[str] = field(default_factory=list)


def _block_text(parts: list[str], link_parts: list[str]) -> str | None:
    """A block's whitespace-collapsed text, or None if it is boilerplate
    (too short, or too much of it is link text)."""
    t = collapse_ws("".join(parts))
    if len(t) < MIN_BLOCK_CHARS:
        return None
    if len(collapse_ws("".join(link_parts))) / max(1, len(t)) > MAX_LINK_DENSITY:
        return None
    return t


class MarkupParser(HTMLParser):
    """``HTMLParser`` that reads a ``<![`` it cannot parse as a marked
    section (``<![]>``, ``<![ x>``, ``<![foo]>``) as a bogus comment up to
    the next ``>``, the HTML5 tokenizer's rule. The stdlib raises
    ``AssertionError`` there, which would turn the whole row into an error
    row. ``<![CDATA[…]]>`` and the other marked sections it can parse are
    read as before."""

    def parse_marked_section(self, i: int, report: int = 1) -> int:
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)


class _BlockParser(MarkupParser):
    """Flat block segmentation with ancestor tracking (single pass)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = []
        self._cur = _Block()
        self._ignore_depth = 0
        self._strip_depth = 0
        self._link_depth = 0

    # -- tag events ---------------------------------------------------------
    def _flush(self) -> None:
        if self._cur.parts:
            self.blocks.append(self._cur)
            self._cur = _Block()

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in VOID_TAGS:
            if tag == "br":
                self._cur.parts.append(" ")
            return
        if tag in IGNORE_TAGS:
            self._ignore_depth += 1
            return
        if tag in STRIP_TAGS:
            self._strip_depth += 1
        if tag == "a":
            self._link_depth += 1
        if tag in BLOCK_TAGS:
            self._flush()

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        if tag in IGNORE_TAGS:
            self._ignore_depth = max(0, self._ignore_depth - 1)
            return
        if tag in BLOCK_TAGS:
            self._flush()
        if tag in STRIP_TAGS:
            self._strip_depth = max(0, self._strip_depth - 1)
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)

    # -- text events --------------------------------------------------------
    def handle_data(self, data: str) -> None:
        if self._ignore_depth or self._strip_depth or not data:
            return
        self._cur.parts.append(data)
        if self._link_depth:
            self._cur.link_parts.append(data)

    def close(self) -> None:  # flush trailing text
        super().close()
        self._flush()


def _extract_with_htmlparser(html_text: str) -> str:
    """The spec: html.parser drives ``_BlockParser``."""
    parser = _BlockParser()
    parser.feed(html_text)
    parser.close()
    blocks = (_block_text(b.parts, b.link_parts) for b in parser.blocks)
    return "\n".join(t for t in blocks if t is not None)


# Per-tag action codes for the fast path: the handler semantics of
# ``_BlockParser`` as bits. Void tags other than ``br`` (and every tag in
# no set) have no action, so they are absent.
_BR, _IGNORE, _RAWTEXT, _STRIP, _LINK, _BLOCK = 1, 2, 4, 8, 16, 32
_TAG_ACTIONS: dict[str, int] = {
    t: ((_IGNORE if t in IGNORE_TAGS else 0)
        | (_RAWTEXT if t in ("script", "style") else 0)  # CDATA content
        | (_STRIP if t in STRIP_TAGS else 0)
        | (_LINK if t == "a" else 0)
        | (_BLOCK if t in BLOCK_TAGS else 0))
    for t in IGNORE_TAGS | STRIP_TAGS | BLOCK_TAGS | {"a"}
}
_TAG_ACTIONS["br"] = _BR

_COMMENT_CLOSE = re.compile(r"--\s*>")  # html.parser's comment close
# html.parser's CDATA-mode close tag (``</\s*script\s*>``, any ASCII
# case); re.IGNORECASE would also take ``</ſcript>``, which html.parser
# then reads as text
_RAWTEXT_CLOSE = {
    t: re.compile(r"</\s*" + "".join(f"[{c}{c.upper()}]" for c in t) + r"\s*>")
    for t in ("script", "style")}

# One step of the fast path: the text run up to the next '<', then the
# whole tag if it is one whose extent, name and self-closing flag
# html.parser reads the same way (pinned by tests/test_extract_fast.py):
# - an end tag ``</name`` with a name html.parser's ``endtagfind`` and
#   ``tagfind_tolerant`` agree on, ending at the first '>' (quotes do not
#   quote in end tags);
# - a start tag: name, then attributes after whitespace or '/' (``b``,
#   ``b=v``, ``b="v"``, ``b='v'``), then an optional '/' and '>'. A quote
#   only opens a value right after the ``=`` run; a bare value runs to
#   whitespace or '>' and takes a final '/' with it (``<a href=/x/>`` is
#   not self-closing, as in html.parser).
# Anything else (a quote elsewhere, an unterminated tag or value, a name
# ending in NUL) fails the tag part, and the fast path bails. Every
# quantifier is possessive, so a failing tag costs one linear scan.
_ATTR = (r"[^\s/>=\"'][^\s/>=\"']*+"
         r"(?:\s*+=++\s*+(?:\"[^\"]*+\"|'[^']*+'|[^\s>\"']*+))?+")
_SEP = r"(?:\s|/(?!>))"
_STEP_RE = re.compile(
    r"([^<]*+)<(?:"
    r"/([a-zA-Z][-.a-zA-Z0-9:_]*+)(?:[\t\n\r\f /\x00][^>]*+)?+>"
    rf"|([a-zA-Z][^\t\n\r\f />\x00]*+)(?:{_SEP}++{_ATTR})*+{_SEP}*+(/?)>"
    r")?")


def _fast_main_content(html_text: str) -> str | None:
    """Main content of well-formed HTML in one pass, or None to bail.

    One ``_STEP_RE`` match per text run plus tag; the block state of
    ``_BlockParser`` lives in local variables and each tag's effect comes
    from ``_TAG_ACTIONS``. Mirrors html.parser on well-formed markup:
    lowercased tag names, comment/doctype/PI skipping, CDATA-mode
    script/style content, HTML5 charref unescaping of each text run.
    Anything else (CDATA sections, malformed or unterminated tags and
    comments, a '<' that opens no tag) returns None, and the caller runs
    html.parser, the spec. Linear time: every step either advances past
    what it scanned or bails."""
    s = html_text
    out: list[str] = []
    parts: list[str] = []
    links: list[str] = []
    ignore = strip = link = 0

    def flush() -> None:
        t = _block_text(parts, links)
        if t is not None:
            out.append(t)
        parts.clear()
        links.clear()

    step = _STEP_RE.match
    actions = _TAG_ACTIONS.get
    pos = 0
    while True:
        m = step(s, pos)
        if m is None:
            data = s[pos:]
        else:
            data, end_name, name, slash = m.groups()
            pos = m.end()
        if data and not ignore and not strip:
            if "&" in data:
                data = _unescape(data)
            if data:
                parts.append(data)
                if link:
                    links.append(data)
        if m is None:
            break
        if end_name is not None:
            act = actions(end_name.lower(), 0)
            if act & _IGNORE:
                if ignore:
                    ignore -= 1
                continue
            if act & _BLOCK and parts:
                flush()
            if act & _STRIP and strip:
                strip -= 1
            if act & _LINK and link:
                link -= 1
            continue
        if name is None:  # a '<' that opens no well-formed tag
            c1 = s[pos:pos + 1]
            if c1 == "!":
                if s.startswith("!--", pos):
                    mm = _COMMENT_CLOSE.search(s, pos + 3)
                    if mm is None:
                        return None  # unterminated comment
                    pos = mm.end()
                    continue
                if s.startswith("![", pos):
                    return None  # marked section, CDATA
            elif c1 != "?":
                return None  # invalid or unterminated tag
            end = s.find(">", pos + 1)
            if end == -1:
                return None  # unterminated declaration
            pos = end + 1
            continue
        act = actions(name.lower(), 0)
        if act & _BR:
            parts.append(" ")
        elif slash:
            # self-closing: a start then an end tag, so only a block
            # boundary is left (every depth goes up and back down)
            if act & _BLOCK and parts:
                flush()
        elif act & _RAWTEXT:
            # CDATA content mode up to the close tag; the start and end
            # tags leave the ignore depth where it was
            mm = _RAWTEXT_CLOSE[name.lower()].search(s, pos)
            if mm is None:
                return None  # unterminated rawtext element
            pos = mm.end()
        elif act & _IGNORE:
            ignore += 1
        elif act:
            if act & _STRIP:
                strip += 1
            if act & _LINK:
                link += 1
            if act & _BLOCK and parts:
                flush()
    if parts:
        flush()
    return "\n".join(out)


def html_main_content(html_text: str) -> str:
    """Extract main content from an HTML string per the canonical spec.

    The single-pass fast path serves well-formed markup; whenever the
    markup needs html.parser's recovery semantics, html.parser (the spec,
    ``_extract_with_htmlparser``) runs instead. Output is identical either
    way (pinned by tests/test_extract_fast.py over the corpus, the golden
    cases, generated pages and hypothesis fuzz)."""
    out = _fast_main_content(html_text)
    if out is None:
        return _extract_with_htmlparser(html_text)
    return out


# ---------------------------------------------------------------------------
# batch UDF
# ---------------------------------------------------------------------------

WORD_BOX_TYPE = pa.list_(
    pa.struct(
        [
            ("text", pa.string()),
            ("page", pa.int32()),
            ("x0", pa.float32()),
            ("y0", pa.float32()),
            ("x1", pa.float32()),
            ("y1", pa.float32()),
            ("conf", pa.float32()),
        ]
    )
)


# reference input caps: 50 MB/file (documentClassifier.py:1314)
MAX_PAYLOAD_BYTES = 50 * 1024 * 1024


def detect_page_type(word_count: int, image_count: int = 0,
                     text_density: float = 0.0) -> str:
    """Fast text-vs-image page detection (M5, documentClassifier.py:219-256):
    >15 words → text; images present and <8 words → image; else by
    text-density threshold 0.08."""
    if word_count > 15:
        return "text"
    if image_count > 0 and word_count < 8:
        return "image"
    return "text" if text_density > 0.08 else "image"


_META_CHARSET_RE = re.compile(
    rb'<meta[^>]+charset\s*=\s*["\']?([A-Za-z0-9_\-]+)', re.I)


def sniff_decode(payload: bytes,
                 declared: str | None = None) -> tuple[str, str]:
    """Charset-sniffing decode — real Common-Crawl payloads are NOT all
    UTF-8 (~5-10% of the crawl is legacy-encoded). Detection order mirrors
    the WHATWG encoding sniff: BOM (UTF-8/UTF-16) → strict UTF-8 →
    ``<meta charset=…>`` / http-equiv in the first 2 KB → cp1252 fallback
    (the browser default for undeclared legacy bytes) with latin-1 as the
    never-fails last resort. Returns ``(text, encoding_label)``.

    Opt-in via ``extract_batch(charset_sniff=True)``; the default path
    stays strict-UTF-8 (bad bytes → error row) so the byte-identity
    contract over known-UTF-8 corpora keeps its hard failure signal."""
    if payload.startswith(b"\xef\xbb\xbf"):
        return payload[3:].decode("utf-8", errors="replace"), "utf-8-sig"
    if payload.startswith((b"\xff\xfe", b"\xfe\xff")):
        try:
            return payload.decode("utf-16"), "utf-16"
        except UnicodeDecodeError:
            return payload.decode("utf-16", errors="replace"), "utf-16"
    if declared:
        # transport-layer charset (HTTP Content-Type) outranks content
        # sniffing in the WHATWG order; BOM above still wins
        name = declared.strip().lower()
        if name not in ("utf-8", "utf8"):
            try:
                return payload.decode(name), name
            except (LookupError, UnicodeDecodeError):
                pass  # bad/unknown label → fall through to sniffing
    try:
        return payload.decode("utf-8"), "utf-8"
    except UnicodeDecodeError:
        pass
    m = _META_CHARSET_RE.search(payload[:2048])
    if m:
        name = m.group(1).decode("ascii", "ignore").lower()
        if name not in ("utf-8", "utf8"):  # utf-8 already failed strict
            try:
                return payload.decode(name), name
            except (LookupError, UnicodeDecodeError):
                pass
    try:
        return payload.decode("cp1252"), "cp1252"
    except UnicodeDecodeError:
        return payload.decode("latin-1"), "latin-1"


def extract_one(
    payload: bytes, *, max_bytes: int = MAX_PAYLOAD_BYTES,
    charset_sniff: bool = False, declared_charset: str | None = None,
) -> tuple[str, str, str, list[dict[str, Any]]]:
    """→ (text, payload_kind, error, word_boxes) for a single payload.

    Dispatch by payload magic: MINIPDF → layout walk; ``%PDF-`` → real-PDF
    content-stream parse (functions/pdfread.py — the reference's
    ``fitz.open`` + ``get_text()`` path, entity-extraction-service/
    app.py:515-533); PK-zip → DOCX/XLSX parse (S4/S5); else UTF-8 HTML →
    main-content extraction (or charset-sniffing decode when
    ``charset_sniff``). Oversized payloads become error rows (the
    reference's hard input cap, O2)."""
    try:
        if len(payload) > max_bytes:
            raise ValueError(f"PayloadTooLarge: {len(payload)} > {max_bytes}")
        if minipdf.is_minipdf(payload):
            text, boxes = minipdf.walk(payload)
            return text, "pdf", "", boxes
        if pdfread.is_pdf(payload):
            text, boxes = pdfread.extract_text(payload)
            return text, "pdf", "", boxes
        kind = office.office_kind(payload)
        if kind == "docx":
            return office.read_docx_text(payload), "docx", "", []
        if kind == "xlsx":
            return office.read_xlsx_text(payload), "xlsx", "", []
        if charset_sniff or declared_charset:
            html_text, _enc = sniff_decode(payload, declared_charset)
        else:
            html_text = payload.decode("utf-8")  # strict: bad bytes → error row
        return html_main_content(html_text), "html", "", []
    except Exception as exc:  # row-level degradation, never fail the block
        return "", "error", f"{type(exc).__name__}: {exc}"[:200], []


_META_TAG_RE = re.compile(rb"<meta\b[^>]*>", re.I)
_ATTR_BYTES_RE = re.compile(
    rb"([a-zA-Z\-]+)\s*=\s*(\"([^\"]*)\"|'([^']*)'|([^\s>]+))")


def robots_directives(payload: bytes) -> set[str]:
    """Directives from ``<meta name="robots" content="…">`` in the first
    4 KB (attribute order-insensitive, comma-separated, case-folded) —
    no full decode needed, the scan runs on raw bytes. Returns e.g.
    ``{"noindex", "nofollow"}``; empty set when no robots meta."""
    out: set[str] = set()
    for m in _META_TAG_RE.finditer(payload[:4096]):
        attrs: dict[bytes, bytes] = {}
        for a in _ATTR_BYTES_RE.finditer(m.group(0)):
            attrs[a.group(1).lower()] = (a.group(3) or a.group(4)
                                         or a.group(5) or b"")
        if attrs.get(b"name", b"").strip().lower() == b"robots":
            for tok in attrs.get(b"content", b"").split(b","):
                t = tok.strip().lower().decode("ascii", "ignore")
                if t:
                    out.add(t)
    return out


def robots_filter_batch(batch: pa.Table,
                        drop: tuple = ("noindex", "none")) -> pa.Table:
    """Crawl-compliance filter: drop rows whose robots meta carries any
    of ``drop`` (``none`` ≡ ``noindex,nofollow`` per the robots spec).
    Byte-level scan over the payload column — runs BEFORE extraction so
    dropped pages never pay the parse."""
    payloads = batch.column("html").to_pylist()
    mask = [not (robots_directives(p) & set(drop)) for p in payloads]
    return batch.filter(pa.array(mask))


_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title>", re.I | re.S)


def page_meta_batch(batch: pa.Table, *,
                    charset_sniff: bool = False) -> pa.Table:
    """Page-metadata extraction (trafilatura-style): the FIRST
    ``<title>`` text per page, whitespace-collapsed. Undecodable and
    non-HTML payloads emit no row. Extend here for author/date meta."""
    urls = batch.column("url").to_pylist()
    payloads = batch.column("html").to_pylist()
    out_u: list[str] = []
    out_t: list[str] = []
    for u, p in zip(urls, payloads):
        if minipdf.is_minipdf(p) or pdfread.is_pdf(p) or office.office_kind(p):
            continue
        try:
            if charset_sniff:
                html_text, _ = sniff_decode(p)
            else:
                html_text = p.decode("utf-8")
        except UnicodeDecodeError:
            continue
        m = _TITLE_RE.search(html_text)
        out_u.append(u)
        out_t.append(collapse_ws(m.group(1)) if m else "")
    return pa.table({"url": pa.array(out_u, pa.string()),
                     "title": pa.array(out_t, pa.string())})


_HREF_RE = re.compile(
    r"<a\s[^>]*?href\s*=\s*(\"([^\"]*)\"|'([^']*)'|([^\s>]+))", re.I)


def extract_outlinks(base_url: str, html_text: str) -> list[str]:
    """Resolved absolute outlink URLs from ``<a href>`` tags: urljoin
    against the page url (relative paths, ``../``, protocol-relative
    ``//host/…`` all resolve), keep http(s) only — ``mailto:``,
    ``javascript:`` and fragment-only hrefs drop. The edge list feeds the
    host link graph (link analysis / crawl-frontier expansion)."""
    from urllib.parse import urljoin

    out: list[str] = []
    for m in _HREF_RE.finditer(html_text):
        href = (m.group(2) or m.group(3) or m.group(4) or "").strip()
        if not href or href.startswith("#"):
            continue
        u = urljoin(base_url, href)
        if u.startswith(("http://", "https://")):
            out.append(u)
    return out


_ANCHOR_RE = re.compile(
    r"<a\s[^>]*?href\s*=\s*(\"([^\"]*)\"|'([^']*)'|([^\s>]+))[^>]*>(.*?)</a>",
    re.I | re.S)
_TAG_STRIP_RE = re.compile(r"<[^>]+>")


def extract_anchor_edges(base_url: str, html_text: str) -> list:
    """(resolved_link, anchor_text) pairs from ``<a href>…</a>`` — the
    outlink walk plus the inner text (tags stripped, whitespace
    collapsed), i.e. the raw stream behind the classic anchor-text index
    search engines aggregate per target URL. Same keep/drop rules as
    :func:`extract_outlinks` (urljoin resolution, http(s) only)."""
    from urllib.parse import urljoin

    out: list = []
    for m in _ANCHOR_RE.finditer(html_text):
        href = (m.group(2) or m.group(3) or m.group(4) or "").strip()
        if not href or href.startswith("#"):
            continue
        u = urljoin(base_url, href)
        if not u.startswith(("http://", "https://")):
            continue
        anchor = collapse_ws(_TAG_STRIP_RE.sub(" ", m.group(5)))
        out.append((u, anchor))
    return out


def anchor_edges_batch(batch: pa.Table) -> pa.Table:
    """Flat-map: one row per (page, link, anchor) edge. Same payload
    gating as :func:`outlinks_batch` (non-HTML and undecodable pages
    emit nothing)."""
    urls = batch.column("url").to_pylist()
    payloads = batch.column("html").to_pylist()
    out_u: list[str] = []
    out_l: list[str] = []
    out_a: list[str] = []
    for u, p in zip(urls, payloads):
        if minipdf.is_minipdf(p) or pdfread.is_pdf(p) or office.office_kind(p):
            continue
        try:
            html_text = p.decode("utf-8")
        except UnicodeDecodeError:
            continue
        for link, anchor in extract_anchor_edges(u, html_text):
            out_u.append(u)
            out_l.append(link)
            out_a.append(anchor)
    return pa.table({
        "url": pa.array(out_u, pa.string()),
        "link": pa.array(out_l, pa.string()),
        "anchor": pa.array(out_a, pa.string()),
    })


def outlinks_batch(batch: pa.Table, *, charset_sniff: bool = False) -> pa.Table:
    """Flat-map: one output row per (page, outlink) edge —
    ``(url, link, dst_host)``. Non-HTML payloads (PDF/office) and
    undecodable pages emit no edges; pages with zero links emit no rows
    (the downstream per-page/per-host aggregation defines their absence)."""
    urls = batch.column("url").to_pylist()
    payloads = batch.column("html").to_pylist()
    out_u: list[str] = []
    out_l: list[str] = []
    out_h: list[str] = []
    for u, p in zip(urls, payloads):
        if minipdf.is_minipdf(p) or pdfread.is_pdf(p) or office.office_kind(p):
            continue
        try:
            if charset_sniff:
                html_text, _ = sniff_decode(p)
            else:
                html_text = p.decode("utf-8")
        except UnicodeDecodeError:
            continue
        for link in extract_outlinks(u, html_text):
            out_u.append(u)
            out_l.append(link)
            out_h.append(link.split("/")[2] if "//" in link[:8] else "")
    return pa.table({
        "url": pa.array(out_u, pa.string()),
        "link": pa.array(out_l, pa.string()),
        "dst_host": pa.array(out_h, pa.string()),
    })


def extract_batch(batch: pa.Table, *, keep_payload: bool = False,
                  charset_sniff: bool = False) -> pa.Table:
    """Arrow-in/Arrow-out extraction over one batch.

    The HTML parse is inherently per-document (a Python loop over the batch),
    but everything around it is Arrow: zero-copy input, columnar output, and
    the payload column is projected away on output (SURVEY §7.5 risk 3 —
    avoid write amplification of multi-MB binary rows).
    """
    payloads = batch.column("html").to_pylist()
    # transport-layer charset labels (e.g. from the WARC HTTP envelope)
    # ride an optional per-row column and outrank content sniffing
    charsets = (batch.column("http_charset").to_pylist()
                if "http_charset" in batch.column_names
                else [None] * len(payloads))
    texts: list[str] = []
    kinds: list[str] = []
    errors: list[str] = []
    boxes: list[list[dict[str, Any]]] = []
    for p, cs in zip(payloads, charsets):
        t, k, e, b = extract_one(p, charset_sniff=charset_sniff,
                                 declared_charset=cs or None)
        texts.append(t)
        kinds.append(k)
        errors.append(e)
        boxes.append(b)
    cols: dict[str, pa.Array] = {}
    for name in batch.column_names:
        if name in ("html", "http_charset") and not keep_payload:
            continue
        if name == "text":  # input golden column, replaced by extracted text
            continue
        cols[name] = batch.column(name)
    cols["text"] = pa.array(texts, type=pa.large_string())
    cols["payload_kind"] = pa.array(kinds, type=pa.string())
    cols["error"] = pa.array(errors, type=pa.string())
    cols["word_boxes"] = pa.array(boxes, type=WORD_BOX_TYPE)
    return pa.table(cols)


def url_template_batch(batch: pa.Table, *, url_col: str = "link") -> pa.Table:
    """Vectorized URL → (host, template) map for template mining: the
    crawl-side pattern that turns a link stream into its URL SHAPE
    census (``/cat/{n}/{n}`` vs ``/p/{n}`` vs ``/about``) — the signal
    behind trap detection, dedup-by-pattern and frontier budgeting
    (a template with 10⁹ instances and identical content is a trap; a
    flat page set isn't).  Host = authority label, template = path +
    query with every digit run collapsed to ``{n}`` — one pyarrow regex
    kernel, no Python per row."""
    import pyarrow.compute as pc

    urls = batch.column(url_col)
    # strip scheme: chars after '://'; host = up to first '/'; rest = path?query
    tail = pc.replace_substring_regex(urls, r"^[a-z]+://", "")
    host = pc.replace_substring_regex(tail, r"/.*$", "")
    path = pc.replace_substring_regex(tail, r"^[^/]*", "")
    tmpl = pc.replace_substring_regex(path, r"[0-9]+", "{n}")
    return pa.table({"host": host, "template": tmpl})
