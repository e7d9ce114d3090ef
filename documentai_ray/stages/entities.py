"""Per-category entity extraction (SURVEY §2.2 M17-M26).

Rebuilt extractors (reference under /root/reference/):

- ``extract_po``           purchase-order fields — PO number before DATED,
  seller/buyer blocks, goods description, quantity+unit, currency+total,
  incoterms (entity_extraction_updated/extractor/purchase_order.py:5-84, M17).
- ``extract_generic``      common regexes: dates, amounts, numbers, emails,
  phones (microservices/entity-extraction-service/app.py:781-829, M20).
- ``detect_tables``        text→table detection: lines split on 2+ spaces /
  tabs, runs of ≥2-column lines (app.py:831-851, M21).
- ``autodetect_doc_type``  keyword-hit argmax (app.py:757-779, M22).
- ``parse_goods_table``    proforma-invoice goods parser — header anchor then
  ``rsplit(" ", 5)`` from the right: desc/hs/qty/unit/price/amount
  (extractor/performa_invoice.py:43-65, M18).
- ``match_entity_boxes``   entity↔word-box matcher: exact → consecutive
  multi-word → substring match, merged bbox (app.py:890-966, M23) —
  an in-row join of two lists living in the same row; zero shuffle.
  ``match_boxes_batch`` applies the same rule (``_match_span``) to a
  whole batch through the ``word_boxes`` column's Arrow children.
- ``validate_field_formats`` date/number/amount/email checks (app.py:853-888, M24).
- ``completeness_score``   present/expected ratio + non-empty ratio
  (app.py:969-999, M26).

Dispatch by the ``category`` column inside one ``map_batches`` stage — the
classification→extraction handoff that the reference does via a filesystem
rendezvous (J1) collapses to an in-row column read here.

All extractors are pure regex/string functions: deterministic, batch-looped
(regex per document is inherently per-row), compiled once per worker at
module import (T2 pattern).
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from documentai_ray.functions.text import try_parse_number
from documentai_ray.stages.extract import MarkupParser

# -- purchase order (M17) ----------------------------------------------------

_PO_RES = {
    "po_number": re.compile(r"PO NUMBER:\s*(PO-\d+)"),
    "po_date": re.compile(r"DATED\s+(\d{2}\.\d{2}\.\d{4})"),
    "seller": re.compile(r"^SELLER:\s*(.+)$", re.MULTILINE),
    "buyer": re.compile(r"^BUYER:\s*(.+)$", re.MULTILINE),
    "goods": re.compile(r"^DESCRIPTION OF GOODS:\s*(.+)$", re.MULTILINE),
    "qty_unit": re.compile(r"QUANTITY:\s*([\d,.]+)\s+([A-Z]{2,4})\b"),
    "ccy_total": re.compile(r"TOTAL AMOUNT:\s*([A-Z]{3})\s+([\d,.]+)"),
    "incoterms": re.compile(r"\b([A-Z]{3} [A-Z ]+\(INCOTERMS \d{4}\))"),
}

PO_FIELDS = [
    "po_number", "po_date", "seller", "buyer", "goods",
    "quantity", "unit", "currency", "total_amount", "incoterms",
]


def extract_po(text: str) -> dict[str, str]:
    """Flat string→string entity dict (empty string when a field misses),
    matching the reference's stringly-typed entity record (SURVEY §1.2)."""
    out = {f: "" for f in PO_FIELDS}
    m = _PO_RES["po_number"].search(text)
    if m:
        out["po_number"] = m.group(1)
    m = _PO_RES["po_date"].search(text)
    if m:
        out["po_date"] = m.group(1)
    for f in ("seller", "buyer", "goods"):
        m = _PO_RES[f].search(text)
        if m:
            out[f] = m.group(1).strip()
    m = _PO_RES["qty_unit"].search(text)
    if m:
        out["quantity"], out["unit"] = m.group(1), m.group(2)
    m = _PO_RES["ccy_total"].search(text)
    if m:
        out["currency"], out["total_amount"] = m.group(1), m.group(2)
    m = _PO_RES["incoterms"].search(text)
    if m:
        out["incoterms"] = m.group(1)
    return out


# -- proforma invoice (M18 flat fields; goods table parsed separately) -------

_INV_RES = {
    "inv_number": re.compile(r"INVOICE NUMBER:\s*(INV-\d+)"),
    "inv_date": re.compile(r"DATED\s+(\d{2}\.\d{2}\.\d{4})"),
}

INV_FIELDS = [
    "inv_number", "inv_date", "seller", "buyer", "currency", "total_amount",
    "incoterms",
]

# flat entity columns emitted by entities_batch: PO fields plus the
# invoice-only extras (seller/buyer/currency/total_amount/incoterms are
# shared column names between the two extractors)
EXTRA_FIELDS = ["inv_number", "inv_date"]
ALL_FLAT_FIELDS = PO_FIELDS + EXTRA_FIELDS


def extract_invoice(text: str) -> dict[str, str]:
    """Proforma-invoice flat fields (reference
    entity_extraction_updated/extractor/performa_invoice.py:5-42 regex part;
    the goods table goes through ``parse_goods_table``)."""
    out = {f: "" for f in INV_FIELDS}
    for f in ("inv_number", "inv_date"):
        m = _INV_RES[f].search(text)
        if m:
            out[f] = m.group(1)
    for f in ("seller", "buyer"):
        m = _PO_RES[f].search(text)
        if m:
            out[f] = m.group(1).strip()
    m = _PO_RES["ccy_total"].search(text)
    if m:
        out["currency"], out["total_amount"] = m.group(1), m.group(2)
    m = _PO_RES["incoterms"].search(text)
    if m:
        out["incoterms"] = m.group(1)
    return out


# -- generic extractor (M20) -------------------------------------------------

_GENERIC_RES = {
    "dates": re.compile(r"\b\d{2}[./-]\d{2}[./-]\d{4}\b"),
    "amounts": re.compile(r"\b[A-Z]{3}\s+[\d,]+(?:\.\d{2})?\b"),
    "numbers": re.compile(r"\b\d[\d,]*(?:\.\d+)?\b"),
    "emails": re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.]+\b"),
    "phones": re.compile(r"\+?\d[\d\s()-]{7,}\d"),
}


def extract_generic(text: str) -> dict[str, list[str]]:
    return {name: rx.findall(text) for name, rx in _GENERIC_RES.items()}


# -- text→table detection (M21) ---------------------------------------------

_COLSPLIT = re.compile(r"\s{2,}|\t")


def detect_tables(text: str) -> list[list[list[str]]]:
    """Runs of ≥2 consecutive lines that split into ≥2 columns."""
    tables: list[list[list[str]]] = []
    run: list[list[str]] = []
    for line in text.split("\n"):
        cells = [c for c in _COLSPLIT.split(line.strip()) if c]
        if len(cells) >= 2:
            run.append(cells)
        else:
            if len(run) >= 2:
                tables.append(run)
            run = []
    if len(run) >= 2:
        tables.append(run)
    return tables


# -- keyword doc-type autodetect (M22) --------------------------------------

DOC_TYPE_KEYWORDS = {
    "purchase_order": ["po number", "incoterms", "net weight"],
    "invoice": ["invoice", "hs code", "unit price"],
    "report": ["report", "quarter", "summary"],
}


def autodetect_doc_type(text: str) -> str:
    low = text.lower()
    best, best_hits = "unknown", 0
    for dt in sorted(DOC_TYPE_KEYWORDS):
        hits = sum(low.count(kw) for kw in DOC_TYPE_KEYWORDS[dt])
        if hits > best_hits:
            best, best_hits = dt, hits
    return best


# -- proforma goods-table parser (M18) --------------------------------------

_GOODS_HEADER = re.compile(r"DESCRIPTION\s+HS ?CODE\s+QTY\s+UNIT\s+PRICE\s+AMOUNT", re.I)


def parse_goods_table(text: str) -> list[dict[str, str]]:
    """Header-anchored rows; each row ``rsplit(" ", 5)`` from the right —
    description may contain spaces, the 5 numeric-ish columns may not
    (performa_invoice.py:56-64 semantics)."""
    m = _GOODS_HEADER.search(text)
    if not m:
        return []
    goods: list[dict[str, str]] = []
    for line in text[m.end():].split("\n"):
        line = line.strip()
        if not line:
            if goods:
                break
            continue
        parts = line.rsplit(" ", 5)
        if len(parts) != 6:
            break
        desc, hs, qty, unit, price, amount = parts
        if try_parse_number(qty) is None or try_parse_number(amount) is None:
            break
        goods.append(
            {"description": desc, "hs_code": hs, "quantity": qty,
             "unit": unit, "unit_price": price, "amount": amount}
        )
    return goods


# -- HTML-table tag extraction (M19 analog) ---------------------------------

class _TableParser(MarkupParser):
    """Collects <table> rows as lists of cell texts (th/td)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tables: list[list[list[str]]] = []
        self._in_table = 0
        self._row: list[str] | None = None
        self._cell: list[str] | None = None

    def handle_starttag(self, tag, attrs):
        if tag == "table":
            self._in_table += 1
            self.tables.append([])
        elif tag == "tr" and self._in_table:
            self._row = []
        elif tag in ("td", "th") and self._row is not None:
            self._cell = []

    def handle_endtag(self, tag):
        if tag == "table":
            self._in_table = max(0, self._in_table - 1)
        elif tag == "tr" and self._row is not None:
            if self.tables:
                self.tables[-1].append(self._row)
            self._row = None
        elif tag in ("td", "th") and self._cell is not None:
            if self._row is not None:
                self._row.append(" ".join("".join(self._cell).split()))
            self._cell = None

    def handle_data(self, data):
        if self._cell is not None:
            self._cell.append(data)


def extract_html_tables(html_text: str) -> list[list[list[str]]]:
    """All <table> row/cell texts in document order (whitespace-collapsed).

    The direct ancestor is the reference's BeautifulSoup HTML-table walk for
    LC tag extraction (entity_extraction_updated/extractor/lc_application.py:
    14-68 via main.py's extract_entities_from_html_tables) — rebuilt on
    stdlib HTMLParser (through ``MarkupParser``)."""
    p = _TableParser()
    p.feed(html_text)
    p.close()
    return p.tables


# the 34 SWIFT-style LC field codes the reference extracts
# (entity_extraction_updated/extractor/lc_application.py:8-12 ENTITY_CODES)
LC_ENTITY_CODES = [
    "F-40A", "F-23", "F-31C", "F40E", "F31D", "F51A", "F50", "F59", "F32B",
    "F39A", "F39C", "F41A", "F42C", "F42A_2", "F42M", "F42P", "F43P", "F43T",
    "F44A", "F44E", "F44F", "F44B", "F44C", "F44D", "F45A", "F46A", "F47A",
    "F718", "F48", "F49", "F53A", "F78", "F57A", "F72",
]

_LC_NORM = {c.replace("-", "").replace(" ", "").lower(): c for c in LC_ENTITY_CODES}


def lc_rule_field(code: str) -> str:
    """Canonical code → rule-file field name: ``F-40A``/``F31D`` → ``40A``/
    ``31D`` (configs/validation_rules/lc_rules.txt keys by bare tag)."""
    return code.lstrip("F").lstrip("-")


def lc_tags_from_rows(rows, out: dict[str, str] | None = None) -> dict[str, str]:
    """SWIFT-tag dict from row/cell grids — the shared core of the HTML
    and PIXEL table paths (lc_application.py:16-38 semantics): rows with
    ≥3 cells take cells[2] as the value, 2-cell rows take cells[1]; the
    code cell matches any ENTITY_CODE after stripping '-'/' ' and
    lowercasing; first occurrence wins."""
    if out is None:
        out = {}
    for row in rows:
        if len(row) < 2:
            continue
        norm = row[0].replace("-", "").replace(" ", "").lower()
        code = _LC_NORM.get(norm)
        if code is None or code in out:
            continue
        out[code] = row[2] if len(row) >= 3 else row[1]
    return out


def extract_lc_tags(html_text: str) -> dict[str, str]:
    """All 34 SWIFT codes from HTML tables — the reference's LC table walk
    (lc_application.py:16-38). Returns a dict keyed by the canonical code
    string; cell-grid → tag-dict logic shared with the pixel-OCR path via
    :func:`lc_tags_from_rows`."""
    out: dict[str, str] = {}
    for table in extract_html_tables(html_text):
        lc_tags_from_rows(table, out)
    return out


def extract_table_tags(html_text: str) -> dict[str, str]:
    """label→value dict from 2-column table rows (first cell = tag/label,
    second = value) — the SWIFT-code tag-dict shape of the LC extractor
    (entity_extraction_updated/main.py:8-12). First occurrence wins."""
    out: dict[str, str] = {}
    for table in extract_html_tables(html_text):
        for row in table:
            if len(row) >= 2 and row[0] and row[0] not in out:
                out[row[0]] = row[1]
    return out


# -- entity ↔ word-box matching (M23) ---------------------------------------

def _match_span(value: str | None, low: list[str], lo: int,
                hi: int) -> tuple[int, int] | None:
    """The one matching rule, over the lowercased box texts ``low[lo:hi]``:
    exact single box → consecutive multi-word run → substring containment
    (value inside one box, or a box of more than 2 characters inside the
    value); first match wins (reference order, app.py:890-966). Returns
    the matched ``(start, stop)`` offsets into ``low``, or None."""
    if not value:
        return None
    val = value.strip().lower()
    try:
        i = low.index(val, lo, hi)
        return i, i + 1
    except ValueError:
        pass
    words = val.split()
    n = len(words)
    if n > 1:
        i = lo
        while True:
            try:
                i = low.index(words[0], i, hi - n + 1)
            except ValueError:
                break
            if low[i : i + n] == words:
                return i, i + n
            i += 1
    for i in range(lo, hi):
        t = low[i]
        if val in t or (len(t) > 2 and t in val):
            return i, i + 1
    return None


def match_entity_boxes(
    entities: dict[str, str], boxes: list[dict[str, Any]]
) -> dict[str, dict[str, Any] | None]:
    """Per-document matcher over box dicts (:func:`_match_span`): a
    one-box match returns a copy of that box, a multi-word run the merged
    box of the run, no match None."""
    low = [b["text"].lower() for b in boxes]
    out: dict[str, dict[str, Any] | None] = {}
    for field, value in entities.items():
        span = _match_span(value, low, 0, len(low))
        if span is None:
            out[field] = None
        elif span[1] - span[0] == 1:
            out[field] = dict(boxes[span[0]])
        else:
            out[field] = _merge_boxes(boxes[span[0] : span[1]])
    return out


def _merge_boxes(run: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "text": " ".join(b["text"] for b in run),
        "page": run[0]["page"],
        "x0": min(b["x0"] for b in run),
        "y0": min(b["y0"] for b in run),
        "x1": max(b["x1"] for b in run),
        "y1": max(b["y1"] for b in run),
        "conf": min(b["conf"] for b in run),
    }


# -- field-format validators (M24) + completeness (M26) ---------------------

_FMT_RES = {
    "date": re.compile(r"^\d{2}[./-]\d{2}[./-]\d{4}$"),
    "amount": re.compile(r"^[\d,]+(?:\.\d+)?$"),
    "email": re.compile(r"^[\w.+-]+@[\w-]+\.[\w.]+$"),
    "currency": re.compile(r"^[A-Z]{3}$"),
}


def validate_field_formats(entities: dict[str, str]) -> dict[str, bool]:
    checks = {}
    for field, value in entities.items():
        if not value:
            checks[field] = False
        elif "date" in field:
            checks[field] = bool(_FMT_RES["date"].match(value))
        elif field in ("total_amount", "quantity"):
            checks[field] = bool(_FMT_RES["amount"].match(value))
        elif field == "currency":
            checks[field] = bool(_FMT_RES["currency"].match(value))
        else:
            checks[field] = True
    return checks


def completeness_score(entities: dict[str, str], expected_fields: list[str]) -> float:
    if not expected_fields:
        return 0.0
    present = sum(1 for f in expected_fields if entities.get(f))
    return present / len(expected_fields)


# ---------------------------------------------------------------------------
# extractor plugin registry (SURVEY §2.11 — the EXTRACTORS dict surface,
# entity-extraction-service/app.py:50-55 / extractor/__init__.py get_extractor)
# ---------------------------------------------------------------------------

EXTRACTORS: dict[str, Any] = {
    "purchase_order": extract_po,
    "invoice": extract_invoice,
}

# categories whose documents carry a parseable goods table (M18)
GOODS_CATEGORIES = {"invoice"}

# per-category expected fields for the completeness score (M26)
EXPECTED_BY_CATEGORY = {
    "purchase_order": PO_FIELDS,
    "invoice": INV_FIELDS,
}


def register_extractor(category: str, fn) -> None:
    """User extension point: ``fn(text) -> dict[str, str]`` per category.
    Registered extractors dispatch inside ``entities_batch`` by the
    ``category`` column — registration must happen at import time on the
    driver (the registry ships to workers in the UDF closure)."""
    EXTRACTORS[category] = fn


def get_extractor(category: str):
    return EXTRACTORS.get(category)


# ---------------------------------------------------------------------------
# batch stage: dispatch on category (J1 collapsed in-row)
# ---------------------------------------------------------------------------

GOODS_STRUCT = pa.struct([
    ("description", pa.string()), ("hs_code", pa.string()),
    ("quantity", pa.string()), ("unit", pa.string()),
    ("unit_price", pa.string()), ("amount", pa.string()),
])


BOX_MATCH_FIELDS = ("po_number", "po_date", "seller", "buyer", "total_amount")
_BOX_COORDS = ("page", "x0", "y0", "x1", "y1")
_BOX_TYPES = (pa.int64(), pa.float64(), pa.float64(), pa.float64(), pa.float64())


def match_boxes_batch(batch: pa.Table,
                      fields: tuple = BOX_MATCH_FIELDS) -> pa.Table:
    """Entity-bbox enrichment over an entities_batch output that still
    carries ``word_boxes`` (the reference's runtime enrichment of
    extracted fields with PDF-span coordinates,
    entity-extraction-service/app.py:571-579): appends flat
    ``{field}_{page,x0,y0,x1,y1}`` columns (``int64`` page, ``float64``
    coordinates; null when unmatched or the row has no boxes), the same
    values :func:`match_entity_boxes` gives per row.

    ``word_boxes`` is read through its Arrow children, never as Python
    dicts: one flattened struct array for the whole batch, per-row
    ``(start, stop)`` offsets into it from the list lengths (a null list
    counts as empty), the box texts lowercased once, and the coordinate
    children as numpy arrays. :func:`_match_span` finds each field's span;
    a one-box span gathers that box's coordinates, a multi-word run takes
    the first box's page and the min/max of its coordinates.
    Arrow-in/Arrow-out; existing columns untouched."""
    n = batch.num_rows
    lists = batch.column("word_boxes")
    lens = pc.fill_null(pc.list_value_length(lists), 0).to_numpy()
    stops = np.cumsum(lens)
    starts = stops - lens
    flat = pc.list_flatten(lists)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    low = [t.lower() for t in
           pc.struct_field(flat, "text").to_numpy(zero_copy_only=False).tolist()]
    kids = [pc.struct_field(flat, k) for k in _BOX_COORDS]
    coords = [k.fill_null(0).to_numpy(zero_copy_only=False) for k in kids]
    nulls = [k.is_null().to_numpy(zero_copy_only=False) if k.null_count else None
             for k in kids]

    values = [batch.column(f).to_pylist() for f in fields]
    hits: list[list[tuple[int, int, int]]] = [[] for _ in fields]
    for r in np.flatnonzero(lens).tolist():
        lo, hi = int(starts[r]), int(stops[r])
        for vals, fhits in zip(values, hits):
            span = _match_span(vals[r], low, lo, hi)
            if span is not None:
                fhits.append((r, *span))

    out = batch
    for f, fhits in zip(fields, hits):
        rows, lo, hi = np.array(fhits, np.int64).reshape(-1, 3).T
        runs = np.flatnonzero(hi - lo > 1).tolist()
        for name, typ, v, null in zip(_BOX_COORDS, _BOX_TYPES, coords, nulls):
            col = np.zeros(n, typ.to_pandas_dtype())
            col[rows] = v[lo]
            mask = np.ones(n, bool)
            mask[rows] = False if null is None else null[lo]
            if name != "page":  # a run's page is its first box's
                agg = min if name in ("x0", "y0") else max
                for j in runs:
                    a, b = lo[j], hi[j]
                    col[rows[j]] = agg(v[a:b].tolist())
                    if null is not None:
                        mask[rows[j]] = null[a:b].any()
            out = out.append_column(f"{f}_{name}", pa.array(col, typ, mask=mask))
    return out


def entities_batch(batch: pa.Table) -> pa.Table:
    """Appends flat entity columns (empty for rows whose category has no
    registered extractor), a ``goods_items: list<struct>`` column (parsed
    goods-table rows for GOODS_CATEGORIES, else []), plus ``doc_type`` and
    ``completeness``. Keeps output columnar/flat so the DuckDB oracle can
    compare column-by-column."""
    texts = batch.column("text").to_pylist()
    cats = (
        batch.column("category").to_pylist()
        if "category" in batch.column_names
        else [autodetect_doc_type(t or "") for t in texts]
    )
    cols: dict[str, list] = {f: [] for f in ALL_FLAT_FIELDS}
    goods_items: list[list[dict[str, str]]] = []
    doc_types: list[str] = []
    completeness: list[float] = []
    for text, cat in zip(texts, cats):
        text = text or ""
        extractor = EXTRACTORS.get(cat)
        ents = {f: "" for f in ALL_FLAT_FIELDS}
        if extractor is not None:
            ents.update(extractor(text))
        for f in ALL_FLAT_FIELDS:
            cols[f].append(ents[f])
        goods_items.append(
            parse_goods_table(text) if cat in GOODS_CATEGORIES else []
        )
        doc_types.append(autodetect_doc_type(text))
        completeness.append(
            completeness_score(ents, EXPECTED_BY_CATEGORY.get(cat, PO_FIELDS))
        )
    out = batch
    for f in ALL_FLAT_FIELDS:
        out = out.append_column(f, pa.array(cols[f], pa.string()))
    out = out.append_column("goods_items",
                            pa.array(goods_items, pa.list_(GOODS_STRUCT)))
    out = out.append_column("doc_type", pa.array(doc_types, pa.string()))
    out = out.append_column("completeness", pa.array(completeness, pa.float64()))
    return out
