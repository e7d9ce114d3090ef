"""Office-document readers (SURVEY §2.1 S4/S5) — payload-in-cell parsers.

The reference reads DOCX paragraphs via python-docx
(/root/reference/document_classification_updated/documentClassifier.py:1418-1424)
and XLSX via openpyxl read-only with hard caps — 100 rows / 1000 chars
(documentClassifier.py:1458-1471). Neither library ships in this
environment, but both formats are ZIP-of-XML, so the readers below parse
them with stdlib ``zipfile`` + ``xml.etree`` directly:

- ``read_docx_text``: word/document.xml → ``<w:p>`` paragraphs (runs
  joined), paragraphs joined with ``"\\n"`` (reference's join).
- ``read_xlsx_text``: xl/worksheets/sheet1.xml rows (+ sharedStrings
  indirection), cells joined with a space per row, rows joined with
  ``"\\n"``, capped at ``max_rows`` rows / ``max_chars`` chars.

Both are per-row functions for a ``map_batches`` dispatch keyed on payload
magic (DOCX/XLSX are PK-zip: ``PK\\x03\\x04``) + member names.
"""

from __future__ import annotations

import io
import zipfile
import xml.etree.ElementTree as ET

_W_NS = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"
_S_NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"

XLSX_MAX_ROWS = 100
XLSX_MAX_CHARS = 1000


def is_zip(payload: bytes) -> bool:
    return payload[:4] == b"PK\x03\x04"


def office_kind(payload: bytes) -> str | None:
    """'docx' | 'xlsx' | None by zip member sniffing."""
    if not is_zip(payload):
        return None
    try:
        with zipfile.ZipFile(io.BytesIO(payload)) as z:
            names = set(z.namelist())
    except zipfile.BadZipFile:
        return None
    if "word/document.xml" in names:
        return "docx"
    if any(n.startswith("xl/worksheets/") for n in names):
        return "xlsx"
    return None


def read_docx_text(payload: bytes) -> str:
    """Paragraph texts joined with newlines (documentClassifier.py:1420-1424)."""
    with zipfile.ZipFile(io.BytesIO(payload)) as z:
        root = ET.fromstring(z.read("word/document.xml"))
    paras: list[str] = []
    for p in root.iter(f"{_W_NS}p"):
        runs = [t.text or "" for t in p.iter(f"{_W_NS}t")]
        paras.append("".join(runs))
    return "\n".join(paras)


def read_xlsx_text(payload: bytes, *, max_rows: int = XLSX_MAX_ROWS,
                   max_chars: int = XLSX_MAX_CHARS) -> str:
    """First-sheet cell text, row-capped and char-capped like the reference
    (documentClassifier.py:1464-1469)."""
    with zipfile.ZipFile(io.BytesIO(payload)) as z:
        shared: list[str] = []
        if "xl/sharedStrings.xml" in z.namelist():
            sroot = ET.fromstring(z.read("xl/sharedStrings.xml"))
            for si in sroot.iter(f"{_S_NS}si"):
                shared.append("".join(t.text or "" for t in si.iter(f"{_S_NS}t")))
        sheet_names = sorted(
            n for n in z.namelist()
            if n.startswith("xl/worksheets/") and n.endswith(".xml")
        )
        if not sheet_names:
            return ""
        root = ET.fromstring(z.read(sheet_names[0]))
    lines: list[str] = []
    total = 0
    for i, row in enumerate(root.iter(f"{_S_NS}row")):
        if i >= max_rows or total >= max_chars:
            break
        cells: list[str] = []
        for c in row.iter(f"{_S_NS}c"):
            v = c.find(f"{_S_NS}v")
            if v is None or v.text is None:
                continue
            if c.get("t") == "s":  # shared-string indirection
                idx = int(v.text)
                cells.append(shared[idx] if idx < len(shared) else "")
            else:
                cells.append(v.text)
        line = " ".join(cells)
        if line:
            lines.append(line[: max(0, max_chars - total)])
            total += len(line)
    return "\n".join(lines)


def make_docx(paragraphs: list[str]) -> bytes:
    """Minimal valid DOCX payload (test fixture builder)."""
    body = "".join(
        f"<w:p><w:r><w:t>{p}</w:t></w:r></w:p>" for p in paragraphs
    )
    doc = (
        '<?xml version="1.0"?><w:document '
        'xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">'
        f"<w:body>{body}</w:body></w:document>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("word/document.xml", doc)
    return buf.getvalue()


def make_xlsx(rows: list[list[str]]) -> bytes:
    """Minimal valid XLSX payload using inline shared strings."""
    strings: list[str] = []
    rows_xml = []
    for ri, row in enumerate(rows, start=1):
        cells = []
        for ci, val in enumerate(row):
            strings.append(val)
            col = chr(ord("A") + ci)
            cells.append(
                f'<c r="{col}{ri}" t="s"><v>{len(strings) - 1}</v></c>'
            )
        rows_xml.append(f'<row r="{ri}">{"".join(cells)}</row>')
    sheet = (
        '<?xml version="1.0"?><worksheet '
        'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
        f'<sheetData>{"".join(rows_xml)}</sheetData></worksheet>'
    )
    sst = (
        '<?xml version="1.0"?><sst '
        'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
        + "".join(f"<si><t>{s}</t></si>" for s in strings)
        + "</sst>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("xl/worksheets/sheet1.xml", sheet)
        z.writestr("xl/sharedStrings.xml", sst)
    return buf.getvalue()
