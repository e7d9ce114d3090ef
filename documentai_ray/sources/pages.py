"""Deterministic Common-Crawl-style ``pages`` corpus (BASELINE.json input_hint).

The sandbox testdata has no pages table, so the engine synthesizes one —
purely and deterministically — from ``{sf_dir}/documents.parquet``
(FIXTURES.md §1). Every derived value is a closed-form function of
``doc_id``/``source``/``text`` so the DuckDB oracle SQL in
``__ray_entry__.py`` can reconstruct the expected pipeline output
independently.

Schema: ``url:string, warc_ts:timestamp[us], html:binary,
text:large_string (golden expected extraction), lang:string``.

Row rules (mirrored in oracle SQL — keep in sync):

- ``malformed``: ``doc_id % 97 == 0`` → invalid-UTF-8 payload, golden ``""``.
- archetype ``doc_id % 5``:
  0 article        → golden = document text
  1 link farm      → golden = ""
  2 purchase order → golden = "\\n".join(po_lines(doc_id))
  3 report         → golden = document text
  4 blank page     → golden = ""; EXCEPT ``doc_id % 10 == 4`` → proforma
    invoice with a 2-row goods table, golden = "\\n".join(invoice_lines)
- host: ``heavy.example.com`` when ``doc_id % 3 == 0`` (deliberate ~33%
  heavy-hitter host for salted-partitioning tests), else
  ``{source}.example.com``.
- url: ``https://{host}/p/{doc_id}`` (unique per doc).
- warc_ts: ``2024-01-01T00:00:00 + doc_id * 60s``.
- exact-dup rows: ``doc_id % 20 == 0`` adds a STALE capture of the same url
  (warc_ts −1 day, blank-page payload) — exact dedup (latest wins) must drop
  it or row counts/goldens mismatch.
- near-dup rows (opt-in, ``with_near_dups=True``): ``doc_id % 50 ∈ {3, 7}``
  adds ``{url}?amp=1`` whose content is the original page's golden text plus
  one trailing token (" the") — word-3-shingle Jaccard ≥ S/(S+1) ≈ 0.87 vs
  its original, while distinct documents stay ≈ 0.3 — MinHash-LSH must pair
  each near-dup with exactly its original at threshold 0.8.
- PDF rows (opt-in, ``pdf_mode=True``): every payload is a MINIPDF layout
  blob of the document text; golden = reading-order walk text.
"""

from __future__ import annotations

import datetime as _dt

import pyarrow as pa
import pyarrow.parquet as pq

from documentai_ray.functions import minipdf

EPOCH = _dt.datetime(2024, 1, 1)
HEAVY_HOST = "heavy.example.com"


# ---------------------------------------------------------------------------
# closed-form row attributes (keep in sync with oracle SQL)
# ---------------------------------------------------------------------------

def is_malformed(doc_id: int) -> bool:
    return doc_id % 97 == 0


def archetype(doc_id: int) -> int:
    return doc_id % 5


def host_for(doc_id: int, source: str) -> str:
    return HEAVY_HOST if doc_id % 3 == 0 else f"{source}.example.com"


def url_for(doc_id: int, source: str) -> str:
    return f"https://{host_for(doc_id, source)}/p/{doc_id}"


def warc_ts_for(doc_id: int) -> _dt.datetime:
    """Capture timestamp: EPOCH + 60s·doc_id, wrapped at a ~95-year horizon
    (datetime tops out at year 9999; bench corpora shift doc_ids by
    copy·10⁷). Dedup correctness only needs ORDER among captures of the
    same url — a url's captures share a doc_id, so the wrap never reorders
    them (the stale dup is constructed at ts − 1 day)."""
    return EPOCH + _dt.timedelta(seconds=60 * (doc_id % 50_000_000))


def po_fields(doc_id: int) -> dict[str, str]:
    """Deterministic purchase-order field values (golden entities)."""
    qty = 100 + doc_id % 400
    amount = qty * 500
    return {
        "po_number": f"PO-{10000 + doc_id}",
        "po_date": f"{1 + doc_id % 28:02d}.{1 + doc_id % 12:02d}.2024",
        "seller": f"GLOBAL TRADING COMPANY {doc_id % 7} LIMITED",
        "buyer": f"ACME IMPORTS {doc_id % 5} LLC",
        "goods": f"STEEL COILS GRADE {doc_id % 9}",
        "quantity": f"{qty}.00",
        "unit": "MT",
        "currency": "USD",
        "total_amount": f"{amount:,}.00",
        "incoterms": "CFR SINGAPORE (INCOTERMS 2020)",
    }


def po_lines(doc_id: int) -> list[str]:
    f = po_fields(doc_id)
    return [
        f"PO NUMBER: {f['po_number']} DATED {f['po_date']}",
        f"SELLER: {f['seller']}",
        f"BUYER: {f['buyer']}",
        f"DESCRIPTION OF GOODS: {f['goods']}",
        f"QUANTITY: {f['quantity']} {f['unit']} NET WEIGHT",
        f"TOTAL AMOUNT: {f['currency']} {f['total_amount']}",
        f"DELIVERY {f['incoterms']}",
    ]


def is_invoice(doc_id: int) -> bool:
    """Half of archetype 4 (``doc_id % 10 == 4``) carries a proforma
    invoice instead of a blank page. Chosen so the invoice population is
    disjoint from the exact-dup (%20==0) and near-dup (%50∈{3,7}) rows."""
    return doc_id % 10 == 4


def invoice_goods(doc_id: int) -> list[dict[str, str]]:
    """Deterministic 2-row goods table (golden ``goods_items``); all-string
    struct fields, mirroring the reference's stringly-typed goods rows
    (entity_extraction_updated/extractor/performa_invoice.py:56-64)."""
    q1, p1 = 50 + doc_id % 100, 500 + doc_id % 50
    q2, p2 = 20 + doc_id % 80, 30 + doc_id % 20
    return [
        {"description": f"STEEL COILS GRADE {doc_id % 9}",
         "hs_code": f"7209.1{doc_id % 7}", "quantity": str(q1), "unit": "MT",
         "unit_price": f"{p1}.00", "amount": f"{q1 * p1}.00"},
        {"description": f"ALUMINIUM SHEETS TYPE {doc_id % 4}",
         "hs_code": f"7606.1{doc_id % 7}", "quantity": str(q2), "unit": "KG",
         "unit_price": f"{p2}.00", "amount": f"{q2 * p2}.00"},
    ]


def invoice_fields(doc_id: int) -> dict[str, str]:
    q1, p1 = 50 + doc_id % 100, 500 + doc_id % 50
    q2, p2 = 20 + doc_id % 80, 30 + doc_id % 20
    return {
        "inv_number": f"INV-{20000 + doc_id}",
        "inv_date": f"{1 + doc_id % 28:02d}.{1 + doc_id % 12:02d}.2024",
        "seller": f"GLOBAL TRADING COMPANY {doc_id % 7} LIMITED",
        "buyer": f"ACME IMPORTS {doc_id % 5} LLC",
        "currency": "USD",
        "total_amount": f"{q1 * p1 + q2 * p2}.00",
        "incoterms": "CIF ROTTERDAM (INCOTERMS 2020)",
    }


def invoice_lines(doc_id: int) -> list[str]:
    f = invoice_fields(doc_id)
    rows = invoice_goods(doc_id)
    return [
        f"PROFORMA INVOICE NUMBER: {f['inv_number']} DATED {f['inv_date']}",
        f"SELLER: {f['seller']}",
        f"BUYER: {f['buyer']}",
        "DESCRIPTION HS CODE QTY UNIT PRICE AMOUNT",
        *(
            f"{r['description']} {r['hs_code']} {r['quantity']} {r['unit']} "
            f"{r['unit_price']} {r['amount']}"
            for r in rows
        ),
        f"TOTAL AMOUNT: {f['currency']} {f['total_amount']}",
        f"DELIVERY {f['incoterms']}",
    ]


def is_lc(doc_id: int) -> bool:
    """The other half of archetype 4 (``doc_id % 10 == 9``) carries an
    LC-application page: a SWIFT-tag table whose cells are all shorter than
    the extractor's MIN_BLOCK_CHARS, so the page's main content stays ""
    (LC data lives in the table structure, not the prose — mirroring the
    reference's table-OCR-only LC path)."""
    return doc_id % 10 == 9


def lc_tag_values(doc_id: int) -> dict[str, str]:
    """Deterministic value per SWIFT code (golden LC entities). The six
    rule-covered tags get semantically meaningful values (40A/31C/31D/32B/
    50/59 per configs/validation_rules/lc_rules.txt — 32B fails the >0
    amount rule for ``doc_id % 4 == 1`` docs); the rest get short marker
    values. Every value < 25 chars (stays out of main content)."""
    from documentai_ray.stages.entities import LC_ENTITY_CODES

    mm, dd = 1 + doc_id % 12, 1 + doc_id % 28
    amount = 0 if doc_id % 4 == 1 else 1000 * (1 + doc_id % 50)
    special = {
        "F-40A": "IRREVOCABLE",
        "F-31C": f"24{mm:02d}{dd:02d}",
        "F31D": f"25{mm:02d}{dd:02d}",
        "F32B": f"USD {amount}.00",
        "F50": f"APPLICANT COMPANY {doc_id % 5}",
        "F59": f"BENEFICIARY {doc_id % 7} CORP",
    }
    out = {}
    for code in LC_ENTITY_CODES:
        out[code] = special.get(code, f"V{code}-{doc_id % 9}")
    return out


def _html_lc(doc_id: int) -> str:
    """LC page: one SWIFT-tag table; alternating 3-cell (code|desc|value)
    and 2-cell (code|value) rows, code cell lowercased on odd rows — both
    row shapes and the code normalization are exercised."""
    vals = lc_tag_values(doc_id)
    rows = []
    for i, (code, v) in enumerate(vals.items()):
        shown = code.lower() if i % 2 else code
        if i % 2:
            rows.append(f"<tr><td>{shown}</td><td>{v}</td></tr>")
        else:
            rows.append(f"<tr><td>{shown}</td><td>Field {i}</td><td>{v}</td></tr>")
    return (
        "<html><head><title>LC</title></head><body>"
        f"{_NAV}<table>{''.join(rows)}</table>{_FOOTER}</body></html>"
    )


def lc_pixel_page_png(doc_id: int) -> bytes:
    """The LC application as a PAGE IMAGE (PNG): the same SWIFT-tag table
    the HTML fixture plants (`_html_lc`), laid out as a pixel table —
    code column at x=36, description column (3-cell rows only) at x=150,
    value column at x=300, one 12-px-spaced text band per tag row, drawn
    with the 5×7 bitfont. Odd rows lowercase the shown code and drop the
    description cell, mirroring the HTML fixture's two row shapes. The
    pixel path (OCR → band/column cells → tag dict) must recover exactly
    `lc_tag_values(doc_id)` from these pixels — the reference's
    PPStructureV3 table-OCR-over-images route
    (entity_extraction_updated/extractor/lc_application.py:40-41)."""
    from documentai_ray.functions import minipng
    from documentai_ray.functions.raster import rasterize_page

    vals = lc_tag_values(doc_id)
    lines = []
    y = 30.0
    for i, (code, v) in enumerate(vals.items()):
        shown = code.lower() if i % 2 else code
        spans = [{"bbox": [36.0, y, 36.0 + 6.0 * len(shown), y + 10.0],
                  "text": shown}]
        if i % 2 == 0:
            d = f"FIELD {i}"
            spans.append({"bbox": [150.0, y, 150.0 + 6.0 * len(d), y + 10.0],
                          "text": d})
        spans.append({"bbox": [300.0, y, 300.0 + 6.0 * len(v), y + 10.0],
                      "text": v})
        lines.append({"bbox": [36.0, y, 460.0, y + 10.0], "spans": spans})
        y += 12.0
    page = {"page_num": 1,
            "blocks": [{"bbox": [36.0, 30.0, 460.0, y], "lines": lines}]}
    return minipng.encode_gray(rasterize_page(page, glyphs=True))


# appended to every 20th PO page (doc_id % 20 == 12): enough data_report
# signal to flip the regex and token-set techniques while keyword and ML
# stay purchase_order → fused category purchase_order at "2/4". These
# planted disagreement docs make the technique-agreement stats (A8) and
# the vote distribution (A2) DISCRIMINATING oracles — a broken technique
# changes the counts (VERDICT r1 "technique_stats oracle is weak").
AMBIGUOUS_PO_SUFFIX = (
    "data query table row spark merge join scan filter sort group hash"
)


def is_ambiguous_po(doc_id: int) -> bool:
    return doc_id % 20 == 12  # always archetype 2 (12 % 5 == 2)


def golden_text(doc_id: int, text: str) -> str:
    if is_malformed(doc_id):
        return ""
    a = archetype(doc_id)
    if a in (0, 3):
        return text
    if a == 2:
        base = "\n".join(po_lines(doc_id))
        if is_ambiguous_po(doc_id):
            base += "\n" + AMBIGUOUS_PO_SUFFIX
        return base
    if is_invoice(doc_id):
        return "\n".join(invoice_lines(doc_id))
    return ""


def expected_category(doc_id: int) -> str:
    """Expected classifier outcome by construction (oracle CASE)."""
    if is_malformed(doc_id):
        return "unclassified"
    a = archetype(doc_id)
    if a == 2:
        return "purchase_order"
    if a in (0, 3):
        return "data_report"
    if is_invoice(doc_id):
        return "invoice"
    return "unclassified"


# ---------------------------------------------------------------------------
# HTML templates (boilerplate must be stripped by the generic extractor)
# ---------------------------------------------------------------------------

_NAV = (
    '<nav><a href="/">Home</a> <a href="/about">About us</a> '
    '<a href="/contact">Contact</a></nav>'
)
_FOOTER = (
    '<footer><div><a href="/privacy">Privacy policy</a> '
    '<a href="/terms">Terms of service</a> '
    '<a href="/subscribe">Subscribe to the newsletter</a></div></footer>'
)
_ASIDE = (
    "<aside><ul>"
    '<li><a href="/rel/1">Related story about data engines</a></li>'
    '<li><a href="/rel/2">Another related story right here</a></li>'
    "</ul></aside>"
)


def _html_article(doc_id: int, text: str) -> str:
    return (
        "<html><head><title>Article</title><style>body{margin:0}</style></head><body>"
        f"{_NAV}<header><h1>Article {doc_id}</h1></header>"
        f"<article><p>{text}</p></article>"
        f"{_ASIDE}{_FOOTER}</body></html>"
    )


def _html_linkfarm(doc_id: int) -> str:
    lis = "".join(
        f'<li><a href="/cat/{doc_id}/{i}">Category listing number {i} with many entries</a></li>'
        for i in range(12)
    )
    return (
        "<html><head><title>Index</title></head><body>"
        f'{_NAV}<div class="index"><ul>{lis}</ul><p>Browse all.</p></div>{_FOOTER}'
        "</body></html>"
    )


def _html_po(doc_id: int) -> str:
    f = po_fields(doc_id)
    lines = list(po_lines(doc_id))
    if is_ambiguous_po(doc_id):
        lines.append(AMBIGUOUS_PO_SUFFIX)
    paras = "".join(f"<p>{ln}</p>" for ln in lines)
    # short table cells (<25 chars) exercise table traversal without joining
    # the main content (each cell block falls under MIN_BLOCK_CHARS)
    table = (
        "<table>"
        f"<tr><th>PO</th><td>{f['po_number']}</td></tr>"
        f"<tr><th>QTY</th><td>{f['quantity']}</td></tr>"
        f"<tr><th>CCY</th><td>{f['currency']}</td></tr>"
        "</table>"
    )
    return (
        "<html><head><title>PO</title></head><body>"
        f"{_NAV}<header><h1>Purchase order</h1></header>"
        f"<main>{paras}{table}</main>{_FOOTER}</body></html>"
    )


def _html_report(doc_id: int, text: str) -> str:
    return (
        "<html><head><title>Report</title></head><body>"
        f"{_NAV}<header><h2>Quarterly report {doc_id}</h2></header>"
        f'<main><div class="content"><p>{text}</p></div></main>'
        f"{_ASIDE}{_FOOTER}</body></html>"
    )


def _html_invoice(doc_id: int) -> str:
    paras = "".join(f"<p>{ln}</p>" for ln in invoice_lines(doc_id))
    return (
        "<html><head><title>Invoice</title></head><body>"
        f"{_NAV}<header><h1>Proforma invoice</h1></header>"
        f"<main>{paras}</main>{_FOOTER}</body></html>"
    )


def _html_blank(doc_id: int) -> str:
    return (
        "<html><head><title>.</title></head><body>"
        '<div>&nbsp;</div><p>.</p></body></html>'
    )


def _encode_variant(doc_id: int, html: str) -> bytes:
    """Legacy-encoding variant (``encodings=True`` corpora): by
    ``doc_id % 4`` the page ships as UTF-8 / UTF-16 (BOM) / ISO-8859-1
    (``<meta charset>``) / windows-1252 (http-equiv). The legacy variants
    inject a head-only marker containing a non-ASCII byte (``é`` 0xE9 /
    ``€`` 0x80) that is INVALID UTF-8 — so a sniffing decoder must
    actually take the meta-charset path, while the golden text is
    untouched (head content never reaches the extraction). Non-ASCII
    pages keep UTF-8 for the 8-bit variants (exact-roundtrip gate)."""
    enc = doc_id % 4
    if enc == 1:
        return html.encode("utf-16")  # BOM-prefixed, any content
    if enc == 2 and html.isascii():
        h2 = html.replace(
            "<head>",
            '<head><meta charset="iso-8859-1"><title>Caf\xe9</title>', 1)
        return h2.encode("latin-1")
    if enc == 3 and html.isascii():
        h2 = html.replace(
            "<head>",
            '<head><meta http-equiv="Content-Type" '
            'content="text/html; charset=windows-1252">'
            "<title>caf€</title>", 1)
        return h2.encode("cp1252")
    return html.encode("utf-8")


def is_noindex(doc_id: int) -> bool:
    """``robots=True`` corpora: ``doc_id % 11 == 5`` pages carry
    ``<meta name="robots" content="noindex">`` (head-only — golden text
    unchanged); a compliant curation pipeline must drop them."""
    return doc_id % 11 == 5


def payload_for(doc_id: int, text: str, *, pdf_mode: bool = False,
                real_pdf: bool = False, encodings: bool = False,
                robots: bool = False) -> bytes:
    if is_malformed(doc_id):
        if real_pdf:  # structurally-damaged real PDF → error row
            return b"%PDF-1.4\n%%corrupt: no objects follow\n"
        return b"\xff\xfe\x00<html><body>truncat"
    if real_pdf:
        # genuine %PDF-1.4 bytes (text objects; rotated stream order so
        # extraction must reading-order-sort; odd docs FlateDecode-compressed)
        from documentai_ray.functions.pdfwrite import text_to_pdf, wrap_text_lines
        return text_to_pdf(wrap_text_lines(text), shuffle_key=doc_id,
                           compress=doc_id % 2 == 1)
    if pdf_mode:
        payload, _ = minipdf.build_from_text(text, shuffle_key=doc_id)
        return payload
    a = archetype(doc_id)
    if a == 0:
        html = _html_article(doc_id, text)
    elif a == 1:
        html = _html_linkfarm(doc_id)
    elif a == 2:
        html = _html_po(doc_id)
    elif a == 3:
        html = _html_report(doc_id, text)
    elif is_invoice(doc_id):
        html = _html_invoice(doc_id)
    elif is_lc(doc_id):
        html = _html_lc(doc_id)
    else:
        html = _html_blank(doc_id)
    if robots and is_noindex(doc_id):
        html = html.replace(
            "<head>", '<head><meta name="robots" content="noindex">', 1)
    if encodings:
        return _encode_variant(doc_id, html)
    return html.encode("utf-8")


# ---------------------------------------------------------------------------
# corpus builders
# ---------------------------------------------------------------------------

def synth_pages_table(
    sf_dir: str,
    *,
    with_dups: bool = True,
    with_near_dups: bool = False,
    pdf_mode: bool = False,
    real_pdf: bool = False,
    encodings: bool = False,
    robots: bool = False,
    copies: int = 1,
) -> pa.Table:
    """Build the pages corpus as one Arrow table (small scales only).

    ``copies > 1`` replicates the document set with shifted doc_ids
    (``doc_id + c * 10_000_000``) to scale the corpus for benchmarks.
    """
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    urls: list[str] = []
    tss: list[_dt.datetime] = []
    payloads: list[bytes] = []
    goldens: list[str] = []
    langs: list[str] = []

    base_ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    doc_langs = docs.column("lang").to_pylist()
    sources = docs.column("source").to_pylist()

    for c in range(copies):
        off = c * 10_000_000
        for did, text, lang, source in zip(base_ids, texts, doc_langs, sources):
            doc_id = did + off
            url = url_for(doc_id, source)
            ts = warc_ts_for(doc_id)
            urls.append(url)
            tss.append(ts)
            payloads.append(payload_for(doc_id, text, pdf_mode=pdf_mode,
                                        real_pdf=real_pdf,
                                        encodings=encodings, robots=robots))
            goldens.append(
                text if (pdf_mode or real_pdf) and not is_malformed(doc_id)
                else golden_text(doc_id, text)
            )
            if pdf_mode and not is_malformed(doc_id):
                # golden for pdf_mode is the walk text, computed by construction
                _, expected = minipdf.build_from_text(text, shuffle_key=doc_id)
                goldens[-1] = expected
            elif real_pdf and not is_malformed(doc_id):
                # golden for real-PDF mode: the deterministic 8-words/line
                # relayout (same wrap as pdf_mode — shared oracle SQL)
                from documentai_ray.functions.pdfwrite import wrap_text_lines
                goldens[-1] = "\n".join(wrap_text_lines(text))
            langs.append(lang)
            if with_dups and doc_id % 20 == 0:
                urls.append(url)
                tss.append(ts - _dt.timedelta(days=1))
                payloads.append(_html_blank(doc_id).encode("utf-8"))
                goldens.append("")  # stale capture; dedup must drop this row
                langs.append(lang)
            if with_near_dups and doc_id % 50 in (3, 7) and not is_malformed(doc_id):
                g = golden_text(doc_id, text)
                if g:
                    near = g + " the"
                    paras = "".join(f"<p>{ln}</p>" for ln in near.split("\n"))
                    html = (
                        "<html><head><title>amp</title></head><body>"
                        f"{_NAV}<main>{paras}</main>{_FOOTER}</body></html>"
                    )
                    urls.append(url + "?amp=1")
                    tss.append(ts + _dt.timedelta(seconds=1))
                    payloads.append(html.encode("utf-8"))
                    goldens.append(near)
                    langs.append(lang)

    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(tss, type=pa.timestamp("us")),
            "html": pa.array(payloads, type=pa.large_binary()),
            "text": pa.array(goldens, type=pa.large_string()),
            "lang": pa.array(langs, type=pa.string()),
        }
    )


def pages_dataset(sf_dir: str, *, num_blocks: int = 8, **kwargs):
    """Pages corpus as a ``ray.data.Dataset`` split into ``num_blocks`` blocks.

    At real scale this is ``ray.data.read_parquet`` over the crawl dump; the
    synthesizer stands in for the dump in-sandbox. ``repartition`` without
    shuffle just splits blocks so downstream stages parallelize.
    """
    import ray.data

    table = synth_pages_table(sf_dir, **kwargs)
    return ray.data.from_arrow(table).repartition(num_blocks)


def synth_pages_batch(batch: pa.Table, *, copies: int = 1,
                      with_dups: bool = True, with_near_dups: bool = False,
                      pdf_mode: bool = False) -> pa.Table:
    """Distributed corpus synthesis: one documents batch → its page rows
    (all ``copies``). Pure per-row derivation — no cross-row state — so the
    generator itself scales as a ``map_batches`` stage instead of a
    driver-side loop."""
    urls: list[str] = []
    tss: list[_dt.datetime] = []
    payloads: list[bytes] = []
    goldens: list[str] = []
    langs: list[str] = []
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    doc_langs = batch.column("lang").to_pylist()
    sources = batch.column("source").to_pylist()
    for c in range(copies):
        off = c * 10_000_000
        for did, text, lang, source in zip(ids, texts, doc_langs, sources):
            doc_id = did + off
            urls.append(url_for(doc_id, source))
            tss.append(warc_ts_for(doc_id))
            payloads.append(payload_for(doc_id, text, pdf_mode=pdf_mode))
            if pdf_mode and not is_malformed(doc_id):
                _, expected = minipdf.build_from_text(text, shuffle_key=doc_id)
                goldens.append(expected)
            else:
                goldens.append(golden_text(doc_id, text))
            langs.append(lang)
            if with_dups and doc_id % 20 == 0:
                urls.append(urls[-1])
                tss.append(tss[-1] - _dt.timedelta(days=1))
                payloads.append(_html_blank(doc_id).encode("utf-8"))
                goldens.append("")
                langs.append(lang)
            if with_near_dups and doc_id % 50 in (3, 7) and not is_malformed(doc_id):
                g = golden_text(doc_id, text)
                if g:
                    near = g + " the"
                    paras = "".join(f"<p>{ln}</p>" for ln in near.split("\n"))
                    html = ("<html><head><title>amp</title></head><body>"
                            f"{_NAV}<main>{paras}</main>{_FOOTER}</body></html>")
                    urls.append(url_for(doc_id, source) + "?amp=1")
                    tss.append(warc_ts_for(doc_id) + _dt.timedelta(seconds=1))
                    payloads.append(html.encode("utf-8"))
                    goldens.append(near)
                    langs.append(lang)
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(tss, type=pa.timestamp("us")),
            "html": pa.array(payloads, type=pa.large_binary()),
            "text": pa.array(goldens, type=pa.large_string()),
            "lang": pa.array(langs, type=pa.string()),
        }
    )


def write_pages_corpus_distributed(out_dir: str, sf_dir: str, *, copies: int = 1,
                                   **kwargs) -> str:
    """Corpus materialization as a Ray pipeline: read documents → synthesize
    page rows per batch → sharded parquet. Content-identical to
    ``write_pages_corpus`` up to row order."""
    import functools

    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    ).repartition(32)
    gen = functools.partial(synth_pages_batch, copies=copies, **kwargs)
    pages = docs.map_batches(gen, batch_format="pyarrow", batch_size=256)
    pages.write_parquet(out_dir)
    return out_dir


def write_pages_corpus(out_dir: str, sf_dir: str, *, shards: int = 8, **kwargs) -> str:
    """Materialize the corpus to sharded Parquet (bench reads it back)."""
    import os

    table = synth_pages_table(sf_dir, **kwargs)
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    per = (n + shards - 1) // shards
    for s in range(shards):
        chunk = table.slice(s * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, os.path.join(out_dir, f"pages-{s:05d}.parquet"))
    return out_dir
