"""Seeded inputs for the flagship benchmark, with a golden text per url.

Built from the seed alone and without importing the program: the HTML
pages follow the extractor's published contract (block elements split
text, nav/header/footer/aside are dropped, blocks under 25 characters and
link-heavy blocks are dropped, whitespace is collapsed, blocks are joined
with a newline), and the PDF payloads are laid out so that reading order
differs from storage order.

Every workload has the same row count, document mix and language mix for
every seed, so seeds change content but not the amount of work. Beside the
text, the golden row of a url holds what the later stages must make of it
by construction: its category, its PO or invoice number, and on MINIPDF
purchase orders the box of the PO number.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import random

import pyarrow as pa

EPOCH = dt.datetime(2024, 1, 1)

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.large_binary()),
    ("lang", pa.string()),
])

_SYLLABLES = ("ka", "lo", "mi", "ren", "sta", "vor", "del", "qua", "tin",
              "bra", "sel", "om", "ux", "pre", "nal", "dor", "fi", "gan",
              "het", "jus", "ple", "rot", "sum", "war")
# A fixed vocabulary: the seed picks words, it does not change the words.
VOCAB = tuple(sorted({a + b + c for a in _SYLLABLES[:12]
                      for b in _SYLLABLES[6:18] for c in ("", "s", "ed")}))
REPORT_WORDS = ("data", "query", "table", "report", "quarterly", "revenue",
                "analysis", "growth", "metric", "index", "summary", "results")

# SWIFT MT700 field tags of a letter-of-credit application
LC_TAGS = ("40A", "23", "31C", "40E", "31D", "51A", "50", "59", "32B", "39A",
           "39C", "41A", "42C", "42A", "42M", "42P", "43P", "43T", "44A", "44E",
           "44F", "44B", "44C", "44D", "45A", "46A", "47A", "71B", "48", "49",
           "53A", "78", "57A", "72")

NAV = ('<nav><a href="/">Home</a> <a href="/about">About us</a> '
       '<a href="/contact">Contact</a></nav>')
FOOTER = ('<footer><div><a href="/privacy">Privacy policy</a> '
          '<a href="/terms">Terms of service</a></div></footer>')
ASIDE = ('<aside><ul><li><a href="/rel/1">Related story about the market</a>'
         '</li><li><a href="/rel/2">Another related story right here</a></li>'
         '</ul></aside>')

# The HTML mix, the malformed share, the stale-capture share, the heavy-host
# share and the languages follow the archetype rules of the repo's pages
# corpus (``sources/pages.py``, FIXTURES.md section 1): article, link farm,
# purchase order and report 20% each, proforma invoice 10%, letter-of-credit
# table page 9% (pages.py fills its blank-page slot with invoices and LC
# pages), malformed 1% (pages.py: doc_id % 97 == 0), one host owning a
# third of the rows, about 5% stale captures, mostly ``en`` with de/fr/zz. The PDF mix
# is half MINIPDF, half real PDF, with the same 1% damaged payloads.
# resume_partitioned has a higher stale share, so that dedup and resume
# see more than one capture per url.
#
# name -> rows per job, document mix, share of urls with a stale capture,
# share of rows on the heavy host. The corpus's own bench jobs hold 100k+
# rows; a run here must hold several jobs in a few seconds on one core, so
# jobs are smaller. ``overhead.py`` measures the share of job wall that
# does not grow with the rows at these sizes.
HTML_MIX = (("article", 20), ("linkfarm", 20), ("po", 20), ("report", 20),
            ("invoice", 10), ("lc", 9), ("malformed", 1))
WORKLOADS = {
    "web_html": dict(rows=3000, mix=HTML_MIX, stale=0.05, heavy=1 / 3),
    "pdf_boxes": dict(rows=300, mix=(("minipdf_po", 25), ("minipdf_report", 25),
                                     ("pdf_po", 25), ("pdf_report", 24),
                                     ("pdf_malformed", 1)),
                      stale=0.0, heavy=1 / 3),
    "resume_partitioned": dict(rows=1800, mix=HTML_MIX, stale=0.15, heavy=1 / 3),
}
# language -> share of documents (FIXTURES.md: "mostly en, with a minority
# of de/fr/zz"; the shares are this benchmark's choice)
LANGS = (("en", 88), ("de", 4), ("fr", 4), ("zz", 4))
HEAVY_HOST = "heavy.example.com"
N_HOSTS = 120


def _sentence(rng: random.Random, n: int) -> str:
    words = [rng.choice(VOCAB) for _ in range(n)]
    for i in range(0, n, 7):
        words[i] = rng.choice(REPORT_WORDS)
    return " ".join(words)


def _paragraphs(rng: random.Random, size: int) -> list[str]:
    """``3 + size`` paragraphs of 25 to 70 words; a job holds the same
    number of documents of each size for every seed."""
    return [_sentence(rng, 25 + 15 * ((size + j) % 4)) for j in range(3 + size)]


def po_lines(rng: random.Random) -> tuple[list[str], dict]:
    """A purchase order in the layout of the repo's pages corpus, and its
    golden entities."""
    qty = rng.randint(100, 499)
    f = {
        "po_number": f"PO-{rng.randint(10000, 99999)}",
        "po_date": f"{rng.randint(1, 28):02d}.{rng.randint(1, 12):02d}.2024",
        "seller": f"GLOBAL TRADING COMPANY {rng.randint(0, 9)} LIMITED",
        "buyer": f"ACME IMPORTS {rng.randint(0, 9)} LLC",
        "goods": f"STEEL COILS GRADE {rng.randint(0, 9)}",
        "quantity": f"{qty}.00",
        "unit": "MT",
        "currency": "USD",
        "total_amount": f"{qty * 500:,}.00",
        "incoterms": "CFR SINGAPORE (INCOTERMS 2020)",
    }
    # the eight purchase-order rules: only "QUANTITY ... less than 300" can fail
    f["rules_failed"] = int(qty >= 300)
    f["rules_passed"] = 8 - f["rules_failed"]
    return [
        f"PO NUMBER: {f['po_number']} DATED {f['po_date']}",
        f"SELLER: {f['seller']}",
        f"BUYER: {f['buyer']}",
        f"DESCRIPTION OF GOODS: {f['goods']}",
        f"QUANTITY: {f['quantity']} {f['unit']} NET WEIGHT",
        f"TOTAL AMOUNT: {f['currency']} {f['total_amount']}",
        f"DELIVERY {f['incoterms']}",
    ], f


def invoice_lines(rng: random.Random) -> tuple[list[str], dict]:
    """A proforma invoice in the layout of the repo's pages corpus, and its
    golden entities."""
    q1, p1 = rng.randint(50, 149), rng.randint(500, 549)
    q2, p2 = rng.randint(20, 99), rng.randint(30, 49)
    f = {
        "inv_number": f"INV-{rng.randint(10000, 99999)}",
        "inv_date": f"{rng.randint(1, 28):02d}.{rng.randint(1, 12):02d}.2024",
        "seller": f"GLOBAL TRADING COMPANY {rng.randint(0, 9)} LIMITED",
        "buyer": f"ACME IMPORTS {rng.randint(0, 9)} LLC",
        "currency": "USD",
        "total_amount": f"{q1 * p1 + q2 * p2}.00",
        "incoterms": "CIF ROTTERDAM (INCOTERMS 2020)",
    }
    return [
        f"PROFORMA INVOICE NUMBER: {f['inv_number']} DATED {f['inv_date']}",
        f"SELLER: {f['seller']}",
        f"BUYER: {f['buyer']}",
        "DESCRIPTION HS CODE QTY UNIT PRICE AMOUNT",
        f"STEEL COILS GRADE {rng.randint(0, 9)} 7209.1{rng.randint(0, 9)} "
        f"{q1} MT {p1}.00 {q1 * p1}.00",
        f"ALUMINIUM SHEETS TYPE {rng.randint(0, 9)} 7606.1{rng.randint(0, 9)} "
        f"{q2} KG {p2}.00 {q2 * p2}.00",
        f"TOTAL AMOUNT: {f['currency']} {f['total_amount']}",
        f"DELIVERY {f['incoterms']}",
    ], f


def html_page(kind: str, rng: random.Random, doc: int, size: int
              ) -> tuple[str, str, dict]:
    """One HTML page, its golden main-content text and golden entities."""
    fields: dict = {}
    if kind == "article":
        paras = _paragraphs(rng, size)
        body = (f"{NAV}<header><h1>Article {doc}</h1></header><article>"
                + "".join(f"<p>{p}</p>" for p in paras) + f"</article>{ASIDE}")
    elif kind == "report":
        paras = _paragraphs(rng, size)
        body = (f"{NAV}<header><h2>Quarterly report {doc}</h2></header>"
                '<main><div class="content">' + "".join(f"<p>{p}</p>" for p in paras)
                + f"</div></main>{ASIDE}")
    elif kind == "lc":
        # every cell is below the 25-character block floor: no main content
        paras = []
        cells = [(t.lower() if i % 2 else t, f"V{t}-{rng.randint(0, 8)}")
                 for i, t in enumerate(LC_TAGS)]
        body = NAV + "<table>" + "".join(
            f"<tr><td>{t}</td><td>{v}</td></tr>" if i % 2
            else f"<tr><td>{t}</td><td>Field {i}</td><td>{v}</td></tr>"
            for i, (t, v) in enumerate(cells)) + "</table>"
    elif kind in ("po", "invoice"):
        paras, fields = po_lines(rng) if kind == "po" else invoice_lines(rng)
        # short table cells stay below the 25-character block floor
        body = (f"{NAV}<header><h1>Document</h1></header><main>"
                + "".join(f"<p>{p}</p>" for p in paras)
                + "<table><tr><th>REF</th><td>A-1</td></tr></table></main>")
    elif kind == "linkfarm":
        paras = []
        body = (f'{NAV}<div class="index"><ul>' + "".join(
            f'<li><a href="/cat/{doc}/{i}">Category listing number {i} with '
            f"many entries</a></li>" for i in range(8 + 2 * size))
            + "</ul><p>Browse all.</p></div>")
    else:
        raise ValueError(f"unknown page kind {kind}")
    html = (f"<html><head><title>Page {doc}</title><style>body{{margin:0}}"
            f"</style></head><body>{body}{FOOTER}</body></html>")
    return html, "\n".join(paras), fields


def _walk_lines(kind: str, rng: random.Random, size: int) -> tuple[list[str], dict]:
    if kind.endswith("_po"):
        return po_lines(rng)
    words = " ".join(_paragraphs(rng, size) + _paragraphs(rng, 3 - size)).split()
    return [" ".join(words[i:i + 8]) for i in range(0, len(words), 8)], {}


def minipdf_payload(lines: list[str], rotate: int) -> tuple[bytes, str]:
    """A MINIPDF layout document (magic + canonical JSON page tree): three
    lines per block, four blocks per page, blocks stored rotated so that
    storage order is not reading order."""
    blocks = [lines[i:i + 3] for i in range(0, len(lines), 3)]
    pages, texts = [], []
    for pi in range(0, len(blocks), 4):
        page_blocks = blocks[pi:pi + 4]
        stored = []
        for bi, blines in enumerate(page_blocks):
            y0 = 50.0 + 100.0 * bi
            jl = []
            for li, text in enumerate(blines):
                y, x, spans = y0 + 12.0 * li, 36.0, []
                for w in text.split(" "):
                    spans.append({"bbox": [x, y, x + 6.0 * len(w), y + 10.0],
                                  "text": w})
                    x += 6.0 * len(w) + 4.0
                jl.append({"bbox": [36.0, y, x, y + 10.0], "spans": spans})
            stored.append({"bbox": [36.0, y0, 560.0, y0 + 12.0 * len(blines)],
                           "lines": jl})
        r = (rotate + pi) % len(stored)
        pages.append({"page_num": pi // 4 + 1, "blocks": stored[r:] + stored[:r]})
        texts.append("\n".join("\n".join(b) for b in page_blocks))
    body = json.dumps({"pages": pages}, sort_keys=True, separators=(",", ":"))
    return b"%MPDF1\n" + body.encode(), "\n".join(texts)


def _pdf_string(s: str) -> bytes:
    return s.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)").encode("latin-1")


def pdf_payload(lines: list[str], rotate: int, compress: bool) -> tuple[bytes, str]:
    """A genuine PDF 1.4 file: one Helvetica text run per line, 40 lines per
    page, text runs of each page stored rotated out of reading order."""
    import zlib

    chunks_per_page = [lines[i:i + 40] for i in range(0, len(lines), 40)]
    objs = [b"", b"", b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"]
    kids = []
    for pi, plines in enumerate(chunks_per_page):
        runs = [b"BT /F1 12 Tf 72 %d Td (%s) Tj ET" % (720 - 14 * li, _pdf_string(t))
                for li, t in enumerate(plines)]
        r = (rotate + pi) % len(runs)
        content = b"\n".join(runs[r:] + runs[:r])
        if compress:
            data = zlib.compress(content, 6)
            objs.append(b"<< /Length %d /Filter /FlateDecode >>\nstream\n%s\nendstream"
                        % (len(data), data))
        else:
            objs.append(b"<< /Length %d >>\nstream\n%s\nendstream" % (len(content), content))
        objs.append(b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                    b"/Resources << /Font << /F1 3 0 R >> >> /Contents %d 0 R >>"
                    % len(objs))
        kids.append(len(objs))
    objs[0] = b"<< /Type /Catalog /Pages 2 0 R >>"
    objs[1] = b"<< /Type /Pages /Kids [%s] /Count %d >>" % (
        b" ".join(b"%d 0 R" % k for k in kids), len(kids))
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, body in enumerate(objs, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n%s\nendobj\n" % (i, body)
    xref = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(objs) + 1)
    out += b"".join(b"%010d 00000 n \n" % o for o in offsets)
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(objs) + 1, xref)
    return bytes(out), "\n".join(lines)


def _kinds(spec: dict, rng: random.Random) -> list[tuple[str, int]]:
    """(kind, size) per document: the exact mix for the row count, sizes
    cycling 0-3 within each kind, in seeded order."""
    total = sum(w for _, w in spec["mix"])
    counts = {name: spec["rows"] * w // total for name, w in spec["mix"]}
    counts[spec["mix"][0][0]] += spec["rows"] - sum(counts.values())
    kinds = [(name, i % 4) for name, n in counts.items() for i in range(n)]
    rng.shuffle(kinds)
    return kinds


def _host(rng: random.Random, heavy: float) -> str:
    if rng.random() < heavy:
        return HEAVY_HOST
    # Zipf-like tail: low host ids are more common
    return f"site{int(N_HOSTS ** rng.random()) - 1:03d}.example.com"


def _langs(n: int, rng: random.Random) -> list[str]:
    """Exactly the LANGS shares of ``n`` documents, in seeded order."""
    out = [lang for lang, share in LANGS[1:] for _ in range(n * share // 100)]
    out += ["en"] * (n - len(out))
    rng.shuffle(out)
    return out


# page kind -> the category the classifier must give it, where the page's
# construction decides it: purchase orders and invoices match their
# category's patterns, and pages without main content are unclassified.
# Articles and reports of generated words are not checked.
CATEGORY = {"po": "purchase_order", "minipdf_po": "purchase_order",
            "pdf_po": "purchase_order", "invoice": "invoice",
            "linkfarm": "unclassified", "lc": "unclassified",
            "malformed": "unclassified", "pdf_malformed": "unclassified"}
# the flat entity columns; invoices share seller..incoterms with orders
PO_FIELDS = ("po_number", "po_date", "seller", "buyer", "goods", "quantity",
             "unit", "currency", "total_amount", "incoterms")
ENTITY_FIELDS = PO_FIELDS + ("inv_number", "inv_date")
# a payload that is not valid UTF-8 (pages.py's malformed rows), and a PDF
# with no objects: both must become error rows with empty text
MALFORMED = {"malformed": b"\xff\xfe\x00<html><body>truncat",
             "pdf_malformed": b"%PDF-1.4\n%%corrupt: no objects follow\n"}
# The po_number box on a MINIPDF purchase order: third word of the first
# line of the first block on page 1, laid out at x 98-146, y 50-60 (x from
# 36, 6 units per letter, 4 between words; see minipdf_payload), in the
# reference's output coordinates, which are the layout's scaled by 2.
MINIPDF_PO_BOX = (1, 196.0, 100.0, 292.0, 120.0)

GOLDEN_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("kind", pa.string()),
    ("text", pa.string()),
    # null: not checked (category, entities and rules)
    ("category", pa.string()),
    *[(f, pa.string()) for f in ENTITY_FIELDS],
    ("rules_passed", pa.int64()),
    ("rules_failed", pa.int64()),
    # [page, x0, y0, x1, y1] of po_number when known exactly
    ("po_box", pa.list_(pa.float64())),
])


def make_pages(workload: str, seed: int, rows: int | None = None
               ) -> tuple[pa.Table, pa.Table]:
    """The workload's input pages and one golden row per url."""
    spec = dict(WORKLOADS[workload])
    if rows is not None:
        spec["rows"] = rows
    rng = random.Random(f"{workload}:{seed}")
    urls, tss, payloads, langs, golden = [], [], [], [], []
    n_stale = round(spec["rows"] * spec["stale"] / (1 + spec["stale"]))
    kinds = _kinds(dict(spec, rows=spec["rows"] - n_stale), rng)
    doc_langs = _langs(len(kinds), rng)
    stale_docs = set(rng.sample(range(len(kinds)), n_stale))
    for doc, (kind, size) in enumerate(kinds):
        url = f"https://{_host(rng, spec['heavy'])}/p/{seed}/{doc}"
        ts = EPOCH + dt.timedelta(seconds=60 * doc)
        fields: dict = {}
        if kind in MALFORMED:
            payload, text = MALFORMED[kind], ""
        elif kind.startswith("minipdf"):
            lines, fields = _walk_lines(kind, rng, size)
            payload, text = minipdf_payload(lines, doc)
        elif kind.startswith("pdf"):
            lines, fields = _walk_lines(kind, rng, size)
            payload, text = pdf_payload(lines, doc, doc % 2 == 1)
        else:
            html, text, fields = html_page(kind, rng, doc, size)
            payload = html.encode()
        urls.append(url)
        tss.append(ts)
        payloads.append(payload)
        langs.append(doc_langs[doc])
        row = {"url": url, "kind": kind, "text": text,
               "po_box": list(MINIPDF_PO_BOX) if kind == "minipdf_po" else None}
        if kind in CATEGORY:
            row.update({f: fields.get(f, "") for f in ENTITY_FIELDS},
                       category=CATEGORY[kind],
                       rules_passed=fields.get("rules_passed", 0),
                       rules_failed=fields.get("rules_failed", 0))
        golden.append(row)
        if doc in stale_docs:
            # an older capture of the same url with other content: only the
            # latest capture may reach the output
            old, _, _ = html_page("article", rng, doc, 1)
            urls.append(url)
            tss.append(ts - dt.timedelta(days=1))
            payloads.append(old.encode())
            langs.append(doc_langs[doc])
    order = list(range(len(urls)))
    rng.shuffle(order)
    table = pa.table({
        "url": pa.array([urls[i] for i in order], pa.string()),
        "warc_ts": pa.array([tss[i] for i in order], pa.timestamp("us")),
        "html": pa.array([payloads[i] for i in order], pa.large_binary()),
        "lang": pa.array([langs[i] for i in order], pa.string()),
    }, schema=PAGES_SCHEMA)
    return table, pa.Table.from_pylist(golden, schema=GOLDEN_SCHEMA)


def input_digest(table: pa.Table) -> str:
    """Content digest of an input table (order-sensitive)."""
    h = hashlib.sha256()
    for name in table.column_names:
        for v in table.column(name).to_pylist():
            h.update(repr(v).encode() if not isinstance(v, bytes) else v)
            h.update(b"\x00")
    return h.hexdigest()
