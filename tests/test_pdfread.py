"""Real-`%PDF-` writer/parser pair (S1/M1 real-format loop).

Reference semantics: fitz.open + page.get_text() joined "\n"
(/root/reference/microservices/entity-extraction-service/app.py:515-533);
the rebuild's parser is a from-scratch PDF 1.4 content-stream reader
(functions/pdfread.py) fed by the engine's own text-object writer
(functions/pdfwrite.text_to_pdf)."""

import pyarrow as pa
import pytest

from documentai_ray.functions import pdfread
from documentai_ray.functions.pdfwrite import text_to_pdf, wrap_text_lines
from documentai_ray.stages.extract import extract_batch, extract_one

TEXT = ("The quick brown fox jumps over the lazy dog and some more filler "
        "words so the wrap spans multiple lines and pages " * 20)


def test_roundtrip_identity():
    lines = wrap_text_lines(TEXT)
    for shuffle in (0, 3, 17):
        pdf = text_to_pdf(lines, lines_per_page=10, shuffle_key=shuffle)
        got, boxes = pdfread.extract_text(pdf)
        assert got == "\n".join(lines)
        assert boxes[0]["page"] == 1 and boxes[-1]["page"] > 1


def test_rotated_stream_order_requires_position_sort():
    """shuffle_key rotates BT…ET emission order — naive stream-order
    concatenation would differ; position sort restores reading order."""
    lines = [f"line number {i} of the fixture" for i in range(9)]
    pdf = text_to_pdf(lines, lines_per_page=9, shuffle_key=4)
    # stream order really is rotated
    raw = pdf.decode("latin-1")
    assert raw.index("line number 4") < raw.index("line number 0")
    got, _ = pdfread.extract_text(pdf)
    assert got == "\n".join(lines)


def test_flatedecode_stream():
    lines = wrap_text_lines(TEXT)
    pdf = text_to_pdf(lines, compress=True)
    assert b"/FlateDecode" in pdf
    got, _ = pdfread.extract_text(pdf)
    assert got == "\n".join(lines)


def test_escapes_and_unicode():
    lines = ["parens (nested (deep)) and \\ backslash", "café € smørrebrød"]
    got, _ = pdfread.extract_text(text_to_pdf(lines, shuffle_key=1))
    assert got == "\n".join(lines)


def test_empty_document():
    got, boxes = pdfread.extract_text(text_to_pdf([]))
    assert got == "" and boxes == []


def test_operator_set_tj_tm_tstar_quote_hex():
    content = (b"BT /F1 10 Tf 1 0 0 1 72 700 Tm [(He)(llo)] TJ 14 TL T* "
               b"(world) ' ET\nBT /F1 10 Tf 72 600 Td <414243> Tj ET")
    text, _ = pdfread.assemble_page_text(pdfread.text_runs(content))
    assert text == "Hello\nworld\nABC"


def test_malformed_raises_and_degrades_to_error_row():
    for bad in (b"%PDF-1.4\n%%corrupt\n", b"%PDF-1.4\n1 0 obj\n<< broken"):
        with pytest.raises(ValueError):
            pdfread.extract_text(bad)
        text, kind, err, boxes = extract_one(bad)
        assert (text, kind, boxes) == ("", "error", []) and err


def test_extract_batch_dispatches_on_pdf_magic():
    lines = wrap_text_lines("alpha beta gamma delta " * 10)
    batch = pa.table({
        "url": ["https://a/1", "https://a/2"],
        "html": [text_to_pdf(lines, shuffle_key=5),
                 b"<html><body><p>" + b"plain html content of this page " * 4
                 + b"</p></body></html>"],
    })
    out = extract_batch(batch)
    kinds = out.column("payload_kind").to_pylist()
    texts = out.column("text").to_pylist()
    assert kinds == ["pdf", "html"]
    assert texts[0] == "\n".join(lines)
    assert "plain html content" in texts[1]


def test_flagship_over_real_pdf_corpus(ray_session):
    """The flagship chain runs end-to-end on a corpus whose payloads are
    genuine %PDF- bytes (VERDICT r2 #2 done-criterion)."""
    from tests.conftest import SF_SMOKE

    from documentai_ray.pipelines.flagship import flagship
    from documentai_ray.sources.pages import pages_dataset

    ds = pages_dataset(SF_SMOKE, with_dups=False, real_pdf=True)
    out = flagship(ds, dedup=False).select_columns(
        ["url", "payload_kind", "error", "category"]).take_all()
    kinds = {r["payload_kind"] for r in out}
    assert kinds == {"pdf", "error"}
    assert sum(r["payload_kind"] == "error" for r in out) == \
        sum(1 for r in out if r["error"])


def test_real_pdf_raster_ocr_roundtrip():
    """Render → OCR closes on real %PDF payloads too (S3 for the real
    format): rasterize_first_page draws page-1 text runs with the
    bitfont; the OCR read-back equals the parser's page-1 extraction."""
    from documentai_ray.functions.raster import rasterize_first_page
    from documentai_ray.stages.ocr import ocr_image

    text = "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG NUMBER 42 " * 12
    pdf = text_to_pdf(wrap_text_lines(text), lines_per_page=10, shuffle_key=7)
    got, _boxes = ocr_image(rasterize_first_page(pdf))
    want, _ = pdfread.extract_text(pdf, max_pages=1)
    assert got == want
    assert rasterize_first_page(b"%PDF-1.4\n%%corrupt") is None


def test_mutation_fuzz_never_crashes_extract():
    """Real-world robustness: random byte mutations of valid PDFs (and
    truncations) must either extract or degrade to an error row — never
    crash the batch or hang. 300 deterministic mutants."""
    import random

    rng = random.Random(42)
    base = text_to_pdf(wrap_text_lines("lorem ipsum dolor sit amet " * 30),
                       shuffle_key=1)
    basec = text_to_pdf(wrap_text_lines("lorem ipsum dolor sit amet " * 30),
                        compress=True)
    for i in range(300):
        src = bytearray(base if i % 2 else basec)
        if i % 3 == 0:  # truncate
            src = src[:rng.randrange(5, len(src))]
        else:  # flip 1-8 bytes
            for _ in range(rng.randrange(1, 9)):
                src[rng.randrange(len(src))] = rng.randrange(256)
        text, kind, err, boxes = extract_one(bytes(src))
        assert kind in ("pdf", "error", "html", "docx", "xlsx")
        assert isinstance(text, str) and isinstance(boxes, list)


def _minipdf_doc(d: int = 3) -> dict:
    import json

    from documentai_ray.functions import minipdf
    from documentai_ray.sources.pages import po_lines

    payload, _ = minipdf.build_from_lines(po_lines(d) + ["CAFÉ NOTE"], shuffle_key=d)
    return json.loads(payload[len(minipdf.MAGIC):])


def _encode_doc(doc) -> bytes:
    import json

    from documentai_ray.functions import minipdf

    return minipdf.MAGIC + json.dumps(doc).encode()


def _set(path, value):
    """Mutation of a parsed MINIPDF doc: set (or, for ``...``, delete) the
    item at ``path`` (keys and list indices from the document root)."""
    def apply(doc):
        node = doc
        for k in path[:-1]:
            node = node[k]
        if value is ...:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return doc
    return apply


SPAN = ("pages", 0, "blocks", 0, "lines", 0, "spans", 0)
SHAPE_FAULTS = {
    "top_level_list": lambda doc: [doc],
    "no_pages": _set(("pages",), ...),
    "pages_dict": _set(("pages",), {}),
    "pages_str": _set(("pages",), "abc"),
    "page_is_list": _set(("pages", 0), []),
    "no_page_num": _set(("pages", 0, "page_num"), ...),
    "page_num_none": _set(("pages", 0, "page_num"), None),
    "page_num_text": _set(("pages", 0, "page_num"), "one"),
    "page_num_over_int32": _set(("pages", 0, "page_num"), 2**40),
    "page_num_inf": _set(("pages", 0, "page_num"), float("inf")),
    "no_blocks": _set(("pages", 0, "blocks"), ...),
    "blocks_dict": _set(("pages", 0, "blocks"), {"a": 1}),
    "no_block_bbox": _set(("pages", 0, "blocks", 0, "bbox"), ...),
    "short_block_bbox": _set(("pages", 0, "blocks", 0, "bbox"), [1]),
    "no_lines": _set(("pages", 0, "blocks", 0, "lines"), ...),
    "no_line_bbox": _set(("pages", 0, "blocks", 0, "lines", 0, "bbox"), ...),
    "no_spans": _set(("pages", 0, "blocks", 0, "lines", 0, "spans"), ...),
    "no_span_bbox": _set(SPAN + ("bbox",), ...),
    "span_bbox_3": _set(SPAN + ("bbox",), [1.0, 2.0, 3.0]),
    "span_bbox_none": _set(SPAN + ("bbox",), None),
    "span_coord_text": _set(SPAN + ("bbox",), [1.0, 2.0, "x", 4.0]),
    "span_coord_list": _set(SPAN + ("bbox",), [1.0, 2.0, [3.0], 4.0]),
    "no_span_text": _set(SPAN + ("text",), ...),
    "span_text_int": _set(SPAN + ("text",), 7),
    "span_text_surrogate": _set(SPAN + ("text",), "\ud800x"),
}


@pytest.mark.parametrize("name", sorted(SHAPE_FAULTS))
def test_minipdf_shape_faults_raise_value_error(name):
    """A MINIPDF payload that parses as JSON but has the wrong page-tree
    shape raises ValueError, and extract turns it into an error row."""
    from documentai_ray.functions import minipdf

    payload = _encode_doc(SHAPE_FAULTS[name](_minipdf_doc()))
    with pytest.raises(ValueError):
        minipdf.walk(payload)
    out = extract_batch(pa.table({"html": pa.array([payload], pa.large_binary())}))
    assert out.column("payload_kind").to_pylist() == ["error"]


def test_minipdf_mutation_fuzz_raises_only_value_error():
    """1,500 seeded byte mutations of five MINIPDF purchase orders: each walk
    returns or raises ValueError, each within a time bound, and one
    extract batch over all of them yields a row per payload. Three in four
    mutants flip to printable ASCII, which keeps the JSON parseable more
    often, so the page-tree faults are reached."""
    import random
    import time

    from documentai_ray.functions import minipdf

    assert minipdf.walk(_encode_doc(_minipdf_doc()))[0].endswith("CAFÉ NOTE")
    rng = random.Random(1234)
    bases = [_encode_doc(_minipdf_doc(d)) for d in range(5)]
    mutants, faults = [], 0
    for i in range(1500):
        src = bytearray(bases[i % 5])
        for _ in range(rng.randrange(1, 4)):  # flips after the magic
            src[rng.randrange(len(minipdf.MAGIC), len(src))] = (
                rng.randrange(32, 127) if i % 4 else rng.randrange(256))
        mutants.append(bytes(src))
        t0 = time.perf_counter()
        try:
            minipdf.walk(mutants[-1])
        except ValueError:
            faults += 1
        assert time.perf_counter() - t0 < 0.5
    assert 0 < faults < len(mutants)
    out = extract_batch(pa.table({"html": pa.array(mutants, pa.large_binary())}))
    assert out.num_rows == len(mutants)
    assert out.column("payload_kind").to_pylist().count("error") == faults
