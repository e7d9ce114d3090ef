"""Driver query functions (part 3/6) — split out of ``__ray_entry__.py``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def _q_table_detect(sf_dir: str):
    """M21 text→table detection (2+-space column split, ≥2-row runs) over
    synthetic texts: docs with doc_id%4==0 carry only single-column lines
    (no table), others a 3-column run of 2+doc_id%3 rows."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.entities import detect_tables

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def f(batch: pa.Table) -> pa.Table:
        nt, nr = [], []
        for d in batch.column("doc_id").to_pylist():
            if d % 4 == 0:
                text = "\n".join(f"single column {i}" for i in range(3))
            else:
                rows = [f"a{i}  b{i}  c{i}" for i in range(2 + d % 3)]
                text = "\n".join(rows + ["just one column line"])
            tables = detect_tables(text)
            nt.append(len(tables))
            nr.append(len(tables[0]) if tables else 0)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_tables": pa.array(nt, pa.int64()),
                         "n_rows_first": pa.array(nr, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=512)


def _q_field_validation(sf_dir: str):
    """M24 field-format validators over planted valid/invalid values:
    date format breaks for doc_id%3==0 (slash-year-first), amount for
    %5==0 ('N/A'), currency for %7==0 (lowercase)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.entities import validate_field_formats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def f(batch: pa.Table) -> pa.Table:
        date_ok, amount_ok, ccy_ok = [], [], []
        for d in batch.column("doc_id").to_pylist():
            fields = {
                "po_date": "2024/01/01" if d % 3 == 0 else "01.01.2024",
                "total_amount": "N/A" if d % 5 == 0 else "1,000.00",
                "currency": "usd" if d % 7 == 0 else "USD",
            }
            checks = validate_field_formats(fields)
            date_ok.append(checks["po_date"])
            amount_ok.append(checks["total_amount"])
            ccy_ok.append(checks["currency"])
        return pa.table({"doc_id": batch.column("doc_id"),
                         "date_ok": pa.array(date_ok, pa.bool_()),
                         "amount_ok": pa.array(amount_ok, pa.bool_()),
                         "currency_ok": pa.array(ccy_ok, pa.bool_())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=512)


def _q_doc_type_autodetect(sf_dir: str):
    """M22 keyword doc-type autodetect over extracted pages: PO pages hit
    the purchase_order keyword set, invoices the invoice set, prose pages
    fall to unknown — archetype-discriminating closed form."""
    import pyarrow as pa

    from documentai_ray.stages.entities import autodetect_doc_type

    ds = _extracted_pages_with_doc_id(sf_dir)

    def f(batch: pa.Table) -> pa.Table:
        kinds = [autodetect_doc_type(t or "")
                 for t in batch.column("text").to_pylist()]
        return pa.table({"url": batch.column("url"),
                         "doc_type": pa.array(kinds, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=256)


def _q_pq_codes(sf_dir: str):
    """Product quantization (Jégou et al. 2011): 64-dim embeddings split
    into 4 subspaces, a distributed Lloyd's fit per subspace (the kmeans
    plan), then map-side encoding to 4 small codes — the ANN-at-scale
    compression path (a 256-byte float32 vector becomes 4 bytes). The
    oracle unrolls all four per-subspace fits in SQL and joins the final
    assignments; integer code columns keep float drift out of the
    compare."""
    import ray.data

    from documentai_ray.stages.similarity import pq_encode, pq_fit

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    books = pq_fit(ds, m=4, k=4, iters=2)
    return pq_encode(ds, books)


def _q_jpeg_roundtrip(sf_dir: str):
    """REAL JPEG path (minijpeg, baseline JFIF): constant-gray pages with
    EVEN (c-128) offsets encode → decode EXACTLY (a constant block's only
    nonzero coefficient is the DC; with an even level shift the quantize/
    dequantize chain is lossless), so the decoded mean brightness has the
    same exact-integer oracle as the PNG path. Odd offsets would round —
    evenness is the planted closed-form contract, not a codec limit."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minijpeg import (decode_gray_jpeg,
                                                   encode_gray_jpeg)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        means = []
        nbytes = []
        for did in batch.column("doc_id").to_pylist():
            c = 84 + 2 * (did % 45)  # even offset from 128, range 84-172
            img = np.full((16, 24), c, np.uint8)
            payload = encode_gray_jpeg(img)
            back = decode_gray_jpeg(payload)
            s = int(back.astype(np.int64).sum())
            means.append(s * 1_000_000 // (back.size * 255))
            nbytes.append(len(payload))
        out = pa.table({"doc_id": batch.column("doc_id"),
                        "brightness_ppm": pa.array(means, pa.int64())})
        return out.append_column("jpeg_nonempty",
                                 pa.array([n > 100 for n in nbytes],
                                          pa.bool_()))

    return ds.map_batches(roundtrip, batch_format="pyarrow", batch_size=64)


def _q_tiff_roundtrip(sf_dir: str):
    """REAL uncompressed-TIFF path (minitiff): row-gradient images encode
    → decode LOSSLESSLY, so the exact pixel sum is the oracle (no
    constant-block restriction — baseline TIFF is raw bytes)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minitiff import (decode_gray_tiff,
                                                   encode_gray_tiff)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        sums = []
        for did in batch.column("doc_id").to_pylist():
            rows = np.array([(did + y) % 256 for y in range(8)], np.uint8)
            img = np.repeat(rows[:, None], 16, axis=1)
            back = decode_gray_tiff(encode_gray_tiff(img))
            sums.append(int(back.astype(np.int64).sum()))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "pixel_sum": pa.array(sums, pa.int64())})

    return ds.map_batches(roundtrip, batch_format="pyarrow", batch_size=128)


def _q_tiff_compressed_roundtrip(sf_dir: str):
    """COMPRESSED-TIFF path (minitiff LZW + PackBits + the fax family,
    TIFF 6.0 §9/§10/§11/§13): a per-doc deterministic texture encodes
    through BOTH 8-bit codecs (LZW with Predictor=2 horizontal
    differencing, multi-strip PackBits) and must decode losslessly —
    the exact pixel sum is the oracle — while its >=128 bilevel mask
    round-trips through all FOUR fax compressions (Compression=2 MH,
    3 G3 1-D and 2-D via T4Options, 4 G4) and every output must agree
    cell-for-cell. The 8-bit codecs additionally round-trip through the
    TILED layout (TIFF6 §15, 16x16 padded tiles — VERDICT r4 #6) and
    must match the stripped decode bit-for-bit; Compression=7 JPEG-in-
    TIFF (TechNote 2, self-contained and shared-JPEGTables) must match
    the direct JPEG decode of the same stream exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minitiff import (decode_gray_tiff,
                                                   encode_gray_tiff)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        sums = []
        agree = []
        y = np.arange(8)[:, None]
        x = np.arange(16)[None, :]
        for did in batch.column("doc_id").to_pylist():
            img = ((did * 31 + y * 7 + x * 13) % 256).astype(np.uint8)
            lzw = decode_gray_tiff(encode_gray_tiff(
                img, compression="lzw", predictor=2, rows_per_strip=3))
            pb = decode_gray_tiff(encode_gray_tiff(
                img, compression="packbits", rows_per_strip=5))
            mask = (img >= 128).astype(np.uint8) * 255
            fax_ok = all(
                np.array_equal(decode_gray_tiff(encode_gray_tiff(
                    img, compression=c, rows_per_strip=3)), mask)
                for c in ("mh", "g3", "g3_2d", "g4"))
            tiled_ok = all(
                np.array_equal(decode_gray_tiff(encode_gray_tiff(
                    img, compression=c, tile=(16, 16))), img)
                for c in ("lzw", "packbits", "none"))
            # Compression=7 JPEG-in-TIFF (lossy): the TIFF decode must
            # equal the direct JPEG decode of the same stream exactly,
            # for both self-contained strips and shared JPEGTables
            from documentai_ray.functions.jpegdec import (decode_jpeg,
                                                          encode_jpeg)
            jref = decode_jpeg(encode_jpeg(img))
            jpeg_ok = (
                np.array_equal(decode_gray_tiff(encode_gray_tiff(
                    img, compression="jpeg")), jref)
                and np.array_equal(decode_gray_tiff(encode_gray_tiff(
                    img, compression="jpeg_tables", rows_per_strip=8)),
                    jref))
            agree.append(bool(np.array_equal(lzw, pb)
                              and np.array_equal(lzw, img) and fax_ok
                              and tiled_ok and jpeg_ok))
            sums.append(int(lzw.astype(np.int64).sum()))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "pixel_sum": pa.array(sums, pa.int64()),
                         "codecs_agree": pa.array(agree, pa.bool_())})

    return ds.map_batches(roundtrip, batch_format="pyarrow", batch_size=128)


def _q_pdf_encrypted_extract(sf_dir: str):
    """Encrypted-PDF extraction (ISO 32000 §7.6.3 standard security
    handler): per-doc text renders to a real PDF and re-emits ENCRYPTED
    with an empty user password — RC4 R2/40-bit, RC4 R3/128-bit over
    FlateDecode streams, RC4 R3/40-bit, V4 /AESV2 (AES-128-CBC,
    IV-prefixed streams), or V5 R6 /AESV3 (AES-256, SHA-2 Algorithm 2.B
    password machinery) by doc_id % 5 — then extraction must derive the
    file key, verify /U and decrypt every stream before the normal
    parse. Oracle: the same deterministic 8-words-per-line relayout;
    ciphertext-ness itself is pytest-pinned."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import extract_text
    from documentai_ray.functions.pdfwrite import (encrypt_pdf, text_to_pdf,
                                                   wrap_text_lines)

    _MODES = [(2, 40, False, False, False), (3, 128, True, False, False),
              (3, 40, False, False, False), (3, 128, True, True, False),
              (3, 128, True, False, True)]
    _NAMES = ["r2_40", "r3_128", "r3_40", "aesv2", "aesv3"]

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def build_extract(batch: pa.Table) -> pa.Table:
        texts = []
        modes = []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            r, nbits, compress, aes, aes256 = _MODES[did % 5]
            pdf = encrypt_pdf(
                text_to_pdf(wrap_text_lines(txt or ""), shuffle_key=did,
                            compress=compress), r=r, nbits=nbits, aes=aes,
                aes256=aes256)
            texts.append(extract_text(pdf)[0])
            modes.append(_NAMES[did % 5])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts, pa.string()),
                         "enc_mode": pa.array(modes, pa.string())})

    return ds.map_batches(build_extract, batch_format="pyarrow",
                          batch_size=64)


def _q_pdf_password_extract(sf_dir: str):
    """PASSWORD-protected PDF extraction (VERDICT r3 #7): per-doc text
    renders to a real PDF and re-emits encrypted with a NON-EMPTY user
    password (``pw{doc_id%3}``) and a distinct owner password — RC4
    R3/128, V4 /AESV2 or V5 R6 /AESV3 by doc_id % 3 — then extraction
    opens it with a PER-ROW password column: even doc_ids present the
    user password (Algorithm 6 / 11), odd doc_ids the OWNER password
    (Algorithm 7: /O → padded user password; the /OE envelope for V5).
    Object-level strings (the /Info /Title) are encrypted and
    decrypted alongside the streams per ISO 32000 §7.6.2. Oracle: the
    deterministic relayout + closed-form mode/opened_with columns;
    wrong-password rejection is pytest-pinned."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import document_info, extract_text
    from documentai_ray.functions.pdfwrite import (encrypt_pdf, text_to_pdf,
                                                   wrap_text_lines)

    _NAMES = ["r3_128", "aesv2", "aesv3"]

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def build_extract(batch: pa.Table) -> pa.Table:
        texts, modes, opened, title_ok = [], [], [], []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            m = did % 3
            user_pw = b"pw%d" % m
            owner_pw = user_pw + b"_own"
            pdf = encrypt_pdf(
                text_to_pdf(wrap_text_lines(txt or ""), shuffle_key=did,
                            info={"Title": "doc-%d" % did}),
                aes=(m == 1), aes256=(m == 2),
                user_pw=user_pw, owner_pw=owner_pw)
            password = owner_pw if did % 2 else user_pw
            texts.append(extract_text(pdf, password=password)[0])
            info = document_info(pdf, password=password)
            title_ok.append(info.get("Title") == "doc-%d" % did)
            modes.append(_NAMES[m])
            opened.append("owner" if did % 2 else "user")
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts, pa.string()),
                         "enc_mode": pa.array(modes, pa.string()),
                         "opened_with": pa.array(opened, pa.string()),
                         "title_ok": pa.array(title_ok, pa.bool_())})

    return ds.map_batches(build_extract, batch_format="pyarrow",
                          batch_size=64)


def _q_scanned_pdf_ocr(sf_dir: str):
    """SCANNED-PDF ingestion — the reference's pdf2image + tesseract loop
    (documentClassifier.py OCR path) composed entirely in-engine: golden
    text renders to a bitfont page image, embeds LOSSLESSLY in a real
    PDF as a FlateDecode /DeviceGray XObject (images_to_pdf), the reader
    recovers the scan via page_images' filter chain, and the internal
    OCR reads it back — the oracle is the BYTE-IDENTICAL 8-words-per-line
    relayout, so every stage of render → embed → parse → decode → OCR
    must be exact."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.bitfont import CELL_W, GLYPH_H, draw_text
    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import (images_to_pdf,
                                                   wrap_text_lines)
    from documentai_ray.stages.ocr import ocr_image

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan_roundtrip(batch: pa.Table) -> pa.Table:
        out = []
        ids = batch.column("doc_id").to_pylist()
        for txt in batch.column("text").to_pylist():
            lines = wrap_text_lines(txt or "")
            if lines:
                w = max(len(ln) for ln in lines) * CELL_W + 8
                h = len(lines) * (GLYPH_H + 3) + 8
                page = np.full((h, w), 255, np.uint8)
                for i, ln in enumerate(lines):
                    draw_text(page, 4, 4 + i * (GLYPH_H + 3), ln)
            else:
                page = np.full((16, 16), 255, np.uint8)
            pdf = images_to_pdf([page], image_filter="flate")
            (scan,), = page_images(pdf)
            text, _boxes = ocr_image(scan)
            out.append(text)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string())})

    return ds.map_batches(scan_roundtrip, batch_format="pyarrow",
                          batch_size=64)


def _q_pdf_metadata(sf_dir: str):
    """Document metadata extraction (ISO 32000 §14.3.3 /Info dict):
    per-doc PDFs carry Title/Author/Producer entries (with parens and
    escapes planted in the title) and ``document_info`` must recover
    them through the literal-string unescape; closed-form oracle."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import document_info
    from documentai_ray.functions.pdfwrite import text_to_pdf

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def build(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        titles = []
        authors = []
        producers = []
        for did in ids:
            pdf = text_to_pdf(
                [f"body of doc {did}"],
                info={"Title": f"Document ({did})",
                      "Author": f"author-{did % 7}",
                      "Producer": "documentai-ray"})
            meta = document_info(pdf)
            titles.append(meta.get("Title", ""))
            authors.append(meta.get("Author", ""))
            producers.append(meta.get("Producer", ""))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "title": pa.array(titles, pa.string()),
                         "author": pa.array(authors, pa.string()),
                         "producer": pa.array(producers, pa.string())})

    return ds.map_batches(build, batch_format="pyarrow", batch_size=128)


def _q_pdf_links(sf_dir: str):
    """PDF outlink extraction (ISO 32000 /Link annotations + /URI
    actions): per-doc PDFs carry ``1 + doc_id % 3`` link annotations
    and ``document_links`` must recover the URIs in order — the PDF
    side of the crawl-frontier outlink census; closed-form oracle."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import document_links
    from documentai_ray.functions.pdfwrite import text_to_pdf

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def build(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        outs = []
        for did in ids:
            urls = [f"https://out{i}.example/d/{did}"
                    for i in range(1 + did % 3)]
            pdf = text_to_pdf([f"body {did}"], links=urls)
            outs.append("; ".join(document_links(pdf)))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "outlinks": pa.array(outs, pa.string())})

    return ds.map_batches(build, batch_format="pyarrow", batch_size=128)


def _q_pdf_outline(sf_dir: str):
    """Bookmark/TOC extraction (ISO 32000 §12.3.3 outline tree): per-doc
    PDFs carry a flat /Outlines chain of ``1 + doc_id % 3`` chapter
    titles and ``document_outline`` must walk /First → /Next to recover
    them in order; emitted joined with '; ' for the closed-form
    oracle."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import document_outline
    from documentai_ray.functions.pdfwrite import text_to_pdf

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def build(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        tocs = []
        for did in ids:
            titles = [f"Chapter {did}-{i}" for i in range(1 + did % 3)]
            pdf = text_to_pdf([f"body {did}"], outline=titles)
            tocs.append("; ".join(document_outline(pdf)))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "toc": pa.array(tocs, pa.string())})

    return ds.map_batches(build, batch_format="pyarrow", batch_size=128)


def _q_warc_http_charset(sf_dir: str):
    """Transport-layer charset: legacy-encoded captures whose encoding
    is declared ONLY in the HTTP ``Content-Type: …; charset=`` header
    (no BOM, no meta tag — the body alone is INVALID UTF-8 via a
    planted head marker) must decode through the envelope's label
    (``read_warc(with_charset=True)`` → per-row ``http_charset`` column
    → extract). By doc_id % 4: utf-8 / iso-8859-1 (é) / windows-1252
    (€) / cp1251 (Кафе). Oracle: the encoding-independent golden text."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from documentai_ray.functions.warc import build_record, read_warc
    from documentai_ray.sources.pages import (payload_for, url_for,
                                              warc_ts_for)
    from documentai_ray.stages.extract import extract_batch

    _ENCS = ["utf-8", "iso-8859-1", "windows-1252", "cp1251"]
    _MARKS = ["", "Caf\xe9", "caf€", "Кафе"]

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    d = f"/tmp/warc_httpcs_{tag}"
    n_shards = 8
    paths = [os.path.join(d, f"shard-{i:02d}.warc.gz")
             for i in range(n_shards)]
    marker = os.path.join(d, f"_done_{docs.num_rows}")
    if not os.path.exists(marker):
        import gzip as _g
        os.makedirs(d, exist_ok=True)
        shards: list[list[bytes]] = [[] for _ in range(n_shards)]
        for did, text, src in zip(docs.column("doc_id").to_pylist(),
                                  docs.column("text").to_pylist(),
                                  docs.column("source").to_pylist()):
            raw = payload_for(did, text)
            try:
                html = raw.decode("utf-8")
            except UnicodeDecodeError:
                html = None  # planted-malformed docs ship as captured
            enc_i = did % 4
            if (html is not None and enc_i and html.isascii()
                    and "<head>" in html):
                enc = _ENCS[enc_i]
                html2 = html.replace(
                    "<head>", f"<head><title>{_MARKS[enc_i]}</title>", 1)
                body = html2.encode(enc)
            else:
                enc = "utf-8"
                body = raw
            rec = build_record(
                url_for(did, src), warc_ts_for(did), body,
                content_type=f"text/html; charset={enc}")
            shards[did % n_shards].append(rec)
        for p, recs in zip(paths, shards):
            with open(p, "wb") as f:
                for rec in recs:
                    f.write(_g.compress(rec))
        with open(marker, "w") as f:
            f.write("ok")

    ds = read_warc(paths, with_charset=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    return _norm_strings_ds(ds.select_columns(["url", "text"]))


def _q_pdf_cmap_extract(sf_dir: str):
    """Subset-font PDF extraction (ISO 32000 §9.10.3): per-doc text
    renders to a PDF whose strings use a CUSTOM byte encoding that is
    meaningless without the font's /ToUnicode CMap (bfchar + both
    bfrange forms, FlateDecode CMap stream) — extraction must resolve
    the page font, parse the CMap and map every code. Oracle: the same
    deterministic 8-words-per-line relayout; the plaintext is provably
    absent from the file bytes (pytest-pinned)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import extract_text
    from documentai_ray.functions.pdfwrite import (text_to_pdf_cmap,
                                                   wrap_text_lines)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def build_extract(batch: pa.Table) -> pa.Table:
        texts = []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            pdf = text_to_pdf_cmap(wrap_text_lines(txt or ""),
                                   shuffle_key=did)
            texts.append(extract_text(pdf)[0])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts, pa.string())})

    return ds.map_batches(build_extract, batch_format="pyarrow",
                          batch_size=64)


def _q_flagship_warc(sf_dir: str):
    """The literal Common-Crawl entry path, end-to-end: the corpus
    serialized as per-record-gzipped ``.warc.gz`` shards (reusing
    warc_ingest's cached shard layout), ingested shard-parallel by
    ``read_warc``, and run through the FULL flagship chain (extract →
    dedup → quality → decision → 4-technique classify → entities →
    rules) to the same per-category roll-up as ``category_summary`` —
    the oracle proves the wire container is transparent to the whole
    pipeline's semantics."""
    import hashlib
    import math
    import os

    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from documentai_ray.functions.warc import read_warc, write_warc
    from documentai_ray.pipelines.flagship import flagship
    from documentai_ray.sources.pages import (payload_for, url_for,
                                              warc_ts_for)

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    d = f"/tmp/warc_shards_{tag}"
    n_shards = 8
    paths = [os.path.join(d, f"shard-{i:02d}.warc.gz")
             for i in range(n_shards)]
    marker = os.path.join(d, f"_done_{docs.num_rows}")
    if not os.path.exists(marker):
        os.makedirs(d, exist_ok=True)
        shards: list[list] = [[] for _ in range(n_shards)]
        for did, text, src in zip(docs.column("doc_id").to_pylist(),
                                  docs.column("text").to_pylist(),
                                  docs.column("source").to_pylist()):
            shards[did % n_shards].append(
                (url_for(did, src), warc_ts_for(did),
                 payload_for(did, text)))
        for p, recs in zip(paths, shards):
            write_warc(p, recs)
        with open(marker, "w") as f:
            f.write("ok")

    agg = (
        flagship(ds=read_warc(paths))
        .groupby("category")
        .aggregate(Count(alias_name="n_docs"),
                   Sum("n_chars", alias_name="total_chars"),
                   Sum("confidence", alias_name="_conf_sum"))
        .to_pandas()
    )
    agg["avg_confidence"] = [
        math.floor(s / n * 1e6) / 1e6
        for s, n in zip(agg["_conf_sum"], agg["n_docs"])
    ]
    return agg[["category", "n_docs", "total_chars", "avg_confidence"]]


def _q_fax_pdf_ocr(sf_dir: str):
    """Scanned-FAX PDF ingestion: like scanned_pdf_ocr but the page
    scan embeds as a CCITT Group 4 XObject (`/CCITTFaxDecode /K -1` —
    the ITU-T T.6 codec real fax archives use), so the chain is
    render → G4-encode → real PDF → filter-machinery G4 decode → OCR,
    with the BYTE-IDENTICAL relayout oracle. G4 is lossless on bilevel
    input, so the OCR must reproduce every token."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.bitfont import CELL_W, GLYPH_H, draw_text
    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import (images_to_pdf,
                                                   wrap_text_lines)
    from documentai_ray.stages.ocr import ocr_image

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan_roundtrip(batch: pa.Table) -> pa.Table:
        out = []
        ids = batch.column("doc_id").to_pylist()
        for txt in batch.column("text").to_pylist():
            lines = wrap_text_lines(txt or "")
            if lines:
                w = max(len(ln) for ln in lines) * CELL_W + 8
                h = len(lines) * (GLYPH_H + 3) + 8
                page = np.full((h, w), 255, np.uint8)
                for i, ln in enumerate(lines):
                    draw_text(page, 4, 4 + i * (GLYPH_H + 3), ln)
            else:
                page = np.full((16, 16), 255, np.uint8)
            pdf = images_to_pdf([page], image_filter="g4")
            (scan,), = page_images(pdf)
            text, _boxes = ocr_image(scan)
            out.append(text)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string())})

    return ds.map_batches(scan_roundtrip, batch_format="pyarrow",
                          batch_size=64)


def _q_pdf_g3_ocr(sf_dir: str):
    """Group 3 scanned-PDF ingestion (VERDICT r3 #5 — the highest-
    frequency wild fax codec after G4): like fax_pdf_ocr but the page
    scan embeds as `/CCITTFaxDecode /K 0` (pure 1-D MH, even doc_ids)
    or `/K 4` (mixed MR, odd doc_ids) — ITU-T T.4, the pre-2005
    scanner default. Chain: render → G3-encode → real PDF →
    filter-machinery G3 decode → OCR, with the BYTE-IDENTICAL relayout
    oracle plus the deterministic g3_mode column. G3 is lossless on
    bilevel input, so the OCR must reproduce every token."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.bitfont import CELL_W, GLYPH_H, draw_text
    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import (images_to_pdf,
                                                   wrap_text_lines)
    from documentai_ray.stages.ocr import ocr_image

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan_roundtrip(batch: pa.Table) -> pa.Table:
        out = []
        modes = []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            lines = wrap_text_lines(txt or "")
            if lines:
                w = max(len(ln) for ln in lines) * CELL_W + 8
                h = len(lines) * (GLYPH_H + 3) + 8
                page = np.full((h, w), 255, np.uint8)
                for i, ln in enumerate(lines):
                    draw_text(page, 4, 4 + i * (GLYPH_H + 3), ln)
            else:
                page = np.full((16, 16), 255, np.uint8)
            filt = "g3" if did % 2 == 0 else "g3_2d"
            pdf = images_to_pdf([page], image_filter=filt)
            (scan,), = page_images(pdf)
            text, _boxes = ocr_image(scan)
            out.append(text)
            modes.append(filt)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string()),
                         "g3_mode": pa.array(modes, pa.string())})

    return ds.map_batches(scan_roundtrip, batch_format="pyarrow",
                          batch_size=64)


def _q_pdf_jbig2_text_ocr(sf_dir: str):
    """SYMBOL-coded JBIG2 text-page ingestion — the wire shape real
    scanners emit for text (generic regions are the photo path): each
    doc's text renders as a JBIG2 symbol DICTIONARY of its distinct
    glyph bitmaps plus a TEXT REGION of (S, T, ID) instance placements
    (T.88 §6.4/6.5), embedded as a `/JBIG2Decode` XObject; the reader
    decodes dictionary + region through the segment machinery and OCRs
    the page — BYTE-IDENTICAL relayout oracle plus the closed-form
    n_symbols column (distinct non-space glyphs of the relayout text).
    The coding cycles per doc_id % 4: arithmetic (Annex A integer
    coding), Huffman (SDHUFF/SBHUFF, standard tables B.1/B.2/B.4/B.8/
    B.11 + a custom FS table segment, §7.4.3.1.7 run-coded symbol ID
    lengths), Huffman with MMR-coded collective bitmaps (§6.5.9), and
    the REFAGG two-dictionary layout (§6.5.8.2: a generic base dict
    plus a refinement dict whose exports feed the text region) — the
    four wild wire shapes."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.bitfont import CELL_W, GLYPH_H, GLYPHS
    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import (jbig2_text_pdf,
                                                   wrap_text_lines)
    from documentai_ray.stages.ocr import ocr_image

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    _MODES = ("arith", "huffman", "huffman_mmr", "refagg")

    def scan_roundtrip(batch: pa.Table) -> pa.Table:
        out = []
        nsyms = []
        codings = []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            coding = _MODES[did % 4]
            codings.append(coding)
            lines = wrap_text_lines(txt or "")
            chars = sorted({c for ln in lines for c in ln
                            if c != " " and c in GLYPHS})
            if not lines or not chars:
                out.append("")
                nsyms.append(0)
                continue
            w = max(len(ln) for ln in lines) * CELL_W + 8
            h = len(lines) * (GLYPH_H + 3) + 8
            sym_of = {c: i for i, c in enumerate(chars)}
            symbols = [GLYPHS[c] for c in chars]
            placements = [
                (sym_of[ch], 4 + i * CELL_W, 4 + r * (GLYPH_H + 3))
                for r, ln in enumerate(lines)
                for i, ch in enumerate(ln)
                if ch != " " and ch in GLYPHS]
            pdf = jbig2_text_pdf(
                symbols, placements, w, h,
                huffman=coding.startswith("huffman"),
                mmr_collective=(coding == "huffman_mmr"),
                refagg=(coding == "refagg"))
            (scan,), = page_images(pdf)
            text, _boxes = ocr_image(scan)
            out.append(text)
            nsyms.append(len(chars))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string()),
                         "n_symbols": pa.array(nsyms, pa.int64()),
                         "coding": pa.array(codings, pa.string())})

    return ds.map_batches(scan_roundtrip, batch_format="pyarrow",
                          batch_size=64)


def _q_pdf_jbig2_globals(sf_dir: str):
    """JBIG2Globals shared symbol-dictionary ingestion — the STANDARD
    layout scanners emit for text PDFs (ISO 32000 §7.4.7 / T.88
    embedding): ONE symbol dictionary in a Flate-compressed Globals
    stream, and per-page `/JBIG2Decode` XObjects whose text regions
    reference it via `/DecodeParms << /JBIG2Globals N 0 R >>`. Each
    doc's relayout text splits across TWO pages sharing the one
    dictionary; the reader dereferences the Globals object, prepends
    its segments per the logical-concatenation rule, decodes both
    pages and OCRs them — BYTE-IDENTICAL relayout oracle plus
    closed-form n_symbols / n_pages. Reference parity: the fitz path
    reads this layout (documentClassifier.py:1361)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.bitfont import CELL_W, GLYPH_H, GLYPHS
    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import (jbig2_globals_pdf,
                                                   wrap_text_lines)
    from documentai_ray.stages.ocr import ocr_image

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan_roundtrip(batch: pa.Table) -> pa.Table:
        out = []
        nsyms = []
        npages = []
        codings = []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            coding = "arith" if did % 2 == 0 else "huffman"
            codings.append(coding)
            lines = wrap_text_lines(txt or "")
            chars = sorted({c for ln in lines for c in ln
                            if c != " " and c in GLYPHS})
            if not lines or not chars:
                out.append("")
                nsyms.append(0)
                npages.append(0)
                continue
            w = max(len(ln) for ln in lines) * CELL_W + 8
            sym_of = {c: i for i, c in enumerate(chars)}
            symbols = [GLYPHS[c] for c in chars]
            # split lines across two pages sharing ONE dictionary
            k = (len(lines) + 1) // 2
            pages = []
            for chunk in (lines[:k], lines[k:]):
                if not chunk:
                    continue
                h = len(chunk) * (GLYPH_H + 3) + 8
                placements = [(sym_of[ch], 4 + i * CELL_W,
                               4 + r * (GLYPH_H + 3))
                              for r, ln in enumerate(chunk)
                              for i, ch in enumerate(ln)
                              if ch != " " and ch in GLYPHS]
                if placements:
                    pages.append((placements, w, h))
            pdf = jbig2_globals_pdf(symbols, pages,
                                    huffman=(coding == "huffman"))
            texts = []
            for (scan,) in page_images(pdf):
                text, _boxes = ocr_image(scan)
                texts.append(text)
            out.append("\n".join(texts))
            nsyms.append(len(chars))
            npages.append(len(pages))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string()),
                         "n_symbols": pa.array(nsyms, pa.int64()),
                         "n_pages": pa.array(npages, pa.int64()),
                         "coding": pa.array(codings, pa.string())})

    return ds.map_batches(scan_roundtrip, batch_format="pyarrow",
                          batch_size=64)


def _q_jpeg_lossless_roundtrip(sf_dir: str):
    """Lossless JPEG (SOF3, T.81 Annex H — the DNG/medical/old-scanner
    process): each doc encodes a deterministic gradient through the
    lossless path — 8-bit grayscale for even doc_ids, 16-bit for odd —
    with the predictor selector cycling doc_id % 7 + 1, and must decode
    BIT-EXACTLY; the closed-form pixel-sum oracle is exact because the
    process is lossless by construction."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.jpegdec import (decode_lossless_jpeg,
                                                  encode_lossless_jpeg)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        sums = []
        preds = []
        ok = []
        y = np.arange(12)[:, None]
        x = np.arange(20)[None, :]
        for did in batch.column("doc_id").to_pylist():
            pred = did % 7 + 1
            if did % 2 == 0:
                img = ((did * 7 + 13 * y + 5 * x) % 256).astype(np.uint8)
            else:
                img = ((did * 257 + 1031 * y + 419 * x)
                       % 65536).astype(np.uint16)
            out = decode_lossless_jpeg(
                encode_lossless_jpeg(img, predictor=pred))
            sums.append(int(out.astype(np.int64).sum()))
            preds.append(pred)
            ok.append(bool(out.shape == (12, 20)
                           and np.array_equal(out, img)))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "ll_pixel_sum": pa.array(sums, pa.int64()),
                         "predictor": pa.array(preds, pa.int64()),
                         "exact": pa.array(ok, pa.bool_())})

    return ds.map_batches(roundtrip, batch_format="pyarrow",
                          batch_size=128)


def _q_jpeg12_roundtrip(sf_dir: str):
    """12-bit extended-sequential JPEG (SOF1 at precision 12 — the
    medical/scientific-archive format): each doc encodes a
    block-constant 12-bit image (2x4 cells of 8x8) through a unit
    quantization table, which the float DCT round-trips BIT-EXACTLY;
    the closed-form cell-sum oracle is therefore exact."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.jpegdec import (decode_jpeg,
                                                  encode_jpeg12)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        sums = []
        ok = []
        r = np.arange(2)[:, None]
        c = np.arange(4)[None, :]
        for did in batch.column("doc_id").to_pylist():
            cells = ((did * 13 + r * 7 + c * 3) % 4096).astype(np.uint16)
            img = np.repeat(np.repeat(cells, 8, 0), 8, 1)
            out = decode_jpeg(encode_jpeg12(img))
            sums.append(int(out.astype(np.int64).sum()))
            ok.append(bool(out.dtype == np.uint16
                           and np.array_equal(out, img)))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "px12_sum": pa.array(sums, pa.int64()),
                         "exact": pa.array(ok, pa.bool_())})

    return ds.map_batches(roundtrip, batch_format="pyarrow",
                          batch_size=128)


def _q_pdf_jpx_extract(sf_dir: str):
    """JPEG 2000 embedded-image extraction: each doc builds a PDF whose
    page embeds a deterministic gradient as a `/JPXDecode` XObject —
    a REAL restricted-lossless J2K codestream (reversible 5/3 DWT,
    EBCOT MQ tier-1, tag-tree tier-2 packet headers). Even doc_ids
    embed GRAYSCALE; odd doc_ids a 3-component COLOR image through the
    reversible color transform (RCT), which `pdfread.page_images`
    reduces to BT.601 luma (same convention as the DCT color path).
    Lossless end to end, so the closed-form pixel/luma-sum oracle is
    exact."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import images_to_pdf

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        sums = []
        ok = []
        modes = []
        y = np.arange(16)[:, None]
        x = np.arange(24)[None, :]
        for did in batch.column("doc_id").to_pylist():
            if did % 2 == 0:
                img = ((did * 5 + 11 * y + 3 * x) % 256).astype(np.uint8)
                modes.append("gray")
            else:
                r = (did * 7 + y * 3 + x) % 256
                g = (did * 11 + y * 5 + 2 * x) % 256
                b = (did * 13 + 3 * y + x) % 256
                img = np.stack([r, g, b], axis=-1).astype(np.uint8)
                modes.append("rct")
            pdf = images_to_pdf([img], image_filter="jpx")
            (out,), = page_images(pdf)
            sums.append(int(out.astype(np.int64).sum()))
            ok.append(bool(out.shape == (16, 24)))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "jpx_pixel_sum": pa.array(sums, pa.int64()),
                         "jpx_mode": pa.array(modes, pa.string()),
                         "dims_ok": pa.array(ok, pa.bool_())})

    return ds.map_batches(roundtrip, batch_format="pyarrow",
                          batch_size=64)


def _q_pdf_jbig2_ocr(sf_dir: str):
    """JBIG2 scanned-PDF ingestion (VERDICT r3 missing #2 — the default
    post-2005 scanned-PDF codec): the page scan embeds as a
    `/JBIG2Decode` XObject — ITU-T T.88 generic region, cycling per
    doc_id % 5 through MQ-arithmetic template 0, MMR (T.6), the STRIPED
    page layout (§7.4.8.2, 16-row stripes + end-of-stripe segments),
    and GB templates 2 and 3 — then the reader parses the embedded
    segment stream, decodes the bitmap and OCRs it, with the
    BYTE-IDENTICAL relayout oracle plus a closed-form jbig2_mode
    column. JBIG2 generic coding is lossless, so the OCR must
    reproduce every token."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.bitfont import CELL_W, GLYPH_H, draw_text
    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import (images_to_pdf,
                                                   wrap_text_lines)
    from documentai_ray.stages.ocr import ocr_image

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan_roundtrip(batch: pa.Table) -> pa.Table:
        out = []
        modes = []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            lines = wrap_text_lines(txt or "")
            if lines:
                w = max(len(ln) for ln in lines) * CELL_W + 8
                h = len(lines) * (GLYPH_H + 3) + 8
                page = np.full((h, w), 255, np.uint8)
                for i, ln in enumerate(lines):
                    draw_text(page, 4, 4 + i * (GLYPH_H + 3), ln)
            else:
                page = np.full((16, 16), 255, np.uint8)
            filts = ("jbig2", "jbig2_mmr", "jbig2_striped",
                     "jbig2_t2", "jbig2_t3")
            names = ("arith", "mmr", "striped", "t2", "t3")
            filt = filts[did % 5]
            pdf = images_to_pdf([page], image_filter=filt)
            (scan,), = page_images(pdf)
            text, _boxes = ocr_image(scan)
            out.append(text)
            modes.append(names[did % 5])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string()),
                         "jbig2_mode": pa.array(modes, pa.string())})

    return ds.map_batches(scan_roundtrip, batch_format="pyarrow",
                          batch_size=64)


def _q_pdf_embedded_images(sf_dir: str):
    """Embedded-image PDF extraction (the scanner/img2pdf layout): each
    doc builds a 2-page PDF — a deterministic gradient embedded
    LOSSLESSLY (`/Filter /FlateDecode`) and a constant page embedded as
    a REAL JPEG (`/Filter /DCTDecode`, DC-exact at even offsets from
    128) — then `pdfread.page_images` routes each XObject through the
    filter chains / the T.81 decoder. Exact closed-form oracles for
    both pages."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import page_images
    from documentai_ray.functions.pdfwrite import images_to_pdf

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        fsums = []
        bright = []
        ok = []
        y = np.arange(8)[:, None]
        x = np.arange(16)[None, :]
        for did in batch.column("doc_id").to_pylist():
            grad = ((did * 3 + 7 * y + 5 * x) % 256).astype(np.uint8)
            c = 84 + 2 * (did % 45)
            const = np.full((16, 24), c, np.uint8)
            pdf_f = images_to_pdf([grad], image_filter="flate")
            pdf_d = images_to_pdf([const], image_filter="dct")
            (g,), = page_images(pdf_f)
            (k,), = page_images(pdf_d)
            fsums.append(int(g.astype(np.int64).sum()))
            bright.append(int(k[0, 0]))
            ok.append(bool(g.shape == (8, 16) and k.shape == (16, 24)
                           and (k == k[0, 0]).all()))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "flate_pixel_sum": pa.array(fsums, pa.int64()),
                         "dct_brightness": pa.array(bright, pa.int64()),
                         "dims_ok": pa.array(ok, pa.bool_())})

    return ds.map_batches(roundtrip, batch_format="pyarrow", batch_size=64)


def _q_pdf_modern_extract(sf_dir: str):
    """PDF 1.5-style extraction: per-doc text renders to a MODERN PDF —
    catalog/page-tree/page dicts packed in a `/Type /ObjStm` object
    stream, a `/Type /XRef` cross-reference STREAM (PNG Up predictor),
    no classic trailer, and a doc-selected content-stream filter chain
    (LZWDecode / [ASCII85Decode FlateDecode] / [ASCIIHexDecode
    FlateDecode] / RunLengthDecode) — then extracts through pdfread's
    ObjStm expansion + filter machinery. Oracle: the same deterministic
    8-words-per-line relayout as real_pdf_extract."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfread import extract_text
    from documentai_ray.functions.pdfwrite import (text_to_pdf_modern,
                                                   wrap_text_lines)

    _FILTS = ["lzw", "a85flate", "hexflate", "rl"]

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def build_extract(batch: pa.Table) -> pa.Table:
        texts = []
        chains = []
        ids = batch.column("doc_id").to_pylist()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            filt = _FILTS[did % 4]
            pdf = text_to_pdf_modern(wrap_text_lines(txt or ""),
                                     shuffle_key=did, content_filter=filt)
            texts.append(extract_text(pdf)[0])
            chains.append(filt)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts, pa.string()),
                         "filter_chain": pa.array(chains, pa.string())})

    return ds.map_batches(build_extract, batch_format="pyarrow",
                          batch_size=64)


def _q_jpeg_progressive_roundtrip(sf_dir: str):
    """General T.81 decode path (jpegdec): a constant-gray page (even
    offset from 128 → DC-exact through Annex-K quantization) encodes as
    PROGRESSIVE JPEG (SOF2, successive approximation, EOB runs, a
    non-Annex-K AC table, doc-varying restart interval) and must decode
    bit-identically to the sequential encoding; a constant-RGB 4:2:0
    progressive page must land within quantization tolerance."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.jpegdec import decode_jpeg, encode_jpeg

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        bright = []
        eq = []
        cok = []
        for did in batch.column("doc_id").to_pylist():
            c = 84 + 2 * (did % 45)
            img = np.full((16, 24), c, np.uint8)
            prog = decode_jpeg(encode_jpeg(img, progressive=True,
                                           restart_interval=did % 4))
            seq = decode_jpeg(encode_jpeg(img))
            eq.append(bool(np.array_equal(prog, seq)))
            s = int(prog.astype(np.int64).sum())
            bright.append(s * 1_000_000 // (prog.size * 255))
            rgb = np.full((16, 24, 3), 0, np.uint8)
            rgb[:, :, 0] = c
            rgb[:, :, 1] = (c * 5) % 256
            rgb[:, :, 2] = (c * 3) % 256
            back = decode_jpeg(encode_jpeg(rgb, subsampling="420",
                                           progressive=True))
            dev = int(np.abs(back.astype(np.int64)
                             - rgb.astype(np.int64)).max())
            cok.append(dev <= 3)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "brightness_ppm": pa.array(bright, pa.int64()),
                         "prog_equals_seq": pa.array(eq, pa.bool_()),
                         "color_ok": pa.array(cok, pa.bool_())})

    return ds.map_batches(roundtrip, batch_format="pyarrow", batch_size=64)


def _q_png_color_roundtrip(sf_dir: str):
    """Full-baseline PNG read path: a per-doc deterministic RGB texture
    encodes with a doc-varying scanline filter (doc_id % 5) and Adam7
    interlacing on odd docs, decodes losslessly through the general
    decoder, and reduces to the BT.601 luma sum — closed-form in SQL, so
    the whole color → filter → interlace → luma chain is oracle-pinned."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minipng import (decode_gray, decode_png,
                                                  encode_png)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        sums = []
        ok = []
        y = np.arange(8)[:, None]
        x = np.arange(16)[None, :]
        for did in batch.column("doc_id").to_pylist():
            rgb = np.dstack([(did * 7 + y * 3 + x) % 256,
                             (did * 11 + y * 5 + 2 * x) % 256,
                             (did * 13 + 3 * y + x) % 256]).astype(np.uint8)
            payload = encode_png(rgb, filter_type=did % 5,
                                 interlace=did % 2)
            back = decode_png(payload)
            luma = decode_gray(payload)
            ok.append(bool(np.array_equal(back, rgb)))
            sums.append(int(luma.astype(np.int64).sum()))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "luma_sum": pa.array(sums, pa.int64()),
                         "lossless": pa.array(ok, pa.bool_())})

    return ds.map_batches(roundtrip, batch_format="pyarrow", batch_size=128)


def _q_incremental_dedup(sf_dir: str):
    """Incremental crawl dedup (CCNet per-snapshot pattern): new snapshot
    (here: all documents) anti-joined by exact content hash against the
    prior snapshot (docs with ``doc_id % 4 == 1``) — only rows whose text
    never appeared before survive. The old side ships ONLY its md5 column
    through one bucketed anti hash_join."""
    import ray.data

    from documentai_ray.stages.dedup import dedup_against_snapshot

    new = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "source", "text"])
    def old_rows(batch):
        import numpy as np
        import pyarrow as pa
        ids = np.asarray(batch.column("doc_id").to_pylist())
        return batch.filter(pa.array(ids % 4 == 1)).select(["text"])

    old = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"]).map_batches(
        old_rows, batch_format="pyarrow")
    return dedup_against_snapshot(new, old).select_columns(
        ["doc_id", "source"])


def _q_bloom_dedup(sf_dir: str):
    """Incremental dedup on the bloom-prefilter scale path: the prior
    snapshot's u64 content hashes build a broadcast bitmap; new rows that
    MISS it bypass the exchange (no false negatives), only hits + ~1% FPs
    cross the exact anti-join on the FULL md5 (a bare 64-bit join key
    would birthday-collide at 10¹² docs). Output is provably identical to
    incremental_dedup's plain anti-join — same oracle."""
    import ray.data

    from documentai_ray.stages.dedup import dedup_against_snapshot_bloom

    new = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "source", "text"])

    def old_rows(batch):
        import numpy as np
        import pyarrow as pa
        ids = np.asarray(batch.column("doc_id").to_pylist())
        return batch.filter(pa.array(ids % 4 == 1)).select(["text"])

    old = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"]).map_batches(
        old_rows, batch_format="pyarrow")
    return dedup_against_snapshot_bloom(new, old).select_columns(
        ["doc_id", "source"])


def _q_url_filter(sf_dir: str):
    """Crawl-frontier URL filtering (UT1-blocklist style): drop blocked
    hosts (the heavy host + every srcN host with N % 7 == 3 — the
    blocklist itself is derived from the corpus' distinct sources, a
    broadcast-small side) and query-string tracking variants (the planted
    ?amp=1 pages). Pure map over the url column."""
    import pyarrow.parquet as pq
    import ray.data

    from documentai_ray.sources.pages import HEAVY_HOST, pages_dataset
    from documentai_ray.stages.curation import url_filter_batch

    srcs = set(pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["source"]).column("source").to_pylist())
    blocked = frozenset({HEAVY_HOST} | {
        f"{s}.example.com" for s in srcs if int(s[3:]) % 7 == 3})
    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.select_columns(["url"])
    return ds.map_batches(
        lambda b: url_filter_batch(b, blocked_hosts=blocked),
        batch_format="pyarrow", batch_size=512)


def _q_semdedup(sf_dir: str):
    """SemDeDup: distributed k-means (k=4, 2 iters — same fit the
    kmeans_clusters oracle pins) then per-cluster cosine prune — a vector
    is dropped iff a LOWER-id same-cluster vector sits at cosine ≥ 0.4
    (margin to the nearest pair ~1e-4 vs ~1e-15 cross-engine drift, same
    contract embedding_neardup relies on). One bounded exchange on the
    cluster id; the oracle unrolls the fit and mirrors the prune as a
    self-join."""
    import ray.data

    from documentai_ray.stages.similarity import semdedup

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return semdedup(ds, k=4, iters=2, threshold=0.4)


def _q_shard_export(sf_dir: str):
    """Deterministic training-shard export order: shard = knuth(id) % 16,
    position = rank of (hash, id) within the shard — the reproducible
    global shuffle a training-data writer needs (hash order IS the
    shuffle; every shard is an independently resumable partition)."""
    import ray.data

    from documentai_ray.stages.curation import assign_shards

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    return assign_shards(ds, n_shards=16)


def _q_dsir_weights(sf_dir: str):
    """DSIR-style importance weights (Xie et al. 2023): hashed-unigram
    bucket counts for the target set (docs with doc_id % 31 == 5 — the
    decontaminate benchmark subset) and the raw corpus (two streaming
    passes, each exchanging only 64-int partial bincounts), then a
    map-side per-doc score Σ ((target[b]+1)·10⁶)//(raw[b]+1) over token
    buckets — the integer-ratio analog of the log-likelihood ratio,
    bit-exact in SQL."""
    import ray.data

    from documentai_ray.stages.curation import dsir_bucket_counts, dsir_score

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def target_mask(batch):
        return [i % 31 == 5 for i in batch.column("doc_id").to_pylist()]

    raw = dsir_bucket_counts(ds)
    tgt = dsir_bucket_counts(ds, doc_filter=target_mask)
    return dsir_score(ds, tgt, raw)


def _q_heavy_hitters(sf_dir: str):
    """Misra-Gries heavy hitters: tokens with frequency > n/(k+1), exact
    counts, via two bounded passes (per-batch k-counter summaries, then
    exact counting of the guaranteed-superset candidates) — the no-shuffle
    alternative to a full token groupby. Integer threshold → no float
    margin; the oracle is the plain GROUP BY ... HAVING mirror."""
    import ray.data

    from documentai_ray.stages.sketches import heavy_hitter_tokens

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return heavy_hitter_tokens(ds, k=30)


def _q_web_curation(sf_dir: str):
    """END-TO-END web-corpus curation — the training-data counterpart of
    the flagship extraction chain, composed from verified parts as ONE
    streaming pipeline in the canonical order:

        raw frontier (stale dups + ?amp variants)
          → URL filter (blocklist + query-string rules; dropped rows'
            html never leaves the read stage)
          → main-content extraction
          → exact dedup by url (latest capture wins)   [the only shuffle]
          → drop empty extractions
          → C4 line filter (docs with 0 surviving lines drop)
          → deterministic train/val/test split

    Output: (url, n_lines_kept, n_chars, split). The oracle composes the
    same steps as CTEs over the golden-page closed forms."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data  # noqa: F401

    from documentai_ray.sources.pages import HEAVY_HOST, pages_dataset
    from documentai_ray.stages.curation import url_filter_batch
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch
    from documentai_ray.stages.lines import c4_line_filter_batch

    srcs = set(pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["source"]).column("source").to_pylist())
    blocked = frozenset({HEAVY_HOST} | {
        f"{s}.example.com" for s in srcs if int(s[3:]) % 7 == 3})

    ds = pages_dataset(sf_dir, with_dups=True, with_near_dups=True)

    def frontier(batch: pa.Table) -> pa.Table:
        out = url_filter_batch(batch, blocked_hosts=blocked)
        out = out.filter(out.column("keep"))
        return out.drop_columns(["host", "keep", "drop_reason"])

    ds = ds.map_batches(frontier, batch_format="pyarrow", batch_size=256)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    def lines_and_split(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(batch.column("text"), ""))
        batch = c4_line_filter_batch(batch)
        batch = batch.filter(pc.greater(batch.column("n_lines_kept"), 0))
        urls = batch.column("url").to_pylist()
        ids = np.asarray([int(u.rsplit("/", 1)[1]) for u in urls], np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(1 << 32)
        frac = h.astype(np.float64) / float(1 << 32)
        split = np.where(frac < 0.8, "train",
                         np.where(frac < 0.9, "val", "test"))
        n_chars = pa.array(
            [len(t) for t in batch.column("clean_text").to_pylist()],
            pa.int64())
        return pa.table({"url": batch.column("url"),
                         "n_lines_kept": batch.column("n_lines_kept"),
                         "n_chars": n_chars,
                         "split": pa.array(split.tolist(), pa.string())})

    return ds.map_batches(lines_and_split, batch_format="pyarrow",
                          batch_size=256)


def _q_incremental_session(sf_dir: str):
    """Multi-round incremental ingestion — the steady-state life of a
    crawl pipeline: three snapshots arrive where EVERY round resends all
    previously-seen documents (t0 = docs %4==1, t1 = %4∈{1,2}, t2 = all)
    and each round keeps only content never seen before, then folds it
    into the accumulated state (dedup_against_snapshot per round; state
    materialized between rounds — the documented input-reuse exception).
    Output: (doc_id, first_snapshot). Oracle: the %4 class closed form —
    correct ONLY if every re-sent row is deduped in every later round,
    so any state leak double-emits and breaks the row count."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.dedup import dedup_against_snapshot

    def snapshot(mods: tuple):
        def keep(batch: pa.Table) -> pa.Table:
            import numpy as np
            ids = np.asarray(batch.column("doc_id").to_pylist())
            return batch.filter(pa.array(np.isin(ids % 4, list(mods))))

        return ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"]).map_batches(
            keep, batch_format="pyarrow")

    rounds = [snapshot((1,)), snapshot((1, 2)), snapshot((0, 1, 2, 3))]
    state = None
    outs = []
    for i, snap in enumerate(rounds):
        if state is None:
            new = snap
        else:
            new = dedup_against_snapshot(snap, state)
        new = new.map_batches(
            lambda b, _i=i: b.append_column(
                "first_snapshot",
                pa.array([_i] * b.num_rows, pa.int64())),
            batch_format="pyarrow").materialize()
        outs.append(new)
        kept = new.select_columns(["doc_id", "text"])
        state = kept if state is None else state.union(kept).materialize()

    result = outs[0]
    for o in outs[1:]:
        result = result.union(o)
    return result.select_columns(["doc_id", "first_snapshot"])


def _q_mix_assemble(sf_dir: str):
    """EXECUTE the data-mixing plan: mix_plan's per-source (n_epochs,
    rate_ppm) broadcasts, then one flat-map emits (doc_id, epoch) copies
    kept iff md5-LE64("mix:<doc>:<epoch>") % 10⁶ < rate_ppm — the
    deterministic per-copy sampling that lands each source on its token
    target. Oracle: the plan CTEs + generate_series epochs + the same
    hash rule."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from documentai_ray.stages.curation import mix_plan
    from documentai_ray.stages.sketches import md5_le64

    srcs = set(pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["source"]).column("source").to_pylist())
    weights = {s: int(s[3:]) % 4 + 1 for s in srcs}
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])
    plan = mix_plan(ds, weights, budget_factor=2).to_pandas()
    pref = ray.put({r["source"]: (int(r["n_epochs"]), int(r["rate_ppm"]))
                    for _, r in plan.iterrows()})

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def assemble(batch: pa.Table) -> pa.Table:
        p = ray.get(pref)
        out_d, out_s, out_e = [], [], []
        for d, s in zip(batch.column("doc_id").to_pylist(),
                        batch.column("source").to_pylist()):
            epochs, rate = p[s]
            for e in range(epochs):
                if md5_le64(f"mix:{d}:{e}") % 1_000_000 < rate:
                    out_d.append(d)
                    out_s.append(s)
                    out_e.append(e)
        return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                         "source": pa.array(out_s, pa.string()),
                         "epoch": pa.array(out_e, pa.int64())})

    return docs.map_batches(assemble, batch_format="pyarrow",
                            batch_size=512)


def _q_mix_plan(sf_dir: str):
    """Data-mixing plan (Pile/DoReMi static mix): per-source token counts
    (combiner pass bounded by source cardinality) + integer epoch/rate
    math against a 2x-corpus token budget with weights (srcN: N%4+1).
    Token = whitespace split, mirroring token_stats."""
    import pyarrow.parquet as pq
    import ray.data

    from documentai_ray.stages.curation import mix_plan

    srcs = set(pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["source"]).column("source").to_pylist())
    weights = {s: int(s[3:]) % 4 + 1 for s in srcs}
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])
    return mix_plan(ds, weights, budget_factor=2)


def _q_ngram_novelty(sf_dir: str):
    """Per-document 3-gram novelty (``textstats.ngram_novelty``): the
    fraction of each doc's distinct shingles first seen in the corpus
    at this doc_id — the repetition-between-documents curation signal
    at per-doc granularity (the corpus deliberately plants exact and
    near duplicates, which score ~0 here).  A distinct n-gram is novel
    exactly where its min(doc_id) lands, so novel counts come from the
    min table grouped by its own value — no join back to the pair
    stream; the only big exchange is the corpus-ngram (ngram, id)
    shuffle, the MinHash band-shuffle cost class.  Docs join their
    denominator via a distributed left hash join (zero-ngram docs keep
    rows, ppm 0).  Shingles are the dedup convention."""
    import ray.data

    from documentai_ray.stages.textstats import ngram_novelty

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ngram_novelty(ds, id_col="doc_id", text_col="text", n=3)


def _q_oov_rate(sf_dir: str):
    """Per-document out-of-vocabulary rate against a reference
    vocabulary built from the ``doc_id % 10 == 0`` slice
    (``textstats.build_vocab_distributed`` + ``oov_rate``) — the
    tokenizer-coverage eval.  The vocab is a distributed distinct
    (bounded by |V|, Heaps' law), ships ONCE via ray.put, and
    membership is one hash-based np.isin per batch over the flattened
    token array with reduceat per-doc folds — zero exchange on the
    scoring pass, no per-token Python.  Slice docs score 0 by
    construction (their tokens define the vocab); the rest
    discriminate.  Mirror: anti-join of unnested tokens vs the slice
    vocab CTE."""
    import ray
    import ray.data

    from documentai_ray.stages.textstats import (build_vocab_distributed,
                                                 oov_rate)

    import pyarrow as pa

    def slice_only(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return batch.filter(pa.array(ids % 10 == 0))

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    vocab = build_vocab_distributed(
        ds.map_batches(slice_only, batch_format="pyarrow"),
        text_col="text")
    return oov_rate(ds, ray.put(vocab), id_col="doc_id", text_col="text")


def _q_url_templates(sf_dir: str):
    """URL template census over the outlink stream
    (``extract.url_template_batch``): collapse every digit run in the
    link path?query to ``{n}`` and count instances per (host, template)
    — the crawl-frontier signal behind trap detection, pattern dedup
    and budgeting (a template with 10⁹ instances and near-identical
    content is a calendar trap; a flat page set isn't).  Anchor edges
    flat-map → one pyarrow regex kernel per batch → per-batch pandas
    pre-combine → ONE exchange bounded by distinct (host, template),
    never the edge stream.  Oracle: the template closed form (6 fixed
    nav/footer paths per decodable page, /rel/{n} ×2 on article/report
    pages, /cat/{n}/{n} ×12 on link-farm pages)."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import (anchor_edges_batch,
                                               url_template_batch)

    ds = pages_dataset(sf_dir, with_dups=False)
    edges = ds.select_columns(["url", "html"]).map_batches(
        anchor_edges_batch, batch_format="pyarrow", batch_size=256)
    tmpl = edges.map_batches(url_template_batch, batch_format="pyarrow")

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["host", "template"], as_index=False)
             .size().rename(columns={"size": "n"}))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    return (tmpl.map_batches(combine, batch_format="pyarrow")
            .groupby(["host", "template"])
            .aggregate(Sum("n", alias_name="n_links")))


def _q_q17_decorrelated(sf_dir: str):
    """TPC-H Q17-style correlated aggregate, decorrelated: revenue
    locked in small-quantity line items (quantity below 20% of the
    part's own average) — the canonical subquery-per-row pattern
    rewritten as per-part stats + a partitioned hash_join back onto
    the fact, with the threshold kept EXACT in integers:
    q < 0.2·(Σq/n) ⟺ 5·q·n < Σq (no float average anywhere).
    Per-part (Σq, n) folds on one part-bounded exchange; the fact
    re-joins on the same key (both sides large → ``joins.hash_join``,
    not a broadcast); one scalar fold.  Mirror: the same inequality
    verbatim."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    from documentai_ray.stages.joins import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        q = np.rint(batch.column("l_quantity").to_numpy()).astype("int64")
        price_c = np.rint(batch.column("l_extendedprice").to_numpy()
                          * 100).astype("int64")
        return pa.table({"partkey": batch.column("l_partkey"),
                         "qty": pa.array(q, pa.int64()),
                         "price_c": pa.array(price_c, pa.int64())})

    fact = li.map_batches(prep, batch_format="pyarrow")
    stats = (fact.groupby("partkey")
             .aggregate(Sum("qty", alias_name="sq"),
                        Count(alias_name="np")))
    joined = hash_join(fact, stats, on="partkey")

    def small(batch: pa.Table) -> pa.Table:
        qty = batch.column("qty").to_numpy()
        sq = batch.column("sq").to_numpy()
        n = batch.column("np").to_numpy()
        keep = 5 * qty * n < sq
        price = batch.column("price_c").to_numpy()[keep]
        return pa.table({"n_small": pa.array([int(keep.sum())], pa.int64()),
                         "rev_c": pa.array([int(price.sum())], pa.int64())})

    out = (joined.map_batches(small, batch_format="pyarrow")
           .aggregate(Sum("n_small", alias_name="n_small"),
                      Sum("rev_c", alias_name="revenue_cents")))
    import pandas as pd
    return pd.DataFrame([{"n_small": int(out["n_small"]),
                          "revenue_cents": int(out["revenue_cents"])}])


def _q_orders_all_ontime(sf_dir: str):
    """Universal child predicate per order (the SLA fill-rate
    pattern): orders where EVERY line item shipped within 30 days of
    the order date, rolled up per priority — relational_division's
    sibling on a CONDITION over join children rather than a divisor
    set.  ``joins.hash_join`` co-locates each order's lines, the
    all-pass flag is one vectorized groupby-min per partition, and
    only (priority, flag) partials cross the second exchange.
    Orders with no line items drop on the inner join (both engines,
    documented).  Mirror: min(CASE) per order + priority rollup."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"])

    def li_prep(batch: pa.Table) -> pa.Table:
        return pa.table({"orderkey": batch.column("l_orderkey"),
                         "ship_d": batch.column("l_shipdate")
                         .cast(pa.date32()).cast(pa.int32())})

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.table({"orderkey": batch.column("o_orderkey"),
                         "order_d": batch.column("o_orderdate")
                         .cast(pa.date32()).cast(pa.int32()),
                         "pri": batch.column("o_orderpriority")})

    joined = hash_join(li.map_batches(li_prep, batch_format="pyarrow"),
                       orders.map_batches(o_prep, batch_format="pyarrow"),
                       on="orderkey")

    def per_order(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["_ok"] = (df["ship_d"] - df["order_d"] <= 30).astype("int64")
        g = (df.groupby("orderkey", sort=False)
             .agg(pri=("pri", "first"), ontime=("_ok", "min"))
             .reset_index())
        out = (g.groupby("pri", sort=False)
               .agg(n_orders=("ontime", "size"),
                    n_all_ontime=("ontime", "sum")).reset_index())
        return pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)

    agg = (joined.map_batches(per_order, batch_format="pyarrow")
           .groupby("pri")
           .aggregate(Sum("n_orders", alias_name="n_orders"),
                      Sum("n_all_ontime", alias_name="n_all_ontime"))
           ).to_pandas()
    agg = agg.rename(columns={"pri": "o_orderpriority"})
    agg["n_orders"] = agg["n_orders"].astype("int64")
    agg["n_all_ontime"] = agg["n_all_ontime"].astype("int64")
    agg["ontime_ppm"] = (1_000_000 * agg["n_all_ontime"]
                         // agg["n_orders"]).astype("int64")
    return agg


def _q_minmax_scale(sf_dir: str):
    """Per-key min-max feature scaling in exact ppm — the affine
    member of the featurizer family (target encoding handles categorical,
    quantile normalization rank; this is the plain (v − min)/(max − min)
    every feature pipeline starts with), exact because value cents are
    integers: scaled_ppm = 10⁶·(v_c − lo) // (hi − lo).  Per-key
    (lo, hi) folds on one bounded exchange and broadcasts in a closure
    (|keys| rows); the scaling pass is one vectorized map, zero
    further exchange.  Raises on a constant key (hi = lo: scale
    undefined).  Mirror: min/max CTE join + the same floor."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Max, Min

    def cents(batch: pa.Table) -> pa.Table:
        v = np.rint(batch.column("value").to_numpy() * 100).astype("int64")
        return pa.table({"event_id": batch.column("event_id"),
                         "event_type": batch.column("event_type"),
                         "vc": pa.array(v, pa.int64())})

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"]
    ).map_batches(cents, batch_format="pyarrow")
    mm = (ev.groupby("event_type")
          .aggregate(Min("vc", alias_name="lo"),
                     Max("vc", alias_name="hi"))).to_pandas()
    if (mm["hi"] == mm["lo"]).any():
        bad = mm.loc[mm["hi"] == mm["lo"], "event_type"].iloc[0]
        raise ValueError(f"minmax_scale: constant value for {bad!r}")
    lo = dict(zip(mm["event_type"], mm["lo"].astype("int64")))
    hi = dict(zip(mm["event_type"], mm["hi"].astype("int64")))

    def scale(batch: pa.Table) -> pa.Table:
        import pandas as pd
        k = batch.column("event_type").to_pandas()
        v = batch.column("vc").to_numpy()
        l = k.map(lo).to_numpy()
        h = k.map(hi).to_numpy()
        s = (1_000_000 * (v - l)) // (h - l)
        return pa.table({"event_id": batch.column("event_id"),
                         "event_type": batch.column("event_type"),
                         "scaled_ppm": pa.array(s, pa.int64())})

    return ev.map_batches(scale, batch_format="pyarrow")


def _q_rfm_segments(sf_dir: str):
    """RFM segmentation of purchasers (the classic CRM featurizer):
    recency (days since last purchase, vs corpus max ts), frequency
    (purchase count), monetary (whole dollars) — each quintile-ranked
    1..5 (1 = best) with the DETERMINISTIC rank rule
    q = 1 + 5·rank // n on a (metric, user_id) total order, because
    SQL ntile() on ties is order-dependent where row_number is not.
    Metrics are day/dollar-granular BY DEFINITION — that is standard
    RFM practice and what keeps ``aggregates.global_row_index``'s
    value histogram bounded (days ≤ span, dollars ≤ price cap) so the
    rank assignment never global-sorts.  One purchase-filtered user
    exchange + three bounded-histogram rank passes.  Mirror:
    row_number() windows with the same tiebreak."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    from documentai_ray.stages.aggregates import global_row_index

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = batch.filter(pc.equal(batch.column("event_type"), "purchase"))
        v = np.rint(b.column("value").to_numpy() * 100).astype("int64")
        t = b.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({"user_id": b.column("user_id"),
                         "t_us": t, "cents": pa.array(v, pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Max("t_us", alias_name="last_us"),
                           Count(alias_name="frequency"),
                           Sum("cents", alias_name="monetary_c")))
    t_max = int(per_user.max("last_us"))

    def metrics(batch: pa.Table) -> pa.Table:
        last = batch.column("last_us").to_numpy()
        rec_d = (t_max - last) // 86_400_000_000
        mon_d = batch.column("monetary_c").to_numpy() // 100
        return pa.table({
            "user_id": batch.column("user_id"),
            "recency_d": pa.array(rec_d.astype("int64"), pa.int64()),
            "frequency": batch.column("frequency").cast(pa.int64()),
            "monetary_d": pa.array(mon_d.astype("int64"), pa.int64()),
            "neg_f": pa.array((-batch.column("frequency").to_numpy())
                              .astype("int64"), pa.int64()),
            "neg_m": pa.array((-mon_d).astype("int64"), pa.int64())})

    m = per_user.map_batches(metrics, batch_format="pyarrow")
    n_users = m.count()
    m = global_row_index(m, val_col="recency_d", tiebreak_col="user_id",
                         out_col="_ri_r")
    m = global_row_index(m, val_col="neg_f", tiebreak_col="user_id",
                         out_col="_ri_f")
    m = global_row_index(m, val_col="neg_m", tiebreak_col="user_id",
                         out_col="_ri_m")

    def buckets(batch: pa.Table) -> pa.Table:
        def q(col):
            return (1 + 5 * batch.column(col).to_numpy()
                    // n_users).astype("int64")
        rq, fq, mq = q("_ri_r"), q("_ri_f"), q("_ri_m")
        return pa.table({
            "user_id": batch.column("user_id"),
            "recency_d": batch.column("recency_d"),
            "frequency": batch.column("frequency"),
            "monetary_d": batch.column("monetary_d"),
            "r_q": pa.array(rq, pa.int64()),
            "f_q": pa.array(fq, pa.int64()),
            "m_q": pa.array(mq, pa.int64()),
            "rfm_code": pa.array(100 * rq + 10 * fq + mq, pa.int64())})

    return m.map_batches(buckets, batch_format="pyarrow")


def _q_revenue_share(sf_dir: str):
    """Ratio-to-parent rollup (the report-share window family):
    order revenue per nation with share-of-region and share-of-global
    in exact ppm — orders join customer on the partitioned
    ``joins.hash_join`` (both fact-sized at scale; the round-1 verdict
    retired the orders-dict broadcast for exactly this shape), nation
    and region ride as a 25-row closure lookup, shares fold on the
    25-row driver frame.  Mirror: two-level join + HUGEINT share."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def o_prep(batch: pa.Table) -> pa.Table:
        c = np.rint(batch.column("o_totalprice").to_numpy()
                    * 100).astype("int64")
        return pa.table({"custkey": batch.column("o_custkey"),
                         "cents": pa.array(c, pa.int64())})

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def c_prep(batch: pa.Table) -> pa.Table:
        return pa.table({"custkey": batch.column("c_custkey"),
                         "nationkey": batch.column("c_nationkey")})

    joined = hash_join(orders.map_batches(o_prep, batch_format="pyarrow"),
                       cust.map_batches(c_prep, batch_format="pyarrow"),
                       on="custkey")
    per_nation = (joined.groupby("nationkey")
                  .aggregate(Sum("cents", alias_name="revenue_cents"))
                  ).to_pandas()

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    df = (per_nation.merge(nat, left_on="nationkey",
                           right_on="n_nationkey")
          .merge(reg, left_on="n_regionkey", right_on="r_regionkey"))
    df["revenue_cents"] = df["revenue_cents"].astype("int64")
    reg_tot = df.groupby("r_name")["revenue_cents"].transform("sum")
    glob_tot = int(df["revenue_cents"].sum())
    # 25-row driver fold in Python ints: 10⁶·cents clears int64 at sf ≥ 1
    df["share_region_ppm"] = pd.array(
        [1_000_000 * int(r) // int(t)
         for r, t in zip(df["revenue_cents"], reg_tot)], dtype="int64")
    df["share_global_ppm"] = pd.array(
        [1_000_000 * int(r) // glob_tot
         for r in df["revenue_cents"]], dtype="int64")
    return df[["n_name", "r_name", "revenue_cents",
               "share_region_ppm", "share_global_ppm"]]


def _q_bm25_topk(sf_dir: str):
    """Integer-exact BM25 retrieval (``indexing.bm25_topk``): top-5
    docs per fixed query under the Okapi shape — tf saturation
    (k₁ = 6/5) and length normalization (b = 3/4) cleared to the exact
    rational 22·tf·L / (10·tf·L + 3·L + 9·dl·N), weighted by the
    RATIONAL idf 10⁶·(N−df+1)//(df+1) (log idf is irrational; libm ulp
    noise would flip near-tie ranks across engines) — the two scoring
    behaviors tfidf_topk's raw tf·10⁶//df deliberately lacks.  Pass 1
    folds (N, L, per-term df) through one P·(|terms|+1)-row exchange;
    pass 2 is map-side flat-token scan with Python-int exact division
    on the sparse hits only; grouped_topk selects.  Mirror: the same
    cleared fractions over unnest + VALUES query table + row_number."""
    import ray.data

    from documentai_ray.stages.indexing import bm25_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return bm25_topk(ds, queries=_BM25_QUERIES, k=5)


def _q_mrr_eval(sf_dir: str):
    """Reciprocal-rank evaluation of the bm25_topk ranking against
    AND-relevance (doc contains EVERY query term) — the rank-POSITION
    metric the eval family lacks: AUC scores pairwise order,
    lang_prf set overlap, cohens_kappa agreement; none says "how far
    down is the first right answer".  rr_ppm = 10⁶ // first relevant
    rank (0 when none lands in the top-k); MRR is the mean of the
    column.  The candidate set is ≤ |queries|·k rows, so relevance
    needs one pruned corpus scan filtered to candidate ids (the
    index-free fetch) — nothing else materializes.  Mirror: the bm25
    CTE chain + per-(q,doc) matched-term counts vs |q|."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from documentai_ray.stages.indexing import bm25_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    top = bm25_topk(ds, queries=_BM25_QUERIES, k=5)
    cand = set(int(d) for d in top["doc_id"])

    def pick(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch.column("doc_id"),
                     value_set=pa.array(sorted(cand), pa.int64()))
        return batch.filter(m)

    toksets = {}
    for row in (ds.map_batches(pick, batch_format="pyarrow")
                .take_all()):
        toksets[int(row["doc_id"])] = set((row["text"] or "").split(" "))

    recs = []
    for qid, terms in sorted(_BM25_QUERIES.items()):
        need = set(terms)
        rows = top[top["query_id"] == qid].sort_values("rank")
        rel = [int(r) for r, d in zip(rows["rank"], rows["doc_id"])
               if need <= toksets[int(d)]]
        first = min(rel) if rel else 0
        recs.append((qid, len(rel), first,
                     1_000_000 // first if first else 0))
    out = pd.DataFrame(recs, columns=["query_id", "n_rel",
                                      "first_rank", "rr_ppm"])
    for c in ("n_rel", "first_rank", "rr_ppm"):
        out[c] = out[c].astype("int64")
    return out


def _q_degree_assortativity(sf_dir: str):
    """Degree assortativity of the irregular link graph as Kendall
    concordance over edge endpoints (in-deg(src) vs in-deg(dst)) — the
    MIXING question the rest of the graph family doesn't ask:
    PageRank scores importance, the clustering coefficient local
    closure, k-core peeling depth; this asks whether well-linked pages link TO
    well-linked pages (assortative, tau > 0) or to obscure ones
    (disassortative) — the hub-wiring signature.  tau_a with the full
    tie decomposition rides ``grouped_kendall_int``'s joint-histogram
    plan (in-degrees have a tiny domain — Poisson-ish around 2 — so
    pair counts are cell products, never edge² comparisons).  In-deg
    table from ONE dst-bounded exchange, stitched to edges by two
    partitioned hash_joins (deg 0 for never-cited sources).  Mirror:
    UNION edge generator + histogram self-join."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.extras import grouped_kendall_int
    from documentai_ray.stages.joins import hash_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src, dst = [ids], [(ids * 7 + 1) % n]
        m1 = ids % 3 >= 1
        src.append(ids[m1]); dst.append((ids[m1] * 13 + 2) % n)
        m2 = ids % 3 == 2
        src.append(ids[m2]); dst.append((ids[m2] * 31 + 3) % n)
        return pa.table({
            "src": pa.array(np.concatenate(src).astype("int64")),
            "dst": pa.array(np.concatenate(dst).astype("int64"))})

    e = docs.map_batches(edges, batch_format="pyarrow")
    from ray.data.aggregate import Count

    ind = (e.groupby("dst").aggregate(Count(alias_name="deg")))

    def as_src(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch.column("dst"),
                         "deg_src": batch.column("deg").cast(pa.int64())})

    def as_dst(batch: pa.Table) -> pa.Table:
        return pa.table({"dst": batch.column("dst"),
                         "deg_dst": batch.column("deg").cast(pa.int64())})

    j1 = hash_join(e, ind.map_batches(as_src, batch_format="pyarrow"),
                   on="src", how="left")
    j2 = hash_join(j1, ind.map_batches(as_dst, batch_format="pyarrow"),
                   on="dst", how="left")

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        x = pc.fill_null(batch.column("deg_src"), 0)
        y = pc.fill_null(batch.column("deg_dst"), 0)
        return pa.table({"g": pa.array(["all"] * len(batch)),
                         "x": x.cast(pa.int64()), "y": y.cast(pa.int64())})

    return grouped_kendall_int(
        j2.map_batches(prep, batch_format="pyarrow"),
        key_col="g", x_col="x", y_col="y")


def _q_ndcg_eval(sf_dir: str):
    """nDCG@5 of the bm25_topk ranking under AND-relevance — the
    FULL-LIST companion to mrr_eval's first-hit position: MRR is blind
    to everything after the first relevant result; nDCG credits every
    relevant doc, discounted by depth.  The discount is the RATIONAL
    harmonic 10⁶ // (1 + rank) (log₂ discounts are irrational — same
    reasoning as bm25's idf), so dcg, the ideal idcg (all R relevant
    docs packed at the top, R from one corpus-bounded count), and
    ndcg_ppm = 10⁶·dcg // idcg are exact integers.  Costs the bm25
    chain + one pruned AND-count scan.  Mirror: shared _SQL_BM25_CORE
    + generate_series ideal fold."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.indexing import bm25_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    top = bm25_topk(ds, queries=_BM25_QUERIES, k=5)
    qlist = sorted(_BM25_QUERIES.items())

    def rel_partial(batch: pa.Table) -> pa.Table:
        texts = batch.select(["text"]).to_pandas()["text"].fillna("")
        sets = [set(t.split(" ")) for t in texts]
        ids = batch.column("doc_id").to_numpy()
        qs, ds_, fl = [], [], []
        for qid, terms in qlist:
            need = set(terms)
            for i, s in enumerate(sets):
                if need <= s:
                    qs.append(qid)
                    ds_.append(int(ids[i]))
                    fl.append(1)
        return pa.table({"query_id": pa.array(qs, pa.string()),
                         "doc_id": pa.array(ds_, pa.int64()),
                         "_one": pa.array(fl, pa.int64())})

    rel = (ds.map_batches(rel_partial, batch_format="pyarrow")
           .groupby("query_id")
           .aggregate(Sum("_one", alias_name="n_rel_total"))).to_pandas()
    n_rel = dict(zip(rel["query_id"], rel["n_rel_total"].astype(int)))
    # relevance FLAGS only for the ≤ |queries|·k candidates (the total
    # count above is the only corpus-wide fact; materializing all
    # relevant pairs would scale with the corpus)
    cand = set(int(d) for d in top["doc_id"])

    def pick(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.is_in(batch.column("doc_id"),
                     value_set=pa.array(sorted(cand), pa.int64()))
        return batch.filter(m)

    rel_pairs = set()
    for row in (ds.map_batches(pick, batch_format="pyarrow")
                .map_batches(rel_partial, batch_format="pyarrow")
                .take_all()):
        rel_pairs.add((row["query_id"], int(row["doc_id"])))

    recs = []
    for qid, _terms in qlist:
        rows = top[top["query_id"] == qid]
        dcg = sum(1_000_000 // (1 + int(r))
                  for r, d in zip(rows["rank"], rows["doc_id"])
                  if (qid, int(d)) in rel_pairs)
        r_tot = n_rel.get(qid, 0)
        idcg = sum(1_000_000 // (1 + s)
                   for s in range(1, min(r_tot, 5) + 1))
        recs.append((qid, r_tot, dcg, idcg,
                     1_000_000 * dcg // idcg if idcg else 0))
    out = pd.DataFrame(recs, columns=["query_id", "n_rel_total",
                                      "dcg_ppm", "idcg_ppm", "ndcg_ppm"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out


def _q_did_estimator(sf_dir: str):
    """Difference-in-differences over purchase spend: treatment = the
    Knuth-hash coin (split_assign's convention — deterministic,
    parallelism-independent, SQL-reproducible where RNG isn't), period
    split at the integer midpoint of purchase timestamps, outcome =
    value cents.  Cell means are TRUNC MILLI-CENTS (1000·Σc // n, one
    floor per cell — the defined contract; clearing the 4-cell
    difference to a single fraction needs the n₁₁n₁₀n₀₁n₀₀ product,
    which overflows for nothing gained), did_mc = (m₁₁−m₁₀)−(m₀₁−m₀₀).
    ONE exchange bounded by 4·P partial cells.  Mirror: identical
    CASE-pivoted fold."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = batch.filter(pc.equal(batch.column("event_type"), "purchase"))
        ids = b.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = b.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        c = np.rint(b.column("value").to_numpy() * 100).astype("int64")
        return pa.table({
            "treat": pa.array(h < np.uint64(1 << 31)),
            "t_us": t, "cents": pa.array(c, pa.int64())})

    p = ev.map_batches(prep, batch_format="pyarrow")
    t_min, t_max = int(p.min("t_us")), int(p.max("t_us"))
    mid = (t_min + t_max) // 2

    def cell(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "treat": batch.column("treat"),
            "post": pc.greater_equal(batch.column("t_us"),
                                     pa.scalar(mid, pa.int64())),
            "cents": batch.column("cents")})

    g = (p.map_batches(cell, batch_format="pyarrow")
         .groupby(["treat", "post"])
         .aggregate(Sum("cents", alias_name="s"),
                    Count(alias_name="n"))).to_pandas()
    if len(g) != 4:
        raise ValueError(f"did_estimator: expected 4 cells, got {len(g)}")
    cells = {(bool(t), bool(po)): (int(s), int(n))
             for t, po, s, n in zip(g["treat"], g["post"], g["s"], g["n"])}
    mm = {k: 1000 * s // n for k, (s, n) in cells.items()}
    did = ((mm[(True, True)] - mm[(True, False)])
           - (mm[(False, True)] - mm[(False, False)]))
    out = pd.DataFrame([{
        "n_ctrl_pre": cells[(False, False)][1],
        "n_ctrl_post": cells[(False, True)][1],
        "n_treat_pre": cells[(True, False)][1],
        "n_treat_post": cells[(True, True)][1],
        "m_ctrl_pre_mc": mm[(False, False)],
        "m_ctrl_post_mc": mm[(False, True)],
        "m_treat_pre_mc": mm[(True, False)],
        "m_treat_post_mc": mm[(True, True)],
        "did_mc": did}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_laspeyres_index(sf_dir: str):
    """Laspeyres price index across the shipdate midpoint — the
    index-number family none of the 290 queries touch: what the BASE
    period's basket costs at CURRENT prices, over parts traded in both
    periods.  Per part, base value v₀ = Σprice_c (exact: p̄₀·q₀ is the
    sum itself) and repriced value v₁ = s₁·q₀ // q₁ (current unit
    price × base quantity, ONE floor per part — the defined contract);
    index_ppm = 10⁶·Σv₁ // Σv₀.  (partkey, period) sums cross ONE
    exchange bounded by parts×2; the part-level pivot co-locates via
    the bucketed-pkey pattern; only per-partition (n, Σv₀, Σv₁)
    partials reach the driver.  Mirror: period self-join + identical
    HUGEINT per-part floor."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_quantity",
                 "l_extendedprice"])

    day_us = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        d = (batch.column("l_shipdate").cast(pa.timestamp("us"))
             .cast(pa.int64()).to_numpy() // day_us)
        q = batch.column("l_quantity").to_numpy().astype("int64")
        c = np.rint(batch.column("l_extendedprice").to_numpy()
                    * 100).astype("int64")
        return pa.table({"partkey": batch.column("l_partkey"),
                         "dd": pa.array(d, pa.int64()),
                         "q": pa.array(q, pa.int64()),
                         "pc": pa.array(c, pa.int64())})

    d = li.map_batches(prep, batch_format="pyarrow")
    d_min, d_max = int(d.min("dd")), int(d.max("dd"))
    mid = (d_min + d_max) // 2

    def cell(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_
        return pa.table({
            "partkey": batch.column("partkey"),
            "post": pc_.greater_equal(batch.column("dd"),
                                      pa.scalar(mid, pa.int64())),
            "q": batch.column("q"), "pc": batch.column("pc")})

    g = (d.map_batches(cell, batch_format="pyarrow")
         .groupby(["partkey", "post"])
         .aggregate(Sum("q", alias_name="q"),
                    Sum("pc", alias_name="s")))

    def pivot(gdf: pd.DataFrame) -> pd.DataFrame:
        pre = gdf[~gdf["post"]].set_index("partkey")
        post = gdf[gdf["post"]].set_index("partkey")
        common = pre.index.intersection(post.index)
        if len(common) == 0:
            return pd.DataFrame({"n": pd.array([0], dtype="int64"),
                                 "v0": pd.array([0], dtype="int64"),
                                 "v1": pd.array([0], dtype="int64")})
        q0 = pre.loc[common, "q"].astype(object)
        s0 = pre.loc[common, "s"].astype(object)
        q1 = post.loc[common, "q"].astype(object)
        s1 = post.loc[common, "s"].astype(object)
        v1 = int(sum(int(a) * int(b) // int(cq)
                     for a, b, cq in zip(s1, q0, q1)))
        return pd.DataFrame({"n": pd.array([len(common)], dtype="int64"),
                             "v0": pd.array([int(s0.sum())], dtype="int64"),
                             "v1": pd.array([v1], dtype="int64")})

    parts = (_add_pkey(g, "partkey", 32)
             .groupby("_pkey")
             .map_groups(lambda x: pivot(x.drop(columns=["_pkey"])),
                         batch_format="pandas"))
    tot = parts.aggregate(Sum("n", alias_name="n"),
                          Sum("v0", alias_name="v0"),
                          Sum("v1", alias_name="v1"))
    n, v0, v1 = int(tot["n"]), int(tot["v0"]), int(tot["v1"])
    if v0 == 0:
        raise ValueError("laspeyres_index: empty base period")
    out = pd.DataFrame([{
        "n_parts": n, "base_value_cents": v0,
        "repriced_value_cents": v1,
        "laspeyres_ppm": 1_000_000 * v1 // v0}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_ab_conversion(sf_dir: str):
    """2×2 A/B experiment readout with an EXACT significance flag —
    the hypothesis-test step did_estimator's point estimate and
    chi2_independence's grid audit both stop short of: arms from the
    Knuth-hash coin, conversion = user has a high-value purchase
    (≥ 150, keeping the rate off the
    boundary), and the χ² test cross-multiplied so NO float ever
    decides: significant ⟺ 10⁶·N·(ad−bc)² > 3841459·n₁·n₀·(a+c)·(b+d)
    (χ²₍₀.₀₅,1₎ = 3.841459 as the exact rational contract constant;
    chi2_milli reported with one floor).  Per-user conversion folds
    through ONE user exchange; cells are a 4-row aggregate.
    Mirror: identical HUGEINT inequality."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Max

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        conv = pc.and_(pc.equal(batch.column("event_type"), "purchase"),
                       pc.greater_equal(batch.column("value"),
                                        pa.scalar(150.0)))
        return pa.table({"user_id": batch.column("user_id"),
                         "conv": conv.cast(pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Max("conv", alias_name="conv"))).to_pandas()
    ids = per_user["user_id"].to_numpy()
    h = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
    treat = h < np.uint64(1 << 31)
    conv = per_user["conv"].to_numpy() > 0
    a = int((treat & conv).sum())        # converted treated
    b = int((treat & ~conv).sum())
    c = int((~treat & conv).sum())
    d = int((~treat & ~conv).sum())
    n1, n0 = a + b, c + d
    det = a * d - b * c
    den = n1 * n0 * (a + c) * (b + d)
    chi2_milli = 1000 * (n1 + n0) * det * det // den if den else 0
    sig = (1_000_000 * (n1 + n0) * det * det > 3_841_459 * den
           if den else False)
    out = pd.DataFrame([{
        "n_treat": n1, "n_ctrl": n0, "conv_treat": a, "conv_ctrl": c,
        "rate_treat_ppm": 1_000_000 * a // n1,
        "rate_ctrl_ppm": 1_000_000 * c // n0,
        "uplift_ppm": 1_000_000 * a // n1 - 1_000_000 * c // n0,
        "chi2_milli": chi2_milli, "significant": sig}])
    for col in out.columns[:-1]:
        out[col] = out[col].astype("int64")
    out["significant"] = out["significant"].astype(bool)
    return out


def _q_assoc_rules(sf_dir: str):
    """Directional association rules from the co-purchase relation —
    the RULE step a symmetric co-purchase support stops short of:
    support says dup-bought-together; only confidence says WHICH WAY
    to recommend (conf(a→b) = P(b|a) differs from conf(b→a) exactly
    when the items' popularities differ), and lift vs the consequent's
    base rate separates genuine affinity from 'b is just popular'.
    conf_ppm = 10⁶·supp(ab) // supp(a); lift_ppm = 10⁶·supp(ab)·B //
    (supp(a)·supp(b)) with B = distinct baskets — each ONE floor.
    Pair supports ride ``cooccurrence_pairs``' bounded plan; item
    supports are one item-bounded exchange stitched to BOTH rule
    directions by two partitioned hash_joins (never an item-table
    broadcast).  Mirror: distinct-pair self-join + the same floors."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count

    from documentai_ray.stages.graph import cooccurrence_pairs
    from documentai_ray.stages.joins import hash_join

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_partkey"])

    def dedup(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = batch.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False) \
                       .replace_schema_metadata(None)

    # the distinct (basket, item) relation feeds pair supports, item
    # supports AND the basket count — materialize it ONCE (bounded
    # projection, never payloads) instead of re-running the scan+
    # distinct lineage three times
    dist = (ds.map_batches(dedup, batch_format="pyarrow")
            .groupby(["l_orderkey", "l_partkey"])
            .aggregate(Count(alias_name="_c"))
            .drop_columns(["_c"])).materialize()
    pairs = cooccurrence_pairs(dist, basket_col="l_orderkey",
                               item_col="l_partkey", min_support=2,
                               num_partitions=32)
    supp = (dist.groupby("l_partkey")
            .aggregate(Count(alias_name="supp")))
    n_baskets = (dist.groupby("l_orderkey")
                 .aggregate(Count(alias_name="_n"))).count()

    def both_dirs(batch: pa.Table) -> pa.Table:
        import numpy as np
        a = batch.column("item_a").to_numpy()
        b = batch.column("item_b").to_numpy()
        n = batch.column("n").to_numpy()
        return pa.table({
            "antecedent": pa.array(np.concatenate([a, b]), pa.int64()),
            "consequent": pa.array(np.concatenate([b, a]), pa.int64()),
            "supp_ab": pa.array(np.concatenate([n, n]).astype("int64"),
                                pa.int64())})

    rules = pairs.map_batches(both_dirs, batch_format="pyarrow")

    def s_ante(batch: pa.Table) -> pa.Table:
        return pa.table({"antecedent": batch.column("l_partkey"),
                         "supp_a": batch.column("supp").cast(pa.int64())})

    def s_cons(batch: pa.Table) -> pa.Table:
        return pa.table({"consequent": batch.column("l_partkey"),
                         "supp_b": batch.column("supp").cast(pa.int64())})

    j = hash_join(rules, supp.map_batches(s_ante, batch_format="pyarrow"),
                  on="antecedent")
    j = hash_join(j, supp.map_batches(s_cons, batch_format="pyarrow"),
                  on="consequent")

    def score(batch: pa.Table) -> pa.Table:
        sab = batch.column("supp_ab").to_numpy()
        sa = batch.column("supp_a").to_numpy()
        sb = batch.column("supp_b").to_numpy()
        conf = 1_000_000 * sab // sa
        lift = 1_000_000 * sab * n_baskets // (sa * sb)
        return pa.table({
            "antecedent": batch.column("antecedent"),
            "consequent": batch.column("consequent"),
            "supp_ab": batch.column("supp_ab"),
            "supp_a": batch.column("supp_a"),
            "conf_ppm": pa.array(conf.astype("int64"), pa.int64()),
            "lift_ppm": pa.array(lift.astype("int64"), pa.int64())})

    return j.map_batches(score, batch_format="pyarrow")


def _q_uplift_deciles(sf_dir: str):
    """Heterogeneous-treatment readout: conversion uplift per ACTIVITY
    decile — ab_conversion's single number hides who responds (heavy
    users may convert regardless; the uplift lives in the middle
    deciles), which is the question targeting budgets hang on.  Users
    rank by (event count desc, user_id) through
    ``aggregates.global_row_index`` (the rfm_segments discipline:
    row_number is tie-deterministic where ntile isn't; the count
    domain is bounded so the rank never global-sorts), decile =
    1 + 10·rank // n; per decile the Knuth arms' conversion rates and
    uplift in exact ppm.  One user exchange + one bounded-histogram
    rank pass + a 10×4 fold.  Mirror: row_number + identical floors."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max

    from documentai_ray.stages.aggregates import global_row_index

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        conv = pc.and_(pc.equal(batch.column("event_type"), "purchase"),
                       pc.greater_equal(batch.column("value"),
                                        pa.scalar(150.0)))
        return pa.table({"user_id": batch.column("user_id"),
                         "conv": conv.cast(pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Count(alias_name="n_ev"),
                           Max("conv", alias_name="conv")))
    n_users = per_user.count()

    def neg(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "neg_n", pa.array((-batch.column("n_ev").to_numpy())
                              .astype("int64"), pa.int64()))

    ranked = global_row_index(
        per_user.map_batches(neg, batch_format="pyarrow"),
        val_col="neg_n", tiebreak_col="user_id", out_col="_ri")

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        treat = h < np.uint64(1 << 31)
        dec = 1 + 10 * batch.column("_ri").to_numpy() // n_users
        conv = batch.column("conv").to_numpy() > 0
        df = pd.DataFrame({"decile": dec.astype("int64"),
                           "t": treat, "c": conv})
        g = df.groupby(["decile", "t"], as_index=False).agg(
            n=("c", "size"), conv=("c", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    from ray.data.aggregate import Sum

    g = (ranked.map_batches(cells, batch_format="pyarrow")
         .groupby(["decile", "t"])
         .aggregate(Sum("n", alias_name="n"),
                    Sum("conv", alias_name="conv"))).to_pandas()
    recs = []
    for d in sorted(g["decile"].unique()):
        gt = g[(g["decile"] == d) & g["t"]]
        gc = g[(g["decile"] == d) & ~g["t"]]
        nt = int(gt["n"].sum())
        nc = int(gc["n"].sum())
        ct = int(gt["conv"].sum())
        cc = int(gc["conv"].sum())
        rt = 1_000_000 * ct // nt if nt else 0
        rc = 1_000_000 * cc // nc if nc else 0
        recs.append((int(d), nt, ct, nc, cc, rt, rc, rt - rc))
    out = pd.DataFrame(recs, columns=[
        "decile", "n_treat", "conv_treat", "n_ctrl", "conv_ctrl",
        "rate_treat_ppm", "rate_ctrl_ppm", "uplift_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_paasche_index(sf_dir: str):
    """Paasche price index — Laspeyres' mirror twin (CURRENT basket at
    base prices in the denominator): Laspeyres asks what the OLD
    basket costs now and overstates inflation when buyers substitute
    away from items whose price rose; Paasche reprices the NEW basket
    and understates it — the gap between the two IS the substitution
    effect, which is why index shops publish both.  Numerator Σs₁ is
    EXACT (no division); denominator floors once per part
    (s₀·q₁ // q₀ under HUGEINT).  Same bounded plan as
    laspeyres_index.  Mirror: period self-join with the mirrored
    floor."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_quantity",
                 "l_extendedprice"])
    day_us = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        d = (batch.column("l_shipdate").cast(pa.timestamp("us"))
             .cast(pa.int64()).to_numpy() // day_us)
        q = batch.column("l_quantity").to_numpy().astype("int64")
        c = np.rint(batch.column("l_extendedprice").to_numpy()
                    * 100).astype("int64")
        return pa.table({"partkey": batch.column("l_partkey"),
                         "dd": pa.array(d, pa.int64()),
                         "q": pa.array(q, pa.int64()),
                         "pc": pa.array(c, pa.int64())})

    d = li.map_batches(prep, batch_format="pyarrow")
    d_min, d_max = int(d.min("dd")), int(d.max("dd"))
    mid = (d_min + d_max) // 2

    def cell(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_
        return pa.table({
            "partkey": batch.column("partkey"),
            "post": pc_.greater_equal(batch.column("dd"),
                                      pa.scalar(mid, pa.int64())),
            "q": batch.column("q"), "pc": batch.column("pc")})

    g = (d.map_batches(cell, batch_format="pyarrow")
         .groupby(["partkey", "post"])
         .aggregate(Sum("q", alias_name="q"),
                    Sum("pc", alias_name="s")))

    def pivot(gdf: pd.DataFrame) -> pd.DataFrame:
        pre = gdf[~gdf["post"]].set_index("partkey")
        post = gdf[gdf["post"]].set_index("partkey")
        common = pre.index.intersection(post.index)
        if len(common) == 0:
            return pd.DataFrame({"n": pd.array([0], dtype="int64"),
                                 "v1": pd.array([0], dtype="int64"),
                                 "v0": pd.array([0], dtype="int64")})
        q0 = pre.loc[common, "q"].astype(object)
        s0 = pre.loc[common, "s"].astype(object)
        q1 = post.loc[common, "q"].astype(object)
        s1 = post.loc[common, "s"].astype(object)
        v0 = int(sum(int(a) * int(b) // int(cq)
                     for a, b, cq in zip(s0, q1, q0)))
        return pd.DataFrame({"n": pd.array([len(common)], dtype="int64"),
                             "v1": pd.array([int(s1.sum())],
                                            dtype="int64"),
                             "v0": pd.array([v0], dtype="int64")})

    parts = (_add_pkey(g, "partkey", 32)
             .groupby("_pkey")
             .map_groups(lambda x: pivot(x.drop(columns=["_pkey"])),
                         batch_format="pandas"))
    tot = parts.aggregate(Sum("n", alias_name="n"),
                          Sum("v0", alias_name="v0"),
                          Sum("v1", alias_name="v1"))
    n, v0, v1 = int(tot["n"]), int(tot["v0"]), int(tot["v1"])
    if v0 == 0:
        raise ValueError("paasche_index: empty repriced base")
    out = pd.DataFrame([{
        "n_parts": n, "current_value_cents": v1,
        "repriced_base_cents": v0,
        "paasche_ppm": 1_000_000 * v1 // v0}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_fd_mine(sf_dir: str):
    """Functional-dependency DISCOVERY over a candidate list — the
    mining side of a single-FD error check (profiling asks "which
    dependencies hold?" before anyone can assert one): for each
    candidate A→B, violations = |distinct(A,B)| − |distinct(A)| (zero
    ⟺ every A value maps to one B), with the key column as the planted
    true positive.  ONE pass emits per-batch distinct (pair, a, b)
    projections; two bounded exchanges (distinct pairs, then per-pair
    lhs counts); the per-pair fold is a ≤|candidates| driver frame.
    Mirror: generated UNION of distinct-count subqueries."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count

    cols = sorted({c for p in _FD_CANDIDATES for c in p})
    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)

    def explode(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        outs = []
        for i, (a, b) in enumerate(_FD_CANDIDATES):
            d = df[[a, b]].drop_duplicates()
            outs.append(pd.DataFrame({
                "_pair": i,
                "_a": d[a].astype(str), "_b": d[b].astype(str)}))
        out = pd.concat(outs, ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False) \
                       .replace_schema_metadata(None)

    per_lhs = (ds.map_batches(explode, batch_format="pyarrow")
               .groupby(["_pair", "_a", "_b"])
               .aggregate(Count(alias_name="_c"))
               .groupby(["_pair", "_a"])
               .aggregate(Count(alias_name="n_b")))

    def fold(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("_pair").agg(
            n_lhs=("_a", "size"), n_pairs=("n_b", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    from ray.data.aggregate import Sum

    tot = (per_lhs.map_batches(fold, batch_format="pyarrow")
           .groupby("_pair")
           .aggregate(Sum("n_lhs", alias_name="n_lhs"),
                      Sum("n_pairs", alias_name="n_pairs"))).to_pandas()
    tot = tot.sort_values("_pair")
    recs = []
    for _p, nl, np_ in zip(tot["_pair"], tot["n_lhs"], tot["n_pairs"]):
        a, b = _FD_CANDIDATES[int(_p)]
        recs.append((a, b, int(nl), int(np_), int(np_ - nl),
                     bool(np_ == nl)))
    out = pd.DataFrame(recs, columns=["lhs", "rhs", "n_lhs", "n_pairs",
                                      "violations", "holds"])
    for c in ("n_lhs", "n_pairs", "violations"):
        out[c] = out[c].astype("int64")
    out["holds"] = out["holds"].astype(bool)
    return out


def _q_rank_overlap(sf_dir: str):
    """Ranking-STABILITY audit: how much do the top-20 token lists of
    two Knuth-split corpus halves agree — the reproducibility question
    behind every 'top terms' dashboard (if two random halves disagree,
    the list is noise, not signal), which per-item drift tests
    (tvd/ks) can't answer because rank lists weight the TOP.  Depth-
    weighted agreement is RBO with the persistence DYADIC (p = 1/2, so each
    weight is an exact shift): rbo_ppm = Σ_{d=1..20}
    10⁶·overlap@d // (d·2^d), one floor per depth (identical lists
    score 999980, not 10⁶ — the truncation residue, documented);
    jaccard@20 rides along as the unweighted check.  Token counts per
    half cross ONE vocab-bounded exchange; the 20-row lists rank
    driver-side with the (count desc, token) tiebreak.  Mirror:
    FILTER-split counts + row_number + a depth grid join."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        import numpy as np
        ids = batch.column("doc_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        half = (h < np.uint64(1 << 31))
        texts = batch.select(["text"]).to_pandas()["text"].fillna("")
        toks = texts.str.split(" ")
        lens = toks.str.len().astype("int64").to_numpy()
        flat = np.fromiter((t for lst in toks for t in lst),
                           dtype=object, count=int(lens.sum()))
        hrep = np.repeat(half, lens)
        df = pd.DataFrame({"token": flat, "_h": hrep})
        g = df.groupby(["token", "_h"], as_index=False).size()
        g["size"] = g["size"].astype("int64")
        return pa.Table.from_pandas(
            g.rename(columns={"size": "_n"}),
            preserve_index=False).replace_schema_metadata(None)

    g = (ds.map_batches(counts, batch_format="pyarrow")
         .groupby(["token", "_h"])
         .aggregate(Sum("_n", alias_name="n"))).to_pandas()

    def top20(half: bool) -> list[str]:
        sub = g[g["_h"] == half].sort_values(
            ["n", "token"], ascending=[False, True], kind="mergesort")
        return list(sub["token"].head(20))

    a, b = top20(True), top20(False)
    sa, sb = set(a), set(b)
    rbo = 0
    for d in range(1, 21):
        ov = len(set(a[:d]) & set(b[:d]))
        rbo += 1_000_000 * ov // (d * (1 << d))
    out = pd.DataFrame([{
        "k": 20,
        "overlap_at_5": len(set(a[:5]) & set(b[:5])),
        "overlap_at_20": len(sa & sb),
        "jaccard20_ppm": 1_000_000 * len(sa & sb) // len(sa | sb),
        "rbo_ppm": rbo}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_chain_index(sf_dir: str):
    """Chained Laspeyres across shipdate quarters — how real CPIs
    link: a fixed-base index drifts as the basket ages (laspeyres_index
    measures exactly once across one midpoint), so statistical offices
    re-base every period and MULTIPLY the links.  Quarter k vs k−1
    links on parts traded in both (v₀ = Σs_{k−1} exact, v₁ floors once
    per part — the laspeyres_index contract), then the chain is the
    sequential trunc-ppm product c_k = c_{k−1}·link_k // 10⁶ (the
    ``windows.markov_kstep_int`` discipline).  One (part, quarter) exchange, bucketed
    per-part pivot, per-partition (k, n, v₀, v₁) partials, 3-row
    driver fold.  Mirror: VALUES-join links + 3 chained CTEs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_quantity",
                 "l_extendedprice"])
    day_us = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        d = (batch.column("l_shipdate").cast(pa.timestamp("us"))
             .cast(pa.int64()).to_numpy() // day_us)
        q = batch.column("l_quantity").to_numpy().astype("int64")
        c = np.rint(batch.column("l_extendedprice").to_numpy()
                    * 100).astype("int64")
        return pa.table({"partkey": batch.column("l_partkey"),
                         "dd": pa.array(d, pa.int64()),
                         "q": pa.array(q, pa.int64()),
                         "pc": pa.array(c, pa.int64())})

    d = li.map_batches(prep, batch_format="pyarrow")
    d_min, d_max = int(d.min("dd")), int(d.max("dd"))
    span1 = d_max - d_min + 1

    def cell(batch: pa.Table) -> pa.Table:
        dd = batch.column("dd").to_numpy()
        qk = (dd - d_min) * 4 // span1
        return pa.table({"partkey": batch.column("partkey"),
                         "qk": pa.array(qk.astype("int64"), pa.int64()),
                         "q": batch.column("q"),
                         "pc": batch.column("pc")})

    g = (d.map_batches(cell, batch_format="pyarrow")
         .groupby(["partkey", "qk"])
         .aggregate(Sum("q", alias_name="q"),
                    Sum("pc", alias_name="s")))

    def links(gdf: pd.DataFrame) -> pd.DataFrame:
        recs = []
        for k in (1, 2, 3):
            pre = gdf[gdf["qk"] == k - 1].set_index("partkey")
            post = gdf[gdf["qk"] == k].set_index("partkey")
            common = pre.index.intersection(post.index)
            v0 = int(pre.loc[common, "s"].astype(object).sum()) \
                if len(common) else 0
            v1 = int(sum(int(s1) * int(q0) // int(q1) for s1, q0, q1
                         in zip(post.loc[common, "s"],
                                pre.loc[common, "q"],
                                post.loc[common, "q"]))) \
                if len(common) else 0
            recs.append((k, len(common), v0, v1))
        out = pd.DataFrame(recs, columns=["k", "n", "v0", "v1"])
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    tot = (_add_pkey(g, "partkey", 32)
           .groupby("_pkey")
           .map_groups(lambda x: links(x.drop(columns=["_pkey"])),
                       batch_format="pandas")
           .groupby("k")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("v0", alias_name="v0"),
                      Sum("v1", alias_name="v1"))).to_pandas()
    tot = tot.sort_values("k")
    recs = []
    chain = 1_000_000
    for k, n, v0, v1 in zip(tot["k"], tot["n"], tot["v0"], tot["v1"]):
        if int(v0) == 0:
            raise ValueError(f"chain_index: empty base for link {k}")
        link = 1_000_000 * int(v1) // int(v0)
        chain = chain * link // 1_000_000
        recs.append((int(k), int(n), link, chain))
    out = pd.DataFrame(recs, columns=["link", "n_parts", "link_ppm",
                                      "chain_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_lorenz_deciles(sf_dir: str):
    """Lorenz curve of customer revenue by decile — the CURVE behind
    the Gini coefficient's single number (two populations can share a Gini while
    concentrating in different tails; budget and fairness decisions
    read the curve, not the scalar).  Customers rank ASCENDING by
    whole-dollar revenue (the rfm_segments trick: the dollar domain is
    bounded so ``global_row_index``'s histogram broadcast stays small
    where raw cents wouldn't; custkey tiebreak), decile =
    1 + 10·rank // n; per decile the EXACT cent sum, share and
    cumulative share in ppm (floors on the 10-row driver frame only).
    One customer exchange + one bounded-histogram rank pass.
    Mirror: row_number over (dollars, custkey) + identical floors."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.aggregates import global_row_index

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        c = np.rint(batch.column("o_totalprice").to_numpy()
                    * 100).astype("int64")
        return pa.table({"custkey": batch.column("o_custkey"),
                         "cents": pa.array(c, pa.int64())})

    per_cust = (orders.map_batches(prep, batch_format="pyarrow")
                .groupby("custkey")
                .aggregate(Sum("cents", alias_name="cents")))
    n_cust = per_cust.count()

    def dollars(batch: pa.Table) -> pa.Table:
        d = batch.column("cents").to_numpy() // 100
        return batch.append_column(
            "rev_d", pa.array(d.astype("int64"), pa.int64()))

    ranked = global_row_index(
        per_cust.map_batches(dollars, batch_format="pyarrow"),
        val_col="rev_d", tiebreak_col="custkey", out_col="_ri")

    def bucket(batch: pa.Table) -> pa.Table:
        dec = 1 + 10 * batch.column("_ri").to_numpy() // n_cust
        return pa.table({"decile": pa.array(dec.astype("int64"),
                                            pa.int64()),
                         "cents": batch.column("cents")})

    g = (ranked.map_batches(bucket, batch_format="pyarrow")
         .groupby("decile")
         .aggregate(Sum("cents", alias_name="cents"))).to_pandas()
    g = g.sort_values("decile")
    total = int(g["cents"].astype(object).sum())
    recs, cum = [], 0
    for dec, c in zip(g["decile"], g["cents"]):
        cum += int(c)
        recs.append((int(dec), int(c), 1_000_000 * int(c) // total,
                     1_000_000 * cum // total))
    out = pd.DataFrame(recs, columns=["decile", "revenue_cents",
                                      "share_ppm", "cum_share_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_rmst_summary(sf_dir: str):
    """Survival summary scalars over the Kaplan–Meier fold (``windows.km_survival_int``): RMST
    (restricted mean survival time — the AREA under the 30-day curve,
    in ppm·days: the 'average user-days alive per user' number a
    retention budget multiplies) and the median survival day (first
    day the curve drops below 500000 ppm; −1 = not reached inside the
    window — the standard censoring-honest answer, NOT a guess).
    Derived driver-side from the same one-exchange fold.  Mirror:
    the Kaplan–Meier CTE chain wrapped in one aggregate."""
    import pandas as pd
    import ray.data

    from documentai_ray.stages.windows import km_survival_int

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    km = km_survival_int(ev, horizon_days=30, censor_gap_hours=6)
    rmst = int(km["s_ppm"].astype(object).sum())
    below = km[km["s_ppm"] < 500_000]
    med = int(below["day"].iloc[0]) if len(below) else -1
    out = pd.DataFrame([{
        "horizon_days": 30,
        "rmst_ppm_days": rmst,
        "median_day": med,
        "s_end_ppm": int(km["s_ppm"].iloc[-1])}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_q10_returns(sf_dir: str):
    """TPC-H-Q10-shaped returned-item report: revenue lost to 'R'
    returns per customer, top-20 — the 3-join + top-k reporting shape
    (filtered fact → orders → customer + broadcast nation) the
    relational suite (q1/q3/q5/q17) didn't yet exercise end-to-end
    with a grouped top-k on the joined result.  Revenue EXACT in
    cent·percent units: rev_c4 = Σ round(ep·100)·(100 − round(d·100))
    per line, summed per customer, ONE floor to cents at the end.
    Both fact joins are partitioned ``hash_join``s (the round-1
    verdict's no-orders-broadcast rule); nation is the 25-row closure.
    Top-20 via grouped_topk on a constant group.  Mirror: same units,
    same floor, row_number tiebreak."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.aggregates import grouped_topk
    from documentai_ray.stages.joins import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"])

    def l_prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        ep = np.rint(b.column("l_extendedprice").to_numpy()
                     * 100).astype("int64")
        dc = np.rint(b.column("l_discount").to_numpy()
                     * 100).astype("int64")
        return pa.table({"orderkey": b.column("l_orderkey"),
                         "rev_c4": pa.array(ep * (100 - dc), pa.int64())})

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.table({"orderkey": batch.column("o_orderkey"),
                         "custkey": batch.column("o_custkey")})

    j = hash_join(li.map_batches(l_prep, batch_format="pyarrow"),
                  orders.map_batches(o_prep, batch_format="pyarrow"),
                  on="orderkey")
    per_cust = (j.groupby("custkey")
                .aggregate(Sum("rev_c4", alias_name="rev_c4")))

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"])

    def c_prep(batch: pa.Table) -> pa.Table:
        return pa.table({"custkey": batch.column("c_custkey"),
                         "c_name": batch.column("c_name"),
                         "nationkey": batch.column("c_nationkey")})

    j2 = hash_join(per_cust,
                   cust.map_batches(c_prep, batch_format="pyarrow"),
                   on="custkey")

    def const_key(batch: pa.Table) -> pa.Table:
        import numpy as np
        return batch.append_column(
            "_g", pa.array(np.zeros(len(batch), dtype="int64")))

    top = grouped_topk(j2.map_batches(const_key, batch_format="pyarrow"),
                       key_col="_g", sort_cols=["rev_c4", "custkey"],
                       ascending=[False, True], k=20).to_pandas()
    nat = pq_.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    top = top.merge(nat, left_on="nationkey", right_on="n_nationkey")
    top = top.sort_values(["rev_c4", "custkey"],
                          ascending=[False, True], kind="mergesort")
    top["revenue_cents"] = (top["rev_c4"].astype(object) // 100) \
        .astype("int64")
    top["rank"] = pd.array(range(1, len(top) + 1), dtype="int64")
    top["custkey"] = top["custkey"].astype("int64")
    return top[["rank", "custkey", "c_name", "n_name",
                "revenue_cents"]].reset_index(drop=True)


def _q_q8_market_share(sf_dir: str):
    """TPC-H-Q8-shaped market share: of all revenue that region-0
    CUSTOMERS spend, what fraction flows to SUPPLIERS of nation 1,
    per order-year — the 4-way join + ratio-within-group showcase
    (lineitem ⋈ supplier-nation ⋈ orders-year ⋈ customer-nation-region)
    where both fact joins are partitioned hash_joins and both dims are
    25-row closures.  Exact cent·percent units per line; the share
    floors ONCE per year on the ≤|years| driver frame:
    share_ppm = 10⁶·Σ_target // Σ_all.  Mirror: same joins, CASE'd
    numerator, HUGEINT."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    nat = pq_.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg0_nations = set(
        nat.loc[nat["n_regionkey"] == 0, "n_nationkey"].astype(int))
    sup = pq_.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sup_nation = dict(zip(sup["s_suppkey"].astype(int),
                          sup["s_nationkey"].astype(int)))
    cust_nation = None  # customer is fact-sized: joined, not broadcast

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"])

    def l_prep(batch: pa.Table) -> pa.Table:
        ep = np.rint(batch.column("l_extendedprice").to_numpy()
                     * 100).astype("int64")
        dc = np.rint(batch.column("l_discount").to_numpy()
                     * 100).astype("int64")
        sk = batch.column("l_suppkey").to_numpy()
        tgt = np.fromiter((sup_nation.get(int(s), -1) == 1 for s in sk),
                          dtype=bool, count=len(sk))
        return pa.table({"orderkey": batch.column("l_orderkey"),
                         "rev_c4": pa.array(ep * (100 - dc), pa.int64()),
                         "is_target": pa.array(tgt)})

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        yr = pc.year(batch.column("o_orderdate")).cast(pa.int64())
        return pa.table({"orderkey": batch.column("o_orderkey"),
                         "custkey": batch.column("o_custkey"),
                         "o_year": yr})

    j = hash_join(li.map_batches(l_prep, batch_format="pyarrow"),
                  orders.map_batches(o_prep, batch_format="pyarrow"),
                  on="orderkey")

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"])

    def c_prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        nk = batch.column("c_nationkey").to_numpy()
        inr = np.fromiter((int(v) in reg0_nations for v in nk),
                          dtype=bool, count=len(nk))
        b = batch.filter(pa.array(inr))
        return pa.table({"custkey": b.column("c_custkey")})

    j2 = hash_join(j, cust.map_batches(c_prep, batch_format="pyarrow"),
                   on="custkey")

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["o_year", "rev_c4", "is_target"]).to_pandas()
        df["tgt_c4"] = df["rev_c4"].where(df["is_target"], 0)
        g = df.groupby("o_year", as_index=False).agg(
            total_c4=("rev_c4", "sum"), target_c4=("tgt_c4", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    g = (j2.map_batches(partial, batch_format="pyarrow")
         .groupby("o_year")
         .aggregate(Sum("total_c4", alias_name="total_c4"),
                    Sum("target_c4", alias_name="target_c4"))).to_pandas()
    g = g.sort_values("o_year")
    out = pd.DataFrame({
        "o_year": g["o_year"].astype("int64"),
        "total_c4": g["total_c4"].astype("int64"),
        "target_c4": g["target_c4"].astype("int64"),
        "share_ppm": pd.array(
            [1_000_000 * int(t) // int(a)
             for t, a in zip(g["target_c4"], g["total_c4"])],
            dtype="int64")})
    return out.reset_index(drop=True)


def _q_pinball_eval(sf_dir: str):
    """Quantile (pinball) loss of the hour-of-day median predictor —
    the ASYMMETRIC loss the MAE backtests (backtest_mae and
    its seasonal variants) can't express: a capacity
    planner who under-provisions pays 9× what over-provisioning costs,
    which is exactly the q = 0.9 pinball weighting; q = 0.5 rides
    along (pinball@0.5 ≡ MAE/2, the consistency anchor).  Predictor =
    per (type, hour-of-day) DOUBLED-UNIT median of the dense hourly
    counts (sum-of-middles, the repo's even-count convention);
    residual d = 2·x − m2 keeps everything integer, loss reported in
    d20 units (20× the real loss: ×2 doubling ×10 clearing q):
    pinball90_d20 = Σ(9·d if d ≥ 0 else −d), pinball50_d20 = Σ5·|d|.
    One bounded (hour, key) exchange; folds on the K×H matrix.
    Mirror: row_number middles + the identical piecewise sum."""
    import numpy as np
    import pandas as pd
    import ray.data

    from documentai_ray.stages.windows import _dense_hourly_matrix

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    keys, h, mat = _dense_hourly_matrix(
        ev, key_col="event_type", ts_col="ts", max_obs=8784)

    import pyarrow as pa
    import pyarrow.compute as pc

    def to_hour(batch: pa.Table) -> pa.Table:
        t = pc.floor_temporal(batch.column("ts"), unit="hour")
        return pa.table({"_h": t.cast(pa.timestamp("us")).cast(pa.int64())})

    h0 = int(ev.map_batches(to_hour, batch_format="pyarrow").min("_h"))
    hods = ((h0 // 3_600_000_000) + np.arange(h)) % 24
    recs = []
    for i, key in enumerate(keys):
        x = mat[i]
        p50 = 0
        p90 = 0
        for hd in range(24):
            sel = np.sort(x[hods == hd])
            m = len(sel)
            if m == 0:
                continue
            m2 = int(sel[(m - 1) // 2]) + int(sel[m // 2])
            d = 2 * sel.astype("int64") - m2
            p50 += int(5 * np.abs(d).sum())
            p90 += int(np.where(d >= 0, 9 * d, -d).sum())
        recs.append((key, h, p50, p90))
    out = pd.DataFrame(recs, columns=["event_type", "n_obs",
                                      "pinball50_d20", "pinball90_d20"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out


def _q_cohort_ltv(sf_dir: str):
    """Cohort LTV accumulation — the MONEY dimension
    weekly distinct-user retention counts erase: users
    grouped by first-event week (the retention convention), purchase
    revenue per (cohort_week, week_offset) and its running total —
    the curve a payback-period decision reads ("cohort X recovers
    acquisition cost by week k").  One user-hash exchange co-locates
    each user's events; per partition a vectorized pass finds first
    weeks and purchase offsets for ALL users; only (cohort, offset,
    cents) partials cross the second tiny exchange; the cumulative
    fold runs on the ≤cohorts×offsets driver frame.  Mirror:
    min-week join + window cumsum."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    import pyarrow.compute as pc

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        wk = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 604_800_000_000)
        c = np.rint(batch.column("value").to_numpy() * 100).astype("int64")
        is_p = pc.equal(batch.column("event_type"), "purchase").to_numpy(
            zero_copy_only=False)
        return pa.table({"user_id": batch.column("user_id"),
                         "wk": pa.array(wk.astype("int64"), pa.int64()),
                         "cents": pa.array(np.where(is_p, c, 0),
                                           pa.int64()),
                         "is_p": pa.array(is_p)})

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id")["wk"].min().rename("cw")
        p = g[g["is_p"]].merge(first, left_on="user_id",
                               right_index=True)
        p["week_offset"] = p["wk"] - p["cw"]
        out = (p.groupby(["cw", "week_offset"], as_index=False)
               ["cents"].sum())
        out = out.rename(columns={"cw": "cohort_week",
                                  "cents": "revenue_cents"})
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    g = (_add_pkey(ev.map_batches(prep, batch_format="pyarrow"),
                   "user_id", 64)
         .groupby("_pkey")
         .map_groups(lambda x: partial(x.drop(columns=["_pkey"])),
                     batch_format="pandas")
         .groupby(["cohort_week", "week_offset"])
         .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
         ).to_pandas()
    g = g.sort_values(["cohort_week", "week_offset"])
    g["cum_revenue_cents"] = (g.groupby("cohort_week")["revenue_cents"]
                              .cumsum())
    for c in g.columns:
        g[c] = g[c].astype("int64")
    return g.reset_index(drop=True)


def _q_post_stratify(sf_dir: str):
    """Post-stratification weights — the survey-calibration step every
    sample-based dashboard needs before quoting population numbers: a
    10% Knuth-coin sample of customers won't hit every market segment
    at exactly 10%, so per-segment weights w = n_pop/n_samp correct
    the imbalance (the estimator Σ w·y over the sample is then
    segment-exact).  weight_ppm = 10⁶·n_pop // n_samp, loud raise on
    an unsampled segment (silent zero would bias every downstream
    estimate).  ONE pass, one segment-bounded exchange carrying both
    the population and conditional sample counts.  Mirror: FILTER
    counts + the same floor."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"])

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch.column("c_custkey").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        samp = h < np.uint64((1 << 32) // 10)
        return pa.table({"c_mktsegment": batch.column("c_mktsegment"),
                         "_one": pa.array(np.ones(len(ids), "int64")),
                         "_s": pa.array(samp.astype("int64"), pa.int64())})

    g = (cust.map_batches(prep, batch_format="pyarrow")
         .groupby("c_mktsegment")
         .aggregate(Sum("_one", alias_name="n_pop"),
                    Sum("_s", alias_name="n_samp"))).to_pandas()
    g = g.sort_values("c_mktsegment")
    if (g["n_samp"] == 0).any():
        bad = g.loc[g["n_samp"] == 0, "c_mktsegment"].iloc[0]
        raise ValueError(f"post_stratify: segment {bad!r} unsampled")
    g["weight_ppm"] = pd.array(
        [1_000_000 * int(p) // int(s)
         for p, s in zip(g["n_pop"], g["n_samp"])], dtype="int64")
    for c in ("n_pop", "n_samp"):
        g[c] = g[c].astype("int64")
    return g.reset_index(drop=True)


def _q_lincoln_petersen(sf_dir: str):
    """Mark–recapture population estimate (Lincoln–Petersen) — the
    two-independent-samples size estimator behind overlap-based
    census tricks (how many distinct users does the full log hold,
    given two cheap subsamples?): draw two INDEPENDENT Knuth-coin
    samples (different odd multipliers), N̂ = n₁·n₂ // m where m is
    the overlap — exact integers, loud raise on zero overlap.  The
    err_ppm column against the true count is the point: the driver-
    checked row demonstrates the estimator lands near truth on real
    data without ever counting the population in the sample path.
    ONE pass, a 4-counter fold.  Mirror: same coins, same floor."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey"])
    TH = (1 << 32) // 5  # 20% coins → overlap ≈ 4% of N, stable

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch.column("c_custkey").to_numpy().astype(np.uint64)
        a = (ids * np.uint64(2654435761)) % np.uint64(1 << 32) \
            < np.uint64(TH)
        b = (ids * np.uint64(2246822519)) % np.uint64(1 << 32) \
            < np.uint64(TH)
        return pa.table({
            "_n": pa.array(np.ones(len(ids), "int64")),
            "_a": pa.array(a.astype("int64"), pa.int64()),
            "_b": pa.array(b.astype("int64"), pa.int64()),
            "_m": pa.array((a & b).astype("int64"), pa.int64())})

    t = (cust.map_batches(prep, batch_format="pyarrow")
         .aggregate(Sum("_n", alias_name="n"),
                    Sum("_a", alias_name="a"),
                    Sum("_b", alias_name="b"),
                    Sum("_m", alias_name="m")))
    n, a, b, m = (int(t["n"]), int(t["a"]), int(t["b"]), int(t["m"]))
    if m == 0:
        raise ValueError("lincoln_petersen: zero overlap")
    est = a * b // m
    out = pd.DataFrame([{
        "n1": a, "n2": b, "m_both": m, "n_true": n, "n_est": est,
        "err_ppm": 1_000_000 * abs(est - n) // n}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_german_tank(sf_dir: str):
    """Serial-number (German-tank) population estimate: from a 10%
    Knuth sample of order keys, N̂ = max + max//k − 1 — the
    minimum-variance unbiased estimator when serials run 1..N, and
    the third member of the estimation family (post_stratify
    calibrates shares, Lincoln–Petersen uses overlap, this uses
    ORDER STRUCTURE: dense ids leak their own count).  err measured
    against the true max key.  ONE pass, a 3-counter fold.
    Mirror: same coin, same closed form."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Max, Sum

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey"])

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch.column("o_orderkey").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        samp = h < np.uint64((1 << 32) // 10)
        kk = ids.astype("int64")
        return pa.table({
            "_k": pa.array(samp.astype("int64"), pa.int64()),
            "_mx": pa.array(np.where(samp, kk, np.int64(-1)), pa.int64()),
            "_tmx": pa.array(kk, pa.int64())})

    agg = (orders.map_batches(prep, batch_format="pyarrow")
           .aggregate(Sum("_k", alias_name="k"),
                      Max("_mx", alias_name="mx"),
                      Max("_tmx", alias_name="tmx")))
    k, mx, tmx = int(agg["k"]), int(agg["mx"]), int(agg["tmx"])
    if k == 0:
        raise ValueError("german_tank: empty sample")
    est = mx + mx // k - 1
    out = pd.DataFrame([{
        "k": k, "sample_max": mx, "max_true": tmx, "n_est": est,
        "err_ppm": 1_000_000 * abs(est - tmx) // tmx}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_fifo_cogs(sf_dir: str):
    """FIFO cost basis of returned stock per part — inventory
    accounting, the family running per-customer
    ledgers don't touch: treat non-'R' lines as BUYS in
    shipdate order and the part's 'R' quantity as the SELL; FIFO
    consumes the earliest buys first, so the cost of goods returned
    differs from the weighted-average basis exactly when prices
    drift — the FIFO-vs-WAVG gap IS the holding-gain signal auditors
    look for.

    The sequential queue has a CLOSED FORM (no recursion): with buys
    ordered by (shipdate, orderkey, linenumber) and B_{i−1} the
    cumulative quantity before buy i, consumed_i = clamp(S − B_{i−1},
    0, q_i).  Cost per buy floors once: consumed·price_c // q_i (unit
    price is a fraction; ONE trunc per consumed line is the
    contract).  WAVG basis floors once per part: S·Σprice_c // Σq.
    Oversold parts (S > ΣQ) consume everything — documented.  One
    (part)-hash exchange, vectorized cumsum+clip per partition, only
    per-part result rows ship.  Mirror: window cumsum + GREATEST/
    LEAST + identical floors.  Emits parts with S > 0."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_orderkey", "l_linenumber",
                 "l_shipdate", "l_quantity", "l_extendedprice",
                 "l_returnflag"])

    def prep(batch: pa.Table) -> pa.Table:
        ep = np.rint(batch.column("l_extendedprice").to_numpy()
                     * 100).astype("int64")
        d = (batch.column("l_shipdate").cast(pa.timestamp("us"))
             .cast(pa.int64()))
        return pa.table({
            "partkey": batch.column("l_partkey"),
            "orderkey": batch.column("l_orderkey"),
            "linenumber": batch.column("l_linenumber"),
            "sd": d,
            "q": batch.column("l_quantity").cast(pa.int64()),
            "pc": pa.array(ep, pa.int64()),
            "is_r": pa.array(
                (batch.column("l_returnflag").to_numpy(
                    zero_copy_only=False) == "R"))})

    def fifo(g: pd.DataFrame) -> pd.DataFrame:
        sells = (g[g["is_r"]].groupby("partkey")["q"].sum()
                 .rename("s"))
        buys = g[~g["is_r"]].merge(sells, left_on="partkey",
                                   right_index=True)
        if buys.empty:
            return pd.DataFrame({
                "partkey": pd.array([], dtype="int64"),
                "sold_qty": pd.array([], dtype="int64"),
                "fifo_cogs_cents": pd.array([], dtype="int64"),
                "wavg_cogs_cents": pd.array([], dtype="int64")})
        buys = buys.sort_values(["partkey", "sd", "orderkey",
                                 "linenumber"], kind="mergesort")
        grp = buys.groupby("partkey", sort=False)
        cum = grp["q"].cumsum()
        before = cum - buys["q"]
        consumed = np.clip(buys["s"] - before, 0, buys["q"])
        cost = [int(c) * int(p) // int(q) if c > 0 else 0
                for c, p, q in zip(consumed, buys["pc"], buys["q"])]
        buys = buys.assign(_cons=consumed, _cost=cost)
        agg = grp.agg(s=("s", "first"), qsum=("q", "sum"),
                      psum=("pc", "sum")).reset_index()
        costs = (buys.groupby("partkey", sort=False)["_cost"].sum()
                 .reset_index())
        out = agg.merge(costs, on="partkey")
        out["sold_qty"] = out["s"].astype("int64")
        out["fifo_cogs_cents"] = out["_cost"].astype("int64")
        out["wavg_cogs_cents"] = pd.array(
            [min(int(s), int(qq)) * int(p) // int(qq)
             for s, qq, p in zip(out["s"], out["qsum"], out["psum"])],
            dtype="int64")
        out["partkey"] = out["partkey"].astype("int64")
        return out[["partkey", "sold_qty", "fifo_cogs_cents",
                    "wavg_cogs_cents"]]

    return (_add_pkey(li.map_batches(prep, batch_format="pyarrow"),
                      "partkey", 64)
            .groupby("_pkey")
            .map_groups(lambda x: fifo(x.drop(columns=["_pkey"])),
                        batch_format="pandas"))

__all__ = ['_q_table_detect', '_q_field_validation', '_q_doc_type_autodetect', '_q_pq_codes', '_q_jpeg_roundtrip', '_q_tiff_roundtrip', '_q_tiff_compressed_roundtrip', '_q_png_color_roundtrip', '_q_jpeg_progressive_roundtrip', '_q_pdf_modern_extract', '_q_pdf_embedded_images', '_q_scanned_pdf_ocr', '_q_pdf_encrypted_extract', '_q_pdf_password_extract', '_q_fax_pdf_ocr', '_q_pdf_g3_ocr', '_q_pdf_jbig2_ocr', '_q_pdf_jbig2_text_ocr', '_q_pdf_jbig2_globals', '_q_pdf_jpx_extract', '_q_jpeg_lossless_roundtrip', '_q_jpeg12_roundtrip', '_q_flagship_warc', '_q_pdf_cmap_extract', '_q_warc_http_charset', '_q_pdf_metadata', '_q_pdf_outline', '_q_pdf_links', '_q_incremental_dedup', '_q_bloom_dedup', '_q_url_filter', '_q_semdedup', '_q_shard_export', '_q_dsir_weights', '_q_heavy_hitters', '_q_web_curation', '_q_incremental_session', '_q_mix_assemble', '_q_mix_plan', '_q_ngram_novelty', '_q_oov_rate', '_q_url_templates', '_q_q17_decorrelated', '_q_orders_all_ontime', '_q_minmax_scale', '_q_rfm_segments', '_q_revenue_share', '_q_bm25_topk', '_q_mrr_eval', '_q_degree_assortativity', '_q_ndcg_eval', '_q_did_estimator', '_q_laspeyres_index', '_q_ab_conversion', '_q_assoc_rules', '_q_uplift_deciles', '_q_paasche_index', '_q_fd_mine', '_q_rank_overlap', '_q_chain_index', '_q_lorenz_deciles', '_q_rmst_summary', '_q_q10_returns', '_q_q8_market_share', '_q_pinball_eval', '_q_cohort_ltv', '_q_post_stratify', '_q_lincoln_petersen', '_q_german_tank', '_q_fifo_cogs']
