"""Driver query functions (part 6/6) — split out of ``__ray_entry__.py``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def _q_selective_reprocess(sf_dir: str):
    """M16 — selective page reprocessing (the last SURVEY-§2 partial,
    VERDICT r2 coverage table): per-doc MINIPDF (multi-page) + planted
    per-page verdicts (cycle ``(doc_id + page_idx) % 5`` over the five
    decision verdicts) → ``preprocess.selective_reprocess_batch`` →
    mixed real-PDF artifact with flagged pages re-rasterized through
    adaptive preprocessing and untouched pages re-emitted as text
    (reference preprocessing-service/app.py:333-474). ``roundtrip_ok``
    carries the in-row artifact proof (text pages re-extract
    byte-identically; image-page count matches); the oracle reconstructs
    the page/flag census in closed form."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minipdf import build_from_text
    from documentai_ray.sources.pages import is_malformed, url_for
    from documentai_ray.stages.preprocess import selective_reprocess_batch

    verdict_keys = ["direct_analysis", "pre_processing", "deep_analysis",
                    "reupload", "re_scan"]
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "text"])

    def gen(batch: pa.Table) -> pa.Table:
        from documentai_ray.functions import minipdf

        urls, payloads, verdicts = [], [], []
        for did, src, text in zip(batch.column("doc_id").to_pylist(),
                                  batch.column("source").to_pylist(),
                                  batch.column("text").to_pylist()):
            if is_malformed(did):
                continue
            payload, _ = build_from_text(text or "", shuffle_key=did)
            n_pages = len(minipdf.decode(payload))
            urls.append(url_for(did, src))
            payloads.append(payload)
            verdicts.append([verdict_keys[(did + i) % 5]
                             for i in range(n_pages)])
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array(payloads, pa.large_binary()),
            "page_verdicts": pa.array(verdicts, pa.list_(pa.string())),
        })

    ds = docs.map_batches(gen, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(selective_reprocess_batch, batch_format="pyarrow",
                        batch_size=64)
    return ds.select_columns(["url", "total_pages", "n_processed",
                              "n_skipped", "roundtrip_ok"])


def _q_extract_mixed(sf_dir: str):
    """Mixed-payload dispatch — the realistic crawl mix in ONE stream:
    by ``doc_id % 6`` each doc ships as HTML article (0-1), MINIPDF
    layout blob (2), real %PDF-1.4 uncompressed (3), real %PDF-1.4
    FlateDecode (4), or DOCX (5); one `extract_batch` pass must route
    every payload to the right parser (magic-byte dispatch,
    stages/extract.extract_one) and reproduce the per-format golden:
    main-content text for HTML, the 8-words/line relayout for all three
    binary document formats. This is the S1-S5/M1 dispatch contract the
    flagship relies on, pinned per-row against a closed-form oracle."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minipdf import build_from_text
    from documentai_ray.functions.pdfwrite import text_to_pdf, wrap_text_lines
    from documentai_ray.sources.office import make_docx
    from documentai_ray.sources.pages import _html_article, is_malformed, url_for
    from documentai_ray.stages.extract import extract_batch

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "text"])

    def gen(batch: pa.Table) -> pa.Table:
        urls, payloads = [], []
        for did, src, text in zip(batch.column("doc_id").to_pylist(),
                                  batch.column("source").to_pylist(),
                                  batch.column("text").to_pylist()):
            if is_malformed(did):
                continue
            text = text or ""
            m = did % 6
            if m <= 1:
                payload = _html_article(did, text).encode("utf-8")
            elif m == 2:
                payload, _ = build_from_text(text, shuffle_key=did)
            elif m in (3, 4):
                payload = text_to_pdf(wrap_text_lines(text), shuffle_key=did,
                                      compress=m == 4)
            else:
                payload = make_docx(wrap_text_lines(text))
            urls.append(url_for(did, src))
            payloads.append(payload)
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(payloads, pa.large_binary())})

    ds = docs.map_batches(gen, batch_format="pyarrow", batch_size=128)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=128)
    return ds.select_columns(["url", "payload_kind", "text"])


__all__ = ['_q_selective_reprocess', '_q_extract_mixed']
