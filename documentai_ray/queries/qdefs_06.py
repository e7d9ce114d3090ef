"""Driver query functions (part 6/6) — split out of ``__ray_entry__.py``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def _q_string_period(sf_dir: str):
    """Smallest period / longest border of each document's
    letters-only prefix — STRINGOLOGY, a family the surface lacked:
    the n-gram ops count k-mers and necklace_count canonicalizes
    rotations, but the period/border duality (KMP failure function)
    is combinatorics-on-words' founding object.  Convention: the
    first 128 normalized letters (stated — the mirror's naive
    min{p : s[1..n−p] = s[p+1..n]} scan is O(n²) per doc and the
    prefix bounds it); the Ray side runs the O(n) KMP border and
    their agreement is the classical border/period duality, with
    Fine–Wilf pinned in tests (``textstats.smallest_period``).
    border_len = n − period rides along, is_exact flags p | n."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.textstats import smallest_period

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def per_doc(batch: pa.Table) -> pa.Table:
        import re

        ids, ns, ps, bs, ex = [], [], [], [], []
        for did, txt in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
            t = re.sub("[^a-zA-Z]", "", txt or "").lower()[:128]
            n = len(t)
            p = smallest_period(t)
            ids.append(did)
            ns.append(n)
            ps.append(p)
            bs.append(n - p)
            ex.append(1 if n > 0 and n % p == 0 else 0)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_chars": pa.array(ns, pa.int64()),
                         "period": pa.array(ps, pa.int64()),
                         "border_len": pa.array(bs, pa.int64()),
                         "is_exact": pa.array(ex, pa.int64())})

    return ds.map_batches(per_doc, batch_format="pyarrow")


def _q_lz_complexity(sf_dir: str):
    """LZ78 phrase count per document — LEMPEL-ZIV COMPLEXITY, the
    compressibility family's missing member: rle_advisor/delta_varint
    measure codec-specific savings and cdc_chunks dedups chunks, but
    the 1978 dictionary parse is THE universal-coding complexity
    measure (c(n) ~ n/log n for stationary ergodic sources).  Each
    phrase = longest dictionary prefix + one symbol over the first
    128 normalized letters (prefix-closure makes greedy the parse;
    incomplete-final-phrase convention stated in
    ``textstats.lz78_phrases``).  compress_ppm = 10⁶·c // n is the
    op's one floor.  Mirror: recursive CTE carrying the dictionary
    as a LIST column, longest match via list_filter/list_max
    lambdas, verified bit-exact across the corpus."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.textstats import lz78_phrases

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def per_doc(batch: pa.Table) -> pa.Table:
        import re

        ids, ns, cs, pp = [], [], [], []
        for did, txt in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
            t = re.sub("[^a-zA-Z]", "", txt or "").lower()[:128]
            n = len(t)
            c = lz78_phrases(t)
            ids.append(did)
            ns.append(n)
            cs.append(c)
            pp.append(1_000_000 * c // n if n else 0)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_chars": pa.array(ns, pa.int64()),
                         "c_phrases": pa.array(cs, pa.int64()),
                         "compress_ppm": pa.array(pp, pa.int64())})

    return ds.map_batches(per_doc, batch_format="pyarrow")


def _q_edit_distance(sf_dir: str):
    """Token-level Levenshtein distance between consecutive document
    pairs (doc 2k vs 2k+1, first 16 whitespace tokens — caps stated)
    — SEQUENCE ALIGNMENT, the family capture_diff's SET diff can't
    reach: order matters here.  The metric's two a-priori bounds
    ride as computed columns: |n_a − n_b| ≤ d (lower_slack ≥ 0) and
    d ≤ max(n_a, n_b) (upper_slack ≥ 0); the triangle inequality is
    pinned in tests (``textstats.token_edit_distance``).  Pairing
    uses the bounded hash-partition pattern (dedup._add_pkey):
    groups bounded by P, never by pair cardinality; odd tail doc
    dropped (stated).  Mirror: recursive CTE over DP rows with the
    prefix-min closed form unrolling the in-row dependency."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.dedup import _add_pkey
    from documentai_ray.stages.textstats import token_edit_distance

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        import re

        ids = batch.column("doc_id").to_pylist()
        toks = [" ".join([w for w in re.split(r"\s+", t or "")
                          if w][:16])
                for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "pair_id": pa.array([i // 2 for i in ids],
                                             pa.int64()),
                         "toks": pa.array(toks, pa.string())})

    def per_part(g):
        import pandas as pd

        g = g.sort_values("doc_id")
        rows = []
        by_pair: dict = {}
        for did, pid, tk in zip(g["doc_id"], g["pair_id"],
                                g["toks"]):
            by_pair.setdefault(pid, []).append((did, tk))
        for pid in sorted(by_pair):
            mem = sorted(by_pair[pid])
            if len(mem) != 2:
                continue  # odd tail doc: dropped, stated
            (da, ta), (db, tb) = mem
            a = ta.split(" ") if ta else []
            b = tb.split(" ") if tb else []
            d = token_edit_distance(a, b)
            rows.append((pid, da, db, len(a), len(b), d,
                         d - abs(len(a) - len(b)),
                         max(len(a), len(b)) - d))
        return pd.DataFrame(rows, columns=[
            "pair_id", "doc_a", "doc_b", "n_a", "n_b", "edit_dist",
            "lower_slack", "upper_slack"]).astype("int64")

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    return (_add_pkey(prepped, "pair_id", 64)
            .groupby("_pkey")
            .map_groups(lambda g: per_part(g.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def _q_crc8_checksum(sf_dir: str):
    """CRC-8/SMBUS of each document's normalized 64-byte prefix —
    POLYNOMIAL CODES over GF(2), the coding family's
    division-residue member (hamming74_fec is a block parity code,
    luhn_check a decimal checksum; CRC is the burst-error workhorse).
    Table-driven MSB-first walk (table built once at import, T2
    discipline); the defining algebraic property — the residue of
    (message ‖ crc) is 0 — ships as a COMPUTED column, and
    exhaustive ≤8-bit burst-error detection is pinned in tests
    (``textstats.crc8``).  The letters-only normalization guarantees
    ASCII so chars == bytes (stated).  Mirror: recursive CTE
    replaying the same 256-entry table walk via xor() indexing."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.textstats import CRC8_TABLE, crc8

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def per_doc(batch: pa.Table) -> pa.Table:
        import re

        ids, ns, cs, rs = [], [], [], []
        for did, txt in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
            t = re.sub("[^a-zA-Z]", "", txt or "").lower()[:128][:64]
            data = t.encode()
            c = crc8(data)
            ids.append(did)
            ns.append(len(data))
            cs.append(c)
            rs.append(crc8(data + bytes([c])))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_bytes": pa.array(ns, pa.int64()),
                         "crc8": pa.array(cs, pa.int64()),
                         "residue": pa.array(rs, pa.int64())})

    return ds.map_batches(per_doc, batch_format="pyarrow")


def _q_bwt_runs(sf_dir: str):
    """Burrows–Wheeler transform run counts over the corpus —
    COMPRESSED INDEXING, the modern-stringology member
    (string_period is classical combinatorics on words; the BWT run
    count r is THE parameter of FM-/r-indexes, and repetitive text
    collapses to few runs).  Per doc: 32-letter normalized prefix +
    '$' sentinel (byte order matches DuckDB binary collation —
    stated), full rotation sort, run counts of BWT and input, the
    PERMUTATION property as a computed per-row certificate
    (sorted(bwt) == sorted(input)), and INVERTIBILITY via LF
    mapping pinned in tests (``textstats.bwt_runs``).
    ratio_ppm = 10⁶·runs_bwt // runs_input, the op's one floor (BWT
    can also EXPAND runs — no clamp, stated)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.textstats import bwt_runs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def per_doc(batch: pa.Table) -> pa.Table:
        import re

        ids, ns, rb, ri, rp, pm = [], [], [], [], [], []
        for did, txt in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
            t = re.sub("[^a-zA-Z]", "", txt or "").lower()[:32] + "$"
            b, runs = bwt_runs(t)
            runs_in = 1 + sum(1 for i in range(1, len(t))
                              if t[i] != t[i - 1])
            ids.append(did)
            ns.append(len(t))
            rb.append(runs)
            ri.append(runs_in)
            rp.append(1_000_000 * runs // runs_in)
            pm.append(1 if sorted(b) == sorted(t) else 0)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_chars": pa.array(ns, pa.int64()),
                         "runs_bwt": pa.array(rb, pa.int64()),
                         "runs_input": pa.array(ri, pa.int64()),
                         "ratio_ppm": pa.array(rp, pa.int64()),
                         "is_permutation": pa.array(pm, pa.int64())})

    return ds.map_batches(per_doc, batch_format="pyarrow")

__all__ = ['_q_string_period', '_q_lz_complexity', '_q_edit_distance', '_q_crc8_checksum', '_q_bwt_runs']


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


__all__ = __all__ + ['_q_selective_reprocess']


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


__all__ = __all__ + ['_q_extract_mixed']
