"""Driver query functions (part 1/6) — split out of ``__ray_entry__.py``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def _q_extract_text(sf_dir: str):
    from documentai_ray.pipelines.flagship import flagship  # noqa: F401
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256,
                        zero_copy_batch=True)
    # project to the dedup-relevant columns BEFORE the shuffle: the exchange
    # moves (url, ts, text) only — never payload or word boxes
    ds = ds.select_columns(["url", "warc_ts", "text"])
    ds = dedup_latest(ds)
    out = ds.select_columns(["url", "text"]).take_all()
    import pyarrow as pa

    return _norm_strings(pa.Table.from_pylist(out))


def _q_charset_extract(sf_dir: str):
    """Charset-sniffing extraction (WHATWG sniff order: BOM → strict
    UTF-8 → meta charset → cp1252 fallback) over a corpus where pages
    ship as UTF-8 / UTF-16-BOM / ISO-8859-1 / windows-1252 by
    ``doc_id % 4`` — the legacy variants carry head-only non-ASCII bytes
    that are invalid UTF-8, so only a decoder that actually honors the
    BOM/meta-charset recovers the golden text (real Common Crawl is
    ~5-10% legacy-encoded). Oracle: the encoding-independent golden."""
    import functools

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False, encodings=True)
    ds = ds.map_batches(
        functools.partial(extract_batch, charset_sniff=True),
        batch_format="pyarrow", batch_size=256, zero_copy_batch=True)
    return _norm_strings_ds(ds.select_columns(["url", "text"]))


def _q_quality_pages(sf_dir: str):
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch
    from documentai_ray.stages.quality import quality_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = ds.select_columns(["url", "warc_ts", "text", "lang"])
    ds = dedup_latest(ds)
    ds = ds.map_batches(quality_batch, batch_format="pyarrow", batch_size=256)
    return ds.select_columns(
        ["url", "n_chars", "n_tokens", "uniq_tokens", "rep_ratio",
         "struct_ratio", "confidence", "verdict", "lang_ok"]
    )


def _q_classify_pages(sf_dir: str):
    from documentai_ray.pipelines.flagship import flagship

    ds = flagship(sf_dir=sf_dir)
    return ds.select_columns(["url", "category", "votes"])


def _q_entities_po(sf_dir: str):
    from documentai_ray.pipelines.flagship import flagship
    import pyarrow.compute as pc

    ds = flagship(sf_dir=sf_dir)
    ds = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("category"), "purchase_order")),
        batch_format="pyarrow",
    )
    return ds.select_columns(
        ["url", "po_number", "po_date", "seller", "buyer", "goods",
         "quantity", "unit", "currency", "total_amount", "incoterms"]
    )


def _q_entities_invoice(sf_dir: str):
    """Proforma-invoice extraction (M18): flat fields + nested
    ``goods_items: list<struct>`` parsed with the header-anchored
    rsplit(" ", 5) goods-table parser (reference
    entity_extraction_updated/extractor/performa_invoice.py:43-65)."""
    from documentai_ray.pipelines.flagship import flagship
    import pyarrow.compute as pc

    ds = flagship(sf_dir=sf_dir)
    ds = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("category"), "invoice")),
        batch_format="pyarrow",
    )
    return ds.select_columns(
        ["url", "inv_number", "inv_date", "seller", "buyer", "currency",
         "total_amount", "incoterms", "goods_items"]
    )


def _q_rules_po(sf_dir: str):
    from documentai_ray.pipelines.flagship import flagship
    import pyarrow.compute as pc

    ds = flagship(sf_dir=sf_dir)
    ds = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("category"), "purchase_order")),
        batch_format="pyarrow",
    )
    return ds.select_columns(["url", "rules_passed", "rules_failed", "overall_valid"])


def _q_preprocess_decision(sf_dir: str):
    """M15 preprocess decision as emitted by the flagship chain (quality →
    decision → classify): verdict → needs_preprocessing / operations /
    priority (reference gateway app.py:132-219)."""
    from documentai_ray.pipelines.flagship import flagship

    ds = flagship(sf_dir=sf_dir)
    return ds.select_columns(
        ["url", "verdict", "needs_preprocessing", "pp_operations", "pp_priority"]
    )


def _q_wordbox_match(sf_dir: str):
    """M23 entity↔word-box matching end-to-end on the PDF path: PO docs laid
    out as MINIPDF (line-preserving) → layout walk keeps ``word_boxes`` →
    ``extract_po`` on the walk text → ``match_entity_boxes`` (exact /
    consecutive-multi-word / substring, reference
    entity-extraction-service/app.py:890-966) → matched bbox columns per
    field. Oracle: the layout geometry's closed form (×2 walk scale,
    x = 36 + Σ(6·len+4), y = 50 + 100·block + 12·line)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minipdf import build_from_lines
    from documentai_ray.sources.pages import is_malformed, po_lines, url_for
    from documentai_ray.stages.entities import extract_po, match_entity_boxes
    from documentai_ray.stages.extract import extract_batch

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def gen(batch: pa.Table) -> pa.Table:
        urls, payloads = [], []
        for did, src in zip(batch.column("doc_id").to_pylist(),
                            batch.column("source").to_pylist()):
            if did % 5 != 2 or is_malformed(did):
                continue
            urls.append(url_for(did, src))
            payloads.append(build_from_lines(po_lines(did), shuffle_key=did)[0])
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(payloads, pa.large_binary())})

    ds = docs.map_batches(gen, batch_format="pyarrow", batch_size=256)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)

    fields = ["po_number", "po_date", "seller", "buyer", "total_amount"]

    def match(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {"url": batch.column("url").to_pylist()}
        for f in fields:
            for suf in ("page", "x0", "y0", "x1", "y1"):
                cols[f"{f}_{suf}"] = []
        for text, boxes in zip(batch.column("text").to_pylist(),
                               batch.column("word_boxes").to_pylist()):
            ents = extract_po(text)
            matched = match_entity_boxes({f: ents[f] for f in fields}, boxes)
            for f in fields:
                b = matched[f]
                cols[f"{f}_page"].append(b["page"] if b else None)
                for suf in ("x0", "y0", "x1", "y1"):
                    cols[f"{f}_{suf}"].append(b[suf] if b else None)
        out = {"url": pa.array(cols["url"], pa.string())}
        for f in fields:
            out[f"{f}_page"] = pa.array(cols[f"{f}_page"], pa.int64())
            for suf in ("x0", "y0", "x1", "y1"):
                out[f"{f}_{suf}"] = pa.array(cols[f"{f}_{suf}"], pa.float64())
        return pa.table(out)

    return ds.map_batches(match, batch_format="pyarrow")


def _q_flagship_boxes(sf_dir: str):
    """Flagship-with-boxes variant (VERDICT r2 #6): the FULL flagship
    chain (extract → quality → decision → classify → entities → rules)
    with ``with_entity_boxes=True`` — word_boxes survive to the entities
    stage and every extracted PO field gains matched bbox columns
    (reference runtime enrichment, app.py:571-579). Same PO-MINIPDF
    corpus and closed-form geometry oracle as ``wordbox_match``, plus the
    fused category (the chain must still classify these as
    purchase_order for the PO extractor to fire at all)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minipdf import build_from_lines
    from documentai_ray.pipelines.flagship import flagship
    from documentai_ray.sources.pages import is_malformed, po_lines, url_for

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def gen(batch: pa.Table) -> pa.Table:
        urls, payloads = [], []
        for did, src in zip(batch.column("doc_id").to_pylist(),
                            batch.column("source").to_pylist()):
            if did % 5 != 2 or is_malformed(did):
                continue
            urls.append(url_for(did, src))
            payloads.append(build_from_lines(po_lines(did), shuffle_key=did)[0])
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(payloads, pa.large_binary())})

    ds = docs.map_batches(gen, batch_format="pyarrow", batch_size=256)
    out = flagship(ds, dedup=False, with_entity_boxes=True, batch_size=256)
    cols = ["url", "category"]
    for f in ("po_number", "po_date", "seller", "buyer", "total_amount"):
        cols += [f"{f}_page", f"{f}_x0", f"{f}_y0", f"{f}_x1", f"{f}_y1"]
    return out.select_columns(cols)


def _q_docs_exact_dedup(sf_dir: str):
    import ray.data

    from documentai_ray.stages.dedup import dedup_exact_first

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang", "source"])
    out = dedup_exact_first(ds, id_col="doc_id", content_col="text")
    return out.select_columns(["doc_id", "lang", "source"])


def _q_token_stats(sf_dir: str):
    """Per-language token totals with per-batch partial aggregation
    (combiner before the groupby shuffle — SURVEY 'Aggregation at scale')."""
    import math

    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        # single-space split, empty pieces counted — exact mirror of the
        # oracle's len(string_split(text, ' ')) (ADVICE r1: .split() with no
        # arg diverges on runs of whitespace/tabs/newlines)
        toks = [len((t or "").split(" ")) for t in batch.column("text").to_pylist()]
        df = pd.DataFrame({"lang": langs, "toks": toks})
        g = df.groupby("lang", as_index=False).agg(
            total_tokens=("toks", "sum"), n_docs=("toks", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("total_tokens", alias_name="total_tokens"),
                   Sum("n_docs", alias_name="n_docs"))
        .to_pandas()
    )
    agg["avg_tokens"] = [
        math.floor(t / n * 1e6) / 1e6
        for t, n in zip(agg["total_tokens"], agg["n_docs"])
    ]
    return agg[["lang", "n_docs", "total_tokens", "avg_tokens"]]


def _q_doc_quality(sf_dir: str):
    import ray.data

    from documentai_ray.stages.quality import quality_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
    ds = ds.map_batches(quality_batch, batch_format="pyarrow", batch_size=512)
    return ds.select_columns(
        ["doc_id", "n_chars", "n_tokens", "uniq_tokens", "rep_ratio",
         "struct_ratio", "confidence", "verdict", "lang_ok"]
    )


def _q_minhash_neardup(sf_dir: str):
    """MinHash-LSH near-dup pairs over the pages corpus (with planted
    near-dups), verified with exact 3-shingle Jaccard ≥ 0.8."""
    _, pairs = _minhash_verified_pairs(sf_dir)
    out = pairs.to_pandas()
    return out.rename(columns={"id_a": "url_a", "id_b": "url_b"})


def _q_minhash_dedup_keep(sf_dir: str):
    """Full near-dup dedup: verified pairs → distributed connected
    components (min-label propagation) → keep one representative (min url)
    per component. Output: surviving urls."""
    from documentai_ray.stages.dedup import neardup_components_auto
    import pyarrow.compute as pc

    pages, pairs = _minhash_verified_pairs(sf_dir)
    comp = neardup_components_auto(pages.select_columns(["url"]), pairs,
                                   id_col="url", max_iters=3,
                                   num_partitions=16)

    def survivors(batch):
        return batch.filter(
            pc.equal(batch.column("url"), batch.column("component"))
        ).select(["url"])

    return comp.map_batches(survivors, batch_format="pyarrow")


def _q_ppjoin_pairs(sf_dir: str):
    """EXACT set-similarity join via prefix filtering (PPJoin family) —
    deterministic-recall near-dup pairs, the LSH alternative with NO
    probabilistic misses: md5-ordered shingle prefixes as candidate keys
    (dedup.prefix_filter_pairs), exact-Jaccard verification.  Must equal
    the full-pairwise ground truth EXACTLY — the same oracle
    minhash_neardup uses, with recall guaranteed by construction here
    rather than by band/row tuning."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import (prefix_filter_pairs,
                                             verify_jaccard_pairs)
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = ds.select_columns(["url", "text"]).materialize()
    cand = prefix_filter_pairs(ds, id_col="url", threshold=0.8,
                               num_partitions=16)
    out = verify_jaccard_pairs(ds, cand, threshold=0.8).to_pandas()
    return out.rename(columns={"id_a": "url_a", "id_b": "url_b"})


def _q_containment_pairs(sf_dir: str):
    """SET CONTAINMENT join (asymmetric near-dup): (sub, super) pairs
    where ≥ 80% of sub's 3-shingles appear in super — quotation /
    inclusion / template-wrapping detection, where Jaccard fails
    because the container can be arbitrarily larger. Exercises
    ``dedup.containment_candidate_pairs`` (sub side explodes only its
    pigeonhole prefix, container side is the inverted index) +
    ``verify_containment_pairs`` (integer ppm compare, inter/n_sub
    emitted for value comparison)."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import (containment_candidate_pairs,
                                             verify_containment_pairs)
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = ds.select_columns(["url", "text"]).materialize()
    cand = containment_candidate_pairs(ds, id_col="url",
                                       threshold_ppm=800_000,
                                       num_partitions=16)
    return verify_containment_pairs(ds, cand, id_col="url",
                                    threshold_ppm=800_000)


def _q_jaccard_pairs(sf_dir: str):
    """Standalone blocked n-gram Jaccard: exact pairwise word-3-gram
    similarity ≥ 0.5 within ``source`` blocks, via the inverted-index
    co-occurrence counter (``dedup.blocked_jaccard_pairs``) — only doc
    pairs sharing ≥1 shingle are touched; no n²-per-block Python loop."""
    import pandas as pd
    import ray.data

    from documentai_ray.stages.dedup import blocked_jaccard_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])
    out = blocked_jaccard_pairs(ds, id_col="doc_id", block_col="source",
                                threshold=0.5, k=3).to_pandas()
    if out.empty:
        out = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                            "id_b": pd.Series(dtype="int64")})
    return out


def _q_embedding_neardup(sf_dir: str):
    import ray.data

    from documentai_ray.stages.similarity import embedding_neardup_pairs

    import pandas as pd

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = embedding_neardup_pairs(ds, threshold=0.4).to_pandas()
    if out.empty:  # empty Dataset loses its schema through to_pandas
        out = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                            "id_b": pd.Series(dtype="int64")})
    return out


def _q_topk_similarity(sf_dir: str):
    import math

    import pyarrow.parquet as pq
    import ray.data

    from documentai_ray.stages.similarity import brute_force_topk

    q = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pylist()
    query = next(r["embedding"] for r in q if r["vec_id"] == 0)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    top = brute_force_topk(ds, query, k=10, exclude_ids={0})
    top["score"] = [math.floor(s * 1e4) / 1e4 for s in top["score"]]
    return top


def _q_pdf_layout_text(sf_dir: str):
    """PDF layout walk path (reading-order). Non-SQL-expressible: the oracle
    is the generator's own walk-order construction, asserted in pytest;
    driver records rows-only."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=128)
    out = ds.select_columns(["url", "text", "payload_kind"]).take_all()
    return _norm_strings(pa.Table.from_pylist(out))


def _q_real_pdf_extract(sf_dir: str):
    """Real-``%PDF-`` extraction path (S1/M1 real-format loop, VERDICT r2
    #2): payloads are GENUINE PDF 1.4 bytes (text objects, rotated stream
    order, half FlateDecode-compressed — functions/pdfwrite.text_to_pdf),
    extracted by the from-scratch content-stream parser
    (functions/pdfread.py). The oracle reconstructs the deterministic
    8-words-per-line relayout in SQL (same wrap as pdf_layout_text);
    malformed docs (%97) ship structurally-damaged PDFs → error rows."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False, real_pdf=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=128)
    out = ds.select_columns(["url", "text", "payload_kind"]).take_all()
    return _norm_strings(pa.Table.from_pylist(out))


def _q_lang_id(sf_dir: str):
    import ray.data

    from documentai_ray.stages.textstats import lang_id_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    ds = ds.map_batches(lang_id_batch, batch_format="pyarrow", batch_size=512)
    return ds.select_columns(["doc_id", "pred_lang"])


def _q_lang_kappa(sf_dir: str):
    """Cohen's kappa between the stored ``lang`` label and the
    ``lang_id`` prediction (``aggregates.cohens_kappa_int``) — the
    chance-corrected model-vs-annotation agreement eval (raw accuracy
    rewards majority-class parroting; kappa subtracts what the
    marginals alone would agree on). Integer ppm with explicit
    trunc-toward-zero division (the SQL ``//`` semantics). ONE
    confusion-cell exchange bounded by |langs|²."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import cohens_kappa_int
    from documentai_ray.stages.textstats import lang_id_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])
    ds = ds.map_batches(lang_id_batch, batch_format="pyarrow",
                        batch_size=512)
    return cohens_kappa_int(ds, col_a="lang", col_b="pred_lang")


def _q_lang_prf(sf_dir: str):
    """Per-class precision/recall/F1 of the lang_id prediction against
    the stored label (``aggregates.classification_prf_int``) — the
    class-level eval completing AUC (ranking) and lang_kappa
    (agreement): WHERE does the model fail. F1's harmonic mean clears
    to one integer division (2·tp·10⁶ // (2·tp+fp+fn)), so all three
    metrics are bit-exact in the nested lang_id SQL mirror. ONE
    confusion-cell exchange."""
    import ray.data

    from documentai_ray.stages.aggregates import classification_prf_int
    from documentai_ray.stages.textstats import lang_id_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])
    ds = ds.map_batches(lang_id_batch, batch_format="pyarrow",
                        batch_size=512)
    return classification_prf_int(ds, true_col="lang",
                                  pred_col="pred_lang")


def _q_token_count_bpe(sf_dir: str):
    import ray.data

    from documentai_ray.stages.textstats import token_count_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow", batch_size=512)
    return ds.select_columns(["doc_id", "n_ws_tokens", "n_bpe_tokens"])


def _q_bpe_pair_counts(sf_dir: str):
    """Top-20 adjacent character-pair frequencies over the corpus — the
    inner kernel of BPE training, fully distributed: per-batch word-Counter
    combiner → one groupby over DISTINCT words → per-word pair expansion
    (still over the compact word table, not the corpus) → groupby pair.
    Both shuffles carry rows bounded by vocabulary size, not corpus size."""
    import collections

    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.bpe import word_freqs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    wf = word_freqs(ds)

    def expand(batch: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for w, n in zip(batch.column("word").to_pylist(),
                        batch.column("n").to_pylist()):
            for i in range(len(w) - 1):
                c[w[i:i + 2]] += n
        return pa.table({"pair": pa.array(list(c.keys()), pa.string()),
                         "n": pa.array(list(c.values()), pa.int64())})

    agg = (
        wf.map_batches(expand, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    agg = agg.sort_values(["n", "pair"], ascending=[False, True],
                          kind="mergesort")
    return agg.head(20).reset_index(drop=True)


def _q_bpe_train_merges(sf_dir: str):
    """First 3 BPE merges learned from the corpus (distributed word-count
    pass + driver merge loop over the compact vocab — stages/bpe.py). The
    oracle unrolls all 3 rounds in SQL: sentinel-delimited symbol strings,
    pair counts from adjacent list positions, argmax with the (n desc,
    lhs, rhs) tie-break, and a string `replace` as the merge pass (the
    left-to-right non-overlapping semantics both engines pin)."""
    import pandas as pd
    import ray.data

    from documentai_ray.stages.bpe import bpe_train_distributed

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    merges = bpe_train_distributed(ds, num_merges=3)
    return pd.DataFrame(
        {"rank": range(1, len(merges) + 1),
         "lhs": [m[0] for m in merges],
         "rhs": [m[1] for m in merges],
         "n": [m[2] for m in merges]}).astype(
             {"rank": "int64", "n": "int64"})


def _q_bpe_encode(sf_dir: str):
    """Per-document token count under the fixed PRETRAINED_MERGES table
    (train once / encode everywhere — the map-only production shape).
    Per-batch distinct-word cache inside the stage; the oracle applies the
    same merges as nested sentinel-string replaces."""
    import ray.data

    from documentai_ray.stages.bpe import BpeEncodeStage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    ds = ds.map_batches(BpeEncodeStage(), batch_format="pyarrow",
                        batch_size=512)
    return ds.select_columns(["doc_id", "n_bpe_tokens"])


def _q_fingerprint(sf_dir: str):
    """Winnowing document fingerprint (rolling md5-token polynomial hash,
    content-defined anchors, XOR-reduced). Emitted as SIGNED int64 (the
    uint64 value wrapped) so both engines compare in a lossless dtype —
    the oracle reconstructs the md5→LE64→window-hash→anchor→bit_xor chain
    entirely in SQL (HUGEINT modular arithmetic)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.textstats import fingerprint_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    ds = ds.map_batches(fingerprint_batch, batch_format="pyarrow", batch_size=512)

    def signed(batch: pa.Table) -> pa.Table:
        import numpy as np

        u = batch.column("fingerprint").to_numpy().astype(np.uint64)
        s = u.astype(np.int64)  # two's-complement wrap
        return pa.table({"doc_id": batch.column("doc_id"),
                         "fingerprint": pa.array(s, pa.int64())})

    return ds.map_batches(signed, batch_format="pyarrow")


def _q_simhash_hamming(sf_dir: str):
    """SimHash screen of url-variant recaptures (?amp=1 ↔ base url), fully
    distributed: fingerprint per batch → partitioned hash join of the
    variant side onto its base url → vectorized 64-bit popcount filter at
    ``SIMHASH_VARIANT_MAX_HAMMING``. No driver-side materialization — the
    only exchange moves (url, simhash) projections."""
    import numpy as np
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import add_simhash
    from documentai_ray.stages.extract import extract_batch
    from documentai_ray.stages.joins import hash_join

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = add_simhash(ds.select_columns(["url", "text"])).drop_columns(["text"])

    suffix = "?amp=1"

    def base_side(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.filter(
            pc.invert(pc.ends_with(batch.column("url"), pattern=suffix)))
        return pa.table({"url_a": t.column("url"),
                         "simhash_a": t.column("simhash")})

    def amp_side(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.filter(pc.ends_with(batch.column("url"), pattern=suffix))
        bases = [u[: -len(suffix)] for u in t.column("url").to_pylist()]
        return pa.table({"url_a": pa.array(bases, pa.string()),
                         "url_b": t.column("url"),
                         "simhash_b": t.column("simhash")})

    joined = hash_join(
        ds.map_batches(base_side, batch_format="pyarrow"),
        ds.map_batches(amp_side, batch_format="pyarrow"),
        on="url_a",
    )

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.filter(pc.is_valid(batch.column("url_b")))
        if t.num_rows == 0:
            return pa.table({"url_a": pa.array([], pa.string()),
                             "url_b": pa.array([], pa.string())})
        ha = t.column("simhash_a").to_numpy().astype(np.uint64)
        hb = t.column("simhash_b").to_numpy().astype(np.uint64)
        x = ha ^ hb
        lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
        dist = np.zeros(len(x), dtype=np.int64)
        for shift in range(0, 64, 8):
            dist += lut[((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.int64)]
        keep = dist <= SIMHASH_VARIANT_MAX_HAMMING
        return pa.table({"url_a": t.column("url_a").filter(pa.array(keep)),
                         "url_b": t.column("url_b").filter(pa.array(keep))})

    return joined.map_batches(verify, batch_format="pyarrow")


def _q_group_pages(sf_dir: str):
    """A4 page→output-group segmentation (documentClassifier.py:1045-1080):
    consecutive same-category pages share a group, capped at
    ``max_pages_per_group=2``; ``purchase_order`` is ``always_separate``
    (singleton groups). Page-category sequences are synthesized
    deterministically per doc (3-8 pages, runs up to 3); the segmentation
    runs per row (ordered in-row list — never a global sort), exploded to
    (doc_id, page_num, category, group_id) rows for the oracle."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.preprocess import group_pages

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def explode(batch: pa.Table) -> pa.Table:
        d_out, p_out, c_out, g_out = [], [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            n = 3 + doc_id % 6
            cats = [_GROUP_CATS[((doc_id + i) // 3) % 3] for i in range(n)]
            gids = group_pages(cats, max_pages_per_group=2,
                               always_separate=("purchase_order",))
            for i, (c, g) in enumerate(zip(cats, gids)):
                d_out.append(doc_id); p_out.append(i + 1)
                c_out.append(c); g_out.append(g)
        return pa.table({"doc_id": pa.array(d_out, pa.int64()),
                         "page_num": pa.array(p_out, pa.int64()),
                         "category": pa.array(c_out, pa.string()),
                         "group_id": pa.array(g_out, pa.int64())})

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=512)


def _q_category_summary(sf_dir: str):
    """A5 analog: per-category roll-up (files/pages/avg-confidence shape of
    the reference's pdf_summary, classification-service/app.py:366-421)."""
    import math

    from ray.data.aggregate import Count, Sum

    from documentai_ray.pipelines.flagship import flagship

    agg = (
        flagship(sf_dir=sf_dir)
        .groupby("category")
        .aggregate(Count(alias_name="n_docs"),
                   Sum("n_chars", alias_name="total_chars"),
                   Sum("confidence", alias_name="_conf_sum"))
        .to_pandas()
    )
    agg["avg_confidence"] = [
        math.floor(s / n * 1e6) / 1e6 for s, n in zip(agg["_conf_sum"], agg["n_docs"])
    ]
    return agg[["category", "n_docs", "total_chars", "avg_confidence"]]


def _q_vote_distribution(sf_dir: str):
    """A2 analog: confidence ("k/4") distribution across the corpus."""
    from ray.data.aggregate import Count

    from documentai_ray.pipelines.flagship import flagship

    return (
        flagship(sf_dir=sf_dir)
        .groupby(["category", "votes"])
        .aggregate(Count(alias_name="n_docs"))
    )


def _q_ann_ivf(sf_dir: str):
    """IVF-flat ANN top-10, full probe (nprobe=nlist): exercises the whole
    distributed IVF machinery — centroid train, broadcast index, per-batch
    assignment matmul, probe filter, exact re-rank, partial top-k — with a
    result that equals brute-force top-10 BY CONSTRUCTION, so the exact
    SQL oracle holds at every scale. The sub-linear approximate regime
    (nprobe<nlist) has no scale-stable exact oracle — its recall margin
    collapses as the corpus outgrows the trained cells (measured: recall
    1.0 needs nprobe≥10 at sf0.01 but ≥15 at sf0.1) — so that regime is
    pinned by the planted-cluster recall tests in
    tests/test_dedup_similarity.py instead; nprobe is the documented
    recall/throughput scale knob."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from documentai_ray.stages.similarity import IVFIndex, ivf_topk

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    sample = np.asarray(tbl.column("embedding").to_pylist()[:512], dtype=np.float64)
    query = np.asarray(
        next(r["embedding"] for r in tbl.to_pylist() if r["vec_id"] == 0),
        dtype=np.float64,
    )
    index = IVFIndex(nlist=16, nprobe=16).train(sample)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return ivf_topk(ds, query, k=10, index=index, exclude_ids={0})[["vec_id"]]


def _q_mean_embedding(sf_dir: str):
    """Per-label embedding centroid sufficient statistics — the class-
    prototype computation behind cluster seeding / domain signatures.
    Exercises ``similarity.grouped_centroid``: components quantized to
    int64 BEFORE summing so the per-group sum is associative (bit-
    identical at any parallelism / in any engine); one vectorized
    np.add.at pass per block ships ≤ keys × dims partial rows, one tiny
    exchange sums them."""
    import ray.data

    from documentai_ray.stages.similarity import grouped_centroid

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["label", "embedding"])
    return grouped_centroid(ds, key_col="label", vec_col="embedding")


def _q_entities_table(sf_dir: str):
    """HTML-table tag extraction (M19/LC analog): label→value dicts from the
    PO pages' summary tables, straight off the raw html payload."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.entities import extract_table_tags

    ds = pages_dataset(sf_dir)

    def tags(batch: pa.Table) -> pa.Table:
        urls, po, qty, ccy = [], [], [], []
        for u, payload in zip(batch.column("url").to_pylist(),
                              batch.column("html").to_pylist()):
            try:
                d = extract_table_tags(payload.decode("utf-8"))
            except UnicodeDecodeError:
                continue
            if "PO" in d:
                urls.append(u)
                po.append(d.get("PO", ""))
                qty.append(d.get("QTY", ""))
                ccy.append(d.get("CCY", ""))
        return pa.table({"url": pa.array(urls, pa.string()),
                         "tag_po": pa.array(po, pa.string()),
                         "tag_qty": pa.array(qty, pa.string()),
                         "tag_ccy": pa.array(ccy, pa.string())})

    return ds.map_batches(tags, batch_format="pyarrow")


def _q_lc_tags(sf_dir: str):
    """LC-application extraction (M19, full 34-SWIFT-code coverage) + LC
    rule validation (T4): HTML-table walk keyed by normalized code cells
    (reference lc_application.py:16-38), rule-covered tags validated
    against configs/validation_rules/lc_rules.txt (40A/31C/31D incl. the
    cross-field date rule/32B/50/59)."""
    import os

    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.entities import extract_lc_tags, lc_rule_field
    from documentai_ray.stages.rules import load_rules, validate_entities

    rules = load_rules(os.path.join(_REPO_ROOT,
                                    "configs", "validation_rules", "lc_rules.txt"))
    rule_fields = ("40A", "31C", "31D", "32B", "50", "59")

    ds = pages_dataset(sf_dir)

    def tags(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {k: [] for k in
                                 ("url", "tag_40a", "tag_31c", "tag_31d",
                                  "tag_32b", "tag_50", "tag_59", "n_tags",
                                  "rules_passed", "rules_failed", "overall_valid")}
        for u, payload in zip(batch.column("url").to_pylist(),
                              batch.column("html").to_pylist()):
            try:
                d = extract_lc_tags(payload.decode("utf-8"))
            except UnicodeDecodeError:
                continue
            if not d:
                continue
            ents = {lc_rule_field(c): v for c, v in d.items()}
            res = validate_entities({f: ents.get(f, "") for f in rule_fields},
                                    rules)
            cols["url"].append(u)
            cols["tag_40a"].append(ents.get("40A", ""))
            cols["tag_31c"].append(ents.get("31C", ""))
            cols["tag_31d"].append(ents.get("31D", ""))
            cols["tag_32b"].append(ents.get("32B", ""))
            cols["tag_50"].append(ents.get("50", ""))
            cols["tag_59"].append(ents.get("59", ""))
            cols["n_tags"].append(len(d))
            cols["rules_passed"].append(res["rules_passed"])
            cols["rules_failed"].append(res["rules_failed"])
            cols["overall_valid"].append(res["overall_valid"])
        return pa.table({
            "url": pa.array(cols["url"], pa.string()),
            "tag_40a": pa.array(cols["tag_40a"], pa.string()),
            "tag_31c": pa.array(cols["tag_31c"], pa.string()),
            "tag_31d": pa.array(cols["tag_31d"], pa.string()),
            "tag_32b": pa.array(cols["tag_32b"], pa.string()),
            "tag_50": pa.array(cols["tag_50"], pa.string()),
            "tag_59": pa.array(cols["tag_59"], pa.string()),
            "n_tags": pa.array(cols["n_tags"], pa.int64()),
            "rules_passed": pa.array(cols["rules_passed"], pa.int64()),
            "rules_failed": pa.array(cols["rules_failed"], pa.int64()),
            "overall_valid": pa.array(cols["overall_valid"], pa.bool_()),
        })

    return ds.map_batches(tags, batch_format="pyarrow")


def _q_lc_tags_ocr(sf_dir: str):
    """M19 completion (VERDICT r2 #3) — LC tags recovered from PIXELS:
    rasterized LC page (bitfont glyphs) → internal OCR word boxes →
    band/column segmentation → cell grid (`ocr.table_cells_from_boxes`)
    → 34-code tag dict (`entities.lc_tags_from_rows`, logic shared with
    the HTML path) → lc_rules validation. Mirrors the reference's
    PPStructureV3 table-OCR-over-images route
    (extractor/lc_application.py:40-41). The oracle is the same
    closed-form SQL as `lc_tags` — the pixel path must produce the
    SAME tag dict the HTML path produces for the same planted doc."""
    import os

    import pyarrow as pa
    import ray.data

    from documentai_ray.sources.pages import lc_pixel_page_png, url_for
    from documentai_ray.stages.entities import lc_rule_field, lc_tags_from_rows
    from documentai_ray.stages.ocr import OcrStage, table_cells_from_boxes
    from documentai_ray.stages.rules import load_rules, validate_entities

    rules = load_rules(os.path.join(_REPO_ROOT,
                                    "configs", "validation_rules", "lc_rules.txt"))
    rule_fields = ("40A", "31C", "31D", "32B", "50", "59")

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])

    def render(batch: pa.Table) -> pa.Table:
        import numpy as np

        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array((did % 10 == 9) & (did % 97 != 0)))
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        return pa.table({
            "url": pa.array([url_for(d, s) for d, s in zip(ids, srcs)],
                            pa.string()),
            "png": pa.array([lc_pixel_page_png(d) for d in ids],
                            pa.large_binary()),
        })

    # render (task stage, small batches: wide binary rows) → OCR actor pool
    ds = ds.map_batches(render, batch_format="pyarrow", batch_size=32)
    ds = ds.map_batches(OcrStage("png"), batch_format="pyarrow",
                        batch_size=32, concurrency=2)

    def tags(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {k: [] for k in
                                 ("url", "tag_40a", "tag_31c", "tag_31d",
                                  "tag_32b", "tag_50", "tag_59", "n_tags",
                                  "rules_passed", "rules_failed",
                                  "overall_valid")}
        for u, boxes in zip(batch.column("url").to_pylist(),
                            batch.column("ocr_boxes").to_pylist()):
            d = lc_tags_from_rows(table_cells_from_boxes(boxes))
            if not d:
                continue
            ents = {lc_rule_field(c): v for c, v in d.items()}
            res = validate_entities({f: ents.get(f, "") for f in rule_fields},
                                    rules)
            cols["url"].append(u)
            cols["tag_40a"].append(ents.get("40A", ""))
            cols["tag_31c"].append(ents.get("31C", ""))
            cols["tag_31d"].append(ents.get("31D", ""))
            cols["tag_32b"].append(ents.get("32B", ""))
            cols["tag_50"].append(ents.get("50", ""))
            cols["tag_59"].append(ents.get("59", ""))
            cols["n_tags"].append(len(d))
            cols["rules_passed"].append(res["rules_passed"])
            cols["rules_failed"].append(res["rules_failed"])
            cols["overall_valid"].append(res["overall_valid"])
        return pa.table({
            "url": pa.array(cols["url"], pa.string()),
            "tag_40a": pa.array(cols["tag_40a"], pa.string()),
            "tag_31c": pa.array(cols["tag_31c"], pa.string()),
            "tag_31d": pa.array(cols["tag_31d"], pa.string()),
            "tag_32b": pa.array(cols["tag_32b"], pa.string()),
            "tag_59": pa.array(cols["tag_59"], pa.string()),
            "tag_50": pa.array(cols["tag_50"], pa.string()),
            "n_tags": pa.array(cols["n_tags"], pa.int64()),
            "rules_passed": pa.array(cols["rules_passed"], pa.int64()),
            "rules_failed": pa.array(cols["rules_failed"], pa.int64()),
            "overall_valid": pa.array(cols["overall_valid"], pa.bool_()),
        })

    return ds.map_batches(tags, batch_format="pyarrow")


def _q_error_census(sf_dir: str):
    """Error-row lineage audit (VERDICT r2 #10): the extract stage converts
    bad payloads to error rows instead of failing the block
    (stages/extract.py row-degradation; reference
    documentClassifier.py:888-896) — this query pins that contract
    end-to-end by counting rows per (payload_kind, reason) over TWO
    corpora with planted malformed payloads: the HTML corpus (%97 docs
    ship invalid UTF-8 → UnicodeDecodeError) and the real-PDF corpus
    (%97 docs ship structurally-damaged %PDF bytes → ValueError).
    Per-batch partial counts → one tiny (kind, reason) exchange."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    html = pages_dataset(sf_dir, with_dups=False)
    pdf = pages_dataset(sf_dir, with_dups=False, real_pdf=True)

    def census(batch: pa.Table) -> pa.Table:
        out = extract_batch(batch)
        kinds = out.column("payload_kind").to_pylist()
        errors = out.column("error").to_pylist()
        counts: dict[tuple, int] = {}
        for k, e in zip(kinds, errors):
            reason = e.split(":", 1)[0] if e else "ok"
            counts[(k, reason)] = counts.get((k, reason), 0) + 1
        ks = sorted(counts)
        return pa.table({
            "payload_kind": pa.array([k for k, _ in ks], pa.string()),
            "reason": pa.array([r for _, r in ks], pa.string()),
            "n": pa.array([counts[k] for k in ks], pa.int64()),
        })

    ds = html.union(pdf).map_batches(census, batch_format="pyarrow",
                                     batch_size=512)
    return (ds.groupby(["payload_kind", "reason"])
            .aggregate(Sum("n", alias_name="n_rows")))


def _q_technique_stats(sf_dir: str):
    """A8 analog: per-technique agreement with the fused category
    (documentClassifier.py:1138-1288 technique performance stats).
    Per-batch partial counts → tiny groupby."""
    import math

    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.pipelines.flagship import flagship

    ds = flagship(sf_dir=sf_dir)
    techs = ["keyword", "regex", "tokenset", "ml"]

    def partial(batch: pa.Table) -> pa.Table:
        cat = batch.column("category").to_pylist()
        rows = []
        for t in techs:
            tv = batch.column(f"tech_{t}").to_pylist()
            rows.append({"technique": t, "n_docs": len(cat),
                         "n_agree": sum(a == b for a, b in zip(tv, cat))})
        return pa.Table.from_pylist(rows)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("technique")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("n_agree", alias_name="n_agree"))
        .to_pandas()
    )
    agg["agree_rate"] = [
        math.floor(a / n * 1e6) / 1e6 for a, n in zip(agg["n_agree"], agg["n_docs"])
    ]
    return agg[["technique", "n_docs", "n_agree", "agree_rate"]]


def _q_curate_corpus(sf_dir: str):
    """Training-data curation: quality-filter the documents table (keep
    confident, supported-language, long-enough docs) — the canonical
    LLM-corpus quality-filtering op, built on the quality transform."""
    import pyarrow.compute as pc
    import ray.data

    from documentai_ray.stages.quality import quality_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
    ds = ds.map_batches(quality_batch, batch_format="pyarrow", batch_size=512)

    def keep(t):
        mask = pc.and_(
            pc.and_(pc.greater_equal(t.column("confidence"), 0.6),
                    t.column("lang_ok")),
            pc.greater_equal(t.column("n_chars"), 100),
        )
        return t.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow").select_columns(
        ["doc_id", "lang", "n_chars", "confidence"])


def _q_split_assign(sf_dir: str):
    """Deterministic train/val/test split: multiplicative (Knuth) hash of
    the id → stable 80/10/10 assignment, identical at any parallelism and
    reproducible in SQL (no RNG state)."""
    import pyarrow as pa
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    M = 2654435761
    MOD = 1 << 32

    def assign(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(M)) % np.uint64(MOD)
        frac = h.astype(np.float64) / float(MOD)
        split = np.where(frac < 0.8, "train", np.where(frac < 0.9, "val", "test"))
        return batch.append_column("split", pa.array(split.tolist(), pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def _q_feature_hash(sf_dir: str):
    """Feature hashing (the hashing trick): each document's tokens
    bucketed by md5-LE64 % 16 into a fixed-width count vector — the
    vocabulary-free featurization the warm ML classifier (M12) uses
    internally, exposed as a standalone columnar op. Pure per-batch
    map emitting (doc_id, bucket, n) rows for non-empty buckets; no
    exchange at all (features are per-row)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.sketches import md5_le64

    NB = 16

    def hashfeat(batch: pa.Table) -> pa.Table:
        ids_out, buckets, counts = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            acc: dict[int, int] = {}
            for tok in (text or "").split():
                b = md5_le64(tok) % NB
                acc[b] = acc.get(b, 0) + 1
            for b in sorted(acc):
                ids_out.append(did)
                buckets.append(b)
                counts.append(acc[b])
        return pa.table({"doc_id": pa.array(ids_out, pa.int64()),
                         "bucket": pa.array(buckets, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(hashfeat, batch_format="pyarrow")


def _q_top_tokens(sf_dir: str):
    """Corpus token frequencies: per-batch Counter partials → groupby sum →
    top-20 (count desc, token asc). The combiner keeps the shuffle at
    one row per distinct token per batch."""
    import collections

    import pyarrow as pa
    from ray.data.aggregate import Sum
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c = collections.Counter()
        for t in batch.column("text").to_pylist():
            c.update((t or "").split(" "))
        return pa.table({"token": pa.array(list(c.keys()), pa.string()),
                         "n": pa.array(list(c.values()), pa.int64())})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    agg = agg.sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
    return agg.head(20).reset_index(drop=True)


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3 13-gram rule): flag corpus docs
    sharing any 13-gram with the benchmark set (here: docs with
    ``doc_id % 31 == 5`` stand in for the benchmark). The benchmark n-gram
    hash set broadcasts once; membership is vectorized per batch."""
    import pyarrow.parquet as pq
    import ray.data

    from documentai_ray.stages.curation import build_ngram_set, decontaminate

    bench = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"])
    bench_texts = [t for i, t in zip(bench.column("doc_id").to_pylist(),
                                     bench.column("text").to_pylist())
                   if i % 31 == 5]
    ngrams = build_ngram_set(bench_texts, n=13)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return decontaminate(ds, ngrams, n=13).select_columns(
        ["doc_id", "contaminated"])


def _q_sample_weighted(sf_dir: str):
    """Deterministic domain-weighted sampling: per-source keep rates
    (¼/½/¾/1 by source index mod 4) via a salted multiplicative hash —
    parallelism-independent and SQL-reproducible."""
    import ray.data

    from documentai_ray.stages.curation import sample_by_source

    rates = {f"src{i}": (i % 4 + 1) / 4.0 for i in range(100)}
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])
    return sample_by_source(ds, rates)


def _q_gopher_repetition(sf_dir: str):
    """Gopher-style repetition filters (Rae et al. 2021 Table A1):
    duplicate-token fraction + top-2-gram fraction per doc, keep flag at
    top2gram_frac ≤ 0.03."""
    import ray.data

    from documentai_ray.stages.curation import repetition_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow",
                          batch_size=512).select_columns(
        ["doc_id", "dup_token_frac", "top2gram_frac", "rep_keep"])


def _q_redact_pii(sf_dir: str):
    """Pattern redaction over the pages corpus: dates and currency amounts
    in the extracted text replaced by placeholder tokens (compiled-regex
    sub per row; PO/invoice pages actually change)."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.curation import redact_batch
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))
    ds = ds.map_batches(redact_batch, batch_format="pyarrow", batch_size=256)
    return ds.select_columns(["url", "redacted"])


def _q_audio_frames(sf_dir: str):
    """REAL audio path: deterministic square-wave WAVs (PCM-16 mono, stdlib
    miniwav codec) → 1024-sample RMS frames. A ±A square wave has RMS
    exactly A in every window — closed-form oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.miniwav import encode_pcm16
    from documentai_ray.stages.multimodal import AudioFrameStage

    N, SR = 4096, 8000

    def gen(batch: pa.Table) -> pa.Table:
        payloads = []
        for did in batch.column("doc_id").to_pylist():
            amp = 1000 + did % 9000
            half = (16 + did % 32) // 2
            n = np.arange(N)
            sig = np.where((n // half) % 2 == 0, amp, -amp).astype(np.int16)
            payloads.append(encode_pcm16(sig, sample_rate=SR))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "payload": pa.array(payloads, pa.large_binary())})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    ds = ds.map_batches(gen, batch_format="pyarrow", batch_size=128)
    ds = ds.map_batches(AudioFrameStage, batch_format="pyarrow",
                        batch_size=128, concurrency=(1, 4))

    def summarize(batch: pa.Table) -> pa.Table:
        n_frames, rms = [], []
        for fr in batch.column("frames").to_pylist():
            n_frames.append(len(fr))
            rms.append(fr[0]["energy"] if fr else 0.0)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_frames": pa.array(n_frames, pa.int64()),
                         "frame_rms": pa.array(rms, pa.float64())})

    return ds.map_batches(summarize, batch_format="pyarrow")


def _q_image_quality(sf_dir: str):
    """REAL pixel-metric chain (Q1-Q10 analogs on actual pixels): PNG
    payloads decoded by the stdlib minipng codec, metrics in pure numpy.
    Oracle columns derive from exact integer pixel sums with closed forms
    per synthetic archetype; the convolution metrics (blur/sharpness/
    noise) are pytest-pinned (tests/test_imaging.py)."""
    import ray.data

    from documentai_ray.sources.images import image_payload_batch
    from documentai_ray.stages.imaging import ImageQualityStage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    ds = ds.map_batches(image_payload_batch, batch_format="pyarrow",
                        batch_size=64)  # wide binary rows → small batches
    ds = ds.map_batches(ImageQualityStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))
    return ds.select_columns(
        ["doc_id", "width", "height", "brightness", "contrast",
         "blank_ratio", "dark_ratio", "glare_ratio", "img_verdict"])


def _q_image_preprocess(sf_dir: str):
    """M14 adaptive preprocessing on REAL pixels: low-contrast pages get a
    percentile stretch (120/136 → 0/255), blank pages record a no-op
    stretch, everything else passes through — applied-ops list + processed
    brightness, all closed-form per archetype."""
    import ray.data

    from documentai_ray.sources.images import image_payload_batch
    from documentai_ray.stages.imaging import ImagePreprocessStage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    ds = ds.map_batches(image_payload_batch, batch_format="pyarrow",
                        batch_size=64)
    ds = ds.map_batches(ImagePreprocessStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))
    return ds.select_columns(["doc_id", "pp_ops", "new_brightness"])


def _q_line_dedup(sf_dir: str):
    """Corpus-level exact line dedup (C4 §2.2 / CCNet §3.1): keep only the
    first occurrence of every distinct line across the whole corpus (order
    = (doc_id, line_idx)), reconstruct docs from surviving lines. The
    winner shuffle moves 16 bytes/line (u64 line hash + packed i64 key) —
    never line text; see stages/lines.py for the 100 TB plan."""
    from documentai_ray.stages.lines import dedup_lines

    ds = _extracted_pages_with_doc_id(sf_dir)
    return dedup_lines(ds, num_partitions=16)


def _q_c4_line_filter(sf_dir: str):
    """C4-style per-line heuristics (Raffel et al. 2020 §2.2, re-targeted
    at the synthetic corpus): drop lines with <5 words, containing '{',
    or ending in ':'. Pure map stage over extracted pages."""
    from documentai_ray.stages.lines import c4_line_filter_batch

    ds = _extracted_pages_with_doc_id(sf_dir)
    return ds.map_batches(c4_line_filter_batch, batch_format="pyarrow",
                          batch_size=256).select_columns(
        ["url", "clean_text", "n_lines_kept", "n_lines"])


def _q_normalize_text(sf_dir: str):
    """Unicode NFC + whitespace normalization (the CCNet/mC4 cleanup
    pass). The corpus is ASCII, so deterministic 'messy' markers
    (decomposed accents / tab-newline runs) are planted by doc_id — the
    SQL oracle plants the identical markers and normalizes with DuckDB's
    ``nfc_normalize``; NFC itself is the cross-engine standard."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.curation import normalize_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def messy(batch: pa.Table) -> pa.Table:
        out = []
        for i, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if i % 3 == 1:
                t = t + " nai\u0308ve fac\u0327ade"  # decomposed; NFC recomposes
            elif i % 3 == 2:
                t = "\t " + t + " \n\nout  "
            out.append(t)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text": pa.array(out, pa.large_string())})

    ds = ds.map_batches(messy, batch_format="pyarrow")
    ds = ds.map_batches(normalize_batch, batch_format="pyarrow",
                        batch_size=512)
    return ds.select_columns(["doc_id", "norm_text", "n_chars_raw",
                              "n_chars_norm"])


def _q_chunk_documents(sf_dir: str):
    """Overlapping token-window chunking (window 32, stride 24) — RAG /
    context-window prep. Map-only row explosion; chunk count and slice
    bounds are integer math mirrored op-for-op in SQL."""
    import functools

    import ray.data

    from documentai_ray.stages.curation import chunk_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(functools.partial(chunk_batch, window=32, stride=24),
                          batch_format="pyarrow", batch_size=512)


def _q_pack_sequences(sf_dir: str):
    """Greedy sequence packing into 256-token training bins per source
    shard (docs in doc_id order; over-budget docs capped to a full bin).
    One bucketed shuffle + one ordered pass per partition; the oracle is
    a recursive CTE stepping the same greedy recurrence."""
    from documentai_ray.stages.curation import pack_sequences

    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])
    out = pack_sequences(ds, budget=256, num_partitions=16)
    return out.select_columns(["doc_id", "source", "n_tokens", "cost",
                               "bin_id"])


def _q_inverted_index(sf_dir: str):
    """Inverted index over the documents table: token → (df, sorted
    postings). Shuffle carries the DISTINCT (token, doc) relation only;
    posting lists built per token-hash bucket (group count bounded by P,
    not vocabulary)."""
    import ray.data

    from documentai_ray.stages.indexing import inverted_index

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return inverted_index(ds, num_partitions=16)


def _q_tfidf_topk(sf_dir: str):
    """Per-doc top-3 terms by integer rarity score tf·10⁶//df (pure
    integer math — bit-exact across engines, unlike float log idf).
    df pass is distributed; the vocabulary-sized df table broadcasts
    once via ray.put."""
    import ray.data

    from documentai_ray.stages.indexing import tfidf_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return tfidf_topk(ds, k=3)


def _q_canonical_url_dedup(sf_dir: str):
    """Crawl-frontier URL canonicalization: collapse ?query/#fragment
    variants (the planted ?amp=1 near-dup pages) to one row per canonical
    URL, keeping the smallest variant + the variant count."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_canonical_url
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    return dedup_canonical_url(ds.select_columns(["url", "text"]),
                               num_partitions=16)


def _q_host_stats(sf_dir: str):
    """Per-host crawl statistics (doc count + exact total chars) over the
    deduped pages corpus — the skew-detection pass that feeds salted
    partitioning (state/partitioning.py): the heavy host is visible as
    one row with ~a third of the corpus."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    def host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table({"host": pa.array([u.split("/")[2] for u in urls],
                                          pa.string()),
                         "n_chars": pa.array([len(t or "") for t in texts],
                                             pa.int64())})

    return (ds.map_batches(host, batch_format="pyarrow")
            .groupby("host")
            .aggregate(Count(alias_name="n_docs"),
                       Sum("n_chars", alias_name="total_chars")))


def _q_skew_join(sf_dir: str):
    """Skew-aware partitioned join: attach per-host crawl stats (doc
    count) to EVERY page. The dim side is host-cardinality (~1e8 hosts at
    crawl scale — never driver-broadcastable), and the fact side is
    skewed: ``heavy.example.com`` carries ~33% of rows, so a plain
    bucketed join sends a third of the exchange into ONE reducer.
    ``detect_heavy_hosts`` (share ≥ 10%) feeds ``salted_join``: the hot
    host's fact rows spread over k=8 salt sub-buckets with its dim row
    replicated into each — output is row-identical to the unsalted join
    (the pytest pins that equality; this query pins values vs SQL).

    The (url, host) projection is pinned once — it feeds three consumers
    (skew detection, the dim aggregate, the join) and re-deriving it per
    consumer would triple the synthesis pass (NOTES.md lazy-lineage
    lesson)."""
    import pyarrow as pa
    from ray.data.aggregate import Count

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.joins import salted_join
    from documentai_ray.state.partitioning import detect_heavy_hosts

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=False)

    def host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        return pa.table({
            "url": batch.column("url"),
            "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
        })

    fact = ds.select_columns(["url"]).map_batches(
        host, batch_format="pyarrow").materialize()
    heavy = detect_heavy_hosts(fact, share_threshold=0.10, salt_k=8)
    dim = fact.groupby("host").aggregate(Count(alias_name="host_docs"))
    out = salted_join(fact, dim, on="host", heavy_keys=heavy,
                      num_partitions=32)
    return out.select_columns(["url", "host", "host_docs"])


def _q_host_template_strip(sf_dir: str):
    """Per-host template-line removal (RefinedWeb "line-wise corrections"
    / CCNet per-shard repeated-paragraph strip): lines on ≥ 1/4 of a
    host's non-empty pages (host ≥ 5 such pages) are site chrome and are
    stripped from every page of that host. The heavy host's repeated PO
    chrome ("DELIVERY CFR …", "BUYER: …") crosses the threshold by
    construction; unique body lines never do. Integer-exact share test
    (4·n ≥ host_pages) so Ray and SQL agree bit-for-bit."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch
    from documentai_ray.stages.lines import strip_host_templates

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))
    return strip_host_templates(ds.select_columns(["url", "text"]),
                                min_pages=5, share_num=1, share_den=4)


def _q_warc_ingest(sf_dir: str):
    """Real-container ingestion: the pages corpus serialized as 8
    per-record-gzipped ``.warc.gz`` shards (Common Crawl's ISO-28500
    layout), then read back with the shard-parallel WARC reader (one
    parse task per shard — CC's parallelism unit) → extraction. Oracle:
    the encoding-independent golden text, so a framing/envelope bug
    anywhere in the WARC writer/reader chain surfaces as a text
    mismatch. In production the shards are the INPUT; the synthesis here
    only stands in for the crawl dump."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from documentai_ray.functions.warc import read_warc, write_warc
    from documentai_ray.sources.pages import (payload_for, url_for,
                                              warc_ts_for)
    from documentai_ray.stages.extract import extract_batch

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
                (url_for(did, src), warc_ts_for(did), payload_for(did, text)))
        for p, recs in zip(paths, shards):
            write_warc(p, recs)
        with open(marker, "w") as f:
            f.write("ok")

    ds = read_warc(paths)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    return _norm_strings_ds(ds.select_columns(["url", "text"]))


def _q_warc_wire_encodings(sf_dir: str):
    """HTTP wire-encoding transparency: the same corpus serialized as
    WARC response records whose captured HTTP bodies carry the real
    crawl wire forms — identity, Transfer-Encoding: chunked,
    Content-Encoding: gzip, and gzip-then-chunked (doc_id % 4) — read
    back through the envelope decoder (_decode_http_body: de-chunk then
    content-decode, warcio recompression semantics). Oracle: the SAME
    encoding-independent golden text as warc_ingest, so any framing
    mistake in either direction shows as a text mismatch."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from documentai_ray.functions.warc import build_record, read_warc
    from documentai_ray.sources.pages import (payload_for, url_for,
                                              warc_ts_for)
    from documentai_ray.stages.extract import extract_batch

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    d = f"/tmp/warc_wire_{tag}"
    n_shards = 8
    paths = [os.path.join(d, f"shard-{i:02d}.warc.gz")
             for i in range(n_shards)]
    marker = os.path.join(d, f"_done_{docs.num_rows}")
    _ENCS = ["identity", "chunked", "gzip", "gzip+chunked"]
    if not os.path.exists(marker):
        import gzip as _g
        os.makedirs(d, exist_ok=True)
        shards: list[list[bytes]] = [[] for _ in range(n_shards)]
        for did, text, src in zip(docs.column("doc_id").to_pylist(),
                                  docs.column("text").to_pylist(),
                                  docs.column("source").to_pylist()):
            rec = build_record(url_for(did, src), warc_ts_for(did),
                               payload_for(did, text),
                               http_encoding=_ENCS[did % 4])
            shards[did % n_shards].append(rec)
        for p, recs in zip(paths, shards):
            with open(p, "wb") as f:
                for rec in recs:
                    f.write(_g.compress(rec))
        with open(marker, "w") as f:
            f.write("ok")

    ds = read_warc(paths)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    return _norm_strings_ds(ds.select_columns(["url", "text"]))

__all__ = ['_q_extract_text', '_q_charset_extract', '_q_quality_pages', '_q_classify_pages', '_q_entities_po', '_q_entities_invoice', '_q_rules_po', '_q_preprocess_decision', '_q_wordbox_match', '_q_flagship_boxes', '_q_docs_exact_dedup', '_q_token_stats', '_q_doc_quality', '_q_minhash_neardup', '_q_minhash_dedup_keep', '_q_ppjoin_pairs', '_q_containment_pairs', '_q_jaccard_pairs', '_q_embedding_neardup', '_q_topk_similarity', '_q_pdf_layout_text', '_q_real_pdf_extract', '_q_lang_id', '_q_lang_kappa', '_q_lang_prf', '_q_token_count_bpe', '_q_bpe_pair_counts', '_q_bpe_train_merges', '_q_bpe_encode', '_q_fingerprint', '_q_simhash_hamming', '_q_group_pages', '_q_category_summary', '_q_vote_distribution', '_q_ann_ivf', '_q_mean_embedding', '_q_entities_table', '_q_lc_tags', '_q_lc_tags_ocr', '_q_error_census', '_q_technique_stats', '_q_curate_corpus', '_q_split_assign', '_q_feature_hash', '_q_top_tokens', '_q_decontaminate', '_q_sample_weighted', '_q_gopher_repetition', '_q_redact_pii', '_q_audio_frames', '_q_image_quality', '_q_image_preprocess', '_q_line_dedup', '_q_c4_line_filter', '_q_normalize_text', '_q_chunk_documents', '_q_pack_sequences', '_q_inverted_index', '_q_tfidf_topk', '_q_canonical_url_dedup', '_q_host_stats', '_q_skew_join', '_q_host_template_strip', '_q_warc_ingest', '_q_warc_wire_encodings']
