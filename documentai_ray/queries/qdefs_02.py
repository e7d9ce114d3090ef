"""Driver query functions (part 2/6) — split out of ``__ray_entry__.py``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def _q_wet_roundtrip(sf_dir: str):
    """WET sink + source roundtrip: extract → latest-capture dedup →
    distributed WET write (url-hash bucketed ``.warc.wet.gz`` shards,
    per-record gzip members, atomic per-shard publish) → shard-parallel
    WET read-back. Oracle: the golden (url, text) set — any framing or
    encoding defect in the conversion-record chain breaks the match."""
    import hashlib
    import os

    from documentai_ray.functions.warc import read_wet, write_wet_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/wet_shards_{tag}"
    manifest = write_wet_shards(ds, out_dir, num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(read_wet(paths).select_columns(["url", "text"]))


def _q_jsonl_roundtrip(sf_dir: str):
    """JSONL.gz sink + source roundtrip (the C4/Pile interchange layout):
    extract → latest-capture dedup → url-hash bucketed byte-deterministic
    .jsonl.gz shards (sort_keys, mtime=0, atomic per-shard publish) →
    shard-parallel read-back. Oracle: the golden (url, text) set — any
    serialization/escaping defect (unicode, newlines-in-text) breaks the
    match."""
    import hashlib

    from documentai_ray.sources.jsonl import read_jsonl, write_jsonl_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/jsonl_shards_{tag}"
    manifest = write_jsonl_shards(ds.select_columns(["url", "text"]), out_dir,
                                  num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(read_jsonl(paths).select_columns(["url", "text"]))


def _q_cdx_fetch(sf_dir: str):
    """CDX random-access path end-to-end: distributed indexed-WARC write
    (url-hash bucketed shards whose write tasks EMIT their CDX index
    rows), select a deterministic url subset (doc_id % 9 == 2 parsed
    from the url), range-read exactly those records (one gzip member
    each — never a shard scan), then extract. Oracle: the golden
    (url, text) subset — a framing/offset defect anywhere in the
    write→index→fetch chain breaks the match."""
    import hashlib

    import pyarrow as pa

    from documentai_ray.functions.warc import (fetch_record,
                                               write_warc_shards_indexed)
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/cdx_shards_{tag}"
    idx = write_warc_shards_indexed(
        ds.select_columns(["url", "warc_ts", "html"]), out_dir, num_shards=8)

    def want(batch: pa.Table) -> pa.Table:
        ids = [int(u.rsplit("/", 1)[1])
               for u in batch.column("url").to_pylist()]
        mask = pa.array([i % 9 == 2 for i in ids])
        return batch.filter(mask)

    def fetch_and_extract(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for p, off, ln in zip(batch.column("path").to_pylist(),
                              batch.column("offset").to_pylist(),
                              batch.column("length").to_pylist()):
            u, _ts, body = fetch_record(p, off, ln)
            urls.append(u)
            htmls.append(body)
        t = pa.table({"url": pa.array(urls, pa.string()),
                      "html": pa.array(htmls, pa.large_binary())})
        return extract_batch(t).select(["url", "text"])

    sel = idx.map_batches(want, batch_format="pyarrow")
    return _norm_strings_ds(sel.map_batches(fetch_and_extract,
                                            batch_format="pyarrow",
                                            batch_size=64))


def _q_kcenter_select(sf_dir: str):
    """Greedy k-center (farthest-point) coreset selection over the
    embeddings table, k=4 — the diversity-coverage sampling op: one
    streaming pass per round, each batch ships ONE candidate row, global
    argmax ties to smallest id. Oracle: the greedy unrolled in SQL
    (ORDER BY least(list_distance...) DESC, vec_id chains — sqrt is
    monotone so L2 vs squared-L2 ordering agrees; margins ≫ ulp drift
    per the kmeans float contract)."""
    import ray.data

    from documentai_ray.stages.similarity import kcenter_select

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return kcenter_select(ds, k=4)


def _q_online_neardup(sf_dir: str):
    """Online near-dup lookup against a SHARED MUTABLE LSH INDEX — the
    one shape the Dataset API can't express (state written by the index
    phase must be readable by later query batches), so it runs on
    hash-sharded Ray actors (state/lsh_index.py): band keys route to the
    shard that owns their bucket slice; adds and probes are batched RPCs.
    Index = the base pages; queries = the planted ?amp=1 variants; LSH
    candidates re-rank by exact Jaccard ≥ 0.8 (broadcast text maps —
    documented small-side path). Oracle: each amp variant matches exactly
    its original (the minhash_neardup recall/precision contract)."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.state.lsh_index import (build_lsh_index,
                                                query_lsh_index,
                                                verify_with_texts)

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    ds = ds.select_columns(["url", "text"]).materialize()

    def is_amp(batch: pa.Table, want: bool) -> pa.Table:
        mask = [u.endswith("?amp=1") == want
                for u in batch.column("url").to_pylist()]
        return batch.filter(pa.array(mask))

    base = ds.map_batches(lambda b: is_amp(b, False), batch_format="pyarrow")
    amps = ds.map_batches(lambda b: is_amp(b, True), batch_format="pyarrow")

    shards = build_lsh_index(base, id_col="url")
    cands = query_lsh_index(amps, shards, id_col="url")
    imap = {r["url"]: r["text"] for r in base.iter_rows()}
    qmap = {r["url"]: r["text"] for r in amps.iter_rows()}
    out = verify_with_texts(cands, qmap, imap, threshold=0.8)
    return out.select_columns(["query_id", "match_id"])


def _q_fetch_schedule(sf_dir: str):
    """Politeness-complete fetch schedule: per-host Crawl-delay parsed
    from synthesized robots.txt by the REAL parser (group selection
    incl. delay), waves from the bucketed per-host row_number, and
    fetch_at_s = (wave−1) × delay — the actual timestamp plan a polite
    crawler executes. Oracle: row_number window × the closed-form delay
    rule (1 + N%4 s for srcN, 5 s for the heavy host)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from documentai_ray.functions.robots import parse_robots_txt
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.windows import running_per_key

    srcs = sorted(set(pq.read_table(f"{sf_dir}/documents.parquet",
                                    columns=["source"])
                      .column("source").to_pylist()))
    robots = {"heavy.example.com": "User-agent: *\nCrawl-delay: 5\n"}
    for s in srcs:
        n = int(s[3:])
        robots[f"{s}.example.com"] = (
            f"User-agent: *\nCrawl-delay: {1 + n % 4}\n")
    delays = {h: int(parse_robots_txt(t).crawl_delay)
              for h, t in robots.items()}
    dref = ray.put(delays)

    ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = [u.split("/")[2] for u in urls]
        return pa.table({"url": batch.column("url"),
                         "host": pa.array(hosts, pa.string()),
                         "_one": pa.array([1] * len(urls), pa.int64())})

    waved = running_per_key(ds.map_batches(add_host, batch_format="pyarrow"),
                            key_col="host", order_cols=["url"],
                            cum_col="_one", seq_col="wave", out_col="_run")

    def schedule(batch: pa.Table) -> pa.Table:
        d = ray.get(dref)
        hosts = batch.column("host").to_pylist()
        waves = batch.column("wave").to_pylist()
        at = [int((w - 1) * d[h]) for h, w in zip(hosts, waves)]
        return pa.table({"url": batch.column("url"),
                         "host": batch.column("host"),
                         "wave": batch.column("wave"),
                         "fetch_at_s": pa.array(at, pa.int64())})

    return waved.map_batches(schedule, batch_format="pyarrow")


def _q_lang_rebalance(sf_dir: str):
    """Language-balanced corpus cap: keep the K=30 longest docs per
    language — the rebalancing step multilingual corpora apply so
    high-resource languages don't swamp the mix (same grouped_topk
    physical plan as the per-domain cap: partial top-k per batch, one
    key-hash exchange). Oracle: row_number window."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import grouped_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])

    def measure(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({"doc_id": batch.column("doc_id"),
                         "lang": batch.column("lang"),
                         "n_chars": pa.array([len(t or "") for t in texts],
                                             pa.int64())})

    sized = ds.map_batches(measure, batch_format="pyarrow")
    return grouped_topk(sized, key_col="lang",
                        sort_cols=["n_chars", "doc_id"],
                        ascending=[False, True], k=30)


def _q_drop_funnel(sf_dir: str):
    """Curation drop-funnel audit: every document tagged with the FIRST
    rule that drops it (short → bad_lang → low_confidence → kept, the
    curate_corpus rule set in fixed order) — the funnel report a corpus
    run publishes so "why did my doc disappear" is answerable. Oracle:
    the same CASE ladder over the mirrored quality SQL."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.quality import quality_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
    ds = ds.map_batches(quality_batch, batch_format="pyarrow",
                        batch_size=512)

    def tag(t: pa.Table) -> pa.Table:
        import numpy as np
        n_chars = np.asarray(t.column("n_chars").to_pylist())
        lang_ok = np.asarray(t.column("lang_ok").to_pylist())
        conf = np.asarray(t.column("confidence").to_pylist())
        reason = np.where(n_chars < 100, "short",
                          np.where(~lang_ok, "bad_lang",
                                   np.where(conf < 0.6, "low_confidence",
                                            "kept")))
        return pa.table({"doc_id": t.column("doc_id"),
                         "drop_reason": pa.array(reason.tolist(),
                                                 pa.string())})

    return ds.map_batches(tag, batch_format="pyarrow")


def _q_tfrecord_roundtrip(sf_dir: str):
    """TFRecord sink + source roundtrip (the TF-ecosystem shard
    container, spec framing with masked CRC32C integrity — Castagnoli
    table in numpy, RFC 3720 vector pinned in tests): extract →
    latest-capture dedup → url-hash bucketed shards (atomic publish) →
    CRC-VALIDATING shard-parallel read-back. Oracle: the golden
    (url, text) set."""
    import hashlib

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.sources.tfrecord import (read_tfrecord,
                                                 write_tfrecord_shards)
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/tfrecord_shards_{tag}"
    manifest = write_tfrecord_shards(ds.select_columns(["url", "text"]),
                                     out_dir, num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_tfrecord(paths).select_columns(["url", "text"]))


def _q_csv_roundtrip(sf_dir: str):
    """CSV sink + source roundtrip (RFC 4180, QUOTE_ALL + CRLF so
    embedded newlines/quotes in extracted text survive): extract →
    latest-capture dedup → url-hash bucketed shards → shard-parallel
    read-back. Oracle: the golden (url, text) set — any quoting defect
    breaks the match on the first multi-line document."""
    import hashlib

    from documentai_ray.sources.jsonl import (read_csv_shards,
                                              write_csv_shards)
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/csv_shards_{tag}"
    manifest = write_csv_shards(ds.select_columns(["url", "text"]), out_dir,
                                num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_csv_shards(paths).select_columns(["url", "text"]))


def _q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather V2) sink + source roundtrip — the zero-copy
    columnar interchange: readers memory-map record batches with no
    parse step, the natural hand-off between Arrow-native engines.
    Oracle: the golden (url, text) set."""
    import hashlib

    from documentai_ray.sources.jsonl import read_ipc_shards, write_ipc_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/ipc_shards_{tag}"
    manifest = write_ipc_shards(ds.select_columns(["url", "text"]), out_dir,
                                num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_ipc_shards(paths).select_columns(["url", "text"]))


def _q_orc_roundtrip(sf_dir: str):
    """ORC sink + source roundtrip (the Hive/Trino lake format) — rounds
    out the columnar interchange trio next to parquet and Arrow IPC.
    Oracle: the golden (url, text) set."""
    import hashlib

    from documentai_ray.sources.jsonl import read_orc_shards, write_orc_shards
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/orc_shards_{tag}"
    manifest = write_orc_shards(ds.select_columns(["url", "text"]), out_dir,
                                num_shards=8)
    paths = sorted(r["path"] for r in manifest.iter_rows())
    return _norm_strings_ds(
        read_orc_shards(paths).select_columns(["url", "text"]))


def _q_page_meta(sf_dir: str):
    """Page-metadata extraction: first ``<title>`` text per decodable
    page (whitespace-collapsed). Oracle: the archetype→title closed form
    of the corpus templates; malformed pages emit no row."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import page_meta_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    return ds.select_columns(["url", "html"]).map_batches(
        page_meta_batch, batch_format="pyarrow", batch_size=512)


def _q_robots_filter(sf_dir: str):
    """Crawl-compliance filtering: pages carrying
    ``<meta name="robots" content="noindex">`` (planted on
    ``doc_id % 11 == 5``) are dropped by a byte-level head scan BEFORE
    any parse/extract cost; everything else passes through. Oracle: the
    url set minus the noindex rule."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import robots_filter_batch

    ds = pages_dataset(sf_dir, with_dups=False, robots=True)
    ds = ds.select_columns(["url", "html"]).map_batches(
        robots_filter_batch, batch_format="pyarrow", batch_size=512)
    return ds.select_columns(["url"])


def _q_robots_txt_rules(sf_dir: str):
    """Host-side robots.txt compliance (RFC 9309, functions/robots.py):
    per-host policies — synthesized deterministically from the corpus'
    host names — are parsed by the real parser (group selection,
    longest-match, allow-wins ties, empty-Disallow no-op, unknown keys)
    and applied to every page URL as vectorized prefix masks. The heavy
    host exercises agent-group fallback past a googlebot Disallow-all;
    src-hosts exercise a 3-layer longest-match stack (/p/2 < /p/23 <
    /p/234). Oracle: the matching CASE ladder in SQL."""
    import pyarrow.parquet as pq

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.curation import robots_txt_gate

    srcs = sorted(set(pq.read_table(f"{sf_dir}/documents.parquet",
                                    columns=["source"])
                      .column("source").to_pylist()))
    robots = {"heavy.example.com":
              "User-agent: googlebot\nDisallow: /\n\n"
              "User-agent: *\nDisallow: /p/1\nAllow: /p/12\n"}
    for s in srcs:
        n = int(s[3:])
        if n % 3 == 0:
            robots[f"{s}.example.com"] = (
                "# crawl policy\nUser-agent: *\nDisallow: /p/2\n"
                "Allow: /p/23\nDisallow: /p/234\n"
                "Sitemap: https://example.com/sitemap.xml\n")
        elif n % 3 == 1:
            robots[f"{s}.example.com"] = "User-agent: *\nDisallow:\n"
        # n % 3 == 2: no robots.txt published → allow everything

    ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])
    return robots_txt_gate(ds, robots)


def _q_surt_keys(sf_dir: str):
    """SURT canonical keys (the Common Crawl CDX sort key): reversed
    comma-joined host labels + ')' + path?query-sorted, lowercased — the
    key form that makes one domain a contiguous range. Runs over the
    amp-variant page set so the query-string path is exercised; www/port
    stripping pinned in pytest. Oracle: the same transform in SQL string
    ops (single-param corpus: sorted == original, multi-param order
    pinned in tests)."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import surt_batch

    ds = pages_dataset(sf_dir, with_dups=False, with_near_dups=True)
    return (ds.select_columns(["url"])
            .map_batches(surt_batch, batch_format="pyarrow", batch_size=512))


def _q_anchor_text(sf_dir: str):
    """Anchor-text index (the classic link-graph enrichment signal):
    flat-map (page, link, anchor) edges, per-batch pandas pre-combine,
    then ONE (link, anchor)-keyed exchange summing partial counts — the
    shuffle carries (link, anchor, partial_n), never the edge stream.
    Oracle: the template closed form — every decodable page links
    nav+footer (6 fixed paths), article/report add /rel/1-2, link farms
    add 12 unique /cat/<id>/<i> targets."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import anchor_edges_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    edges = ds.select_columns(["url", "html"]).map_batches(
        anchor_edges_batch, batch_format="pyarrow", batch_size=256)

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.select(["link", "anchor"]).to_pandas()
        n = df.value_counts(["link", "anchor"]).reset_index(name="n")
        return pa.Table.from_pandas(n, preserve_index=False)

    return (edges.map_batches(combine, batch_format="pyarrow")
            .groupby(["link", "anchor"])
            .aggregate(Sum("n", alias_name="n_refs")))


def _q_sitemap_frontier(sf_dir: str):
    """Crawl-frontier discovery composition: per-host sitemapindex →
    child urlsets (real namespace-aware XML parse, broadcast body map
    standing in for the fetch cache) → anti hash_join against the
    already-crawled url set (only url hashes cross the exchange) →
    robots.txt gate (keep_only) — the sitemap-proposes / robots-disposes
    / index-dedups pipeline every recrawl runs. Sitemaps list each
    host's even-doc pages (all already crawled, so the anti-join must
    eliminate them) plus 3 phantom /new/<n> urls; robots blocks /new/2
    on heavy + even-numbered src hosts. Oracle: the phantom closed
    form."""
    import pyarrow.parquet as pq
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.curation import robots_txt_gate, sitemap_expand
    from documentai_ray.stages.joins import hash_join

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    ids = docs.column("doc_id").to_pylist()
    sources = docs.column("source").to_pylist()
    srcs = sorted(set(sources))
    hosts = ["heavy.example.com"] + [f"{s}.example.com" for s in srcs]

    def page_url(i: int, s: str) -> str:
        host = "heavy.example.com" if i % 3 == 0 else f"{s}.example.com"
        return f"https://{host}/p/{i}"

    by_host: dict[str, list[str]] = {h: [] for h in hosts}
    for i, s in zip(ids, sources):
        if i % 2 == 0:
            h = "heavy.example.com" if i % 3 == 0 else f"{s}.example.com"
            by_host[h].append(page_url(i, s))

    def urlset(entries):
        rows = "".join(
            f"<url><loc>{u}</loc><lastmod>{m}</lastmod></url>"
            for u, m in entries)
        return ('<?xml version="1.0"?><urlset '
                'xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
                f"{rows}</urlset>")

    entry_rows, bodies = [], {}
    for h in hosts:
        crawled = [(u, "2024-01-01") for u in by_host[h]]
        phantoms = [(f"https://{h}/new/{n}", f"2024-0{n + 1}-01")
                    for n in range(3)]
        c1, c2 = f"https://{h}/sm/1.xml", f"https://{h}/sm/2.xml"
        bodies[c1] = urlset(crawled)
        bodies[c2] = urlset(phantoms)
        entry_rows.append({"host": h, "xml": (
            '<?xml version="1.0"?><sitemapindex '
            'xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
            f"<sitemap><loc>{c1}</loc></sitemap>"
            f"<sitemap><loc>{c2}</loc></sitemap></sitemapindex>")})

    robots = {h: "User-agent: *\nDisallow: /new/2\n" for h in hosts
              if h == "heavy.example.com" or int(h.split(".")[0][3:]) % 2 == 0}

    proposed = sitemap_expand(ray.data.from_items(entry_rows), bodies)
    crawled_ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])
    fresh = hash_join(proposed, crawled_ds, on="url", how="anti")
    gated = robots_txt_gate(fresh, robots, keep_only=True)
    return gated.select_columns(["host", "url", "lastmod"])


def _q_recrawl_priority(sf_dir: str):
    """Freshness-driven recrawl scheduling over synthesized capture
    histories: each doc gets 1 + doc_id%4 captures; capture j's content
    hash flips to a revision whenever (doc_id+j)%3 == 0 — a closed-form
    mix of never-changed, sometimes-changed and always-changing urls.
    The operator (curation.recrawl_priority) co-locates each url's
    history with one crc32(url)%P exchange and computes change-rate ppm
    + hot/warm/cold buckets in a single vectorized pass per partition.
    Oracle: the same capture table + lag() window in SQL."""
    import hashlib

    import pyarrow as pa
    import ray.data

    from documentai_ray.sources.pages import url_for
    from documentai_ray.stages.curation import recrawl_priority

    def captures(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        srcs = batch.column("source").to_pylist()
        urls, tss, hs = [], [], []
        for i, t, s in zip(ids, texts, srcs):
            for j in range(1 + i % 4):
                urls.append(url_for(i, s))
                tss.append(j)
                body = (t or "") + f" rev{j}" if (i + j) % 3 == 0 else (t or "")
                hs.append(hashlib.md5(body.encode("utf-8")).hexdigest())
        return pa.table({"url": pa.array(urls, pa.string()),
                         "ts": pa.array(tss, pa.int64()),
                         "content_hash": pa.array(hs, pa.string())})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"])
    caps = ds.map_batches(captures, batch_format="pyarrow", batch_size=256)
    return recrawl_priority(caps)


def _q_fetch_waves(sf_dir: str):
    """Politeness-constrained fetch scheduling: assign every frontier URL
    a wave number = row_number within its host (ordered by url) so wave w
    contains AT MOST ONE url per host — the per-host rate-limit batching
    a crawler executes wave-by-wave. Pure composition of the bucketed
    window stage (windows.running_per_key: one crc32(host)%P exchange,
    vectorized cumcount per partition). Oracle: row_number() window."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.windows import running_per_key

    ds = pages_dataset(sf_dir, with_dups=False).select_columns(["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = [u.split("/")[2] for u in urls]
        ones = [1] * len(urls)
        return pa.table({"url": batch.column("url"),
                         "host": pa.array(hosts, pa.string()),
                         "_one": pa.array(ones, pa.int64())})

    out = running_per_key(ds.map_batches(add_host, batch_format="pyarrow"),
                          key_col="host", order_cols=["url"], cum_col="_one",
                          seq_col="wave", out_col="_run")
    return out.select_columns(["url", "host", "wave"])


def _q_dead_letter(sf_dir: str):
    """Dead-letter routing summary: the extraction stage's row-level
    failure contract (any per-row exception → error record, job
    continues) aggregated into the ops view a 100 TB run monitors —
    per (source, error_kind) counts, error_kind = the exception class
    prefix of the error column. The malformed corpus slice (%97) is the
    planted failure population (strict-UTF-8 decode errors). Partial
    counts pre-combine per batch; the exchange carries (source, kind,
    n)."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=False)

    def err_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = batch.select(["url", "error"]).to_pandas()
        df = df[df["error"] != ""]
        df["source"] = df["url"].str.split("/").str[2]
        df["error_kind"] = df["error"].str.split(":").str[0]
        g = (df.groupby(["source", "error_kind"], as_index=False).size()
             .rename(columns={"size": "n"}))
        return pa.Table.from_pandas(g, preserve_index=False)

    return (ds.map_batches(extract_batch, batch_format="pyarrow",
                           batch_size=256)
            .map_batches(err_partial, batch_format="pyarrow")
            .groupby(["source", "error_kind"])
            .aggregate(Sum("n", alias_name="n_errors")))


def _q_curation_hostaware(sf_dir: str):
    """End-to-end host-aware curation chain composing the round-2 web
    ops as ONE streaming Dataset: extract → latest-capture dedup →
    per-host template-line strip → per-domain cap (5 longest cleaned
    docs per host) → deterministic Knuth-hash split. Exchanges: the
    dedup sort, the 16-byte template-count shuffles, and one key-hash
    top-k exchange — text crosses only the dedup exchange."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.aggregates import grouped_topk
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch
    from documentai_ray.stages.lines import strip_host_templates

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))
    stripped = strip_host_templates(ds.select_columns(["url", "text"]),
                                    min_pages=5, share_num=1, share_den=4)

    M, MOD = 2654435761, 1 << 32

    def enrich(batch: pa.Table) -> pa.Table:
        import numpy as np
        urls = batch.column("url").to_pylist()
        texts = batch.column("text_clean").to_pylist()
        ids = np.array([int(u.rsplit("/", 1)[1]) for u in urls], np.int64)
        h = (ids.astype(np.uint64) * np.uint64(M)) % np.uint64(MOD)
        frac = h.astype(np.float64) / float(MOD)
        split = np.where(frac < 0.8, "train", np.where(frac < 0.9, "val",
                                                       "test"))
        return pa.table({
            "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
            "url": batch.column("url"),
            "n_chars_clean": pa.array([len(t) for t in texts], pa.int64()),
            "split": pa.array(split.tolist(), pa.string()),
        })

    enriched = stripped.map_batches(enrich, batch_format="pyarrow")
    return grouped_topk(enriched, key_col="host",
                        sort_cols=["n_chars_clean", "url"],
                        ascending=[False, True], k=5)


def _q_snapshot_diff(sf_dir: str):
    """Crawl-snapshot diff (the recrawl bookkeeping pass): FULL OUTER
    join of the old snapshot (docs with ``doc_id % 4 == 1``) against the
    new one (``doc_id % 3 != 0``; docs with ``doc_id % 5 == 0``
    re-crawled with edited content) → per-doc status
    added / removed / changed / unchanged. Both sides ship only
    (doc_id, md5-hash) through the one bucketed exchange — text never
    shuffles; the status CASE is a vectorized post-join map."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from documentai_ray.stages.joins import hash_join

    def snap(which: str):
        def f(batch: pa.Table) -> pa.Table:
            import numpy as np
            ids = np.asarray(batch.column("doc_id").to_pylist())
            texts = batch.column("text").to_pylist()
            if which == "old":
                keep = ids % 4 == 1
                h = [int.from_bytes(
                    hashlib.md5(t.encode()).digest()[:8], "little",
                    signed=True) for t, k in zip(texts, keep) if k]
                return pa.table({"doc_id": pa.array(ids[keep], pa.int64()),
                                 "h_old": pa.array(h, pa.int64())})
            keep = ids % 3 != 0
            h = [int.from_bytes(
                hashlib.md5((t + " v2" if i % 5 == 0 else t).encode())
                .digest()[:8], "little", signed=True)
                for i, t, k in zip(ids.tolist(), texts, keep) if k]
            return pa.table({"doc_id": pa.array(ids[keep], pa.int64()),
                             "h_new": pa.array(h, pa.int64())})
        return f

    read = lambda: ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                         columns=["doc_id", "text"])
    old = read().map_batches(snap("old"), batch_format="pyarrow")
    new = read().map_batches(snap("new"), batch_format="pyarrow")
    j = hash_join(old, new, on="doc_id", how="outer", num_partitions=32)

    def status(batch: pa.Table) -> pa.Table:
        ho, hn = batch.column("h_old"), batch.column("h_new")
        st = pc.if_else(
            pc.is_null(ho), pa.scalar("added"),
            pc.if_else(pc.is_null(hn), pa.scalar("removed"),
                       pc.if_else(pc.equal(ho, hn), pa.scalar("unchanged"),
                                  pa.scalar("changed"))))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "status": st})

    return j.map_batches(status, batch_format="pyarrow")


def _q_host_cap(sf_dir: str):
    """Per-domain document cap (RefinedWeb-style domain-diversity
    curation: no host may contribute more than K docs): keep the 5
    longest extracted docs per host, ties broken by url. Runs on the
    generic ``grouped_topk`` — map-side partial top-k per host, one
    bounded key-hash exchange, never a global sort; the heavy host's 33%
    share reduces to the same 5 rows as any other host."""
    import pyarrow as pa

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.aggregates import grouped_topk
    from documentai_ray.stages.dedup import dedup_latest
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=256)
    ds = dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))

    def host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table({
            "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
            "url": batch.column("url"),
            "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
        })

    ds = ds.map_batches(host, batch_format="pyarrow")
    return grouped_topk(ds, key_col="host", sort_cols=["n_chars", "url"],
                        ascending=[False, True], k=5)


def _q_outlink_count(sf_dir: str):
    """Outlink extraction (``<a href>`` parse + urljoin resolution,
    http(s) only) over the pages corpus → per-page link counts. The
    oracle is the template closed form: article/report pages carry
    nav(3)+aside(2)+footer(3)=8 links, link farms 3+12+3=18, PO/invoice/
    LC 6, blank 0 (no row), malformed pages decode-fail (no row). The
    flat-map edge stream is the input the host link graph / link-analysis
    stage consumes at crawl scale."""
    import ray.data
    from ray.data.aggregate import Count

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import outlinks_batch

    ds = pages_dataset(sf_dir, with_dups=False)
    edges = ds.select_columns(["url", "html"]).map_batches(
        outlinks_batch, batch_format="pyarrow", batch_size=256)
    return edges.groupby("url").aggregate(Count(alias_name="n_links"))


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means (k=4, 2 iterations) over the embeddings
    table — the canonical iterative algorithm: each iteration is one
    streaming pass emitting k partial (sum, count) rows per batch; only
    the k×(d+1) centroid state ever returns to the driver. Init = vectors
    of the 4 smallest ids (deterministic; at 10¹² rows you'd init from a
    pushdown-sampled shard instead of sort+limit). The oracle unrolls both
    iterations in SQL with list_distance; assignments are integers, so
    the ulp-level float drift between partial-sum orders never reaches
    the compared columns (clusters are separated by construction)."""
    import ray.data

    from documentai_ray.stages.similarity import kmeans_assign, kmeans_fit

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    C = kmeans_fit(ds, k=4, iters=2)
    return kmeans_assign(ds, C)


def _q_video_frames(sf_dir: str):
    """REAL video path: MPNG container (length-prefixed minipng PNG
    frames, functions/minivideo.py) with deterministic constant-gray
    frames g=(doc_id·7+f·13)%256; every 2nd frame is sampled and DECODED
    (skipped frames are hopped over, never decoded), brightness as exact
    integer ppm — closed-form construction oracle, the video analog of
    audio_frames."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.minivideo import encode_frames
    from documentai_ray.stages.multimodal import VideoFrameSampleStage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        payloads = []
        for did in batch.column("doc_id").to_pylist():
            frames = [np.full((16, 16), (did * 7 + f * 13) % 256, np.uint8)
                      for f in range(4 + did % 5)]
            payloads.append(encode_frames(frames))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "payload": pa.array(payloads, pa.large_binary())})

    ds = ds.map_batches(gen, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(VideoFrameSampleStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4),
                        fn_constructor_kwargs={"step": 2})
    return ds


def _q_images_to_pdf(sf_dir: str):
    """REAL images→PDF sink (K2): per doc, 1+doc_id%3 constant-gray PNG
    pages → minipng decode → a genuine PDF 1.4 (real xref/XObject byte
    layout, functions/pdfwrite.py). ``pdf_valid`` re-parses every xref
    offset and round-trips the embedded pixels per row — the writer
    validates its own output inside the pipeline; page counts are the
    closed-form oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions import minipng
    from documentai_ray.functions.pdfwrite import validate
    from documentai_ray.stages.multimodal import ImagesToPdfStage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        pages = []
        for did in batch.column("doc_id").to_pylist():
            pages.append([minipng.encode_gray(
                np.full((12, 16), (did + 31 * p) % 256, np.uint8))
                for p in range(1 + did % 3)])
        return pa.table({"doc_id": batch.column("doc_id"),
                         "pages": pa.array(pages,
                                           pa.list_(pa.large_binary()))})

    ds = ds.map_batches(gen, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(ImagesToPdfStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))

    def check(batch: pa.Table) -> pa.Table:
        ok = []
        for pdf in batch.column("pdf").to_pylist():
            try:
                validate(pdf)
                ok.append(True)
            except ValueError:
                ok.append(False)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_pages": batch.column("n_pages"),
                         "pdf_valid": pa.array(ok, pa.bool_())})

    return ds.map_batches(check, batch_format="pyarrow")


def _q_base64_pages(sf_dir: str):
    """K5 base64 emitter: binary payloads (here the utf-8 text bytes, so
    the oracle can rebuild them) → standard-alphabet base64 column,
    mirrored bit-exactly by DuckDB to_base64(encode(text))."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.multimodal import base64_emit_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def to_payload(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "payload": pa.array([(t or "").encode("utf-8")
                                 for t in batch.column("text").to_pylist()],
                                pa.large_binary())})

    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    ds = ds.map_batches(base64_emit_batch, batch_format="pyarrow",
                        batch_size=512)
    return ds.select_columns(["doc_id", "payload_b64"])


def _q_rasterize_pages(sf_dir: str):
    """REAL S3 (pdf2image) analog: MINIPDF pages render to letter-size
    grayscale pixels (every span bbox an ink rectangle), first page only.
    Span boxes are disjoint 6·len×10 rectangles by construction, so
    ink_px has the closed form 60·Σ len(word) over the first page's ≤96
    words — the oracle; error payloads (doc_id%97) emit zeroed dims."""
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.multimodal import RasterizeStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))
    return ds.select_columns(["url", "ink_px", "raster_w", "raster_h"])


def _q_gopher_quality(sf_dir: str):
    """The non-repetition half of the Gopher quality rules (Rae et al.
    2021 Table A1): word-count bounds, mean word length in [3,10], symbol
    ratio ≤ 0.1, bullet-line ratio ≤ 0.9 — all ratios integer ppm so the
    SQL mirror is bit-exact. Runs over the extracted pages corpus."""
    from documentai_ray.stages.curation import gopher_quality_batch

    ds = _extracted_pages_with_doc_id(sf_dir)
    return ds.map_batches(gopher_quality_batch, batch_format="pyarrow",
                          batch_size=256).select_columns(
        ["url", "n_words", "mean_word_len_ppm", "symbol_ppm",
         "bullet_ppm", "gq_keep"])


def _q_repeated_passages(sf_dir: str):
    """Repeated-passage detection (the k-token-granular analog of Lee et
    al. 2022 suffix-array substring dedup): every maximal token span
    covered by 8-gram shingles occurring ≥2 times corpus-wide, marked in
    every doc that contains it. Three key-projected exchanges (explode →
    dup-set count → semi join), islands merged per doc bucket; grouping by
    64-bit shingle hash ≡ grouping by shingle string modulo ~2⁻⁶⁴
    collisions (the SQL oracle groups by the string)."""
    import ray.data

    from documentai_ray.stages.dedup import repeated_spans

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return repeated_spans(ds, k=8, num_partitions=16)


def _q_dedup_passages(sf_dir: str):
    """Passage-removal half of substring dedup (Lee et al. 2022): cut
    every span found by repeated_passages out of every doc (wholesale
    removal policy), rebuilding token streams in a doc-bucketed pass;
    unchanged docs pass through with 0 removed."""
    import ray.data

    from documentai_ray.stages.dedup import remove_repeated_spans, repeated_spans

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    spans = repeated_spans(ds, k=8, num_partitions=16)
    return remove_repeated_spans(ds, spans, num_partitions=16)


def _q_category_split_pdfs(sf_dir: str):
    """K1 REAL: the reference's category-split writer — pages grouped by
    the A4 segmentation (consecutive same-category, cap 2, purchase_order
    always separate) and each group written as a GENUINE PDF (pdfwrite,
    one rasterized page per group page), validated in-row by xref/pixel
    round-trip. Output: one row per emitted PDF."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from documentai_ray.functions.pdfwrite import images_to_pdf, validate
    from documentai_ray.stages.preprocess import group_pages

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def split(batch: pa.Table) -> pa.Table:
        d_out, g_out, c_out, n_out, ok_out = [], [], [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            n = 3 + doc_id % 6
            cats = [_GROUP_CATS[((doc_id + i) // 3) % 3] for i in range(n)]
            gids = group_pages(cats, max_pages_per_group=2,
                               always_separate=("purchase_order",))
            by_group: dict[int, list[int]] = {}
            for i, g in enumerate(gids):
                by_group.setdefault(g, []).append(i)
            for g, pages in sorted(by_group.items()):
                imgs = [np.full((12, 16), (doc_id + p * 17) % 256, np.uint8)
                        for p in pages]
                pdf = images_to_pdf(imgs)
                try:
                    ok = len(validate(pdf)) == len(pages)
                except ValueError:
                    ok = False
                d_out.append(doc_id)
                g_out.append(g)
                c_out.append(cats[pages[0]])
                n_out.append(len(pages))
                ok_out.append(ok)
        return pa.table({"doc_id": pa.array(d_out, pa.int64()),
                         "group_id": pa.array(g_out, pa.int64()),
                         "category": pa.array(c_out, pa.string()),
                         "n_pages": pa.array(n_out, pa.int64()),
                         "pdf_valid": pa.array(ok_out, pa.bool_())})

    return ds.map_batches(split, batch_format="pyarrow", batch_size=256)


def _q_vocab_growth(sf_dir: str):
    """Heaps'-law vocabulary growth (``textstats.vocab_growth``):
    distinct whitespace tokens within each doubling corpus prefix
    (doc_id < 2^k) — K nested COUNT DISTINCTs collapsed to ONE pass
    via first occurrences: vocab(k) = #{tokens with min(doc_id) <
    2^k} = a cumulative bit_length(min_id) histogram. Token→min-id
    exchange bounded by distinct tokens; only ≤64-row histograms
    reach the driver on both axes."""
    import ray.data

    from documentai_ray.stages.textstats import vocab_growth

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return vocab_growth(ds)


def _q_readability(sf_dir: str):
    """Flesch reading-ease in integer ppm
    (``textstats.readability_batch``): sentence-length × syllable-
    weight score from regex run counts (words=[a-z]+ runs,
    sentences=[.!?]+ runs, syllables=[aeiouy]+ runs, clamped), each
    ratio floored at milli precision — completes the text-quality
    family (gopher gates junk, quality scores structure, this grades
    how hard fluent text reads). Pure per-row map, zero exchange."""
    import ray.data

    from documentai_ray.stages.textstats import readability_batch

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return docs.map_batches(readability_batch, batch_format="pyarrow")


def _q_rendezvous_shards(sf_dir: str):
    """Rendezvous / highest-random-weight shard routing
    (``partitioning.rendezvous_assign``): every doc goes to the shard
    maximizing md5-LE64("{key}|{shard}") — the consistent-placement
    rule where adding a shard moves only ~1/(K+1) of keys and removing
    one moves only its own (mod-N would reshuffle everything). Pure
    per-batch map over K=5 hash columns, ZERO exchange; deterministic
    lexically-larger tie-break mirrored in the oracle's
    ORDER BY h DESC, shard DESC."""
    import ray.data

    from documentai_ray.state.partitioning import rendezvous_assign

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    return rendezvous_assign(
        docs, key_col="doc_id",
        shards=["shard-a", "shard-b", "shard-c", "shard-d", "shard-e"])


def _q_fuzzy_hosts(sf_dir: str):
    """Edit-distance fuzzy join: every doc's host string gets a planted
    single-character deletion (at position doc_id % len), then is snapped
    back to the canonical host vocabulary by minimum Levenshtein distance
    (tie → lexicographically smallest, drop beyond dist 2). Physical
    plan: distinct dirty-key projection → small vocabulary match →
    broadcast lookup (stages/fuzzy.py's documented contract). Oracle:
    DuckDB's levenshtein() with the identical argmin/tie-break window."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.fuzzy import fuzzy_match_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])
    sources = sorted(docs.unique("source"))
    canon = ["heavy.example.com"] + [f"{s}.example.com" for s in sources]

    def dirty(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        out = []
        for did, s in zip(ids, srcs):
            host = ("heavy.example.com" if did % 3 == 0
                    else f"{s}.example.com")
            p = did % len(host)
            out.append(host[:p] + host[p + 1:])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "dirty": pa.array(out, pa.string())})

    ds = docs.map_batches(dirty, batch_format="pyarrow")
    out = fuzzy_match_join(ds, col="dirty", canon=canon, max_dist=2,
                           matched_col="canon_host", num_partitions=8)
    return out.select_columns(["doc_id", "dirty", "canon_host", "dist"])


def _q_redirect_resolve(sf_dir: str):
    """HTTP-redirect chain canonicalization via pointer doubling: every
    url whose doc_id is not a multiple of 8 301-redirects to doc_id-1,
    multiples of 8 are terminal — chains up to 7 hops, so 3 doubling
    rounds (2³ ≥ 7) resolve every url to its final target in O(log L)
    self-joins instead of O(L) sequential hops. The closed form the
    oracle checks: final(i) = (i // 8) * 8."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import resolve_pointers

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])

    def ptrs(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        ptr = ids - (ids % 8 != 0)
        return pa.table({"node": pa.array(ids, pa.int64()),
                         "ptr": pa.array(ptr, pa.int64())})

    resolved = resolve_pointers(
        docs.map_batches(ptrs, batch_format="pyarrow"),
        iters=3, num_partitions=16)
    return resolved.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "final": b.column("ptr")}),
        batch_format="pyarrow")


def _q_ocr_roundtrip(sf_dir: str):
    """REAL OCR path (M3): MINIPDF pages render with the 5×7 bitfont →
    PNG encode → PNG decode → matched-template recognition — two
    independent real computations whose composition must reproduce the
    first page's walk text BYTE-IDENTICALLY (error payloads → '').
    The oracle is the closed-form first-page layout text."""
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.multimodal import RasterizeStage
    from documentai_ray.stages.ocr import OcrStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4),
                        fn_constructor_kwargs={"emit_png": True,
                                               "glyphs": True})
    ds = ds.map_batches(OcrStage, batch_format="pyarrow", batch_size=32,
                        concurrency=(1, 4))
    return ds.select_columns(["url", "ocr_text"])


def _q_ocr_classify(sf_dir: str):
    """M11 OCR-path classification: the 4-technique vote runs over text
    recovered by the REAL OCR chain (bitfont raster → PNG → template
    match) instead of native extraction — the reference's scanned-page
    branch. Walk text is plain report prose, so the closed form is
    data_report 4/4 (unclassified for error pages); any OCR corruption
    that touched keywords would break the vote and fail the oracle."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.classify import classify_batch_task
    from documentai_ray.stages.multimodal import RasterizeStage
    from documentai_ray.stages.ocr import OcrStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4),
                        fn_constructor_kwargs={"emit_png": True,
                                               "glyphs": True})
    ds = ds.map_batches(OcrStage, batch_format="pyarrow", batch_size=32,
                        concurrency=(1, 4))

    def to_text(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch.column("url"),
                         "text": batch.column("ocr_text")})

    ds = ds.map_batches(to_text, batch_format="pyarrow")
    ds = ds.map_batches(classify_batch_task, batch_format="pyarrow",
                        batch_size=256)
    return ds.select_columns(["url", "category", "votes"])


def _q_office_extract(sf_dir: str):
    """S4/S5 driver-level exercise: real DOCX / XLSX payloads (stdlib
    zip+XML builders) flow through the extraction dispatch. Even docs are
    DOCX (1-3 paragraphs); odd docs are XLSX with the 100-row cap binding
    above 100 rows and a planted 1200-char row (doc_id%50==7) exercising
    the 1000-char cap — all closed-form."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.sources import office
    from documentai_ray.stages.extract import extract_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        payloads: list[bytes] = []
        for did in batch.column("doc_id").to_pylist():
            if did % 2 == 0:
                payloads.append(office.make_docx(
                    [f"Paragraph {j} of doc {did}"
                     for j in range(1 + did % 3)]))
            elif did % 50 == 7:
                payloads.append(office.make_xlsx([["x" * 1200]]))
            else:
                payloads.append(office.make_xlsx(
                    [[f"r{i}d{did % 10}"] for i in range(2 + did % 150)]))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "url": pa.array([f"u{d}" for d in
                                          batch.column("doc_id").to_pylist()],
                                         pa.string()),
                         "html": pa.array(payloads, pa.large_binary())})

    ds = ds.map_batches(gen, batch_format="pyarrow", batch_size=128)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=128)
    return ds.select_columns(["doc_id", "text", "payload_kind"])


def _q_generic_entities(sf_dir: str):
    """M20 generic extractor over PO pages: dates / currency amounts /
    number counts from the compiled regex battery — every value and count
    closed-form from the PO archetype construction (the planted
    technique-disagreement suffix adds words, never digits)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from documentai_ray.stages.entities import extract_generic

    ds = _extracted_pages_with_doc_id(sf_dir)

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keep = [i % 5 == 2 and i % 97 != 0 for i in ids]
        batch = batch.filter(pa.array(keep))
        fd, fa, nd, na, nn, ne, np_ = [], [], [], [], [], [], []
        for t in batch.column("text").to_pylist():
            g = extract_generic(t or "")
            fd.append(g["dates"][0] if g["dates"] else "")
            fa.append(g["amounts"][0] if g["amounts"] else "")
            nd.append(len(g["dates"]))
            na.append(len(g["amounts"]))
            nn.append(len(g["numbers"]))
            ne.append(len(g["emails"]))
            np_.append(len(g["phones"]))
        return pa.table({"url": batch.column("url"),
                         "first_date": pa.array(fd, pa.string()),
                         "first_amount": pa.array(fa, pa.string()),
                         "n_dates": pa.array(nd, pa.int64()),
                         "n_amounts": pa.array(na, pa.int64()),
                         "n_numbers": pa.array(nn, pa.int64()),
                         "n_emails": pa.array(ne, pa.int64()),
                         "n_phones": pa.array(np_, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=256)


def _q_layout_structure(sf_dir: str):
    """T3-analog layout analysis over PIXELS: first-page raster → line
    bands / word boxes / block grouping recovered from ink geometry alone
    (never the source layout tree). Closed form: m = min(n_words, 96)
    first-page words, ceil(m/8) lines, ceil(lines/3) blocks."""
    import ray.data

    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.multimodal import RasterizeStage
    from documentai_ray.stages.ocr import LayoutAnalysisStage

    ds = pages_dataset(sf_dir, with_dups=False, pdf_mode=True)
    ds = ds.map_batches(RasterizeStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4),
                        fn_constructor_kwargs={"emit_png": True,
                                               "glyphs": True})
    ds = ds.map_batches(LayoutAnalysisStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4))
    return ds.select_columns(["url", "n_blocks", "n_lines", "n_words"])


def _q_page_type_detect(sf_dir: str):
    """M5 text-vs-image page detection: the 15-word / 8-word+images /
    0.08-density decision tree over closed-form synthetic page stats that
    sweep all three branches (wc=doc_id%25, images=doc_id%3,
    density=(doc_id%20)/100)."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.extract import detect_page_type

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def f(batch: pa.Table) -> pa.Table:
        kinds = [detect_page_type(d % 25, d % 3, (d % 20) / 100.0)
                 for d in batch.column("doc_id").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "page_type": pa.array(kinds, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=512)


# ---------------------------------------------------------------------------
# Off-chain bodies below: not registry keys and without an oracle twin;
# unit tests call them, and each goes with those tests. Their "oracle"
# notes describe DuckDB twins that were deleted with the keys.
# ---------------------------------------------------------------------------

def _q_backtest_mae(sf_dir: str):
    """Seasonal-naive forecast backtest (``windows.seasonal_naive_mae``):
    MAE of predicting each event type's hourly volume with the same
    hour yesterday — the baseline every forecasting model must beat and
    the day-over-day predictability metric. Exact integer error sums,
    pairs only where both hours observed; the hourly aggregate rides
    ONE bounded exchange and the 24h-lag join runs over the tiny
    series table."""
    import ray.data

    from documentai_ray.stages.windows import seasonal_naive_mae

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])
    return seasonal_naive_mae(ev, ts_col="ts", key_col="event_type",
                              season_hours=24)


__all__ = ['_q_wet_roundtrip', '_q_jsonl_roundtrip', '_q_cdx_fetch', '_q_kcenter_select', '_q_online_neardup', '_q_fetch_schedule', '_q_lang_rebalance', '_q_drop_funnel', '_q_tfrecord_roundtrip', '_q_csv_roundtrip', '_q_ipc_roundtrip', '_q_orc_roundtrip', '_q_page_meta', '_q_robots_filter', '_q_robots_txt_rules', '_q_surt_keys', '_q_anchor_text', '_q_sitemap_frontier', '_q_recrawl_priority', '_q_fetch_waves', '_q_dead_letter', '_q_curation_hostaware', '_q_snapshot_diff', '_q_host_cap', '_q_outlink_count', '_q_kmeans_clusters', '_q_video_frames', '_q_images_to_pdf', '_q_base64_pages', '_q_rasterize_pages', '_q_gopher_quality', '_q_repeated_passages', '_q_dedup_passages', '_q_category_split_pdfs', '_q_vocab_growth', '_q_backtest_mae', '_q_readability', '_q_rendezvous_shards', '_q_fuzzy_hosts', '_q_redirect_resolve', '_q_ocr_roundtrip', '_q_ocr_classify', '_q_office_extract', '_q_generic_entities', '_q_layout_structure', '_q_page_type_detect']
