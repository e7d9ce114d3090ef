"""Output checks, written with pyarrow alone (the program is not imported).

- every golden url is written exactly once, with byte-identical text, and
  with the category, entities, rule counts and boxes its construction
  decides, in a fixed set of output columns;
- every bucket manifest (rows, text_bytes, digest) matches a recount of the
  files on disk, and no bucket on disk lacks a manifest;
- the output re-encoded split-independently for ``out_bytes_per_doc``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from docbench import corpus

MANIFEST_DIR = "_manifests"
_DIGEST_MOD = 1 << 64
# fixed writer settings for the re-encoded output
_WRITER = dict(compression="zstd", compression_level=3, use_dictionary=True,
               write_statistics=False, row_group_size=1 << 20,
               data_page_size=1 << 20, version="2.6")


def _parquet_files(out_dir: str) -> list[str]:
    """Data files under ``out_dir``, skipping ``_``/``.``-prefixed entries."""
    found = []
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
        found += [os.path.join(dirpath, f) for f in sorted(filenames)
                  if f.endswith(".parquet") and not f.startswith(("_", "."))]
    return found


def read_output(out_dir: str) -> pa.Table:
    """All rows a job wrote, with the hive partition directories dropped
    (their value is in the manifests, not in the rows)."""
    tables = [pq.read_table(p, partitioning=None) for p in _parquet_files(out_dir)]
    if not tables:
        return pa.table({"url": pa.array([], pa.string()),
                         "text": pa.array([], pa.large_string())})
    return pa.concat_tables(tables, promote_options="default")


def written_rows_bytes(out_dir: str) -> tuple[int, int]:
    """Rows and file bytes of the Parquet files a job wrote."""
    files = _parquet_files(out_dir)
    return (sum(pq.read_metadata(p).num_rows for p in files),
            sum(os.path.getsize(p) for p in files))


# the flagship's output columns; pdf_boxes adds the entity boxes
BASE_COLUMNS = (
    "url", "warc_ts", "lang", "text", "payload_kind", "error", "n_chars",
    "n_tokens", "uniq_tokens", "rep_ratio", "struct_ratio", "confidence",
    "verdict", "lang_ok", "needs_preprocessing", "pp_operations", "pp_priority",
    "tech_keyword", "tech_keyword_conf", "tech_regex", "tech_regex_conf",
    "tech_tokenset", "tech_tokenset_conf", "tech_ml", "tech_ml_conf",
    "category", "votes", *corpus.ENTITY_FIELDS, "goods_items", "doc_type", "completeness", "rules_passed", "rules_failed",
    "overall_valid")
BOX_FIELDS = ("po_number", "po_date", "seller", "buyer", "total_amount")
BOX_COLUMNS = tuple(f"{f}_{s}" for f in BOX_FIELDS
                    for s in ("page", "x0", "y0", "x1", "y1"))
OUTPUT_COLUMNS = {"web_html": BASE_COLUMNS,
                  "pdf_boxes": BASE_COLUMNS[:-3] + BOX_COLUMNS + BASE_COLUMNS[-3:],
                  "resume_partitioned": BASE_COLUMNS}
# golden column -> output column checked against it where it is not null
_EXACT = ("category", *corpus.ENTITY_FIELDS, "rules_passed", "rules_failed")
_PO_BOX = tuple(f"po_number_{s}" for s in ("page", "x0", "y0", "x1", "y1"))


def check_output(table: pa.Table, golden: pa.Table,
                 columns: tuple[str, ...] | None = None) -> list[str]:
    """Problems with a job's output rows; empty when correct.

    - the output has exactly ``columns`` (when given);
    - every golden url is written exactly once, with byte-identical text, and
  with the category, entities, rule counts and boxes its construction
  decides, in a fixed set of output columns;
    - malformed payloads, and only they, become error rows;
    - where the golden row gives them: category, PO and invoice entities,
      and rule counts are exact;
    - with box columns: every purchase order has a po_number box, and on
      MINIPDF purchase orders it is the exact box.
    """
    problems = []
    if columns is not None and tuple(table.column_names) != tuple(columns):
        missing = [c for c in columns if c not in table.column_names]
        extra = [c for c in table.column_names if c not in columns]
        problems.append(f"output columns differ: missing {missing}, extra {extra}"
                        if missing or extra else "output columns out of order")
    want = {r["url"]: r for r in golden.to_pylist()}
    have = [c for c in ("url", "text", "error", *_EXACT, *_PO_BOX)
            if c in table.column_names]
    seen: dict[str, int] = {}
    for row in table.select(have).to_pylist():
        url = row["url"]
        seen[url] = seen.get(url, 0) + 1
        g = want.get(url)
        if g is None:
            problems.append(f"unexpected url {url}")
            continue
        if (row.get("text") or "").encode() != g["text"].encode():
            problems.append(f"text differs for {url}")
        if "error" in row and bool(row["error"]) != (g["kind"] in corpus.MALFORMED):
            problems.append(f"error={row['error']!r} for {g['kind']} page {url}")
        for col in _EXACT:
            if g[col] is not None and row.get(col) != g[col]:
                problems.append(f"{col}={row.get(col)!r}, want {g[col]!r} for {url}")
        if "po_number_page" in table.column_names and g["po_number"]:
            box = [row[c] for c in _PO_BOX]
            if None in box or (g["po_box"] is not None and box != g["po_box"]):
                problems.append(f"po_number box {box} for {url}")
    problems += [f"url written {n} times: {u}" for u, n in seen.items() if n > 1]
    problems += [f"missing url {u}" for u in want if u not in seen]
    return problems


def row_digest(url: str, text: str) -> int:
    """The manifest's per-row digest: first 8 bytes of md5(url NUL text),
    little-endian signed; a bucket's digest is their sum mod 2**64."""
    h = hashlib.md5(f"{url}\x00{text}".encode()).digest()
    return int.from_bytes(h[:8], "little", signed=True)


def read_manifests(out_dir: str) -> dict[int, dict]:
    d = os.path.join(out_dir, MANIFEST_DIR)
    out = {}
    for name in sorted(os.listdir(d)) if os.path.isdir(d) else []:
        if name.startswith("bucket=") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                m = json.load(f)
            out[int(m["bucket"])] = m
    return out


def manifest_path(out_dir: str, bucket: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"bucket={bucket}.json")


def recount_bucket(out_dir: str, bucket: int) -> dict:
    t = read_output(os.path.join(out_dir, f"bucket={bucket}"))
    rows = text_bytes = digest = 0
    for url, text in zip(t.column("url").to_pylist(), t.column("text").to_pylist()):
        text = text or ""
        rows += 1
        text_bytes += len(text.encode())
        digest += row_digest(url, text)
    return {"bucket": bucket, "rows": rows, "text_bytes": text_bytes,
            "digest": digest % _DIGEST_MOD}


def check_manifests(out_dir: str) -> list[str]:
    """Each manifest against a recount of its bucket's files on disk."""
    manifests = read_manifests(out_dir)
    on_disk = {int(n.split("=", 1)[1]) for n in os.listdir(out_dir)
               if n.startswith("bucket=")}
    problems = [f"bucket {b} has files but no manifest"
                for b in sorted(on_disk - set(manifests))]
    for b, m in manifests.items():
        got = recount_bucket(out_dir, b)
        for key in ("rows", "text_bytes", "digest"):
            if m.get(key) != got[key]:
                problems.append(f"bucket {b} manifest {key}={m.get(key)} "
                                f"but files hold {got[key]}")
    if not manifests:
        problems.append("no manifests written")
    return problems


def choose_lost_buckets(rows_by_bucket: dict[int, int], seed: int) -> list[int]:
    """Seeded buckets whose rows add up to about half of all rows: take
    buckets in seeded order while the total stays at most half, then add
    the one remaining bucket that brings the total closest to half."""
    half = sum(rows_by_bucket.values()) / 2
    order = sorted(rows_by_bucket)
    random.Random(f"lost:{seed}").shuffle(order)
    lost, n = [], 0
    for b in order:
        if n + rows_by_bucket[b] <= half:
            lost.append(b)
            n += rows_by_bucket[b]
    rest = [b for b in order if b not in lost]
    if rest:
        best = min(rest, key=lambda b: abs(n + rows_by_bucket[b] - half))
        if abs(n + rows_by_bucket[best] - half) < abs(n - half):
            lost.append(best)
    return sorted(lost)


def reencoded_size(table: pa.Table, path: str) -> int:
    """Rows sorted by url and columns by name, written as one Parquet file
    with fixed settings; returns its size in bytes. The size does not depend
    on how the job split its output into files."""
    t = table.select(sorted(table.column_names))
    t = t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))
    t = t.replace_schema_metadata(None)
    pq.write_table(t, path, **_WRITER)
    return os.path.getsize(path)
