"""Declarative pipeline compiler — the §2.11 user-extension surface
taken to its conclusion: a YAML/dict spec names a chain of registered
stages and the compiler folds it into ONE lazy ``ray.data.Dataset``
(streaming execution, no materialization between stages), so a corpus
operator can define or re-order a curation pipeline without writing
code. The reference exposes its behavior knobs as config files
(classification JSON, quality YAML, rule texts); this module does the
same for pipeline STRUCTURE.

Spec shape::

    pipeline:
      - stage: url_filter
        params: {block_heavy: true, blocked_src_mod: 7}
      - stage: extract
      - stage: dedup_latest
      - stage: drop_empty
      - stage: c4_lines
      - stage: knuth_split

Each registered stage is ``fn(ds, sf_dir, **params) -> ds``. New stages
register via :func:`register_stage` (the same plugin pattern as
``entities.register_extractor``). Unknown stage names fail at COMPILE
time (before any cluster work is scheduled), listing the registry.
"""

from __future__ import annotations

from collections.abc import Callable

STAGE_REGISTRY: dict[str, Callable] = {}


def register_stage(name: str):
    def deco(fn: Callable) -> Callable:
        STAGE_REGISTRY[name] = fn
        return fn
    return deco


def compile_pipeline(spec: dict) -> Callable:
    """spec → ``run(ds, sf_dir) -> ds``. Validates every stage name up
    front; parameters are bound at compile time (driver-side), so a bad
    spec never reaches the executor."""
    steps = []
    for entry in spec["pipeline"]:
        name = entry["stage"]
        if name not in STAGE_REGISTRY:
            raise KeyError(
                f"unknown stage {name!r}; registered: "
                f"{sorted(STAGE_REGISTRY)}")
        steps.append((STAGE_REGISTRY[name], entry.get("params", {})))

    def run(ds, sf_dir: str):
        for fn, params in steps:
            ds = fn(ds, sf_dir, **params)
        return ds

    return run


def load_yaml_pipeline(path: str) -> Callable:
    import yaml

    with open(path) as f:
        return compile_pipeline(yaml.safe_load(f))


# ---------------------------------------------------------------------------
# built-in stage registry (the web-curation vocabulary)
# ---------------------------------------------------------------------------

@register_stage("url_filter")
def _stage_url_filter(ds, sf_dir, *, block_heavy: bool = True,
                      blocked_src_mod: int = 7, batch_size: int = 256):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from documentai_ray.sources.pages import HEAVY_HOST
    from documentai_ray.stages.curation import url_filter_batch

    srcs = set(pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["source"]).column("source").to_pylist())
    blocked = frozenset(
        ({HEAVY_HOST} if block_heavy else set())
        | {f"{s}.example.com" for s in srcs
           if int(s[3:]) % blocked_src_mod == 3})

    def frontier(batch: pa.Table) -> pa.Table:
        out = url_filter_batch(batch, blocked_hosts=blocked)
        out = out.filter(out.column("keep"))
        return out.drop_columns(["host", "keep", "drop_reason"])

    return ds.map_batches(frontier, batch_format="pyarrow",
                          batch_size=batch_size)


@register_stage("extract")
def _stage_extract(ds, sf_dir, *, batch_size: int = 256):
    from documentai_ray.stages.extract import extract_batch

    return ds.map_batches(extract_batch, batch_format="pyarrow",
                          batch_size=batch_size)


@register_stage("dedup_latest")
def _stage_dedup_latest(ds, sf_dir):
    from documentai_ray.stages.dedup import dedup_latest

    return dedup_latest(ds.select_columns(["url", "warc_ts", "text"]))


@register_stage("drop_empty")
def _stage_drop_empty(ds, sf_dir, *, col: str = "text"):
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda b: b.filter(pc.not_equal(b.column(col), "")),
        batch_format="pyarrow")


@register_stage("c4_lines")
def _stage_c4_lines(ds, sf_dir, *, batch_size: int = 256):
    import pyarrow as pa
    import pyarrow.compute as pc

    from documentai_ray.stages.lines import c4_line_filter_batch

    def apply(batch: pa.Table) -> pa.Table:
        batch = c4_line_filter_batch(batch)
        return batch.filter(pc.greater(batch.column("n_lines_kept"), 0))

    return ds.map_batches(apply, batch_format="pyarrow",
                          batch_size=batch_size)


@register_stage("knuth_split")
def _stage_knuth_split(ds, sf_dir, *, train_ppm: int = 800_000,
                       val_ppm: int = 100_000):
    """Deterministic split + the web_curation output projection."""
    import numpy as np
    import pyarrow as pa

    def split(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        ids = np.asarray([int(u.rsplit("/", 1)[1]) for u in urls], np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(1 << 32)
        frac = h.astype(np.float64) / float(1 << 32)
        lab = np.where(frac < train_ppm / 1e6, "train",
                       np.where(frac < (train_ppm + val_ppm) / 1e6,
                                "val", "test"))
        n_chars = pa.array(
            [len(t) for t in batch.column("clean_text").to_pylist()],
            pa.int64())
        return pa.table({"url": batch.column("url"),
                         "n_lines_kept": batch.column("n_lines_kept"),
                         "n_chars": n_chars,
                         "split": pa.array(lab.tolist(), pa.string())})

    return ds.map_batches(split, batch_format="pyarrow", batch_size=256)

