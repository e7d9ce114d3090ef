"""Flagship pipeline — the reference's full /process chain, Ray-Data-first.

Reference lifecycle (SURVEY §3.1): upload → quality → preprocess decision →
classification (4 techniques + vote) → entity extraction → rule validation →
assemble. Re-expressed as one streaming Dataset (SURVEY §7.1):

    pages (url, warc_ts, html, text, lang)
      → map_batches(extract_batch)       main-content extraction (M1/M2)
      → exact dedup by url (latest capture wins)          [shuffle: url]
      → map_batches(quality_batch)       quality transform (Q11-Q16)
      → map_batches(decision_batch)      preprocess decision (M15/M16)
      → 3-technique classify + ML actor pool + vote fuse  (M8-M13)
      → map_batches(entities_batch)      per-category extractors (M17-M26)
      → map_batches(RulesStage)          compiled rule validators (T4/A7)
      → [run_to_parquet] bucket column + resume filter + partitioned
        parquet + per-bucket manifests   (pipelines/runner.py)

Every stage is Arrow-in/Arrow-out; the html payload is projected away at the
extraction stage so no binary bytes travel further than they must.
"""

from __future__ import annotations

import os

from documentai_ray.pipelines.runner import run_pipeline_to_parquet
from documentai_ray.sources.pages import pages_dataset
from documentai_ray.stages.classify import classify_pipeline
from documentai_ray.stages.dedup import dedup_latest
from documentai_ray.stages.entities import entities_batch
from documentai_ray.stages.extract import extract_batch
from documentai_ray.stages.preprocess import decision_batch
from documentai_ray.stages.quality import quality_batch
from documentai_ray.stages.rules import RulesStage, load_rules
from documentai_ray.state import manifest as mf  # noqa: F401 (docbench/driver.py patches it)
from documentai_ray.state.partitioning import detect_heavy_hosts

_RULES_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "configs",
                 "validation_rules", "purchase_order_rules.txt")
)


def rules_by_category() -> dict:
    return {"purchase_order": load_rules(_RULES_PATH)}


def flagship(
    ds=None,
    *,
    sf_dir: str | None = None,
    dedup: bool = True,
    batch_size: int = 1024,
    ml_concurrency=None,
    drop_word_boxes: bool = True,
    with_entity_boxes: bool = False,
):
    """Build the lazy flagship Dataset. Pass a pages Dataset or an sf_dir.

    ``with_entity_boxes=True`` is the reference's runtime bbox enrichment
    (entity-extraction-service/app.py:571-579): ``word_boxes`` survive the
    extract stage, ride the chain to the entities stage, and each
    extracted PO field gains flat ``{field}_{page,x0,y0,x1,y1}`` columns;
    the raw box list is then dropped (the bbox columns are the output).
    Cost: the box structs travel the dedup exchange — bench entry
    ``flagship_boxes`` records the delta vs the plain flagship."""
    if with_entity_boxes:
        drop_word_boxes = False
    if ds is None:
        ds = pages_dataset(sf_dir)
    # Extract FIRST, dedup after: extraction is per-capture (deterministic,
    # so processing a to-be-discarded duplicate is merely ~dup-rate wasted
    # compute), while dedup is a shuffle — running it post-extraction means
    # the exchange moves extracted text (~10× smaller than the html payload),
    # and the payload column never leaves the map stage that read it.
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=batch_size, zero_copy_batch=True)
    if drop_word_boxes:
        ds = ds.drop_columns(["word_boxes"])
    if dedup:
        ds = dedup_latest(ds, key="url", ts="warc_ts")
    ds = ds.map_batches(quality_batch, batch_format="pyarrow", batch_size=batch_size)
    # M15/M16 preprocess decision: verdict → {needs_preprocessing, ops,
    # priority} (reference gateway app.py:132-219, :348-392 — the /process
    # chain's quality → decision → classification ordering)
    ds = ds.map_batches(decision_batch, batch_format="pyarrow", batch_size=batch_size)
    ds = classify_pipeline(ds, ml_concurrency=ml_concurrency, batch_size=batch_size)
    ds = ds.map_batches(entities_batch, batch_format="pyarrow", batch_size=batch_size)
    if with_entity_boxes:
        from documentai_ray.stages.entities import match_boxes_batch

        ds = ds.map_batches(match_boxes_batch, batch_format="pyarrow",
                            batch_size=batch_size)
        ds = ds.drop_columns(["word_boxes"])
    # RulesStage instance → stateless-task stage (compiled rules ship in the
    # closure via cloudpickle; fuses with the entities task stage)
    ds = ds.map_batches(RulesStage(rules_by_category()), batch_format="pyarrow",
                        batch_size=batch_size)
    return ds


def run_to_parquet(
    out_dir: str,
    *,
    sf_dir: str | None = None,
    ds=None,
    n_buckets: int = 16,
    heavy_share: float = 0.10,
    salt_k: int = 8,
    **flagship_kwargs,
) -> dict[int, dict]:
    """Resumable partitioned run: bucket → skip completed → write → manifests.

    Returns the manifest map. Calling it again after a partial failure only
    processes buckets without a manifest.
    """
    if ds is None:
        ds = pages_dataset(sf_dir)
    heavy = detect_heavy_hosts(ds, share_threshold=heavy_share, salt_k=salt_k)
    manifests = run_pipeline_to_parquet(
        out_dir, ds, lambda d: flagship(d, **flagship_kwargs), heavy,
        n_buckets=n_buckets)
    write_job_metrics(out_dir)
    return manifests


def write_job_metrics(out_dir: str) -> dict:
    """Job-level metrics manifest (K3 analog — the reference's per-session
    JSON log with stats, documentClassifier.py:1524-1541): verdict and
    category distributions + total rows, aggregated from the written output
    (small groupbys over two pruned columns) into ``_metrics.json``."""
    import json

    import ray.data
    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(out_dir, columns=["verdict", "category"])
    verdicts = {
        r["verdict"]: r["n"]
        for r in ds.groupby("verdict").aggregate(Count(alias_name="n")).take_all()
    }
    categories = {
        r["category"]: r["n"]
        for r in ds.groupby("category").aggregate(Count(alias_name="n")).take_all()
    }
    metrics = {
        "rows": sum(verdicts.values()),
        "verdict_distribution": verdicts,
        "category_distribution": categories,
    }
    tmp = os.path.join(out_dir, "_metrics.json.tmp")
    with open(tmp, "w") as f:
        json.dump(metrics, f, sort_keys=True, indent=1)
    os.replace(tmp, os.path.join(out_dir, "_metrics.json"))
    return metrics
