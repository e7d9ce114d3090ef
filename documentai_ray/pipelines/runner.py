"""Resumable partitioned runner — the one checkpoint contract every heavy
pipeline (the flagship via ``flagship.run_to_parquet``, corpus line
dedup, passage removal, a curation sweep) runs under at 100 TB: bucket
the INPUT on a salted url hash, skip buckets whose manifest already
exists, discard manifest-less partial outputs before rerunning, and
attest each bucket from what is actually ON DISK.

Requirements on ``pipeline_fn``: input-row → output-row mapping may be
arbitrary (explode/aggregate within a bucket is fine) but must PRESERVE
the ``bucket`` column it receives, so outputs land in the right
partition, and must emit ``url`` and ``text``: the manifest digest is
taken over those two columns of the written output.
"""

from __future__ import annotations

import os
from typing import Callable

from documentai_ray.state import manifest as mf
from documentai_ray.state.partitioning import add_bucket_column


def run_pipeline_to_parquet(
    out_dir: str,
    ds,
    pipeline_fn: Callable,
    heavy: dict[str, int],
    *,
    n_buckets: int = 16,
) -> dict[int, dict]:
    """Bucket → skip completed → run ``pipeline_fn`` → write → attest.

    ``heavy`` is the salted-host map from
    ``partitioning.detect_heavy_hosts`` (``{}`` salts nothing).
    Re-invocation after a crash reprocesses only unfinished buckets."""
    ds = add_bucket_column(ds, n_buckets, heavy)
    # drop partial outputs of crashed buckets (no manifest ⇒ untrusted)
    # BEFORE reprocessing, or the rerun would append beside stale files
    mf.clean_incomplete_buckets(out_dir)
    done = mf.completed_buckets(out_dir)
    ds = mf.filter_completed(ds, done)
    out = pipeline_fn(ds)
    os.makedirs(out_dir, exist_ok=True)
    out.write_parquet(out_dir, partition_cols=["bucket"])
    # Manifests are computed from what is ON DISK (read back, column-pruned)
    # so a manifest never attests rows that failed to write.
    import ray.data

    written = ray.data.read_parquet(out_dir, columns=["bucket", "url", "text"])
    return mf.finalize_buckets(written, out_dir)
