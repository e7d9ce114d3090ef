"""Generic resumable runner: any pipeline gets the checkpoint contract."""

from __future__ import annotations

import glob
import os
import shutil
import tempfile


def _pipeline(ds):
    import pyarrow as pa

    from documentai_ray.stages.lines import c4_line_filter_batch

    def clean(batch: pa.Table) -> pa.Table:
        out = c4_line_filter_batch(batch)
        return pa.table({"bucket": out.column("bucket"),
                         "url": out.column("url"),
                         "text": out.column("clean_text")})

    return ds.map_batches(clean, batch_format="pyarrow", batch_size=256)


def _corpus():
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset("/root/testdata/sf0.001", with_dups=False)
    return ds.map_batches(extract_batch, batch_format="pyarrow",
                          batch_size=256).select_columns(["url", "text"])


def _run(out_dir):
    from documentai_ray.pipelines.runner import run_pipeline_to_parquet
    from documentai_ray.state.partitioning import detect_heavy_hosts

    ds = _corpus()
    return run_pipeline_to_parquet(out_dir, ds, _pipeline,
                                   detect_heavy_hosts(ds), n_buckets=4)


def test_generic_runner_resume_reproduces_digests(ray_session):
    clean_dir = tempfile.mkdtemp(prefix="runner_clean_")
    crash_dir = tempfile.mkdtemp(prefix="runner_crash_")
    try:
        m_clean = _run(clean_dir)
        assert set(m_clean) == {0, 1, 2, 3}

        # simulate a crash: full run, then one bucket loses its manifest
        # while its (now untrusted) partial files stay on disk
        m1 = _run(crash_dir)
        victim = sorted(m1)[1]
        os.remove(os.path.join(crash_dir, "_manifests",
                               f"bucket={victim}.json"))
        files = glob.glob(os.path.join(crash_dir, f"bucket={victim}", "*"))
        assert files  # partial files present, manifest gone
        m2 = _run(crash_dir)
        assert {b: m["digest"] for b, m in m2.items()} == \
               {b: m["digest"] for b, m in m_clean.items()}
        assert {b: m["rows"] for b, m in m2.items()} == \
               {b: m["rows"] for b, m in m_clean.items()}
    finally:
        shutil.rmtree(clean_dir, ignore_errors=True)
        shutil.rmtree(crash_dir, ignore_errors=True)
