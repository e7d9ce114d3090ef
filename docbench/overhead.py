"""Per-job fixed overhead of a workload's job: the share of job wall time
that does not grow with the rows.

    python3 docbench/overhead.py --workload web_html --reps 3

Run from the root of a checkout. Jobs of 1/2, 1 and 2 times the workload's
row count run alternately in one Ray session (``num_cpus`` = ``nproc``);
a least-squares line through the median wall per size gives the fixed part
as its intercept. On resume_partitioned the job is one ``run_to_parquet``,
without the resume. Prints one line per size and the fixed share at the
benchmark's size; not used by ``run.py``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from docbench import corpus, run  # noqa: E402
from docbench.driver import FLAGSHIP_KW  # noqa: E402

SCALES = (0.5, 1, 2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    root = os.getcwd()
    os.environ["PYTHONPATH"] = root
    work = tempfile.mkdtemp(prefix="overhead-", dir=root)
    ray_tmp = tempfile.mkdtemp(prefix="overhead-ray-")
    import pyarrow.parquet as pq
    import ray

    try:
        rows = {}
        for scale in SCALES:
            n = int(corpus.WORKLOADS[args.workload]["rows"] * scale)
            table, _ = corpus.make_pages(args.workload, 1, rows=n)
            os.makedirs(os.path.join(work, f"in-{scale}"))
            pq.write_table(table, os.path.join(work, f"in-{scale}", "part-0.parquet"))
            rows[scale] = table.num_rows
        ray.init(num_cpus=run.nproc(), include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=512 * 2**20,
                 _temp_dir=ray_tmp)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        from documentai_ray.pipelines import flagship as fl

        def job(scale: float, i: int) -> float:
            inp = ray.data.read_parquet(os.path.join(work, f"in-{scale}"))
            out = os.path.join(work, f"out-{scale}-{i}")
            t0 = time.monotonic()
            if args.workload == "resume_partitioned":
                fl.run_to_parquet(out, ds=inp)
            else:
                fl.flagship(inp, **FLAGSHIP_KW[args.workload]).write_parquet(out)
            wall = time.monotonic() - t0
            shutil.rmtree(out)
            return wall

        job(SCALES[0], -1)  # warm-up
        walls: dict[float, list[float]] = {s: [] for s in SCALES}
        for i in range(args.reps):
            for s in SCALES:
                walls[s].append(job(s, i))
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    xs = [rows[s] for s in SCALES]
    ys = [statistics.median(walls[s]) for s in SCALES]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    fixed = my - slope * mx
    for s, x, y in zip(SCALES, xs, ys):
        print(f"{args.workload}: {x} rows: median wall {y:.3f} s "
              f"({', '.join(f'{w:.2f}' for w in walls[s])})")
    print(f"{args.workload}: fixed {fixed:.3f} s per job, {1e3 * slope:.3f} ms per row; "
          f"fixed share at {rows[1]} rows: {fixed / ys[1]:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
