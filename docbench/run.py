"""Flagship benchmark: one workload, one seed, one JSON result line.

    python3 docbench/run.py --workload web_html --seed 1 --seconds 14 --trace 0

Run from the root of a checkout. The inputs are generated from the seed
(``corpus.py``); the program is then run by fresh driver processes
(``driver.py``), each leading its own process session:

- ``--trace 0``: two timed drivers one after the other, each measuring for
  half of ``--seconds``; their set-ups are the ``setup_s`` samples, and
  the measured time is spread over the run. Prints the end-to-end metrics.
- ``--trace 1``: one tracing driver. Prints the per-layer metrics and writes
  the spans to ``.bench_out/``.

While a driver runs, this process samples the RSS and the new Ray workers
of its session from outside it, so that sampling costs the session
nothing. Every output is checked: text, category, entities, rule counts,
boxes and output columns against the seed's goldens. After each driver, every process of its session
is killed and its Ray temp dir removed, also on failure, timeout or
SIGTERM. The last line of stdout is the result; a host and noise record
(not gated) is printed on the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from docbench import corpus, procs  # noqa: E402

WORKLOADS = tuple(corpus.WORKLOADS)
TIMED_DRIVERS = 2
DEADLINE_S = 170        # a run must end within 180 s
TINY_ROWS = 48
# Ray's socket paths (<temp>/session_<date>_<pid>/sockets/plasma_store, 64
# bytes after <temp>) must stay within the 107-byte Unix socket limit.
MAX_RAY_TMP_LEN = 43


class RunFailed(Exception):
    pass


def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def calibration_s() -> float:
    """Fixed single-thread probe: median of three timings of the same
    md5 and interpreter work."""
    data = bytes(range(256)) * 8192
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(8):
            hashlib.md5(data).digest()
        sum(i * i for i in range(300_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def write_inputs(work: str, workload: str, seed: int) -> tuple[int, str]:
    import pyarrow.parquet as pq

    table, golden = corpus.make_pages(workload, seed)
    inp = os.path.join(work, "input")
    os.makedirs(inp)
    per = -(-table.num_rows // 4)
    for i in range(4):
        pq.write_table(table.slice(i * per, per), os.path.join(inp, f"part-{i}.parquet"))
    tiny, _ = corpus.make_pages(workload, seed, rows=TINY_ROWS)
    os.makedirs(os.path.join(work, "tiny"))
    pq.write_table(tiny, os.path.join(work, "tiny", "part-0.parquet"))
    pq.write_table(golden, os.path.join(work, "golden.parquet"))
    return table.num_rows, corpus.input_digest(table)


class Runner:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.run_id = f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.work = os.path.join(root, ".bench_work", self.run_id)
        self.deadline = time.monotonic() + DEADLINE_S
        self.live_sids: list[int] = []
        self.ray_tmps: list[str] = []

    def ray_tmp(self) -> str:
        """A fresh Ray temp dir: in the checkout when the path is short
        enough for Ray's sockets, else in the system temp dir."""
        base = os.path.join(self.root, ".bray")
        if len(base) + 9 > MAX_RAY_TMP_LEN:
            base = tempfile.gettempdir()
        os.makedirs(base, exist_ok=True)
        d = tempfile.mkdtemp(prefix="", dir=base)
        self.ray_tmps.append(d)
        return d

    def driver(self, mode: str, seconds: float) -> dict:
        result = os.path.join(self.work, f"{mode}-{len(self.ray_tmps)}.json")
        log_path = result[:-5] + ".log"
        cmd = [sys.executable, os.path.join(HERE, "driver.py"), "--mode", mode,
               "--workload", self.args.workload, "--work", self.work,
               "--ray-tmp", self.ray_tmp(), "--num-cpus", str(nproc()),
               "--seed", str(self.args.seed), "--seconds", str(seconds),
               "--run-id", self.run_id, "--result", result,
               "--spans", os.path.join(self.root, ".bench_out", f"spans-{self.run_id}.jsonl")]
        env = dict(os.environ, PYTHONPATH=self.root, RAY_USAGE_STATS_ENABLED="0")
        with open(log_path, "w") as log:
            proc = subprocess.Popen(cmd + ["--spawn-t", repr(time.monotonic())],
                                    cwd=self.root, env=env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            self.live_sids.append(proc.pid)
            sampler = procs.SessionSampler(proc.pid)
            sampler.start()
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                sampler.stop()
                self.stop(proc.pid)
                proc.wait()
        if rc != 0 or not os.path.exists(result):
            with open(log_path, errors="replace") as f:
                tail = f.read()[-1500:]
            why = "timed out" if rc is None else f"exited with code {rc}"
            raise RunFailed(f"{mode} driver {why}; log tail:\n{tail}")
        with open(result) as f:
            res = json.load(f)
        res["peak_rss"], res["workers_started"] = sampler.window(*res["window"])
        return res

    def stop(self, sid: int) -> None:
        left = procs.kill_session(sid)
        if left:
            raise RunFailed(f"processes {left} of session {sid} survived SIGKILL")
        self.live_sids.remove(sid)

    def cleanup(self) -> None:
        for sid in list(self.live_sids):
            procs.kill_session(sid)
        for d in self.ray_tmps + [self.work]:
            shutil.rmtree(d, ignore_errors=True)
        for d in (os.path.join(self.root, ".bray"), os.path.dirname(self.work)):
            try:
                os.rmdir(d)
            except OSError:
                pass

    def run(self) -> tuple[dict, dict]:
        a = self.args
        host = {"nproc": nproc(), "affinity": sorted(os.sched_getaffinity(0)),
                "calibration_s": calibration_s(), "ray": version("ray"),
                "pyarrow": version("pyarrow")}
        os.makedirs(os.path.join(self.root, ".bench_out"), exist_ok=True)
        rows, digest = write_inputs(self.work, a.workload, a.seed)
        host["input_digest"] = digest
        if a.trace:
            res = self.driver("trace", a.seconds)
            values = dict(res["metrics"], **{"ray.workers_started": res["workers_started"]})
            host.update({"host.steal_s": values["host.steal_s"],
                         "ray.workers_started": values["ray.workers_started"]})
        else:
            parts = [self.driver("timed", a.seconds / TIMED_DRIVERS)
                     for _ in range(TIMED_DRIVERS)]
            walls = [w for p in parts for w in p["job_walls"]]
            setups = [p["setup_s"] for p in parts]
            per_doc = [b / p["rows_out"] for p in parts for b in p["out_bytes"]]
            values = {
                "docs_per_s": rows / statistics.median(walls),
                "setup_s": statistics.median(setups),
                "cpu_s_per_kdoc": sum(p["cpu_s"] for p in parts) / (rows * len(walls) / 1000),
                "peak_rss_mb": max(p["peak_rss"] for p in parts) / 2**20,
                "out_bytes_per_doc": statistics.median(per_doc),
            }
            host.update({"host.steal_s": sum(p["steal_s"] for p in parts),
                         "ray.workers_started": sum(p["workers_started"] for p in parts),
                         "job_walls_s": walls, "setup_samples_s": setups,
                         # 1 when the re-encoded output repeats exactly
                         "out_bytes_distinct": len(set(per_doc))})
            res = {k: sum(p[k] for p in parts) for k in ("attempted", "failed")}
            res["problems"] = [x for p in parts for x in p["problems"]]
        units = declared_units(self.root, a.trace)
        if set(values) != set(units):
            raise RunFailed(f"metrics {sorted(set(values) ^ set(units))} do not "
                            "match BENCHMARK.json")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
        for p in res["problems"]:
            print(f"docbench: {a.workload}: check failed: {p}", file=sys.stderr)
        result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
                  "failed": res["failed"], "metrics": metrics}
        return host, result


def declared_units(root: str, trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=14)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "documentai_ray", "pipelines", "flagship.py")):
        print(f"docbench: {args.workload}: no program here "
              "(documentai_ray/pipelines/flagship.py missing)", file=sys.stderr)
        return 2

    def on_term(signum, frame):
        raise RunFailed(f"terminated by signal {signum}")

    signal.signal(signal.SIGTERM, on_term)
    runner = Runner(args, root)
    try:
        host, result = runner.run()
    except RunFailed as e:
        print(f"docbench: {args.workload}: run failed: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print(f"docbench: {args.workload}: run failed in the benchmark itself",
              file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # finish the teardown
        runner.cleanup()
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
