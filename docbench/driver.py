"""One benchmark driver: owns a Ray session and runs the flagship jobs.

Started by ``run.py`` as the leader of its own process session, with the
checkout on ``PYTHONPATH`` so that Ray workers import the program by name.
Both modes start with set-up: start Ray, import the program and run every
stage on the tiny input; ``setup_s`` is the time since the driver was spawned.

- ``timed``: run equal full-size jobs back to back (a closed loop, one job
  at a time) for ``--seconds``; then check every job's output.

The driver's own measurements are session CPU and host steal at the ends
of the measured window; RSS and new Ray workers are sampled by ``run.py``
from outside the session over the window the driver reports.
- ``trace``: the per-layer pass (a one-process stage pass over the job's
  batches, the dedup layer, and Ray's structured stats of traced jobs
  alternating with untraced ones). Spans are written once, at the end.

The result is one JSON file, read by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

from docbench import checks, procs
from docbench.spans import Tracer

# Workload -> keyword arguments of flagship(); resume_partitioned runs
# run_to_parquet with the flagship defaults.
FLAGSHIP_KW = {
    "web_html": dict(dedup=True),
    "pdf_boxes": dict(dedup=False, with_entity_boxes=True),
    "resume_partitioned": {},
}
OP_GROUPS = ("read", "extract", "shuffle", "tail")


def op_group(op) -> str:
    """Ray Data operator -> the flagship layer it runs."""
    name = op.operator_name
    if op.is_sub_operator or name.startswith(("Sort", "Shuffle", "Aggregate", "HashShuffle")):
        return "shuffle"
    if "extract_batch" in name:
        return "extract"
    if name.startswith("Read"):
        return "read"
    return "tail"


def op_stats(summary) -> dict[str, float]:
    """``op.<group>.{wall_s,cpu_s,rows_out,bytes_out}`` summed over the
    operators of a ``DatasetStatsSummary`` and its parents."""
    out = {f"op.{g}.{k}": 0.0 for g in OP_GROUPS
           for k in ("wall_s", "cpu_s", "rows_out", "bytes_out")}
    stack = [summary]
    while stack:
        s = stack.pop()
        stack += s.parents
        for op in s.operators_stats:
            g = op_group(op)
            fields = [("wall_s", op.wall_time), ("cpu_s", op.cpu_time)]
            # a shuffle's map side and a fused write do not emit data rows:
            # the tail's output is counted from the files it wrote
            if not op.operator_name.endswith(("Map", "Write")):
                fields += [("rows_out", op.output_num_rows),
                           ("bytes_out", op.output_size_bytes)]
            for key, field in fields:
                out[f"op.{g}.{key}"] += (field or {}).get("sum", 0.0)
    return out


class Driver:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.sid = os.getsid(0)
        self.lost: list[int] = []
        self.job_count = 0

    # -- session ---------------------------------------------------------
    def start(self) -> None:
        import ray

        ray.init(num_cpus=self.args.num_cpus, include_dashboard=False,
                 _temp_dir=self.args.ray_tmp, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=512 * 2**20)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray").setLevel(logging.ERROR)
        import ray.data  # noqa: F401

        from documentai_ray.pipelines import flagship as fl

        self.fl = fl
        self.ray = ray

    def out_dir(self, tag: str) -> str:
        self.job_count += 1
        return os.path.join(self.args.work, "out", f"{self.sid}-{tag}-{self.job_count:03d}")

    # -- jobs --------------------------------------------------------------
    def job(self, inp: str, out: str, tracer: Tracer | None = None) -> dict:
        """One job; returns what the trace needs from it."""
        read = self.ray.data.read_parquet
        if self.workload != "resume_partitioned":
            if tracer is None:
                self.fl.flagship(read(inp), **FLAGSHIP_KW[self.workload]).write_parquet(out)
                return {}
            with tracer.span("flagship.build"):
                ds = self.fl.flagship(read(inp), **FLAGSHIP_KW[self.workload])
            with tracer.span("flagship.execute"):
                ds.write_parquet(out)
            return {"summary": ds._write_ds._get_stats_summary()}
        if tracer is None:
            self.fl.run_to_parquet(out, ds=read(inp))
            self.drop_lost(inp, out)
            self.fl.run_to_parquet(out, ds=read(inp))
            return {}
        info: dict = {"runs": []}
        with self._wrapped_layers(tracer, info):
            for i in range(2):
                info["runs"].append({})
                with tracer.span(f"run_to_parquet.{i}"):
                    self.fl.run_to_parquet(out, ds=read(inp))
                if i == 0:
                    self.drop_lost(inp, out)
        return info

    def drop_lost(self, inp: str, out: str) -> None:
        if not self.lost:
            rows = {b: m["rows"] for b, m in checks.read_manifests(out).items()}
            self.lost = checks.choose_lost_buckets(rows, self.args.seed)
            lost_urls = set()
            for b in self.lost:
                lost_urls.update(checks.read_output(
                    os.path.join(out, f"bucket={b}")).column("url").to_pylist())
            # input rows (stale captures included) that a resume must rerun
            urls = pq.read_table(inp, columns=["url"]).column("url").to_pylist()
            self.lost_input_rows = sum(u in lost_urls for u in urls)
            self.input_rows = len(urls)
        for b in self.lost:
            os.remove(checks.manifest_path(out, b))

    def _wrapped_layers(self, tracer: Tracer, info: dict):
        """Spans around run_to_parquet's calls into the partitioning,
        manifest, flagship and metrics layers (names looked up in the
        flagship module at call time)."""
        from contextlib import contextmanager

        fl, mf = self.fl, self.fl.mf
        originals = {"detect_heavy_hosts": fl.detect_heavy_hosts,
                     "flagship": fl.flagship,
                     "write_job_metrics": fl.write_job_metrics}
        mf_originals = {"completed_buckets": mf.completed_buckets,
                        "finalize_buckets": mf.finalize_buckets}

        def wrap(name, fn, keep):
            def wrapper(*a, **kw):
                with tracer.span(name):
                    res = fn(*a, **kw)
                info["runs"][-1][keep] = res
                return res
            return wrapper

        @contextmanager
        def patched():
            fl.detect_heavy_hosts = wrap("partition.detect_heavy", originals["detect_heavy_hosts"], "heavy")
            fl.flagship = wrap("flagship.build", originals["flagship"], "ds")
            fl.write_job_metrics = wrap("metrics.write", originals["write_job_metrics"], "metrics")
            mf.completed_buckets = wrap("manifest.completed", mf_originals["completed_buckets"], "done")
            mf.finalize_buckets = wrap("manifest.finalize", mf_originals["finalize_buckets"], "manifests")
            try:
                yield
            finally:
                for k, v in originals.items():
                    setattr(fl, k, v)
                for k, v in mf_originals.items():
                    setattr(mf, k, v)

        return patched()

    def check(self, out: str, golden: pa.Table) -> tuple[list[str], int, int]:
        """(problems, re-encoded bytes, rows) for one job's output."""
        table = checks.read_output(out)
        problems = checks.check_output(table, golden, checks.OUTPUT_COLUMNS[self.workload])
        if self.workload == "resume_partitioned":
            problems += checks.check_manifests(out)
        size = checks.reencoded_size(table, out + ".reencoded.parquet")
        return problems, size, table.num_rows

    # -- modes -------------------------------------------------------------
    def setup(self) -> float:
        self.start()
        self.job(os.path.join(self.args.work, "tiny"), self.out_dir("tiny"))
        self.lost = []  # chosen again from the first full-size job
        return time.monotonic() - self.args.spawn_t

    def window(self, loop) -> dict:
        """Run ``loop`` as the measured window; returns the window's
        monotonic start and end (``run.py`` samples RSS and workers from
        outside the session over it), session CPU and host steal."""
        t0, cpu0, steal0 = time.monotonic(), procs.session_cpu_s(self.sid), procs.steal_s()
        loop()
        cpu1, steal1 = procs.session_cpu_s(self.sid), procs.steal_s()
        return {"window": [t0, time.monotonic()], "cpu_s": cpu1 - cpu0,
                "steal_s": steal1 - steal0}

    def check_all(self, outs: list[str], golden: pa.Table) -> dict:
        """Every job's output checked; the re-encoded size of each."""
        failed, problems, sizes, rows_out = 0, [], [], 0
        for out in outs:
            p, size, rows_out = self.check(out, golden)
            failed += bool(p)
            problems += p[:5]
            sizes.append(size)
        return {"attempted": len(outs), "failed": failed, "problems": problems,
                "out_bytes": sizes, "rows_out": rows_out}

    def timed(self) -> dict:
        inp = os.path.join(self.args.work, "input")
        outs, walls = [], []

        def loop():
            t_end = time.monotonic() + self.args.seconds
            while time.monotonic() < t_end or len(walls) < 2:
                outs.append(self.out_dir("job"))
                t0 = time.monotonic()
                self.job(inp, outs[-1])
                walls.append(time.monotonic() - t0)

        res = self.window(loop)
        res.update(self.check_all(outs, load_golden(self.args.work)), job_walls=walls)
        return res

    def trace(self, spans_path: str) -> dict:
        inp = os.path.join(self.args.work, "input")
        table = pq.read_table(inp)
        tracer = Tracer(self.args.run_id)
        metrics = stage_pass(tracer, table, self.workload)
        if FLAGSHIP_KW[self.workload].get("dedup", True):
            metrics.update(self.dedup_layer(tracer, metrics.pop("_extracted")))
        else:
            metrics.pop("_extracted")
            metrics.update({"dedup.rows_in": 0, "dedup.rows_dropped": 0,
                            "dedup.wall_s": 0.0, "dedup.bytes_moved": 0})
        outs, plain, traced, infos = [], [], [], []

        def loop():
            t_end = time.monotonic() + self.args.seconds
            while time.monotonic() < t_end or len(traced) < 2:
                for kind in ("plain", "traced"):
                    outs.append(self.out_dir(kind))
                    t0 = time.monotonic()
                    if kind == "plain":
                        self.job(inp, outs[-1])
                        plain.append(time.monotonic() - t0)
                    else:
                        with tracer.span("job", rows=table.num_rows):
                            infos.append(self.job(inp, outs[-1], tracer))
                        infos[-1]["written"] = checks.written_rows_bytes(outs[-1])
                        traced.append(time.monotonic() - t0)

        res = self.window(loop)
        metrics["host.steal_s"] = res["steal_s"]
        wall = statistics.median(plain)
        metrics["trace.overhead_share"] = 1 - wall / statistics.median(traced)
        metrics.update(self.executor_metrics(tracer, infos, wall))
        res.update(self.check_all(outs, load_golden(self.args.work)), metrics=metrics)
        tracer.write(spans_path)
        return res

    def dedup_layer(self, tracer: Tracer, extracted: pa.Table) -> dict:
        from documentai_ray.stages.dedup import dedup_latest

        ds = self.ray.data.from_arrow(extracted)
        with tracer.span("stages.dedup", rows=extracted.num_rows) as s:
            ds = dedup_latest(ds).materialize()
        # bytes out of the shuffle's map and reduce sides
        moved, stack = 0.0, [ds._get_stats_summary()]
        while stack:
            summary = stack.pop()
            stack += summary.parents
            moved += sum((op.output_size_bytes or {}).get("sum", 0.0)
                         for op in summary.operators_stats if op.is_sub_operator)
        return {"dedup.rows_in": extracted.num_rows,
                "dedup.rows_dropped": extracted.num_rows - ds.count(),
                "dedup.wall_s": s["end"] - s["start"],
                "dedup.bytes_moved": moved}

    def executor_metrics(self, tracer, infos, wall) -> dict:
        busy = sum(tracer.seconds(n) for n in STAGES_TIMED)
        med = statistics.median
        out: dict = {}
        if self.workload != "resume_partitioned":
            per_job = [op_stats(i["summary"]) for i in infos]
            out.update({"partition.detect_heavy_s": 0.0, "partition.heavy_hosts": 0,
                        "manifest.finalize_s": 0.0, "manifest.buckets_skipped": 0,
                        "manifest.rerun_ratio": 0.0, "metrics.write_s": 0.0})
        else:
            # rows in a resume cycle: all rows once, plus the lost half again
            busy *= 1 + self.lost_input_rows / self.input_rows
            per_job = [op_stats(i["runs"][0]["ds"]._write_ds._get_stats_summary())
                       for i in infos]
            jobs = tracer.named("job")

            def per_job_s(name):
                return med(sum(s["end"] - s["start"] for s in tracer.named(name)
                               if j["start"] <= s["start"] <= j["end"]) for j in jobs)

            last = infos[-1]["runs"]
            rerun = op_stats(last[1]["ds"]._write_ds._get_stats_summary())["op.extract.rows_out"]
            out.update({
                "partition.detect_heavy_s": per_job_s("partition.detect_heavy"),
                "partition.heavy_hosts": len(last[0]["heavy"]),
                "manifest.finalize_s": per_job_s("manifest.finalize"),
                "manifest.buckets_skipped": len(last[1]["done"]),
                "manifest.rerun_ratio": rerun / self.lost_input_rows,
                "metrics.write_s": per_job_s("metrics.write"),
            })
        for d, info in zip(per_job, infos):
            d["op.tail.rows_out"], d["op.tail.bytes_out"] = info["written"]
        out.update({k: med(d[k] for d in per_job) for k in per_job[0]})
        out["executor.overhead_share"] = 1 - busy / wall
        return out


STAGES_TIMED = ("stages.extract", "stages.quality", "stages.decision",
                "stages.classify", "stages.entities", "stages.boxes", "stages.rules")


def stage_pass(tracer: Tracer, table: pa.Table, workload: str) -> dict:
    """Each stage's public function over the job's own batches, in one
    process, in flagship order."""
    from documentai_ray.functions import minipdf, pdfread
    from documentai_ray.pipelines.flagship import rules_by_category
    from documentai_ray.stages.classify import classify_batch_task
    from documentai_ray.stages.entities import entities_batch, match_boxes_batch
    from documentai_ray.stages.extract import extract_batch, html_main_content
    from documentai_ray.stages.preprocess import decision_batch
    from documentai_ray.stages.quality import quality_batch
    from documentai_ray.stages.rules import RulesStage

    boxes = FLAGSHIP_KW[workload].get("with_entity_boxes", False)
    batches = [table.slice(i, 1024) for i in range(0, table.num_rows, 1024)]
    payloads = table.column("html").to_pylist()
    m: dict = {}
    with tracer.span("stage_pass", rows=table.num_rows):
        extracted = []
        for b in batches:
            with tracer.span("stages.extract", rows=b.num_rows):
                extracted.append(extract_batch(b))
        ex = pa.concat_tables(extracted)
        m["extract.error_rows"] = sum(1 for e in ex.column("error").to_pylist() if e)
        kb = sum(len(p) for p in payloads) / 1024
        m["extract.us_per_row"] = 1e6 * tracer.seconds("stages.extract") / table.num_rows
        m["extract.us_per_kb"] = 1e6 * tracer.seconds("stages.extract") / kb

        def rate(name, fn, items):
            """µs per kB and MB/s of ``fn`` over ``items`` (payload bytes)."""
            if not items:
                return 0.0, 0.0
            with tracer.span(name, rows=len(items)) as s:
                for it in items:
                    fn(it)
            secs, nbytes = s["end"] - s["start"], sum(len(it) for it in items)
            return 1e6 * secs / (nbytes / 1024), nbytes / 2**20 / secs

        # the codecs alone, over the payloads they decode without error
        ok = [p for p, e in zip(payloads, ex.column("error").to_pylist()) if not e]
        html = [p for p in ok if not (minipdf.is_minipdf(p) or pdfread.is_pdf(p))]
        m["extract.html.us_per_kb"] = rate(
            "codec.html", lambda p: html_main_content(p.decode()), html)[0]
        m["codec.minipdf.mb_per_s"] = rate(
            "codec.minipdf", minipdf.walk, [p for p in ok if minipdf.is_minipdf(p)])[1]
        m["codec.pdfread.mb_per_s"] = rate(
            "codec.pdfread", pdfread.extract_text, [p for p in ok if pdfread.is_pdf(p)])[1]

        classify_batch_task(quality_batch(extracted[0].slice(0, 8)))  # builds warm state
        rules = RulesStage(rules_by_category())
        steps = [("quality", quality_batch), ("decision", decision_batch),
                 ("classify", classify_batch_task), ("entities", entities_batch)]
        if boxes:
            steps.append(("boxes", match_boxes_batch))
        steps.append(("rules", rules))
        for b in extracted:
            if not boxes:
                b = b.drop_columns(["word_boxes"])
            for name, fn in steps:
                with tracer.span(f"stages.{name}", rows=b.num_rows):
                    b = fn(b)
                if name == "boxes":
                    b = b.drop_columns(["word_boxes"])
        for name in ("quality", "decision", "classify", "entities", "boxes", "rules"):
            m[f"{name}.us_per_row"] = 1e6 * tracer.seconds(f"stages.{name}") / table.num_rows
    m["_extracted"] = ex if boxes else ex.drop_columns(["word_boxes"])
    return m


def load_golden(work: str) -> pa.Table:
    return pq.read_table(os.path.join(work, "golden.parquet"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("timed", "trace"), required=True)
    ap.add_argument("--workload", choices=tuple(FLAGSHIP_KW), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--num-cpus", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--spans", default="")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    d = Driver(args)
    try:
        result = {"setup_s": d.setup()}
        if args.mode == "timed":
            result.update(d.timed())
        else:
            result.update(d.trace(args.spans))
    finally:
        import ray

        ray.shutdown()
    tmp = args.result + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
