"""The benchmark's own tests: seeded inputs, output checks against the
program's own stages, lost buckets, session sampling and teardown.

    python3 -m pytest docbench/test_docbench.py -q
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from docbench import checks, corpus, procs  # noqa: E402


@pytest.mark.parametrize("workload", list(corpus.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a, ga = corpus.make_pages(workload, 3, rows=60)
    b, gb = corpus.make_pages(workload, 3, rows=60)
    c, _ = corpus.make_pages(workload, 4, rows=60)
    assert corpus.input_digest(a) == corpus.input_digest(b)
    assert ga.equals(gb)
    assert corpus.input_digest(a) != corpus.input_digest(c)
    assert a.num_rows == c.num_rows == 60


def test_every_workload_has_malformed_rows_and_the_html_mix_a_heavy_host():
    for workload in corpus.WORKLOADS:
        table, golden = corpus.make_pages(workload, 1)
        kinds = golden.column("kind").to_pylist()
        assert any(k in corpus.MALFORMED for k in kinds), workload
        if workload != "pdf_boxes":
            hosts = [u.split("/")[2] for u in table.column("url").to_pylist()]
            assert 0.25 < hosts.count(corpus.HEAVY_HOST) / len(hosts) < 0.45
            assert set(table.column("lang").to_pylist()) == {"en", "de", "fr", "zz"}


@functools.lru_cache(maxsize=None)
def program_output(workload: str) -> tuple[pa.Table, pa.Table]:
    """(output rows, goldens): the program's stages run in this process,
    in flagship order, over the latest captures of a small input."""
    from documentai_ray.pipelines.flagship import rules_by_category
    from documentai_ray.stages.classify import classify_batch_task
    from documentai_ray.stages.entities import entities_batch, match_boxes_batch
    from documentai_ray.stages.extract import extract_batch
    from documentai_ray.stages.preprocess import decision_batch
    from documentai_ray.stages.quality import quality_batch
    from documentai_ray.stages.rules import RulesStage

    table, golden = corpus.make_pages(workload, 5, rows=160)
    latest: dict[str, tuple] = {}
    for i, (url, ts) in enumerate(zip(table.column("url").to_pylist(),
                                      table.column("warc_ts").to_pylist())):
        if url not in latest or ts > latest[url][0]:
            latest[url] = (ts, i)
    b = extract_batch(table.take(sorted(i for _, i in latest.values())))
    boxes = workload == "pdf_boxes"
    if not boxes:
        b = b.drop_columns(["word_boxes"])
    for fn in (quality_batch, decision_batch, classify_batch_task, entities_batch):
        b = fn(b)
    if boxes:
        b = match_boxes_batch(b).drop_columns(["word_boxes"])
    return RulesStage(rules_by_category())(b), golden


def _problems(table, golden, workload="web_html"):
    return checks.check_output(table, golden, checks.OUTPUT_COLUMNS[workload])


@pytest.mark.parametrize("workload", list(corpus.WORKLOADS))
def test_checks_accept_the_programs_output(workload):
    """The goldens are derived from the pages' construction, not from the
    program; the program's stages must agree with them."""
    out, golden = program_output(workload)
    assert golden.num_rows == out.num_rows
    assert _problems(out, golden, workload) == []


def _set(table, name, fn):
    i = table.column_names.index(name)
    return table.set_column(i, name, pa.array(fn(table.column(name).to_pylist()),
                                              table.schema.field(name).type))


def _first(out, golden, kind):
    """Output row of the first url of a page kind."""
    url = golden.column("url")[golden.column("kind").to_pylist().index(kind)].as_py()
    return out.column("url").to_pylist().index(url)


def test_check_catches_one_byte_change():
    out, golden = program_output("web_html")

    def change(texts):
        i = next(i for i, t in enumerate(texts) if t)
        return texts[:i] + [texts[i][:-1] + "X"] + texts[i + 1:]
    assert any("text differs" in p for p in _problems(_set(out, "text", change), golden))


def test_check_catches_missing_and_duplicated_url():
    out, golden = program_output("web_html")
    assert any("missing url" in p for p in _problems(out.slice(1), golden))
    dup = pa.concat_tables([out, out.slice(4, 1)])
    assert any("written 2 times" in p for p in _problems(dup, golden))


def test_check_catches_dropped_column():
    out, golden = program_output("web_html")
    problems = _problems(out.drop_columns(["incoterms"]), golden)
    assert any("missing ['incoterms']" in p for p in problems)


def test_check_catches_wrong_po_number():
    out, golden = program_output("web_html")
    i = _first(out, golden, "po")
    bad = _set(out, "po_number", lambda v: v[:i] + ["PO-1"] + v[i + 1:])
    assert [p for p in _problems(bad, golden) if p.startswith("po_number='PO-1'")]


def test_check_catches_constant_category_and_rule_counts():
    out, golden = program_output("web_html")
    const = _set(out, "category", lambda v: ["purchase_order"] * len(v))
    assert any(p.startswith("category=") for p in _problems(const, golden))
    skipped = _set(out, "rules_failed", lambda v: [0] * len(v))
    assert any(p.startswith("rules_failed=") for p in _problems(skipped, golden))


def test_check_catches_error_row_mixup():
    out, golden = program_output("pdf_boxes")
    assert any(p.startswith("error=") for p in _problems(
        _set(out, "error", lambda v: [""] * len(v)), golden, "pdf_boxes"))


def test_check_catches_missing_or_moved_po_box():
    out, golden = program_output("pdf_boxes")
    for kind in ("minipdf_po", "pdf_po"):
        i = _first(out, golden, kind)
        bad = _set(out, "po_number_x0", lambda v: v[:i] + [None] + v[i + 1:])
        assert any("po_number box" in p for p in _problems(bad, golden, "pdf_boxes"))
    i = _first(out, golden, "minipdf_po")
    moved = _set(out, "po_number_y1", lambda v: v[:i] + [v[i] + 1] + v[i + 1:])
    assert any("po_number box" in p for p in _problems(moved, golden, "pdf_boxes"))


def _golden_table(n=20):
    urls = [f"https://h{i % 3}.example.com/p/{i}" for i in range(n)]
    return pa.table({"url": urls, "text": [f"text number {i}\nline two" for i in range(n)]})


def _bucketed_output(tmp_path):
    table = _golden_table()
    out = str(tmp_path / "out")
    for b in (0, 1):
        part = table.slice(b * 10, 10)
        os.makedirs(os.path.join(out, f"bucket={b}"))
        pq.write_table(part, os.path.join(out, f"bucket={b}", "part-0.parquet"))
        m = checks.recount_bucket(out, b)
        os.makedirs(os.path.join(out, checks.MANIFEST_DIR), exist_ok=True)
        with open(checks.manifest_path(out, b), "w") as f:
            json.dump(m, f)
    return out


def test_manifest_recount_accepts_matching_manifests(tmp_path):
    out = _bucketed_output(tmp_path)
    assert checks.check_manifests(out) == []
    assert checks.read_output(out).num_rows == 20


@pytest.mark.parametrize("key", ["rows", "text_bytes", "digest"])
def test_manifest_recount_catches_off_by_one(tmp_path, key):
    out = _bucketed_output(tmp_path)
    path = checks.manifest_path(out, 1)
    with open(path) as f:
        m = json.load(f)
    m[key] += 1
    with open(path, "w") as f:
        json.dump(m, f)
    problems = checks.check_manifests(out)
    assert len(problems) == 1 and f"bucket 1 manifest {key}" in problems[0]


def test_manifest_recount_catches_bucket_without_manifest(tmp_path):
    out = _bucketed_output(tmp_path)
    os.remove(checks.manifest_path(out, 0))
    assert checks.check_manifests(out) == ["bucket 0 has files but no manifest"]


def test_manifest_digest_matches_program():
    from documentai_ray.state.manifest import row_digest

    for url, text in [("https://a/p/1", "x"), ("https://b/p/2", "ünï\ncode")]:
        assert checks.row_digest(url, text) == row_digest(url, text)


def test_reencoded_size_does_not_depend_on_split(tmp_path):
    table = _golden_table(200)
    one = checks.reencoded_size(table, str(tmp_path / "a.parquet"))
    parts = [table.slice(150), table.slice(0, 70), table.slice(70, 80)]
    split = pa.concat_tables(parts)
    assert checks.reencoded_size(split, str(tmp_path / "b.parquet")) == one


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_lost_buckets_hold_about_half_the_rows(seed):
    """Buckets as the program assigns them (heavy hosts salted) on the
    resume workload's deduplicated urls."""
    from documentai_ray.state.partitioning import bucket_of, host_of

    table, golden = corpus.make_pages("resume_partitioned", seed)
    hosts = [host_of(u) for u in table.column("url").to_pylist()]
    heavy = {h: 8 for h in set(hosts) if hosts.count(h) >= 0.10 * len(hosts)}
    assert heavy, "the resume workload must have a heavy host"
    rows: dict[int, int] = {}
    for url in golden.column("url").to_pylist():
        b = bucket_of(url, 16, heavy)
        rows[b] = rows.get(b, 0) + 1
    lost = checks.choose_lost_buckets(rows, seed)
    share = sum(rows[b] for b in lost) / golden.num_rows
    assert 0.45 <= share <= 0.55, share
    assert lost == checks.choose_lost_buckets(rows, seed)


def test_kill_session_stops_the_whole_session():
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, time; subprocess.Popen(['sleep', '60']); time.sleep(60)"],
        start_new_session=True)
    try:
        deadline = time.monotonic() + 10
        while len(procs.session_pids(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(procs.session_pids(proc.pid)) == 2
        assert procs.kill_session(proc.pid, timeout_s=10) == []
        proc.wait(timeout=10)
        assert procs.session_pids(proc.pid) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_session_sampler_reports_the_window_from_outside():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                            start_new_session=True)
    sampler = procs.SessionSampler(proc.pid, interval_s=0.02)
    try:
        sampler.start()
        t0 = time.monotonic()
        time.sleep(0.3)
        t1 = time.monotonic()
        sampler.stop()
        peak, workers = sampler.window(t0, t1)
        assert peak > 1 << 20 and workers == 0
        assert sampler.window(t1 + 10, t1 + 20) == (0, 0)
    finally:
        proc.kill()
        proc.wait()
