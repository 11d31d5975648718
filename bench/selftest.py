"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest -q bench/selftest.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# an input key with no recorded reference values
UNRECORDED = 10**6


@pytest.fixture(scope="module")
def ref_job(tmp_path_factory):
    """ref-compare on the shipped files (key 0), run once untraced."""
    job = workloads.prepare("ref-compare", 0, tmp_path_factory.mktemp("ref"))
    done = run.run_job(job, run.child_env())
    return job, done


def _rewrite(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _set_cell(path, column, value, row=-1):
    def edit(lines):
        header = lines[0].rstrip("\r\n").split(",")
        cells = lines[row].rstrip("\r\n").split(",")
        cells[header.index(column)] = value
        lines[row] = ",".join(cells) + "\r\n"
        return lines
    _rewrite(path, edit)


def test_untampered_job_passes(ref_job):
    job, done = ref_job
    problems, values = workloads.check(
        job, done.returncode, done.stderr, workloads.load_reference()
    )
    assert problems == []
    assert values["admm.iters"] > 0


@pytest.mark.parametrize("tamper, expect", [
    (lambda d: _set_cell(d / "admm_trace.csv", "feas_gap", "nan"), "non-finite"),
    (lambda d: _set_cell(d / "eadmm_trace.csv", "dist_w", "0.5"), "dist_w"),
    (lambda d: _rewrite(d / "gd_trace.csv", lambda lines: lines[:1]), "no rows"),
    (lambda d: _set_cell(d / "summary.csv", "final_gap", "0.0004564"), "reference"),
    (lambda d: (d / "summary.csv").unlink(), "missing summary.csv"),
])
def test_checker_rejects_tampered_compare(ref_job, tmp_path, tamper, expect):
    job, done = ref_job
    copy = workloads.Job(job.workload, job.key, tmp_path / "job", job.argv)
    shutil.copytree(job.dir, copy.dir)
    tamper(copy.dir)
    problems, _ = workloads.check(
        copy, done.returncode, done.stderr, workloads.load_reference()
    )
    assert any(expect in p for p in problems), problems


def test_checker_rejects_failed_process(ref_job):
    job, _ = ref_job
    problems, _ = workloads.check(job, 2, "error: numerical: boom\n")
    assert any("exit code 2" in p for p in problems)
    assert any("stderr" in p for p in problems)


@pytest.mark.parametrize("gaps, ok", [
    ((0.09, 0.05, 0.03, 0.015), True),
    ((0.09, 0.05, 0.05, 0.015), False),
    ((0.09, 0.05, 0.03, float("inf")), False),
])
def test_checker_sweep_monotone_and_finite(tmp_path, gaps, ok):
    job = workloads.prepare("plateau-sweep", UNRECORDED, tmp_path)
    rows = ["rho,gap_plateau,err_plateau"]
    rows += [f"{rho!r},{gap!r},0.1" for rho, gap in zip(workloads.SWEEP_RHOS, gaps)]
    (tmp_path / "plateaus.csv").write_text("\r\n".join(rows) + "\r\n")
    problems, _ = workloads.check(job, 0, "")
    assert (problems == []) == ok, problems


def _hashes(job):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in job.artifacts}


def test_traced_job_writes_identical_artifacts(ref_job, tmp_path):
    job, done = ref_job
    traced = workloads.Job(job.workload, job.key, tmp_path / "job", job.argv)
    shutil.copytree(job.dir, traced.dir)
    for path in traced.artifacts:
        path.unlink()
    spans = tmp_path / "spans.npz"
    done_traced = run.run_job(traced, run.child_env(), spans=spans)
    assert done_traced.returncode == 0 and done_traced.stderr == ""
    assert _hashes(traced) == _hashes(job)
    metrics = layers.job_layers(layers.Spans(spans), traced, done_traced.wall_s)
    assert metrics["generator.geometry_calls"] >= 1
    assert metrics["admm.iters"] > 0 and metrics["gd.iters"] > 0
    assert 0.5 < metrics["bench.accounted_frac"] <= 1.0


def test_tracer_restores_originals():
    import priorsolve
    import priorsolve.cli
    from priorsolve.generator import FeedforwardGenerator

    before = (priorsolve.cli.run, priorsolve.run, FeedforwardGenerator.forward)
    t = tracer.Tracer()
    t.install()
    assert t.missing == []
    try:
        assert priorsolve.cli.run is not before[0]
        assert priorsolve.run is priorsolve.cli.run
    finally:
        t.restore()
    assert (priorsolve.cli.run, priorsolve.run, FeedforwardGenerator.forward) == before


def test_self_time_subtracts_children(tmp_path):
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(10000)))
    t.call("outer", lambda: [inner() for _ in range(3)])
    assert [t.names[i] for i in t.name_id] == ["outer", "inner", "inner", "inner"]
    assert t.parent == [-1, 0, 0, 0]
    t.save(tmp_path / "spans.npz", import_ns=0)
    spans = layers.Spans(tmp_path / "spans.npz")
    assert spans.calls("inner") == 3
    assert spans.self_total("outer") == pytest.approx(
        spans.total("outer") - spans.total("inner"), abs=1e-12
    )
    assert spans.self_total("inner") == spans.total("inner")


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "ref-compare",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _names_units(spec[key])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref-compare", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
