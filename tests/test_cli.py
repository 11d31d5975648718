"""End-to-end tests for the command-line interface."""

import ast
import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import priorsolve
from priorsolve.cli import main
from priorsolve.generator import Activation, FeedforwardGenerator, Layer
from priorsolve.trace import read_trace_csv

from helpers import REFERENCE_GENERATOR, with_field, write_generator


def write_orthonormal_generator(tmp_path, rows=5, cols=2, name="ortho.json"):
    doc = {
        "schema": 1,
        "input_dim": cols,
        "domain_radius": 3.0,
        "layers": [
            {
                "activation": "identity",
                "bias": False,
                "init": {
                    "kind": "orthonormal",
                    "rows": rows,
                    "cols": cols,
                    "seed": 7,
                    "scale": 1.0,
                },
            }
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE = """\
[problem]
kind = denoise_l2
noise_level = 0.0
seed = 1

[generator]
file = gen.json

[algorithm]
method = admm
rho = 0.5
sigma0 = 0.25
max_iters = 30

[output]
trace_file = {trace}
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_no_subcommand_is_config_error(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: config:") for line in err.splitlines())


def test_run_admm(tmp_path, capsys):
    write_generator(tmp_path)
    trace_path = tmp_path / "t.csv"
    cfg = write_config(tmp_path, BASE.format(trace=trace_path))
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "method=admm" in out and "rows=" in out and "final_gap=" in out
    # 30 iterations are too few for tau_c, so the run ends on its budget
    assert out.endswith(" stop=budget\n")
    trace = read_trace_csv(trace_path)
    assert 1 <= len(trace) <= 30
    # planted instance: distance columns are filled
    assert trace.records[0].dist_w is not None


def test_run_gd(tmp_path, capsys):
    write_generator(tmp_path)
    trace_path = tmp_path / "t.csv"
    text = BASE.format(trace=trace_path).replace("method = admm", "method = gd")
    text = text.replace("rho = 0.5", "step = 0.1")
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "method=gd" in out and out.endswith(" stop=budget\n")
    assert trace_path.exists()


def test_run_eadmm(tmp_path, capsys):
    write_generator(tmp_path)
    trace_path = tmp_path / "t.csv"
    text = BASE.format(trace=trace_path).replace("method = admm", "method = eadmm")
    text = text.replace("max_iters = 30", "stages = 2\nstage_iters = 4")
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(" stop=budget\n")
    trace = read_trace_csv(trace_path)
    assert 1 <= len(trace) <= 4 * (2 + 4)


def test_run_zero_wall(tmp_path):
    write_generator(tmp_path)
    trace_path = tmp_path / "t.csv"
    text = BASE.format(trace=trace_path) + "zero_wall = true\n"
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    trace = read_trace_csv(trace_path)
    assert all(r.wall_ns == 0 for r in trace)


def test_run_summary_file(tmp_path):
    write_generator(tmp_path)
    trace_path = tmp_path / "t.csv"
    summary_path = tmp_path / "s.csv"
    text = BASE.format(trace=trace_path) + f"summary_file = {summary_path}\n"
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    lines = summary_path.read_text().splitlines()
    assert lines[0] == "algo,final_obj,final_gap,iters,wall_ns,eta_hat,plateau"
    assert len(lines) == 2 and lines[1].startswith("admm,")


def test_run_config_error(tmp_path, capsys):
    write_generator(tmp_path)
    text = BASE.format(trace=tmp_path / "t.csv") + "volume = 11\n"
    assert main(["run", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: config:") for line in err.splitlines())


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "error: config:" in capsys.readouterr().err


def test_run_negative_seed_fails_before_the_generator_loads(tmp_path, capsys):
    # no generator file: the seed check must come before the generator loads
    text = BASE.format(trace=tmp_path / "t.csv").replace("seed = 1", "seed = -1")
    assert main(["run", str(write_config(tmp_path, text))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: config: [problem] seed must be nonnegative"
    ]


def test_run_numerical_error(tmp_path, capsys):
    write_generator(tmp_path)
    text = BASE.format(trace=tmp_path / "t.csv").replace(
        "rho = 0.5", "rho = 0.5\nalpha = 1e12"
    )
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: numerical:") for line in err.splitlines())


def test_run_numerical_error_keeps_partial_trace(tmp_path, capsys):
    write_generator(tmp_path)
    trace_path = tmp_path / "t.csv"
    text = BASE.format(trace=trace_path).replace(
        "rho = 0.5", "rho = 0.5\nalpha = 1e12"
    ) + "zero_wall = true\n"
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numerical:")
    iteration = int(err[0].rsplit(" ", 1)[1])
    assert iteration > 1
    trace = read_trace_csv(trace_path)
    assert trace.column("t") == list(range(1, iteration))
    assert all(r.wall_ns == 0 for r in trace)


COMPARE = """\
[problem]
kind = denoise_l2
noise_level = 0.0
seed = 1

[generator]
file = gen.json

[algorithm]
rho = 0.5
sigma0 = 0.25
max_iters = 15
stages = 2
stage_iters = 3
"""


def test_compare_writes_aligned_artifacts(tmp_path, capsys):
    write_generator(tmp_path)
    cfg = write_config(tmp_path, COMPARE)
    out_a = tmp_path / "a"
    assert main(["compare", str(cfg), "--out-dir", str(out_a)]) == 0
    out = capsys.readouterr().out
    for algo, line in zip(("gd", "admm", "eadmm"), out.splitlines(), strict=True):
        assert line.startswith(f"algo={algo} ") and line.endswith(" stop=budget")
        assert (out_a / f"{algo}_trace.csv").exists()
    summary = (out_a / "summary.csv").read_text().splitlines()
    assert summary[0] == "algo,final_obj,final_gap,iters,wall_ns,eta_hat,plateau"
    assert [line.split(",")[0] for line in summary[1:]] == ["gd", "admm", "eadmm"]
    # wall clocks are zeroed so reruns are byte-identical
    out_b = tmp_path / "b"
    assert main(["compare", str(cfg), "--out-dir", str(out_b)]) == 0
    for name in ("gd_trace.csv", "admm_trace.csv", "eadmm_trace.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# a wide 4 x 8 measurement matrix, so every exact w step goes through the
# factorization of A A^T; gd and admm stop on tolerance, eadmm on its budget
COMPARE_CS = """\
[problem]
kind = compressive_sensing
measurement_ratio = 0.5
noise_level = 0.0
seed = 1

[generator]
file = gen.json

[algorithm]
rho = 1.0
sigma0 = 1e-4
max_iters = 1500
geometry_pairs = 200
stages = 2
stage_iters = 40
step = 0.2
"""
# summary.csv rows of COMPARE_CS recorded with the full SVD of A and the
# three-product w step; wall_ns is zeroed
COMPARE_CS_SUMMARY = {
    "gd": (3.013063384232442e-18, 0.0, 549, 0, 0.9372721659380686, 0.0),
    "admm": (1.9559439616422011e-10, 9.909552126838817e-05, 919, 0,
             0.9786330441119961, 0.0),
    "eadmm": (5.096810870145046e-07, 0.0003637114439479172, 240, 0,
              0.9677592987539895, 0.0),
}


def test_compare_pins_a_small_compressive_sensing_run(tmp_path, capsys):
    write_generator(tmp_path)
    cfg, out = write_config(tmp_path, COMPARE_CS), tmp_path / "o"
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    stops = {"gd": "tol", "admm": "tol", "eadmm": "budget"}
    for (algo, row), line in zip(COMPARE_CS_SUMMARY.items(), lines, strict=True):
        assert line.startswith(f"algo={algo} iters={row[2]} ")
        assert line.endswith(f" stop={stops[algo]}")
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "algo,final_obj,final_gap,iters,wall_ns,eta_hat,plateau"
    got = {algo: cells for algo, *cells in (line.split(",") for line in summary[1:])}
    assert list(got) == list(COMPARE_CS_SUMMARY)
    for algo, want in COMPARE_CS_SUMMARY.items():
        assert [int(c) for c in got[algo][2:4]] == list(want[2:4])
        np.testing.assert_allclose(
            [float(c) for c in got[algo]], want, rtol=1e-8, atol=0.0
        )


@pytest.fixture(params=["cores1", "cores2", "cores3", "nofork"])
def process_count(request, monkeypatch):
    """compare as it runs on 1, 2 or 3 usable cores, or where os.fork is
    missing; afterwards no child process may be left."""
    if request.param == "nofork":
        monkeypatch.delattr(os, "fork", raising=False)
    elif not hasattr(os, "fork"):
        pytest.skip("os.fork is missing on this platform")
    else:
        cores = set(range(int(request.param[-1])))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fork_workers(monkeypatch):
    """Give compare two usable cores, so admm runs in a forked worker."""
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is missing on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_compare_numerical_error_keeps_finished_and_partial_traces(
    tmp_path, capsys, process_count
):
    write_generator(tmp_path)
    text = COMPARE.replace("rho = 0.5", "rho = 0.5\nalpha = 1e12")
    cfg, out = write_config(tmp_path, text), tmp_path / "o"
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numerical:")
    iteration = int(err[0].rsplit(" ", 1)[1])
    assert iteration > 1
    # gd does not use alpha and runs its full budget before admm diverges
    assert read_trace_csv(out / "gd_trace.csv").column("t") == list(range(1, 16))
    partial = read_trace_csv(out / "admm_trace.csv")
    assert partial.column("t") == list(range(1, iteration))
    assert all(r.wall_ns == 0 for r in partial)
    assert sorted(p.name for p in out.iterdir()) == ["admm_trace.csv", "gd_trace.csv"]


@pytest.mark.parametrize("failure", ["exit", "raise"])
def test_compare_worker_that_fails_gives_one_error_line(
    tmp_path, capsys, monkeypatch, failure
):
    fork_workers(monkeypatch)
    parent, solve = os.getpid(), priorsolve.cli._solve

    def solve_or_fail(*args):
        if os.getpid() != parent:  # the worker, which solves admm
            if failure == "exit":
                os._exit(3)
            raise ValueError("no admm today")
        return solve(*args)

    monkeypatch.setattr(priorsolve.cli, "_solve", solve_or_fail)
    write_generator(tmp_path)
    cfg, out = write_config(tmp_path, COMPARE), tmp_path / "o"
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    detail = ("ended with exit code 3" if failure == "exit"
              else "failed: ValueError: no admm today")
    assert captured.err.splitlines() == [
        f"error: config: the worker solving admm {detail}"]
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_interrupted_in_the_parent_leaves_no_worker(
    tmp_path, monkeypatch
):
    fork_workers(monkeypatch)
    parent, solve = os.getpid(), priorsolve.cli._solve

    def interrupt_gd(method, *args):
        if os.getpid() == parent and method == "gd":
            raise KeyboardInterrupt
        return solve(method, *args)

    monkeypatch.setattr(priorsolve.cli, "_solve", interrupt_gd)
    write_generator(tmp_path)
    cfg, out = write_config(tmp_path, COMPARE), tmp_path / "o"
    with pytest.raises(KeyboardInterrupt):
        main(["compare", str(cfg), "--out-dir", str(out)])
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_resolves_every_config_before_any_solve(tmp_path, capsys):
    # beta = 1/(rho kappa_hat^2) underflows for admm and eadmm; gd, whose
    # step the config gives, must not run first and leave its trace behind
    text = reference_config([("rho = 0.1", "rho = 1e308")])
    cfg, out = write_config(tmp_path, text), tmp_path / "o"
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: config: rho too large: beta = 1/(rho kappa_hat^2) underflows"]
    assert list(out.iterdir()) == []


def test_compare_and_eadmm_run_on_denoise_linf_are_pinned(tmp_path, capsys):
    # the exact w step of denoise_linf is the prox of its l-inf term at the
    # smooth step: admm and eadmm stop on tolerance, gd spends its budget
    linf = ("kind = denoise_l2", "kind = denoise_linf")
    cfg, out = write_config(tmp_path, reference_config([linf])), tmp_path / "o"
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    want = {"gd": (3000, "budget"), "admm": (984, "tol"), "eadmm": (397, "tol")}
    for (algo, (iters, stop)), line in zip(want.items(), lines, strict=True):
        assert line.startswith(f"algo={algo} iters={iters} ")
        assert line.endswith(f" stop={stop}")
    assert sorted(p.name for p in out.iterdir()) == [
        "admm_trace.csv", "eadmm_trace.csv", "gd_trace.csv", "summary.csv"]
    # run with method = eadmm writes compare's eadmm trace
    trace = tmp_path / "trace.csv"
    text = reference_config([
        linf, ("method = admm", "method = eadmm"), ("max_iters = 3000\n", ""),
        ("= reference_trace.csv", f"= {trace}\nzero_wall = true"),
    ])
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    assert trace.read_bytes() == (out / "eadmm_trace.csv").read_bytes()


# admm on configs/reference.ini as rho passes nu_L = 1, where the suggested
# alpha = 1/(nu_L + rho) keeps the linearized w step stable
ADMM_PAST_NU = {"1": (922, "tol"), "1.5": (1133, "tol"), "2": (1342, "tol"),
                "4": (2158, "tol"), "10": (3000, "budget")}


@pytest.mark.parametrize("rho", sorted(ADMM_PAST_NU, key=float))
def test_reference_admm_converges_for_rho_past_nu(tmp_path, capsys, rho):
    text = reference_config([("rho = 0.1", f"rho = {rho}")])
    cfg, out = write_config(tmp_path, text), tmp_path / "o"
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 0
    iters, stop = ADMM_PAST_NU[rho]
    admm = capsys.readouterr().out.splitlines()[1]
    assert admm.startswith(f"algo=admm iters={iters} ")
    assert admm.endswith(f" stop={stop}")
    if rho == "2":
        trace = tmp_path / "trace.csv"
        text = text.replace("= reference_trace.csv", f"= {trace}")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        assert len(read_trace_csv(trace)) == iters


def test_compare_that_cannot_write_its_summary_prints_nothing(tmp_path, capsys):
    write_generator(tmp_path)
    cfg, out = write_config(tmp_path, COMPARE), tmp_path / "o"
    (out / "summary.csv").mkdir(parents=True)
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")


# sha256 of the shipped reference runs; solver or writer changes that move a
# bit of these artifacts must say so and re-pin them
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_COMPARE_SHA256 = {
    "admm_trace.csv": "c4bd692e554ddfe83739bdfd0e57a838ddaf3aa6f5af9884dc5862476536dfb9",
    "eadmm_trace.csv": "6ae92236cd6a95fb63878ed9125fb4d40277d4bd03c12e23f724d1daf57c3f6b",
    "gd_trace.csv": "21580e250407d54c8c030566fb6c81b3d9209457729af4797dd9332974cf7e1e",
    "summary.csv": "91f9da787b810b12d1bd8bc2c52ad9a5bf418bc1b5b41cfa9b55c9a4523605c6",
}
REFERENCE_SWEEP_SHA256 = (
    "ca958410f411d2726f517dc12169968f860a3d144b63f77f2ada48656192a5d2"
)
# stdout of the other subcommands on the reference generator
REFERENCE_STDOUT_SHA256 = {
    "estimate-geometry":
        "e5228643811c44a6b9a2ac9092aab20c763986bd99588793447cb423aa8c1095",
    "estimate-geometry --pairs 1 --seed 3":
        "5ee751870cc4d72b3e94e34f60065d1bc949527d85ad4854dbcd31da437eae01",
    "tune-gd --steps 0.05,0.1,0.2,0.5":
        "6e2d1e9e49f1eb06f52d12b61ecead460fde59e0edaf7bd52a672fdecda380cb",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_reference_compare_artifacts_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", str(CONFIGS / "reference.ini"), "--out-dir", str(out)]) == 0
    assert {p.name: sha256(p) for p in out.iterdir()} == REFERENCE_COMPARE_SHA256


def test_reference_compare_bytes_do_not_depend_on_the_process_count(
    tmp_path, capsys, process_count
):
    out = tmp_path / "out"
    assert main(["compare", str(CONFIGS / "reference.ini"), "--out-dir", str(out)]) == 0
    assert {p.name: sha256(p) for p in out.iterdir()} == REFERENCE_COMPARE_SHA256
    assert capsys.readouterr().out.splitlines() == REFERENCE_COMPARE_STDOUT


def test_reference_plateau_sweep_artifact_is_pinned(tmp_path, capsys):
    out = tmp_path / "plateaus.csv"
    argv = [
        "plateau-sweep", "--generator", str(CONFIGS / "reference_generator.json"),
        "--rho-values", "1,2,4,8", "--seeds", "0,1,2", "--iters", "1500",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert sha256(out) == REFERENCE_SWEEP_SHA256


@pytest.mark.parametrize("command", sorted(REFERENCE_STDOUT_SHA256))
def test_reference_stdout_is_pinned(capsys, command):
    name, *flags = command.split()
    generator = str(CONFIGS / "reference_generator.json")
    assert main([name, "--generator", generator, *flags]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == REFERENCE_STDOUT_SHA256[command]


@pytest.mark.parametrize("method", ["gd", "admm", "eadmm"])
def test_run_writes_the_pinned_compare_trace(tmp_path, capsys, method):
    # run and compare share one solve-and-write path, so `run` on the
    # reference config writes compare's trace bytes for the same method
    text = (CONFIGS / "reference.ini").read_text()
    edits = [
        ("method = admm", f"method = {method}"),
        ("file = reference_generator.json",
         f"file = {CONFIGS / 'reference_generator.json'}"),
        ("trace_file = reference_trace.csv",
         f"trace_file = {tmp_path / 'trace.csv'}\nzero_wall = true"),
    ]
    if method == "eadmm":  # eadmm derives max_iters from the stage plan
        edits.append(("max_iters = 3000\n", ""))
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    assert sha256(tmp_path / "trace.csv") == REFERENCE_COMPARE_SHA256[
        f"{method}_trace.csv"
    ]


def test_compare_without_step_gives_gd_a_stable_step(tmp_path, capsys):
    # gd's fallback step 1/(nu_L kappa_hat^2) does not depend on rho; the
    # admm beta 1/(rho kappa_hat^2) it replaced made gd diverge at rho = 0.1
    text = (CONFIGS / "reference.ini").read_text()
    edits = [
        ("step = 0.5\n", ""),
        ("file = reference_generator.json",
         f"file = {CONFIGS / 'reference_generator.json'}"),
    ]
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    out = tmp_path / "out"
    assert main(["compare", str(write_config(tmp_path, text)), "--out-dir", str(out)]) == 0
    gd = read_trace_csv(out / "gd_trace.csv")
    assert gd.records[-1].dist_w < 1e-8


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("problem", "noise_level", "nan"),
        ("problem", "noise_level", "inf"),
        ("algorithm", "alpha", "inf"),
        ("algorithm", "sigma0", "inf"),
    ],
)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_non_finite_config_value_is_config_error(
    tmp_path, capsys, command, section, key, value
):
    text = re.sub(rf"(?m)^{key} = .*\n", "", (CONFIGS / "reference.ini").read_text())
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    text = text.replace("= reference_generator", f"= {CONFIGS}/reference_generator")
    out = tmp_path / "out"
    text = text.replace("= reference_trace.csv", f"= {out}/trace.csv")
    argv = [command, str(write_config(tmp_path, text))]
    if command == "compare":
        argv += ["--out-dir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        f"error: config: [{section}] {key} must be finite"
    ]


@pytest.mark.parametrize("text", ["kind = denoise_l2\n", "[problem]\nkind\n"])
def test_malformed_config_file_is_one_error_line(tmp_path, capsys, text):
    # configparser's message spans several lines; the error line joins them
    assert main(["run", str(write_config(tmp_path, text))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config: malformed config file:")
    assert "\t" not in lines[0]


def reference_config(edits):
    """configs/reference.ini with each (old, new) edit applied once and the
    generator path made absolute."""
    text = (CONFIGS / "reference.ini").read_text()
    text = text.replace("= reference_generator", f"= {CONFIGS}/reference_generator")
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


TWO_LAYERS_OF_MISMATCHED_WIDTH = [
    {"activation": "identity", "weights": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
    {"activation": "identity", "weights": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
]


def one_layer(kind, scale, rows):
    """A one-layer stack whose weights are the given rows times scale."""
    return [{"activation": kind, "weights": [[scale * x for x in r] for r in rows]}]


# full rank, but sigma_max = sqrt(3) 1.5e308 overflows
SVD_OVERFLOW = one_layer("identity", 1.5e308, [[1, 0], [0, 1], [1, 1]])
# ||G(z2) - G(z1)||^2 overflows, so every difference quotient is inf
KAPPA_INF = one_layer("identity", 1e200, [[1, 0], [0, 1], [1, 1]])
# on a radius-100 ball the pre-activations overflow to inf on both points of
# a pair, so the ELU outputs differ by inf - inf = nan
KAPPA_NAN = one_layer(
    "elu", 1e306, [[3, 0], [0, 3], [3, 3], [3, -3], [-3, 3], [-3, -3], [1, 2], [2, 1]]
)


@pytest.mark.parametrize(
    "argv, edits, message",
    [
        (["run"], [(f"[generator]\nfile = {CONFIGS}/reference_generator.json\n", "")],
         "missing required section [generator]"),
        (["run"], [("noise_level = 0.0", "noise_level = -0.1")],
         "[problem] noise_level must be nonnegative"),
        (["run"], [("kind = denoise_l2", "kind = compressive_sensing\n"
                    "measurement_ratio = 1.5")],
         "[problem] measurement_ratio must lie in (0, 1]"),
        (["run"], [("step = 0.5", "geometry_pairs = 1")],
         "[algorithm] geometry_pairs must be at least 2"),
        (["run"], [("[output]\n", "[output]\nzero_wall = maybe\n")],
         "[output] zero_wall: cannot parse 'maybe'"),
        (["estimate-geometry"], [(("layers", 0, "weights"), [[1.0, 0.0]] * 5)],
         "cannot load generator: layer 0 needs exactly one of 'init' or 'weights'"),
        (["estimate-geometry"], [(("layers", 0, "init", "rows"), 1)],
         "cannot load generator: layer 0: orthonormal init needs rows >= cols"),
        (["estimate-geometry"], [(("layers", 0, "init", "kind"), "gaussian")],
         "cannot load generator: layer 0: unknown init kind 'gaussian'"),
        (["estimate-geometry"], [(("layers", 0, "bias"), 1)],
         "cannot load generator: layer 0: 'bias' must be a boolean"),
        (["estimate-geometry"], [(("input_dim",), 3)],
         "cannot load generator: declared input_dim 3 does not match layers (2)"),
        (["estimate-geometry"], [(("layers",), TWO_LAYERS_OF_MISMATCHED_WIDTH)],
         "cannot load generator: layer 1 expects input width 2 but layer 0 "
         "produces 3"),
        (["estimate-geometry", "--pairs", "0"], [], "n_pairs must be at least 1"),
        # kappa_hat = 2, so beta = 1/(rho kappa_hat^2) underflows to 0.0
        (["estimate-geometry", "--rho", "1e308"], [(("layers", 0, "init", "scale"), 2.0)],
         "rho too large: beta = 1/(rho kappa_hat^2) underflows"),
        (["run"], [("rho = 0.1", "rho = 1e308")],
         "rho too large: beta = 1/(rho kappa_hat^2) underflows"),
        (["estimate-geometry"], [(("layers",), SVD_OVERFLOW)],
         "cannot load generator: layer 0 weight's largest singular value overflows"),
        (["estimate-geometry"], [(("layers",), KAPPA_INF)],
         "kappa_hat must be positive and finite, got inf"),
        (["estimate-geometry"], [(("layers",), KAPPA_NAN), (("domain_radius",), 100.0)],
         "kappa_hat must be positive and finite, got nan"),
        (["estimate-geometry"], [(("layers", 0, "init", "kind"), "uniform"),
                                 (("layers", 0, "init", "scale"), 9e307)],
         "cannot load generator: layer 0: cannot draw its uniform init: "
         "high - low range exceeds valid bounds"),
        # a 256 PiB weight matrix: numpy refuses it before allocating anything
        (["estimate-geometry"], [(("input_dim",), 2**20),
                                 (("layers", 0, "init", "rows"), 2**35),
                                 (("layers", 0, "init", "cols"), 2**20)],
         "cannot load generator: layer 0: cannot draw its orthonormal init: "
         "Unable to allocate 256. PiB for an array with shape (34359738368, 1048576) "
         "and data type float64"),
        (["estimate-geometry"], [(("layers", 0, "bias_values"), [9.0] * 5)],
         "cannot load generator: unknown key(s) ['bias_values'] in layer 0"),
        (["estimate-geometry"], [(("layers",), [{"activation": "identity", "bias": False,
                                                "weights": [[1, 0], [0, 1], [1, 1]]}])],
         "cannot load generator: unknown key(s) ['bias'] in layer 0"),
        # a 32 PiB geometry sample: numpy refuses it before allocating anything
        (["estimate-geometry", "--pairs", str(2**50)], [],
         f"cannot draw {2**50} geometry pairs: Unable to allocate 32.0 PiB for "
         f"an array with shape ({2**50}, 2, 2) and data type float64"),
        (["run"], [("rho = 0.1", f"rho = 0.1\ngeometry_pairs = {2**50}")],
         f"cannot draw {2**50} geometry pairs: Unable to allocate 32.0 PiB for "
         f"an array with shape ({2**50}, 2, 2) and data type float64"),
    ],
)
def test_input_check_fails_with_one_line(tmp_path, capsys, argv, edits, message):
    # run edits the reference config's text, estimate-geometry the fields of
    # an orthonormal generator's JSON document
    if argv[0] == "run":
        argv = [*argv, str(write_config(tmp_path, reference_config(edits)))]
    else:
        doc = json.loads(write_orthonormal_generator(tmp_path).read_text())
        for field, value in edits:
            doc = with_field(doc, field, value)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--generator", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: config: {message}"]


def test_compare_with_every_step_given_estimates_no_geometry(
    tmp_path, capsys, monkeypatch
):
    def no_estimate(*args, **kwargs):
        raise AssertionError("geometry estimated although every step is given")

    monkeypatch.setattr(priorsolve.config, "estimate_geometry", no_estimate)
    write_generator(tmp_path)
    text = COMPARE + "alpha = 0.5\nbeta = 0.5\nstep = 0.1\n"
    argv = ["compare", str(write_config(tmp_path, text)), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_run_too_short_to_fit_a_rate_leaves_the_fit_blank(tmp_path, capsys):
    write_generator(tmp_path)
    summary_path = tmp_path / "s.csv"
    text = BASE.format(trace=tmp_path / "t.csv") + f"summary_file = {summary_path}\n"
    text = text.replace("max_iters = 30", "max_iters = 1")
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    row = summary_path.read_text().splitlines()[1].split(",")
    assert row[0] == "admm" and row[3] == "1"
    assert row[5:] == ["", ""]  # eta_hat, plateau


def test_compare_shares_planted_instance(tmp_path):
    write_generator(tmp_path)
    cfg = write_config(tmp_path, COMPARE)
    out = tmp_path / "o"
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 0
    first_dist = {
        algo: read_trace_csv(out / f"{algo}_trace.csv").records[0].dist_z
        for algo in ("gd", "admm", "eadmm")
    }
    # same planted point and same start, so the first z-distance agrees
    assert first_dist["gd"] is not None
    assert first_dist["admm"] == first_dist["eadmm"]


def test_estimate_geometry(tmp_path, capsys):
    path = write_orthonormal_generator(tmp_path)
    rc = main(
        ["estimate-geometry", "--generator", str(path), "--pairs", "400", "--rho", "2.0"]
    )
    assert rc == 0
    values = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, val = line.partition("=")
        values[key] = val
    assert abs(float(values["iota_hat"]) - 1.0) < 1e-9
    assert abs(float(values["kappa_hat"]) - 1.0) < 1e-9
    assert float(values["nu_g_hat"]) < 1e-9
    assert values["n_pairs"] == "400"
    assert float(values["suggested_alpha"]) == 1.0 / 3.0  # rho = 2 >= nu = 1
    assert abs(float(values["suggested_beta"]) - 0.5) < 1e-6


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rho", "0"),
        ("--rho", "-1"),
        ("--rho", "nan"),
        ("--rho", "inf"),
        ("--nu-loss", "0"),
        ("--nu-loss", "-1"),
        ("--nu-loss", "nan"),
        ("--nu-loss", "inf"),
        ("--rho", "abc"),
        ("--nu-loss", "abc"),
    ],
)
def test_estimate_geometry_rejects_bad_step_flags(tmp_path, capsys, flag, value):
    path = write_orthonormal_generator(tmp_path)
    argv = ["estimate-geometry", "--generator", str(path), "--pairs", "50"]
    assert main([*argv, f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")
    assert "invalid _" not in lines[0]  # no private type name


def test_estimate_geometry_on_a_ball_too_small_for_any_pair(tmp_path, capsys):
    # every pair in a ball of diameter 2e-13 is degenerate, so drawing pairs
    # would never end; the estimate refuses before the first draw
    layer = Layer(np.eye(3, 2), np.zeros(3), Activation("identity"))
    gen = FeedforwardGenerator([layer], domain_radius=1e-13)
    _, path = write_generator(tmp_path, gen, name="tiny.json")
    assert main(["estimate-geometry", "--generator", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: config: domain_radius 1e-13 holds no non-degenerate pair"
    ]


def test_estimate_geometry_on_a_ball_that_rarely_yields_a_pair(tmp_path, capsys):
    # non-degenerate pairs exist in a ball of diameter 1.00002e-12 but are
    # almost never drawn; the estimate gives up instead of spinning
    layer = Layer(np.eye(3, 2), np.zeros(3), Activation("identity"))
    gen = FeedforwardGenerator([layer], domain_radius=5.0001e-13)
    _, path = write_generator(tmp_path, gen, name="tiny.json")
    assert main(["estimate-geometry", "--generator", str(path), "--pairs", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config: domain_radius 5.0001e-13 gave ")


def test_estimate_geometry_missing_file(tmp_path, capsys):
    rc = main(["estimate-geometry", "--generator", str(tmp_path / "no.json")])
    assert rc == 1
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        (("layers",), 5),
        (("layers", 0), 5),
        (("layers", 0, "elu_alpha"), None),
        (("layers", 0, "elu_alpha"), "2"),
        (("input_dim",), None),
        (("layers", 0, "bias_values", 0), math.nan),
        (("layers", 0, "weights", 0, 0), math.inf),
    ],
)
def test_estimate_geometry_on_a_malformed_generator_file(
    tmp_path, capsys, field, value
):
    # wrong-typed and non-finite (NaN, Infinity) JSON values in the reference
    # description each give one config line, not a traceback or a misleading
    # geometry error
    doc = with_field(json.loads(REFERENCE_GENERATOR.read_text()), field, value)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate-geometry", "--generator", str(path), "--pairs", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config: cannot load generator:")


def test_plateau_sweep(tmp_path, capsys):
    _, gen_path = write_generator(tmp_path, sizes=(2, 6), kinds=("elu",), scale=0.8)
    out_csv = tmp_path / "sweep.csv"
    rc = main(
        [
            "plateau-sweep",
            "--generator",
            str(gen_path),
            "--rho-values",
            "1,4",
            "--seeds",
            "0",
            "--noise",
            "0.1",
            "--iters",
            "200",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "rho,gap_plateau,err_plateau"
    assert len(lines) == 3
    stdout = capsys.readouterr().out
    assert "rho=1" in stdout and "rho=4" in stdout


def test_plateau_sweep_that_cannot_write_its_csv_prints_nothing(tmp_path, capsys):
    _, gen_path = write_generator(tmp_path, sizes=(2, 6), kinds=("elu",), scale=0.8)
    out_csv = tmp_path / "missing_dir" / "p.csv"
    argv = ["--rho-values", "1,4", "--iters", "200", "--out", str(out_csv)]
    assert main(["plateau-sweep", "--generator", str(gen_path), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")


def test_plateau_sweep_single_rho(tmp_path, capsys):
    _, gen_path = write_generator(tmp_path)
    rc = main(["plateau-sweep", "--generator", str(gen_path), "--rho-values", "1"])
    assert rc == 1
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--rho-values=1,2", "--iters", "0"],
        ["--rho-values=0,1"],
        ["--rho-values=1,2", "--sigma0", "inf"],
        ["--rho-values=1,x"],
        ["--rho-values=1,2", "--seeds", "0,x"],
    ],
)
def test_plateau_sweep_rejects_bad_input_with_one_line(tmp_path, capsys, extra):
    _, gen_path = write_generator(tmp_path)
    rc = main(["plateau-sweep", "--generator", str(gen_path), *extra])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")
    assert "invalid _" not in lines[0]  # no private type name


def test_tune_gd(tmp_path, capsys):
    _, gen_path = write_generator(tmp_path)
    rc = main(
        [
            "tune-gd",
            "--generator",
            str(gen_path),
            "--steps",
            "0.05,0.2",
            "--budget",
            "40",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("step=") >= 2
    assert "best_step=" in out


def test_tune_gd_rejects_infinite_step_with_one_line(tmp_path, capsys):
    _, gen_path = write_generator(tmp_path)
    rc = main(["tune-gd", "--generator", str(gen_path), "--steps", "0.05,inf"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["estimate-geometry", "--pairs", "50"], "--seed", "-3"),
        (["tune-gd", "--steps", "0.05"], "--seed", "-1"),
        (["tune-gd", "--steps", "0.05"], "--start-seed", "-2"),
        (["plateau-sweep", "--rho-values", "1,2"], "--seeds", "0,-4"),
    ],
)
def test_seed_flags_name_a_negative_seed(tmp_path, capsys, argv, flag, value):
    # numpy's own error for a negative seed names neither the flag nor the value
    _, gen_path = write_generator(tmp_path)
    command, *rest = argv
    assert main([command, "--generator", str(gen_path), *rest, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    negative = value.rsplit(",", 1)[-1]
    assert captured.err.splitlines() == [
        f"error: config: argument {flag}: seed {negative!r} is negative"
    ]


# stdout of `compare configs/reference.ini`
REFERENCE_COMPARE_STDOUT = [
    "algo=gd iters=870 final_obj=1.3803504057329893e-17 final_gap=0.0 stop=tol",
    "algo=admm iters=978 final_obj=2.241536556165998e-13 "
    "final_gap=0.0004564446178052023 stop=tol",
    "algo=eadmm iters=768 final_obj=4.548819886545545e-12 "
    "final_gap=5.6274065061250235e-05 stop=tol",
]


@pytest.mark.parametrize("case", ["compare", "malformed-config", "diverging-run"])
def test_module_entry_point(tmp_path, case):
    # `python -m priorsolve` exits through priorsolve.__main__.entry, which
    # freezes the heap once main() returns; the process must still keep
    # main()'s exit code and flush every file and stream it wrote
    out = tmp_path / "out"
    if case == "compare":
        argv, code = ["compare", str(CONFIGS / "reference.ini"), "--out-dir", str(out)], 0
    elif case == "malformed-config":
        argv, code = ["run", str(write_config(tmp_path, "kind = denoise_l2\n"))], 1
    else:
        write_generator(tmp_path)
        text = BASE.format(trace=out).replace("rho = 0.5", "rho = 0.5\nalpha = 1e12")
        argv, code = ["run", str(write_config(tmp_path, text + "zero_wall = true\n"))], 2
    proc = subprocess.run(
        [sys.executable, "-m", "priorsolve", *argv],
        capture_output=True,
        text=True,
        # the directory that holds the imported package, so the child finds
        # it without PYTHONPATH (pytest's pythonpath setting reaches only
        # this process)
        cwd=Path(priorsolve.__file__).parent.parent,
        # block-buffered stdout, as a user's pipe gets it, so an exit that
        # skips the flush loses the output
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    assert proc.returncode == code
    if case == "compare":
        assert proc.stdout.splitlines() == REFERENCE_COMPARE_STDOUT
        assert proc.stderr == ""
        assert {p.name: sha256(p) for p in out.iterdir()} == REFERENCE_COMPARE_SHA256
        return
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    category = "config" if code == 1 else "numerical"
    assert len(err) == 1 and err[0].startswith(f"error: {category}:")
    if case == "diverging-run":
        iteration = int(err[0].rsplit(" ", 1)[1])
        assert iteration > 1
        assert read_trace_csv(out).column("t") == list(range(1, iteration))


def test_main_called_from_python_leaves_the_heap_unfrozen(tmp_path, capsys):
    # only the process entry freezes: a host process that imports priorsolve,
    # such as a test runner or a notebook, keeps its garbage collection
    path = write_orthonormal_generator(tmp_path)
    assert main(["estimate-geometry", "--generator", str(path), "--pairs", "50"]) == 0
    assert gc.get_freeze_count() == 0


def test_console_script_runs_the_module_entry():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((CONFIGS.parent / "pyproject.toml").read_text())
    module, _, name = project["project"]["scripts"]["priorsolve"].partition(":")
    # `python -m priorsolve` runs the module priorsolve.__main__ as __main__
    assert module == "priorsolve.__main__"
    source = Path(importlib.import_module(module).__file__).read_text()
    (guard,) = [node for node in ast.parse(source).body if isinstance(node, ast.If)]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == [f"sys.exit({name}())"]
