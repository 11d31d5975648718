"""End-to-end benchmark of the priorsolve command line.

    python3 bench/run.py --workload ref-compare --seed 0 --seconds 35 --trace 0

Runs one workload (see workloads.py and README.md) as a single-client closed
loop: one CLI job at a time, each a fresh ``python -m priorsolve`` process,
for ``--seconds`` seconds.  Before each job, a fixed calibration process
measures the machine's current speed (see CALIBRATION), and a fresh process
does that job's set-up alone (import, config, generator and instance) for
``setup_s``.  Every job's outputs are checked.  The last line
of standard output is one JSON object with the keys correct / attempted /
failed / metrics; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from jobs run under tracer.py,
alternated with untraced jobs on the same inputs.

Run it from the root of a checkout; it reads and writes only inside it.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = (
    ("job_s", "s"),
    ("job_s_tail", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)

# A fixed benchmark-owned process runs before every job.  A shared 2-core
# Xeon VM drifts in speed by 20-30% over tens of seconds as neighbours load
# the host, and raw job medians of 30-second runs spread by 24-31%.  Jobs
# and a calibration that runs the same kind of code slow together, so each
# job's times are scaled by CALIBRATION_REF_S / its calibration's wall time.
# Interpreter-bound small-array work (the 2->8 workloads) and BLAS-bound
# matvecs (cs-compare) slow differently, so each workload has the matching
# calibration; a mismatched one nearly doubled the spread on cs-compare.
# Times are thus in seconds of a machine on which the calibration takes
# CALIBRATION_REF_S.
SMALL_ARRAY_CALIBRATION = """\
import numpy as np
w = np.random.default_rng(0).standard_normal((8, 2))
z = np.zeros(2)
b = np.zeros(8)
s = 0.0
for i in range(12000):
    a = w @ z + b
    g = np.where(a > 0.0, a, np.expm1(np.minimum(a, 0.0)))
    z = z - 1e-3 * (w.T @ g)
    s += float(np.linalg.norm(g))
"""
MATVEC_CALIBRATION = """\
import numpy as np
a = np.random.default_rng(0).standard_normal((784, 256))
x = np.ones(256)
s = 0.0
for i in range(150000):
    s += i * 0.5
for i in range(1500):
    x = np.tanh(a.T @ (a @ x) * 1e-3)
"""
CALIBRATION = {
    "ref-compare": SMALL_ARRAY_CALIBRATION,
    "cs-compare": MATVEC_CALIBRATION,
    "plateau-sweep": SMALL_ARRAY_CALIBRATION,
}
CALIBRATION_REF_S = 0.3

# the tail is the job time with this many jobs beyond it
TAIL_BEYOND = 10
# a trace-mode run attempts at least this many traced/untraced pairs
MIN_PAIRS = 3
JOB_TIMEOUT_S = 120.0

# BLAS pinned to one thread: cs-compare artifacts differ in the last bits
# between 1 and 2 threads, and 2 threads gave rare 1.5x outliers.  One
# solver process per job, as users run it by default.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PRIORSOLVE_WORKERS": "1",
}
# unset for children: users run with bytecode caches and buffered output
CHILD_ENV_UNSET = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


@dataclass
class Finished:
    """One child process: wall time from spawn to exit, CPU, peak memory."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    for name in CHILD_ENV_UNSET:
        env.pop(name, None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def spawn(argv, cwd, env):
    """Run argv to completion; stdout and stderr go to files in cwd."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        stderr=(cwd / "stderr.txt").read_text(errors="replace"),
    )


def run_job(job, env, spans=None):
    if spans is None:
        argv = [sys.executable, "-m", "priorsolve", *job.argv]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *job.argv]
    return spawn(argv, job.dir, env)


def artifact_hashes(job):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in job.artifacts if p.is_file()
    }


def environment():
    """Python, numpy, BLAS, core count and CPU model of this machine."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **CHILD_ENV,
    }


def tail(values):
    """The highest value with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


class Run:
    """State of one benchmark run: its jobs, their checks and timings."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.env = child_env()
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0
        self.next_index = 0
        self.first_hashes = None

    def job(self, index=None):
        if index is None:
            index, self.next_index = self.next_index, self.next_index + 1
        key = workloads.input_key(self.workload, self.seed, index)
        return workloads.prepare(self.workload, key, self.work_dir / str(index))

    def checked(self, job, done, count=True):
        """Check a finished job; True when it passed."""
        problems, _ = workloads.check(job, done.returncode, done.stderr, self.reference)
        if count:
            self.attempted += 1
            self.failed += bool(problems)
        if self.first_hashes is None:
            self.first_hashes = artifact_hashes(job)
        for problem in problems:
            print(f"FAIL input {job.key}: {problem}")
        return not problems

    def python_s(self, code, job):
        """Wall time of a fresh process running code in the job's directory;
        the calibration and set-up processes must not fail."""
        done = spawn([sys.executable, "-c", code], job.dir, self.env)
        if done.returncode != 0 or done.stderr:
            raise RuntimeError(f"helper process failed: {done.stderr.strip()[-300:]}")
        return done.wall_s

    def end_to_end(self, seconds):
        warm = self.job(0)
        self.checked(warm, run_job(warm, self.env), count=False)
        shutil.rmtree(warm.dir)
        jobs, setups, scales = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or self.attempted <= TAIL_BEYOND:
            job = self.job()
            calibration = self.python_s(CALIBRATION[self.workload], job)
            scale = CALIBRATION_REF_S / calibration
            setups.append(self.python_s(workloads.setup_code(job), job) * scale)
            done = run_job(job, self.env)
            if self.checked(job, done):
                jobs.append(done)
                scales.append(scale)
            shutil.rmtree(job.dir)
        if not jobs:
            raise RuntimeError("no job passed its output checks")
        walls = [j.wall_s * k for j, k in zip(jobs, scales)]
        print(f"jobs: {self.attempted} attempted, {len(jobs)} passed; tail is "
              f"rank {len(walls) - TAIL_BEYOND} of {len(walls)} "
              f"(p{100.0 * (len(walls) - TAIL_BEYOND) / len(walls):.1f})")
        print(f"unscaled medians: job {statistics.median(j.wall_s for j in jobs):.4f} s, "
              f"calibration {CALIBRATION_REF_S / statistics.median(scales):.4f} s")
        return {
            "job_s": statistics.median(walls),
            "job_s_tail": tail(walls),
            "cpu_s": statistics.median(j.cpu_s * k for j, k in zip(jobs, scales)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
            "pass_frac": len(jobs) / self.attempted,
        }

    def per_layer(self, seconds):
        warm = self.job(0)
        self.checked(warm, run_job(warm, self.env), count=False)
        shutil.rmtree(warm.dir)
        plain, traced, per_job = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or self.attempted < 2 * MIN_PAIRS:
            job = self.job()
            done = run_job(job, self.env)
            ok = self.checked(job, done)
            hashes = artifact_hashes(job)
            for path in job.artifacts:
                path.unlink(missing_ok=True)
            spans = job.dir / "spans.npz"
            done_traced = run_job(job, self.env, spans=spans)
            ok_traced = self.checked(job, done_traced)
            if ok_traced and artifact_hashes(job) != hashes:
                print(f"FAIL input {job.key}: traced artifacts differ")
                self.failed += 1
                ok_traced = False
            if ok and ok_traced:
                plain.append(done.wall_s)
                traced.append(done_traced.wall_s)
                recorded = layers.Spans(spans)
                per_job.append(layers.job_layers(recorded, job, done_traced.wall_s))
            shutil.rmtree(job.dir)
        print(f"jobs: {self.attempted} attempted ({len(per_job)} traced/untraced "
              f"pairs passed)")
        if not per_job:
            raise RuntimeError("no traced/untraced pair passed its output checks")
        if recorded.missing:
            print(f"untraced, missing from the package: {recorded.missing}")
        metrics = {
            name: statistics.median(m[name] for m in per_job)
            for name in per_job[0]
        }
        # pairs run back to back, so their ratio cancels the machine's drift
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        )
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    needed = (SRC / "priorsolve" / "__init__.py", workloads.REFERENCE_CONFIG,
              workloads.REFERENCE_GENERATOR)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a priorsolve checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("environment: " + json.dumps(environment(), sort_keys=True))
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    run = Run(args.workload, args.seed, work_dir)
    try:
        if args.trace:
            metrics = run.per_layer(args.seconds)
            units = dict(layers.PER_LAYER)
        else:
            metrics = run.end_to_end(args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    print("artifact sha256 (first job, informational): "
          + json.dumps(run.first_hashes, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
