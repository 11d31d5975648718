"""Benchmark workloads: the inputs each job gets and the check of its outputs.

Every job is one ``priorsolve`` command-line invocation.  Its inputs are
written into the job's own directory, so the CLI sees only generated files,
and are named by a key derived from the run's ``--seed``:

``ref-compare``
    every job of a run solves the shipped reference instance; the run seed
    permutes the generator's output coordinates (seed 0 leaves the shipped
    file unchanged).  The solve is the same up to rounding, so the work per
    job does not depend on the seed; other instances of this 2->8 generator
    take from 0.7x to 1.4x the time and would swamp any change measured.
``cs-compare``
    job j of run seed s solves instance ``s * 1000 + j``: generator init
    seeds and problem seed all derive from it.  Instances differ by a few
    percent in iterations, and the median over a run's jobs averages that.
``plateau-sweep``
    every job of a run sweeps problem seeds ``3s, 3s+1, 3s+2``; the sweep
    has no early stop, so its work does not depend on the seed.
"""

import configparser
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "reference.ini"
REFERENCE_GENERATOR = ROOT / "configs" / "reference_generator.json"
REFERENCE_VALUES = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("ref-compare", "cs-compare", "plateau-sweep")

# cs-compare instances per run seed; a run holds far fewer jobs than this
INSTANCES_PER_SEED = 1000

# final dist_w of admm and eadmm on the noiseless compare workloads must be
# below this share of ||w*||; a solver that stops converging stays O(1)
DIST_W_REL_BOUND = 1e-2

# relative tolerance against reference.json; batched or reordered BLAS calls
# change the last bits, and gd's final objective on cs-compare sits close to
# the rounding floor (about 1e-6 relative)
REFERENCE_RTOL = 1e-4

COMPARE_ALGOS = ("gd", "admm", "eadmm")
SWEEP_RHOS = (1.0, 2.0, 4.0, 8.0)
SWEEP_ITERS = 1500
# trace columns every compare trace must carry, finite in every row
REQUIRED_TRACE_COLUMNS = ("t", "objective", "lagrangian", "feas_gap", "dist_w")

CS_CONFIG = """\
[problem]
kind = compressive_sensing
measurement_ratio = 0.5
noise_level = 0.0
seed = {seed}

[generator]
file = generator.json

[algorithm]
rho = 1.0
sigma0 = 1e-4
tau_c = 1e-12
max_iters = 1500
geometry_pairs = 200
stages = 3
stage_iters = 40
step = 0.05
"""


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its inputs live in ``dir``, outputs land there.
    Jobs with equal workload and key get identical inputs."""

    workload: str
    key: int
    dir: Path
    argv: tuple

    @property
    def config(self):
        return self.dir / "config.ini"

    @property
    def generator(self):
        return self.dir / "generator.json"

    @property
    def trace_files(self):
        """CSV files the job writes through write_trace_csv."""
        if self.workload == "plateau-sweep":
            return ()
        return tuple(self.dir / f"{algo}_trace.csv" for algo in COMPARE_ALGOS)

    @property
    def artifacts(self):
        if self.workload == "plateau-sweep":
            return (self.dir / "plateaus.csv",)
        return self.trace_files + (self.dir / "summary.csv",)


def input_key(workload, seed, index):
    """Key of the inputs of job index of a run with the given seed."""
    if workload == "cs-compare":
        return seed * INSTANCES_PER_SEED + index
    return seed


def permuted_generator(seed):
    """The shipped generator JSON with its output coordinates permuted by a
    seed-derived permutation (the identity for seed 0)."""
    doc = json.loads(REFERENCE_GENERATOR.read_text())
    layer = doc["layers"][-1]
    order = list(range(len(layer["weights"])))
    if seed:
        random.Random(seed).shuffle(order)
    layer["weights"] = [layer["weights"][i] for i in order]
    layer["bias_values"] = [layer["bias_values"][i] for i in order]
    return json.dumps(doc, indent=1) + "\n"


def cs_generator_doc(key):
    """20 -> 256 (ELU) -> 784 (tanh), seeded uniform init, no inline weights."""
    return {
        "schema": 1,
        "input_dim": 20,
        "domain_radius": 3.0,
        "layers": [
            {
                "activation": "elu",
                "init": {"kind": "uniform", "rows": 256, "cols": 20,
                         "seed": 2 * key + 1},
            },
            {
                "activation": "tanh",
                "init": {"kind": "uniform", "rows": 784, "cols": 256,
                         "seed": 2 * key + 2},
            },
        ],
    }


def prepare(workload, key, job_dir):
    """Write the inputs named by key into job_dir and return its Job."""
    job_dir = Path(job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    gen_path = job_dir / "generator.json"
    if workload == "ref-compare":
        gen_path.write_text(permuted_generator(key))
        cfg = configparser.ConfigParser(interpolation=None)
        cfg.read(REFERENCE_CONFIG, encoding="utf-8")
        cfg["generator"]["file"] = "generator.json"
        with open(job_dir / "config.ini", "w", encoding="utf-8") as fh:
            cfg.write(fh)
        argv = ("compare", "config.ini", "--out-dir", ".")
    elif workload == "cs-compare":
        gen_path.write_text(json.dumps(cs_generator_doc(key), indent=1) + "\n")
        (job_dir / "config.ini").write_text(CS_CONFIG.format(seed=key))
        argv = ("compare", "config.ini", "--out-dir", ".")
    elif workload == "plateau-sweep":
        gen_path.write_bytes(REFERENCE_GENERATOR.read_bytes())
        argv = ("plateau-sweep", "--generator", "generator.json",
                "--rho-values", ",".join(f"{r:g}" for r in SWEEP_RHOS),
                "--seeds", ",".join(str(3 * key + k) for k in range(3)),
                "--iters", str(SWEEP_ITERS), "--out", "plateaus.csv")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Job(workload=workload, key=key, dir=job_dir, argv=argv)


def setup_code(job):
    """Python source a fresh process runs to measure set-up: import the
    package, parse the config and load the generator and instance."""
    if job.workload == "plateau-sweep":
        return (
            "from priorsolve import load_generator\n"
            f"load_generator({str(job.generator)!r})\n"
        )
    return (
        "from priorsolve import load_problem, parse_config\n"
        f"load_problem(parse_config({str(job.config)!r}, command='compare'))\n"
    )


# ---------------------------------------------------------------------------
# output checks


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _check_trace(path, problems):
    """Rows exist and every cell is finite (blank only outside the required
    columns); returns the last row as a dict, or None."""
    header, rows = _read_csv(path)
    missing = [c for c in REQUIRED_TRACE_COLUMNS if c not in header]
    if missing:
        problems.append(f"{path.name}: missing columns {missing}")
        return None
    if not rows:
        problems.append(f"{path.name}: no rows")
        return None
    for row in rows:
        if len(row) != len(header):
            problems.append(f"{path.name}: ragged row {row!r}")
            return None
        for name, cell in zip(header, row):
            if not _finite(cell) and (cell != "" or name in REQUIRED_TRACE_COLUMNS):
                problems.append(f"{path.name}: non-finite {name}={cell!r}")
                return None
    return dict(zip(header, rows[-1])) | {"rows": len(rows)}


def w_star_norm(job):
    """||w*|| of a compare job's planted instance, from the package itself."""
    from priorsolve import load_problem, parse_config

    _, inst = load_problem(parse_config(str(job.config), command="compare"))
    return math.sqrt(sum(float(x) ** 2 for x in inst.w_star))


def _check_compare(job, problems):
    values = {}
    last = {}
    for algo, path in zip(COMPARE_ALGOS, job.trace_files):
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        row = _check_trace(path, problems)
        if row is not None:
            last[algo] = row
            values[f"{algo}.final_dist_w"] = float(row["dist_w"])
    summary = job.dir / "summary.csv"
    if not summary.is_file():
        problems.append("missing summary.csv")
        return values
    header, rows = _read_csv(summary)
    by_algo = {row[0]: dict(zip(header, row)) for row in rows if row}
    if list(by_algo) != list(COMPARE_ALGOS):
        problems.append(f"summary.csv algos {list(by_algo)}")
        return values
    for algo, row in by_algo.items():
        for key in ("iters", "final_obj", "final_gap"):
            if not _finite(row.get(key, "")):
                problems.append(f"summary.csv: {algo} {key}={row.get(key)!r}")
                continue
            values[f"{algo}.{key}"] = float(row[key])
        if algo in last and values.get(f"{algo}.iters") != last[algo]["rows"]:
            problems.append(f"summary.csv: {algo} iters disagree with its trace")
    bound = DIST_W_REL_BOUND * w_star_norm(job)
    for algo in ("admm", "eadmm"):
        dist = values.get(f"{algo}.final_dist_w")
        if dist is not None and not dist < bound:
            problems.append(f"{algo} final dist_w {dist!r} >= {bound!r}")
    return values


def _check_sweep(job, problems):
    values = {}
    path = job.dir / "plateaus.csv"
    if not path.is_file():
        problems.append("missing plateaus.csv")
        return values
    header, rows = _read_csv(path)
    if header != ["rho", "gap_plateau", "err_plateau"]:
        problems.append(f"plateaus.csv header {header!r}")
        return values
    if not all(len(r) == 3 and all(_finite(c) for c in r) for r in rows):
        problems.append("plateaus.csv: non-finite or ragged rows")
        return values
    rhos = tuple(float(r[0]) for r in rows)
    if rhos != SWEEP_RHOS:
        problems.append(f"plateaus.csv rho values {rhos}")
        return values
    gaps = [float(r[1]) for r in rows]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gap_plateau not strictly decreasing in rho: {gaps}")
    for rho, gap, (_, _, err) in zip(rhos, gaps, rows):
        values[f"gap_plateau@{rho:g}"] = gap
        values[f"err_plateau@{rho:g}"] = float(err)
    return values


def load_reference():
    with open(REFERENCE_VALUES) as fh:
        return json.load(fh)


def check(job, returncode, stderr, reference=None):
    """Problems found in a finished job's outputs (empty when it passed),
    and the values it produced.  reference maps workload -> input key ->
    values; keys it lists must match within REFERENCE_RTOL."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]!r}")
    try:
        if job.workload == "plateau-sweep":
            values = _check_sweep(job, problems)
        else:
            values = _check_compare(job, problems)
    except Exception as exc:  # a broken output or package fails the job only
        problems.append(f"check raised {type(exc).__name__}: {exc}")
        values = {}
    expected = (reference or {}).get(job.workload, {}).get(str(job.key))
    if expected is not None:
        for key, want in expected.items():
            got = values.get(key)
            if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL):
                problems.append(f"{key}={got!r}, reference {want!r}")
    return problems, values
