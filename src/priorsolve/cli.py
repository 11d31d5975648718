"""Command-line driver.

Subcommands:

``run CONFIG``
    Solve one configured instance and write the trace / summary files named
    in the config's [output] section.  Prints a one-line result whose
    stop=tol or stop=budget says how the run ended.
``compare CONFIG [--out-dir DIR]``
    Run the gradient baseline and both splitting variants on the same
    planted instance from one start.  Writes gd_trace.csv, admm_trace.csv,
    eadmm_trace.csv and summary.csv into the output directory with wall
    clocks zeroed, so repeated invocations are byte-identical.  Prints one
    result line per solver, ending in stop= as run's does.  The three solves
    run in up to one process per core this process may use (one where
    os.fork is missing); the files, the output and the exit code do not
    depend on that count.
``estimate-geometry --generator FILE``
    Print the sampled geometry constants and the step sizes they suggest as
    key=value lines.
``plateau-sweep --generator FILE --rho-values R1,R2,...``
    Sweep the penalty weight on noisy denoising instances and report where
    the feasibility gap and recovery error level off.
``tune-gd --generator FILE --steps S1,S2,...``
    Grid-search the baseline step size on a planted instance.

Exit codes: 0 success, 1 configuration problem, 2 numerical failure.  Every
failure emits a single machine-readable line ``error: <category>: <detail>``
on standard error; floating-point traps during a diverging run surface
through the exit-2 path rather than as warnings.  A ``run`` that fails
numerically still writes the rows it completed to its trace file.  A
``compare`` that does keeps the traces of the solvers before the failing one,
in gd, admm, eadmm order, writes the rows the failing one completed, and
writes no summary.  A ``compare`` worker process that raises or ends
without sending its results fails with exit code 1.  The trace module writes
every CSV artifact and formats every float printed; this module opens no file.

The console script and ``python -m priorsolve`` run :func:`main` through
``priorsolve.__main__.entry``, which freezes the heap after it returns;
:func:`main` called from Python does not freeze.
"""

import argparse
import math
import os
import pickle
import signal
import sys

import numpy as np

from .admm import NonFiniteError, initial_state, run, suggest_step_sizes
from .config import (
    METHODS,
    ConfigError,
    load_problem,
    open_generator,
    parse_config,
    solver_settings,
    step_geometry,
)
from .gd import run_gd, tune_gd_step
from .generator import estimate_geometry
from .harness import DegenerateTrace, best_lagrangian, build_instance, fit_rate
from .harness import plateau_vs_rho
from .trace import _format, write_summary_csv, write_trace_csv

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the config-error path."""

    def error(self, message):
        raise _UsageError(message)


def _finite_float(raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a finite number")
    return value


def _float_list(raw):
    return tuple(_finite_float(x) for x in raw.split(","))


def _seed(raw):
    """argparse type of a seed: numpy's error for a negative one names no flag."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed {raw!r} is negative")
    return value


def _seed_list(raw):
    parts = raw.split(",")
    try:
        [int(x) for x in parts]  # an unparsable part gets the list message
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a comma-separated list of integers"
        ) from None
    return tuple(map(_seed, parts))


def _summary_row(algo, trace, wall_ns):
    last = trace.records[-1]
    try:
        fit = fit_rate(trace, best_lagrangian(trace))
        eta_hat, plateau = fit.eta_hat, fit.plateau
    except (DegenerateTrace, ValueError):
        eta_hat, plateau = None, None
    return {
        "algo": algo,
        "final_obj": last.objective,
        "final_gap": last.feas_gap,
        "iters": len(trace),
        "wall_ns": wall_ns,
        "eta_hat": eta_hat,
        "plateau": plateau,
    }


def _print_result(algo, trace):
    last = trace.records[-1]
    print(
        f"method={algo} rows={len(trace)} "
        f"final_obj={_format(last.objective)} final_gap={_format(last.feas_gap)} "
        f"stop={trace.stop_reason}"
    )


def _solve(method, cfg, gen, inst):
    """Run one method from z = 0 under its resolved solver config and return
    its trace.  A NonFiniteError carries the rows the run completed."""
    z0 = np.zeros(gen.input_dim)
    if method == "gd":
        return run_gd(inst.problem.loss, gen, cfg, z0, planted=inst.planted)[1]
    state = initial_state(inst.problem, cfg, z0)
    return run(inst.problem, cfg, state, planted=inst.planted)[1]


def _solve_each(cfgs, gen, inst):
    """{method: (trace, None)} for each method of cfgs, {method: config}, in
    order until the first that fails numerically.  That one gets (its partial
    trace, (quantity, iteration)), and no later method runs."""
    outcomes = {}
    for method, cfg in cfgs.items():
        try:
            outcomes[method] = _solve(method, cfg, gen, inst), None
        except NonFiniteError as exc:  # the run loop attached the rows it completed
            outcomes[method] = exc.trace, (exc.quantity, exc.iteration)
            break
    return outcomes


def _solve_split(cfgs, gen, inst):
    """_solve_each's outcomes of every method in cfgs, each process stopping
    at its own first numerical failure.  n processes share the methods, one
    per core this process may run on and at most one per method (one without
    os.fork); process i solves every n-th method from the i-th.  Process 0
    is this one and the others are forked workers that pickle their outcomes
    through a pipe.  Every worker is reaped on every path, and killed first
    unless all went well.  A worker that raises or ends without its outcomes
    raises ChildProcessError."""
    methods = list(cfgs)
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    n = min(len(methods), cores) if hasattr(os, "fork") else 1
    workers, unreaped = [], set()
    try:
        for i in range(1, n):
            share = {m: cfgs[m] for m in methods[i::n]}
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker leaves only through os._exit
                code = 1
                try:
                    os.close(read)
                    try:
                        payload = _solve_each(share, gen, inst)
                    except Exception as exc:  # the parent reports it in one line
                        payload = f"{type(exc).__name__}: {exc}"
                    with open(write, "wb") as pipe:
                        pickle.dump(payload, pipe)
                    code = 0
                finally:
                    os._exit(code)
            unreaped.add(pid)
            os.close(write)
            workers.append((pid, open(read, "rb"), ", ".join(share)))
        outcomes = _solve_each({m: cfgs[m] for m in methods[::n]}, gen, inst)
        for pid, pipe, names in workers:
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            unreaped.discard(pid)
            if code != 0:
                raise ChildProcessError(f"the worker solving {names} ended "
                                        f"with exit code {code}")
            payload = pickle.loads(data)
            if isinstance(payload, str):
                raise ChildProcessError(f"the worker solving {names} failed: {payload}")
            outcomes.update(payload)
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
        for pid in unreaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes


def _write_trace(outcome, path, zero_wall):
    """Write an outcome's trace to path (None writes nothing) and return it;
    for a failed solve, raise its NonFiniteError once the rows it completed
    are written."""
    trace, failure = outcome
    if path is not None:
        write_trace_csv(trace, path, zero_wall=zero_wall)
    if failure is not None:
        raise NonFiniteError(*failure)
    return trace


def cmd_run(args):
    settings = parse_config(args.config, command="run")
    gen, inst = load_problem(settings)
    cfgs = {settings.method: solver_settings(settings, gen, inst)}
    trace = _write_trace(_solve_each(cfgs, gen, inst)[settings.method],
                         settings.trace_file, settings.zero_wall)
    if settings.summary_file is not None:
        wall = 0 if settings.zero_wall else trace.records[-1].wall_ns
        write_summary_csv([_summary_row(settings.method, trace, wall)],
                          settings.summary_file)
    _print_result(settings.method, trace)
    return 0


def cmd_compare(args):
    settings = parse_config(args.config, command="compare")
    gen, inst = load_problem(settings)
    os.makedirs(args.out_dir, exist_ok=True)
    geometry = step_geometry(settings, gen)
    # every config is resolved before any solve, so a bad setting fails with
    # no trace written; a suggested step factorizes the loss here, once, for
    # the forked workers to inherit
    cfgs = {m: solver_settings(settings, gen, inst, m, geometry) for m in METHODS}
    outcomes = _solve_split(cfgs, gen, inst)
    # written in METHODS order, whichever process solved them, so the first
    # failure leaves the traces before it and its own partial trace
    traces = {}
    for algo in METHODS:
        path = os.path.join(args.out_dir, f"{algo}_trace.csv")
        traces[algo] = _write_trace(outcomes[algo], path, zero_wall=True)
    write_summary_csv(
        [_summary_row(algo, trace, wall_ns=0) for algo, trace in traces.items()],
        os.path.join(args.out_dir, "summary.csv"),
    )
    for algo, trace in traces.items():
        last = trace.records[-1]
        print(
            f"algo={algo} iters={len(trace)} "
            f"final_obj={_format(last.objective)} final_gap={_format(last.feas_gap)} "
            f"stop={trace.stop_reason}"
        )
    return 0


def cmd_estimate_geometry(args):
    gen = open_generator(args.generator)
    est = estimate_geometry(gen, args.pairs, seed=args.seed)
    alpha, beta, _ = suggest_step_sizes(args.nu_loss, est.kappa_hat, args.rho)
    print(f"iota_hat={_format(est.iota_hat)}")
    print(f"kappa_hat={_format(est.kappa_hat)}")
    print(f"nu_g_hat={_format(est.nu_g_hat)}")
    print(f"n_pairs={est.n_pairs}")
    print(f"seed={est.seed}")
    print(f"domain_radius={_format(est.domain_radius)}")
    print(f"suggested_alpha={_format(alpha)}")
    print(f"suggested_beta={_format(beta)}")
    return 0


def cmd_plateau_sweep(args):
    gen = open_generator(args.generator)
    rows = plateau_vs_rho(
        gen,
        rho_values=args.rho_values,
        seeds=args.seeds,
        noise_level=args.noise,
        iters=args.iters,
        sigma0=args.sigma0,
    )
    if args.out is not None:
        write_summary_csv(rows, args.out, ("rho", "gap_plateau", "err_plateau"))
    for row in rows:
        print(
            f"rho={row['rho']:g} gap_plateau={_format(row['gap_plateau'])} "
            f"err_plateau={_format(row['err_plateau'])}"
        )
    return 0


def cmd_tune_gd(args):
    gen = open_generator(args.generator)
    inst = build_instance(gen, args.kind, noise_level=args.noise, seed=args.seed)
    rng = np.random.default_rng(args.start_seed)
    z0s = [rng.standard_normal(gen.input_dim) for _ in range(args.starts)]
    best, scored = tune_gd_step(
        inst.problem.loss, gen, z0s, args.steps, args.budget
    )
    for step, score in scored:
        print(f"step={_format(step)} score={_format(score)}")
    print(f"best_step={_format(best)}")
    return 0


def build_parser():
    parser = _Parser(prog="priorsolve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="solve one configured instance")
    p.add_argument("config", help="INI run configuration")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run gd/admm/eadmm on one instance")
    p.add_argument("config", help="INI run configuration")
    p.add_argument("--out-dir", default=".", help="directory for CSV artifacts")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("estimate-geometry", help="sample generator constants")
    p.add_argument("--generator", required=True, help="generator JSON file")
    p.add_argument("--pairs", type=int, default=2000, help="sample pairs")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--rho", type=_finite_float, default=1.0, help="penalty weight for beta"
    )
    p.add_argument(
        "--nu-loss", type=_finite_float, default=1.0, help="loss smoothness for alpha"
    )
    p.set_defaults(func=cmd_estimate_geometry)

    p = sub.add_parser("plateau-sweep", help="plateau levels vs penalty weight")
    p.add_argument("--generator", required=True)
    p.add_argument("--rho-values", type=_float_list, required=True)
    p.add_argument("--seeds", type=_seed_list, default=(0,))
    p.add_argument("--noise", type=_finite_float, default=0.1)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--sigma0", type=_finite_float, default=0.2)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_plateau_sweep)

    p = sub.add_parser("tune-gd", help="grid-search the baseline step size")
    p.add_argument("--generator", required=True)
    p.add_argument("--steps", type=_float_list, required=True)
    p.add_argument("--kind", default="denoise_l2")
    p.add_argument("--noise", type=_finite_float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--starts", type=int, default=3)
    p.add_argument(
        "--start-seed", type=_seed, default=1, help="seed for the starting points"
    )
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(func=cmd_tune_gd)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (_UsageError, ConfigError, ValueError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except NonFiniteError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
