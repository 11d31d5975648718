"""Gradient descent on the latent objective h(z) = L(G(z)).

The baseline the splitting solver is measured against: plain descent on
the smooth composition, blind to any nonsmooth penalty R on the output
side.  Its trace uses the common schema with the w-columns reporting
G(z_t), a feasibility gap of exactly zero (iterates live on the range of
G by construction), and the gradient norm as the stopping metric.  Each
iteration runs one generator forward pass at the new point, keeps its
tape, and runs one VJP on that tape; one loss evaluation gives both the
objective and the cotangent grad L(G(z)).

The splitting solver's z-step approaches one step of this descent as its
iterates become feasible; the test helpers state that one-step bound and
evaluate it.

Finiteness is tested as in admm: ||z_{t+1} - z_t|| guards z_{t+1}, before the
forward pass, and the stop metric ||grad h|| guards the gradient.
"""

import time
from dataclasses import dataclass

import numpy as np

from .admm import NonFiniteError, _drive, _ensure_finite
from .generator import _norm
from .trace import RunTrace, TraceRecord

__all__ = [
    "GdConfig",
    "grad_h",
    "run_gd",
    "tune_gd_step",
]


@dataclass(frozen=True)
class GdConfig:
    step: float
    max_iters: int
    grad_tol: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be strictly positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be strictly positive")


def grad_h(loss, gen, z, tape=None):
    """grad h(z) = DG(z)^T grad L(G(z)); tape, the generator tape of z,
    spares the forward pass."""
    if tape is None:
        tape = gen.forward(z, return_tape=True)
    return gen.vjp(z, loss.grad(tape.output), tape=tape)


def run_gd(loss, gen, cfg, z0, planted=None):
    """Descend h from z0; returns (final z, trace).

    Stops when ||grad h|| at the new iterate drops to grad_tol ("tol") or
    the budget is spent ("budget"), as trace.stop_reason records.  Divergence
    raises NonFiniteError with the partial trace attached, as run does.
    """
    t0 = time.perf_counter_ns()
    z0 = np.asarray(z0, dtype=float)
    tape0 = gen.forward(z0, return_tape=True)

    def step(point):
        t, z, g, gz = point
        z_new = z - cfg.step * g
        step_z = _norm(z_new - z)
        _ensure_finite(step_z, z_new, "z", t)
        tape = gen.forward(z_new, return_tape=True)
        gz_new = tape.output
        objective, loss_grad = loss.value_and_grad(gz_new)
        g_new = gen.vjp(z_new, loss_grad, tape=tape)
        g_norm = _norm(g_new)
        _ensure_finite(g_norm, g_new, "gradient", t)
        _ensure_finite(objective, objective, "objective", t)
        dist_w = dist_z = None
        if planted is not None:
            w_star, z_star = planted
            dist_w = _norm(gz_new - w_star)
            dist_z = _norm(z_new - z_star)
        record = TraceRecord(
            t=t,
            objective=objective,
            lagrangian=objective,
            feas_gap=0.0,
            sigma=0.0,
            step_w=_norm(gz_new - gz),
            step_z=step_z,
            stop_metric=g_norm,
            dist_w=dist_w,
            dist_z=dist_z,
        )
        return (t + 1, z_new, g_new, gz_new), record

    trace = RunTrace()
    point = (1, z0, grad_h(loss, gen, z0, tape0), tape0.output)
    point = _drive(step, point, cfg.max_iters, cfg.grad_tol, trace, t0)
    return point[1], trace


def tune_gd_step(loss, gen, z0s, steps, budget):
    """Grid search: run each candidate step for a fixed budget from every
    start and score it by the mean final objective; divergent runs score
    +inf.  Returns (best_step, [(step, score), ...])."""
    steps = tuple(steps)
    z0s = list(z0s)
    if not steps:
        raise ValueError("need at least one candidate step")
    if not z0s:
        raise ValueError("need at least one starting point")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    results = []
    for step in steps:
        cfg = GdConfig(step=step, max_iters=budget, grad_tol=1e-300)
        finals = []
        for z0 in z0s:
            # candidate steps are allowed to diverge; that is what the
            # search is for, so overflow warnings are suppressed here
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    _, trace = run_gd(loss, gen, cfg, z0)
                    finals.append(trace.records[-1].objective)
                except NonFiniteError:
                    finals.append(np.inf)
        results.append((step, float(np.mean(finals))))
    best = min(results, key=lambda pair: pair[1])[0]
    return best, results
