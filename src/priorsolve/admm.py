"""Splitting solver for  min L(w) + R(w) + H(z)  s.t.  w = G(z).

Works on the augmented Lagrangian (R and H enter only through their
proximal maps, never through the Lagrangian itself)

    AL(w, z, lam) = L(w) + <lam, w - G(z)> + (rho/2) ||w - G(z)||^2.

One iteration, with the counter t starting at 1:

    z_{t+1} = prox_{beta H}(z_t - beta * grad_z AL(w_t, z_t, lam_t))
    w_{t+1} = prox_{alpha R}(w_t - alpha * grad_w AL(w_t, z_{t+1}, lam_t))
              (or the exact minimizer of AL + R in w, see exact_w_min)
    sigma_{t+1} = min(sigma0, sigma0 / (||w_{t+1} - G(z_{t+1})|| * t * ln^2(t+1)))
    lam_{t+1} = lam_t + sigma_{t+1} * (w_{t+1} - G(z_{t+1}))

The update order matters: the z block reads (w_t, z_t, lam_t) while the w
block already sees z_{t+1}.  The diminishing dual schedule keeps every
dual increment below sigma0 / (t ln^2(t+1)), a summable series, so the
dual iterates stay bounded no matter how the primal residuals behave.

Each iteration evaluates G once, at z_{t+1}, and runs one VJP of G: the
state carries the generator tape of z_t (and, with the linearized w-step,
grad L(w_t)) from the step that produced it, so z_t is never re-traced.
A state built by hand has no tape yet, and its first step computes one.

The iteration stops once

    ||z_{t+1} - z_t||^2 / alpha + ||w_{t+1} - w_t||^2 / beta
        + sigma_t ||w_t - G(z_t)||^2  <=  tau_c.

run is the one driver.  Without a schedule it runs max_iters iterations at
the config's rho, alpha and beta.  A MultiscaleSchedule chains stages
k = 1..K with rho_k = 2^k rho, alpha_k = 2^-k alpha, beta_k = 2^-k beta and
2^k n iterations each, warm starting (w, z, lam, sigma) and the counter t
across stages and using the exact w minimizer throughout.  trace.stop_reason
says why a run stopped: "tol" (later stages are then skipped), "budget" or
"nonfinite".

aug_lagrangian, grad_w_lagrangian, grad_z_lagrangian and dual_update state
these formulas once, on values an iteration already holds and row by row on
(B, d) stacks; admm_step and the lockstep sweep in harness call them.
Closed-form w steps live on the losses (w_minimizer); admm_step and the
sweep reach them through exact_w_min.  One run loop, _drive, steps each
stage of run and gd.run_gd, and owns the clock, the observer, the stop
test, the stop reason and the partial trace a NonFiniteError carries.

Finiteness is tested on scalars a step holds anyway: ||z_{t+1} - z_t||^2 for z,
||w_{t+1} - w_t||^2 for w and the Lagrangian (through <lambda, r>) for lambda.
Only a non-finite scalar, which a finite step whose square overflows also
gives, sends the arrays to a search in that order.  z needs its own scalar:
tanh, sigmoid and softplus map an infinite z to a finite G(z).
"""

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .generator import _norm
from .losses import UnsupportedLossError
from .trace import RunTrace, StageInfo, TraceRecord

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "MultiscaleSchedule",
    "NonFiniteError",
    "SplitProblem",
    "admm_step",
    "aug_lagrangian",
    "grad_w_lagrangian",
    "grad_z_lagrangian",
    "initial_state",
    "run",
    "suggest_step_sizes",
]

W_STEP_KINDS = ("linearized", "exact")


class NonFiniteError(RuntimeError):
    """A solver quantity left the floating-point range.  Carries the name of
    the offending quantity, the iteration index, and (when raised out of a
    run loop) the partial trace collected so far."""

    def __init__(self, quantity, iteration):
        super().__init__(f"non-finite values in {quantity} at iteration {iteration}")
        self.quantity = quantity
        self.iteration = iteration
        self.trace = None


@dataclass(frozen=True)
class MultiscaleSchedule:
    """K stages of 2^k * base_iters iterations each (k = 1..K)."""

    stages: int
    base_iters: int

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("stages must be at least 1")
        if self.base_iters < 1:
            raise ValueError("base_iters must be at least 1")

    def stage_iters(self, k):
        """The budget of stage k: 2^k * base_iters iterations."""
        return self.base_iters * 2**k

    def total_iters(self):
        """The budget of the whole plan, summed over its stages."""
        return sum(map(self.stage_iters, range(1, self.stages + 1)))


@dataclass(frozen=True)
class AdmmConfig:
    rho: float
    alpha: float
    beta: float
    sigma0: float
    tau_c: float
    max_iters: int
    w_step: str = "linearized"
    multiscale: MultiscaleSchedule = None

    def __post_init__(self):
        for name in ("rho", "alpha", "beta", "sigma0", "tau_c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.w_step not in W_STEP_KINDS:
            raise ValueError(f"w_step must be one of {W_STEP_KINDS}")
        if self.multiscale is not None and self.w_step != "exact":
            raise ValueError("the multiscale schedule requires w_step='exact'")


@dataclass(frozen=True)
class AdmmState:
    """Iterates after t - 1 completed iterations (t starts at 1).

    tape (the generator Tape at z) and w_grad (the pair (w, grad L(w))) are
    caches that initial_state and admm_step fill so the next step need not
    recompute them.  Each is tied to the very array it was computed from and
    is dropped when that array is not this state's z or w, so a state built
    by hand or through dataclasses.replace(state, z=...) recomputes rather
    than reads stale values.  The iterate arrays are treated as immutable,
    and a state's caches belong to the problem whose steps produced it.
    """

    w: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    sigma: float
    t: int
    tape: object = field(default=None, repr=False, compare=False)
    w_grad: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        if not self.sigma > 0.0:
            raise ValueError("sigma must be strictly positive")
        if self.t < 1:
            raise ValueError("iteration counter t is 1-based")
        if self.tape is not None and self.tape.z is not self.z:
            object.__setattr__(self, "tape", None)
        if self.w_grad is not None and self.w_grad[0] is not self.w:
            object.__setattr__(self, "w_grad", None)


@dataclass(frozen=True)
class SplitProblem:
    """Problem data: smooth loss L, generator G, penalties R (on w) and
    H (on z)."""

    loss: object
    gen: object
    reg_w: object
    reg_z: object


def initial_state(problem, cfg, z0):
    """Fresh state at t = 1 carrying the tape of z0, with w = G(z0) and a
    zero dual.  dataclasses.replace(state, w=..., lam=...) starts elsewhere
    and keeps the tape, since z does not change."""
    z0 = np.asarray(z0, dtype=float)
    tape = problem.gen.forward(z0, return_tape=True)
    w0, lam0 = tape.output, np.zeros(tape.output.size)
    return AdmmState(w=w0, z=z0, lam=lam0, sigma=cfg.sigma0, t=1, tape=tape)


def aug_lagrangian(loss_value, lam, resid, gap, rho):
    """AL(w, z, lam) = L(w) + <lam, r> + (rho/2) ||r||^2 from the loss value
    L(w), the residual r = w - G(z) and its norm gap = ||r||.  For (B, d)
    stacks the inner product runs along rows and gives B values."""
    return loss_value + np.vecdot(lam, resid) + 0.5 * rho * gap**2


def grad_w_lagrangian(loss_grad, lam, resid, rho):
    """grad_w AL = grad L(w) + lam + rho r, with r = w - G(z)."""
    return loss_grad + lam + rho * resid


def grad_z_lagrangian(gen, tape, lam, resid, rho):
    """grad_z AL = -DG(z)^T (lam + rho r), one VJP on the tape of z; the
    loss plays no role."""
    return -gen.vjp(tape.z, lam + rho * resid, tape=tape)


def dual_step_size(sigma0, feas_gap, t):
    """Diminishing dual step: min(sigma0, sigma0 / (gap * t * ln^2(t+1))).

    A vanishing denominator (tiny gap) falls back to sigma0; either way the
    dual increment sigma * gap never exceeds sigma0 / (t ln^2(t+1)).
    feas_gap may be an array of per-row gaps, giving one step per row; it is
    a norm the caller just computed, so its sign is not checked.
    """
    if sigma0 <= 0.0:
        raise ValueError("sigma0 must be strictly positive")
    if t < 1:
        raise ValueError("iteration counter t is 1-based")
    denom = feas_gap * t * math.log(t + 1.0) ** 2
    # sigma0 / max(1, denom) == min(sigma0, sigma0 / denom), without dividing
    # by a vanishing denom
    if isinstance(denom, np.ndarray):
        return sigma0 / np.fmax(1.0, denom)
    return sigma0 / max(1.0, denom)


def dual_update(sigma0, lam, resid, gap, t):
    """(sigma_{t+1}, lam + sigma_{t+1} r) with sigma_{t+1} from
    dual_step_size.  A (B, 1) column of gaps gives each row its own step."""
    sigma = dual_step_size(sigma0, gap, t)
    return sigma, lam + sigma * resid


def exact_w_min(loss, gz, lam, rho, reg_w=None):
    """argmin_w AL(w, z, lam) + R(w) given gz = G(z).  With R = 0 (None or
    kind zero) it is c = loss.w_minimizer, and rho may be a (B, 1) column for
    a loss that takes a (B, d) stack (AdmmConfig and plateau_vs_rho check
    rho).  Else the loss needs mu = nu, so AL = (nu + rho)/2 ||w - c||^2 +
    const and the step is prox_{R/(nu+rho)}(c) (Parikh & Boyd 2014, 2.2).
    Raises UnsupportedLossError for a loss without the step."""
    w = loss.w_minimizer(np.asarray(gz, dtype=float), np.asarray(lam, dtype=float), rho)
    if reg_w is None or reg_w.kind == "zero":
        return w
    mu, nu = loss.convexity_constants()
    if mu != nu:
        raise UnsupportedLossError(f"{type(loss).__name__} has no exact w step with R")
    return reg_w.prox(w, 1.0 / (nu + rho))


def stopping_metric(dz_sq, dw_sq, alpha, beta, sigma_prev, gap_prev):
    """dz_sq / alpha + dw_sq / beta + sigma_prev * gap_prev^2, from the
    squared step norms dz_sq = ||dz||^2 and dw_sq = ||dw||^2."""
    return dz_sq / alpha + dw_sq / beta + sigma_prev * gap_prev**2


def _ensure_finite(guard, value, name, iteration):
    """NonFiniteError(name, iteration) unless value is finite.  value is
    searched only when guard, a scalar finite only if value is, is not."""
    if not (math.isfinite(guard) or np.isfinite(value).all()):
        raise NonFiniteError(name, iteration)


def admm_step(problem, cfg, state, planted=None):
    """One full iteration; returns (new_state, trace_record).

    Runs one generator forward pass (at z_{t+1}) and one VJP (at z_t, from
    the state's tape), plus one loss evaluation at w_{t+1} that also yields
    grad L(w_{t+1}) for the next linearized w-step.  A state without a tape
    or gradient cache first computes what it lacks.

    The record is evaluated at the new iterate (its Lagrangian uses the new
    dual) except for the stopping metric, which by construction mixes the
    displacement with the previous sigma and feasibility gap.  wall_ns is
    left at 0; the run loop (_drive) stamps it.
    """
    loss, gen = problem.loss, problem.gen
    rho = cfg.rho
    w, z, lam = state.w, state.z, state.lam
    exact = cfg.w_step == "exact"

    tape = state.tape if state.tape is not None else gen.forward(z, return_tape=True)
    resid = w - tape.output
    gap = _norm(resid)

    z_new = problem.reg_z.prox(
        z - cfg.beta * grad_z_lagrangian(gen, tape, lam, resid, rho), cfg.beta
    )
    dz = z_new - z
    dz_sq = float(dz.dot(dz))
    _ensure_finite(dz_sq, z_new, "z", state.t)
    tape_new = gen.forward(z_new, return_tape=True)
    gz_new = tape_new.output

    if exact:
        w_new = exact_w_min(loss, gz_new, lam, rho, problem.reg_w)
    else:
        grad_w = state.w_grad[1] if state.w_grad is not None else loss.grad(w)
        g = grad_w_lagrangian(grad_w, lam, w - gz_new, rho)
        w_new = problem.reg_w.prox(w - cfg.alpha * g, cfg.alpha)
    dw = w_new - w
    dw_sq = float(dw.dot(dw))
    _ensure_finite(dw_sq, w_new, "w", state.t)

    resid_new = w_new - gz_new
    gap_new = _norm(resid_new)
    sigma_new, lam_new = dual_update(cfg.sigma0, lam, resid_new, gap_new, state.t)

    if exact:
        loss_new, w_grad_new = loss.value(w_new), None
    else:
        loss_new, grad_new = loss.value_and_grad(w_new)
        w_grad_new = (w_new, grad_new)
    lagrangian = float(aug_lagrangian(loss_new, lam_new, resid_new, gap_new, rho))
    _ensure_finite(lagrangian, lam_new, "lambda", state.t)
    _ensure_finite(lagrangian, lagrangian, "lagrangian", state.t)

    dist_w = dist_z = None
    if planted is not None:
        w_star, z_star = planted
        dist_w = _norm(w_new - w_star)
        dist_z = _norm(z_new - z_star)

    record = TraceRecord(
        t=state.t,
        objective=loss_new
        + problem.reg_w.evaluate(w_new)
        + problem.reg_z.evaluate(z_new),
        lagrangian=lagrangian,
        feas_gap=gap_new,
        sigma=sigma_new,
        step_w=math.sqrt(dw_sq),
        step_z=math.sqrt(dz_sq),
        stop_metric=stopping_metric(
            dz_sq, dw_sq, cfg.alpha, cfg.beta, state.sigma, gap
        ),
        dist_w=dist_w,
        dist_z=dist_z,
    )
    new_state = AdmmState(
        w=w_new, z=z_new, lam=lam_new, sigma=sigma_new, t=state.t + 1,
        tape=tape_new, w_grad=w_grad_new,
    )
    return new_state, record


def _drive(step, state, max_iters, tol, trace, t0, observer=None):
    """Apply step(state) -> (state, record) up to max_iters times, stamping
    each record with the wall time since t0 (perf_counter_ns), appending it
    to trace and passing (state, record) to the observer; returns the final
    state.  Sets trace.stop_reason to "tol" once record.stop_metric <= tol,
    else to "budget".  A NonFiniteError sets "nonfinite" and leaves with the
    trace collected so far attached."""
    try:
        for _ in range(max_iters):
            state, record = step(state)
            record.wall_ns = time.perf_counter_ns() - t0
            trace.append(record)
            if observer is not None:
                observer(state, record)
            if record.stop_metric <= tol:
                trace.stop_reason = "tol"
                return state
    except NonFiniteError as err:
        trace.stop_reason = "nonfinite"
        err.trace = trace
        raise
    trace.stop_reason = "budget"
    return state


def run(problem, cfg, state, planted=None, observer=None):
    """Iterate until the stopping metric drops to tau_c or the budget is
    spent; returns (final_state, trace).  The budget is max_iters (0 returns
    the initial state and an empty trace) or, with a schedule, its stages on
    one clock and trace, each completed one annotated on trace.stages.  On
    divergence the NonFiniteError carries the partial trace."""
    sched = cfg.multiscale
    trace = RunTrace()
    t0 = time.perf_counter_ns()
    for k in (0,) if sched is None else range(1, sched.stages + 1):
        stage_cfg = cfg if sched is None else dataclasses.replace(
            cfg, rho=cfg.rho * 2.0**k, alpha=cfg.alpha * 0.5**k,
            beta=cfg.beta * 0.5**k, max_iters=sched.stage_iters(k), multiscale=None,
        )
        first_t = state.t
        state = _drive(
            lambda s: admm_step(problem, stage_cfg, s, planted),
            state, stage_cfg.max_iters, cfg.tau_c, trace, t0, observer,
        )
        if sched is not None:
            trace.stages.append(StageInfo(
                index=k, rho=stage_cfg.rho, alpha=stage_cfg.alpha,
                beta=stage_cfg.beta, first_t=first_t, last_t=state.t - 1,
            ))
        if trace.stop_reason == "tol":
            break
    return state, trace


def run_multiscale(problem, cfg, state, planted=None, observer=None):
    """run, for a config that must carry a multiscale schedule."""
    if cfg.multiscale is None:
        raise ValueError("config has no multiscale schedule")
    return run(problem, cfg, state, planted, observer)


def suggest_step_sizes(nu, kappa_hat, rho):
    """(alpha, beta, gd_step) for a loss of smoothness nu: alpha = 1/nu while
    rho < nu, else 1/(nu + rho), so alpha (nu + rho) < 2 keeps the linearized
    w step stable; beta = 1/(rho kappa_hat^2); gd_step = 1/(nu kappa_hat^2).
    Raises ValueError when kappa_hat is not positive and finite (a sampled
    estimate of an overflowing generator is inf or nan) or a step underflows
    to 0.0."""
    if not 0.0 < kappa_hat < math.inf:  # also false for nan
        raise ValueError(f"kappa_hat must be positive and finite, got {kappa_hat}")
    if not rho > 0.0:
        raise ValueError("rho must be strictly positive")
    if not nu > 0.0:
        raise ValueError("loss smoothness constant must be strictly positive")
    alpha = 1.0 / (nu if rho < nu else nu + rho)
    beta = 1.0 / (rho * kappa_hat**2)
    gd_step = 1.0 / (nu * kappa_hat**2)
    if beta == 0.0:
        raise ValueError("rho too large: beta = 1/(rho kappa_hat^2) underflows")
    if alpha == 0.0:
        raise ValueError("nu + rho too large: alpha underflows")
    if gd_step == 0.0:
        raise ValueError("nu too large: gd_step = 1/(nu kappa_hat^2) underflows")
    return alpha, beta, gd_step
