"""Experiment support: planted instances, rate fitting, penalty sweeps.

A planted instance fixes a latent point z* inside the generator domain and
builds an inverse problem whose data are consistent with w* = G(z*), so the
distance-to-solution columns of a trace are meaningful.  Three instance kinds
are provided:

``denoise_l2``
    L(w) = 0.5 ||w - x||^2 with x = w* + noise; no regularizers.
``denoise_linf``
    L(w) = gamma ||w - x||^2 plus the sup-norm penalty
    R(w) = weight * ||w - x||_inf, both anchored at the noisy observation.
``compressive_sensing``
    L(w) = 0.5 ||A w - b||^2 with A Gaussian (entries N(0, 1/m)),
    m = ceil(ratio * d), and b = A w* + noise.

``fit_rate`` estimates the geometric decay factor of a trace's Lagrangian
column toward a reference value.  The fitted model is

    lagrangian_t - reference  ~  plateau + C * eta^t

where plateau is read off the tail of the trace and eta from a least-squares
line through log(delta_t - plateau) over the decay phase.  Rows after the
offset has collapsed onto the plateau (within FIT_BAND of its size at the
window start, or within EPS_FLOOR absolutely) carry no rate information --
they are noise around the attained floor -- and are excluded from the fit.

``plateau_vs_rho`` sweeps the penalty weight on noisy denoising instances and
reports where the feasibility gap and the recovery error level off, averaged
over seeds.  Its rho x seed solves are independent and identical in shape,
so they run in lockstep as one batch: every iterate is a (B, d) array with
one row per solve and rho and beta repeat each row's value along its row,
so an iteration costs one batched generator pass and one batched VJP instead
of B of each.  Its w step, dual update and beta are admm's exact_w_min,
dual_update and suggest_step_sizes, as in admm_step and the config.
Finiteness is tested as in admm_step, on the sum of z_{t+1} for z and on the
sum of the row Lagrangians for w and lambda.
"""

import dataclasses
import math

import numpy as np

from .admm import SplitProblem, _ensure_finite, aug_lagrangian, dual_update
from .admm import exact_w_min, grad_z_lagrangian, suggest_step_sizes
from .generator import estimate_geometry
from .losses import LeastSquares, QuadraticDenoise, ScaledQuadratic
from .prox import Regularizer

__all__ = [
    "DegenerateTrace",
    "PlantedInstance",
    "RateFit",
    "best_lagrangian",
    "build_instance",
    "fit_rate",
    "plateau_vs_rho",
]

INSTANCE_KINDS = ("denoise_l2", "denoise_linf", "compressive_sensing")

# the keys of each plateau_vs_rho row, in plateaus.csv column order
PLATEAU_COLUMNS = ("rho", "gap_plateau", "err_plateau")

# offsets this close to the plateau are treated as converged noise
EPS_FLOOR = 1e-14

# the rate fit stops once the offset has decayed to this fraction of its
# size at the start of the fitted window (the decay phase is over)
FIT_BAND = 1e-3


class DegenerateTrace(Exception):
    """The trace has too little decay structure to fit a rate."""


@dataclasses.dataclass(frozen=True, eq=False)
class PlantedInstance:
    """A split problem together with the latent point used to build it."""

    problem: SplitProblem
    w_star: np.ndarray
    z_star: np.ndarray
    kind: str
    noise_level: float
    seed: int

    @property
    def planted(self):
        """(w*, z*) in the order the solvers expect."""
        return self.w_star, self.z_star


def _planted_latent(rng, dim, radius):
    """Standard normal truncated to the closed ball of the given radius."""
    for _ in range(1000):
        z = rng.standard_normal(dim)
        if np.linalg.norm(z) <= radius:
            return z
    # tiny radius: fall back to a scaled direction, still rng-driven
    z = rng.standard_normal(dim)
    return (0.5 * radius / np.linalg.norm(z)) * z


def build_instance(
    gen,
    kind,
    noise_level=0.0,
    seed=0,
    measurement_ratio=0.5,
    gamma=0.01,
    linf_weight=1.0,
):
    """Draw a planted inverse problem for the generator.

    The random stream is consumed in a fixed order (latent point, then the
    measurement matrix where applicable, then the noise), so instances with
    the same seed share their planted point across kinds, and the two
    denoising kinds their noisy observation.
    """
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    if not (math.isfinite(noise_level) and noise_level >= 0.0):
        raise ValueError("noise_level must be finite and nonnegative")
    for name, value in (
        ("measurement_ratio", measurement_ratio),
        ("gamma", gamma),
        ("linf_weight", linf_weight),
    ):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and strictly positive")

    rng = np.random.default_rng(seed)
    z_star = _planted_latent(rng, gen.input_dim, gen.domain_radius)
    w_star = gen.forward(z_star)
    d = gen.output_dim
    reg_w = Regularizer.zero()
    if kind == "compressive_sensing":
        m = int(math.ceil(measurement_ratio * d))
        matrix = rng.standard_normal((m, d)) / np.sqrt(m)
        rhs = matrix @ w_star + noise_level * rng.standard_normal(m)
        loss = LeastSquares(matrix, rhs)
    else:  # the two denoising kinds share the noisy observation
        target = w_star + noise_level * rng.standard_normal(d)
        if kind == "denoise_l2":
            loss = QuadraticDenoise(target)
        else:
            loss = ScaledQuadratic(target, gamma)
            reg_w = Regularizer.linf(linf_weight, center=target)

    problem = SplitProblem(loss=loss, gen=gen, reg_w=reg_w, reg_z=Regularizer.zero())
    return PlantedInstance(
        problem=problem,
        w_star=w_star,
        z_star=z_star,
        kind=kind,
        noise_level=float(noise_level),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# rate fitting


@dataclasses.dataclass(frozen=True)
class RateFit:
    """Geometric fit of a trace: delta_t ~ plateau + C * eta_hat^t."""

    eta_hat: float
    r_squared: float
    plateau: float
    n_fit: int


def best_lagrangian(trace):
    """Smallest Lagrangian value seen along a trace."""
    values = np.asarray(trace.column("lagrangian"), dtype=float)
    if values.size == 0:
        raise ValueError("trace is empty")
    return float(np.min(values))


def _tail_length(n):
    """Rows used for plateau estimates: the last 20%, at least 10."""
    return min(n, max(10, math.ceil(0.2 * n)))


def fit_rate(trace, reference):
    """Fit the decay factor of lagrangian - reference along a trace.

    The plateau is the smallest offset over the tail window.  The rate is
    fit on the decay phase only: rows after a 10% burn-in, up to the first
    time the offset above the plateau falls below FIT_BAND times its value
    at the start of the window (or below EPS_FLOOR).  Rows past that
    crossing sit in the noise band around the attained floor and carry no
    rate information.  Raises DegenerateTrace when fewer than two rows
    remain and ValueError when some offset is materially negative
    (reference too high).
    """
    ts = np.asarray(trace.column("t"), dtype=float)
    deltas = np.asarray(trace.column("lagrangian"), dtype=float) - float(reference)
    n = int(ts.size)
    if n < 2:
        raise DegenerateTrace("need at least two rows to fit a rate")
    if np.min(deltas) < -1e-9 * max(1.0, abs(float(reference))):
        raise ValueError("reference exceeds trace values; not a lower bound")

    plateau = float(np.min(deltas[n - _tail_length(n) :]))
    start = int(math.floor(0.1 * n))
    offsets = deltas[start:] - plateau
    alive = np.flatnonzero(offsets > EPS_FLOOR)
    if alive.size == 0:
        raise DegenerateTrace("trace sits at its plateau; no decay to fit")
    first = int(alive[0])
    threshold = max(EPS_FLOOR, FIT_BAND * float(offsets[first]))
    crossed = np.flatnonzero(offsets[first:] <= threshold)
    stop = first + int(crossed[0]) if crossed.size else offsets.size
    keep = np.zeros(offsets.size, dtype=bool)
    keep[first:stop] = offsets[first:stop] > EPS_FLOOR
    if int(np.count_nonzero(keep)) < 2:
        raise DegenerateTrace("trace sits at its plateau; no decay to fit")

    x = ts[start:][keep].astype(float)
    y = np.log(offsets[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_tot = float(np.dot(total, total))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return RateFit(
        eta_hat=float(np.exp(slope)),
        r_squared=r2,
        plateau=plateau,
        n_fit=int(np.count_nonzero(keep)),
    )


# ---------------------------------------------------------------------------
# penalty sweep


def plateau_vs_rho(
    gen,
    rho_values,
    seeds,
    noise_level=0.1,
    iters=2000,
    sigma0=0.2,
):
    """Sweep the penalty weight on noisy denoising instances.

    For each rho, the exact-minimization solver runs iters iterations (no
    early stop) from z = 0 on the denoise_l2 instance of every seed, with
    beta = 1/(rho kappa_hat^2) from one 2000-pair geometry estimate; the tail
    means of the feasibility gap and the recovery error are averaged over seeds.
    Returns one dict per rho, sorted ascending, keyed by PLATEAU_COLUMNS.

    All rho x seed solves run in lockstep, one row each.  Row values equal
    those of admm.run on that instance up to the rounding of batched matrix
    products, and every iteration checks the whole batch in admm_step's
    order, raising NonFiniteError(quantity, t) at the first failure.  rho
    and beta are (B, output_dim) and (B, input_dim), the bits of (B, 1)
    columns without their broadcast, and each w - G(z) is carried to the
    next iteration.  Of the feas_gap and dist_w columns only the tail window
    is kept, and a window numpy cannot allocate raises ValueError before any
    solve.
    """
    rho_values = sorted(float(r) for r in rho_values)
    seeds = [int(s) for s in seeds]
    if len(rho_values) < 2:
        raise ValueError("need at least two rho values to compare plateaus")
    if not all(math.isfinite(r) and r > 0.0 for r in rho_values):
        raise ValueError("rho values must be finite and strictly positive")
    if len(set(rho_values)) != len(rho_values):
        raise ValueError("rho values must be distinct")
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if not sigma0 > 0.0:
        raise ValueError("sigma0 must be strictly positive")

    # row i * len(seeds) + j solves (rho_values[i], seeds[j]); the tail
    # arrays come first, so a count numpy cannot allocate fails at once
    tail = _tail_length(iters)
    try:
        gaps = np.empty((tail, len(rho_values) * len(seeds)))
        errs = np.empty_like(gaps)
    except MemoryError as exc:
        raise ValueError(f"cannot keep {tail} tail rows: {exc}") from None
    insts = [
        build_instance(gen, "denoise_l2", noise_level=noise_level, seed=seed)
        for seed in seeds
    ]
    est = estimate_geometry(gen, 2000, seed=0)
    tiles = (len(rho_values), 1)
    targets = [inst.problem.loss.target for inst in insts]
    loss = QuadraticDenoise(np.tile(targets, tiles))
    w_star = np.tile([inst.w_star for inst in insts], tiles)
    rho = np.repeat(rho_values, len(seeds))
    beta = np.repeat([suggest_step_sizes(loss.nu, est.kappa_hat, r, steps=("beta",))[0]
                      for r in rho_values], len(seeds))
    rho_rows = np.repeat(rho[:, None], gen.output_dim, axis=1)
    beta_rows = np.repeat(beta[:, None], gen.input_dim, axis=1)

    z = np.zeros((rho.size, gen.input_dim))
    tape = gen.forward(z, return_tape=True)
    w = tape.output
    lam = np.zeros_like(w)
    resid = w - tape.output
    for t in range(1, iters + 1):
        # the instances have H = 0, whose prox is the identity
        z = z - beta_rows * grad_z_lagrangian(gen, tape, lam, resid, rho_rows)
        # np.add.reduce(x, None) is x.sum() without its Python wrapper
        _ensure_finite(np.add.reduce(z, None), z, "z", t)
        tape = gen.forward(z, return_tape=True)
        gz = tape.output
        w = exact_w_min(loss, gz, lam, rho_rows)
        resid = w - gz
        # row norms by np.linalg.norm's own formula, without its dispatch
        gap = np.sqrt(np.add.reduce(resid * resid, axis=1, keepdims=True))
        _, lam = dual_update(sigma0, lam, resid, gap, t)
        lagrangian = aug_lagrangian(loss.value(w), lam, resid, gap[:, 0], rho)
        guard = np.add.reduce(lagrangian, None)
        _ensure_finite(guard, w, "w", t)
        _ensure_finite(guard, lam, "lambda", t)
        _ensure_finite(guard, lagrangian, "lagrangian", t)
        row = t - 1 - (iters - tail)
        if row >= 0:
            gaps[row] = gap[:, 0]
            err = w - w_star
            errs[row] = np.sqrt(np.add.reduce(err * err, axis=1))

    per_rho = (len(rho_values), len(seeds))
    gap_plateaus = gaps.mean(axis=0).reshape(per_rho).mean(axis=1)
    err_plateaus = errs.mean(axis=0).reshape(per_rho).mean(axis=1)
    return [
        dict(zip(PLATEAU_COLUMNS, (r, float(g), float(e))))
        for r, g, e in zip(rho_values, gap_plateaus, err_plateaus)
    ]
