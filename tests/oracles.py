"""Independent numerical oracles used by the test suite.

Everything here is deliberately plain: central differences, dense linear
algebra, and a general-purpose constrained solver.  None of it shares code
with the library, so agreement between the two routes is evidence rather
than tautology.  The exceptions are the geometry oracles, which draw their
pairs one point at a time, in the library's stream order, and evaluate them
on the library's generator: serial_geometry through its dense Jacobian, one
pair at a time, to check the batched evaluation, and sequential_geometry
through one batched pass over all pairs, to check the library's draws and
its blocked evaluation bit for bit.
"""

import math

import numpy as np
from scipy.optimize import minimize

from priorsolve import generator
from priorsolve.generator import GeometryEstimate, Tape


def fd_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian of a vector map f at x."""
    x = np.asarray(x, dtype=float)
    y0 = np.asarray(f(x), dtype=float)
    jac = np.zeros((y0.size, x.size))
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        jac[:, j] = (np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * h)
    return jac


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function f at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        g[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def l1_ball_projection_qp(v, radius):
    """Project v onto the l1 ball of given radius by a smooth QP.

    Uses the split x = p - q with p, q >= 0 and sum(p + q) <= radius, which
    turns the nonsmooth constraint into a linear one, then hands the problem
    to SLSQP.  Intended for small dimensions only.
    """
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= radius:
        return v.copy()
    n = v.size

    def obj(pq):
        x = pq[:n] - pq[n:]
        return 0.5 * np.sum((x - v) ** 2)

    def obj_grad(pq):
        x = pq[:n] - pq[n:]
        return np.concatenate([x - v, -(x - v)])

    x0 = v * (radius / np.abs(v).sum())
    pq0 = np.concatenate([np.maximum(x0, 0.0), np.maximum(-x0, 0.0)])
    res = minimize(
        obj,
        pq0,
        jac=obj_grad,
        method="SLSQP",
        bounds=[(0.0, None)] * (2 * n),
        constraints=[{
            "type": "ineq",
            "fun": lambda pq: radius - pq.sum(),
            "jac": lambda pq: -np.ones(2 * n),
        }],
        options={"maxiter": 1000, "ftol": 1e-16},
    )
    return res.x[:n] - res.x[n:]


def prox_subgradient_residual(reg, t, v, x):
    """Distance certificate for (v - x)/t being in the subdifferential at x.

    Uses explicit subdifferential formulas per regularizer kind; returns a
    nonnegative residual that vanishes (to rounding) exactly when x is the
    prox of v.  Independent of the library's prox formulas.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    g = (v - x) / t
    kind = reg.kind
    if kind == "zero":
        return float(np.linalg.norm(g))
    if kind == "linf":
        w = reg.weight
        c = np.zeros_like(x) if reg.center is None else np.asarray(reg.center)
        y = x - c
        peak = np.abs(y).max()
        if peak <= 1e-14 * (1.0 + np.abs(v).max()):
            return float(max(np.abs(g).sum() - w, 0.0))
        active = np.abs(y) >= peak * (1.0 - 1e-9)
        off = float(np.linalg.norm(g[~active]))
        sign_viol = float(np.linalg.norm(np.minimum(g[active] * np.sign(y[active]), 0.0)))
        mass = abs(float(np.abs(g[active]).sum()) - w)
        return math.hypot(off, sign_viol) + mass
    if kind == "ball":
        c = np.asarray(reg.center, dtype=float)
        r = reg.radius
        d = float(np.linalg.norm(x - c))
        if d < r * (1.0 - 1e-9):
            return float(np.linalg.norm(g))
        mu = max(0.0, float(np.dot(g, x - c)) / (r * r))
        return float(np.linalg.norm(g - mu * (x - c)))
    raise ValueError(f"unknown regularizer kind {kind!r}")


def dual_norm_cap(lam0_norm, sigma0, t):
    """Upper bound on the dual norm after t - 1 dual updates.

    Truncated sum of the summable dual step budget: ||lam_t|| must stay below
    ||lam_0|| + sigma0 * (1 + sum_{i=1}^{t-1} 1 / (i * ln^2(i+1))).
    """
    acc = sum(1.0 / (i * math.log(i + 1) ** 2) for i in range(1, t))
    return lam0_norm + sigma0 * (1.0 + acc)


def uniform_ball_point(rng, dim, radius):
    """Draw one point uniformly from the Euclidean ball (independent route)."""
    g = rng.standard_normal(dim)
    g /= np.linalg.norm(g)
    return radius * rng.uniform() ** (1.0 / dim) * g


def _ball_point(rng, dim, radius):
    # the library's draw one point at a time, so the oracles consume the
    # same stream
    g = rng.standard_normal(dim)
    norm = np.linalg.norm(g)
    while norm < 1e-30:
        g = rng.standard_normal(dim)
        norm = np.linalg.norm(g)
    return radius * (rng.uniform() ** (1.0 / dim)) * (g / norm)


def geometry_pairs(gen, n_pairs, seed):
    """The (z1, z2, ||z2 - z1||) triples estimate_geometry draws, in order:
    each candidate pair closer than DEGENERATE_PAIR_TOL (read at call time)
    is skipped and the next two points of the stream are tried."""
    rng = np.random.default_rng(seed)
    dim = gen.input_dim
    radius = gen.domain_radius
    pairs = []
    for _ in range(n_pairs):
        while True:
            z1 = _ball_point(rng, dim, radius)
            z2 = _ball_point(rng, dim, radius)
            dist = float(np.linalg.norm(z2 - z1))
            if dist >= generator.DEGENERATE_PAIR_TOL:
                break
        pairs.append((z1, z2, dist))
    return pairs


def sequential_geometry(gen, n_pairs, seed):
    """estimate_geometry on the pairs of geometry_pairs: one batched forward
    pass over all points and one batched JVP on at least two z1 rows.  Rows
    of a product of two or more rows do not depend on the row count, so it
    must equal the library's estimate exactly, whatever its block size."""
    z1, z2, dists = (np.array(col) for col in zip(*geometry_pairs(gen, n_pairs, seed)))
    points = np.concatenate((z1, z2))
    tape = gen.forward(points, return_tape=True)
    out = tape.output
    dg = out[n_pairs:] - out[:n_pairs]
    ratios = np.sqrt(np.vecdot(dg, dg)) / dists
    rows = max(n_pairs, 2)
    head = Tape(
        points[:rows], out[:rows], tuple(a[:rows] for a in tape.preacts), tape.layers
    )
    steps = np.zeros((rows, gen.input_dim))
    steps[:n_pairs] = z2 - z1
    rem = dg - gen.jvp(head, steps)[:n_pairs]
    return GeometryEstimate(
        iota_hat=float(ratios.min()),
        kappa_hat=float(ratios.max()),
        nu_g_hat=float((2.0 * np.sqrt(np.vecdot(rem, rem)) / dists**2).max()),
        n_pairs=n_pairs,
        seed=seed,
        domain_radius=gen.domain_radius,
    )


def serial_geometry(gen, n_pairs, seed):
    """estimate_geometry one pair at a time: two single-latent forward
    passes and a dense Jacobian per pair, on the library's random stream."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    radius = gen.domain_radius
    iota = np.inf
    kappa = 0.0
    nu = 0.0
    for z1, z2, dist in geometry_pairs(gen, n_pairs, seed):
        tape1 = gen.forward(z1, return_tape=True)
        g1 = tape1.output
        g2 = gen.forward(z2)
        ratio = float(np.linalg.norm(g2 - g1)) / dist
        iota = min(iota, ratio)
        kappa = max(kappa, ratio)
        rem = g2 - g1 - gen.jacobian(tape1) @ (z2 - z1)
        nu = max(nu, 2.0 * float(np.linalg.norm(rem)) / dist**2)
    return GeometryEstimate(
        iota_hat=iota,
        kappa_hat=kappa,
        nu_g_hat=nu,
        n_pairs=n_pairs,
        seed=seed,
        domain_radius=radius,
    )
