"""Properties over generated inputs: tape reuse and shared loss evaluations
change no bit of the results, a batch of latents, like a (B, d) stack of
iterates in the Lagrangian formulas, is evaluated row by row, and the batched
geometry estimate agrees with its per-pair form, equals its one-point-at-a-time
draws exactly and extends its own smaller samples, the ELU derivative
equals its piecewise form, and the exact w step of a wide least-squares loss
solves its normal equations, while with a nonsmooth w penalty only the losses
with mu = nu have one and it passes the prox certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import (
    geometry_pairs,
    prox_subgradient_residual,
    sequential_geometry,
    serial_geometry,
)
from priorsolve import generator
from priorsolve.admm import (
    aug_lagrangian,
    dual_update,
    exact_w_min,
    grad_w_lagrangian,
    grad_z_lagrangian,
)
from priorsolve.generator import (
    ACTIVATION_KINDS,
    Activation,
    FeedforwardGenerator,
    Layer,
    estimate_geometry,
)
from priorsolve.losses import (
    LeastSquares,
    QuadraticDenoise,
    ScaledQuadratic,
    UnsupportedLossError,
)
from priorsolve.prox import Regularizer

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(max_dims=2, max_side=16), elements=st.floats()))
def test_elu_derivative_equals_its_piecewise_form(x):
    """With elu_alpha = 1, derivative returns exp(min(x, 0)); exp(0) = 1
    exactly, so it equals the piecewise form bit for bit, nan included."""
    with np.errstate(over="ignore"):
        piecewise = np.where(x > 0.0, 1.0, 1.0 * np.exp(np.minimum(x, 0.0)))
    assert Activation("elu").derivative(x).tobytes() == piecewise.tobytes()


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(max_dims=2, max_side=16), elements=st.floats()))
def test_elu_value_equals_its_alpha_form(x):
    """With elu_alpha = 1, value skips the factor alpha: 1.0 * y is y bit for
    bit, nan included."""
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_form = np.where(x > 0.0, x, 1.0 * np.expm1(np.minimum(x, 0.0)))
    assert Activation("elu").value(x).tobytes() == alpha_form.tobytes()


@st.composite
def generators(draw):
    """Random non-decreasing width stacks of one to three layers."""
    widths = [draw(st.integers(1, 4))]
    for _ in range(draw(st.integers(1, 3))):
        widths.append(widths[-1] + draw(st.integers(0, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = [
        Layer(
            rng.standard_normal((cout, cin)) / math.sqrt(cin),
            0.1 * rng.standard_normal(cout),
            Activation(draw(st.sampled_from(ACTIVATION_KINDS))),
        )
        for cin, cout in zip(widths, widths[1:])
    ]
    return FeedforwardGenerator(layers, domain_radius=3.0)


def vectors(draw, size):
    return np.array(draw(st.lists(finite, min_size=size, max_size=size)))


def arrays(draw, size, rows=None):
    """A vector of the given size, or a (rows, size) batch of them."""
    if rows is None:
        return vectors(draw, size)
    return np.array([vectors(draw, size) for _ in range(rows)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tape_reuse_is_bit_identical(data):
    gen = data.draw(generators())
    rows = data.draw(st.none() | st.integers(1, 5))
    z = arrays(data.draw, gen.input_dim, rows)
    u = arrays(data.draw, gen.output_dim, rows)
    tape = gen.forward(z, return_tape=True)
    np.testing.assert_array_equal(tape.output, gen.forward(z))
    np.testing.assert_array_equal(gen.vjp(z, u, tape=tape), gen.vjp(z, u))
    np.testing.assert_array_equal(gen.jvp(z, z, tape=tape), gen.jvp(z, z))
    if rows is None:
        np.testing.assert_array_equal(gen.jacobian(z, tape=tape), gen.jacobian(z))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_rows_match_single_latent_calls(data):
    gen = data.draw(generators())
    rows = data.draw(st.integers(1, 5))
    z = arrays(data.draw, gen.input_dim, rows)
    u = arrays(data.draw, gen.output_dim, rows)
    out, vjp = gen.forward(z), gen.vjp(z, u)
    assert out.shape == (rows, gen.output_dim) and vjp.shape == z.shape
    # matrix-matrix and matrix-vector products round differently; atol covers
    # entries that cancel to near zero (inputs and weights are O(1))
    for b in range(rows):
        np.testing.assert_allclose(out[b], gen.forward(z[b]), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(vjp[b], gen.vjp(z[b], u[b]), rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_jvp_matches_dense_jacobian(data):
    gen = data.draw(generators())
    rows = data.draw(st.none() | st.integers(1, 5))
    z = arrays(data.draw, gen.input_dim, rows)
    v = arrays(data.draw, gen.input_dim, rows)
    tape = gen.forward(z, return_tape=True)
    got, taped = gen.jvp(z, v), gen.jvp(z, v, tape=tape)
    assert got.shape == tape.output.shape
    pairs = [(z, v, got, taped)] if rows is None else zip(z, v, got, taped)
    # the forward-mode pass and the dense product sum in different orders;
    # atol covers entries that cancel to near zero
    for zb, vb, got_b, taped_b in pairs:
        want = gen.jacobian(zb) @ vb
        np.testing.assert_allclose(got_b, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(taped_b, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_lagrangian_formulas_match_single_rows(data):
    # the lockstep sweep and admm_step share these helpers (the sweep's w
    # step too); rho and the gap are per-row columns in the batch and
    # scalars for a single row
    gen = data.draw(generators())
    rows = data.draw(st.integers(1, 5))
    z = arrays(data.draw, gen.input_dim, rows)
    w = arrays(data.draw, gen.output_dim, rows)
    lam = arrays(data.draw, gen.output_dim, rows)
    loss_grad = arrays(data.draw, gen.output_dim, rows)
    loss_value = arrays(data.draw, rows)
    rho = np.array(data.draw(st.lists(
        st.floats(1e-3, 100.0), min_size=rows, max_size=rows
    )))[:, None]
    sigma0 = data.draw(st.floats(1e-3, 10.0))
    t = data.draw(st.integers(1, 10_000))
    target = arrays(data.draw, gen.output_dim, rows)

    tape = gen.forward(z, return_tape=True)
    resid = w - tape.output
    gap = np.linalg.norm(resid, axis=1, keepdims=True)
    grad_z = grad_z_lagrangian(gen, tape, lam, resid, rho)
    grad_w = grad_w_lagrangian(loss_grad, lam, resid, rho)
    value = aug_lagrangian(loss_value, lam, resid, gap[:, 0], rho[:, 0])
    sigma, lam_new = dual_update(sigma0, lam, resid, gap, t)
    w_min = exact_w_min(QuadraticDenoise(target), tape.output, lam, rho)
    assert value.shape == (rows,) and sigma.shape == (rows, 1)
    close = dict(rtol=1e-12, atol=1e-12)
    for b in range(rows):
        rho_b, gap_b = float(rho[b, 0]), float(gap[b, 0])
        tape_b = gen.forward(z[b], return_tape=True)
        np.testing.assert_allclose(
            grad_z[b], grad_z_lagrangian(gen, tape_b, lam[b], resid[b], rho_b), **close
        )
        np.testing.assert_allclose(
            grad_w[b], grad_w_lagrangian(loss_grad[b], lam[b], resid[b], rho_b), **close
        )
        np.testing.assert_allclose(
            value[b],
            aug_lagrangian(loss_value[b], lam[b], resid[b], gap_b, rho_b),
            **close,
        )
        sigma_b, lam_b = dual_update(sigma0, lam[b], resid[b], gap_b, t)
        np.testing.assert_allclose(sigma[b, 0], sigma_b, **close)
        np.testing.assert_allclose(lam_new[b], lam_b, **close)
        np.testing.assert_allclose(
            w_min[b],
            exact_w_min(QuadraticDenoise(target[b]), tape_b.output, lam[b], rho_b),
            **close,
        )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_batched_shape_errors(data):
    gen = data.draw(generators())
    rows = data.draw(st.integers(1, 5))
    z = arrays(data.draw, gen.input_dim, rows)
    u = np.zeros((rows, gen.output_dim))
    with pytest.raises(ValueError, match="input"):
        gen.forward(np.zeros((rows, gen.input_dim + 1)))
    with pytest.raises(ValueError, match="input"):
        gen.forward(z[None])
    with pytest.raises(ValueError, match="cotangent"):
        gen.vjp(z, u[:-1] if rows > 1 else u[0])
    with pytest.raises(ValueError, match="cotangent"):
        gen.vjp(z, np.zeros((rows + 1, gen.output_dim)))
    with pytest.raises(ValueError, match="cotangent"):
        gen.vjp(z[0], u)
    with pytest.raises(ValueError, match="single latent"):
        gen.jacobian(z)
    with pytest.raises(ValueError, match="tangent"):
        gen.jvp(z, z[:-1] if rows > 1 else z[0])
    with pytest.raises(ValueError, match="tangent"):
        gen.jvp(z, np.zeros((rows, gen.input_dim + 1)))
    with pytest.raises(ValueError, match="tangent"):
        gen.jvp(z[0], z)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_geometry_matches_serial_oracle(data):
    gen = data.draw(generators())
    n_pairs = data.draw(st.integers(1, 60))
    seed = data.draw(st.integers(0, 2**32 - 1))
    est = estimate_geometry(gen, n_pairs, seed)
    want = serial_geometry(gen, n_pairs, seed)
    assert (est.n_pairs, est.seed, est.domain_radius) == (
        want.n_pairs, want.seed, want.domain_radius
    )
    # batched and single-latent products round G differently, by about
    # eps ||G||; the ratios divide that by ||z2 - z1|| and the curvature by
    # its square, so it dominates for close pairs and for affine pieces,
    # whose true remainder is 0.  Measured differences stay below 2.5 times
    # the per-pair rounding (eps ||G(z1)|| + eps ||G(z2)||) / ||z2 - z1||
    # (over ||z2 - z1|| once more for nu); the floors allow 16 times.
    pairs = geometry_pairs(gen, n_pairs, seed)
    rounding = [
        16 * EPS * (np.linalg.norm(gen.forward(z1)) + np.linalg.norm(gen.forward(z2)))
        / dist
        for z1, z2, dist in pairs
    ]
    floors = {
        "iota_hat": max(rounding),
        "kappa_hat": max(rounding),
        "nu_g_hat": max(2.0 * r / dist for r, (_, _, dist) in zip(rounding, pairs)),
    }
    for name, floor in floors.items():
        np.testing.assert_allclose(
            getattr(est, name), getattr(want, name), rtol=1e-12, atol=floor,
            err_msg=name,
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_geometry_equals_its_sequential_draw_oracle(data):
    """The vectorized draws keep the stream, the roundings and the pairs of
    the one-point-at-a-time loop, also when degenerate pairs are dropped: a
    pair tolerance of up to the domain radius (3) forces redraws."""
    gen = data.draw(generators())
    n_pairs = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 2**64 - 1))
    tol = data.draw(st.just(generator.DEGENERATE_PAIR_TOL) | st.floats(0.5, 3.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "DEGENERATE_PAIR_TOL", tol)
        assert estimate_geometry(gen, n_pairs, seed) == sequential_geometry(
            gen, n_pairs, seed
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_geometry_extends_its_smaller_samples(data):
    # every pair keeps its value whatever n_pairs is, so the sample extremes
    # move monotonically and exactly, from one pair on
    gen = data.draw(generators())
    seed = data.draw(st.integers(0, 2**32 - 1))
    ns = sorted({1, 2} | set(data.draw(st.lists(st.integers(3, 60), max_size=3))))
    ests = [estimate_geometry(gen, n, seed) for n in ns]
    for small, big in zip(ests, ests[1:]):
        assert big.iota_hat <= small.iota_hat
        assert big.kappa_hat >= small.kappa_hat
        assert big.nu_g_hat >= small.nu_g_hat


@st.composite
def losses(draw):
    dim = draw(st.integers(1, 6))
    target = vectors(draw, dim)
    kind = draw(st.sampled_from(("denoise", "scaled", "least_squares")))
    if kind == "denoise":
        return QuadraticDenoise(target)
    if kind == "scaled":
        return ScaledQuadratic(target, gamma=draw(st.floats(1e-3, 10.0)))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return LeastSquares(rng.standard_normal((rows, dim)), vectors(draw, rows))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_value_and_grad_equals_value_then_grad(data):
    loss = data.draw(losses())
    w = vectors(data.draw, loss.dim)
    value, grad = loss.value_and_grad(w)
    assert value == loss.value(w)
    np.testing.assert_array_equal(grad, loss.grad(w))


@st.composite
def wide_least_squares(draw):
    """A wide m x d A = U diag(s) V^T (m < d) with orthonormal U, V: full
    rank, rank deficient (trailing singular values exactly 0), and with
    condition numbers up to 1e12 among its nonzero singular values."""
    m = draw(st.integers(1, 12))
    d = draw(st.integers(m + 1, 30))
    rank = draw(st.integers(1, m))
    top = draw(st.floats(0.5, 5.0))
    cond = 10.0 ** draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((d, m)))[0]
    s = np.zeros(m)
    s[:rank] = top * np.geomspace(1.0, 1.0 / cond, rank)
    return LeastSquares((u * s) @ v.T, vectors(draw, m)), rng


@settings(max_examples=200, deadline=None)
@given(wide_least_squares(), st.floats(0.1, 10.0))
def test_wide_exact_w_step_solves_its_normal_equations(case, rho):
    """The w step through the factorization of A A^T meets acceptance 03's
    tolerances on ill-conditioned and rank-deficient A: first-order residual
    and gap to a dense solve <= 1e-10; its factors are a reduced SVD with s
    positive and descending, orthonormal u and nu = max eig A^T A."""
    loss, rng = case
    a, d = loss.matrix, loss.dim
    gz, lam = rng.standard_normal(d), rng.standard_normal(d)
    w = exact_w_min(loss, gz, lam, rho)
    residual = a.T @ (a @ w - loss.rhs) + lam + rho * (w - gz)
    assert np.linalg.norm(residual) <= 1e-10
    dense = np.linalg.solve(a.T @ a + rho * np.eye(d), a.T @ loss.rhs - lam + rho * gz)
    assert np.linalg.norm(w - dense) <= 1e-10
    u, s, _ = loss.svd()
    assert np.all(s > 0.0) and np.all(np.diff(s) <= 0.0)
    assert np.abs(u.T @ u - np.eye(s.size)).max() <= 1e-12
    mu, nu = loss.convexity_constants()
    top = np.linalg.eigvalsh(a.T @ a)[-1]
    assert mu == 0.0 and abs(nu - top) <= 1e-10 * max(1.0, nu)


@st.composite
def penalized_w_steps(draw):
    """(loss, R, gz, lam, rho) with an isotropic loss (mu = nu) and R an
    l-infinity norm, centred or not, or a ball indicator."""
    dim = draw(st.integers(1, 6))
    target = vectors(draw, dim)
    if draw(st.booleans()):
        loss = QuadraticDenoise(target)
    else:
        loss = ScaledQuadratic(target, gamma=draw(st.floats(1e-3, 10.0)))
    kind = draw(st.sampled_from(("linf", "centred linf", "ball")))
    if kind == "ball":
        reg = Regularizer.ball(vectors(draw, dim), draw(st.floats(0.1, 5.0)))
    else:
        center = vectors(draw, dim) if kind == "centred linf" else None
        reg = Regularizer.linf(draw(st.floats(1e-3, 10.0)), center=center)
    gz, lam = vectors(draw, dim), vectors(draw, dim)
    return loss, reg, gz, lam, draw(st.floats(0.1, 10.0))


@settings(max_examples=300, deadline=None)
@given(penalized_w_steps())
def test_exact_w_step_with_a_penalty_is_its_prox(case):
    """The step w is prox_{R/(nu+rho)}(c) to acceptance 03's 1e-10, with c
    read off the first-order condition: grad L(w) + lam + rho (w - gz) =
    (nu + rho)(w - c) when the Hessian of L is nu I."""
    loss, reg, gz, lam, rho = case
    w = exact_w_min(loss, gz, lam, rho, reg)
    nu = loss.convexity_constants()[1]
    c = w - (loss.grad(w) + lam + rho * (w - gz)) / (nu + rho)
    assert prox_subgradient_residual(reg, 1.0 / (nu + rho), c, w) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(wide_least_squares(), st.floats(0.1, 10.0))
def test_wide_least_squares_has_no_exact_w_step_with_a_penalty(case, rho):
    """mu = 0 < nu, so the prox of R at the smooth step is not the step."""
    loss, rng = case
    gz, lam = rng.standard_normal(loss.dim), rng.standard_normal(loss.dim)
    with pytest.raises(UnsupportedLossError):
        exact_w_min(loss, gz, lam, rho, Regularizer.linf(1.0))
