"""Properties over generated inputs: tape reuse and shared loss evaluations
change no bit of the results, and a batch of latents, like a (B, d) stack of
iterates in the Lagrangian formulas, is evaluated row by row."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorsolve.admm import (
    aug_lagrangian,
    dual_update,
    grad_w_lagrangian,
    grad_z_lagrangian,
)
from priorsolve.generator import (
    ACTIVATION_KINDS,
    Activation,
    FeedforwardGenerator,
    Layer,
)
from priorsolve.losses import LeastSquares, QuadraticDenoise, ScaledQuadratic

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


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
    return FeedforwardGenerator(layers, domain_radius=3.0, rank_check=False)


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
def test_batched_lagrangian_formulas_match_single_rows(data):
    # the lockstep sweep and admm_step share these helpers; rho and the gap
    # are per-row columns in the batch and scalars for a single row
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

    tape = gen.forward(z, return_tape=True)
    resid = w - tape.output
    gap = np.linalg.norm(resid, axis=1, keepdims=True)
    grad_z = grad_z_lagrangian(gen, tape, lam, resid, rho)
    grad_w = grad_w_lagrangian(loss_grad, lam, resid, rho)
    value = aug_lagrangian(loss_value, lam, resid, gap[:, 0], rho[:, 0])
    sigma, lam_new = dual_update(sigma0, lam, resid, gap, t)
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
