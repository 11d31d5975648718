"""Properties over generated inputs: tape reuse and shared loss evaluations
change no bit of the results."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tape_reuse_is_bit_identical(data):
    gen = data.draw(generators())
    z = vectors(data.draw, gen.input_dim)
    u = vectors(data.draw, gen.output_dim)
    tape = gen.forward(z, return_tape=True)
    np.testing.assert_array_equal(tape.output, gen.forward(z))
    np.testing.assert_array_equal(gen.vjp(z, u, tape=tape), gen.vjp(z, u))
    np.testing.assert_array_equal(gen.jacobian(z, tape=tape), gen.jacobian(z))


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
