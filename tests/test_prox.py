"""Proximal operator correctness: frozen cases, certificates, brute force."""

import numpy as np
import pytest

from oracles import l1_ball_projection_qp, prox_subgradient_residual
from priorsolve.prox import Regularizer, project_l1_ball

RNG = np.random.default_rng

ALL_KINDS = ("zero", "linf", "ball")


def random_regularizer(rng, kind, dim):
    if kind == "zero":
        return Regularizer.zero()
    if kind == "linf":
        return Regularizer.linf(rng.uniform(0.2, 3.0))
    return Regularizer.ball(rng.standard_normal(dim), rng.uniform(0.5, 2.0))


def test_evaluate_reference_values():
    x = np.array([1.0, -3.0])
    assert Regularizer.zero().evaluate(x) == 0.0
    assert Regularizer.linf(0.5).evaluate(x) == 1.5
    ball = Regularizer.ball(np.zeros(2), np.sqrt(10.0))
    assert ball.evaluate(x) == 0.0
    assert ball.evaluate(1.001 * x) == np.inf
    # membership tolerance 1e-12 on the indicator boundary
    assert ball.evaluate((1.0 + 1e-13) * x) == 0.0


def test_parameter_validation():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Regularizer.linf(bad)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Regularizer.ball(np.zeros(2), bad)
        for kind in ALL_KINDS:
            with pytest.raises(ValueError):
                random_regularizer(RNG(0), kind, 2).prox(np.zeros(2), bad)


def test_prox_zero_is_identity():
    v = np.array([3.0, -1.0, 0.0])
    np.testing.assert_array_equal(Regularizer.zero().prox(v, 0.7), v)


def test_prox_zero_returns_a_float_array():
    out = Regularizer.zero().prox([1, 2], 0.5)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    np.testing.assert_array_equal(out, [1.0, 2.0])


def test_project_l1_ball_frozen_cases():
    np.testing.assert_allclose(
        project_l1_ball(np.array([3.0, -1.0]), 2.0), [2.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        project_l1_ball(np.array([2.0, 1.0, 0.5]), 2.0), [1.5, 0.5, 0.0], atol=1e-15
    )
    # ties resolved by the threshold, not by ordering
    np.testing.assert_allclose(
        project_l1_ball(np.array([1.0, 1.0, 1.0]), 1.0),
        [1.0 / 3.0] * 3,
        atol=1e-15,
    )
    v = np.array([0.3, -0.2, 0.1])
    np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)
    # a radius below half an ulp of the largest magnitude vanishes from every
    # cumulative sum, so no rank passes the threshold test in floating point
    tiny = project_l1_ball(np.array([0.3, -0.1, 0.05]), 1e-17)
    assert np.abs(tiny).sum() <= 1e-17
    # magnitudes whose sum overflows: the sums are taken in units of 2^k
    np.testing.assert_allclose(
        project_l1_ball(np.array([1e308, 1e308]), 1e308), [5e307, 5e307], rtol=1e-15
    )
    np.testing.assert_allclose(
        project_l1_ball(np.array([1e308, -1e308, 5e307]), 1e308),
        [5e307, -5e307, 0.0],
        rtol=1e-15,
    )


def test_project_l1_ball_matches_qp_oracle():
    rng = RNG(42)
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        v = rng.standard_normal(dim) * rng.uniform(0.5, 3.0)
        radius = rng.uniform(0.1, 3.0)
        ours = project_l1_ball(v, radius)
        ref = l1_ball_projection_qp(v, radius)
        assert np.abs(ours).sum() <= radius * (1.0 + 1e-12)
        assert np.linalg.norm(ours - ref) <= 1e-6
        # never worse than the QP route
        assert np.sum((ours - v) ** 2) <= np.sum((ref - v) ** 2) + 1e-10


def test_prox_linf_moreau_identity():
    rng = RNG(7)
    reg = Regularizer.linf(1.3)
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        v = rng.standard_normal(dim) * 2.0
        t = rng.uniform(0.1, 2.0)
        x = reg.prox(v, t)
        recomposed = x + project_l1_ball(v, t * 1.3)
        assert np.abs(recomposed - v).max() <= 1e-12


def test_prox_indicator_projections():
    ball = Regularizer.ball(np.array([1.0, 0.0]), 2.0)
    got = ball.prox(np.array([5.0, 0.0]), 0.3)
    np.testing.assert_allclose(got, [3.0, 0.0], atol=1e-14)
    inside = np.array([1.5, 0.5])
    np.testing.assert_array_equal(ball.prox(inside, 1.0), inside)


def test_prox_fixed_points():
    rng = RNG(3)
    c = rng.standard_normal(5)
    assert np.array_equal(Regularizer.linf(1.0, center=c).prox(c, 0.5), c)


def test_prox_nonexpansive_all_kinds():
    rng = RNG(11)
    for kind in ALL_KINDS:
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            reg = random_regularizer(rng, kind, dim)
            u = rng.standard_normal(dim) * 2.0
            v = rng.standard_normal(dim) * 2.0
            t = rng.uniform(0.05, 2.0)
            lhs = np.linalg.norm(reg.prox(u, t) - reg.prox(v, t))
            rhs = np.linalg.norm(u - v)
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


def test_prox_subgradient_certificates():
    rng = RNG(23)
    for kind in ALL_KINDS:
        for _ in range(60):
            dim = int(rng.integers(1, 6))
            reg = random_regularizer(rng, kind, dim)
            v = rng.standard_normal(dim) * 3.0
            t = rng.uniform(0.05, 2.0)
            x = reg.prox(v, t)
            assert prox_subgradient_residual(reg, t, v, x) <= 1e-8, (kind, v, t)


def test_prox_beats_random_candidates():
    rng = RNG(31)

    def objective(reg, t, v, x):
        val = reg.evaluate(x)
        if not np.isfinite(val):
            return np.inf
        return val + 0.5 / t * float(np.sum((x - v) ** 2))

    for kind in ALL_KINDS:
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            reg = random_regularizer(rng, kind, dim)
            v = rng.standard_normal(dim) * 2.0
            t = rng.uniform(0.1, 2.0)
            x = reg.prox(v, t)
            best = objective(reg, t, v, x)
            for _ in range(100):
                cand = x + rng.standard_normal(dim) * rng.choice([1e-3, 1e-1, 1.0])
                assert best <= objective(reg, t, v, cand) + 1e-12
