"""Smooth data-fit terms: values, gradients, curvature constants."""

import numpy as np
import pytest

from oracles import fd_grad
from priorsolve.losses import LeastSquares, QuadraticDenoise, ScaledQuadratic

RNG = np.random.default_rng


def all_losses(rng, dim):
    yield QuadraticDenoise(rng.standard_normal(dim))
    a = rng.standard_normal((dim + 3, dim))
    yield LeastSquares(a, rng.standard_normal(dim + 3))
    yield ScaledQuadratic(rng.standard_normal(dim), gamma=0.01)


def test_reference_values():
    target = np.array([1.0, -1.0])
    q = QuadraticDenoise(target)
    assert q.value(np.array([1.0, -1.0])) == 0.0
    assert q.value(np.array([2.0, 0.0])) == 1.0
    np.testing.assert_array_equal(q.grad(np.array([2.0, 0.0])), [1.0, 1.0])
    assert q.convexity_constants() == (1.0, 1.0)

    a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    b = np.array([1.0, 0.0, 0.0])
    ls = LeastSquares(a, b)
    w = np.array([1.0, -1.0])
    # residual a @ w - b = (0, -2, 0)
    assert ls.value(w) == 2.0
    np.testing.assert_array_equal(ls.grad(w), a.T @ (a @ w - b))

    s = ScaledQuadratic(target, gamma=0.25)
    assert s.value(np.array([3.0, -1.0])) == 1.0
    np.testing.assert_array_equal(s.grad(np.array([3.0, -1.0])), [1.0, 0.0])
    assert s.convexity_constants() == (0.5, 0.5)


def test_gradients_match_finite_differences():
    rng = RNG(1)
    for dim in (1, 3, 6):
        for loss in all_losses(rng, dim):
            for _ in range(10):
                w = rng.standard_normal(dim) * 2.0
                want = fd_grad(loss.value, w, h=1e-6)
                got = loss.grad(w)
                assert np.abs(got - want).max() < 1e-6 * (1.0 + np.abs(want).max())


def test_least_squares_constants_match_eigen_oracle():
    rng = RNG(2)
    for _ in range(20):
        m, d = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        if m < d:
            continue
        a = rng.standard_normal((m, d))
        mu, nu = LeastSquares(a, rng.standard_normal(m)).convexity_constants()
        evals = np.linalg.eigvalsh(a.T @ a)
        assert abs(mu - evals[0]) <= 1e-10 * max(1.0, evals[-1])
        assert abs(nu - evals[-1]) <= 1e-10 * max(1.0, evals[-1])


def test_least_squares_rank_deficient_reports_no_strong_convexity():
    rng = RNG(3)
    a = rng.standard_normal((5, 3))
    a[:, 2] = a[:, 0]  # duplicated column
    ls = LeastSquares(a, rng.standard_normal(5))
    mu, nu = ls.convexity_constants()
    assert mu == 0.0
    assert nu > 0.0
    assert not ls.strongly_convex
    wide = LeastSquares(rng.standard_normal((2, 5)), rng.standard_normal(2))
    assert wide.convexity_constants()[0] == 0.0
    assert not wide.strongly_convex
    tall = LeastSquares(rng.standard_normal((6, 3)), rng.standard_normal(6))
    assert tall.strongly_convex
    # wide and rank deficient: nu is still the top eigenvalue of A^T A
    a = rng.standard_normal((4, 7))
    a[3] = a[0] - 2.0 * a[1]  # dependent row
    ls = LeastSquares(a, rng.standard_normal(4))
    mu, nu = ls.convexity_constants()
    assert mu == 0.0 and not ls.strongly_convex
    assert abs(nu - np.linalg.eigvalsh(a.T @ a)[-1]) <= 1e-10 * max(1.0, nu)
    assert ls.svd()[1].size == 3
    # A = 0: no curvature at all, and the w step only scales by 1/rho
    for shape in ((3, 5), (5, 3)):
        zero = LeastSquares(np.zeros(shape), rng.standard_normal(shape[0]))
        assert zero.convexity_constants() == (0.0, 0.0)
        assert not zero.strongly_convex
        gz, lam = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        np.testing.assert_array_equal(
            zero.w_minimizer(gz, lam, 2.0), (zero.normal_rhs() - lam + 2.0 * gz) / 2.0
        )


def test_svd_cache_is_lazy_and_stable():
    rng = RNG(4)
    deficient = rng.standard_normal((4, 9))
    deficient[2] = deficient[1]  # rank 3
    # tall (np.linalg.svd), then wide, A = 0 and rank-deficient wide (eigh of A A^T)
    for a in (rng.standard_normal((6, 4)), rng.standard_normal((4, 6)),
              np.zeros((3, 5)), deficient):
        ls = LeastSquares(a, rng.standard_normal(a.shape[0]))
        assert ls._svd is None
        first = ls.svd()
        assert ls.svd() is first
        u, s, vt = first
        assert u.shape == (a.shape[0], s.size) and vt.shape == (s.size, a.shape[1])
        assert np.all(np.diff(s) <= 0.0)
        np.testing.assert_allclose(u.T @ u, np.eye(s.size), atol=1e-12)
        np.testing.assert_allclose(u * s @ vt, ls.matrix, atol=1e-12)
    # a wide A's Gram matrix is formed at a power-of-two scale, so a huge or a
    # tiny A neither overflows nor loses its spectrum
    a = rng.standard_normal((3, 6))
    for scale in (1e154, 1e160, 1e-160, 1e-170):
        s = LeastSquares(scale * a, np.zeros(3)).svd()[1]
        want = np.linalg.svd(scale * a, compute_uv=False)
        np.testing.assert_allclose(s, want, rtol=1e-12, atol=0)


def test_bregman_sandwich():
    rng = RNG(5)
    for dim in (2, 4):
        for loss in all_losses(rng, dim):
            mu, nu = loss.convexity_constants()
            for _ in range(30):
                w = rng.standard_normal(dim) * 3.0
                v = rng.standard_normal(dim) * 3.0
                gap = loss.value(v) - loss.value(w) - float(loss.grad(w) @ (v - w))
                ssq = float(np.sum((v - w) ** 2))
                assert gap >= 0.5 * mu * ssq - 1e-9 * (1.0 + ssq)
                assert gap <= 0.5 * nu * ssq + 1e-9 * (1.0 + ssq)


def test_gradient_lipschitz():
    rng = RNG(6)
    for dim in (2, 5):
        for loss in all_losses(rng, dim):
            nu = loss.convexity_constants()[1]
            for _ in range(30):
                w = rng.standard_normal(dim) * 3.0
                v = rng.standard_normal(dim) * 3.0
                lhs = np.linalg.norm(loss.grad(v) - loss.grad(w))
                assert lhs <= nu * np.linalg.norm(v - w) * (1.0 + 1e-9) + 1e-12


def test_validation():
    with pytest.raises(ValueError):
        ScaledQuadratic(np.zeros(2), gamma=0.0)
    with pytest.raises(ValueError):
        ScaledQuadratic(np.zeros(2), gamma=-1.0)
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ScaledQuadratic(np.zeros(2), gamma=gamma)
    with pytest.raises(ValueError):
        LeastSquares(np.ones((3, 2)), np.ones(4))  # shape mismatch
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LeastSquares(np.full((2, 4), bad), np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            LeastSquares(np.ones((2, 4)), np.array([1.0, bad]))
    with pytest.raises(ValueError):
        QuadraticDenoise(np.zeros(3)).value(np.zeros(2))
