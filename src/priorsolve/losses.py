"""Smooth data-fit terms L with known curvature constants.

Each loss exposes value, gradient, value_and_grad (both from one
evaluation where they share work), and convexity_constants() returning
(mu, nu) such that

    (mu/2) ||v - w||^2 <= L(v) - L(w) - <grad L(w), v - w> <= (nu/2) ||v - w||^2.

The isotropic quadratic (nu/2) ||w - target||^2, mu = nu, is written once,
in QuadraticDenoise (nu = 1); ScaledQuadratic is it with nu = 2 gamma.  For
the least-squares loss the constants are the extreme eigenvalues of A^T A,
from a lazily cached SVD of A (a wide A is factored through A A^T, see
LeastSquares.svd); when A has a nontrivial null space (fewer rows than
columns, or numerically rank deficient) mu is reported as exactly 0 and
strong convexity only holds on the row space, so rate diagnostics that
rely on mu > 0 should be skipped.

Each loss with a closed-form w step, w_minimizer(gz, lam, rho) =
argmin_w L(w) + <lam, w - gz> + (rho/2) ||w - gz||^2, documents its own;
the SmoothLoss default raises UnsupportedLossError.  A nonzero penalty R on
w has an exact step only for a loss with mu = nu (Hessian nu I): then it is
prox_{R/(nu+rho)} of w_minimizer (admm.exact_w_min).
"""

import math
import sys

import numpy as np

from .generator import RANK_TOL

__all__ = ["QuadraticDenoise", "LeastSquares", "ScaledQuadratic",
           "UnsupportedLossError"]


class UnsupportedLossError(ValueError):
    """The loss has no implemented closed-form w minimizer."""


class SmoothLoss:
    """Interface shared by the concrete losses."""

    dim = None

    @property
    def shape(self):
        """Shape of the argument w."""
        return (self.dim,)

    def _check(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != self.shape:
            raise ValueError(f"expected argument of shape {self.shape}")
        return w

    def value(self, w):
        raise NotImplementedError

    def grad(self, w):
        raise NotImplementedError

    def value_and_grad(self, w):
        """(value(w), grad(w)); losses whose two share work override it."""
        return self.value(w), self.grad(w)

    def convexity_constants(self):
        """(mu, nu): strong convexity and smoothness moduli."""
        raise NotImplementedError

    def w_minimizer(self, gz, lam, rho):
        """Closed-form w step (see the module docstring)."""
        raise UnsupportedLossError(
            f"no closed-form w minimizer for {type(self).__name__}"
        )


class QuadraticDenoise(SmoothLoss):
    """L(w) = (nu/2) ||w - target||^2, mu = nu = 1 unless a subclass sets nu.

    A (B, d) stack of targets holds B such losses, one per row: w is then
    (B, d) too and value returns the B row values.
    """

    nu = 1.0

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        if self.target.ndim not in (1, 2):
            raise ValueError("target must be a vector or a stack of vectors")
        self.dim = self.target.shape[-1]

    @property
    def shape(self):
        return self.target.shape

    def value(self, w):
        w = self._check(w)
        sq = np.add.reduce((w - self.target) ** 2, axis=-1)
        return 0.5 * self.nu * (sq if sq.ndim else float(sq))

    def grad(self, w):
        w = self._check(w)
        return self.nu * (w - self.target)

    def convexity_constants(self):
        return (self.nu, self.nu)

    def w_minimizer(self, gz, lam, rho):
        """(nu target - lam + rho gz) / (nu + rho).  With a (B, d) stack of
        targets, gz and lam are (B, d) and rho may be a (B, 1) column: every
        row is solved at once with its own rho."""
        return (self.nu * self.target - lam + rho * gz) / (self.nu + rho)


class ScaledQuadratic(QuadraticDenoise):
    """L(w) = gamma ||w - target||^2: the quadratic with nu = 2 gamma.

    The smooth half of objectives that pair a weak quadratic pull toward a
    reference point with a nonsmooth penalty handled elsewhere.
    """

    def __init__(self, target, gamma):
        if not 0.0 < gamma < np.inf:  # also false for nan
            raise ValueError("gamma must be positive and finite")
        super().__init__(target)
        self.gamma = float(gamma)
        self.nu = 2.0 * self.gamma

    # own entries: bench/tracer.py wraps targets found in the class __dict__
    value = QuadraticDenoise.value
    grad = QuadraticDenoise.grad


class LeastSquares(SmoothLoss):
    """L(w) = 0.5 ||A w - b||^2, A and b finite, with lazily cached svd() and A^T b."""

    def __init__(self, matrix, rhs):
        self.matrix = np.asarray(matrix, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("measurement matrix must be two-dimensional")
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError(
                f"rhs shape {self.rhs.shape} does not match "
                f"{self.matrix.shape[0]} matrix rows"
            )
        if not (np.isfinite(self.matrix).all() and np.isfinite(self.rhs).all()):
            raise ValueError("measurement matrix and rhs must be finite")
        self.dim = self.matrix.shape[1]
        self._svd = None
        self._normal_rhs = None

    def svd(self):
        """Reduced SVD (u, s, vt) of A, s descending, computed once on first
        use.  A wide A (m < d) is factored through A A^T (Boyd et al. 2011,
        4.2.4): eigh gives s^2 and u, vt = s^-1 u^T A, and eigenvalues at the
        Gram's rounding floor are dropped (all of them for A = 0), so s > 0
        and A = u s vt up to sqrt(d eps) s[0].  Tall A keeps np.linalg.svd:
        mu > 0 is judged at RANK_TOL on s, below what s^2 resolves."""
        if self._svd is None:
            a = self.matrix
            if a.shape[0] >= self.dim:
                self._svd = np.linalg.svd(a, full_matrices=False)
            else:
                k = np.frexp(np.abs(a).max())[1]
                b = np.ldexp(a, -k)  # exact; b b^T cannot overflow or underflow
                e, u = np.linalg.eigh(b @ b.T)  # ascending
                keep = np.flatnonzero(e > self.dim * np.finfo(float).eps * e[-1])[::-1]
                s, u = np.sqrt(e[keep]), u[:, keep]
                self._svd = (u, np.ldexp(s, k), (u.T @ b) / s[:, None])
        return self._svd

    def normal_rhs(self):
        """A^T b, computed once on first use."""
        if self._normal_rhs is None:
            self._normal_rhs = self.matrix.T @ self.rhs
        return self._normal_rhs

    def value(self, w):
        w = self._check(w)
        r = self.matrix @ w - self.rhs
        return 0.5 * float(np.sum(r * r))

    def grad(self, w):
        w = self._check(w)
        return self.matrix.T @ (self.matrix @ w - self.rhs)

    def value_and_grad(self, w):
        """value and grad from one residual r = A w - b."""
        w = self._check(w)
        r = self.matrix @ w - self.rhs
        return 0.5 * float(np.sum(r * r)), self.matrix.T @ r

    def w_minimizer(self, gz, lam, rho):
        """(A^T A + rho I)^{-1} r, r = A^T b - lam + rho gz, through the
        cached svd(): r / rho + V ((1 / (s^2 + rho) - 1 / rho) V^T r), two
        products with V.  Directions outside the row space are simply scaled
        by 1/rho, so rank-deficient and underdetermined A work unchanged.
        Where s*s overflows, 1/(s^2 + rho) is 0, its correct limit."""
        _, s, vt = self.svd()
        rhs = self.normal_rhs() - lam + rho * gz
        coeff = vt @ rhs
        return rhs / rho + vt.T @ (coeff * (1.0 / (s * s + rho) - 1.0 / rho))

    @property
    def strongly_convex(self):
        """True when A^T A is (numerically) positive definite."""
        _, s, _ = self.svd()
        return self.matrix.shape[0] >= self.dim and s[-1] > RANK_TOL * s[0]

    def convexity_constants(self):
        _, s, _ = self.svd()
        if s.size and s[0] > math.sqrt(sys.float_info.max):
            raise ValueError(
                f"smoothness constant ||A||^2 overflows (||A|| = {s[0]:g})")
        nu = float(s[0] ** 2) if s.size else 0.0
        mu = float(s[-1] ** 2) if self.strongly_convex else 0.0
        return (mu, nu)
