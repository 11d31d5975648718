"""Nonsmooth penalties and their proximal maps.

Supported kinds: the zero penalty, the weighted l-infinity norm (optionally
centered away from the origin), and the indicator function of a Euclidean
ball.  prox(v, t) solves

    argmin_x  penalty(x) + ||x - v||^2 / (2 t)

in closed form: Moreau decomposition against the l1-ball projection for
l-infinity, and Euclidean projection for the ball.  The l1-ball projection
uses the full-sort threshold rule, which is deterministic under ties.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Regularizer"]

# slack for membership tests of the ball indicator
MEMBERSHIP_TOL = 1e-12


def project_l1_ball(v, radius):
    """Euclidean projection of v onto {x : ||x||_1 <= radius}.

    Sort-based threshold rule: with u the magnitudes sorted in decreasing
    order, the threshold is tau = (cumsum(u)_r - radius) / r at the largest
    r with u_r > (cumsum(u)_r - radius) / r, and the projection soft
    thresholds v at tau.  r = 1 always passes in exact arithmetic; when
    radius is below half an ulp of u_1 none passes in floating point, and
    r = 1 gives tau = u_1, so the projection is 0, inside the ball.

    The sums are taken in units of 2^k, with 2^(k-1) <= u_1 < 2^k for u_1 >=
    1/2 and k = 0 below, so they cannot overflow; scaling by a power of two
    is exact for every magnitude that stays normal.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    mags = np.abs(v)
    k = max(0, int(np.frexp(mags.max(initial=0.0))[1]))
    scaled, unit_radius = np.ldexp(mags, -k), np.ldexp(radius, -k)
    if scaled.sum() <= unit_radius:
        return v.copy()
    u = np.sort(scaled)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    candidates = (cumulative - unit_radius) / ranks
    passing = np.nonzero(u > candidates)[0]
    rho = int(passing[-1]) if passing.size else 0
    tau = np.ldexp(candidates[rho], k)
    return np.sign(v) * np.maximum(mags - tau, 0.0)


@dataclass(frozen=True, eq=False)
class Regularizer:
    """One nonsmooth penalty term.  Build instances via the classmethods."""

    kind: str
    weight: float = 0.0
    center: np.ndarray = None
    radius: float = 0.0

    @classmethod
    def zero(cls):
        return cls(kind="zero")

    @classmethod
    def linf(cls, weight, center=None):
        """weight * ||x - center||_inf (center defaults to the origin)."""
        if not 0.0 < weight < np.inf:  # also false for nan
            raise ValueError("weight must be positive and finite")
        if center is not None:
            center = np.asarray(center, dtype=float)
        return cls(kind="linf", weight=float(weight), center=center)

    @classmethod
    def ball(cls, center, radius):
        """Indicator of the Euclidean ball {x : ||x - center|| <= radius}."""
        if not 0.0 < radius < np.inf:
            raise ValueError("radius must be positive and finite")
        return cls(
            kind="ball", center=np.asarray(center, dtype=float), radius=float(radius)
        )

    def _shift(self, x):
        return x if self.center is None else x - self.center

    def evaluate(self, x):
        """Penalty value at x; +inf outside the ball (with a 1e-12
        membership tolerance)."""
        if self.kind == "zero":
            return 0.0
        x = np.asarray(x, dtype=float)
        if self.kind == "linf":
            y = self._shift(x)
            return self.weight * float(np.abs(y).max()) if y.size else 0.0
        dist = float(np.linalg.norm(x - self.center))
        slack = MEMBERSHIP_TOL * (1.0 + self.radius)
        return 0.0 if dist <= self.radius + slack else np.inf

    def prox(self, v, t):
        """Proximal map of t * penalty at v."""
        if not 0.0 < t < np.inf:
            raise ValueError("prox step t must be positive and finite")
        v = np.asarray(v, dtype=float)
        if self.kind == "zero":
            return v  # iterates are never written in place (admm.AdmmState)
        if self.kind == "linf":
            y = self._shift(v)
            out = y - project_l1_ball(y, t * self.weight)
            return out if self.center is None else self.center + out
        offset = v - self.center
        dist = float(np.linalg.norm(offset))
        if dist <= self.radius:
            return v.copy()
        return self.center + offset * (self.radius / dist)
