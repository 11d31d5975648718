"""Nonsmooth penalties and their proximal maps.

Supported kinds: the zero penalty, weighted l1 and l-infinity norms
(optionally centered away from the origin), and indicator functions of a
Euclidean ball or a coordinate box.  prox(v, t) solves

    argmin_x  penalty(x) + ||x - v||^2 / (2 t)

in closed form: soft thresholding for l1, Moreau decomposition against the
l1-ball projection for l-infinity, and Euclidean projection for the
indicators.  The l1-ball projection uses the full-sort threshold rule, which
is deterministic under ties.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Regularizer", "project_l1_ball"]

# slack for membership tests of indicator kinds
MEMBERSHIP_TOL = 1e-12


def project_l1_ball(v, radius):
    """Euclidean projection of v onto {x : ||x||_1 <= radius}.

    Sort-based threshold rule: with u the magnitudes sorted in decreasing
    order, the threshold is tau = (cumsum(u)_r - radius) / r at the largest
    r with u_r > (cumsum(u)_r - radius) / r, and the projection soft
    thresholds v at tau.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    mags = np.abs(v)
    if mags.sum() <= radius:
        return v.copy()
    u = np.sort(mags)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    candidates = (cumulative - radius) / ranks
    rho = int(np.nonzero(u > candidates)[0][-1])
    tau = candidates[rho]
    return np.sign(v) * np.maximum(mags - tau, 0.0)


def _soft_threshold(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


@dataclass(frozen=True, eq=False)
class Regularizer:
    """One nonsmooth penalty term.  Build instances via the classmethods."""

    kind: str
    weight: float = 0.0
    center: np.ndarray = None
    radius: float = 0.0
    lo: np.ndarray = None
    hi: np.ndarray = None

    @classmethod
    def zero(cls):
        return cls(kind="zero")

    @classmethod
    def l1(cls, weight, center=None):
        """weight * ||x - center||_1 (center defaults to the origin)."""
        if weight <= 0.0:
            raise ValueError("weight must be positive")
        if center is not None:
            center = np.asarray(center, dtype=float)
        return cls(kind="l1", weight=float(weight), center=center)

    @classmethod
    def linf(cls, weight, center=None):
        """weight * ||x - center||_inf (center defaults to the origin)."""
        if weight <= 0.0:
            raise ValueError("weight must be positive")
        if center is not None:
            center = np.asarray(center, dtype=float)
        return cls(kind="linf", weight=float(weight), center=center)

    @classmethod
    def ball(cls, center, radius):
        """Indicator of the Euclidean ball {x : ||x - center|| <= radius}."""
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        return cls(
            kind="ball", center=np.asarray(center, dtype=float), radius=float(radius)
        )

    @classmethod
    def box(cls, lo, hi):
        """Indicator of the box {x : lo <= x <= hi} (componentwise)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")
        return cls(kind="box", lo=lo, hi=hi)

    def _shift(self, x):
        return x if self.center is None else x - self.center

    def evaluate(self, x):
        """Penalty value at x; +inf outside an indicator's set (with a
        1e-12 membership tolerance)."""
        if self.kind == "zero":
            return 0.0
        x = np.asarray(x, dtype=float)
        if self.kind == "l1":
            return self.weight * float(np.abs(self._shift(x)).sum())
        if self.kind == "linf":
            y = self._shift(x)
            return self.weight * float(np.abs(y).max()) if y.size else 0.0
        if self.kind == "ball":
            dist = float(np.linalg.norm(x - self.center))
            slack = MEMBERSHIP_TOL * (1.0 + self.radius)
            return 0.0 if dist <= self.radius + slack else np.inf
        slack = MEMBERSHIP_TOL * (1.0 + float(np.abs(x).max(initial=0.0)))
        inside = np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack)
        return 0.0 if inside else np.inf

    def prox(self, v, t):
        """Proximal map of t * penalty at v."""
        if t <= 0.0:
            raise ValueError("prox step t must be positive")
        v = np.asarray(v, dtype=float)
        if self.kind == "zero":
            return v  # iterates are never written in place (admm.AdmmState)
        if self.kind == "l1":
            y = self._shift(v)
            out = _soft_threshold(y, t * self.weight)
            return out if self.center is None else self.center + out
        if self.kind == "linf":
            y = self._shift(v)
            out = y - project_l1_ball(y, t * self.weight)
            return out if self.center is None else self.center + out
        if self.kind == "ball":
            offset = v - self.center
            dist = float(np.linalg.norm(offset))
            if dist <= self.radius:
                return v.copy()
            return self.center + offset * (self.radius / dist)
        return np.clip(v, self.lo, self.hi)
