"""Variable exponents alpha(.), p(.), q(.) and their log-Holder constant.

An ExponentField is a real-valued function sampled on the same grid as the
functions it measures.  Regularity enters through the log-Holder modulus
|g(x)-g(y)| <= c / log(e + 1/d(x,y)); `estimate_clog` produces a grid lower
bound for the best such constant, which is what the convolution lemmas
need to pick their decay orders.

On the torus every continuous exponent is bounded and the decay-at-infinity
condition is vacuous, so only the local constant is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec

__all__ = ["ExponentField", "estimate_clog"]

_PAIR_BUDGET = 100_000  # random pairs when the grid is too large for all pairs


@dataclass(frozen=True, eq=False)
class ExponentField:
    """Exponent samples on a grid plus cached range and regularity data.

    range_min / range_max are the exact grid min/max; clog_local is the
    `estimate_clog` lower bound, computed on first access.
    """

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.samples, dtype=float).reshape(self.spec.shape)
        if np.any(np.isnan(v)):
            raise ValueError("exponent samples must not contain NaN")
        if np.any(np.isneginf(v)):
            raise ValueError("exponent samples must not be -inf")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "samples", v)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_constant(cls, spec: GridSpec, value: float) -> "ExponentField":
        return cls(spec, np.full(spec.shape, float(value)))

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "ExponentField":
        return cls(spec, fn(*spec.coords()))

    # -- range and regularity data ----------------------------------------

    @cached_property
    def clog_local(self) -> float:
        return estimate_clog(self)

    @property
    def range_min(self) -> float:
        return float(self.samples.min())

    @property
    def range_max(self) -> float:
        return float(self.samples.max())

    @property
    def is_constant(self) -> bool:
        return bool(self.range_min == self.range_max)

    @property
    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.samples)))

    def reciprocal(self) -> "ExponentField":
        """Field 1/g with 1/inf = 0; used for the 1/q hypotheses."""
        with np.errstate(divide="ignore"):
            r = np.where(np.isinf(self.samples), 0.0, 1.0 / self.samples)
        return ExponentField(self.spec, r)

    # -- class checks ------------------------------------------------------

    def require_p0(self, name: str = "p"):
        if not self.range_min > 0:
            raise ValueError(f"{name} must be bounded away from 0, min = {self.range_min}")
        return self

    def require_finite(self, name: str = "exponent"):
        if not self.is_finite:
            raise ValueError(f"{name} must be finite everywhere")
        return self


def estimate_clog(g: ExponentField) -> float:
    """Grid lower bound for the local log-Holder constant of g.

    Maximises |g(x)-g(y)| * log(e + 1/d(x,y)) over sample pairs with the
    periodic distance d.  All pairs are scanned when the grid has at most
    512 points; larger grids use every nearest-neighbour pair plus a fixed
    seeded sample of random pairs (nearest pairs dominate for smooth g).
    """
    spec = g.spec
    v = g.samples.ravel()
    if spec.npoints < 2:
        raise ValueError("need at least 2 samples per axis to estimate c_log")
    finite = np.isfinite(v)
    if not finite.any():
        return 0.0  # constant +inf field
    vf = v[finite]
    if vf.max() == vf.min() and finite.all():
        return 0.0

    coords = [c.ravel() for c in spec.coords()]
    period = 2.0 * spec.L

    def weight(i, j):
        # pairs touching an infinite sample are skipped: the regularity
        # classes constrain 1/p, which is finite there
        d2 = np.zeros(len(i))
        for c in coords:
            dd = np.abs(c[i] - c[j])
            dd = np.minimum(dd, period - dd)
            d2 += dd * dd
        d = np.sqrt(d2)
        out = np.zeros(len(i))
        pos = (d > 0) & finite[i] & finite[j]
        out[pos] = np.abs(v[i][pos] - v[j][pos]) * np.log(np.e + 1.0 / d[pos])
        return out

    M = spec.npoints
    if M <= 512:
        i, j = np.triu_indices(M, k=1)
        return float(weight(i, j).max())

    best = 0.0
    # nearest neighbours along each axis
    idx = np.arange(M)
    if spec.n == 1:
        best = max(best, float(weight(idx, (idx + 1) % M).max()))
    else:
        N = spec.N
        ii, jj = np.divmod(idx, N)
        right = ii * N + (jj + 1) % N
        down = ((ii + 1) % N) * N + jj
        best = max(best, float(weight(idx, right).max()))
        best = max(best, float(weight(idx, down).max()))
    rng = np.random.default_rng(0)
    i = rng.integers(0, M, size=_PAIR_BUDGET)
    j = rng.integers(0, M, size=_PAIR_BUDGET)
    best = max(best, float(weight(i, j).max()))
    return best
