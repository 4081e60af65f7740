"""Variable exponents alpha(.), p(.), q(.) and their log-Holder constant.

An ExponentField is a real-valued function sampled on the same grid as the
functions it measures.  Regularity enters through the log-Holder modulus
|g(x)-g(y)| <= c / log(e + 1/d(x,y)); `estimate_clog` takes the exact
maximum of that quotient over all grid pairs, a lower bound for the best
such constant, which is what the convolution lemmas need to pick their
decay orders.  It reads the per-offset oscillation that each field caches,
the same array `lemmas.check_transfer` reads.

On the torus every continuous exponent is bounded and the decay-at-infinity
condition is vacuous, so only the local constant is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec, _circulant

__all__ = ["ExponentField", "estimate_clog"]

_BLOCK = 1 << 17  # differences per gathered block of the oscillation sweep


@dataclass(frozen=True, eq=False)
class ExponentField:
    """Exponent samples on a grid plus cached range and regularity data.

    range_min / range_max are the exact grid min/max; oscillation and
    clog_local (`estimate_clog`) are computed on first access.
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

    @cached_property
    def oscillation(self) -> np.ndarray:
        """osc[k] = max over x of g(x - k h) - g(x) for every grid offset k,
        shaped like the samples.  Pairs touching +inf are skipped (NaN
        where every pair at k does); a constant field gives zeros without
        a sweep.  Costs (N^n)^2 differences, taken in blocks."""
        v = self.samples
        if self.is_constant:
            osc = np.zeros(v.shape)
        else:
            v = np.where(np.isinf(v), np.nan, v)
            circ = _circulant(v)  # circ[k] is v shifted by k
            block = max(1, _BLOCK // v.size)
            osc = np.empty(v.size)
            for start in range(0, v.size, block):
                ks = np.arange(start, min(start + block, v.size))
                diff = circ[np.unravel_index(ks, v.shape)]  # a gathered copy
                diff -= v
                osc[ks] = np.fmax.reduce(diff.reshape(len(ks), -1), axis=1)
            osc = osc.reshape(v.shape)
        osc.setflags(write=False)
        return osc

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
    """Local log-Holder constant of g on the grid.

    The exact maximum of |g(x)-g(y)| * log(e + 1/d(x,y)) over all sample
    pairs at periodic distance d > 0.  The weight depends only on the
    offset k between x and y, and `oscillation` at k and -k covers both
    orientations of a pair, so this is the max over k != 0 of
    osc[k] * log(e + 1/d_k).  Pairs touching an infinite sample are
    skipped: the regularity classes constrain 1/p, which is finite there.
    """
    osc = g.oscillation.ravel()[1:]  # offset 0 is flat index 0
    weight = np.log(np.e + 1.0 / g.spec.offset_distance().ravel()[1:])
    return float(np.fmax.reduce(osc * weight, initial=0.0))
