"""Besov quasi-norm evaluators over a periodic torus.

Four evaluators of the same smoothness scale, whose pairwise equivalence
is what the experiment harness measures:

  besov_continuous   low-pass term plus the scale-continuous mixed norm
                     of t^(-alpha(.)) phi_t * f over t in (0, 1]
  besov_discrete     mixed sequence norm of 2^(v alpha(.)) psi_v * f over
                     the dyadic blocks
  besov_peetre       same as continuous but with Peetre maximal functions
                     in place of the pointwise convolutions
  besov_local_means  Peetre-style norm built from Tauberian kernels with
                     vanishing moments

q identically inf replaces the mixed norm by a sup over scales (blocks).
The Peetre supremum over the torus is taken over grid points, exactly: no
window truncates the far points and no flag selects a slower exact sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calderon import DyadicFamily, KernelPair, LocalMeansKernels, RadialProfile
from .exponent import ExponentField
from .grid import GridFunction, GridSpec, ScaleGrid, fourier, inverse_fourier
from .modular_norms import luxemburg_norm, mixed_norm_continuous, mixed_norm_discrete

__all__ = [
    "BesovParams",
    "HypothesisError",
    "besov_continuous",
    "besov_discrete",
    "besov_peetre",
    "besov_local_means",
    "peetre_maximal",
]


class HypothesisError(ValueError):
    """A theorem hypothesis (exponent class, a > n/p-, alpha+ < S+1) fails."""


@dataclass
class BesovParams:
    """Parameter bundle for the evaluators.

    a is the Peetre exponent (only used by the maximal-function norms);
    kernels must match the evaluator (KernelPair for the continuous and
    Peetre norms, DyadicFamily for the discrete norm, LocalMeansKernels
    for local means).
    """

    alpha: ExponentField
    p: ExponentField
    q: ExponentField
    a: float
    scales: ScaleGrid
    kernels: Union[KernelPair, DyadicFamily, LocalMeansKernels]

    def validate(self):
        self.alpha.require_finite("alpha")
        self.p.require_p0("p").require_finite("p")
        self.q.require_p0("q")
        if not (self.q.is_finite or self.q.range_min == math.inf):
            raise HypothesisError("q must be finite everywhere or identically inf")
        return self

    @property
    def q_is_inf(self) -> bool:
        return self.q.range_min == math.inf


def _require_kernels(P: BesovParams, cls, which: str):
    if not isinstance(P.kernels, cls):
        raise TypeError(f"{which} needs kernels of type {cls.__name__}, "
                        f"got {type(P.kernels).__name__}")
    return P.kernels


def _scale_family(fhat: np.ndarray, spec: GridSpec, profile: RadialProfile,
                  scales: ScaleGrid):
    """phi_t * f for every t on the scale grid, from a precomputed transform."""
    radii = spec.xi_radius()
    return [inverse_fourier(GridFunction(spec, fhat * profile(t * radii)))
            for t in scales.t]


def _alpha_weight(alpha: ExponentField, t: float) -> np.ndarray:
    """t^(-alpha(x)) as a sample array."""
    return np.exp(-math.log(t) * alpha.samples)


def _aggregate(low_norm: float, family, P: BesovParams) -> float:
    if P.q_is_inf:
        sup = max((luxemburg_norm(g, P.p) for g in family), default=0.0)
        return low_norm + sup
    return low_norm + mixed_norm_continuous(family, P.p, P.q, P.scales)


def besov_continuous(f: GridFunction, P: BesovParams) -> float:
    """||Phi * f||_p(.) plus the mixed norm of (t^(-alpha(.)) phi_t * f)_t."""
    P.validate()
    pair = _require_kernels(P, KernelPair, "besov_continuous")
    P.scales.require_resolvable(f.spec)
    fhat = fourier(f).values
    radii = f.spec.xi_radius()
    low = inverse_fourier(GridFunction(f.spec, fhat * pair.phi0_hat(radii)))
    low_norm = luxemburg_norm(low, P.p)
    bands = _scale_family(fhat, f.spec, pair.phi_hat, P.scales)
    family = [g.with_values(_alpha_weight(P.alpha, t) * g.values)
              for t, g in zip(P.scales.t, bands)]
    return _aggregate(low_norm, family, P)


def besov_discrete(f: GridFunction, P: BesovParams) -> float:
    """Mixed sequence norm of (2^(v alpha(.)) psi_v * f)_v."""
    P.validate()
    fam = _require_kernels(P, DyadicFamily, "besov_discrete")
    fhat = fourier(f).values
    radii = f.spec.xi_radius()
    blocks = []
    for v in range(fam.v_max + 1):
        block = inverse_fourier(GridFunction(f.spec, fhat * fam.psi_hat(v)(radii)))
        weight = np.exp(math.log(2.0) * v * P.alpha.samples)
        blocks.append(block.with_values(weight * block.values))
    if P.q_is_inf:
        return max((luxemburg_norm(b, P.p) for b in blocks), default=0.0)
    return mixed_norm_discrete(blocks, P.p, P.q)


# --- Peetre maximal functions --------------------------------------------------


def peetre_maximal(f: GridFunction, t: float, a: float, alpha: ExponentField,
                   kernel: RadialProfile) -> GridFunction:
    """max over grid y of t^(-alpha(y)) |k_t * f(y)| / (1 + d(x,y)/t)^a.

    d is the periodic distance; the maximum is exact over all grid points.
    """
    if not a > 0:
        raise ValueError("Peetre exponent a must be positive")
    fhat = fourier(f).values
    return _peetre_from_hat(fhat, f.spec, t, a, alpha, kernel)


def _peetre_from_hat(fhat, spec, t, a, alpha, kernel):
    conv = inverse_fourier(GridFunction(spec, fhat * kernel(t * spec.xi_radius())))
    g = _alpha_weight(alpha, t) * np.abs(conv.values)
    return GridFunction(spec, _weighted_sup(g, t, a, spec))


_TILE = {1: 64, 2: 16}  # tile edge of the x grid, per dimension


def _circulant(w: np.ndarray) -> np.ndarray:
    """View c of shape (N,) * 2n with c[(*y, *x)] = w[(x - y) mod N]:
    w unrolled once per axis, windowed, and reversed along the y axes."""
    view = sliding_window_view(np.tile(w, (2,) * w.ndim), w.shape)
    return view[(slice(w.shape[0], 0, -1),) * w.ndim]


def _weighted_sup(g: np.ndarray, t: float, a: float, spec: GridSpec) -> np.ndarray:
    """out[x] = max over grid y of w[(x - y) mod N] g[y], w = (1 + d/t)^(-a).

    Bit-identical to the full scan over all offsets.  For each tile of x,
    g[y] hi and g[y] lo bound every product of y over the tile (hi / lo:
    the largest / smallest w on the offsets from y to the tile; rounding is
    monotone).  The y are evaluated, as the same products w g the scan
    takes, in descending upper bound, until that bound falls below the
    tile's smallest running maximum; none of the rest can win anywhere.
    """
    N, n = spec.N, spec.n
    k = np.arange(N)
    d1 = spec.h * np.minimum(k, N - k)
    dist = d1 if n == 1 else np.sqrt(d1[:, None] ** 2 + d1[None, :] ** 2)
    w = (1.0 + dist / t) ** (-a)
    T = min(_TILE[n], N)
    # hi / lo: max / min of w over the T^n periodic offsets from each index
    # onward, by doubling the window along each axis
    hi = lo = np.pad(w, (0, T - 1), "wrap")
    for axis in range(n):
        for s in (1 << j for j in range(T.bit_length() - 1)):
            head = (slice(None),) * axis + (slice(-s),)
            tail = (slice(None),) * axis + (slice(s, None),)
            hi, lo = np.maximum(hi[head], hi[tail]), np.minimum(lo[head], lo[tail])
    circ, circ_hi, circ_lo = _circulant(w), _circulant(hi), _circulant(lo)
    gflat, chunk = g.ravel(), max(1, (1 << 16) // T**n)
    out = np.zeros_like(g)
    for corner in itertools.product(range(0, N, T), repeat=n):
        tile = tuple(slice(c, c + T) for c in corner)
        at = (Ellipsis,) + corner
        ub = (g * circ_hi[at]).ravel()
        keep = np.flatnonzero(ub >= (g * circ_lo[at]).max())
        keep = keep[np.argsort(-ub[keep], kind="stable")]
        for start in range(0, keep.size, chunk):
            if ub[keep[start]] < out[tile].min():
                break
            ks = keep[start:start + chunk]
            cand = circ[np.unravel_index(ks, g.shape) + tile]
            cand *= gflat[ks].reshape((-1,) + (1,) * n)
            out[tile] = np.maximum(out[tile], cand.max(axis=0))
    return out


def _maximal_norm(f: GridFunction, P: BesovParams, low_profile: RadialProfile,
                  band_profile: RadialProfile) -> float:
    if not P.a > f.spec.n / P.p.range_min:
        raise HypothesisError(
            f"Peetre exponent a = {P.a} must exceed n/p- = "
            f"{f.spec.n / P.p.range_min:.4f}"
        )
    fhat = fourier(f).values
    zero = ExponentField.from_constant(f.spec, 0.0)
    low = _peetre_from_hat(fhat, f.spec, 1.0, P.a, zero, low_profile)
    low_norm = luxemburg_norm(low, P.p)
    family = [_peetre_from_hat(fhat, f.spec, t, P.a, P.alpha, band_profile)
              for t in P.scales.t]
    return _aggregate(low_norm, family, P)


def besov_peetre(f: GridFunction, P: BesovParams) -> float:
    """Maximal-function form of the continuous norm; dominates it pointwise."""
    P.validate()
    pair = _require_kernels(P, KernelPair, "besov_peetre")
    P.scales.require_resolvable(f.spec)
    return _maximal_norm(f, P, pair.phi0_hat, pair.phi_hat)


def besov_local_means(f: GridFunction, P: BesovParams) -> float:
    """Local-means form: Peetre norm built from (k0, k); requires
    alpha+ < S+1 in addition to a > n/p-."""
    P.validate()
    kern = _require_kernels(P, LocalMeansKernels, "besov_local_means")
    if not P.alpha.range_max < kern.S + 1:
        raise HypothesisError(
            f"local means need alpha+ < S+1; got alpha+ = {P.alpha.range_max} "
            f"with S = {kern.S}"
        )
    return _maximal_norm(f, P, kern.k0_hat, kern.k_hat)
