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

Each evaluator measures one family over the scales, held as a (T, *shape)
array: t^(-alpha(.)) |ifft(f_hat * bank)|, where the bank stacks the
kernel's low-pass multiplier at t_0 = 1 and its band multipliers
band(t_j |xi|) (for the dyadic norm the blocks psi_v, the band
Psi - Psi(2 .) at t_v = 2^-v).  All three kernel families go through the
one `calderon.multiplier_bank`, built once per (kernel, grid, scales) and
shared by every later call; one batched inverse transform turns a bank
into the whole family.  The maximal-function norms replace each row by
its Peetre supremum.  The stack goes as it is to
`modular_norms.mixed_norm_continuous` or `mixed_norm_discrete`, which
aggregate it in l^q(.)(L^p(.)); q identically inf replaces that by the
largest row norm (one row-batched Luxemburg solve,
`modular_norms.luxemburg_rows`).  The Peetre supremum
over the torus is taken over grid points, exactly: no window truncates the
far points and no flag selects a slower exact sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calderon import (DyadicFamily, KernelPair, LocalMeansKernels, RadialProfile,
                       multiplier_bank)
from .exponent import ExponentField
from .grid import GridFunction, GridSpec, ScaleGrid, _circulant, dft, fourier
from .modular_norms import (luxemburg_norm, luxemburg_rows, mixed_norm_continuous,
                            mixed_norm_discrete)

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


def _setup(f: GridFunction, P: BesovParams, cls, which: str):
    """Validate P against f and return its kernels, which must be a `cls`."""
    P.validate()
    if not isinstance(P.kernels, cls):
        raise TypeError(f"{which} needs kernels of type {cls.__name__}, "
                        f"got {type(P.kernels).__name__}")
    for name in ("alpha", "p", "q"):
        if getattr(P, name).spec != f.spec:
            raise ValueError(f"{name} is sampled on a different grid than f")
    return P.kernels


def _family(f: GridFunction, bank: np.ndarray, t, alpha: ExponentField) -> np.ndarray:
    """t_j^(-alpha(.)) |k_j * f| for every row k_j of the bank, as one
    (T, *shape) array; a row at t_j = 1, such as the low-pass row, gets the
    weight exactly 1."""
    moduli = np.abs(dft(fourier(f).values * bank, f.spec, inverse=True))
    log_t = np.log(np.asarray(t, dtype=float)).reshape((-1,) + (1,) * f.spec.n)
    return np.exp(-log_t * alpha.samples) * moduli


def _aggregate(G: np.ndarray, P: BesovParams, continuous: bool) -> float:
    """Mixed norm of the (T, *shape) family G, over P.scales if continuous
    and over the dyadic blocks if not, or its largest row norm for q = inf."""
    if P.q_is_inf:
        return float(luxemburg_rows(G, P.p).max())
    if continuous:
        return mixed_norm_continuous(G, P.p, P.q, P.scales)
    return mixed_norm_discrete(G, P.p, P.q)


def _low_plus_bands(M: np.ndarray, P: BesovParams) -> float:
    """L^p(.) norm of the low-pass row M[0] plus the aggregate of the bands M[1:]."""
    return luxemburg_norm(GridFunction(P.p.spec, M[0]), P.p) + _aggregate(M[1:], P, True)


def besov_continuous(f: GridFunction, P: BesovParams) -> float:
    """||Phi * f||_p(.) plus the mixed norm of (t^(-alpha(.)) phi_t * f)_t."""
    pair = _setup(f, P, KernelPair, "besov_continuous")
    P.scales.require_resolvable(f.spec)
    t = (1.0, *P.scales.t)
    bank = multiplier_bank(pair.phi0_hat, pair.phi_hat, f.spec, t)
    return _low_plus_bands(_family(f, bank, t, P.alpha), P)


def besov_discrete(f: GridFunction, P: BesovParams) -> float:
    """Mixed sequence norm of (2^(v alpha(.)) psi_v * f)_v."""
    fam = _setup(f, P, DyadicFamily, "besov_discrete")
    t = tuple(2.0 ** -np.arange(fam.v_max + 1))
    bank = multiplier_bank(fam.psi0_hat, fam.band, f.spec, t)
    return _aggregate(_family(f, bank, t, P.alpha), P, False)


# --- Peetre maximal functions --------------------------------------------------


def peetre_maximal(f: GridFunction, t: float, a: float, alpha: ExponentField,
                   kernel: RadialProfile) -> GridFunction:
    """max over grid y of t^(-alpha(y)) |k_t * f(y)| / (1 + d(x,y)/t)^a.

    d is the periodic distance; the maximum is exact over all grid points.
    """
    if not a > 0:
        raise ValueError("Peetre exponent a must be positive")
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"scale t must be finite and positive, got {t}")
    G = _family(f, kernel(t * f.spec.xi_radius())[None], (t,), alpha)
    return GridFunction(f.spec, _weighted_sup(G, (t,), a, f.spec)[0])


_TILE = {1: 32, 2: 16}  # tile edge of the x grid, per dimension
_GROUP = 1 << 14  # w entries per 1-D row group: 2^14 // N rows
_CHUNK = 1 << 15  # products per 1-D gather


def _weighted_sup(G: np.ndarray, t, a: float, spec: GridSpec) -> np.ndarray:
    """out[j, x] = max over grid y of w_j[(x - y) mod N] G[j, y], with
    w_j = (1 + d/t_j)^(-a), for each row G[j] of the scale stack G.

    Bit-identical to the full scan over all offsets, NaN rows included (all
    NaN).  Per tile of x, G[j, y] hi_j and G[j, y] lo_j bound every product
    of y over the tile (hi / lo: the largest / smallest w_j on the offsets
    from y to the tile; rounding is monotone), so only the y whose upper
    bound reaches the tile's largest lower bound and is positive are
    evaluated, as the same products w g the scan takes (out starts at +0
    and no product is negative, so an all-zero row keeps nothing).  1-D
    prunes 2^14 // N rows at once: their bounds are contiguous slices of hi
    and lo stored reversed and unrolled, and the kept products are gathered
    as windows of w_j, a bounded chunk at a time, and reduced per row.  It has no ordered stop: at N <= 1024 a
    row's kept y fit in one round of 1024, so a stop checked between rounds
    would never fire.  2-D goes row by row in descending upper bound and
    stops once it falls below the tile's smallest running maximum; that stop
    saves most products in 2-D, where batched rows measured 2-5x slower.
    """
    t, d, N, n = np.asarray(t, dtype=float), spec.offset_distance(), spec.N, spec.n
    T, out, rev = min(_TILE[n], N), np.zeros_like(G), -np.arange(2 * N) % N
    rows = max(1, _GROUP // N) if n == 1 else 1
    for r0 in range(0, len(G), rows):
        g, o = G[r0:r0 + rows], out[r0:r0 + rows]
        w = (1.0 + d / t[r0:r0 + rows].reshape((-1,) + (1,) * n)) ** (-a)
        # hi / lo: max / min of w over the T^n periodic offsets from each
        # index onward, by doubling the window along each axis
        hi = lo = wp = np.pad(w, [(0, 0)] + [(0, T - 1)] * n, "wrap")
        for axis in range(1, n + 1):
            for s in (1 << j for j in range(T.bit_length() - 1)):
                head = (slice(None),) * axis + (slice(-s),)
                tail = (slice(None),) * axis + (slice(s, None),)
                hi, lo = np.maximum(hi[head], hi[tail]), np.minimum(lo[head], lo[tail])
        if n == 1:
            hi, lo, win = hi[:, rev], lo[:, rev], sliding_window_view(wp, T, axis=1)
            for c in range(0, N, T):
                ub = g * hi[:, N - c:2 * N - c]
                lb = (g * lo[:, N - c:2 * N - c]).max(axis=1, keepdims=True)
                keep = np.flatnonzero((ub >= lb) & (ub > 0))
                for s in range(0, keep.size, _CHUNK // T):
                    ks = keep[s:s + _CHUNK // T]
                    rs, ys = np.divmod(ks, N)
                    cand = win[rs, (c - ys) % N]
                    cand *= g.ravel()[ks, None]
                    starts = np.flatnonzero(np.diff(rs, prepend=-1))
                    at = (rs[starts], slice(c, c + T))
                    o[at] = np.maximum(o[at], np.maximum.reduceat(cand, starts))
            continue
        g, o = g[0], o[0]
        circ, circ_hi, circ_lo = _circulant(w[0]), _circulant(hi[0]), _circulant(lo[0])
        gflat, chunk = g.ravel(), max(1, (1 << 16) // T**n)
        for corner in itertools.product(range(0, N, T), repeat=n):
            tile = tuple(slice(c, c + T) for c in corner)
            at = (Ellipsis,) + corner
            ub = (g * circ_hi[at]).ravel()
            keep = np.flatnonzero((ub >= (g * circ_lo[at]).max()) & (ub > 0))
            keep = keep[np.argsort(-ub[keep], kind="stable")]
            for start in range(0, keep.size, chunk):
                if ub[keep[start]] < o[tile].min():
                    break
                ks = keep[start:start + chunk]
                cand = circ[np.unravel_index(ks, g.shape) + tile]
                cand *= gflat[ks].reshape((-1,) + (1,) * n)
                o[tile] = np.maximum(o[tile], cand.max(axis=0))
    out[np.isnan(G).reshape(len(G), -1).any(axis=1)] = np.nan
    return out


def _maximal_norm(f: GridFunction, P: BesovParams, low_profile: RadialProfile,
                  band_profile: RadialProfile) -> float:
    if not P.a > f.spec.n / P.p.range_min:
        raise HypothesisError(
            f"Peetre exponent a = {P.a} must exceed n/p- = "
            f"{f.spec.n / P.p.range_min:.4f}"
        )
    t = (1.0, *P.scales.t)
    bank = multiplier_bank(low_profile, band_profile, f.spec, t)
    return _low_plus_bands(_weighted_sup(_family(f, bank, t, P.alpha), t, P.a, f.spec), P)


def besov_peetre(f: GridFunction, P: BesovParams) -> float:
    """Maximal-function form of the continuous norm; dominates it pointwise."""
    pair = _setup(f, P, KernelPair, "besov_peetre")
    P.scales.require_resolvable(f.spec)
    return _maximal_norm(f, P, pair.phi0_hat, pair.phi_hat)


def besov_local_means(f: GridFunction, P: BesovParams) -> float:
    """Local-means form: Peetre norm built from (k0, k); requires
    alpha+ < S+1 in addition to a > n/p-."""
    kern = _setup(f, P, LocalMeansKernels, "besov_local_means")
    if not P.alpha.range_max < kern.S + 1:
        raise HypothesisError(
            f"local means need alpha+ < S+1; got alpha+ = {P.alpha.range_max} "
            f"with S = {kern.S}"
        )
    return _maximal_norm(f, P, kern.k0_hat, kern.k_hat)
