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
into the moduli |k_j * f|, once per (function, bank): every triple, and
the continuous and Peetre norms, read them.  The maximal-function norms
replace each row by its Peetre supremum.  The stack goes as it is to
`modular_norms.mixed_norm_continuous` or `mixed_norm_discrete`, which
aggregate it in l^q(.)(L^p(.)).  The Peetre supremum over the torus is
taken over grid points, exactly, and bit-identical to the brute-force
scan: in 1-D the offsets within one tile edge densely and the far ones
through a per-block, then per-point bound, in 2-D every offset densely in
two separable passes, +-k folded along one axis and +-d2 along the other.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calderon import (DyadicFamily, KernelPair, LocalMeansKernels, RadialProfile,
                       multiplier_bank)
from .exponent import ExponentField
from .grid import GridFunction, GridSpec, ScaleGrid, dft, fourier
from .modular_norms import luxemburg_norm, mixed_norm_continuous, mixed_norm_discrete

__all__ = [
    "BesovParams",
    "HypothesisError",
    "besov_continuous",
    "besov_discrete",
    "besov_peetre",
    "besov_local_means",
]


class HypothesisError(ValueError):
    """A theorem hypothesis (exponent class, a > n/p-, alpha+ < S+1, odd S) fails."""


@dataclass(frozen=True)
class BesovParams:
    """Parameter bundle for the evaluators, checked when it is built:
    alpha and p finite, p and q bounded away from 0, q finite everywhere
    or identically inf.

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

    def __post_init__(self):
        self.alpha.require_finite("alpha")
        self.p.require_p0("p").require_finite("p")
        self.q.require_p0("q")
        if not (self.q.is_finite or self.q.range_min == math.inf):
            raise HypothesisError("q must be finite everywhere or identically inf")


def _setup(f: GridFunction, P: BesovParams, cls, which: str):
    """Check P against f and return its kernels, which must be a `cls`."""
    if not isinstance(P.kernels, cls):
        raise TypeError(f"{which} needs kernels of type {cls.__name__}, "
                        f"got {type(P.kernels).__name__}")
    for name in ("alpha", "p", "q"):
        getattr(P, name).require_grid(f.spec, name)
    return P.kernels


# f -> (bank, moduli): one slot per f, gone with it.  A GridFunction is immutable
# and hashed by identity; the slot holds the bank, so no recycled id aliases it.
_MODULI = weakref.WeakKeyDictionary()


def _moduli(f: GridFunction, bank: np.ndarray) -> np.ndarray:
    """Read-only stack |k_j * f| over the bank's rows k_j, once per (f, bank)."""
    slot = _MODULI.get(f)
    if slot is None or slot[0] is not bank:
        moduli = np.abs(dft(fourier(f).values * bank, f.spec, inverse=True))
        moduli.setflags(write=False)
        slot = _MODULI[f] = bank, moduli
    return slot[1]


def _family(moduli: np.ndarray, t, alpha: ExponentField) -> np.ndarray:
    """t_j^(-alpha(.)) times each row of the (T, *shape) moduli stack, as a new
    array; a row at t_j = 1, such as the low-pass row, gets the weight exactly 1."""
    log_t = np.log(np.asarray(t, dtype=float)).reshape((-1,) + (1,) * (moduli.ndim - 1))
    return np.exp(-log_t * alpha.samples) * moduli


def _scale_norm(f: GridFunction, P: BesovParams, low: RadialProfile,
                band: RadialProfile, maximal: bool) -> float:
    """L^p(.) norm of the low-pass row plus the mixed norm of the band rows
    of the family over t = (1, *P.scales.t), each row replaced by its Peetre
    supremum if maximal (which needs a > n/p-)."""
    if maximal and not P.a > f.spec.n / P.p.range_min:
        raise HypothesisError(
            f"Peetre exponent a = {P.a} must exceed n/p- = "
            f"{f.spec.n / P.p.range_min:.4f}"
        )
    t = (1.0, *P.scales.t)
    M = _family(_moduli(f, multiplier_bank(low, band, f.spec, t)), t, P.alpha)
    if maximal:
        M = _weighted_sup(M, t, P.a, f.spec)
    return (luxemburg_norm(GridFunction(P.p.spec, M[0]), P.p)
            + mixed_norm_continuous(M[1:], P.p, P.q, P.scales))


def besov_continuous(f: GridFunction, P: BesovParams) -> float:
    """||Phi * f||_p(.) plus the mixed norm of (t^(-alpha(.)) phi_t * f)_t."""
    pair = _setup(f, P, KernelPair, "besov_continuous")
    P.scales.require_resolvable(f.spec)
    return _scale_norm(f, P, pair.phi0_hat, pair.phi_hat, False)


def besov_discrete(f: GridFunction, P: BesovParams) -> float:
    """Mixed sequence norm of (2^(v alpha(.)) psi_v * f)_v."""
    fam = _setup(f, P, DyadicFamily, "besov_discrete")
    t = tuple(2.0 ** -np.arange(fam.v_max + 1))
    bank = multiplier_bank(fam.psi0_hat, fam.band, f.spec, t)
    return mixed_norm_discrete(_family(_moduli(f, bank), t, P.alpha), P.p, P.q)


# --- Peetre maximal functions --------------------------------------------------


_TILE = 32  # 1-D tile edge of the x grid
_GROUP = 1 << 14  # w entries per 1-D row group: 2^14 // N rows
_CHUNK = 1 << 15  # products per 1-D gather
_BLOCK = 16  # offsets d2 per 2-D stage-1 pass


def _window_max(x: np.ndarray, T: int) -> np.ndarray:
    """Max of x over the T periodic offsets from each index onward, for a
    stack of 1-D rows (axis 0): the window doubles T.bit_length() - 1 times."""
    x = np.pad(x, [(0, 0), (0, T - 1)], "wrap")
    for s in (1 << j for j in range(T.bit_length() - 1)):
        x = np.maximum(x[:, :-s], x[:, s:])
    return x


def _sup_1d(g: np.ndarray, w: np.ndarray, T: int, o: np.ndarray) -> None:
    """o = max(o, max over y of w[r, x - y] g[r, y]) for a (rows, N) group,
    with o at +0: the near offsets densely, the far ones pruned (see
    `_weighted_sup`)."""
    rows, N = g.shape
    R, nt = min(T, N // 2), N // T
    gp, buf = np.pad(g, [(0, 0), (R, R)], "wrap"), np.empty_like(o)
    for k in range(R + 1):
        np.maximum(gp[:, R - k:R - k + N], gp[:, R + k:R + k + N], out=buf)
        buf *= w[:, k:k + 1]
        np.maximum(o, buf, out=o)
    # hif[r, b, s]: the largest far w of row r over the T offsets from
    # y = j T + s to tile i, for b = (j - i) mod nt; lo[r, m]: its smallest w
    # over the aligned offset blocks m - 1 and m, which for m = (i - j) mod nt
    # hold the 2T - 1 offsets from block j to tile i
    k = np.arange(N)
    far = np.where(np.minimum(k, N - k) > R, w, 0.0)
    hif = _window_max(far, T)[:, -k % N].reshape(rows, nt, T)
    lo = w.reshape(rows, nt, T).min(axis=2)
    lo = np.minimum(np.roll(lo, 1, axis=1), lo)
    gb, ji = g.reshape(rows, nt, T), (np.arange(nt) - np.arange(nt)[:, None]) % nt
    top = gb.max(axis=2)[:, None, :]
    ub = top * hif.max(axis=2)[:, ji]
    lb = (top * lo[:, -ji % nt]).max(axis=2)
    lb = np.maximum(o.reshape(rows, nt, T).min(axis=2), lb).ravel()
    rk, ik, jk = np.nonzero((ub >= lb.reshape(rows, nt, 1)) & (ub > 0))
    # the points of the kept blocks, kept on the same test
    b, gy, cell = (jk - ik) % nt, gb[rk, jk], rk * nt + ik
    ub = gy * hif[rk, b]
    keep = np.flatnonzero((ub >= lb[cell, None]) & (ub > 0))
    win = sliding_window_view(np.pad(w, [(0, 0), (0, T - 1)], "wrap"), T, axis=1)
    o2 = o.reshape(-1, T)
    for c in range(0, keep.size, _CHUNK // T):
        ks = keep[c:c + _CHUNK // T]
        p, s = np.divmod(ks, T)
        cand = win[rk[p], -(b[p] * T + s) % N]
        cand *= gy.ravel()[ks, None]
        cs = cell[p]
        starts = np.flatnonzero(np.diff(cs, prepend=-1))
        o2[cs[starts]] = np.maximum(o2[cs[starts]], np.maximum.reduceat(cand, starts))


def _sup_2d(g: np.ndarray, w: np.ndarray, o: np.ndarray) -> None:
    """o = max(o, max over y of w[x - y] g[y]) for one (N, N) row, with o
    at +0, in two dense stages over d2 blocks (see `_weighted_sup`)."""
    N, R = len(g), len(g) // 2
    gp, fold = np.pad(g, [(R, R), (0, 0)], "wrap"), np.empty_like(g)
    H, prod = np.empty((_BLOCK, N, N)), np.empty((_BLOCK, N, N))
    for b0 in range(0, R + 1, _BLOCK):
        b1 = min(b0 + _BLOCK, R + 1)
        h, p = H[:b1 - b0], prod[:b1 - b0]
        np.multiply(w[0, b0:b1, None, None], g, out=h)
        for k in range(1, R + 1):
            np.maximum(gp[R - k:R - k + N], gp[R + k:R + k + N], out=fold)
            np.multiply(w[k, b0:b1, None, None], fold, out=p)
            np.maximum(h, p, out=h)
        # h[j] wrapped along its last axis: x2 - d2 starts at (N - d2) % N
        h = np.concatenate((h, h), axis=2)
        for j, d2 in enumerate(range(b0, b1)):
            np.maximum(o, h[j, :, (N - d2) % N:(N - d2) % N + N], out=o)
            np.maximum(o, h[j, :, d2:d2 + N], out=o)


def _weighted_sup(G: np.ndarray, t, a: float, spec: GridSpec) -> np.ndarray:
    """out[j, x] = max over grid y of w_j[(x - y) mod N] G[j, y], with
    w_j = (1 + d/t_j)^(-a), for each row G[j] of the scale stack G.

    Bit-identical to the full scan over all offsets, NaN rows included (all
    NaN): out starts at +0, no product is negative, and every product kept
    is the same w g the scan takes.  Rounding is monotone and w_j is even
    along each axis bit for bit (w_j[k] = w_j[N - k]), so w max(u, v) =
    max(w u, w v): the two offsets +-k of one distance are folded before
    the product.

    1-D works on groups of 2^14 // N rows, cut into tiles of T = _TILE
    points x.  Its near field, every offset of index distance at most
    R = T (capped at N/2), is taken densely, one folded slice per k.  Its
    far field is pruned per (row, tile): G[j, y] hi_j bounds every far
    product of y over the tile (hi: the largest far w_j on the offsets from
    y to the tile), first per block of T points y (the block's largest G
    times the largest far w over the 2T - 1 block-to-tile offsets), then
    per point of the kept blocks, and a y whose bound is below the tile's
    lower bound, or is 0, is skipped.  That lower bound is the larger of
    the tile's smallest near value and the largest block term, a block's
    largest G times the smallest w over the two aligned offset blocks that
    hold its offsets to the tile, so far peaks that dominate a row still
    prune its tails.  The kept points are gathered as windows of w_j,
    _CHUNK products at a time, and max-reduced per tile.

    2-D goes row by row and is separable and dense, with no bound: stage 1
    takes H[d2, x1, y2] = max over k <= N/2 of w_j[k, d2] times the +-k
    fold of G[j] along axis 0, stage 2 out[x1, x2] = max over d2 <= N/2 of
    H[d2, x1, x2 - d2] and H[d2, x1, x2 + d2].  That is (N/2 + 1)^2 N^2
    products per row, contiguous slices only; d2 goes in blocks of
    _BLOCK, so no work array exceeds _BLOCK N^2.
    """
    t, d, N, n = np.asarray(t, dtype=float), spec.offset_distance(), spec.N, spec.n
    out = np.zeros(G.shape)
    rows = max(1, _GROUP // N) if n == 1 else 1
    for r0 in range(0, len(G), rows):
        g, o = G[r0:r0 + rows], out[r0:r0 + rows]
        w = (1.0 + d / t[r0:r0 + rows].reshape((-1,) + (1,) * n)) ** (-a)
        if n == 1:
            _sup_1d(g, w, min(_TILE, N), o)
        else:
            _sup_2d(g[0], w[0], o[0])
    out[np.isnan(G).reshape(len(G), -1).any(axis=1)] = np.nan
    return out


def besov_peetre(f: GridFunction, P: BesovParams) -> float:
    """Maximal-function form of the continuous norm; dominates it pointwise."""
    pair = _setup(f, P, KernelPair, "besov_peetre")
    P.scales.require_resolvable(f.spec)
    return _scale_norm(f, P, pair.phi0_hat, pair.phi_hat, True)


def besov_local_means(f: GridFunction, P: BesovParams) -> float:
    """Local-means form: Peetre norm built from (k0, k); requires alpha+ < S+1
    and S odd or -1 (for even S, |xi|^(S+1) is not smooth at 0, and k decays
    only like |x|^-(n+S+1)) in addition to a > n/p-."""
    kern = _setup(f, P, LocalMeansKernels, "besov_local_means")
    if not P.alpha.range_max < kern.S + 1:
        raise HypothesisError(
            f"local means need alpha+ < S+1; got alpha+ = {P.alpha.range_max} "
            f"with S = {kern.S}"
        )
    if kern.S % 2 == 0:
        raise HypothesisError(
            f"local means need S odd or -1, so that |xi|^(S+1) is smooth; got S = {kern.S}"
        )
    return _scale_norm(f, P, kern.k0_hat, kern.k_hat, True)
