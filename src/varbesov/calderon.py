"""Frequency-side kernel families: the continuous resolution of unity
{Phi_hat, phi_hat}, the dyadic partition {psi_hat_v}, and local-means
kernels with Tauberian and moment conditions.

All kernels are radial and stored as radial profiles on the multiplier
side: profiles are normalised so that

    Phi_hat(xi) + integral_0^1 phi_hat(t xi) dt/t = 1        (continuous)
    sum_v psi_hat_v(xi) = 1   for |xi| <= 2^v_max            (dyadic)

and applying a kernel to f means multiplying f_hat by the profile at
t|xi| and transforming back.  Each family is one low-pass profile plus one
band profile dilated to every scale: (Phi_hat, phi_hat), (Psi,
Psi - Psi(2 .)) at t = 2^-v, and (k0_hat, k_hat); `multiplier_bank`
samples any of them on a grid.  The continuous pair is built from a smooth
annulus bump a(r) supported in [1/2, 2]: phi_hat = a/c with
c = integral_0^inf a(r)/r dr, which makes the full dt/t integral equal 1
by scale invariance, and Phi_hat(xi) = integral_1^inf phi_hat(t xi) dt/t
accumulated from one evaluation of the bump on a dyadic lattice in
s = log2|xi|.  The pair is built once per (profile,
construction_K, params) per process, shared read-only and certified there:
at the construction rate the reproducing identity is a full-line trapezoid
sum in s, whose error depends on s mod 1/construction_K only, not on the
grid, so it is measured once, on that lattice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, ScaleGrid

__all__ = [
    "RadialProfile",
    "KernelPair",
    "DyadicFamily",
    "LocalMeansKernels",
    "build_continuous_pair",
    "build_dyadic",
    "build_local_means",
    "multiplier_bank",
    "reproducing_residual",
    "export_radial_table",
]

ANNULUS = (0.5, 2.0)
OUTER_RADIUS = 2.0

_DENSE = 1 << 17  # intervals of the s = log2 r lattice on [-1, 1]
_RESIDUAL_TOL = 1e-6  # reproducing residual a built pair must reach


class RadialProfile:
    """Labelled radial function of |xi|; vectorised callable."""

    def __init__(self, fn, label=""):
        self._fn = fn
        self.label = label

    def __call__(self, r):
        return self._fn(np.asarray(r, dtype=float))


def _log2(r):
    """log2 r, with -inf for r <= 0."""
    with np.errstate(divide="ignore"):
        return np.log2(np.maximum(r, 0.0))


def _mollifier(z):
    """exp(1 - 1/(1-z^2)) on |z| < 1, identically 0 outside; peak value 1."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - zi * zi))
    return out


def _smoothstep(z):
    """C-infinity step: 0 for z <= 0, 1 for z >= 1."""
    z = np.asarray(z, dtype=float)
    gz = np.zeros_like(z)
    g1z = np.zeros_like(z)
    pos = z > 0
    gz[pos] = np.exp(-1.0 / z[pos])
    pos1 = (1.0 - z) > 0
    g1z[pos1] = np.exp(-1.0 / (1.0 - z[pos1]))
    return gz / (gz + g1z)


def annulus_bump(kind: str = "mollifier", **params) -> RadialProfile:
    """Smooth bump a(r) supported in [1/2, 2], parametrised in s = log2(r).

    kinds:
      mollifier -- exp-of-reciprocal bump over the full annulus
      gauss     -- Gaussian in s, truncated where it falls below ~1e-15
      mu-eta    -- product of a Gaussian ring (positive on the annulus) and
                   a mollifier strictly inside it, mirroring the two-kernel
                   construction of the reproducing pair
    """
    if kind == "mollifier":
        return RadialProfile(lambda r: _mollifier(_log2(r)), "mollifier")
    if kind == "gauss":
        w = params.get("width", 0.12)
        c = params.get("center", 0.0)
        if abs(c) + 4 * w > 0.99:
            raise ValueError("gauss bump parameters leak outside the annulus")
        def fn(r):
            s = _log2(r)
            return np.where(np.abs(s) < 1.0, np.exp(-((s - c) ** 2) / (2.0 * w * w)), 0.0)
        return RadialProfile(fn, f"gauss(w={w},c={c})")
    if kind == "mu-eta":
        s_lo, s_hi = math.log2(0.55), math.log2(1.9)
        def fn(r):
            ring = np.exp(-(((r - 1.1) / 0.45) ** 2))
            return ring * _mollifier((2.0 * _log2(r) - (s_lo + s_hi)) / (s_hi - s_lo))
        return RadialProfile(fn, "mu-eta")
    raise ValueError(f"unknown bump kind {kind!r}")


@dataclass(frozen=True)
class KernelPair:
    """Resolution-of-unity pair: low-pass profile Phi_hat and annulus
    profile phi_hat, with phi_hat supported in ANNULUS = [1/2, 2] and
    Phi_hat in [0, OUTER_RADIUS].  residual is max |delta/c sum_j b(s + j/K) - 1|
    over all integers j (b(s) = a(2^s), delta = ln2/K): the reproducing
    identity at the construction rate K before the Phi_hat table is
    interpolated, over s = log2|xi| on the construction lattice, which holds
    every residue of s mod 1/K.  NaN for a pair built by hand."""

    phi0_hat: RadialProfile
    phi_hat: RadialProfile
    label: str = ""
    residual: float = math.nan


def _support_leak(profile: RadialProfile, lo: float, hi: float) -> float:
    parts = [np.linspace(hi, 4.0 * hi, 2048)]
    if lo > 0:
        parts.append(np.linspace(0.0, lo, 2048, endpoint=False))
    vals = np.abs(profile(np.concatenate(parts)))
    return float(vals.max())


@lru_cache(maxsize=4)
def _normalised_bump_pair(profile: str, construction_K: int, params: tuple) -> KernelPair:
    """Normalise the bump annulus_bump(profile, **dict(params)) and
    accumulate the low-pass profile; built once per (profile,
    construction_K, params) per process, its tables read-only.  Raises if
    construction_K does not divide 2^16 or either profile leaks outside its
    support; an exception is not cached, so a bad pair raises on every call.

    phi_hat = a/c with c = integral_0^inf a(r)/r dr.  Phi_hat is the upward
    scale integral integral_1^inf phi_hat(t .) dt/t evaluated by the same
    log-geometric trapezoid rule (construction_K nodes per octave,
    half-weight at t = 1) that the downward quadratures use; the two rules
    then join seamlessly at t = 1, so the discrete reproducing identity
    holds to the accuracy of a full-line trapezoid sum of a smooth bump.
    The bump b(s) = a(2^s) is evaluated once, on the lattice s = -1 + i 2^-16
    that gives c; a shift by j/K is j 2^16/K nodes there, so every term of
    0.5 b(s) + sum_j b(s + j/K) (ascending j; b = 0 past s = 1) comes from it.
    Its 2K blocks of 2^16/K nodes (node s = 1, b = 0, dropped) sum to the residual.
    """
    K = construction_K
    if K < 1 or (1 << 16) % K:
        raise ValueError(f"construction_K must divide 2^16, got {K}")
    bump = annulus_bump(profile, **dict(params))
    s_grid = np.linspace(-1.0, 1.0, _DENSE + 1)
    vals = bump(2.0**s_grid)
    c = math.log(2.0) * np.trapezoid(vals, s_grid)
    if not c > 0:
        raise ValueError("annulus bump integrates to zero")

    phi_fn = lambda r: bump(r) / c

    # Phi_hat table in s = log2(r) on the even lattice nodes, spacing 2^-15.
    delta = math.log(2.0) / K
    # vals[shift::2] read from a contiguous even half (every shift is even
    # for K <= 2^15) or, for odd shifts, from the odd half as a view
    s_tab = np.ascontiguousarray(s_grid[::2])
    halves = (np.ascontiguousarray(vals[::2]), vals[1::2])
    acc = 0.5 * halves[0]
    for shift in range(_DENSE // (2 * K), _DENSE, _DENSE // (2 * K)):
        tail = halves[shift % 2][shift // 2:]
        acc[:tail.size] += tail
    phi0_tab = delta * acc / c
    s_tab.setflags(write=False)
    phi0_tab.setflags(write=False)

    def phi0_fn(r):
        s = _log2(r)
        out = np.ones_like(s)
        mid = (s > -1.0) & (s < 1.0)
        out[mid] = np.interp(s[mid], s_tab, phi0_tab)
        out[s >= 1.0] = 0.0
        return np.clip(out, 0.0, 1.0)

    full_line = delta * vals[:-1].reshape(2 * K, -1).sum(axis=0) / c
    pair = KernelPair(
        phi0_hat=RadialProfile(phi0_fn, f"Phi[{profile}]"),
        phi_hat=RadialProfile(phi_fn, f"phi[{profile}]"),
        label=profile,
        residual=float(np.abs(full_line - 1.0).max()),
    )
    leak = max(_support_leak(pair.phi_hat, *ANNULUS),
               _support_leak(pair.phi0_hat, 0.0, OUTER_RADIUS))
    if leak > 1e-12:
        raise ValueError(f"kernel support leaks outside its annulus: {leak:.2e}")
    return pair


def reproducing_residual(pair: KernelPair, radii, check_K: int = 64) -> float:
    """Max over the given |xi| samples of |Phi_hat + sum_j w_j phi_hat(t_j .) - 1|,
    with a dt/t quadrature fine enough (check_K scales per octave) to cover
    the full annulus of every sample."""
    radii = np.asarray(radii, dtype=float).ravel()
    rmax = float(radii.max())
    J = max(1, int(math.ceil(math.log2(max(2.0 * rmax, 2.0)))))
    s = ScaleGrid(check_K, J)
    acc = pair.phi0_hat(radii)
    for t, w in zip(s.t, s.weights):
        acc = acc + w * pair.phi_hat(t * radii)
    return float(np.abs(acc - 1.0).max())


def build_continuous_pair(spec: GridSpec, s: ScaleGrid, profile: str = "mollifier",
                          construction_K: int = 64, **bump_params) -> KernelPair:
    """Construct and verify a resolution-of-unity pair usable on `spec`.

    The pair is shared per (profile, construction_K, params), and its
    support check (phi_hat inside [1/2, 2], Phi_hat inside [0, 2]) and its
    reproducing residual are taken once, where it is built.  Raises if the
    scale grid cannot resolve its smallest annulus on the grid, the only
    check that depends on the grid, or if the pair's residual exceeds 1e-6.
    """
    s.require_resolvable(spec)
    pair = _normalised_bump_pair(profile, construction_K, tuple(sorted(bump_params.items())))
    if pair.residual > _RESIDUAL_TOL:
        raise ValueError(
            f"reproducing residual {pair.residual:.2e} exceeds {_RESIDUAL_TOL:.0e}; "
            "construction quadrature too coarse"
        )
    return pair


# --- dyadic family -------------------------------------------------------------


# Psi: smooth radial cutoff, 1 on r <= 1 and 0 on r >= 2; the band
# Psi - Psi(2 .) is 0 outside (1/2, 2)
_PSI = RadialProfile(lambda r: _smoothstep(2.0 - np.asarray(r, dtype=float)), "Psi")
_PSI_BAND = RadialProfile(lambda r: _PSI(r) - _PSI(2.0 * np.asarray(r, dtype=float)),
                          "Psi-Psi(2.)")


@dataclass(frozen=True)
class DyadicFamily:
    """Dyadic partition of unity: psi_hat_0 = Psi, and for v >= 1
    psi_hat_v(xi) = band(2^-v xi) = Psi(2^-v xi) - Psi(2^(1-v) xi), the band
    profile at scale t = 2^-v."""

    psi0_hat: RadialProfile
    band: RadialProfile
    v_max: int

    def psi_hat(self, v: int):
        """Radial profile of block v as a callable."""
        if not 0 <= v <= self.v_max:
            raise ValueError(f"block index {v} outside 0..{self.v_max}")
        if v == 0:
            return self.psi0_hat
        return RadialProfile(lambda r: self.band(np.asarray(r) * 2.0**-v), f"psi_{v}")

    @property
    def coverage_radius(self) -> float:
        """Partition sums to 1 exactly for |xi| <= 2^v_max."""
        return 2.0**self.v_max

    def partition_residual(self, radii) -> float:
        radii = np.asarray(radii, dtype=float).ravel()
        radii = radii[radii <= self.coverage_radius]
        acc = np.zeros_like(radii)
        for v in range(self.v_max + 1):
            acc += self.psi_hat(v)(radii)
        return float(np.abs(acc - 1.0).max())


def build_dyadic(spec: GridSpec, v_max: int) -> DyadicFamily:
    if v_max < 0:
        raise ValueError(f"the grid resolves no dyadic block (v_max = {v_max}): block 0 "
                         f"needs |xi| up to 2 but xi_max = {spec.xi_max:.1f}")
    if 2.0 ** (v_max + 1) > spec.xi_max:
        raise ValueError(
            f"top annulus needs |xi| up to {2.0 ** (v_max + 1):.0f} but the grid "
            f"resolves only {spec.xi_max:.1f}"
        )
    return DyadicFamily(psi0_hat=_PSI, band=_PSI_BAND, v_max=v_max)


def max_dyadic_level(spec: GridSpec) -> int:
    return int(math.floor(math.log2(spec.xi_max))) - 1


# --- local means ---------------------------------------------------------------


@dataclass(frozen=True)
class LocalMeansKernels:
    """Kernel pair (k0, k) given by radial frequency profiles.

    k has S+1 vanishing moments through the |xi|^(S+1) factor; both
    profiles are positive where the Tauberian conditions require
    (|k0_hat| > 0 on |xi| < 2 eps, |k_hat| > 0 on eps/2 < |xi| < 2 eps).
    """

    k0_hat: RadialProfile
    k_hat: RadialProfile
    S: int
    eps: float

    def tauberian_margins(self) -> tuple:
        """Smallest |k0_hat| on [0, 2 eps) and |k_hat| on (eps/2, 2 eps),
        each over 4096 samples."""
        r0 = np.linspace(0.0, 2.0 * self.eps, 4096, endpoint=False)
        m0 = float(np.abs(self.k0_hat(r0)).min())
        r1 = np.linspace(0.5 * self.eps, 2.0 * self.eps, 4098)[1:-1]
        m1 = float(np.abs(self.k_hat(r1)).min())
        return m0, m1

    def moment_slope(self) -> float:
        """Fitted log-log exponent of |k_hat| as r -> 0; >= S+1 certifies
        the vanishing moments."""
        r = self.eps * np.logspace(-3, -1.5, 40)
        v = np.abs(self.k_hat(r))
        if np.all(v == 0):
            return math.inf
        if self.S == -1:
            return 0.0  # profile tends to the positive constant e at 0
        coef = np.polyfit(np.log(r), np.log(v), 1)
        return float(coef[0])


def build_local_means(S: int, eps: float, spec: GridSpec) -> LocalMeansKernels:
    if S + 1 < 0:
        raise ValueError(f"moment order S must be >= -1, got {S}")
    if not eps > 0:
        raise ValueError("Tauberian radius eps must be positive")
    if 2.0 * eps > spec.xi_max:
        raise ValueError("Tauberian annulus exceeds the resolvable frequencies")

    def k_fn(r, _S=S, _e=eps):
        r = np.asarray(r, dtype=float) / _e
        with np.errstate(invalid="ignore"):
            return r ** (_S + 1) * np.exp(1.0 - r * r)

    def k0_fn(r, _e=eps):
        r = np.asarray(r, dtype=float) / (2.0 * _e)
        return np.exp(-r * r)

    return LocalMeansKernels(
        k0_hat=RadialProfile(k0_fn, "k0"),
        k_hat=RadialProfile(k_fn, "k"),
        S=S,
        eps=eps,
    )


# --- multiplier banks ------------------------------------------------------------
#
# The evaluators apply one kernel at every scale to every function they
# measure, so the multipliers depend only on (kernel, grid, scales): each
# bank is built once, kept read-only and shared by every later call.  The
# cache is small because an experiment uses at most two kernels at a time,
# and each entry keeps its kernel alive.


@lru_cache(maxsize=6)
def multiplier_bank(low: RadialProfile, band: RadialProfile, spec: GridSpec,
                    t: tuple) -> np.ndarray:
    """Read-only (len(t), *spec.shape) stack: low(|xi|), then band(t_j |xi|)
    for every scale t_j, j >= 1, of `t` (t_0 = 1 belongs to the low row)."""
    radii = spec.xi_radius()
    bank = np.stack([low(radii)] + [band(tj * radii) for tj in t[1:]])
    bank.setflags(write=False)
    return bank


# --- export --------------------------------------------------------------------


def export_radial_table(profile: RadialProfile, path, rmax: float):
    """CSV radial table (r, value) at 4096 radii in [0, rmax], for plotting
    and debugging."""
    r = np.linspace(0.0, rmax, 4096)
    v = profile(r)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "value"])
        for ri, vi in zip(r, v):
            writer.writerow([repr(float(ri)), repr(float(vi))])
