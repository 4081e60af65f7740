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
s = log2|xi|.  The pair is built once per profile per process, shared
read-only and certified there: phi_hat must vanish off the annulus (Phi_hat
is 0 from r = 2 on by construction), and at the construction rate the
reproducing identity is a full-line trapezoid sum in s, whose error depends
on s mod 1/K only, not on the grid, so it is measured once, on that lattice.
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
    "export_radial_table",
]

ANNULUS = (0.5, 2.0)

_DENSE = 1 << 17  # intervals of the s = log2 r lattice on [-1, 1]
_CONSTRUCTION_K = 64  # nodes per octave of the Phi_hat quadrature
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
    zi *= zi  # op for op in place: a kernel build's 2^17 points set a run's peak memory
    np.subtract(1.0, zi, out=zi)
    np.divide(1.0, zi, out=zi)
    out[inside] = np.exp(np.subtract(1.0, zi, out=zi), out=zi)
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


def annulus_bump(kind: str = "mollifier") -> RadialProfile:
    """Smooth bump a(r) supported in [1/2, 2], parametrised in s = log2(r).

    kinds:
      mollifier -- exp-of-reciprocal bump over the full annulus
      gauss     -- Gaussian in s of width 0.12, cut where it falls below ~1e-15
      mu-eta    -- product of a Gaussian ring (positive on the annulus) and
                   a mollifier strictly inside it, mirroring the two-kernel
                   construction of the reproducing pair
    """
    if kind == "mollifier":
        return RadialProfile(lambda r: _mollifier(_log2(r)), "mollifier")
    if kind == "gauss":
        def fn(r):
            s = _log2(r)
            return np.where(np.abs(s) < 1.0, np.exp(-(s**2) / (2.0 * 0.12 * 0.12)), 0.0)
        return RadialProfile(fn, "gauss")
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
    Phi_hat in [0, 2].  residual is max |delta/c sum_j b(s + j/K) - 1|
    over all integers j (b(s) = a(2^s), delta = ln2/K): the reproducing
    identity at the construction rate K before the Phi_hat table is
    interpolated, over s = log2|xi| on the construction lattice, which holds
    every residue of s mod 1/K.  NaN for a pair built by hand."""

    phi0_hat: RadialProfile
    phi_hat: RadialProfile
    label: str = ""
    residual: float = math.nan


def _support_leak(profile: RadialProfile) -> float:
    lo, hi = ANNULUS
    r = np.concatenate([np.linspace(hi, 4.0 * hi, 2048),
                        np.linspace(0.0, lo, 2048, endpoint=False)])
    return float(np.abs(profile(r)).max())


@lru_cache(maxsize=4)
def _normalised_bump_pair(profile: str) -> KernelPair:
    """Normalise the bump annulus_bump(profile) and accumulate the low-pass
    profile; built once per profile per process, its tables read-only.
    Raises if phi_hat leaks outside ANNULUS (Phi_hat is 0 from r = 2 on by
    construction); an exception is not cached, so a bad pair raises on
    every call.

    phi_hat = a/c with c = integral_0^inf a(r)/r dr.  Phi_hat is the upward
    scale integral integral_1^inf phi_hat(t .) dt/t evaluated by the same
    log-geometric trapezoid rule (K = _CONSTRUCTION_K nodes per octave,
    half-weight at t = 1) that the downward quadratures use; the two rules
    then join seamlessly at t = 1, so the discrete reproducing identity
    holds to the accuracy of a full-line trapezoid sum of a smooth bump.
    The bump b(s) = a(2^s) is evaluated once, on the lattice s = -1 + i 2^-16
    that gives c; a shift by j/K is j 2^16/K nodes there, so every term of
    0.5 b(s) + sum_j b(s + j/K) (ascending j; b = 0 past s = 1) comes from it.
    Its 2K blocks of 2^16/K nodes (node s = 1, b = 0, dropped) sum to the residual.
    """
    K = _CONSTRUCTION_K
    bump = annulus_bump(profile)
    s_grid = np.linspace(-1.0, 1.0, _DENSE + 1)
    vals = bump(2.0**s_grid)
    c = math.log(2.0) * np.trapezoid(vals, s_grid)

    phi_fn = lambda r: bump(r) / c

    # Phi_hat table on the even lattice nodes, where a shift by j/K is j 2^15/K nodes
    delta = math.log(2.0) / K
    s_tab = np.ascontiguousarray(s_grid[::2])
    even = np.ascontiguousarray(vals[::2])
    acc = 0.5 * even
    for start in range(_DENSE // (4 * K), _DENSE // 2, _DENSE // (4 * K)):
        tail = even[start:]
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
    leak = _support_leak(pair.phi_hat)
    if leak > 1e-12:
        raise ValueError(f"kernel support leaks outside its annulus: {leak:.2e}")
    return pair


def build_continuous_pair(spec: GridSpec, s: ScaleGrid,
                          profile: str = "mollifier") -> KernelPair:
    """Construct and verify a resolution-of-unity pair usable on `spec`.

    The pair is shared per profile, and its support check (phi_hat inside
    [1/2, 2]) and its reproducing residual are taken once, where it is
    built.  Raises if the
    scale grid cannot resolve its smallest annulus on the grid, the only
    check that depends on the grid, or if the pair's residual exceeds 1e-6.
    """
    s.require_resolvable(spec)
    pair = _normalised_bump_pair(profile)
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
