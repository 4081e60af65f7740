"""Numeric oracles for the supporting inequalities behind the norm
equivalences.

Each oracle returns the smallest empirical constant that makes its
inequality hold on the supplied inputs (a max of pointwise ratios, or a
ratio of norms).  The inequalities themselves never quantify their
constants, so the testable rendering is: the constant is finite, stable
under grid refinement, and visibly degrades when a hypothesis is broken.
Ratios are homogeneous of degree zero in the input functions.

Families over the scales are (T, *shape) stacks, row j at scale t_j, on
the grid of the exponent fields; each is convolved with eta_{t,m} in one
batched transform and band-averaged through one (T, T) weight matrix.

Vacuous cases (identically zero inputs) return NaN, except where a zero
limit is the natural value of the ratio.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .calderon import _PSI, KernelPair, RadialProfile, annulus_bump, multiplier_bank
from .exponent import ExponentField
from .grid import GridFunction, GridSpec, ScaleGrid, dft, eta_periodized
from .modular_norms import (
    luxemburg_norm,
    mixed_norm_continuous,
    mixed_norm_discrete,
    power_quotient_norm,
)

__all__ = [
    "check_transfer",
    "check_dzw",
    "check_hardy",
    "check_rtrick",
    "check_eta_conv_discrete",
    "check_eta_conv_continuous",
    "check_averaged",
    "averaged_family",
    "check_reproducing_bounds",
    "check_rychkov_decay",
]

_DEN_FLOOR = 1e-30  # pointwise ratios ignore cells where both sides vanish

# r-trick profiles: theta is any Schwartz profile; omega is the annulus
# bump squeezed into [1/4, 7/8], inside the unit ball
_RTRICK_THETA = RadialProfile(lambda rr: np.exp(-np.asarray(rr, dtype=float) ** 2 / 2.0),
                              "theta")
_MOLLIFIER_BUMP = annulus_bump("mollifier")
_RTRICK_OMEGA = RadialProfile(
    lambda rr: _MOLLIFIER_BUMP(np.asarray(rr, dtype=float) * (2.0 / 0.875)), "omega")
# smooth low-pass profile supported in |xi| <= 2, for the reproducing bounds:
# the dyadic cutoff Psi
_REPRODUCING_THETA = _PSI
_RYCHKOV_T_FIT_MAX = 0.125  # the decay fit uses t <= this, where the power law is clean
_RYCHKOV_N_W = 2.0  # exponent of the decay weight (1+|z|)^N_w
_RYCHKOV_SCALES = ScaleGrid(4, 6)  # t = 2^(-j/4) down to 2^-6, before the fit's cuts


def _eta_convolve(F: np.ndarray, t, m: float, spec: GridSpec) -> np.ndarray:
    """Row j is eta_{t_j,m} * F_j on the torus (true convolution, mass c(m));
    t is one scale for every row or one scale per row.  The product is
    formed as in the tests' reference `convolve_kernel` (tests/oracles.py),
    so each row equals
    convolve_kernel(F_j, fourier(GridFunction(spec, eta_periodized(t_j, m, spec))))."""
    kernels = eta_periodized(np.atleast_1d(t), m, spec)
    prod = (2.0 * np.pi) ** (spec.n / 2.0) * dft(F.astype(complex), spec) * dft(kernels, spec)
    return dft(prod, spec, inverse=True)


def _ratio_max(num: np.ndarray, den: np.ndarray) -> float:
    scale = float(den.max())
    if scale <= 0.0:
        return math.nan
    mask = den > _DEN_FLOOR * scale  # holds at the maximum of a finite den
    return float((num[mask] / den[mask]).max())


# --- smoothness transfer: t^(-alpha(x)) eta_{t,m+R} <= c t^(-alpha(y)) eta_{t,m}


def check_transfer(alpha: ExponentField, t: float, R: float) -> float:
    """Empirical constant for moving t^(-alpha) across the kernel.

    Equals the max over grid pairs of t^(alpha(y)-alpha(x)) (1+d/t)^(-R),
    taken per offset from the field's cached `oscillation`.  The decay
    order m cancels from eta_{t,m+R} / eta_{t,m}, so the constant does not
    depend on it.  Warns when R is below the estimated log-Holder constant
    of alpha (the hypothesis of the inequality), and still computes the
    constant so the degradation is observable.
    """
    if not t > 0:
        raise ValueError("need t > 0")
    clog = alpha.clog_local
    if R < clog:
        warnings.warn(
            f"transfer hypothesis unmet: R = {R} below c_log(alpha) ~ {clog:.3f}",
            stacklevel=2,
        )
    w = (1.0 + alpha.spec.offset_distance() / t) ** (-R)
    return float((w * np.exp(-math.log(t) * alpha.oscillation)).max())


# --- norm comparison || f ||_p^(q-) <= || |f|^q ||_(p/q) ------------------------


def check_dzw(f: GridFunction, p: ExponentField, q: ExponentField) -> bool:
    """True when the power-quotient comparison holds (within 1e-8 slack).

    Caller must arrange || |f|^{q(.)} ||_{p/q} >= 1; raises otherwise.
    """
    rhs = power_quotient_norm(f, p, q)
    if rhs < 1.0 - 1e-9:
        raise ValueError(f"hypothesis || |f|^q ||_(p/q) >= 1 fails: {rhs}")
    lhs = luxemburg_norm(f, p) ** q.range_min
    return bool(lhs <= rhs * (1.0 + 1e-8))


# --- Hardy-type inequality on scale families ------------------------------------


def check_hardy(eps: np.ndarray, s_exp: float, scales: ScaleGrid) -> float:
    """Ratio (integral of the two tail transforms) / (integral of eps).

    eta_t = t^s * integral_t^1 tau^(-s) eps_tau dtau/tau and
    delta_t = t^(-s) * integral_0^t tau^s eps_tau dtau/tau are accumulated
    on the scale grid (the lower tail is truncated at the smallest scale);
    the inequality bounds the ratio by a constant depending only on s.
    """
    if not s_exp > 0:
        raise ValueError("Hardy exponent s must be positive")
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (len(scales),) or not np.all(eps >= 0):
        raise ValueError("eps must be a nonnegative family on the scale grid")
    t = scales.t
    w = scales.weights
    total = float(np.dot(w, eps))
    if total == 0.0:
        return 0.0
    eta = t ** s_exp * (_band_weights((1.0, math.inf), scales) @ (t ** (-s_exp) * eps))
    dlt = t ** (-s_exp) * (_band_weights((0.0, 1.0), scales) @ (t ** s_exp * eps))
    return float((np.dot(w, eta) + np.dot(w, dlt)) / total)


# --- band-limited self-improvement (the r-trick) --------------------------------


def check_rtrick(g: GridFunction, N_dil: float, r: float, m: float) -> float:
    """max_x |theta_N * omega_N * g| / (eta_{1/N,m} * |omega_N * g|^r)^(1/r).

    omega is band-limited to the unit ball (the annulus bump squeezed into
    [1/4, 7/8]); theta is the Gaussian exp(-|xi|^2/2), a Schwartz profile.
    The constant should be stable in the dilation N (scale uniformity).
    """
    if not (r > 0 and m > g.spec.n and N_dil >= 1):
        raise ValueError("need r > 0, m > n and N_dil >= 1")
    t = 1.0 / N_dil
    spec = g.spec
    radii = spec.xi_radius()
    c = (2 * np.pi) ** (spec.n / 2)
    u = dft(dft(g.values, spec) * _RTRICK_OMEGA(t * radii) * c, spec, inverse=True)
    if float(np.abs(u).max()) == 0.0:
        return math.nan
    num = np.abs(dft(dft(u, spec) * _RTRICK_THETA(t * radii) * c, spec, inverse=True))
    pw = np.abs(u) ** r
    den = np.abs(_eta_convolve(pw[None], t, m, spec)[0]) ** (1.0 / r)
    return _ratio_max(num, den)


# --- convolution bounds on mixed norms ------------------------------------------


def check_eta_conv_discrete(F: np.ndarray, p: ExponentField, q: ExponentField,
                            m: float) -> float:
    """Mixed-norm ratio of (eta_{2^-v,m} * f_v)_v to (f_v)_v, F the (V, *shape)
    stack of the f_v."""
    den = mixed_norm_discrete(F, p, q)
    if den == 0.0:
        return 0.0
    conv = _eta_convolve(F, 2.0 ** -np.arange(len(F)), m, p.spec)
    return mixed_norm_discrete(conv, p, q) / den


def check_eta_conv_continuous(F: np.ndarray, p: ExponentField, q: ExponentField,
                              m: float, s: ScaleGrid) -> float:
    """Continuous version: eta_{t,m} * f_t against f_t over the scale grid."""
    den = mixed_norm_continuous(F, p, q, s)
    if den == 0.0:
        return 0.0
    return mixed_norm_continuous(_eta_convolve(F, s.t, m, p.spec), p, q, s) / den


def _band_weights(band: tuple, s: ScaleGrid) -> np.ndarray:
    """(T, T) matrix whose row i holds the trapezoid dt/t weights over
    tau in [band[0] * t_i, band[1] * t_i] on the scale grid (clipped to its
    range; a row that meets fewer than two nodes is zero).  t is monotone,
    so the nodes of a row are contiguous: each weighs delta = ln 2 / K and
    the two at its ends delta / 2."""
    t, delta = s.t, math.log(2.0) / s.K
    node = np.pad((t >= band[0] * t[:, None]) & (t <= band[1] * t[:, None]), [(0, 0), (1, 1)])
    W = np.where(node[:, :-2] & node[:, 2:], delta, 0.5 * delta) * node[:, 1:-1]
    W[node.sum(axis=1) < 2] = 0.0
    return W


def _band_sum(W: np.ndarray, X: np.ndarray, acc) -> np.ndarray:
    """acc + sum_j W[:, j] X_j in ascending j; a zero weight adds an exact
    zero, so each row is summed as a loop over its band alone would."""
    for j in range(len(X)):
        acc = acc + W[:, j].reshape((-1,) + (1,) * (X.ndim - 1)) * X[j]
    return acc


def averaged_family(F: np.ndarray, spec: GridSpec, m: float, band: tuple,
                    s: ScaleGrid) -> np.ndarray:
    """g_t = integral over tau in [band[0]*t, band[1]*t] of eta_{tau,m} * f_tau
    dtau/tau, quadratured on the scale grid (clipped to its range)."""
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError("need 0 < alpha < beta in the averaging band")
    return _band_sum(_band_weights(band, s), _eta_convolve(F, s.t, m, spec), 0.0)


def check_averaged(F: np.ndarray, p: ExponentField, q: ExponentField, m: float,
                   band: tuple, s: ScaleGrid) -> float:
    """Mixed-norm ratio of the scale-averaged family to the original one."""
    den = mixed_norm_continuous(F, p, q, s)
    if den == 0.0:
        return 0.0
    g = averaged_family(F, p.spec, m, band, s)
    return mixed_norm_continuous(g, p, q, s) / den


# --- pointwise reproducing bounds ------------------------------------------------


def check_reproducing_bounds(f: GridFunction, kernels: KernelPair, r: float,
                             m: float, s: ScaleGrid) -> tuple:
    """Empirical constants (c_low, c_band) for the two pointwise bounds.

    c_low:  |theta * f|^r against eta_{1,mr} * |Phi * f|^r plus the dt/t
            aggregate of eta_{1,mr} * |phi_tau * f|^r over tau in [1/4, 1],
            for a smooth low-pass theta band-limited to |xi| <= 2.
    c_band: the scale-indexed analogue with omega_t = phi_t and the
            aggregate over tau in [t/4, min(1, 4t)] of eta_{tau,mr} terms.
    """
    if not (r > 0 and m > max(f.spec.n, f.spec.n / r)):
        raise ValueError("need r > 0 and m > max(n, n/r)")
    spec = f.spec
    mr = m * r
    t = s.t
    fhat = dft(f.values, spec)

    # row 0 |Phi * f|^r, then |phi_t * f|^r for every t
    bank = multiplier_bank(kernels.phi0_hat, kernels.phi_hat, spec, (1.0, *t))
    P = np.abs(dft(fhat * bank, spec, inverse=True)) ** r
    E_fixed = np.abs(_eta_convolve(P, 1.0, mr, spec))
    E_low = E_fixed[0]
    E_scale = np.abs(_eta_convolve(P[1:], t, mr, spec))
    # since t_0 = 1 and every t <= 1, row 0 of the (1/4, 4) band is
    # tau in [1/4, 1] and row i is tau in [t_i/4, min(1, 4 t_i)]
    W = _band_weights((0.25, 4.0), s)

    # low-pass bound
    theta_f = dft(fhat * _REPRODUCING_THETA(spec.xi_radius()), spec, inverse=True)
    c_low = _ratio_max(np.abs(theta_f) ** r, _band_sum(W[:1], E_fixed[1:], E_low)[0])

    # band bound, swept over the scale grid
    den = _band_sum(W, E_scale, E_low)
    cs = [c for c in map(_ratio_max, P[1:], den) if not math.isnan(c)]
    return c_low, (max(0.0, *cs) if cs else math.nan)


# --- moment-driven decay of dilated kernels --------------------------------------


def check_rychkov_decay(mu_hat: RadialProfile, rho: GridFunction) -> float:
    """Fitted log-log slope of D(t) = sup_z |mu_t * rho(z)| (1+|z|)^2.

    If mu has M+1 vanishing moments (a |xi|^(M+1) factor in its profile),
    D(t) should decay at least like t^(M+1); the fit takes t = 2^(-j/4)
    down to 2^-6, restricted to t <= 1/8 where the pure power law is clean,
    and to scales whose dilated profile the grid still resolves.
    """
    spec = rho.spec
    if float(np.abs(rho.values).max()) == 0.0:
        return math.nan
    t = _RYCHKOV_SCALES.t
    t = t[(t <= _RYCHKOV_T_FIT_MAX) & (1.0 / t <= 0.5 * spec.xi_max)]
    bank = mu_hat(t.reshape((-1,) + (1,) * spec.n) * spec.xi_radius())
    conv = dft(dft(rho.values, spec) * bank * (2 * np.pi) ** (spec.n / 2), spec, inverse=True)
    weight = (1.0 + spec.periodic_radius()) ** _RYCHKOV_N_W
    D = (np.abs(conv) * weight).max(axis=tuple(range(1, conv.ndim)))
    if np.count_nonzero(D > 0) < 3:
        raise ValueError("not enough usable scales for the decay fit")
    coef = np.polyfit(np.log(t[D > 0]), np.log(D[D > 0]), 1)
    return float(coef[0])
