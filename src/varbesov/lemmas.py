"""Numeric oracles for the supporting inequalities behind the norm
equivalences.

Each oracle returns the smallest empirical constant that makes its
inequality hold on the supplied inputs (a max of pointwise ratios, or a
ratio of norms).  The inequalities themselves never quantify their
constants, so the testable rendering is: the constant is finite, stable
under grid refinement, and visibly degrades when a hypothesis is broken.
Ratios are homogeneous of degree zero in the input functions.

Vacuous cases (identically zero inputs) return NaN, except where a zero
limit is the natural value of the ratio.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .calderon import KernelPair, RadialProfile, annulus_bump, multiplier_bank
from .exponent import ExponentField
from .grid import (
    GridFunction,
    ScaleGrid,
    _circulant,
    convolve_kernel,
    dft,
    eta_hat,
    fourier,
    inverse_fourier,
)
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


def _eta_convolve(f: GridFunction, t: float, m: float) -> GridFunction:
    """eta_{t,m} * f on the torus (true convolution, mass c(m))."""
    return convolve_kernel(f, eta_hat(t, m, f.spec))


def _ratio_max(num: np.ndarray, den: np.ndarray) -> float:
    scale = float(den.max())
    if scale <= 0.0:
        return math.nan
    mask = den > _DEN_FLOOR * scale
    if not mask.any():
        return math.nan
    return float((num[mask] / den[mask]).max())


# --- smoothness transfer: t^(-alpha(x)) eta_{t,m+R} <= c t^(-alpha(y)) eta_{t,m}


def check_transfer(alpha: ExponentField, t: float, m: float, R: float) -> float:
    """Empirical constant for moving t^(-alpha) across the kernel.

    Equals the max over grid pairs of t^(alpha(y)-alpha(x)) (1+d/t)^(-R).
    Warns when R is below the estimated log-Holder constant of alpha (the
    hypothesis of the inequality), and still computes the constant so the
    degradation is observable.
    """
    if not t > 0 or not m > 0:
        raise ValueError("need t > 0 and m > 0")
    clog = alpha.clog_local
    if R < clog:
        warnings.warn(
            f"transfer hypothesis unmet: R = {R} below c_log(alpha) ~ {clog:.3f}",
            stacklevel=2,
        )
    spec = alpha.spec
    a = alpha.samples
    k = np.arange(spec.N)
    d1 = spec.h * np.minimum(k, spec.N - k)
    dist = d1 if spec.n == 1 else np.sqrt(d1[:, None] ** 2 + d1[None, :] ** 2)
    w = ((1.0 + dist / t) ** (-R)).ravel()
    # osc[k] = max over x of alpha(x - k h) - alpha(x); the sweep over all
    # offsets covers both orientations of each pair.  circ[k] is alpha
    # shifted by k, taken in blocks of about 1 MB.
    circ = _circulant(a)
    block = max(1, (1 << 17) // a.size)
    osc = np.empty(a.size)
    for start in range(0, a.size, block):
        ks = np.arange(start, min(start + block, a.size))
        diff = circ[np.unravel_index(ks, a.shape)]  # a gathered copy
        diff -= a
        osc[ks] = diff.reshape(len(ks), -1).max(axis=1)
    return float((w * np.exp(-math.log(t) * osc)).max())


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


def _subrange_weights(T: int, lo: int, hi: int, delta: float) -> np.ndarray:
    """Trapezoid dt/t weights for the node subrange lo..hi (inclusive)."""
    w = np.zeros(T)
    if hi <= lo:
        return w
    w[lo:hi + 1] = delta
    w[lo] = w[hi] = 0.5 * delta
    return w


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
    if eps.shape != (len(scales),) or np.any(eps < 0):
        raise ValueError("eps must be a nonnegative family on the scale grid")
    t = scales.t
    w = scales.weights
    total = float(np.dot(w, eps))
    if total == 0.0:
        return 0.0
    T = len(t)
    delta = math.log(2.0) / scales.K
    eta = np.zeros(T)
    dlt = np.zeros(T)
    for i in range(T):
        wi = _subrange_weights(T, 0, i, delta)      # tau in [t_i, 1]
        eta[i] = t[i] ** s_exp * float(np.dot(wi, t ** (-s_exp) * eps))
        wj = _subrange_weights(T, i, T - 1, delta)  # tau in [t_min, t_i]
        dlt[i] = t[i] ** (-s_exp) * float(np.dot(wj, t ** s_exp * eps))
    return float((np.dot(w, eta) + np.dot(w, dlt)) / total)


# --- band-limited self-improvement (the r-trick) --------------------------------


def check_rtrick(g: GridFunction, N_dil: float, r: float, m: float,
                 theta: RadialProfile = None, omega: RadialProfile = None) -> float:
    """max_x |theta_N * omega_N * g| / (eta_{1/N,m} * |omega_N * g|^r)^(1/r).

    omega is band-limited to the unit ball; theta is any Schwartz profile.
    The constant should be stable in the dilation N (scale uniformity).
    """
    if not (r > 0 and m > g.spec.n and N_dil >= 1):
        raise ValueError("need r > 0, m > n and N_dil >= 1")
    if theta is None:
        theta = RadialProfile(lambda rr: np.exp(-np.asarray(rr, dtype=float) ** 2 / 2.0),
                              (0.0, math.inf), "theta")
    if omega is None:
        base = annulus_bump("mollifier")
        # squeeze the annulus bump into [1/4, 7/8], inside the unit ball
        omega = RadialProfile(lambda rr: base(np.asarray(rr, dtype=float) * (2.0 / 0.875)),
                              (0.25, 0.875), "omega")
    t = 1.0 / N_dil
    spec = g.spec
    radii = spec.xi_radius()
    ghat = fourier(g).values
    u = inverse_fourier(g.with_values(ghat * omega(t * radii) * (2 * np.pi) ** (spec.n / 2)))
    if float(np.abs(u.values).max()) == 0.0:
        return math.nan
    num_f = inverse_fourier(
        u.with_values(fourier(u).values * theta(t * radii) * (2 * np.pi) ** (spec.n / 2)))
    num = np.abs(num_f.values)
    pw = GridFunction(spec, np.abs(u.values) ** r)
    den = np.abs(_eta_convolve(pw, t, m).values) ** (1.0 / r)
    return _ratio_max(num, den)


# --- convolution bounds on mixed norms ------------------------------------------


def check_eta_conv_discrete(fv, p: ExponentField, q: ExponentField, m: float) -> float:
    """Mixed-norm ratio of (eta_{2^-v,m} * f_v)_v to (f_v)_v."""
    fv = list(fv)
    den = mixed_norm_discrete(fv, p, q)
    if den == 0.0:
        return 0.0
    conv = [_eta_convolve(f, 2.0 ** (-v), m) for v, f in enumerate(fv)]
    return mixed_norm_discrete(conv, p, q) / den


def check_eta_conv_continuous(ft, p: ExponentField, q: ExponentField, m: float,
                              s: ScaleGrid) -> float:
    """Continuous version: eta_{t,m} * f_t against f_t over the scale grid."""
    ft = list(ft)
    den = mixed_norm_continuous(ft, p, q, s)
    if den == 0.0:
        return 0.0
    conv = [_eta_convolve(f, t, m) for t, f in zip(s.t, ft)]
    return mixed_norm_continuous(conv, p, q, s) / den


def averaged_family(ft, m: float, band: tuple, s: ScaleGrid):
    """g_t = integral over tau in [band[0]*t, band[1]*t] of eta_{tau,m} * f_tau
    dtau/tau, quadratured on the scale grid (clipped to its range)."""
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError("need 0 < alpha < beta in the averaging band")
    ft = list(ft)
    t = s.t
    delta = math.log(2.0) / s.K
    conv = [_eta_convolve(f, tau, m) for tau, f in zip(t, ft)]
    out = []
    for ti in t:
        sel = np.nonzero((t >= lo * ti) & (t <= hi * ti))[0]
        if len(sel) == 0:
            out.append(GridFunction(ft[0].spec, np.zeros(ft[0].spec.shape)))
            continue
        w = _subrange_weights(len(t), sel.min(), sel.max(), delta)
        acc = np.zeros(ft[0].spec.shape, dtype=complex)
        for j in sel:
            acc = acc + w[j] * conv[j].values
        out.append(GridFunction(ft[0].spec, acc))
    return out


def check_averaged(ft, p: ExponentField, q: ExponentField, m: float,
                   band: tuple, s: ScaleGrid) -> float:
    """Mixed-norm ratio of the scale-averaged family to the original one."""
    ft = list(ft)
    den = mixed_norm_continuous(ft, p, q, s)
    if den == 0.0:
        return 0.0
    g = averaged_family(ft, m, band, s)
    return mixed_norm_continuous(g, p, q, s) / den


# --- pointwise reproducing bounds ------------------------------------------------


def check_reproducing_bounds(f: GridFunction, kernels: KernelPair, r: float,
                             m: float, s: ScaleGrid,
                             theta: RadialProfile = None) -> tuple:
    """Empirical constants (c_low, c_band) for the two pointwise bounds.

    c_low:  |theta * f|^r against eta_{1,mr} * |Phi * f|^r plus the dt/t
            aggregate of eta_{1,mr} * |phi_tau * f|^r over tau in [1/4, 1],
            for a theta band-limited to |xi| <= 2.
    c_band: the scale-indexed analogue with omega_t = phi_t and the
            aggregate over tau in [t/4, min(1, 4t)] of eta_{tau,mr} terms.
    """
    if not (r > 0 and m > max(f.spec.n, f.spec.n / r)):
        raise ValueError("need r > 0 and m > max(n, n/r)")
    spec = f.spec
    if theta is None:
        # smooth low-pass profile supported in |xi| <= 2
        from .calderon import _smoothstep
        theta = RadialProfile(lambda rr: _smoothstep(2.0 - np.asarray(rr, dtype=float)),
                              (0.0, 2.0), "theta")
    mr = m * r
    t = s.t
    delta = math.log(2.0) / s.K
    fhat = fourier(f).values
    radii = spec.xi_radius()

    # row 0 the low-pass Phi * f, then phi_t * f for every t
    moduli = np.abs(dft(fhat * multiplier_bank(kernels.phi0_hat, kernels.phi_hat, spec, s),
                        spec, inverse=True))
    low_pow = GridFunction(spec, moduli[0] ** r)
    E_low = np.abs(_eta_convolve(low_pow, 1.0, mr).values)

    bands = moduli[1:]
    band_pow = [GridFunction(spec, b ** r) for b in bands]
    E_fixed = [np.abs(_eta_convolve(bp, 1.0, mr).values) for bp in band_pow]
    E_scale = [np.abs(_eta_convolve(bp, ti, mr).values) for ti, bp in zip(t, band_pow)]

    # low-pass bound
    theta_f = inverse_fourier(f.with_values(fhat * theta(radii)))
    num = np.abs(theta_f.values) ** r
    sel = np.nonzero(t >= 0.25)[0]
    w = _subrange_weights(len(t), sel.min(), sel.max(), delta)
    den = E_low.copy()
    for j in sel:
        den = den + w[j] * E_fixed[j]
    c_low = _ratio_max(num, den)

    # band bound, swept over the scale grid
    c_band = 0.0
    any_valid = False
    for i, ti in enumerate(t):
        num_i = bands[i] ** r
        sel = np.nonzero((t >= ti / 4.0) & (t <= min(1.0, 4.0 * ti)))[0]
        w = _subrange_weights(len(t), sel.min(), sel.max(), delta)
        den_i = E_low.copy()
        for j in sel:
            den_i = den_i + w[j] * E_scale[j]
        ci = _ratio_max(num_i, den_i)
        if not math.isnan(ci):
            c_band = max(c_band, ci)
            any_valid = True
    return c_low, (c_band if any_valid else math.nan)


# --- moment-driven decay of dilated kernels --------------------------------------


def check_rychkov_decay(mu_hat: RadialProfile, rho: GridFunction, M: int,
                        N_w: float, scales: ScaleGrid,
                        t_fit_max: float = 0.125) -> float:
    """Fitted log-log slope of D(t) = sup_z |mu_t * rho(z)| (1+|z|)^N_w.

    mu has M+1 vanishing moments (|xi|^(M+1) factor in its profile), so
    D(t) should decay at least like t^(M+1); the fit is restricted to
    t <= t_fit_max where the pure power law is clean, and to scales whose
    dilated profile the grid still resolves.
    """
    spec = rho.spec
    if float(np.abs(rho.values).max()) == 0.0:
        return math.nan
    radii = spec.xi_radius()
    weight = (1.0 + spec.periodic_radius()) ** N_w
    rhohat = fourier(rho).values
    tvals, dvals = [], []
    for t in scales.t:
        if t > t_fit_max or 1.0 / t > 0.5 * spec.xi_max:
            continue
        conv = inverse_fourier(
            rho.with_values(rhohat * mu_hat(t * radii) * (2 * np.pi) ** (spec.n / 2)))
        D = float((np.abs(conv.values) * weight).max())
        if D > 0:
            tvals.append(t)
            dvals.append(D)
    if len(tvals) < 3:
        raise ValueError("not enough usable scales for the decay fit")
    coef = np.polyfit(np.log(tvals), np.log(dvals), 1)
    return float(coef[0])
