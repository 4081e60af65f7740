import math
import warnings

import numpy as np
import pytest

from varbesov.calderon import build_continuous_pair, build_local_means, multiplier_bank
from varbesov.exponent import ExponentField
from varbesov.grid import (
    GridFunction,
    GridSpec,
    ScaleGrid,
    convolve_kernel,
    dft,
    eta_periodized,
    fourier,
    inverse_fourier,
)
from varbesov.lemmas import (
    _REPRODUCING_THETA,
    _ratio_max,
    _subrange_weights,
    averaged_family,
    check_averaged,
    check_dzw,
    check_eta_conv_continuous,
    check_eta_conv_discrete,
    check_hardy,
    check_reproducing_bounds,
    check_rtrick,
    check_rychkov_decay,
    check_transfer,
)
from varbesov.modular_norms import mixed_norm_continuous, mixed_norm_discrete, power_quotient_norm

# lemma sweeps need the grid fine relative to the smallest scale so the
# kernel quadrature converges; h = 1/64, t_min = 1/8
LSPEC = GridSpec(1, 1024, 8.0)
LSCALES = ScaleGrid(4, 3)


@pytest.fixture(scope="module")
def lspec():
    return LSPEC


@pytest.fixture(scope="module")
def lscales():
    return LSCALES


@pytest.fixture(scope="module")
def alpha_sine(lspec):
    return ExponentField.from_callable(lspec, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 8.0))


@pytest.fixture(scope="module")
def p2(lspec):
    return ExponentField.from_constant(lspec, 2.0)


@pytest.fixture(scope="module")
def wave_family(lspec, lscales):
    (x,) = lspec.coords()
    return np.stack([GridFunction(lspec, np.exp(1j * x / t) * np.exp(-(x**2) / 2.0)).values
                     for t in lscales.t])


# --- transfer ---------------------------------------------------------------


def test_transfer_constant_alpha_is_one(lspec):
    a = ExponentField.from_constant(lspec, 0.7)
    assert check_transfer(a, 0.25, 2.0, R=1.0) == pytest.approx(1.0)


def test_transfer_t_uniform_with_valid_R(alpha_sine):
    R = alpha_sine.clog_local + 0.5
    c1 = check_transfer(alpha_sine, 1.0, 2.0, R)
    c2 = check_transfer(alpha_sine, 1.0 / 16.0, 2.0, R)
    assert max(c1, c2) / min(c1, c2) <= 2.0


def test_transfer_violation_grows(alpha_sine):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cs = [check_transfer(alpha_sine, t, 2.0, R=0.0)
              for t in (1.0, 0.25, 1.0 / 16.0, 1.0 / 32.0)]
    assert cs[-1] / cs[0] >= 3.0
    assert all(b >= a for a, b in zip(cs, cs[1:]))


def test_transfer_warns_below_clog(alpha_sine):
    with pytest.warns(UserWarning, match="hypothesis unmet"):
        check_transfer(alpha_sine, 0.5, 2.0, R=0.0)


def test_transfer_sweeps_offsets_once(monkeypatch):
    from varbesov import exponent
    calls = []
    circulant = exponent._circulant
    monkeypatch.setattr(exponent, "_circulant", lambda w: calls.append(1) or circulant(w))
    a = ExponentField.from_callable(LSPEC, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 8.0))
    for t in (1.0, 0.25, 1.0 / 16.0):
        check_transfer(a, t, 3.0, a.clog_local + 0.5)
    assert len(calls) == 1


def _reference_transfer(alpha, t, R):
    """The per-offset np.roll sweep that `check_transfer` replaced."""
    spec, a = alpha.spec, alpha.samples
    N, h = spec.N, spec.h
    k = np.arange(N)
    d1 = h * np.minimum(k, N - k)
    if spec.n == 1:
        w = (1.0 + d1 / t) ** (-R)
        best = 0.0
        for kk in range(N):
            osc = (np.roll(a, kk) - a).max()
            best = max(best, w[kk] * math.exp(-math.log(t) * osc))
        return float(best)
    dist = np.sqrt(d1[:, None] ** 2 + d1[None, :] ** 2)
    w = (1.0 + dist / t) ** (-R)
    best = 0.0
    for k1 in range(N):
        for k2 in range(N):
            osc = (np.roll(a, (k1, k2), axis=(0, 1)) - a).max()
            best = max(best, w[k1, k2] * math.exp(-math.log(t) * osc))
    return float(best)


@pytest.mark.parametrize("spec", [LSPEC, GridSpec(1, 16, 2.0), GridSpec(2, 16, 2.0)],
                         ids=["1d-1024", "1d-16", "2d-16"])
def test_transfer_matches_roll_reference(spec):
    rng = np.random.default_rng(spec.n * spec.N)
    smooth = ExponentField.from_callable(
        spec, lambda *x: 0.5 + 0.2 * np.prod([np.sin(np.pi * c / spec.L) for c in x], axis=0))
    rough = ExponentField(spec, rng.uniform(0.0, 1.5, spec.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha in (smooth, rough):
            for t, R in ((1.0, 2.0), (0.25, 0.0), (1.0 / 16.0, 0.7)):
                assert check_transfer(alpha, t, 3.0, R) == pytest.approx(
                    _reference_transfer(alpha, t, R), rel=1e-12)


# --- power-quotient comparison ------------------------------------------------


def test_dzw_scaled_to_unit_rhs(lspec, p2):
    rng = np.random.default_rng(7)
    (x,) = lspec.coords()
    q = ExponentField.from_callable(lspec, lambda x: 1.5 + 0.4 * np.sin(np.pi * x / 8.0))
    p = ExponentField.from_callable(lspec, lambda x: 2.2 + 0.5 * np.cos(np.pi * x / 8.0))
    f = GridFunction(lspec, rng.standard_normal(1024) * np.exp(-(x**2) / 8.0))
    # the power-quotient norm is not 1-homogeneous for variable q, so walk
    # the scaling up until its value just clears the hypothesis bound
    c = 1.0 / power_quotient_norm(f, p, q)
    while power_quotient_norm(c * f, p, q) < 1.0:
        c *= 1.3
    assert check_dzw(c * f, p, q)


def test_dzw_constant_exponents_equality_case(lspec, p2):
    (x,) = lspec.coords()
    f = GridFunction(lspec, 1.3 * np.exp(-(x**2) / 4.0))
    q = p2  # p = q constant: both sides reduce to powers of ||f||_p
    rhs = power_quotient_norm(f, p2, q)
    if rhs >= 1.0:
        assert check_dzw(f, p2, q)


def test_dzw_hypothesis_guard(lspec, p2):
    tiny = GridFunction(lspec, np.full(lspec.shape, 1e-8))
    with pytest.raises(ValueError, match="hypothesis"):
        check_dzw(tiny, p2, p2)


def test_dzw_hundred_random_draws(lspec):
    rng = np.random.default_rng(101)
    (x,) = lspec.coords()
    p = ExponentField.from_callable(lspec, lambda x: 2.2 + 0.5 * np.cos(np.pi * x / 8.0))
    q = ExponentField.from_callable(lspec, lambda x: 1.5 + 0.4 * np.sin(np.pi * x / 8.0))
    env = np.exp(-(x**2) / 8.0)
    passed = 0
    for _ in range(100):
        f = GridFunction(lspec, (2.0 + 3.0 * rng.random()) * rng.standard_normal(1024) * env)
        if power_quotient_norm(f, p, q) < 1.0:
            continue
        assert check_dzw(f, p, q)
        passed += 1
    assert passed >= 80


# --- Hardy ---------------------------------------------------------------------


@pytest.mark.parametrize("s_exp,sigma", [(2.0, 1.0), (0.5, 1.0), (1.0, 2.0)])
def test_hardy_power_family_analytic(s_exp, sigma):
    # eps_t = t^sigma gives ratio 1/s + 1/(s+sigma) on (0, 1]
    sH = ScaleGrid(8, 20)
    got = check_hardy(sH.t**sigma, s_exp, sH)
    expect = 1.0 / s_exp + 1.0 / (s_exp + sigma)
    assert got == pytest.approx(expect, rel=0.02)


def test_hardy_zero_family():
    sH = ScaleGrid(4, 4)
    assert check_hardy(np.zeros(len(sH)), 1.0, sH) == 0.0


def test_hardy_concentrated_at_one_scale():
    sH = ScaleGrid(4, 6)
    eps = np.zeros(len(sH))
    eps[10] = 1.0
    got = check_hardy(eps, 1.5, sH)
    assert math.isfinite(got) and got > 0


def test_hardy_refinement_stable():
    vals = [check_hardy(ScaleGrid(K, 16).t ** 1.0, 1.0, ScaleGrid(K, 16)) for K in (8, 16)]
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


# --- r-trick --------------------------------------------------------------------


def test_rtrick_gaussian_uniform_in_dilation(lspec):
    (x,) = lspec.coords()
    g = GridFunction(lspec, np.exp(-(x**2) / 2.0))
    cs = [check_rtrick(g, Nd, 0.5, 3.0) for Nd in (1.0, 2.0, 4.0)]
    assert all(map(math.isfinite, cs))
    assert max(cs) / min(cs) <= 1.5


def test_rtrick_r_one(lspec):
    (x,) = lspec.coords()
    g = GridFunction(lspec, np.exp(-(x**2) / 2.0))
    c = check_rtrick(g, 1.0, 1.0, 3.0)
    assert math.isfinite(c) and c > 0


def test_rtrick_zero_is_vacuous(lspec):
    assert math.isnan(check_rtrick(GridFunction.zeros(lspec), 1.0, 0.5, 3.0))


# --- convolution bounds -----------------------------------------------------------


def test_eta_conv_single_term_young_bound(lspec, p2):
    # c(m) = 2/(m-1) = 1 for m = 3, n = 1
    (x,) = lspec.coords()
    fam = [GridFunction.zeros(lspec),
           GridFunction(lspec, np.exp(-(x**2) / 2.0)),
           GridFunction.zeros(lspec)]
    ratio = check_eta_conv_discrete(np.stack([f.values for f in fam]), p2, p2, 3.0)
    assert 0 < ratio <= 1.05


def test_eta_conv_zero_family(lspec, p2, lscales):
    fam = [GridFunction.zeros(lspec) for _ in range(3)]
    assert check_eta_conv_discrete(np.stack([f.values for f in fam]), p2, p2, 3.0) == 0.0
    famc = [GridFunction.zeros(lspec) for _ in lscales.t]
    assert check_eta_conv_continuous(np.stack([f.values for f in famc]), p2, p2, 3.0,
                                     lscales) == 0.0


def test_eta_conv_sine_exponents_finite(lspec, lscales, wave_family):
    p = ExponentField.from_callable(lspec, lambda x: 2.0 + 0.5 * np.sin(np.pi * x / 8.0))
    q = ExponentField.from_callable(lspec, lambda x: 2.0 + 0.3 * np.cos(np.pi * x / 8.0))
    c = check_eta_conv_continuous(wave_family, p, q, 3.0, lscales)
    assert math.isfinite(c) and 0 < c < 10.0


# --- averaging lemma ---------------------------------------------------------------


def test_averaged_band_finite(lspec, lscales, wave_family, p2):
    c = check_averaged(wave_family, p2, p2, 3.0, (0.25, 4.0), lscales)
    assert math.isfinite(c) and 0 < c < 10.0


def test_averaged_support_bookkeeping(lspec, lscales):
    (x,) = lspec.coords()
    fam = [GridFunction.zeros(lspec) for _ in lscales.t]
    i0 = 6
    fam[i0] = GridFunction(lspec, np.exp(-(x**2) / 2.0))
    g = averaged_family(np.stack([f.values for f in fam]), lspec, 3.0, (0.25, 4.0), lscales)
    tau0 = lscales.t[i0]
    active = {i for i, gi in enumerate(g) if np.abs(gi).max() > 0}
    expected = {i for i, t in enumerate(lscales.t)
                if tau0 / 4.0 - 1e-15 <= t <= 4.0 * tau0 + 1e-15}
    assert active == expected


def test_averaged_rejects_bad_band(lspec, lscales, wave_family, p2):
    with pytest.raises(ValueError, match="band"):
        check_averaged(wave_family, p2, p2, 3.0, (4.0, 0.25), lscales)


def test_averaged_constant_exponents_young_comparable(lspec, lscales, wave_family, p2):
    # each g_t is a dt/t average of unit-mass smoothings over a log-length
    # ln(beta/alpha) band, so the scalar Young bound c(m) ln(beta/alpha)
    # caps the ratio (c(3) = 1 for n = 1)
    lo, hi = 0.25, 4.0
    c = check_averaged(wave_family, p2, p2, 3.0, (lo, hi), lscales)
    assert c <= 1.0 * math.log(hi / lo) * 1.5


# --- reproducing bounds -------------------------------------------------------------


@pytest.fixture(scope="module")
def lpair(lspec, lscales):
    return build_continuous_pair(lspec, lscales)


def test_reproducing_bounds_finite(lspec, lscales, lpair):
    rng = np.random.default_rng(13)
    (x,) = lspec.coords()
    f = GridFunction(lspec, (rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
                     * np.exp(-(x**2) / 8.0))
    c_low, c_band = check_reproducing_bounds(f, lpair, 0.5, 3.0, lscales)
    assert math.isfinite(c_low) and math.isfinite(c_band)
    assert c_low > 0 and c_band > 0


def test_reproducing_low_frequency_dominated_by_low_pass(lspec, lscales, lpair):
    # spectrum inside |xi| <= 1/4: every band convolution vanishes
    from varbesov.grid import fourier, inverse_fourier
    rr = lspec.xi_radius()
    fh0 = np.where(rr <= 0.25, np.exp(-(rr**2)), 0.0)  # grid spectrum in B(0, 1/4)
    f = inverse_fourier(GridFunction(lspec, fh0))
    fh = fourier(f).values
    for t in lscales.t:
        band = inverse_fourier(GridFunction(lspec, fh * lpair.phi_hat(t * rr)))
        assert np.abs(band.values).max() < 1e-12
    c_low, c_band = check_reproducing_bounds(f, lpair, 0.5, 3.0, lscales)
    assert math.isfinite(c_low) and c_low > 0
    assert c_band == 0.0  # every band numerator vanishes; the bound is trivial


def test_reproducing_zero_vacuous(lspec, lscales, lpair):
    c_low, c_band = check_reproducing_bounds(GridFunction.zeros(lspec), lpair, 0.5, 3.0, lscales)
    assert math.isnan(c_low) and math.isnan(c_band)


def test_reproducing_annulus_support_bookkeeping(lspec, lscales, lpair):
    # f with spectrum in the t0 = 1/2 annulus meets only neighbouring scales
    (x,) = lspec.coords()
    rr = lspec.xi_radius()
    from varbesov.grid import inverse_fourier
    fh = lpair.phi_hat(0.5 * rr)  # support |xi| in [1, 4]
    f = inverse_fourier(GridFunction(lspec, fh))
    from varbesov.grid import fourier
    fh2 = fourier(f).values
    for t in lscales.t:
        band = inverse_fourier(GridFunction(lspec, fh2 * lpair.phi_hat(t * rr)))
        active = np.abs(band.values).max() > 1e-12
        overlap = (t >= 0.125 - 1e-12) and (t <= 2.0 + 1e-12)  # [1/2,2]/4 .. [1/2,2]*... in t
        if not overlap:
            assert not active


# --- stacked families vs the per-row list path ------------------------------------
#
# The list implementations the stacked oracles replaced, kept verbatim except
# that the eta kernel transform is spelled out and the families are stacked
# where they reach the mixed norms.  The stacks must match them exactly.


def _reference_eta_convolve(f, t, m):
    return convolve_kernel(f, fourier(eta_periodized(t, m, f.spec)))


def _reference_eta_conv_discrete(fv, p, q, m):
    fv = list(fv)
    den = mixed_norm_discrete(np.stack([f.values for f in fv]), p, q)
    if den == 0.0:
        return 0.0
    conv = [_reference_eta_convolve(f, 2.0 ** (-v), m) for v, f in enumerate(fv)]
    return mixed_norm_discrete(np.stack([f.values for f in conv]), p, q) / den


def _reference_eta_conv_continuous(ft, p, q, m, s):
    ft = list(ft)
    den = mixed_norm_continuous(np.stack([f.values for f in ft]), p, q, s)
    if den == 0.0:
        return 0.0
    conv = [_reference_eta_convolve(f, t, m) for t, f in zip(s.t, ft)]
    return mixed_norm_continuous(np.stack([f.values for f in conv]), p, q, s) / den


def _reference_averaged_family(ft, m, band, s):
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError("need 0 < alpha < beta in the averaging band")
    ft = list(ft)
    t = s.t
    delta = math.log(2.0) / s.K
    conv = [_reference_eta_convolve(f, tau, m) for tau, f in zip(t, ft)]
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


def _reference_check_averaged(ft, p, q, m, band, s):
    ft = list(ft)
    den = mixed_norm_continuous(np.stack([f.values for f in ft]), p, q, s)
    if den == 0.0:
        return 0.0
    g = _reference_averaged_family(ft, m, band, s)
    return mixed_norm_continuous(np.stack([f.values for f in g]), p, q, s) / den


def _reference_reproducing_bounds(f, kernels, r, m, s):
    if not (r > 0 and m > max(f.spec.n, f.spec.n / r)):
        raise ValueError("need r > 0 and m > max(n, n/r)")
    spec = f.spec
    mr = m * r
    t = s.t
    delta = math.log(2.0) / s.K
    fhat = fourier(f).values
    radii = spec.xi_radius()

    # row 0 the low-pass Phi * f, then phi_t * f for every t
    bank = multiplier_bank(kernels.phi0_hat, kernels.phi_hat, spec, (1.0, *s.t))
    moduli = np.abs(dft(fhat * bank, spec, inverse=True))
    low_pow = GridFunction(spec, moduli[0] ** r)
    E_low = np.abs(_reference_eta_convolve(low_pow, 1.0, mr).values)

    bands = moduli[1:]
    band_pow = [GridFunction(spec, b ** r) for b in bands]
    E_fixed = [np.abs(_reference_eta_convolve(bp, 1.0, mr).values) for bp in band_pow]
    E_scale = [np.abs(_reference_eta_convolve(bp, ti, mr).values) for ti, bp in zip(t, band_pow)]

    # low-pass bound
    theta_f = inverse_fourier(f.with_values(fhat * _REPRODUCING_THETA(radii)))
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


def _same(a, b):
    """Exact equality, NaN matching NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


# (spec, scales, m): the lemma grid at N and 2N, and one small 2-D grid whose
# eta periodisation stays cheap (few scales, fast kernel decay)
STACK_GRIDS = {
    "1d-1024": (GridSpec(1, 1024, 8.0), ScaleGrid(4, 3), 3.0),
    "1d-2048": (GridSpec(1, 2048, 8.0), ScaleGrid(4, 3), 3.0),
    "2d-32": (GridSpec(2, 32, 2.0), ScaleGrid(2, 2), 8.0),
}


def _stack_exponents(spec, kind):
    """Constant p = q, or sine p and cosine q with the lemma sweeps' shapes."""
    if kind == "constant":
        p = ExponentField.from_constant(spec, 2.0)
        return p, p
    x = spec.coords()
    sin = np.prod([np.sin(np.pi * c / spec.L) for c in x], axis=0)
    cos = np.prod([np.cos(np.pi * c / spec.L) for c in x], axis=0)
    return ExponentField(spec, 2.0 + 0.5 * sin), ExponentField(spec, 2.0 + 0.3 * cos)


def _seeded_family(spec, rows, kind, seed):
    """Seeded complex noise under a Gaussian envelope; `zero-rows` zeroes
    about half the rows, `single-row` keeps one row."""
    rng = np.random.default_rng(seed)
    env = np.exp(-sum(c**2 for c in spec.coords()) / 4.0)
    F = (rng.standard_normal((rows, *spec.shape))
         + 1j * rng.standard_normal((rows, *spec.shape))) * env
    F *= np.exp(rng.uniform(-2.0, 2.0, rows)).reshape((rows,) + (1,) * spec.n)
    if kind == "zero-rows":
        F[rng.permutation(rows)[: rows // 2]] = 0.0
    elif kind == "single-row":
        keep = int(rng.integers(rows))
        F[np.arange(rows) != keep] = 0.0
    return F


def _as_list(spec, F):
    return [GridFunction(spec, row) for row in F]


@pytest.mark.parametrize("kind", ["dense", "zero-rows", "single-row"])
@pytest.mark.parametrize("exps", ["constant", "sine"])
@pytest.mark.parametrize("grid", list(STACK_GRIDS))
def test_stacked_family_oracles_equal_list_reference(grid, exps, kind):
    spec, s, m = STACK_GRIDS[grid]
    p, q = _stack_exponents(spec, exps)
    seed = 1000 * spec.n + spec.N + len(kind)
    Fv = _seeded_family(spec, 4, kind, seed)
    assert check_eta_conv_discrete(Fv, p, q, m) == _reference_eta_conv_discrete(
        _as_list(spec, Fv), p, q, m)
    Ft = _seeded_family(spec, len(s), kind, seed + 1)
    ft = _as_list(spec, Ft)
    assert check_eta_conv_continuous(Ft, p, q, m, s) == _reference_eta_conv_continuous(
        ft, p, q, m, s)
    for band in ((0.25, 4.0), (0.5, 2.0), (0.125, 8.0)):
        ref = _reference_averaged_family(ft, m, band, s)
        assert np.array_equal(averaged_family(Ft, spec, m, band, s),
                              np.stack([g.values for g in ref]))
        assert check_averaged(Ft, p, q, m, band, s) == _reference_check_averaged(
            ft, p, q, m, band, s)


@pytest.mark.parametrize("kind", ["noise", "low-pass", "zero"])
@pytest.mark.parametrize("grid", list(STACK_GRIDS))
def test_stacked_reproducing_bounds_equal_list_reference(grid, kind):
    spec, s, m = STACK_GRIDS[grid]
    pair = build_continuous_pair(spec, s)
    f = GridFunction(spec, _seeded_family(spec, 1, "dense", spec.N)[0])
    if kind == "low-pass":  # spectrum inside |xi| <= 1/4: every band vanishes
        rr = spec.xi_radius()
        f = inverse_fourier(GridFunction(spec, np.where(rr <= 0.25, np.exp(-(rr**2)), 0.0)))
    elif kind == "zero":
        f = GridFunction.zeros(spec)
    for r, mr in ((0.5, m), (1.0, m + 1.0)):  # eta_{t,mr}: the grid's m, and one above
        got = check_reproducing_bounds(f, pair, r, mr / r, s)
        ref = _reference_reproducing_bounds(f, pair, r, mr / r, s)
        assert all(map(_same, got, ref)), (got, ref)


# --- moment-driven decay --------------------------------------------------------------


@pytest.mark.parametrize("M,floor", [(-1, -0.1), (1, 1.9), (3, 3.9)])
def test_rychkov_slopes(lspec, M, floor):
    (x,) = lspec.coords()
    rho = GridFunction(lspec, np.exp(-(x**2) / 2.0))
    mu = build_local_means(M, 1.0, lspec).k_hat
    slope = check_rychkov_decay(mu, rho, M, 2.0, ScaleGrid(4, 6))
    assert slope >= floor


def test_rychkov_zero_rho_vacuous(lspec):
    mu = build_local_means(1, 1.0, lspec).k_hat
    assert math.isnan(check_rychkov_decay(mu, GridFunction.zeros(lspec), 1, 2.0, ScaleGrid(4, 6)))


# --- degree-zero homogeneity and refinement stability ----------------------------------


def test_oracle_constants_scale_invariant(lspec, lscales, lpair, alpha_sine, p2, wave_family):
    rng = np.random.default_rng(17)
    (x,) = lspec.coords()
    f = GridFunction(lspec, (rng.standard_normal(1024)) * np.exp(-(x**2) / 8.0))
    c = 8.0  # exact binary scaling
    pairs = [
        (check_rtrick(f, 2.0, 0.5, 3.0), check_rtrick(c * f, 2.0, 0.5, 3.0)),
        (check_eta_conv_discrete(np.stack([f.values, f.values]), p2, p2, 3.0),
         check_eta_conv_discrete(np.stack([(c * f).values, (c * f).values]), p2, p2, 3.0)),
        (check_averaged(wave_family, p2, p2, 3.0, (0.25, 4.0), lscales),
         check_averaged(np.stack([c * g for g in wave_family]), p2, p2, 3.0, (0.25, 4.0),
                        lscales)),
    ]
    cl, cb = check_reproducing_bounds(f, lpair, 0.5, 3.0, lscales)
    cl8, cb8 = check_reproducing_bounds(c * f, lpair, 0.5, 3.0, lscales)
    pairs += [(cl, cl8), (cb, cb8)]
    for a, b in pairs:
        assert b == pytest.approx(a, rel=1e-10)


def test_oracle_refinement_stability(alpha_sine):
    """Constants move < 5% when N doubles (same physical grid)."""
    vals = {}
    for N in (1024, 2048):
        spec = GridSpec(1, N, 8.0)
        (x,) = spec.coords()
        a = ExponentField.from_callable(spec, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 8.0))
        p = ExponentField.from_constant(spec, 2.0)
        g = GridFunction(spec, np.exp(-(x**2) / 2.0))
        s = ScaleGrid(4, 3)
        fam = np.stack([GridFunction(spec, np.exp(1j * x / t) * np.exp(-(x**2) / 2.0)).values
                        for t in s.t])
        vals.setdefault("transfer", []).append(
            check_transfer(a, 0.25, 3.0, a.clog_local + 0.5))
        vals.setdefault("rtrick", []).append(check_rtrick(g, 2.0, 0.5, 3.0))
        vals.setdefault("eta_c", []).append(
            check_eta_conv_continuous(fam, p, p, 3.0, s))
        vals.setdefault("avg", []).append(
            check_averaged(fam, p, p, 3.0, (0.25, 4.0), s))
    for key, (v1, v2) in vals.items():
        assert abs(v2 - v1) / v1 < 0.05, key
