import gc
import math

import numpy as np
import pytest

from varbesov import besov, calderon
from varbesov.besov import (
    BesovParams,
    HypothesisError,
    besov_continuous,
    besov_discrete,
    besov_local_means,
    besov_peetre,
)
from varbesov.calderon import build_continuous_pair, build_dyadic, build_local_means
from varbesov.corpus import build_corpus, make_triple
from varbesov.exponent import ExponentField
from varbesov.grid import GridFunction, GridSpec, ScaleGrid, dft, eta_periodized, fourier
from varbesov.modular_norms import luxemburg_norm, mixed_norm_continuous, mixed_norm_discrete

from oracles import classical_lp, const, convolve_kernel, inverse_fourier, pointwise_sum


@pytest.fixture(scope="module")
def corpus_fns(spec):
    (x,) = spec.coords()
    return {
        "gauss": np.exp(-(x**2) / 2.0),
        "wide": np.exp(-(x**2) / 8.0),
        "dil2": np.exp(-((2 * x) ** 2) / 2.0),
        "mod4": np.exp(1j * 4 * x) * np.exp(-(x**2) / 2.0),
        "mod8": np.exp(1j * 8 * x) * np.exp(-(x**2) / 2.0),
    }


# --- zero inputs -------------------------------------------------------------


def test_all_evaluators_vanish_on_zero(spec, scales, pair, dyadic, local_means):
    z = GridFunction.zeros(spec)
    Pc = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 1.5, scales, pair)
    Pd = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 1.5, scales, dyadic)
    Pl = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 1.5, scales, local_means)
    assert besov_continuous(z, Pc) == 0.0
    assert besov_discrete(z, Pd) == 0.0
    assert besov_peetre(z, Pc) == 0.0
    assert besov_local_means(z, Pl) == 0.0


# --- constant exponents vs independent oracles ----------------------------------


def test_b22_matches_bessel_potential_oracle(spec, scales, pair, dyadic, corpus_fns):
    """For alpha = s, p = q = 2 both evaluators sit in a fixed bracket
    around the Fourier-side norm (sqrt of integral (1+|xi|^2)^s |fhat|^2)."""
    xi = spec.freq_axis()
    dxi = math.pi / spec.L
    s_val = 1.5
    Pc = BesovParams(const(spec, s_val), const(spec, 2.0), const(spec, 2.0), 1.5, scales, pair)
    Pd = BesovParams(const(spec, s_val), const(spec, 2.0), const(spec, 2.0), 1.5, scales, dyadic)
    C = 10.0
    ratios_c, ratios_d = [], []
    for vals in corpus_fns.values():
        f = GridFunction(spec, vals)
        fh = fourier(f).values
        oracle = math.sqrt(float(np.sum((1 + xi**2) ** s_val * np.abs(fh) ** 2) * dxi))
        ratios_c.append(besov_continuous(f, Pc) / oracle)
        ratios_d.append(besov_discrete(f, Pd) / oracle)
    for r in ratios_c + ratios_d:
        assert 1.0 / C <= r <= C
    assert max(ratios_d) / min(ratios_d) <= 10.0


def test_discrete_matches_direct_block_formula(spec, scales, dyadic, corpus_fns):
    """Constant p = q: the general machinery must agree with the direct
    dyadic-block formula (sum_v (2^{vs} ||psi_v * f||_p)^q)^(1/q) to 1e-8."""
    s_val = 0.5
    rr = spec.xi_radius()
    for pv in (1.0, 3.0):
        P = BesovParams(const(spec, s_val), const(spec, pv), const(spec, pv), 1.5, scales, dyadic)
        for vals in corpus_fns.values():
            f = GridFunction(spec, vals)
            fh = fourier(f).values
            total = 0.0
            for v in range(dyadic.v_max + 1):
                block = inverse_fourier(GridFunction(spec, fh * dyadic.psi_hat(v)(rr)))
                total += (2.0 ** (v * s_val) * classical_lp(block, pv)) ** pv
            reference = total ** (1.0 / pv)
            got = besov_discrete(f, P)
            assert got == pytest.approx(reference, rel=1e-8)


def test_single_annulus_single_surviving_block():
    """On a grid whose frequencies are dyadic rationals, a pure wave at
    |xi| = 2^v0 meets exactly one block: norm = 2^(v0 s) ||f||_p."""
    spec = GridSpec(1, 1024, 8.0 * math.pi)  # xi_k = k/8
    dyad = build_dyadic(spec, 5)
    (x,) = spec.coords()
    v0 = 2
    f = GridFunction(spec, np.exp(1j * (2.0**v0) * x))
    s_val, pv = 0.7, 3.0
    P = BesovParams(const(spec, s_val), const(spec, pv), const(spec, pv), 1.5,
                    ScaleGrid(8, 5), dyad)
    got = besov_discrete(f, P)
    expect = 2.0 ** (v0 * s_val) * (2 * spec.L) ** (1.0 / pv)
    assert got == pytest.approx(expect, rel=1e-6)
    # support bookkeeping: the neighbouring blocks vanish on the wave
    assert dyad.psi_hat(v0)(np.array([4.0]))[0] == pytest.approx(1.0)
    assert dyad.psi_hat(v0 - 1)(np.array([4.0]))[0] == 0.0
    assert dyad.psi_hat(v0 + 1)(np.array([4.0]))[0] == 0.0


def test_modulation_scaling_continuous():
    """Norms of e^{i 2^j x} g grow like 2^{js}; fitted exponent within 0.1."""
    spec = GridSpec(1, 2048, 12.0)
    scales = ScaleGrid(8, 7)
    pair = build_continuous_pair(spec, scales)
    (x,) = spec.coords()
    s_val = 1.0
    P = BesovParams(const(spec, s_val), const(spec, 2.0), const(spec, 2.0), 1.5, scales, pair)
    js = [2, 3, 4, 5]
    norms = []
    for j in js:
        f = GridFunction(spec, np.exp(1j * (2.0**j) * x) * np.exp(-(x**2) / 2.0))
        norms.append(besov_continuous(f, P))
    slope = np.polyfit(js, np.log2(norms), 1)[0]
    assert abs(slope - s_val) <= 0.1


def test_dilation_covariance():
    """Mass-preserving doubling shifts the active block by one and scales
    the norm by 2^(s + n(1 - 1/p)); checked against the direct block
    formula and all four evaluators at constant exponents."""
    spec = GridSpec(1, 1024, 16.0)
    dyad = build_dyadic(spec, 5)
    rr = spec.xi_radius()
    s_val, pv = 0.8, 2.5

    def annulus_spectrum(scale):
        lo, hi = 4.2 * scale, 7.6 * scale
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        z = (rr - mid) / half
        out = np.zeros_like(rr)
        inside = np.abs(z) < 1
        out[inside] = np.exp(1 - 1.0 / (1 - z[inside] ** 2))
        return out

    def block_norm(fh):
        total = 0.0
        for v in range(dyad.v_max + 1):
            block = inverse_fourier(GridFunction(spec, fh * dyad.psi_hat(v)(rr)))
            total += (2.0 ** (v * s_val) * classical_lp(block, pv)) ** pv
        return total ** (1.0 / pv)

    fh = annulus_spectrum(1.0)
    gh = annulus_spectrum(2.0)  # g = 2^n f(2.)
    log2_ref = math.log2(block_norm(gh) / block_norm(fh))
    expect = s_val + 1.0 * (1.0 - 1.0 / pv)
    assert abs(log2_ref - expect) <= 0.05

    P = BesovParams(const(spec, s_val), const(spec, pv), const(spec, pv), 1.5,
                    ScaleGrid(8, 5), dyad)
    f = inverse_fourier(GridFunction(spec, fh))
    g = inverse_fourier(GridFunction(spec, gh))
    log2_full = math.log2(besov_discrete(g, P) / besov_discrete(f, P))
    assert abs(log2_full - expect) <= 0.05

    # the scale-continuous evaluators; local means span 8 octaves: their
    # Tauberian band is not compactly supported, and a cut at t = 2^-5
    # loses part of g's response (exponent 1.33 measured there)
    scales = ScaleGrid(8, 5)
    pair = build_continuous_pair(spec, scales)
    for evaluator, kernels, sc in ((besov_continuous, pair, scales),
                                   (besov_peetre, pair, scales),
                                   (besov_local_means, build_local_means(1, 1.0, spec), ScaleGrid(8, 8))):
        P = BesovParams(const(spec, s_val), const(spec, pv), const(spec, pv), 1.5, sc, kernels)
        log2_full = math.log2(evaluator(g, P) / evaluator(f, P))
        assert abs(log2_full - expect) <= 0.05, evaluator.__name__


# --- q = inf branch ---------------------------------------------------------------


def test_q_inf_sup_branch():
    spec = GridSpec(1, 1024, 8.0 * math.pi)
    dyad = build_dyadic(spec, 5)
    (x,) = spec.coords()
    v0, s_val, pv = 3, 0.6, 2.0
    f = GridFunction(spec, np.exp(1j * (2.0**v0) * x))
    P = BesovParams(const(spec, s_val), const(spec, pv), const(spec, math.inf), 1.5,
                    ScaleGrid(8, 5), dyad)
    got = besov_discrete(f, P)
    expect = 2.0 ** (v0 * s_val) * (2 * spec.L) ** (1.0 / pv)
    assert got == pytest.approx(expect, rel=1e-6)


def test_q_inf_continuous(spec, scales, pair, corpus_fns):
    f = GridFunction(spec, corpus_fns["gauss"])
    P = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, math.inf), 1.5,
                    scales, pair)
    got = besov_continuous(f, P)
    # sup over scales of the weighted band norms, plus the low-pass term
    fh = fourier(f).values
    rr = spec.xi_radius()
    low = classical_lp(inverse_fourier(GridFunction(spec, fh * pair.phi0_hat(rr))), 2.0)
    sup = 0.0
    for t in scales.t:
        band = inverse_fourier(GridFunction(spec, fh * pair.phi_hat(t * rr)))
        sup = max(sup, t ** (-0.5) * classical_lp(band, 2.0))
    assert got == pytest.approx(low + sup, rel=1e-6)


# --- Peetre maximal functions ------------------------------------------------------


def _peetre_row(f, t, a, alpha, kernel):
    """The Peetre supremum the norms take, of t^(-alpha(.)) |k_t * f| at one scale t."""
    moduli = np.abs(dft(fourier(f).values * kernel(t * f.spec.xi_radius())[None], f.spec,
                        inverse=True))
    return besov._weighted_sup(besov._family(moduli, (t,), alpha), (t,), a, f.spec)[0]


def test_peetre_dominates_pointwise(spec, pair, corpus_fns):
    f = GridFunction(spec, corpus_fns["mod4"])
    t = 0.25
    alpha = ExponentField.from_callable(spec, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 16.0))
    out = _peetre_row(f, t, 1.5, alpha, pair.phi_hat)
    conv = inverse_fourier(GridFunction(spec, fourier(f).values * pair.phi_hat(t * spec.xi_radius())))
    pointwise = np.exp(-math.log(t) * alpha.samples) * np.abs(conv.values)
    assert np.all(out >= pointwise - 1e-15)


def test_peetre_large_a_collapses_to_pointwise(spec, pair, corpus_fns):
    f = GridFunction(spec, corpus_fns["gauss"])
    t = 0.25
    alpha = const(spec, 0.0)
    out = _peetre_row(f, t, 1000.0, alpha, pair.phi_hat)
    conv = inverse_fourier(GridFunction(spec, fourier(f).values * pair.phi_hat(t * spec.xi_radius())))
    assert np.abs(out - np.abs(conv.values)).max() < 1e-6


def _reference_row(g, t, a, spec):
    """Brute-force Peetre supremum of one row over every grid offset (1-D
    gather loop, 2-D roll loop)."""
    N, h = spec.N, spec.h
    if spec.n == 1:
        k = np.arange(N)
        d = h * np.minimum(k, N - k)
        w = (1.0 + d / t) ** (-a)
        out = np.zeros(N)
        chunk = max(1, (1 << 22) // N)
        for start in range(0, N, chunk):
            ks = k[start:start + chunk]
            cand = w[ks][:, None] * g[(k[None, :] - ks[:, None]) % N]
            out = np.maximum(out, cand.max(axis=0))
        return out
    k = np.arange(N)
    d1 = h * np.minimum(k, N - k)
    dist = np.sqrt(d1[:, None] ** 2 + d1[None, :] ** 2)
    w = (1.0 + dist / t) ** (-a)
    out = np.zeros_like(g)
    for k1 in range(N):
        for k2 in range(N):
            out = np.maximum(out, w[k1, k2] * np.roll(g, (k1, k2), axis=(0, 1)))
    return out


def _reference_sup(G, t, a, spec):
    """The brute force row by row, each row of the (T, *shape) stack G at
    its own t: the reference the fast `besov._weighted_sup` must match bit
    for bit."""
    return np.stack([_reference_row(g, tj, a, spec) for g, tj in zip(G, t)])


def _random_sup_input(rng, shape, kind):
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.full(shape, rng.uniform(0.1, 10.0))
    if kind == "spikes":
        g = np.zeros(shape)
        g.flat[rng.choice(g.size, size=3, replace=False)] = rng.uniform(0.5, 2.0, 3)
        return g
    if kind in ("smooth", "plateau"):  # |band-limited| like the real maximal-function inputs
        spec_hat = np.zeros(shape, dtype=complex)
        spec_hat[(slice(0, 6),) * len(shape)] = rng.standard_normal((6,) * len(shape))
        g = np.abs(np.fft.ifftn(spec_hat))
        if kind == "plateau":  # rounded to a coarse step: long runs of equal values
            step = g.max() / 4.0
            g = np.round(g / step) * step
        return g
    if kind == "mirrored":  # equal peaks at mirrored offsets from a centre
        g = rng.random(shape) * 1e-3
        centre = rng.integers(0, shape[0], len(shape))
        k = rng.integers(1, shape[0] // 2, len(shape))
        g[tuple((centre - k) % shape[0])] = g[tuple((centre + k) % shape[0])] = 1.5
        return g
    g = rng.random(shape) * np.exp(rng.uniform(-8.0, 8.0, shape))
    if kind == "nan":
        g.flat[rng.integers(g.size)] = np.nan
    return g


SUP_INPUTS = ("zero", "constant", "spikes", "smooth", "wild", "plateau", "mirrored", "nan")


@pytest.mark.parametrize("n,N", [(1, 16), (1, 32), (1, 256), (1, 1024), (1, 2048),
                                 (2, 16), (2, 32)])
def test_weighted_sup_bit_identical_to_reference(n, N, monkeypatch):
    """Seeded stacks of 9 rows, one row per kind of SUP_INPUTS plus one, each
    row at its own t in [2^-5, 2] with one row at t = 1 and one at the grid
    spacing h; a in [0.2, 40].  Exact equality, with NaN where the
    reference has NaN.  At N = 2048 a 1-D stack spans two row groups and a
    tile takes several gathers.  Each 1-D stack is also checked with
    gathers of 64 kept points, so that the kept points of a row straddle
    gathers, and each 2-D stack with d2 blocks of 1 and 4, so that the 9
    (N = 16) or 17 (N = 32) offsets d2 straddle blocks."""
    rng = np.random.default_rng(7919 * n + N)
    spec = GridSpec(n, N, float(rng.choice([1.0, 8.0, 16.0])))
    for trial in range(4):
        a = math.exp(rng.uniform(math.log(0.2), math.log(40.0)))
        t = 2.0 ** rng.uniform(-5.0, 1.0, 9)
        t[:2] = 1.0, spec.h
        G = np.stack([_random_sup_input(rng, spec.shape, SUP_INPUTS[(trial + j) % len(SUP_INPUTS)])
                      for j in range(9)])
        ref = _reference_sup(G, t, a, spec)
        assert np.array_equal(besov._weighted_sup(G, t, a, spec), ref, equal_nan=True)
        patches = [("_CHUNK", 64 * min(besov._TILE, N))] if n == 1 else [("_BLOCK", 1), ("_BLOCK", 4)]
        for name, value in patches:
            with monkeypatch.context() as m:
                m.setattr(besov, name, value)
                assert np.array_equal(besov._weighted_sup(G, t, a, spec), ref, equal_nan=True)


@pytest.mark.parametrize("a", [2.0, 7.0 / 3.0], ids=["2", "7/3"])
def test_weighted_sup_2d_benchmark_grid_bit_identical(a):
    """The 2-D grid of the benchmark, N = 64 and L = 8: one stack of 10
    rows, every SUP_INPUTS kind and two more smooth rows, at t = 1, h and
    eight scales in [2^-5, 2]; the Peetre exponents of n/p- + 1 with
    p- = 2 and p- = 3/2.  Exact equality with the brute force."""
    rng = np.random.default_rng(64)
    spec = GridSpec(2, 64, 8.0)
    t = 2.0 ** rng.uniform(-5.0, 1.0, 10)
    t[:2] = 1.0, spec.h
    G = np.stack([_random_sup_input(rng, spec.shape, kind) for kind in SUP_INPUTS + ("smooth",) * 2])
    assert np.array_equal(besov._weighted_sup(G, t, a, spec), _reference_sup(G, t, a, spec),
                          equal_nan=True)


def _far_peak(spec, rng):
    """A narrow bump at a random centre whose tails fall to about 1e-50 of
    its peak across the torus, as in the local-means Gaussian stacks: far
    peaks dominate most of the row."""
    x, L = spec.axis(), spec.L
    dist = np.abs((x - rng.uniform(-L, L) + L) % (2.0 * L) - L)
    return rng.uniform(0.5, 2.0) * np.exp(-115.0 * (dist / L) ** 2)


@pytest.mark.parametrize("N", [64, 128, 1024])
def test_weighted_sup_near_far_split_bit_identical(N, monkeypatch):
    """The 1-D near/far split: at N = 64 the near field covers every
    offset, at N = 128 the far field spans four tiles.  Each stack mixes far
    peaks, two-peak rows and the SUP_INPUTS kinds; it is also checked with
    one kept point per gather, so that the far points of one (row, tile)
    straddle gathers.  Exact equality with the brute force."""
    rng = np.random.default_rng(N)
    spec = GridSpec(1, N, 8.0)
    for trial in range(3):
        a = math.exp(rng.uniform(math.log(0.2), math.log(40.0)))
        t = 2.0 ** rng.uniform(-5.0, 1.0, 14)
        rows = [_far_peak(spec, rng) for _ in range(4)]
        rows += [np.maximum(_far_peak(spec, rng), 1e-20 * _far_peak(spec, rng)) for _ in range(2)]
        rows += [_random_sup_input(rng, spec.shape, kind) for kind in SUP_INPUTS]
        G = np.stack(rows)
        ref = _reference_sup(G, t, a, spec)
        assert np.array_equal(besov._weighted_sup(G, t, a, spec), ref, equal_nan=True)
        with monkeypatch.context() as m:
            m.setattr(besov, "_CHUNK", besov._TILE)
            assert np.array_equal(besov._weighted_sup(G, t, a, spec), ref, equal_nan=True)


def test_peetre_maximal_matches_reference(spec, pair, corpus_fns, monkeypatch):
    f = GridFunction(spec, corpus_fns["mod8"])
    alpha = const(spec, 0.3)
    fast = _peetre_row(f, 0.5, 2.5, alpha, pair.phi_hat)
    monkeypatch.setattr(besov, "_weighted_sup", _reference_sup)
    ref = _peetre_row(f, 0.5, 2.5, alpha, pair.phi_hat)
    assert np.array_equal(fast, ref)


def test_peetre_maximal_2d_matches_reference(monkeypatch):
    spec = GridSpec(2, 32, 4.0)
    X, Y = spec.coords()
    f = GridFunction(spec, np.exp(1j * 3 * X) * np.exp(-(X**2 + 2 * Y**2) / 2.0))
    alpha = ExponentField.from_callable(
        spec, lambda x, y: 0.5 + 0.1 * np.sin(np.pi * x / 4.0) * np.sin(np.pi * y / 4.0))
    kernel = build_continuous_pair(spec, ScaleGrid(4, 2)).phi_hat
    fast = _peetre_row(f, 0.5, 2.5, alpha, kernel)
    monkeypatch.setattr(besov, "_weighted_sup", _reference_sup)
    assert np.array_equal(fast, _peetre_row(f, 0.5, 2.5, alpha, kernel))


def test_two_dimensional_maximal_norms_match_reference(monkeypatch):
    spec = GridSpec(2, 32, 4.0)
    scales = ScaleGrid(4, 2)
    X, Y = spec.coords()
    f = GridFunction(spec, np.exp(1j * 3 * X) * np.exp(-(X**2 + 2 * Y**2) / 2.0))
    alpha = ExponentField.from_callable(
        spec, lambda x, y: 0.5 + 0.1 * np.sin(np.pi * x / 4.0) * np.sin(np.pi * y / 4.0))
    p = ExponentField.from_callable(spec, lambda x, y: 2.0 + 0.5 * np.cos(np.pi * y / 4.0))
    Pc = BesovParams(alpha, p, const(spec, 2.0), 2.5, scales, build_continuous_pair(spec, scales))
    Pl = BesovParams(alpha, p, const(spec, 2.0), 2.5, scales, build_local_means(1, 1.0, spec))
    fast = (besov_peetre(f, Pc), besov_local_means(f, Pl))
    monkeypatch.setattr(besov, "_weighted_sup", _reference_sup)
    assert fast == (besov_peetre(f, Pc), besov_local_means(f, Pl))


def test_peetre_eta_envelope_bound(spec, pair, corpus_fns):
    """Maximal values are controlled by the eta-smoothed p- power mean of
    the weighted convolution (the chain behind the maximal theorem)."""
    f = GridFunction(spec, corpus_fns["mod4"])
    t, p_minus, a = 0.25, 2.0, 1.5
    alpha = const(spec, 0.5)
    out = _peetre_row(f, t, a, alpha, pair.phi_hat)
    conv = inverse_fourier(GridFunction(spec, fourier(f).values * pair.phi_hat(t * spec.xi_radius())))
    weighted = (t ** (-0.5) * np.abs(conv.values)) ** p_minus
    eta = GridFunction(spec, eta_periodized(t, a * p_minus, spec))
    smooth = convolve_kernel(GridFunction(spec, weighted), fourier(eta))
    rhs = np.abs(smooth.values) ** (1.0 / p_minus)
    c = (out / rhs).max()
    assert math.isfinite(c) and c > 0


def test_peetre_refinement_moves_little(pair):
    """Grid sup vs the sup on a twice-finer grid (zero-padded spectrum):
    each maximal value moves by < 1%."""
    coarse = GridSpec(1, 512, 16.0)
    fine = GridSpec(1, 1024, 16.0)
    (x,) = coarse.coords()
    f = GridFunction(coarse, np.exp(1j * 6 * x) * np.exp(-(x**2) / 2.0))
    fh = fourier(f).values
    pad = np.zeros(1024, dtype=complex)
    pad[256:768] = fh  # embed the coarse spectrum in the fine frequency axis
    f_fine = inverse_fourier(GridFunction(fine, pad))
    t, a = 0.25, 1.5
    alpha_c = ExponentField.from_callable(coarse, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 16.0))
    alpha_f = ExponentField.from_callable(fine, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 16.0))
    out_c = _peetre_row(f, t, a, alpha_c, pair.phi_hat)
    out_f = _peetre_row(f_fine, t, a, alpha_f, pair.phi_hat)
    rel = np.abs(out_f[::2] - out_c) / out_c.max()
    assert rel.max() < 0.01


def test_besov_peetre_dominates_continuous(spec, scales, pair, corpus_fns):
    alpha = ExponentField.from_callable(spec, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 16.0))
    P = BesovParams(alpha, const(spec, 2.0), const(spec, 2.0), 1.5, scales, pair)
    for vals in corpus_fns.values():
        f = GridFunction(spec, vals)
        assert besov_peetre(f, P) >= besov_continuous(f, P) * (1.0 - 1e-12)


def test_peetre_hypothesis_guard(spec, scales, pair, corpus_fns):
    P = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 0.3, scales, pair)
    with pytest.raises(HypothesisError, match="n/p-"):
        besov_peetre(GridFunction(spec, corpus_fns["gauss"]), P)


# --- local means -------------------------------------------------------------------


def test_local_means_ratio_to_discrete(spec, scales, local_means, dyadic, corpus_fns):
    P_l = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 1.5,
                      scales, local_means)
    P_d = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 1.5,
                      scales, dyadic)
    ratios = []
    for vals in corpus_fns.values():
        f = GridFunction(spec, vals)
        ratios.append(besov_local_means(f, P_l) / besov_discrete(f, P_d))
    assert max(ratios) / min(ratios) <= 30.0


def test_local_means_moment_hypothesis_guard(spec, scales, corpus_fns):
    weak = build_local_means(0, 1.0, spec)  # S+1 = 1 <= alpha+ = 1.5
    P = BesovParams(const(spec, 1.5), const(spec, 2.0), const(spec, 2.0), 1.5, scales, weak)
    with pytest.raises(HypothesisError, match="alpha\\+ < S\\+1"):
        besov_local_means(GridFunction(spec, corpus_fns["gauss"]), P)


@pytest.mark.parametrize("S", [0, 2])
def test_local_means_even_S_rejected(spec, scales, corpus_fns, S):
    """alpha+ = 0.5 < S+1 holds, but for even S the kernel k is no Schwartz
    function: |xi|^(S+1) is not smooth at 0."""
    P = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 1.5, scales,
                    build_local_means(S, 1.0, spec))
    with pytest.raises(HypothesisError, match=f"S odd or -1.*S\\+1.*got S = {S}"):
        besov_local_means(GridFunction(spec, corpus_fns["gauss"]), P)


@pytest.mark.parametrize("S,alpha", [(-1, -0.5), (1, 0.5), (3, 0.5)])
def test_local_means_odd_S_evaluates(spec, scales, corpus_fns, S, alpha):
    P = BesovParams(const(spec, alpha), const(spec, 2.0), const(spec, 2.0), 1.5, scales,
                    build_local_means(S, 1.0, spec))
    value = besov_local_means(GridFunction(spec, corpus_fns["gauss"]), P)
    assert math.isfinite(value) and value > 0


def test_local_means_peetre_hypothesis_guard(spec, scales, local_means, corpus_fns):
    P = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 0.3, scales,
                    local_means)
    with pytest.raises(HypothesisError, match="n/p-"):
        besov_local_means(GridFunction(spec, corpus_fns["gauss"]), P)


# --- quasi-norm axioms ---------------------------------------------------------------


def test_r_power_triangle(spec, scales, dyadic):
    rng = np.random.default_rng(31)
    (x,) = spec.coords()
    env = np.exp(-(x**2) / 18.0)
    pv = 0.75
    r = min(1.0, pv)
    P = BesovParams(const(spec, 0.5), const(spec, pv), const(spec, pv), 1.5, scales, dyadic)
    for _ in range(3):
        f = GridFunction(spec, rng.standard_normal(1024) * env)
        g = GridFunction(spec, rng.standard_normal(1024) * env)
        lhs = besov_discrete(GridFunction(spec, f.values + g.values), P) ** r
        rhs = besov_discrete(f, P) ** r + besov_discrete(g, P) ** r
        assert lhs <= rhs * (1.0 + 1e-6)


def test_kernel_type_mismatch(spec, scales, pair, dyadic, corpus_fns):
    f = GridFunction(spec, corpus_fns["gauss"])
    P = BesovParams(const(spec, 0.5), const(spec, 2.0), const(spec, 2.0), 1.5, scales, pair)
    with pytest.raises(TypeError, match="DyadicFamily"):
        besov_discrete(f, P)


def test_two_dimensional_smoke():
    spec = GridSpec(2, 32, 4.0)
    scales = ScaleGrid(4, 2)
    pair = build_continuous_pair(spec, scales)
    dyad = build_dyadic(spec, 2)
    X, Y = spec.coords()
    f = GridFunction(spec, np.exp(-(X**2 + Y**2) / 2.0))
    alpha = ExponentField.from_callable(
        spec, lambda x, y: 0.5 + 0.1 * np.sin(np.pi * x / 4.0) * np.sin(np.pi * y / 4.0))
    p = const(spec, 2.0)
    Pc = BesovParams(alpha, p, p, 3.0, scales, pair)
    Pd = BesovParams(alpha, p, p, 3.0, scales, dyad)
    nc, nd = besov_continuous(f, Pc), besov_discrete(f, Pd)
    npe = besov_peetre(f, Pc)
    assert 0 < nc < math.inf and 0 < nd < math.inf
    assert npe >= nc * (1.0 - 1e-12)
    assert 0.05 < nc / nd < 20.0


# --- scale stacks vs the per-scale list path ----------------------------------------


def _reference_besov(kind, f, P):
    """The per-scale list path: one inverse transform, one GridFunction and,
    for q = inf, one Luxemburg solve per scale; the stacked evaluators must
    match it to rel 1e-12."""
    spec, alpha = f.spec, P.alpha.samples
    fhat = fourier(f).values
    radii = spec.xi_radius()

    def conv(profile, t):
        return inverse_fourier(GridFunction(spec, fhat * profile(t * radii))).values

    def peetre(profile, t, weight):
        g = weight * np.abs(conv(profile, t))
        return GridFunction(spec, besov._weighted_sup(g[None], (t,), P.a, spec)[0])

    if kind == "discrete":
        fam = P.kernels
        blocks = [GridFunction(spec, np.exp(math.log(2.0) * v * alpha) * conv(fam.psi_hat(v), 1.0))
                  for v in range(fam.v_max + 1)]
        if P.q.range_min == math.inf:
            return max(luxemburg_norm(b, P.p) for b in blocks)
        return mixed_norm_discrete(np.stack([b.values for b in blocks]), P.p, P.q)
    K = P.kernels
    low_profile, band_profile = ((K.k0_hat, K.k_hat) if kind == "local_means"
                                 else (K.phi0_hat, K.phi_hat))
    if kind == "continuous":
        low = GridFunction(spec, conv(low_profile, 1.0))
        family = [GridFunction(spec, np.exp(-math.log(t) * alpha) * conv(band_profile, t))
                  for t in P.scales.t]
    else:
        low = peetre(low_profile, 1.0, 1.0)
        family = [peetre(band_profile, t, np.exp(-math.log(t) * alpha)) for t in P.scales.t]
    if P.q.range_min == math.inf:
        top = max(luxemburg_norm(g, P.p) for g in family)
    else:
        top = mixed_norm_continuous(np.stack([g.values for g in family]), P.p, P.q, P.scales)
    return luxemburg_norm(low, P.p) + top


EVALUATORS = {"continuous": besov_continuous, "discrete": besov_discrete,
              "peetre": besov_peetre, "local_means": besov_local_means}


@pytest.fixture(scope="module")
def kernels_1d(pair, dyadic, local_means):
    """The kernels of each evaluator on the 1-D test grid."""
    return {"continuous": pair, "discrete": dyadic, "peetre": pair, "local_means": local_means}


@pytest.fixture(scope="module")
def setups(spec, scales, kernels_1d, corpus_fns):
    """Per dimension: f, scales and the kernels of each evaluator."""
    spec2, scales2 = GridSpec(2, 32, 4.0), ScaleGrid(4, 2)
    X, Y = spec2.coords()
    f2 = GridFunction(spec2, np.exp(1j * 3 * X) * np.exp(-(X**2 + 2 * Y**2) / 2.0))
    pair2 = build_continuous_pair(spec2, scales2)
    return {
        1: (GridFunction(spec, corpus_fns["mod4"]), scales, kernels_1d),
        2: (f2, scales2,
            {"continuous": pair2, "discrete": build_dyadic(spec2, 2), "peetre": pair2,
             "local_means": build_local_means(1, 1.0, spec2)}),
    }


def _triple(spec, name):
    """A preset triple, or "q-inf": the sine-alpha alpha and sine-p p with
    q = inf."""
    if name == "q-inf":
        return (make_triple(spec, "sine-alpha")[0], make_triple(spec, "sine-p")[1],
                const(spec, math.inf))
    return make_triple(spec, name)


@pytest.mark.parametrize("triple", ["constant", "sine-alpha", "sine-p", "sine-q", "q-inf"])
@pytest.mark.parametrize("n", [1, 2])
def test_stacked_evaluators_match_per_scale_reference(setups, n, triple):
    f, scales, kernels = setups[n]
    alpha, p, q = _triple(f.spec, triple)
    a = f.spec.n / p.range_min + 1.0
    for kind, evaluate in EVALUATORS.items():
        P = BesovParams(alpha, p, q, a, scales, kernels[kind])
        assert evaluate(f, P) == pytest.approx(_reference_besov(kind, f, P), rel=1e-12), kind


@pytest.mark.parametrize("triple", ["sine-alpha", "sine-p", "sine-q"])
@pytest.mark.parametrize("n", [1, 2])
def test_evaluators_invariant_under_translation_and_conjugation(setups, n, triple):
    """Rolling f, alpha, p and q by one torus offset, or conjugating f,
    leaves every evaluator unchanged up to rounding."""
    f, scales, kernels = setups[n]
    spec = f.spec
    axes = tuple(range(spec.n))
    shift = (37, 11)[:spec.n]

    def roll(v):
        return np.roll(v, shift, axis=axes)

    fields = make_triple(spec, triple)
    moved = tuple(ExponentField(spec, roll(e.samples)) for e in fields)
    a = spec.n / fields[1].range_min + 1.0
    for kind, evaluate in EVALUATORS.items():
        base = evaluate(f, BesovParams(*fields, a, scales, kernels[kind]))
        translated = evaluate(GridFunction(f.spec, roll(f.values)),
                              BesovParams(*moved, a, scales, kernels[kind]))
        conjugated = evaluate(GridFunction(f.spec, np.conj(f.values)),
                              BesovParams(*fields, a, scales, kernels[kind]))
        assert translated == pytest.approx(base, rel=1e-12), kind
        assert conjugated == pytest.approx(base, rel=1e-12), kind


def test_homogeneity(setups):
    """evaluate(c f) = |c| evaluate(f) for every evaluator, n = 1 and 2 and
    variable alpha, p, q and q = inf: exactly when c is -1, 1j or a power
    of two (every rounding scales with it), to rel 1e-13 for c = 3 and
    0.7j (measured: at most 4.4e-16)."""
    for n, (f, scales, kernels) in setups.items():
        for triple in ("sine-alpha", "sine-p", "sine-q", "q-inf"):
            fields = _triple(f.spec, triple)
            a = f.spec.n / fields[1].range_min + 1.0
            for kind, evaluate in EVALUATORS.items():
                P = BesovParams(*fields, a, scales, kernels[kind])
                base = evaluate(f, P)
                case = f"n={n} {triple} {kind}"
                for c in (-1.0, 1j, 2.0**-3, 2.0**5):
                    assert evaluate(c * f, P) == abs(c) * base, f"{case} c={c}"
                for c in (3.0, 0.7j):
                    assert evaluate(c * f, P) == pytest.approx(abs(c) * base, rel=1e-13), \
                        f"{case} c={c}"


def test_banks_built_once(spec, scales, kernels_1d, corpus_fns, monkeypatch):
    """A second call with the same params evaluates no radial profile."""
    calls = []
    profile_call = calderon.RadialProfile.__call__

    def counting(self, r):
        calls.append(self.label)
        return profile_call(self, r)

    monkeypatch.setattr(calderon.RadialProfile, "__call__", counting)
    alpha = ExponentField.from_callable(spec, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 16.0))
    p = const(spec, 2.0)
    for kind, evaluate in EVALUATORS.items():
        P = BesovParams(alpha, p, p, 1.5, scales, kernels_1d[kind])
        evaluate(GridFunction(spec, corpus_fns["gauss"]), P)
        calls.clear()
        evaluate(GridFunction(spec, corpus_fns["mod8"]), P)
        assert calls == [], kind


@pytest.mark.parametrize("base,amp", [(2.0, 0.5), (0.8, 0.3), (1.5, 1.0)])
def test_besov_at_q_equal_p_match_pointwise_sum(spec, scales, pair, dyadic, base, amp):
    """At q = p both mixed-norm evaluators reduce to Luxemburg norms of the
    pointwise sum over their family (B = F at p(.) = q(.); see
    test_mixed_norms_at_q_equal_p_match_pointwise_sum), over the ten default
    entries at alpha = sine-alpha.  rtol 1e-13; measured worst 1.0e-15."""
    alpha = make_triple(spec, "sine-alpha")[0]
    p = ExponentField.from_callable(spec, lambda x: base + amp * np.sin(np.pi * x / spec.L))
    tc, td = (1.0, *scales.t), tuple(2.0 ** -np.arange(dyadic.v_max + 1))
    bank_c = calderon.multiplier_bank(pair.phi0_hat, pair.phi_hat, spec, tc)
    bank_d = calderon.multiplier_bank(dyadic.psi0_hat, dyadic.band, spec, td)
    for name, f in build_corpus(spec):
        M = besov._family(besov._moduli(f, bank_c), tc, alpha)
        D = besov._family(besov._moduli(f, bank_d), td, alpha)
        ref_c = (luxemburg_norm(GridFunction(spec, M[0]), p)
                 + luxemburg_norm(pointwise_sum(M[1:], scales.weights, p), p))
        ref_d = luxemburg_norm(pointwise_sum(D, np.ones(len(D)), p), p)
        got_c = besov_continuous(f, BesovParams(alpha, p, p, 1.5, scales, pair))
        got_d = besov_discrete(f, BesovParams(alpha, p, p, 1.5, scales, dyadic))
        assert got_c == pytest.approx(ref_c, rel=1e-13), name
        assert got_d == pytest.approx(ref_d, rel=1e-13), name


# --- the moduli memo: |k_j * f| once per (function, bank) ---------------------------


def _counting_transforms(monkeypatch):
    """Count the forward transforms of f that a moduli stack is built from."""
    calls = []

    def counting(f):
        calls.append(f)
        return fourier(f)

    monkeypatch.setattr(besov, "fourier", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_warm_moduli_give_the_cold_norm(setups, n, monkeypatch):
    """Each evaluator on an f whose slot another triple has warmed (for
    besov_continuous, besov_peetre on another triple) builds no stack and
    equals, as a float, a cold run on a fresh copy of f."""
    f, scales, kernels = setups[n]
    warm, fields = _triple(f.spec, "sine-alpha"), _triple(f.spec, "sine-q")
    a = f.spec.n / min(warm[1].range_min, fields[1].range_min) + 1.0
    calls = _counting_transforms(monkeypatch)
    for kind, evaluate in EVALUATORS.items():
        first = "peetre" if kind == "continuous" else kind
        g = GridFunction(f.spec, f.values)
        EVALUATORS[first](g, BesovParams(*warm, a, scales, kernels[first]))
        P = BesovParams(*fields, a, scales, kernels[kind])
        calls.clear()
        got = evaluate(g, P)
        assert calls == [], kind
        assert got == evaluate(GridFunction(f.spec, f.values), P), kind
        assert len(calls) == 1, kind


def test_moduli_slot_keyed_on_bank_identity(spec, pair, gaussian):
    """A bank equal in value but another object recomputes the stack, and
    the slot keeps only the stack of the latest bank."""
    bank = calderon.multiplier_bank(pair.phi0_hat, pair.phi_hat, spec, (1.0, 0.5, 0.25))
    twin = bank.copy()
    first = besov._moduli(gaussian, bank)
    assert besov._moduli(gaussian, bank) is first
    again = besov._moduli(gaussian, twin)
    assert again is not first and np.array_equal(again, first)
    assert besov._MODULI[gaussian][0] is twin
    assert besov._moduli(gaussian, bank) is not again


def test_moduli_slot_dies_with_its_function(spec, pair):
    (x,) = spec.coords()
    f = GridFunction(spec, np.exp(-(x**2) / 3.0))
    bank = calderon.multiplier_bank(pair.phi0_hat, pair.phi_hat, spec, (1.0, 0.5))
    besov._moduli(f, bank)
    gc.collect()
    held = len(besov._MODULI)
    assert f in besov._MODULI
    del f
    gc.collect()
    assert len(besov._MODULI) == held - 1


def test_moduli_stack_read_only(spec, pair, gaussian):
    bank = calderon.multiplier_bank(pair.phi0_hat, pair.phi_hat, spec, (1.0, 0.5))
    stack = besov._moduli(gaussian, bank)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0] = 1.0


@pytest.mark.parametrize("name", ["alpha", "p", "q"])
def test_exponents_on_another_grid_rejected(spec, scales, kernels_1d, corpus_fns, name):
    """f on one grid, one exponent on a grid of the same shape but another L."""
    other = GridSpec(1, spec.N, 2.0 * spec.L)
    fields = {"alpha": const(spec, 0.5), "p": const(spec, 2.0), "q": const(spec, 2.0)}
    fields[name] = const(other, fields[name].samples.flat[0])
    f = GridFunction(spec, corpus_fns["gauss"])
    for kind, evaluate in EVALUATORS.items():
        P = BesovParams(fields["alpha"], fields["p"], fields["q"], 1.5, scales,
                        kernels_1d[kind])
        with pytest.raises(ValueError, match="different grid"):
            evaluate(f, P)


@pytest.mark.parametrize("name,bad,error,match", [
    ("q", math.inf, HypothesisError, "identically inf"),
    ("p", 0.0, ValueError, "bounded away"),
    ("alpha", math.inf, ValueError, "alpha must be finite"),
], ids=["q-partly-inf", "p-with-zero", "alpha-with-inf"])
def test_params_checked_when_built(spec, scales, pair, name, bad, error, match):
    """One bad sample makes building the BesovParams raise, before any
    evaluator is called."""
    fields = {"alpha": const(spec, 0.5), "p": const(spec, 2.0), "q": const(spec, 2.0)}
    samples = fields[name].samples.copy()
    samples[0] = bad
    fields[name] = ExponentField(spec, samples)
    with pytest.raises(error, match=match):
        BesovParams(fields["alpha"], fields["p"], fields["q"], 1.5, scales, pair)
