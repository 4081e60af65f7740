import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov import grid
from varbesov.grid import GridFunction, GridSpec, ScaleGrid, eta_periodized, eta_pointwise, fourier

from oracles import classical_lp, convolve_kernel, inverse_fourier


# --- spec validation ---------------------------------------------------------


@pytest.mark.parametrize("n,N,L", [(3, 64, 1.0), (1, 100, 1.0), (1, 8, 1.0), (1, 64, 0.0),
                                   (1, 64, math.inf), (2, 64, math.nan)])
def test_bad_specs_rejected(n, N, L):
    with pytest.raises(ValueError):
        GridSpec(n, N, L)


def test_spec_derived_quantities():
    s = GridSpec(1, 1024, 16.0)
    assert s.h == 32.0 / 1024
    assert s.xi_max == pytest.approx(math.pi * 1024 / 32.0)
    xi = s.freq_axis()
    assert xi[0] == pytest.approx(-s.xi_max)
    assert xi[512] == 0.0


# --- geometry against the formulas it was once cached from -----------------


def _ref_axis(n, N, L):
    return -L + (2.0 * L / N) * np.arange(N)


def _ref_freq_axis(n, N, L):
    return (np.pi / L) * (np.arange(N) - N // 2)


def _ref_xi_radius(n, N, L):
    xi = _ref_freq_axis(n, N, L)
    if n == 1:
        r = np.abs(xi)
    else:
        r = np.sqrt(xi[:, None] ** 2 + xi[None, :] ** 2)
    return r


def _ref_periodic_radius(n, N, L):
    x = _ref_axis(n, N, L)
    d = np.minimum(np.abs(x), 2.0 * L - np.abs(x))
    if n == 1:
        r = d
    else:
        r = np.sqrt(d[:, None] ** 2 + d[None, :] ** 2)
    return r


def _ref_offset_distance(n, N, L):
    k = np.arange(N)
    d1 = (2.0 * L / N) * np.minimum(k, N - k)
    d = d1 if n == 1 else np.sqrt(d1[:, None] ** 2 + d1[None, :] ** 2)
    return d


def _ref_scale_nodes(K, J):
    j = np.arange(J * K + 1)
    t = 2.0 ** (-j / K)
    w = np.full(J * K + 1, np.log(2.0) / K)
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


def _ref_coords(axis, n):
    return (axis,) if n == 1 else tuple(np.meshgrid(axis, axis, indexing="ij"))


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("n,N,L", [(1, 16, 16.0), (1, 1024, 16.0), (1, 2048, 16.0),
                                   (2, 16, 8.0), (2, 64, 8.0), (2, 128, 8.0)])
def test_geometry_matches_reference_formulas(n, N, L):
    s = GridSpec(n, N, L)
    ref = (n, N, L)
    assert _same(s.axis(), _ref_axis(*ref))
    assert _same(s.freq_axis(), _ref_freq_axis(*ref))
    assert _same(s.xi_radius(), _ref_xi_radius(*ref))
    assert _same(s.periodic_radius(), _ref_periodic_radius(*ref))
    assert _same(s.offset_distance(), _ref_offset_distance(*ref))
    got, want = s.coords(), _ref_coords(_ref_axis(*ref), n)
    assert len(got) == len(want) == n
    assert all(_same(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("K,J", [(1, 1), (8, 5), (4, 3), (64, 9), (3, 7)])
def test_scale_nodes_match_reference_formulas(K, J):
    s = ScaleGrid(K, J)
    t, w = _ref_scale_nodes(K, J)
    assert len(s) == len(t)
    assert _same(s.t, t) and _same(s.weights, w)


# --- fourier -----------------------------------------------------------------


def test_fourier_zero(spec):
    z = GridFunction.zeros(spec)
    assert np.abs(fourier(z).values).max() == 0.0


def test_fourier_gaussian_closed_form(spec):
    # F(e^{-x^2/2}) = e^{-xi^2/2} under the symmetric convention
    (x,) = spec.coords()
    f = GridFunction(spec, np.exp(-(x**2) / 2.0))
    xi = spec.freq_axis()
    err = np.abs(fourier(f).values - np.exp(-(xi**2) / 2.0)).max()
    assert err < 1e-10


def test_round_trip(spec):
    rng = np.random.default_rng(0)
    f = GridFunction(spec, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    back = inverse_fourier(fourier(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_fourier_gaussian_2d():
    spec = GridSpec(2, 64, 8.0)
    X, Y = spec.coords()
    f = GridFunction(spec, np.exp(-(X**2 + Y**2) / 2.0))
    XI, ETA = np.meshgrid(spec.freq_axis(), spec.freq_axis(), indexing="ij")
    err = np.abs(fourier(f).values - np.exp(-(XI**2 + ETA**2) / 2.0)).max()
    assert err < 1e-10


# --- convolution -------------------------------------------------------------


def test_convolve_delta_kernel(spec, gaussian):
    delta = GridFunction(spec, np.full(spec.shape, (2 * math.pi) ** (-0.5)))
    out = convolve_kernel(gaussian, delta)
    assert np.abs(out.values - gaussian.values).max() < 1e-12


def test_convolve_gaussians_closed_form(spec):
    (x,) = spec.coords()
    s1, s2 = 1.0, 1.5
    f = GridFunction(spec, np.exp(-(x**2) / (2 * s1**2)))
    khat = fourier(GridFunction(spec, np.exp(-(x**2) / (2 * s2**2))))
    got = convolve_kernel(f, khat).values
    s3sq = s1**2 + s2**2
    expect = s1 * s2 * math.sqrt(2 * math.pi / s3sq) * np.exp(-(x**2) / (2 * s3sq))
    assert np.abs(got - expect).max() < 1e-8


def test_convolve_disjoint_supports(spec):
    xi = spec.freq_axis()
    khat_vals = np.where(np.abs(xi) <= 2.0, 1.0, 0.0)
    fhat_vals = np.where(np.abs(xi) >= 3.0, 1.0, 0.0) * np.exp(-(xi**2) / 100.0)
    f = inverse_fourier(GridFunction(spec, fhat_vals))
    out = convolve_kernel(f, GridFunction(spec, khat_vals))
    assert np.abs(out.values).max() < 1e-10


def test_convolve_spec_mismatch(spec, gaussian):
    other = GridSpec(1, 512, 16.0)
    with pytest.raises(ValueError, match="mismatch"):
        convolve_kernel(gaussian, GridFunction.zeros(other))


def test_convolution_commutes(spec, gaussian):
    xi = spec.freq_axis()
    a = GridFunction(spec, np.exp(-(xi**2)))
    b = GridFunction(spec, 1.0 / (1.0 + xi**2))
    ab = convolve_kernel(convolve_kernel(gaussian, a), b)
    ba = convolve_kernel(convolve_kernel(gaussian, b), a)
    assert np.abs(ab.values - ba.values).max() < 1e-10


def test_parseval(spec):
    rng = np.random.default_rng(1)
    f = GridFunction(spec, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    fh = fourier(f)
    spatial = classical_lp(f, 2.0)
    dxi = math.pi / spec.L
    freq = math.sqrt(dxi * np.sum(np.abs(fh.values) ** 2))
    assert abs(spatial - freq) < 1e-10 * spatial


# --- eta kernels -------------------------------------------------------------


def test_eta_mass_independent_of_t():
    # c(m) = 2/(m-1) for n = 1; fine grid so the peak at the smallest scale
    # is still resolved (quadrature error scales like (h/t)^2)
    spec = GridSpec(1, 1024, 4.0)
    m = 3.0
    masses = [spec.cell_volume * eta_periodized(t, m, spec).sum() for t in (1.0, 0.25, 0.0625)]
    c = 2.0 / (m - 1.0)
    for mass in masses:
        assert abs(mass - c) / c < 0.01


@pytest.mark.parametrize("N,L", [(64, 1.0), (1024, 8.0)])
@pytest.mark.parametrize("m", [1.05, 1.5, 3.0, 12.0])
def test_eta_periodized_1d_exact(m, N, L):
    """The 1-D image sum against its closed form at 30 digits:
    t^-1 [(1 + |x|/t)^-m + (t/P)^m (zeta(m, 1 + (t+x)/P) + zeta(m, 1 + (t-x)/P))],
    P = 2L, within 1e-14 relative at every point checked."""
    mpmath = pytest.importorskip("mpmath")
    spec = GridSpec(1, N, L)
    idx = [0, 1, N // 2, N // 2 + 1, N - 1, *(k * N // 10 for k in range(1, 10))]
    x = spec.axis()
    with mpmath.workdps(30):
        P = mpmath.mpf(2.0 * L)
        for t in (1.0, 0.5, 0.125, 2.0**-6):
            got = eta_periodized(t, m, spec)
            for i in idx:
                xi, tm = mpmath.mpf(float(x[i])), mpmath.mpf(t)
                want = ((1 + abs(xi) / tm) ** -m + (tm / P) ** m * (
                    mpmath.zeta(m, 1 + (tm + xi) / P) + mpmath.zeta(m, 1 + (tm - xi) / P))) / tm
                rel = abs((mpmath.mpf(float(got[i])) - want) / want)
                assert rel <= 1e-14, f"t={t} x={x[i]}: relative error {float(rel):.2e}"


def _two_zeta_eta(t, m, spec):
    """The closed form with each Hurwitz zeta tail evaluated on its own."""
    t = np.asarray(t, dtype=float)
    tc, P, x = t.reshape(-1, 1), 2.0 * spec.L, spec.axis()
    images = (tc / P) ** m * (grid._hurwitz_zeta(m, 1.0 + (tc + x) / P)
                              + grid._hurwitz_zeta(m, 1.0 + (tc - x) / P))
    return (eta_pointwise(tc, m, np.abs(x), 1) + images / tc).reshape(t.shape + spec.shape)


@pytest.mark.parametrize("L", [8.0, 16.0 / 3.0, 3.7])
@pytest.mark.parametrize("N", [64, 2048])
@pytest.mark.parametrize("m", [1.5, 3.0])
def test_eta_periodized_bit_identical_to_two_tails(m, N, L):
    """Reading the second tail off the first at mirrored samples gives the
    two-tail evaluation exactly, also where x[N - i] != -x[i] (non-dyadic L)
    and the tail is evaluated directly."""
    spec = GridSpec(1, N, L)
    x = spec.axis()
    inexact = np.count_nonzero(x[-np.arange(N) % N] != -x)  # x[0] = -L always
    assert (inexact > 1) == (L != 8.0)
    for t in (2.0 ** -np.arange(0.0, 6.0, 0.25), 0.3, 1.0):
        assert eta_periodized(t, m, spec).tobytes() == _two_zeta_eta(t, m, spec).tobytes()


@pytest.mark.parametrize("n,N,L,m", [(1, 64, 1.0, 1.05), (1, 1024, 8.0, 3.0)])
def test_eta_periodized_stack_rows_equal_single_calls(n, N, L, m):
    spec = GridSpec(n, N, L)
    t = 2.0 ** -np.arange(0.0, 4.0, 0.75)
    stack = eta_periodized(t, m, spec)
    assert stack.shape == t.shape + spec.shape and stack.dtype == float
    for tj, row in zip(t, stack):
        assert np.array_equal(row, eta_periodized(tj, m, spec))


@pytest.mark.parametrize("n", [1])
@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_eta_periodized_rejects_any_scale_outside_unit_interval(n, bad):
    spec = GridSpec(n, 32, 2.0)
    with pytest.raises(ValueError, match="must lie in"):
        eta_periodized(bad, 3.0, spec)
    with pytest.raises(ValueError, match="must lie in"):
        eta_periodized(np.array([1.0, 0.5, bad, 0.25]), 3.0, spec)


def test_eta_at_origin_and_monotone():
    assert eta_pointwise(1.0, 3.0, 0.0, 1) == 1.0
    r = np.linspace(0.0, 10.0, 200)
    v = eta_pointwise(0.5, 3.0, r, 1)
    assert np.all(np.diff(v) < 0)


def test_eta_rejects_small_m(spec):
    with pytest.raises(ValueError, match="m > n"):
        eta_periodized(0.5, 1.0, spec)


@pytest.mark.parametrize("t,m,match", [(0.5, 1.0, "m > n"), (0.0, 3.0, "scale t"),
                                       (np.array([0.5, -0.5]), 3.0, "scale t")],
                         ids=["m-equals-n", "t-zero", "t-negative"])
def test_eta_pointwise_rejects_bad_inputs(t, m, match):
    with pytest.raises(ValueError, match=match):
        eta_pointwise(t, m, np.linspace(0.0, 1.0, 5), 1)


def test_eta_hat_realises_convolution(spec, gaussian):
    # convolving with eta approximates integral eta(y) f(x-y) dy; for the
    # wide Gaussian the result must stay between c(m)*min f and c(m)*max f
    eta = GridFunction(spec, eta_periodized(0.5, 3.0, spec))
    out = convolve_kernel(gaussian, fourier(eta)).values.real
    assert out.max() <= 1.0 * 1.01  # c(3) = 1 for n = 1
    assert out.min() >= -1e-12


# --- scale grid --------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 32), st.integers(1, 12))
def test_scale_grid_weight_sum(K, J):
    s = ScaleGrid(K, J)
    assert abs(s.weights.sum() - J * math.log(2.0)) < 1e-12
    assert np.all(np.diff(s.t) < 0)
    assert s.t[0] == 1.0 and 0.0 < s.t[-1] <= 1.0


def test_scale_grid_octave_telescope():
    """Trapezoid dt/t weights: ln2/K inside, half that at both ends, so each
    octave carries ln 2."""
    K = 8
    s = ScaleGrid(K, 5)
    assert np.all(s.weights[1:-1] == math.log(2.0) / K)
    assert s.weights[0] == s.weights[-1] == math.log(2.0) / (2 * K)


def test_scale_grid_resolvability(spec):
    ScaleGrid(8, 5).require_resolvable(spec)  # 2/t_min = 64 <= 100.5
    with pytest.raises(ValueError, match="resolves only"):
        ScaleGrid(8, 7).require_resolvable(spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_grid_function_rejects_non_finite(spec, bad):
    vals = np.ones(spec.N, dtype=complex)
    vals[7] = bad
    with pytest.raises(ValueError, match="must be finite"):
        GridFunction(spec, vals)


def test_values_immutable(spec, gaussian):
    with pytest.raises(ValueError):
        gaussian.values[0] = 5.0
