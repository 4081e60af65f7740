import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov.grid import (
    GridFunction,
    GridSpec,
    ScaleGrid,
    convolve_kernel,
    eta_hat,
    eta_periodized,
    eta_pointwise,
    fourier,
    integrate,
    inverse_fourier,
    norm_l2,
)


# --- spec validation ---------------------------------------------------------


@pytest.mark.parametrize("n,N,L", [(3, 64, 1.0), (1, 100, 1.0), (1, 8, 1.0), (1, 64, 0.0)])
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


# --- fourier -----------------------------------------------------------------


def test_fourier_zero(spec):
    z = GridFunction.zeros(spec)
    assert np.abs(fourier(z).values).max() == 0.0


def test_fourier_gaussian_closed_form(spec):
    # F(e^{-x^2/2}) = e^{-xi^2/2} under the symmetric convention
    (x,) = spec.coords()
    f = GridFunction(spec, np.exp(-(x**2) / 2.0))
    (xi,) = spec.freq_coords()
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
    XI, ETA = spec.freq_coords()
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
    (xi,) = spec.freq_coords()
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
    (xi,) = spec.freq_coords()
    a = GridFunction(spec, np.exp(-(xi**2)))
    b = GridFunction(spec, 1.0 / (1.0 + xi**2))
    ab = convolve_kernel(convolve_kernel(gaussian, a), b)
    ba = convolve_kernel(convolve_kernel(gaussian, b), a)
    assert np.abs(ab.values - ba.values).max() < 1e-10


def test_parseval(spec):
    rng = np.random.default_rng(1)
    f = GridFunction(spec, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    fh = fourier(f)
    spatial = norm_l2(f)
    dxi = math.pi / spec.L
    freq = math.sqrt(dxi * np.sum(np.abs(fh.values) ** 2))
    assert abs(spatial - freq) < 1e-10 * spatial


# --- eta kernels -------------------------------------------------------------


def test_eta_mass_independent_of_t():
    # c(m) = 2/(m-1) for n = 1; fine grid so the peak at the smallest scale
    # is still resolved (quadrature error scales like (h/t)^2)
    spec = GridSpec(1, 1024, 4.0)
    m = 3.0
    masses = [integrate(eta_periodized(t, m, spec)).real for t in (1.0, 0.25, 0.0625)]
    c = 2.0 / (m - 1.0)
    for mass in masses:
        assert abs(mass - c) / c < 0.01


@pytest.mark.parametrize("t", [1.0, 0.5])
def test_eta_mass_2d(t):
    # c(m) = 2 pi/((m-1)(m-2)) for n = 2.  At m = 3 the image sum stops at
    # its 60-shell cap, so the continuum tail is added; it is about 0.8% of
    # the mass at t = 1, and the 0.5% bound fails without it.  Measured
    # errors: 0.12% at t = 1, 0.37% at t = 0.5 (quadrature of the peak).
    m = 3.0
    mass = integrate(eta_periodized(t, m, GridSpec(2, 32, 2.0))).real
    c = 2.0 * math.pi / ((m - 1.0) * (m - 2.0))
    assert abs(mass - c) / c < 0.005


def test_eta_at_origin_and_monotone():
    assert eta_pointwise(1.0, 3.0, 0.0, 1) == 1.0
    r = np.linspace(0.0, 10.0, 200)
    v = eta_pointwise(0.5, 3.0, r, 1)
    assert np.all(np.diff(v) < 0)


def test_eta_rejects_small_m(spec):
    with pytest.raises(ValueError, match="m > n"):
        eta_hat(0.5, 1.0, spec)


def test_eta_hat_realises_convolution(spec, gaussian):
    # convolving with eta approximates integral eta(y) f(x-y) dy; for the
    # wide Gaussian the result must stay between c(m)*min f and c(m)*max f
    out = convolve_kernel(gaussian, eta_hat(0.5, 3.0, spec)).values.real
    assert out.max() <= 1.0 * 1.01  # c(3) = 1 for n = 1
    assert out.min() >= -1e-12


# --- integrate ---------------------------------------------------------------


def test_integrate_zero(spec):
    assert integrate(GridFunction.zeros(spec)) == 0.0


def test_integrate_gaussian(spec, gaussian):
    assert abs(integrate(gaussian) - math.sqrt(2 * math.pi)) < 1e-10


def test_integrate_constant(spec):
    one = GridFunction(spec, np.ones(spec.shape))
    assert integrate(one).real == pytest.approx(2 * spec.L, abs=1e-12)


# --- scale grid --------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 32), st.integers(1, 12))
def test_scale_grid_weight_sum(K, J):
    s = ScaleGrid(K, J)
    assert abs(s.weights.sum() - J * math.log(2.0)) < 1e-12
    assert np.all(np.diff(s.t) < 0)
    assert s.t[0] == 1.0 and 0.0 < s.t[-1] <= 1.0


def test_scale_grid_octave_telescope():
    s = ScaleGrid(8, 5)
    for osum in s.octave_sums():
        assert abs(osum - math.log(2.0)) < 1e-15


def test_scale_grid_resolvability(spec):
    ScaleGrid(8, 5).require_resolvable(spec)  # 2/t_min = 64 <= 100.5
    with pytest.raises(ValueError, match="resolves only"):
        ScaleGrid(8, 7).require_resolvable(spec)


def test_values_immutable(spec, gaussian):
    with pytest.raises(ValueError):
        gaussian.values[0] = 5.0
