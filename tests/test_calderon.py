import csv
import inspect
import math
import warnings

import numpy as np
import pytest

from varbesov import calderon
from varbesov.besov import BesovParams, besov_discrete
from varbesov.calderon import (
    KernelPair,
    RadialProfile,
    annulus_bump,
    build_continuous_pair,
    build_dyadic,
    build_local_means,
    export_radial_table,
    max_dyadic_level,
)
from varbesov.exponent import ExponentField
from varbesov.grid import GridFunction, GridSpec, ScaleGrid, fourier

from oracles import (classical_lp, inverse_fourier, moment_slope, partition_residual,
                     reproducing_residual, tauberian_margins)


# --- continuous pair -----------------------------------------------------------


def test_low_pass_at_origin(pair):
    assert pair.phi0_hat(np.array([0.0]))[0] == 1.0


def test_phi_vanishes_off_annulus(pair):
    vals = pair.phi_hat(np.array([0.4, 2.1]))
    assert np.all(vals == 0.0)


def test_support_containment(pair):
    r = np.linspace(0.0, 8.0, 4001)
    phi = pair.phi_hat(r)
    assert np.abs(phi[(r < 0.5) | (r > 2.0)]).max() < 1e-12
    low = pair.phi0_hat(r)
    assert np.abs(low[r > 2.0]).max() < 1e-12


@pytest.mark.parametrize("profile", ["mollifier", "gauss", "mu-eta"])
def test_reproducing_residual_all_profiles(spec, scales, profile):
    p = build_continuous_pair(spec, scales, profile=profile)
    res = reproducing_residual(p, spec.xi_radius().ravel())
    assert res < 1e-6


def test_mu_eta_alias(spec, scales):
    p = build_continuous_pair(spec, scales, profile="mu-eta")
    assert p.label == "mu-eta"


def test_construction_rejects_unresolvable():
    spec = GridSpec(1, 64, 16.0)  # xi_max ~ 6.3
    with pytest.raises(ValueError, match="resolves only"):
        build_continuous_pair(spec, ScaleGrid(4, 4))


def test_coarse_construction_rejected(monkeypatch, spec, scales):
    """A box of width 0.6 in s = log2 r is no smooth bump: its trapezoid sum
    at the construction rate misses the identity by 1.6e-2.  The pair is
    shared after the first call, the check still runs on the second."""
    box = RadialProfile(lambda r: np.where(np.abs(calderon._log2(r)) < 0.3, 1.0, 0.0), "box")
    monkeypatch.setattr(calderon, "annulus_bump", lambda kind: box)
    for _ in range(2):
        with pytest.raises(ValueError, match="residual"):
            build_continuous_pair(spec, scales, profile="box")


def test_support_leak_raised_where_pair_is_built(monkeypatch, spec, scales):
    """Every annulus_bump kind lies inside the annulus, so a bump non-zero
    past r = 2 takes a replaced annulus_bump.  The pair construction then
    finds the leak, and, as no exception is cached, on every call."""
    def leaky_bump(kind):
        def fn(r):
            out = np.zeros_like(r)
            pos = r > 0
            out[pos] = np.exp(-np.log2(r[pos]) ** 2)
            return out
        return RadialProfile(fn, "leaky")
    monkeypatch.setattr(calderon, "annulus_bump", leaky_bump)
    for _ in range(2):
        with pytest.raises(ValueError, match="kernel support leaks"):
            build_continuous_pair(spec, scales, profile="leaky")


def test_unknown_bump_kind_rejected(spec, scales):
    with pytest.raises(ValueError, match="unknown bump kind 'nope'"):
        annulus_bump("nope")
    with pytest.raises(ValueError, match="unknown bump kind 'nope'"):
        build_continuous_pair(spec, scales, profile="nope")


@pytest.mark.parametrize("profile", ["mollifier", "gauss", "mu-eta"])
def test_calderon_reconstruction(spec, profile):
    """Low-pass plus dt/t aggregate of the band parts rebuilds f.

    Verified on the construction-matched scale grid (the construction and
    check quadratures join seamlessly at t = 1 there); band-limited corpus
    member with spectrum inside the resolvable ball.
    """
    s64 = ScaleGrid(64, 5)
    p = build_continuous_pair(spec, s64, profile=profile)
    (x,) = spec.coords()
    f = GridFunction(spec, np.exp(-(x**2) / 2.0) * np.exp(1j * 5.0 * x))
    fhat = fourier(f).values
    rr = spec.xi_radius()
    acc = fhat * p.phi0_hat(rr)
    for t, w in zip(s64.t, s64.weights):
        acc = acc + w * fhat * p.phi_hat(t * rr)
    rec = inverse_fourier(GridFunction(spec, acc))
    err = GridFunction(spec, rec.values - f.values)
    assert classical_lp(err, 2.0) / classical_lp(f, 2.0) < 1e-4


def _reference_bump_pair(bump, label):
    """Per-shift brute force on the lattice nodes s = -1 + i 2^-15: the
    Phi_hat table 0.5 b(s) + sum_j b(s + j/K), b(s) = a(2^s), at K = 64,
    evaluating the bump anew for every upward shift j/K until s + j/K >= 1
    on every node.  Reference for `calderon._normalised_bump_pair`."""
    s_grid = np.linspace(-1.0, 1.0, calderon._DENSE + 1)
    c = math.log(2.0) * np.trapezoid(bump(2.0**s_grid), s_grid)

    phi_fn = lambda r: bump(r) / c

    K = 64
    s_tab = np.linspace(-1.0, 1.0, (1 << 16) + 1)
    acc = 0.5 * bump(2.0**s_tab)
    for j in range(1, 2 * K + 1):
        acc = acc + bump(2.0 ** (s_tab + j / K))
    phi0_tab = math.log(2.0) / K * acc / c

    def phi0_fn(r):
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        with np.errstate(divide="ignore"):
            s = np.where(r > 0, np.log2(np.where(r > 0, r, 1.0)), -np.inf)
        mid = (s > -1.0) & (s < 1.0)
        out[mid] = np.interp(s[mid], s_tab, phi0_tab)
        out[s >= 1.0] = 0.0
        return np.clip(out, 0.0, 1.0)

    return KernelPair(
        phi0_hat=RadialProfile(phi0_fn, f"Phi[{label}]"),
        phi_hat=RadialProfile(phi_fn, f"phi[{label}]"),
        label=label,
    )


PROFILES = ("mollifier", "gauss", "mu-eta")


@pytest.mark.parametrize("profile", PROFILES)
def test_bump_pair_bit_identical_to_reference(profile):
    """Taking every shift from the one lattice evaluation gives the per-shift
    brute force exactly, on every table node, between nodes and around the
    support edges.  At r = 0 (and -0) the bump is exactly 0 and Phi_hat
    exactly 1, with no numpy warning: s = log2 r is -inf there.  On [2, 8],
    the range a support check would sample, Phi_hat is exactly 0 whatever
    the bump, so the pair needs no such check."""
    bump = annulus_bump(profile)
    ref = _reference_bump_pair(bump, profile)
    fast = calderon._normalised_bump_pair(profile)
    origin = np.array([0.0, -0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(bump(origin), [0.0, 0.0])
        assert np.array_equal(fast.phi_hat(origin), [0.0, 0.0])
        assert np.array_equal(fast.phi0_hat(origin), [1.0, 1.0])
    r = np.concatenate([
        [0.0, 0.5, 1.0, 2.0, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
         np.nextafter(2.0, 0.0), np.nextafter(2.0, 4.0)],
        np.linspace(0.0, 4.0, 40001),
        2.0 ** np.linspace(-1.0, 1.0, (1 << 16) + 1),
        2.0 ** np.linspace(-1.02, 1.02, (1 << 16) + 1),
    ])
    assert np.array_equal(fast.phi0_hat(r), ref.phi0_hat(r))
    assert np.array_equal(fast.phi_hat(r), ref.phi_hat(r))
    assert not np.any(fast.phi0_hat(np.linspace(2.0, 8.0, 2048)))


def test_pair_built_once_per_process(monkeypatch, scales):
    """The pair depends on the profile only: another grid reuses it,
    another profile constructs again."""
    calderon._normalised_bump_pair.cache_clear()
    built = []
    bump = calderon.annulus_bump
    monkeypatch.setattr(calderon, "annulus_bump", lambda kind: built.append(kind) or bump(kind))
    a = build_continuous_pair(GridSpec(1, 1024, 8.0), scales)
    b = build_continuous_pair(GridSpec(1, 2048, 8.0), scales)
    assert built == ["mollifier"]
    assert a.phi0_hat is b.phi0_hat and a.phi_hat is b.phi_hat
    g = build_continuous_pair(GridSpec(1, 1024, 8.0), scales, profile="gauss")
    assert build_continuous_pair(GridSpec(1, 2048, 8.0), scales, profile="gauss") is g
    assert built == ["mollifier", "gauss"]


@pytest.mark.parametrize("profile", PROFILES)
def test_lattice_residual_certifies_every_grid(profile):
    """The identity at the construction rate is a full-line trapezoid sum in
    s = log2|xi|, so its error depends on s mod 1/K only: the lattice value
    bounds the grid residual (which adds the Phi_hat interpolation, ~1e-9),
    and the 1e-6 verdict is the same on every grid."""
    pair = calderon._normalised_bump_pair(profile)
    for spec in (GridSpec(1, 1024, 16.0), GridSpec(2, 64, 8.0)):
        assert pair.residual + 1e-8 >= reproducing_residual(pair, spec.xi_radius())
    assert pair.residual <= 1e-6
    assert build_continuous_pair(GridSpec(1, 1024, 16.0), ScaleGrid(4, 4), profile) is pair


def test_build_evaluates_nothing_on_grid_radii(monkeypatch, scales):
    """The residual is read from the pair, not measured on the grid: once the
    pair is built, building it for two grids evaluates no radial profile."""
    calderon._normalised_bump_pair("mollifier")

    def evaluated(self, r):
        raise AssertionError(f"radial profile {self.label} evaluated while building a pair")
    monkeypatch.setattr(RadialProfile, "__call__", evaluated)
    a = build_continuous_pair(GridSpec(1, 1024, 16.0), scales)
    b = build_continuous_pair(GridSpec(2, 64, 8.0), ScaleGrid(4, 2))
    assert a is b and a.residual < 1e-9


def test_hand_built_pair_has_no_residual(pair):
    assert math.isnan(KernelPair(pair.phi0_hat, pair.phi_hat).residual)


def test_shared_tables_read_only(pair):
    tables = inspect.getclosurevars(pair.phi0_hat._fn).nonlocals
    for name in ("s_tab", "phi0_tab"):
        with pytest.raises(ValueError, match="read-only"):
            tables[name][0] = 0.0


# --- dyadic family --------------------------------------------------------------


def test_dyadic_partition_residual(spec, dyadic):
    assert partition_residual(dyadic, spec.xi_radius().ravel()) < 1e-10


def test_dyadic_telescoping_exact(dyadic):
    r = np.linspace(0.0, 32.0, 2001)
    acc = sum(dyadic.psi_hat(v)(r) for v in range(dyadic.v_max + 1))
    expect = dyadic.psi0_hat(r * 2.0**-dyadic.v_max)
    assert np.abs(acc - expect).max() < 1e-12


def test_dyadic_block_supports(dyadic):
    for v in range(1, dyadic.v_max + 1):
        r = np.concatenate([np.linspace(0, 2.0 ** (v - 1), 200, endpoint=False),
                            np.linspace(2.0 ** (v + 1), 2.0 ** (v + 2), 200)])
        assert np.abs(dyadic.psi_hat(v)(r)).max() == 0.0


def test_dyadic_rejects_oversized_level(spec):
    with pytest.raises(ValueError, match="top annulus"):
        build_dyadic(spec, 7)
    assert max_dyadic_level(spec) == 5


@pytest.mark.parametrize("v", [-1, 6])
def test_dyadic_block_index_checked(dyadic, v):
    with pytest.raises(ValueError, match=f"block index {v} outside 0..5"):
        dyadic.psi_hat(v)


def test_dyadic_rejects_grid_without_blocks():
    # xi_max = pi/2 < 2: not even block 0 fits, and the level comes out -1
    spec = GridSpec(1, 16, 16.0)
    assert max_dyadic_level(spec) == -1
    with pytest.raises(ValueError, match="no dyadic block.*xi_max = 1.6"):
        build_dyadic(spec, max_dyadic_level(spec))


def test_dyadic_reconstruction(spec, dyadic):
    (x,) = spec.coords()
    f = GridFunction(spec, np.exp(-(x**2) / 2.0) * np.exp(1j * 7.0 * x))
    fhat = fourier(f).values
    rr = spec.xi_radius()
    acc = np.zeros_like(fhat)
    for v in range(dyadic.v_max + 1):
        acc = acc + fhat * dyadic.psi_hat(v)(rr)
    rec = inverse_fourier(GridFunction(spec, acc))
    err = GridFunction(spec, rec.values - f.values)
    assert classical_lp(err, 2.0) / classical_lp(f, 2.0) < 1e-8


def _reference_psi_hat(fam, v):
    """Block v as the difference of two dilated cutoffs, Psi(2^-v r) - Psi(2^(1-v) r)."""
    Psi = fam.psi0_hat
    if v == 0:
        return Psi
    return lambda r: Psi(np.asarray(r) * 2.0**-v) - Psi(np.asarray(r) * 2.0 ** (1 - v))


def _reference_dyadic_bank(fam, spec):
    """From the rows R_v = Psi(2^-v |xi|): psi_0 = R_0 and psi_v = R_v - R_(v-1)."""
    radii = spec.xi_radius()
    rows = np.stack([fam.psi0_hat(2.0 ** -v * radii) for v in range(fam.v_max + 1)])
    return np.diff(rows, axis=0, prepend=0.0)


@pytest.mark.parametrize("n,N", [(1, 256), (1, 1024), (2, 32), (2, 64)])
def test_dyadic_bank_bit_identical_to_reference(n, N):
    """The blocks are the band Psi - Psi(2 .) at t = 2^-v, sampled through the
    one multiplier bank, bit for bit the differences of dilated cutoffs."""
    spec = GridSpec(n, N, 16.0 if n == 1 else 4.0)
    fam = build_dyadic(spec, max_dyadic_level(spec))
    bank = calderon.multiplier_bank(fam.psi0_hat, fam.band, spec,
                                    tuple(2.0 ** -np.arange(fam.v_max + 1)))
    assert np.array_equal(bank, _reference_dyadic_bank(fam, spec))
    radii = spec.xi_radius()
    for v in range(fam.v_max + 1):
        assert np.array_equal(fam.psi_hat(v)(radii), _reference_psi_hat(fam, v)(radii)), v


def test_dyadic_bank_built_once_across_builds(monkeypatch):
    """Two build_dyadic calls share one bank: the discrete norm with the
    second family evaluates no radial profile."""
    calls = []
    profile_call = RadialProfile.__call__

    def counting(self, r):
        calls.append(self.label)
        return profile_call(self, r)

    monkeypatch.setattr(RadialProfile, "__call__", counting)
    calderon.multiplier_bank.cache_clear()
    spec = GridSpec(1, 256, 16.0)
    f = GridFunction(spec, np.exp(-spec.axis()**2 / 2.0))
    alpha, p = ExponentField.from_constant(spec, 0.5), ExponentField.from_constant(spec, 2.0)
    for first in (True, False):
        fam = build_dyadic(spec, 3)
        calls.clear()
        besov_discrete(f, BesovParams(alpha, p, p, 0.0, ScaleGrid(4, 3), fam))
        assert bool(calls) == first


# --- local means -----------------------------------------------------------------


def test_local_means_values(local_means):
    assert local_means.k_hat(np.array([1.0]))[0] == pytest.approx(1.0)
    assert local_means.k0_hat(np.array([0.0]))[0] == pytest.approx(1.0)


def test_local_means_tauberian(local_means):
    m0, m1 = tauberian_margins(local_means)
    assert m0 > 0 and m1 > 0


@pytest.mark.parametrize("S", [-1, 0, 1, 3])
def test_local_means_moment_slope(spec, S):
    k = build_local_means(S, 1.0, spec)
    assert moment_slope(k) >= S + 1 - 0.1


def test_local_means_moment_slope_infinite_when_profile_underflows(spec):
    """At S = 250 every |k_hat| sample near 0 underflows to 0: no slope can
    be fitted, and the moments count as infinitely many."""
    assert moment_slope(build_local_means(250, 1.0, spec)) == math.inf


def test_local_means_rejects_bad_inputs(spec):
    with pytest.raises(ValueError, match="S must be >= -1"):
        build_local_means(-2, 1.0, spec)
    with pytest.raises(ValueError, match="eps"):
        build_local_means(3, 0.0, spec)
    with pytest.raises(ValueError, match="Tauberian annulus exceeds"):
        build_local_means(3, 1.0, GridSpec(1, 16, 16.0))  # xi_max = pi/2 < 2 eps


# --- export ----------------------------------------------------------------------


def test_radial_table_export(tmp_path, pair):
    path = tmp_path / "phi.csv"
    export_radial_table(pair.phi_hat, path, rmax=2.5)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "value"]
    assert len(rows) == 4097
    r = np.array([float(x[0]) for x in rows[1:]])
    v = np.array([float(x[1]) for x in rows[1:]])
    assert np.abs(v - pair.phi_hat(r)).max() < 1e-15
