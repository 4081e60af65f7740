import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov.exponent import ExponentField
from varbesov.grid import GridFunction, GridSpec, ScaleGrid
from varbesov.modular_norms import (luxemburg_norm, mixed_norm_continuous, mixed_norm_discrete,
                                   power_quotient_norm)

from oracles import modular_lp


# --- the modular kernel omega_p(t) ------------------------------------------------
#
# A one-point function of modulus t on a grid with unit cell volume has
# modular omega_p(t): t^p for finite p, the {0, inf} step for p = inf.

_UNIT_CELL = GridSpec(1, 16, 8.0)  # h = 1


def omega(p: float, t: float) -> float:
    values = np.zeros(_UNIT_CELL.shape)
    values[3] = t
    return modular_lp(GridFunction(_UNIT_CELL, values),
                      ExponentField.from_constant(_UNIT_CELL, p))


def test_omega_power_case():
    assert omega(2.0, 3.0) == pytest.approx(9.0, rel=1e-14)


def test_omega_infinite_exponent():
    assert omega(math.inf, 0.5) == 0.0
    assert omega(math.inf, 1.0) == 0.0
    assert omega(math.inf, 2.0) == math.inf


def test_omega_zero_argument():
    assert omega(1.0, 0.0) == 0.0


def test_omega_quasi_range():
    # extension below p = 1
    assert omega(0.5, 4.0) == pytest.approx(2.0)


def test_omega_rejects_bad_inputs():
    with pytest.raises(ValueError):
        omega(0.0, 1.0)
    with pytest.raises(ValueError):
        omega(-1.0, 1.0)
    other = GridSpec(1, 16, 4.0)
    with pytest.raises(ValueError, match="different grid"):
        modular_lp(GridFunction.zeros(_UNIT_CELL), ExponentField.from_constant(other, 2.0))
    f = GridFunction.zeros(_UNIT_CELL)
    here = ExponentField.from_constant(_UNIT_CELL, 2.0)
    off = ExponentField.from_constant(other, 2.0)
    fam, s = np.zeros((5, *_UNIT_CELL.shape)), ScaleGrid(2, 2)
    other_n = ExponentField.from_constant(GridSpec(1, 32, 8.0), 2.0)
    for call, name in ((lambda: luxemburg_norm(f, off), "p"),
                       (lambda: power_quotient_norm(f, off, here), "p"),
                       (lambda: power_quotient_norm(f, here, off), "q"),
                       (lambda: mixed_norm_discrete(fam, here, off), "q"),
                       (lambda: mixed_norm_continuous(fam, here, other_n, s), "q")):
        with pytest.raises(ValueError, match=f"{name} is sampled on a different grid"):
            call()


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 50.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_omega_nondecreasing(p, t1, t2):
    lo, hi = sorted((t1, t2))
    # t^p is formed as exp(p log t): allow the last bit of rounding
    assert omega(p, lo) <= omega(p, hi) * (1.0 + 4 * np.finfo(float).eps)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 50.0))
def test_omega_normalised_at_one(p):
    assert omega(p, 1.0) == 1.0


# --- estimate_clog ---------------------------------------------------------------


def test_clog_constant_field():
    spec = GridSpec(1, 64, 4.0)
    g = ExponentField.from_constant(spec, 0.3)
    assert g.clog_local == 0.0


def test_clog_matches_brute_force():
    # independent double loop over all pairs
    spec = GridSpec(1, 64, 4.0)
    g = ExponentField.from_callable(spec, lambda x: np.sin(np.pi * x / 4.0))
    x = spec.axis()
    best = 0.0
    for i in range(64):
        for j in range(i + 1, 64):
            d = abs(x[i] - x[j])
            d = min(d, 8.0 - d)
            best = max(best, abs(g.samples[i] - g.samples[j]) * math.log(math.e + 1.0 / d))
    assert g.clog_local == pytest.approx(best, rel=1e-12)
    assert best > 0


def test_clog_flags_jump_discontinuity():
    # a jump makes the estimate grow like log(N) under refinement
    vals = []
    for N in (256, 512):
        spec = GridSpec(1, N, 4.0)
        g = ExponentField.from_callable(spec, lambda x: np.where(x < 0, 1.0, 2.0))
        vals.append(g.clog_local)
    assert vals[1] > vals[0] * 1.1


def test_clog_shift_invariance_exact():
    spec = GridSpec(1, 128, 4.0)
    g = ExponentField.from_callable(spec, lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 4.0))
    h = ExponentField(spec, g.samples + 5.0)
    assert h.clog_local == g.clog_local


def test_clog_linear_scaling():
    spec = GridSpec(1, 128, 4.0)
    g = ExponentField.from_callable(spec, lambda x: np.sin(np.pi * x / 4.0))
    h = ExponentField(spec, 2.0 * g.samples)
    assert h.clog_local == pytest.approx(2.0 * g.clog_local, rel=1e-12)


@pytest.mark.parametrize("fn", [
    lambda x: np.full_like(x, 1.7),
    lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 16.0),
    lambda x: 2.0 + 0.4 * np.exp(-(x**2)),
])
def test_clog_converges_on_smooth_families(fn):
    a = ExponentField.from_callable(GridSpec(1, 512, 16.0), fn).clog_local
    b = ExponentField.from_callable(GridSpec(1, 1024, 16.0), fn).clog_local
    if a == b == 0.0:
        return
    assert abs(b - a) / a < 0.05


def _all_pairs_clog(g):
    """max of |g(x)-g(y)| log(e + 1/d(x,y)) over every pair of samples with
    d > 0 and both samples finite, with d taken from the coordinates; 0
    when there is no such pair."""
    spec, v = g.spec, g.samples.ravel()
    d2 = 0.0
    for c in spec.coords():
        dd = np.abs(c.ravel()[:, None] - c.ravel()[None, :])
        dd = np.minimum(dd, 2.0 * spec.L - dd)
        d2 = d2 + dd * dd
    finite = np.isfinite(v)
    i, j = np.nonzero((d2 > 0) & finite[:, None] & finite[None, :])
    if i.size == 0:
        return 0.0
    return float((np.abs(v[i] - v[j]) * np.log(math.e + 1.0 / np.sqrt(d2[i, j]))).max())


def _clog_field(spec, kind):
    rng = np.random.default_rng(spec.n * spec.N)
    if kind == "smooth":
        return ExponentField.from_callable(
            spec, lambda *x: 0.5 + 0.2 * np.prod([np.sin(np.pi * c / spec.L) for c in x], axis=0))
    v = rng.uniform(0.5, 2.0, spec.shape)
    if kind == "some-inf":
        v[rng.random(spec.shape) < 0.1] = math.inf
    elif kind == "one-finite":  # no offset but 0 has a finite pair
        v = np.full(spec.shape, math.inf)
        v.flat[5] = 1.0
    elif kind == "all-inf":
        v = np.full(spec.shape, math.inf)
    elif kind == "ties":  # three values, so most differences are tied
        v = rng.integers(0, 3, spec.shape).astype(float)
    elif kind == "signed-zeros":  # sparse finite pairs: many offsets whose extremes are +-0
        v = rng.choice([0.0, -0.0, math.inf], spec.shape, p=[0.05, 0.05, 0.9])
    return ExponentField(spec, v)


@pytest.mark.parametrize("kind", ["smooth", "rough", "some-inf", "one-finite", "all-inf"])
@pytest.mark.parametrize("spec", [GridSpec(1, 1024, 16.0), GridSpec(2, 32, 4.0)],
                         ids=["1d-1024", "2d-32"])
def test_clog_matches_all_pairs_reference(spec, kind):
    # both grids exceed 512 points; rel 1e-12 allows d to round differently
    # from coordinates (here) and from offsets (estimate_clog)
    g = _clog_field(spec, kind)
    ref = _all_pairs_clog(g)
    assert g.clog_local == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert (ref > 0) == (kind not in ("one-finite", "all-inf"))


def _all_pairs_oscillation(g):
    """osc[k] = fmax over x of g(x - k h) - g(x), one offset at a time, +inf as
    NaN; zeros for a constant field (an all-+inf one included)."""
    v = np.where(np.isinf(g.samples), np.nan, g.samples)
    axes = tuple(range(v.ndim))
    osc = np.zeros(v.shape)
    if g.is_constant:
        return osc
    for k in np.ndindex(v.shape):
        osc[k] = np.fmax.reduce((np.roll(v, k, axis=axes) - v).ravel())
    return osc


@pytest.mark.parametrize("kind", ["smooth", "rough", "some-inf", "one-finite", "all-inf",
                                  "ties", "signed-zeros"])
@pytest.mark.parametrize("spec", [GridSpec(1, 1024, 16.0), GridSpec(2, 32, 4.0)],
                         ids=["1d-1024", "2d-32"])
def test_oscillation_bit_identical_to_all_pairs_reference(spec, kind):
    """Every offset, the mirrored half and the sign of every zero included."""
    g = _clog_field(spec, kind)
    assert g.oscillation.tobytes() == _all_pairs_oscillation(g).tobytes()


# --- field plumbing ---------------------------------------------------------------


def test_range_bounds_are_exact():
    spec = GridSpec(1, 64, 4.0)
    g = ExponentField.from_callable(spec, lambda x: 2.0 + np.sin(x))
    assert g.range_min == g.samples.min()
    assert g.range_max == g.samples.max()


def test_reciprocal_handles_infinity():
    spec = GridSpec(1, 64, 4.0)
    q = ExponentField.from_constant(spec, math.inf)
    r = q.reciprocal()
    assert np.all(r.samples == 0.0)
    assert q.clog_local == 0.0


def test_p0_and_finite_guards():
    spec = GridSpec(1, 64, 4.0)
    bad = ExponentField.from_callable(spec, lambda x: np.where(x < 0, 0.0, 1.0))
    with pytest.raises(ValueError, match="bounded away"):
        bad.require_p0()
    inf_field = ExponentField.from_constant(spec, math.inf)
    with pytest.raises(ValueError, match="finite"):
        inf_field.require_finite("alpha")


def test_nan_rejected():
    spec = GridSpec(1, 64, 4.0)
    vals = np.ones(64)
    vals[3] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        ExponentField(spec, vals)


def test_neg_inf_rejected():
    """+inf is an admissible exponent (p = inf); -inf is not."""
    spec = GridSpec(1, 64, 4.0)
    vals = np.ones(64)
    vals[3] = -math.inf
    with pytest.raises(ValueError, match="-inf"):
        ExponentField(spec, vals)
