import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov.exponent import ExponentField
from varbesov.grid import GridFunction, GridSpec
from varbesov.modular_norms import modular_lp


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


def test_clog_subsampled_path_close_to_dense():
    # N = 1024 uses nearest pairs + random pairs; for smooth fields the
    # nearest pairs dominate, so the estimate stays near the dense answer
    fn = lambda x: 0.5 + 0.2 * np.sin(np.pi * x / 16.0)
    dense = ExponentField.from_callable(GridSpec(1, 512, 16.0), fn).clog_local
    sub = ExponentField.from_callable(GridSpec(1, 1024, 16.0), fn).clog_local
    assert sub == pytest.approx(dense, rel=0.05)


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
