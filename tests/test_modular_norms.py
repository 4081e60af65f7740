import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov.exponent import ExponentField
from varbesov import modular_norms
from varbesov.grid import GridFunction, GridSpec, ScaleGrid
from varbesov.modular_norms import (
    _newton,
    luxemburg_norm,
    mixed_norm_continuous,
    mixed_norm_discrete,
    power_quotient_norm,
)

from oracles import classical_lp, modular_lp, omega_sum, pointwise_sum


# --- bisection reference solvers ----------------------------------------------
# The three bisection loops the Newton solver replaced, kept unchanged apart
# from their names as the reference the solver is checked against.

_TINY = 1e-12
_REL_TOL = 1e-10


def _reference_luxemburg_norm(f: GridFunction, p: ExponentField, rel_tol: float = _REL_TOL) -> float:
    """inf{lambda > 0 : modular(f/lambda) <= 1}; 0 for f identically zero."""
    a = np.abs(f.values).ravel()
    amax = float(a.max())
    if amax == 0.0:
        return 0.0
    g = a / amax
    ps = p.samples.ravel()
    cell = f.spec.cell_volume
    pmin = p.range_min
    box = (2.0 * f.spec.L) ** f.spec.n

    lo = _TINY
    hi = box ** (1.0 / pmin) + 1.0
    for _ in range(200):
        if omega_sum(g / hi, ps, cell) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("could not bracket the Luxemburg norm from above")
    for _ in range(200):
        if omega_sum(g / lo, ps, cell) > 1.0:
            break
        lo *= 1e-2
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if omega_sum(g / mid, ps, cell) <= 1.0:
            hi = mid
        else:
            lo = mid
    return amax * hi


def _reference_lux_rows(A: np.ndarray, e: np.ndarray, cell: float, box: float,
                        rel_tol: float = _REL_TOL) -> np.ndarray:
    """Row-wise Luxemburg norms with a shared finite exponent field e > 0.

    A is (T, M) nonnegative; all rows are bisected jointly in log space.
    """
    T, M = A.shape
    out = np.zeros(T)
    rmax = A.max(axis=1)
    live = rmax > 0
    if not live.any():
        return out
    G = A[live] / rmax[live, None]
    with np.errstate(divide="ignore"):
        LG = np.log(G)  # -inf where G == 0; exp maps it back to 0

    def modular(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.exp(e[None, :] * (LG - np.log(lam)[:, None]))
        return cell * z.sum(axis=1)

    emin = float(e.min())
    k = G.shape[0]
    lo = np.full(k, _TINY)
    hi = np.full(k, box ** (1.0 / emin) + 1.0)
    for _ in range(200):
        bad = modular(hi) > 1.0
        if not bad.any():
            break
        hi[bad] *= 2.0
    for _ in range(200):
        good = modular(lo) > 1.0
        if good.all():
            break
        lo[~good] *= 1e-2
    while (hi / lo - 1.0).max() > rel_tol:
        mid = np.sqrt(lo * hi)
        feas = modular(mid) <= 1.0
        hi = np.where(feas, mid, hi)
        lo = np.where(feas, lo, mid)
    out[live] = rmax[live] * hi
    return out


def _reference_mixed_norm(A: np.ndarray, w: np.ndarray, p: ExponentField, q: ExponentField,
                          cell: float, box: float, rel_tol: float = _REL_TOL) -> float:
    """Outer Luxemburg solve for the weighted mixed modular.

    A: (T, M) |f_v| samples, w: (T,) quadrature weights (all ones in the
    discrete case).  For constant q the outer inf has the closed form
    (sum_v w_v T_v)^(1/q) with T_v the inner norms of the unscaled family.
    """
    amax = float(A.max())
    if amax == 0.0:
        return 0.0
    A = A / amax
    qs = q.samples.ravel()
    e = (p.samples / q.samples).ravel()
    with np.errstate(divide="ignore"):
        LA = np.log(A)
        P = np.exp(qs[None, :] * LA)

    if q.is_constant:
        qc = q.range_min
        T1 = _reference_lux_rows(P, e, cell, box, rel_tol)
        return amax * float(np.dot(w, T1)) ** (1.0 / qc)

    def modular(mu):
        with np.errstate(over="ignore", invalid="ignore"):
            Pm = P * np.exp(-math.log(mu) * qs)[None, :]
        vals = _reference_lux_rows(Pm, e, cell, box, rel_tol)
        return float(np.dot(w, vals))

    lo = _TINY
    hi = (box ** (1.0 / p.range_min) + 1.0) * (float(w.sum()) + 1.0) ** (1.0 / q.range_min)
    for _ in range(200):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("could not bracket the mixed norm from above")
    for _ in range(200):
        if modular(lo) > 1.0:
            break
        lo *= 1e-2
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return amax * hi


def _box(spec):
    return (2.0 * spec.L) ** spec.n


def _reference_power_quotient(f, p, q):
    with np.errstate(divide="ignore"):
        P = np.exp(q.samples.ravel() * np.log(np.abs(f.values).ravel()))
    e = (p.samples / q.samples).ravel()
    return float(_reference_lux_rows(P[None, :], e, f.spec.cell_volume, _box(f.spec))[0])


def _random_case(rng, rows):
    """A grid, `rows` functions (some all zero, some half zero, amplitudes
    e^-8..e^8) and exponents p, q in [0.3, 6], each constant or variable."""
    L = float(rng.uniform(1.0, 8.0))
    spec = GridSpec(2, 16, L) if rng.random() < 0.2 else GridSpec(1, int(rng.choice([16, 32, 64])), L)
    x = spec.coords()[0]

    def exponent():
        lo, hi = np.sort(rng.uniform(0.3, 6.0, 2))
        if rng.random() < 0.4:
            return ExponentField.from_constant(spec, lo)
        wave = 0.5 + 0.5 * np.sin(np.pi * x / spec.L + rng.uniform(0.0, 2.0 * np.pi))
        return ExponentField(spec, lo + (hi - lo) * wave)

    fs = []
    for _ in range(rows):
        vals = (rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)).ravel()
        vals *= math.exp(rng.uniform(-8.0, 8.0))
        kind = rng.random()
        if kind < 0.15:
            vals[:] = 0.0
        elif kind < 0.35:
            vals[rng.permutation(vals.size)[: vals.size // 2]] = 0.0
        fs.append(GridFunction(spec, vals.reshape(spec.shape)))
    return spec, fs, exponent(), exponent()


@pytest.fixture(scope="module")
def small_spec():
    return GridSpec(1, 256, 16.0)


@pytest.fixture(scope="module")
def noisy(small_spec):
    rng = np.random.default_rng(11)
    (x,) = small_spec.coords()
    vals = (rng.standard_normal(256) + 1j * rng.standard_normal(256)) * np.exp(-(x**2) / 18.0)
    return GridFunction(small_spec, 3.0 * vals)


# --- modular -----------------------------------------------------------------


def test_modular_zero(small_spec):
    p = ExponentField.from_constant(small_spec, 2.0)
    assert modular_lp(GridFunction.zeros(small_spec), p) == 0.0


def test_modular_constant_p_is_lp_power(small_spec, noisy):
    p = ExponentField.from_constant(small_spec, 2.0)
    assert modular_lp(noisy, p) == pytest.approx(classical_lp(noisy, 2.0) ** 2, rel=1e-12)


def test_modular_piecewise_direct_sum(small_spec):
    # p = 1 on the left half, 2 on the right half, f constant c:
    # modular = c * |left| + c^2 * |right|
    (x,) = small_spec.coords()
    p = ExponentField(small_spec, np.where(x < 0, 1.0, 2.0))
    c = 0.7
    f = GridFunction(small_spec, np.full(small_spec.shape, c))
    area = 2.0 * small_spec.L / 2.0
    expect = c * area + c**2 * area
    assert modular_lp(f, p) == pytest.approx(expect, rel=1e-12)


def test_modular_propagates_infinity(small_spec):
    (x,) = small_spec.coords()
    p = ExponentField(small_spec, np.where(x < 0, 2.0, math.inf))
    f = GridFunction(small_spec, np.full(small_spec.shape, 1.5))
    assert modular_lp(f, p) == math.inf
    g = GridFunction(small_spec, np.full(small_spec.shape, 0.9))
    assert math.isfinite(modular_lp(g, p))


# --- Luxemburg norm ------------------------------------------------------------


def test_luxemburg_zero(small_spec):
    p = ExponentField.from_constant(small_spec, 2.0)
    assert luxemburg_norm(GridFunction.zeros(small_spec), p) == 0.0


def test_luxemburg_classical_reduction(small_spec, noisy):
    for pv in (1.0, 2.0, 3.5):
        p = ExponentField.from_constant(small_spec, pv)
        got = luxemburg_norm(noisy, p)
        assert got == pytest.approx(classical_lp(noisy, pv), rel=1e-6)


def test_luxemburg_unit_ball(small_spec, noisy):
    p = ExponentField.from_callable(
        small_spec, lambda x: 2.0 + 0.5 * np.sin(np.pi * x / 16.0))
    lam = luxemburg_norm(noisy, p)
    mod = modular_lp(GridFunction(small_spec, noisy.values / lam), p)
    assert 1.0 - 1e-6 <= mod <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 100.0))
def test_luxemburg_homogeneity(c):
    spec = GridSpec(1, 64, 4.0)
    rng = np.random.default_rng(5)
    f = GridFunction(spec, rng.standard_normal(64))
    p = ExponentField.from_callable(spec, lambda x: 1.5 + 0.4 * np.cos(np.pi * x / 4.0))
    assert luxemburg_norm(c * f, p) == pytest.approx(c * luxemburg_norm(f, p), rel=1e-6)


@pytest.mark.parametrize("pv", [0.01, 0.004])
def test_small_constant_p_closed_form(pv):
    """Tiny p: the norm is ~1e225 at p = 0.004, far beyond a linear bracket."""
    spec = GridSpec(1, 64, 4.0)
    f = GridFunction(spec, np.random.default_rng(7).standard_normal(64))
    z = math.log(spec.cell_volume) + pv * np.log(np.abs(f.values))
    m = float(z.max())
    expect = math.exp((m + math.log(np.exp(z - m).sum())) / pv)
    p = ExponentField.from_constant(spec, pv)
    assert luxemburg_norm(f, p) == pytest.approx(expect, rel=1e-6)
    assert mixed_norm_discrete(np.stack([f.values]), p, p) == pytest.approx(expect, rel=1e-6)


def test_luxemburg_with_infinite_p_region(small_spec):
    """p = inf on part of the grid acts as a sup constraint there."""
    (x,) = small_spec.coords()
    p = ExponentField(small_spec, np.where(x < 0, math.inf, 2.0))
    f = GridFunction(small_spec, np.where(x < 0, 3.0, 0.0))
    # on the inf region the norm is the sup: modular(f/lam) jumps at lam = 3
    assert luxemburg_norm(f, p) == pytest.approx(3.0, rel=1e-6)


# --- mixed norms ----------------------------------------------------------------


def test_mixed_single_term_reduction(small_spec, noisy):
    p = ExponentField.from_constant(small_spec, 2.0)
    got = mixed_norm_discrete(np.stack([noisy.values]), p, p)
    assert got == pytest.approx(classical_lp(noisy, 2.0), rel=1e-6)


def test_mixed_classical_three_terms(small_spec):
    (x,) = small_spec.coords()
    fam = [GridFunction(small_spec, np.exp(-((x - c) ** 2))) for c in (0.0, 1.0, 2.0)]
    p = ExponentField.from_constant(small_spec, 1.5)
    q = ExponentField.from_constant(small_spec, 3.0)
    got = mixed_norm_discrete(np.stack([f.values for f in fam]), p, q)
    expect = (sum(classical_lp(f, 1.5) ** 3 for f in fam)) ** (1.0 / 3.0)
    assert got == pytest.approx(expect, rel=1e-6)


def test_mixed_zero_and_empty(small_spec):
    p = ExponentField.from_constant(small_spec, 2.0)
    assert mixed_norm_discrete(np.zeros((0, *small_spec.shape)), p, p) == 0.0
    zeros = [GridFunction.zeros(small_spec) for _ in range(3)]
    assert mixed_norm_discrete(np.stack([f.values for f in zeros]), p, p) == 0.0


def test_mixed_rejects_unbounded_q(small_spec, noisy):
    # q infinite on part of the grid only
    p = ExponentField.from_constant(small_spec, 2.0)
    (x,) = small_spec.coords()
    q = ExponentField(small_spec, np.where(x > 0, math.inf, 2.0))
    s = ScaleGrid(2, 2)
    fam = np.stack([noisy.values] * len(s))
    for call in (lambda: mixed_norm_discrete(fam, p, q),
                 lambda: mixed_norm_continuous(fam, p, q, s)):
        with pytest.raises(ValueError, match="finite everywhere or identically inf"):
            call()


def test_mixed_q_inf_is_largest_member_norm(small_spec):
    rng = np.random.default_rng(23)
    (x,) = small_spec.coords()
    p = ExponentField(small_spec, 1.2 + 0.8 * np.cos(np.pi * x / 16.0))
    qinf = ExponentField.from_constant(small_spec, math.inf)
    s = ScaleGrid(2, 2)
    fam = rng.standard_normal((len(s), small_spec.N)) * np.exp(rng.uniform(-3, 3, (len(s), 1)))
    top = max(luxemburg_norm(GridFunction(small_spec, f), p) for f in fam)
    assert mixed_norm_discrete(fam, p, qinf) == pytest.approx(top, rel=1e-12)
    assert mixed_norm_continuous(fam, p, qinf, s) == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("q", [2.0, math.inf])
def test_mixed_rejects_non_finite_members(small_spec, noisy, bad, q):
    p = ExponentField.from_constant(small_spec, 2.0)
    q = ExponentField.from_constant(small_spec, q)
    s = ScaleGrid(2, 2)
    fam = np.stack([noisy.values] * len(s))
    fam[1, 7] = bad
    for call in (lambda: mixed_norm_discrete(fam, p, q),
                 lambda: mixed_norm_continuous(fam, p, q, s)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="family values must be finite"):
                call()


def test_mixed_unit_ball_variable_q():
    rng = np.random.default_rng(31)
    spec = GridSpec(1, 64, 4.0)
    (x,) = spec.coords()
    p = ExponentField(spec, 1.2 + 0.8 * np.cos(np.pi * x / 4.0))
    q = ExponentField(spec, 0.7 + 0.4 * np.sin(np.pi * x / 4.0))
    fam = [GridFunction(spec, rng.standard_normal(64) * math.exp(rng.uniform(-3, 3)))
           for _ in range(5)]
    s = ScaleGrid(2, 2)
    for w, mu in ((np.ones(5), mixed_norm_discrete(np.stack([f.values for f in fam]), p, q)),
                  (s.weights, mixed_norm_continuous(np.stack([f.values for f in fam]), p, q, s))):
        A = np.stack([np.abs(f.values) / mu for f in fam])
        P = np.exp(q.samples[None, :] * np.log(A))
        # the inner norms by a bisection far tighter than the 1e-10 offset
        inner = _reference_lux_rows(P, p.samples / q.samples, spec.cell_volume,
                                    _box(spec), rel_tol=1e-14)
        assert 1.0 - 1e-6 <= float(np.dot(w, inner)) <= 1.0


def test_mixed_continuous_zero(small_spec):
    s = ScaleGrid(4, 3)
    p = ExponentField.from_constant(small_spec, 2.0)
    fam = [GridFunction.zeros(small_spec) for _ in range(len(s))]
    assert mixed_norm_continuous(np.stack([f.values for f in fam]), p, p, s) == 0.0


def test_mixed_continuous_t_independent_closed_form(small_spec, gaussian_256=None):
    (x,) = small_spec.coords()
    g = GridFunction(small_spec, np.exp(-(x**2) / 2.0))
    s = ScaleGrid(8, 5)
    p = ExponentField.from_constant(small_spec, 2.0)
    got = mixed_norm_continuous(np.stack([g.values] * len(s)), p, p, s)
    expect = classical_lp(g, 2.0) * float(s.weights.sum()) ** 0.5
    assert got == pytest.approx(expect, rel=1e-8)


def test_mixed_continuous_refinement_stable(small_spec):
    # doubling K changes the result by < 1% for a smooth scale family
    (x,) = small_spec.coords()
    p = ExponentField.from_constant(small_spec, 2.0)
    q = ExponentField.from_callable(small_spec, lambda x: 2.0 + 0.3 * np.sin(np.pi * x / 16.0))
    vals = []
    for K in (8, 16):
        s = ScaleGrid(K, 3)
        fam = [GridFunction(small_spec, t**0.4 * np.exp(-(x**2) / 2.0)) for t in s.t]
        vals.append(mixed_norm_continuous(np.stack([f.values for f in fam]), p, q, s))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.01


def test_mixed_length_mismatch(small_spec, noisy):
    s = ScaleGrid(4, 3)
    p = ExponentField.from_constant(small_spec, 2.0)
    with pytest.raises(ValueError, match="scale grid"):
        mixed_norm_continuous(np.stack([noisy.values]), p, p, s)


def test_mixed_empty_family_rejected(small_spec):
    """An empty family fails the length check like any other wrong length."""
    p = ExponentField.from_constant(small_spec, 2.0)
    with pytest.raises(ValueError, match="family has 0 members"):
        mixed_norm_continuous(np.zeros((0,) + small_spec.shape), p, p, ScaleGrid(4, 3))


def test_mixed_array_family_equals_gridfunction_family():
    rng = np.random.default_rng(5)
    spec = GridSpec(1, 64, 4.0)
    (x,) = spec.coords()
    p = ExponentField(spec, 1.2 + 0.8 * np.cos(np.pi * x / 4.0))
    q = ExponentField(spec, 0.7 + 0.4 * np.sin(np.pi * x / 4.0))
    s = ScaleGrid(2, 2)
    values = rng.standard_normal((len(s), 64))
    fam = [GridFunction(spec, v) for v in values]
    stacked = np.stack([f.values for f in fam])  # complex, as GridFunction holds them
    assert mixed_norm_discrete(values, p, q) == mixed_norm_discrete(stacked, p, q)
    assert mixed_norm_continuous(values, p, q, s) == mixed_norm_continuous(stacked, p, q, s)
    with pytest.raises(ValueError, match="different grid"):
        mixed_norm_discrete(values[:, :32], p, q)
    with pytest.raises(TypeError, match="not a sequence"):
        mixed_norm_continuous(fam, p, q, s)


# --- structural properties -------------------------------------------------------


def test_quasi_triangle_p_q_at_least_one(small_spec):
    rng = np.random.default_rng(21)
    p = ExponentField.from_callable(small_spec, lambda x: 1.5 + 0.4 * np.sin(np.pi * x / 16.0))
    q = ExponentField.from_constant(small_spec, 2.0)
    for trial in range(5):
        fam_f = [GridFunction(small_spec, rng.standard_normal(256)) for _ in range(3)]
        fam_g = [GridFunction(small_spec, rng.standard_normal(256)) for _ in range(3)]
        fam_s = [GridFunction(small_spec, a.values + b.values) for a, b in zip(fam_f, fam_g)]
        lhs = mixed_norm_discrete(np.stack([f.values for f in fam_s]), p, q)
        rhs = (mixed_norm_discrete(np.stack([f.values for f in fam_f]), p, q)
               + mixed_norm_discrete(np.stack([f.values for f in fam_g]), p, q))
        assert lhs <= rhs * (1.0 + 1e-6)


def test_r_power_triangle_below_one(small_spec):
    rng = np.random.default_rng(22)
    p = ExponentField.from_constant(small_spec, 0.75)
    q = ExponentField.from_constant(small_spec, 2.0)
    r = 0.75
    for trial in range(5):
        fam_f = [GridFunction(small_spec, rng.standard_normal(256)) for _ in range(2)]
        fam_g = [GridFunction(small_spec, rng.standard_normal(256)) for _ in range(2)]
        fam_s = [GridFunction(small_spec, a.values + b.values) for a, b in zip(fam_f, fam_g)]
        lhs = mixed_norm_discrete(np.stack([f.values for f in fam_s]), p, q) ** r
        rhs = (mixed_norm_discrete(np.stack([f.values for f in fam_f]), p, q) ** r
               + mixed_norm_discrete(np.stack([f.values for f in fam_g]), p, q) ** r)
        assert lhs <= rhs * (1.0 + 1e-6)


def test_lattice_monotonicity(small_spec, noisy):
    p = ExponentField.from_callable(small_spec, lambda x: 2.0 + 0.5 * np.cos(np.pi * x / 16.0))
    bigger = GridFunction(small_spec, np.abs(noisy.values) * 1.3)
    smaller = GridFunction(small_spec, np.abs(noisy.values))
    assert luxemburg_norm(smaller, p) <= luxemburg_norm(bigger, p) * (1.0 + 1e-10)
    q = ExponentField.from_constant(small_spec, 2.0)
    fam_small = [smaller, smaller]
    fam_big = [bigger, bigger]
    assert (mixed_norm_discrete(np.stack([f.values for f in fam_small]), p, q)
            <= mixed_norm_discrete(np.stack([f.values for f in fam_big]), p, q) * (1 + 1e-10))


def test_dzw_property_random_corpus(small_spec):
    # whenever the power-quotient norm is >= 1 it dominates ||f||_p^{q-}
    rng = np.random.default_rng(23)
    p = ExponentField.from_callable(small_spec, lambda x: 2.2 + 0.5 * np.cos(np.pi * x / 16.0))
    q = ExponentField.from_callable(small_spec, lambda x: 1.5 + 0.4 * np.sin(np.pi * x / 16.0))
    (x,) = small_spec.coords()
    env = np.exp(-(x**2) / 18.0)
    checked = 0
    for trial in range(20):
        f = GridFunction(small_spec, 2.5 * rng.standard_normal(256) * env)
        rhs = power_quotient_norm(f, p, q)
        if rhs < 1.0:
            continue
        lhs = luxemburg_norm(f, p) ** q.range_min
        assert lhs <= rhs * (1.0 + 1e-8)
        checked += 1
    assert checked >= 10


# --- Newton solver against the bisection reference ------------------------------


def test_luxemburg_and_power_quotient_match_reference():
    rng = np.random.default_rng(101)
    for _ in range(60):
        _, (f,), p, q = _random_case(rng, 1)
        assert luxemburg_norm(f, p) == pytest.approx(_reference_luxemburg_norm(f, p), rel=1e-8)
        assert power_quotient_norm(f, p, q) == pytest.approx(
            _reference_power_quotient(f, p, q), rel=1e-8)


def test_mixed_norms_match_reference():
    rng = np.random.default_rng(102)
    for _ in range(40):
        rows = int(rng.integers(1, 8))
        spec, fs, p, q = _random_case(rng, rows)
        A = np.stack([np.abs(f.values).ravel() for f in fs])
        ref = _reference_mixed_norm(A, np.ones(rows), p, q, spec.cell_volume, _box(spec))
        assert mixed_norm_discrete(np.stack([f.values for f in fs]), p, q) == pytest.approx(
            ref, rel=1e-8)
        if rows >= 2:
            s = ScaleGrid(rows - 1, 1)
            ref = _reference_mixed_norm(A, s.weights, p, q, spec.cell_volume, _box(spec))
            assert mixed_norm_continuous(np.stack([f.values for f in fs]), p, q, s) == pytest.approx(
                ref, rel=1e-8)


# --- warm-started mixed norm against the cold start -------------------------------
# The mixed-norm core before the inner roots were warm-started, with the
# log-sum-exp and root helpers of its time, kept unchanged apart from their
# names: every inner solve restarts from max(a / e).


def _cold_lse(z: np.ndarray):
    """Log-sum-exp over the last axis and the normalised weights exp(z - lse);
    every row needs a finite entry."""
    m = z.max(axis=-1, keepdims=True)
    w = np.exp(z - m)
    s = w.sum(axis=-1, keepdims=True)
    return (m + np.log(s))[..., 0], w / s


def _cold_log_roots(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Row-wise u with log sum_x exp(a[:, x] - e[x] u) = 0, for e > 0 and no
    row of a all -inf.  Start: the largest single term equals 1, below the root."""
    def fn(u):
        F, w = _cold_lse(a - u[:, None] * e)
        return F, -(w @ e)

    return _newton(fn, np.max(a / e, axis=-1))


def _cold_mixed_norm(A: np.ndarray, w: np.ndarray, p: ExponentField,
                     q: ExponentField) -> float:
    """Outer Luxemburg solve in s = log(mu) for the weighted mixed modular.

    A: (T, *p.spec.shape) moduli |f_v|; w: (T,) quadrature weights (all
    ones in the discrete case).  p and q are taken as validated: p finite,
    q bounded, both bounded away from 0.
    """
    A = A.reshape(len(A), -1)
    amax = float(A.max())
    if amax == 0.0:
        return 0.0
    live = A.max(axis=1) > 0
    ps = p.samples.ravel()
    e = ps / q.samples.ravel()
    with np.errstate(divide="ignore"):
        a0 = math.log(p.spec.cell_volume) + ps * np.log(A[live] / amax)
    logw = np.log(w[live])

    def fn(s):
        a = a0 - s * ps
        u = _cold_log_roots(a, e)
        _, W = _cold_lse(a - u[:, None] * e)
        H, wv = _cold_lse(logw + u)
        return H, -(wv @ ((W @ ps) / (W @ e)))

    return amax * math.exp(float(_newton(fn, 0.0)) + _REL_TOL)


def _variable_q_family():
    """Thirteen scales of a modulated Gaussian under variable p and q."""
    spec = GridSpec(1, 256, 16.0)
    (x,) = spec.coords()
    s = ScaleGrid(4, 3)
    p = ExponentField(spec, 2.0 + 0.5 * np.sin(np.pi * x / 16.0))
    q = ExponentField(spec, 1.5 + 0.6 * np.cos(np.pi * x / 16.0))
    fam = np.stack([t**0.5 * np.exp(-(x**2) / (2.0 * t) + 4j * x) for t in s.t])
    return fam, p, q, s


def test_warm_start_matches_cold_start():
    rng = np.random.default_rng(103)
    for _ in range(60):
        rows = int(rng.integers(1, 8))
        _, fs, p, q = _random_case(rng, rows)
        values = np.stack([f.values for f in fs])
        cases = [(mixed_norm_discrete(values, p, q), np.ones(rows))]
        if rows >= 2:
            s = ScaleGrid(rows - 1, 1)
            cases.append((mixed_norm_continuous(values, p, q, s), s.weights))
        for got, w in cases:
            ref = _cold_mixed_norm(np.abs(values), w, p, q)
            assert abs(got - ref) <= 1e-14 * ref


def test_warm_start_takes_fewer_lse_calls(monkeypatch):
    """Count the log-sum-exps over the (scales, grid) array, warm and cold."""
    fam, p, q, s = _variable_q_family()
    counts = {"warm": 0, "cold": 0}

    def counting(key, lse):
        def wrapped(z):
            counts[key] += z.ndim == 2
            return lse(z)
        return wrapped

    monkeypatch.setattr(modular_norms, "_lse", counting("warm", modular_norms._lse))
    monkeypatch.setitem(globals(), "_cold_lse", counting("cold", _cold_lse))
    got = mixed_norm_continuous(fam, p, q, s)
    ref = _cold_mixed_norm(np.abs(fam), s.weights, p, q)
    assert abs(got - ref) <= 1e-14 * ref
    assert 0 < counts["warm"] < counts["cold"]


def test_tangent_start_at_or_below_inner_roots(monkeypatch):
    """Every warm inner solve starts on the tangent of the previous outer
    evaluation, at or below its root (u_v is convex in s), up to rounding:
    1e-12 relative, measured worst 2.6e-16.  A start at the previous root
    alone lies above it wherever s grew (by up to 1.4 here) and leaves
    every norm unchanged, so no value test can see it."""
    log_roots, seen = modular_norms._log_roots, []

    def recording(a, e, u=None):
        out = log_roots(a, e, u)
        if u is not None:
            seen.append((u, out[0]))
        return out

    monkeypatch.setattr(modular_norms, "_log_roots", recording)
    fam, p, q, s = _variable_q_family()
    mixed_norm_continuous(fam, p, q, s)
    mixed_norm_discrete(fam, p, q)
    mixed_norm_discrete(fam, p, p)
    assert len(seen) > 4
    for start, root in seen:
        assert np.all(start <= root + 1e-12 * np.maximum(1.0, np.abs(root)))


def test_solver_fails_loudly(monkeypatch):
    fam, p, q, _ = _variable_q_family()
    with monkeypatch.context() as m:
        m.setattr(modular_norms, "_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge in 1 steps"):
            mixed_norm_discrete(fam, p, q)

    def nan_lse(z):
        return np.full(z.shape[:-1], np.nan), np.ones(z.shape[:-1])

    monkeypatch.setattr(modular_norms, "_lse", nan_lse)
    with pytest.raises(ArithmeticError, match="not finite"):
        mixed_norm_discrete(fam, p, q)


# --- B = F at q = p: one Luxemburg norm of the pointwise sum -------------------------


@pytest.mark.parametrize("base,amp", [(2.0, 0.5), (0.6, 0.3), (1.3, 0.9)])
def test_mixed_norms_at_q_equal_p_match_pointwise_sum(base, amp):
    """At q = p the mixed modular sum_v w_v int |f_v / mu|^p(x) dx is the
    modular of (sum_v w_v |f_v|^p(x))^(1/p(x)), so both mixed norms equal
    one Luxemburg norm, with no outer solve (B = F at p(.) = q(.)).
    rtol 1e-13; measured worst 1.1e-15."""
    spec = GridSpec(1, 1024, 16.0)
    (x,) = spec.coords()
    p = ExponentField(spec, base + amp * np.sin(np.pi * x / spec.L))
    s = ScaleGrid(4, 3)
    fam = np.stack([t**0.5 * np.exp(-((x - 3.0 * t) ** 2) / (2.0 * t) + 4j * x / t)
                    for t in s.t])
    A = np.abs(fam)
    for got, w in ((mixed_norm_discrete(fam, p, p), np.ones(len(fam))),
                   (mixed_norm_continuous(fam, p, p, s), s.weights)):
        assert got == pytest.approx(luxemburg_norm(pointwise_sum(A, w, p), p), rel=1e-13)
