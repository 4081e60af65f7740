"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances and runtime budgets are pinned here; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines as they land.
"""

import math
import time

import numpy as np

from varbesov.besov import BesovParams, HypothesisError, besov_discrete
from varbesov.calderon import build_continuous_pair, build_dyadic
from varbesov.cli import main as cli_main
from varbesov.corpus import build_corpus
from varbesov.exponent import ExponentField
from varbesov.grid import GridFunction, GridSpec, ScaleGrid, fourier
from varbesov.harness import HarnessConfig, run_experiment
from varbesov.modular_norms import luxemburg_norm

from oracles import const, inverse_fourier, modular_lp, partition_residual, reproducing_residual


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


SPEC = GridSpec(1, 1024, 16.0)
SCALES = ScaleGrid(8, 5)


def test_criterion_01_reproducing_identity():
    t0 = time.monotonic()
    pair = build_continuous_pair(SPEC, SCALES)
    radii = SPEC.xi_radius().ravel()
    res_pair = reproducing_residual(pair, radii)
    dyad = build_dyadic(SPEC, 5)
    res_dyad = partition_residual(dyad, radii)
    elapsed = time.monotonic() - t0
    _report(1, "reproducing identity residuals",
            res_pair < 1e-6 and res_dyad < 1e-10 and elapsed < 5.0,
            f"pair {res_pair:.2e}, dyadic {res_dyad:.2e}, {elapsed:.2f}s")


def test_criterion_02_unit_ball_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    families = [
        const(SPEC, 2.0),
        const(SPEC, 0.75),
        ExponentField.from_callable(SPEC, lambda x: 2.0 + 0.5 * np.sin(np.pi * x / 16.0)),
        ExponentField.from_callable(SPEC, lambda x: 1.2 + 0.3 * np.cos(np.pi * x / 16.0)),
        ExponentField.from_callable(SPEC, lambda x: 3.0 + 0.5 * np.exp(-(x**2) / 4.0)),
    ]
    worst_lo, worst_hi = 1.0, 1.0
    for i in range(100):
        f = GridFunction(SPEC, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        p = families[i % len(families)]
        lam = luxemburg_norm(f, p)
        mod = modular_lp(GridFunction(SPEC, f.values / lam), p)
        worst_lo = min(worst_lo, mod)
        worst_hi = max(worst_hi, mod)
    elapsed = time.monotonic() - t0
    _report(2, "unit-ball property over 100 random draws x 5 families",
            worst_lo >= 1.0 - 1e-6 and worst_hi <= 1.0 and elapsed < 30.0,
            f"modular in [{worst_lo:.9f}, {worst_hi:.9f}], {elapsed:.1f}s")


def test_criterion_03_constant_exponent_reduction():
    dyad = build_dyadic(SPEC, 5)
    corpus = build_corpus(SPEC, seed=0)
    xi = SPEC.freq_axis()
    dxi = math.pi / SPEC.L
    worst_spread = 0.0
    for s_val in (-1.0, 0.0, 1.5):
        P = BesovParams(const(SPEC, s_val), const(SPEC, 2.0), const(SPEC, 2.0),
                        1.5, SCALES, dyad)
        ratios = []
        for _, f in corpus:
            fh = fourier(f).values
            oracle = math.sqrt(float(np.sum((1 + xi**2) ** s_val * np.abs(fh) ** 2) * dxi))
            ratios.append(besov_discrete(f, P) / oracle)
        worst_spread = max(worst_spread, max(ratios) / min(ratios))

    rr = SPEC.xi_radius()
    worst_err = 0.0
    for pv in (1.0, 3.0):
        P = BesovParams(const(SPEC, 0.5), const(SPEC, pv), const(SPEC, pv),
                        1.5, SCALES, dyad)
        for _, f in corpus:
            fh = fourier(f).values
            total = 0.0
            for v in range(dyad.v_max + 1):
                block = inverse_fourier(GridFunction(SPEC, fh * dyad.psi_hat(v)(rr)))
                lp = (SPEC.cell_volume * np.sum(np.abs(block.values) ** pv)) ** (1.0 / pv)
                total += (2.0 ** (v * 0.5) * lp) ** pv
            reference = total ** (1.0 / pv)
            worst_err = max(worst_err, abs(besov_discrete(f, P) - reference) / reference)
    _report(3, "constant-exponent reduction",
            worst_spread <= 10.0 and worst_err <= 1e-8,
            f"Bessel spread {worst_spread:.2f}, block-formula err {worst_err:.2e}")


def test_criterion_04_independence_of_resolution():
    t0 = time.monotonic()
    rep = run_experiment("independence", HarnessConfig())
    elapsed = time.monotonic() - t0
    _report(4, "independence of the chosen resolution pair",
            rep.passed and rep.spread <= 20.0 and elapsed < 180.0,
            f"spread {rep.spread:.2f} over {len(rep.entries)} runs, {elapsed:.0f}s")


def test_criterion_05_continuous_equals_discrete():
    rep = run_experiment("discrete-vs-continuous", HarnessConfig())
    _report(5, "continuous and dyadic scales agree",
            rep.passed and rep.spread <= 20.0,
            f"spread {rep.spread:.2f}")


def test_criterion_06_peetre_characterization():
    rep = run_experiment("peetre-vs-continuous", HarnessConfig())
    dominated = all(e.ratio >= 1.0 - 1e-12 for e in rep.entries if not e.vacuous)
    _report(6, "maximal-function characterization",
            rep.passed and rep.spread <= 30.0 and dominated,
            f"spread {rep.spread:.2f}, domination {dominated}")


def test_criterion_07_local_means():
    rep = run_experiment("local-means-vs-discrete", HarnessConfig(S=3))
    rejected = False
    try:
        run_experiment("local-means-vs-discrete", HarnessConfig(S=-1))
    except HypothesisError:
        rejected = True
    _report(7, "local means characterization + hypothesis gate",
            rep.passed and rep.spread <= 30.0 and rejected,
            f"spread {rep.spread:.2f}, S=-1 rejected {rejected}")


def test_criterion_08_lemma_oracles():
    lemma_ids = ("transfer", "dzw", "hardy", "rtrick", "eta-conv-discrete",
                 "eta-conv-continuous", "averaged", "reproducing", "rychkov",
                 "transfer-violation")
    cfg = HarnessConfig()
    failures = []
    for lid in lemma_ids:
        rep = run_experiment(f"lemma:{lid}", cfg)
        if not rep.passed:
            failures.append(lid)
    _report(8, "lemma oracles finite and refinement-stable",
            not failures, f"failing: {failures or 'none'}")


def test_criterion_09_modulation_scaling():
    spec = GridSpec(1, 2048, 12.0)
    dyad = build_dyadic(spec, 7)
    (x,) = spec.coords()
    scales = ScaleGrid(8, 7)
    worst = 0.0
    for s_val in (0.5, 1.0, 2.0):
        P = BesovParams(const(spec, s_val), const(spec, 2.0), const(spec, 2.0),
                        1.5, scales, dyad)
        js = [2, 3, 4, 5]
        norms = [besov_discrete(
            GridFunction(spec, np.exp(1j * (2.0**j) * x) * np.exp(-(x**2) / 2.0)), P)
            for j in js]
        slope = float(np.polyfit(js, np.log2(norms), 1)[0])
        worst = max(worst, abs(slope - s_val))
    _report(9, "modulation scaling exponent", worst <= 0.1,
            f"max |slope - s| = {worst:.3f}")


def test_criterion_10_determinism(tmp_path):
    args = ["run", "discrete-vs-continuous", "--grid", "256,16", "--scales",
            "4,3", "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(args + ["--out", str(a)])
    code_b = cli_main(args + ["--out", str(b)])
    same_json = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    same_csv = (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    _report(10, "byte-identical reports for identical config + seed",
            code_a == code_b == 0 and same_json and same_csv,
            f"json {same_json}, csv {same_csv}")
