import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from varbesov import exponent, harness, lemmas
from varbesov.besov import HypothesisError
from varbesov.cli import main as cli_main
from varbesov.corpus import (
    DEFAULT_ENTRIES,
    boundary_mass,
    build_corpus,
    make_entry,
    make_exponent,
    make_triple,
)
from varbesov.grid import GridSpec
from varbesov.harness import (
    EXPERIMENTS,
    ConfigError,
    EntryResult,
    HarnessConfig,
    RatioReport,
    _judge,
    _spread,
    _stable,
    emit_report,
    run_experiment,
    run_experiments,
)

NORM_EXPERIMENTS = tuple(name for name, row in EXPERIMENTS.items() if row.axis == "entries")

SMALL = dict(N=256, L=16.0, K=4, J=3,
             corpus_names=("gaussian", "modulated_4", "bump"),
             triples=("constant", "sine-alpha"))


# --- corpus -----------------------------------------------------------------


def test_default_corpus_boundary_mass(spec):
    corpus = build_corpus(spec, seed=0)
    assert [name for name, _ in corpus] == list(DEFAULT_ENTRIES)
    for name, f in corpus:
        assert boundary_mass(f) < 1e-10, name


def test_corpus_reproducible_from_seed(spec):
    a = make_entry(spec, "random_band_1", seed=42)
    b = make_entry(spec, "random_band_1", seed=42)
    c = make_entry(spec, "random_band_1", seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_corpus_unknown_entry(spec):
    # the corpus names are DEFAULT_ENTRIES and "zero"; no other name is parsed
    for name in ("nope", "dilated_x", "modulated_", "random_band_x", "dilated_inf",
                 "dilated_1_0", "dilated_3", "modulated_2.5", "random_band_3"):
        with pytest.raises(ValueError, match=f"unknown corpus entry '{name}'"):
            build_corpus(spec, names=(name,))


def test_corpus_rejects_boundary_mass():
    """On a half-period of 2 the wide Gaussian still has 6e-2 of its mass
    at the boundary: it is no function on this torus."""
    with pytest.raises(ValueError, match="'gaussian_wide' has boundary mass 5.99e-02"):
        build_corpus(GridSpec(1, 64, 2.0), names=("gaussian_wide",))


def test_exponent_presets(spec):
    alpha, p, q = make_triple(spec, "sine-p")
    assert alpha.is_constant
    assert not p.is_constant and p.range_min == pytest.approx(1.5)
    assert q.is_constant
    with pytest.raises(ValueError, match="unknown exponent triple"):
        make_triple(spec, "nope")
    g = make_exponent(spec, kind="bump", base=0.5, amplitude=0.4)
    assert g.range_max == pytest.approx(0.9, abs=1e-6)
    with pytest.raises(ValueError, match="unknown exponent kind 'nope'"):
        make_exponent(spec, kind="nope")


# --- reports ----------------------------------------------------------------


def test_report_roundtrip_and_csv(tmp_path):
    rep = RatioReport(
        experiment="demo",
        entries=[EntryResult("a", 1.0, 2.0, 0.5),
                 EntryResult("z", 0.0, 0.0, math.nan, vacuous=True)],
        threshold=10.0,
        passed=True,
        hypothesis={"a": 1.5},
        config={"N": 256},
    )
    assert rep.spread == 1.0
    assert rep.passed
    text = rep.to_json()
    d = json.loads(text)
    assert d["spread"] == 1.0 and d["passed"] and len(d["entries"]) == 2
    assert "checks_ok" not in d and d["entries"][1]["ratio"] == "nan"
    files = emit_report(rep, tmp_path)
    assert (tmp_path / "report.json").read_text() == text
    csv_text = (tmp_path / "report.csv").read_text()
    assert len(csv_text.splitlines()) == len(rep.entries) + 1
    assert len(files) == 2


def _norm_judge(cases):
    """The report the norm experiments build for `cases` under `_spread`."""
    return _judge("demo", cases, lambda v: v == 0.0, _spread, 10.0)


def _lemma_judge(cases):
    """The report a lemma sweep builds for `cases` under `_stable`."""
    return _judge("demo", cases, math.isnan, _stable, 10.0)


def test_zero_ratio_fails_report():
    """A non-vacuous ratio of 0 makes the spread infinite, and the report fails."""
    rep = _norm_judge([("x", 0.0, 2.0), ("y", 1.0, 2.0)])
    zero = rep.entries[0]
    assert not zero.vacuous and zero.ratio == 0.0
    assert rep.spread == math.inf
    assert not rep.passed
    assert float(json.loads(rep.to_json())["spread"]) == math.inf


def test_nan_ratio_fails_report_in_any_order():
    """A non-vacuous NaN ratio (a NaN norm, or a lemma constant of 0 on the
    coarse grid) makes the range and spread NaN whatever its position, so
    the report fails; min/max over the list would pass (2, 4, NaN) with
    spread 2."""
    for judge, nan, two, four in (
            (_norm_judge, ("z", math.nan, 1.0), ("a", 2.0, 1.0), ("b", 4.0, 1.0)),
            (_lemma_judge, ("z", 0.0, 1.0), ("a", 1.0, 2.0), ("b", 1.0, 4.0))):
        for cases in ([nan, two, four], [two, four, nan], [two, nan, four]):
            rep = judge(cases)
            assert [e.vacuous for e in rep.entries] == [False] * 3
            assert math.isnan(rep.ratio_min) and math.isnan(rep.ratio_max)
            assert math.isnan(rep.spread)
            assert not rep.passed
            assert json.loads(rep.to_json())["spread"] == "nan"


def test_spread_at_least_one():
    rep = RatioReport("demo", [EntryResult("a", 2.0, 1.0, 2.0),
                               EntryResult("b", 3.0, 1.0, 3.0)], 10.0, passed=True)
    assert rep.spread >= 1.0
    assert rep.ratio_min == 2.0 and rep.ratio_max == 3.0


# --- experiments --------------------------------------------------------------


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_experiment("nope", HarnessConfig(**SMALL))


def test_empty_corpus_rejected():
    """An empty corpus raises on every call, as a failed build keeps nothing;
    the lemma sweeps read no inputs, so they still run on that config."""
    cfg = HarnessConfig(**{**SMALL, "corpus_names": ()})
    for _ in range(2):
        with pytest.raises(ConfigError, match="empty corpus"):
            run_experiment("discrete-vs-continuous", cfg)
    assert run_experiment("lemma:hardy", cfg).passed


def test_empty_triples_rejected(tmp_path, capsys):
    """No exponent triples is an error, as an empty corpus is, not a report
    of 0 entries that passes; an INI list of empty names reads as none."""
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment:independence]\ntriples = , ,\n")
    ini = HarnessConfig.from_ini(path)
    assert ini.triples == ()
    for cfg in (HarnessConfig(**{**SMALL, "triples": ()}), ini):
        with pytest.raises(ConfigError, match="no exponent triples"):
            run_experiment("independence", cfg)
    assert cli_main(["run", "independence", "--config", str(path),
                     "--out", str(tmp_path / "rep")]) == 2
    assert "no exponent triples" in capsys.readouterr().err


def test_zero_entry_marked_vacuous():
    """The zero entry is left out, and the gaussian entries beside it are judged."""
    cfg = HarnessConfig(**{**SMALL, "corpus_names": ("gaussian", "zero")})
    rep = run_experiment("discrete-vs-continuous", cfg)
    vac = [e for e in rep.entries if e.vacuous]
    assert len(vac) == len(cfg.triples)
    for e in vac:
        assert e.norm_a == e.norm_b == 0.0
    assert rep.passed


def test_independence_small_run():
    rep = run_experiment("independence", HarnessConfig(**SMALL))
    assert rep.passed and rep.spread <= 20.0
    assert len(rep.entries) == 6


def test_peetre_domination_check_recorded():
    cfg = HarnessConfig(**{**SMALL, "corpus_names": ("gaussian",), "triples": ("constant",)})
    rep = run_experiment("peetre-vs-continuous", cfg)
    assert rep.passed
    for e in rep.entries:
        assert e.ratio >= 1.0 - 1e-12


def test_local_means_hypothesis_rejection():
    cfg = HarnessConfig(**{**SMALL, "S": -1})
    with pytest.raises(HypothesisError, match="S\\+1"):
        run_experiment("local-means-vs-discrete", cfg)


def test_local_means_even_S_rejected(tmp_path, capsys):
    """S = 2 clears alpha+ < S+1, but its kernel is no Schwartz function:
    the experiment raises, and the CLI exits with code 2."""
    with pytest.raises(HypothesisError, match="S odd or -1"):
        run_experiment("local-means-vs-discrete", HarnessConfig(**{**SMALL, "S": 2}))
    ini = tmp_path / "cfg.ini"
    ini.write_text("[experiment:local-means-vs-discrete]\nS = 2\n")
    assert cli_main(["run", "local-means-vs-discrete", "--config", str(ini), "--grid", "256,16",
                     "--scales", "4,3", "--out", str(tmp_path / "y")]) == 2
    assert "S odd or -1" in capsys.readouterr().err


def test_run_experiments_matches_run_experiment():
    """Reading the shared table gives each report byte for byte as a run of
    that experiment alone."""
    shared = list(run_experiments(EXPERIMENTS, HarnessConfig(**SMALL)))
    assert [r.experiment for r in shared] == list(EXPERIMENTS)
    for rep in shared:
        alone = run_experiment(rep.experiment, HarnessConfig(**SMALL))  # evaluates afresh
        assert rep.to_json() == alone.to_json()
        assert rep.to_csv() == alone.to_csv()


@pytest.mark.parametrize("name, value", [("seed", 5), ("N", 512)])
def test_field_set_between_reports_holds_for_the_next(name, value):
    """A field set between two reports of one run_experiments generator holds
    for the whole next report: its norms come from the new corpus and grid,
    as on a new config, not from what the first report built."""
    small = dict(N=256, L=16.0, K=2, J=2, corpus_names=("gaussian", "random_band_1"),
                 triples=("constant",))
    cfg = HarnessConfig(**small)
    reports = run_experiments(("discrete-vs-continuous", "independence"), cfg)
    next(reports)
    setattr(cfg, name, value)
    fresh = run_experiment("independence", HarnessConfig(**{**small, name: value}))
    assert next(reports).to_json() == fresh.to_json()


def test_norms_do_not_depend_on_call_pattern():
    """One run of the four norm experiments and four runs of one each give
    the same norm_a and norm_b to the bit, whichever column first built a
    function's moduli on a shared kernel.  Each run has a new config, so
    that it evaluates its columns itself."""
    def norms(reports):
        return {r.experiment: [(e.norm_a, e.norm_b) for e in r.entries] for r in reports}

    shared = norms(run_experiments(NORM_EXPERIMENTS, HarnessConfig(**SMALL)))
    alone = norms(run_experiment(name, HarnessConfig(**SMALL)) for name in NORM_EXPERIMENTS)
    assert list(shared) == list(NORM_EXPERIMENTS)
    assert shared == alone


def test_each_column_value_evaluated_once(monkeypatch):
    """One run of the norm experiments calls each evaluator once per
    (kernel, triple, corpus entry) and builds each kernel once: 5 columns
    of 3 triples x 10 entries at the default config, where evaluating both
    norms of every experiment would take 240 calls."""
    calls, builds = Counter(), Counter()

    def counting(kind):
        def evaluate(f, P):
            calls[kind, id(P.kernels), id(P.alpha), id(P.p), id(P.q), id(f)] += 1
            return 1.0
        return evaluate

    def counted(builder, build):
        def counted_build(*args, **kwargs):
            builds[builder, kwargs.get("profile")] += 1
            return build(*args, **kwargs)
        return counted_build

    for kind in ("continuous", "discrete", "peetre", "local_means"):
        monkeypatch.setattr(harness, f"besov_{kind}", counting(kind))
    for builder in ("build_continuous_pair", "build_dyadic", "build_local_means"):
        monkeypatch.setattr(harness, builder, counted(builder, getattr(harness, builder)))
    reports = list(run_experiments(NORM_EXPERIMENTS, HarnessConfig()))
    assert [r.experiment for r in reports] == list(NORM_EXPERIMENTS)
    assert sum(calls.values()) == 150 and set(calls.values()) == {1}
    assert Counter(key[0] for key in calls) == {
        "continuous": 60, "discrete": 30, "peetre": 30, "local_means": 30}
    assert builds == {("build_continuous_pair", "mollifier"): 1,
                      ("build_continuous_pair", "mu-eta"): 1,
                      ("build_dyadic", None): 1, ("build_local_means", None): 1}


def _count_continuous(monkeypatch) -> Counter:
    """Calls of the real besov_continuous, by the profile of the kernel pair."""
    calls, real = Counter(), harness.besov_continuous

    def counting(f, P):
        calls[P.kernels.label] += 1
        return real(f, P)
    monkeypatch.setattr(harness, "besov_continuous", counting)
    return calls


def _count_builds(monkeypatch) -> Counter:
    """Calls of the real build_corpus, make_triple and estimate_clog, by name."""
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
    for module, name in ((harness, "build_corpus"), (harness, "make_triple"),
                         (exponent, "estimate_clog")):
        counting(module, name)
    return calls


def test_shared_column_read_across_calls(monkeypatch):
    """discrete-vs-continuous and then independence, as two calls on one config,
    evaluate their shared continuous column once and build the corpus, each
    triple and the c_log of each exponent field (alpha and 1/q) once; their
    reports equal those of runs on new configs, which build afresh."""
    config = {**SMALL, "triples": ("constant", "sine-q")}
    calls, cfg = _count_continuous(monkeypatch), HarnessConfig(**config)
    builds = _count_builds(monkeypatch)
    reports = [run_experiment(name, cfg) for name in ("discrete-vs-continuous", "independence")]
    assert calls == {"mollifier": 6, "mu-eta": 6}  # 2 triples x 3 entries per column
    assert builds == {"build_corpus": 1, "make_triple": 2, "estimate_clog": 4}
    for rep in reports:
        fresh = run_experiment(rep.experiment, HarnessConfig(**config))
        assert rep.to_json() == fresh.to_json() and rep.to_csv() == fresh.to_csv()
    assert calls == {"mollifier": 18, "mu-eta": 12}
    assert builds == {"build_corpus": 3, "make_triple": 6, "estimate_clog": 12}


def test_rebound_evaluator_misses_the_kept_columns(monkeypatch):
    """A column is kept under the evaluator object that filled it, so a run
    after its name is rebound (a tracer, a counting test) evaluates again."""
    cfg = HarnessConfig(**SMALL)
    first = run_experiment("discrete-vs-continuous", cfg)
    calls = _count_continuous(monkeypatch)
    assert run_experiment("discrete-vs-continuous", cfg).to_json() == first.to_json()
    assert calls == {"mollifier": 6}


def test_failed_column_fill_stores_nothing(monkeypatch):
    """A fill that raises keeps nothing and raises again on the next call;
    the columns filled before it are still read."""
    calls, cfg = _count_continuous(monkeypatch), HarnessConfig(**{**SMALL, "S": 2})
    run_experiment("discrete-vs-continuous", cfg)
    for _ in range(2):
        with pytest.raises(HypothesisError, match="S odd or -1"):
            run_experiment("local-means-vs-discrete", cfg)
    run_experiment("discrete-vs-continuous", cfg)
    assert calls == {"mollifier": 6}
    kept = {key[1:]: values for key, values in cfg._memo.items() if key[0] is harness._column}
    assert sorted(col for col, _ in kept) == ["continuous", "discrete"]
    for values in kept.values():
        assert type(values) is tuple and {type(v) for v in values} == {float}


# a changed value of every HarnessConfig field, valid on the N = 64 grid of the test below
CHANGED = dict(n=2, N=128, L=6.0, K=3, J=1, seed=1, out="elsewhere",
               corpus_names=("gaussian", "bump"), triples=("constant",),
               thresholds={"lemma": 2.0}, a_offset=2.0, S=5, eps=0.5,
               profile_a="gauss", profile_b="mollifier", lemma_L=4.0, lemma_K=3, lemma_J=2)


@pytest.mark.parametrize("name", [f.name for f in fields(HarnessConfig)])
def test_changed_field_refills_the_columns(monkeypatch, name):
    """The kept columns, corpus and triples are read while the config is
    unchanged; a changed value of any field, set on the same config, builds
    them again."""
    calls, builds = [], _count_builds(monkeypatch)

    def counting(f, P):
        calls.append(f)
        return 1.0
    for kind in ("continuous", "discrete"):
        monkeypatch.setattr(harness, f"besov_{kind}", counting)
    cfg = HarnessConfig(**{**SMALL, "N": 64, "L": 8.0, "J": 2})
    run_experiment("discrete-vs-continuous", cfg)
    filled = len(calls)
    run_experiment("discrete-vs-continuous", cfg)
    assert len(calls) == filled
    assert builds == {"build_corpus": 1, "make_triple": 2, "estimate_clog": 4}
    setattr(cfg, name, CHANGED[name])
    run_experiment("discrete-vs-continuous", cfg)
    assert len(calls) - filled == 2 * len(cfg.triples) * len(cfg.corpus_names)  # two columns
    assert builds == {"build_corpus": 2, "make_triple": 2 + len(cfg.triples),
                      "estimate_clog": 4 + 2 * len(cfg.triples)}


def test_scaling_invariance_of_ratios():
    cfg = HarnessConfig(**SMALL)
    rep1 = run_experiment("discrete-vs-continuous", cfg)

    # multiply every corpus entry by 7 by hand and recompute one triple
    from varbesov.besov import BesovParams, besov_continuous, besov_discrete
    from varbesov.calderon import build_continuous_pair, build_dyadic, max_dyadic_level
    spec, scales = cfg.spec(), cfg.scales()
    corpus = build_corpus(spec, seed=cfg.seed, names=cfg.corpus_names)
    alpha, p, q = make_triple(spec, "constant")
    pair = build_continuous_pair(spec, scales)
    dyad = build_dyadic(spec, max_dyadic_level(spec))
    Pc = BesovParams(alpha, p, q, 0.0, scales, pair)
    Pd = BesovParams(alpha, p, q, 0.0, scales, dyad)
    for (name, f), e in zip(corpus, rep1.entries):
        ratio7 = besov_continuous(7.0 * f, Pc) / besov_discrete(7.0 * f, Pd)
        assert ratio7 == pytest.approx(e.ratio, rel=1e-10)


def test_lemma_sweep_report():
    cfg = HarnessConfig(**{**SMALL, "N": 256})
    rep = run_experiment("lemma:hardy", cfg)
    assert rep.passed
    for e in rep.entries:
        assert math.isfinite(e.norm_a) and e.norm_a > 0
        assert abs(e.ratio - 1.0) < 0.05


def test_lemma_grid_too_coarse_for_noise_band(tmp_path, capsys):
    """The lemma noise band |xi| < 8 at L = 8 spans frequency indices up to
    20, which N = 32 cannot hold; 64 is the smallest grid that can."""
    with pytest.raises(ConfigError, match=r"\|xi\| < 8 at L = 8 needs N >= 64, got N = 32"):
        run_experiment("lemma:transfer", HarnessConfig(**{**SMALL, "N": 32}))
    code = cli_main(["run", "lemma:hardy", "--grid", "32,16", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "needs N >= 64, got N = 32" in capsys.readouterr().err


def test_lemma_unknown_id():
    with pytest.raises(ConfigError, match="unknown lemma"):
        run_experiment("lemma:nope", HarnessConfig(**SMALL))


def test_lemma_sweep_rejects_n2(tmp_path, capsys):
    with pytest.raises(ConfigError, match="defined for n = 1"):
        run_experiment("lemma:hardy", HarnessConfig(n=2, N=64, L=8.0))
    ini = tmp_path / "n2.ini"
    ini.write_text("[grid]\nn = 2\nN = 64\n")
    code = cli_main(["run", "lemma:hardy", "--config", str(ini), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "lemma sweeps are defined for n = 1" in capsys.readouterr().err


@pytest.mark.parametrize("lemma, check, factor, grid_N", [
    ("averaged", "check_averaged", 2.0, lambda args: args[0].shape[-1]),
    ("rtrick", "check_rtrick", 3.0, lambda args: args[0].spec.N),
], ids=["averaged", "rtrick"])
def test_lemma_refinement_drift_fails(monkeypatch, tmp_path, lemma, check, factor, grid_N):
    """A constant that moves by the same factor in every case under N -> 2N
    keeps the spread where it was; the bound on each ratio c(2N)/c(N)
    catches it.  N = 512 keeps the honest ratios within 1.3% of 1."""
    cfg = HarnessConfig(N=512)
    assert run_experiment(f"lemma:{lemma}", cfg).passed
    honest = getattr(lemmas, check)
    monkeypatch.setattr(lemmas, check, lambda *args: honest(*args) * (
        factor if grid_N(args) == 1024 else 1.0))
    rep = run_experiment(f"lemma:{lemma}", cfg)
    assert rep.spread <= rep.threshold
    assert all(r == pytest.approx(factor, rel=0.02) for r in rep.ratios)
    assert not rep.passed
    out = tmp_path / "out"
    assert cli_main(["run", f"lemma:{lemma}", "--grid", "512,16", "--out", str(out)]) == 1
    assert json.loads((out / "report.json").read_text())["passed"] is False


def _half_continuous(f, P):
    return 0.5 * harness.besov_continuous(f, P)


@pytest.mark.parametrize("experiment, patch, corpus", [
    ("lemma:dzw", ("check_dzw", lambda *args: False), None),
    ("lemma:rtrick", ("check_rtrick", lambda *args: math.inf), None),
    ("lemma:rtrick", ("check_rtrick", lambda *args: math.nan), None),
    ("lemma:hardy", ("check_hardy", lambda *args: math.inf), None),
    ("lemma:transfer", ("check_transfer", lambda *args, **kw: math.inf), None),
    ("lemma:transfer-violation", ("check_transfer", lambda *args, **kw: math.inf), None),
    ("discrete-vs-continuous", None, "zero"),
    ("peetre-vs-continuous", ("besov_peetre", _half_continuous), "gaussian"),
], ids=["dzw-false", "rtrick-inf", "rtrick-nan", "hardy-inf", "transfer-inf",
        "transfer-violation-inf", "zero-corpus", "peetre-below-continuous"])
def test_forced_failure_fails_report(monkeypatch, tmp_path, experiment, patch, corpus):
    """A constant that blows up (inf, or NaN on every grid), a failed dzw
    comparison, a corpus with no judged entry and a Peetre norm below the
    continuous one each fail their report, and `varbesov run` exits 1."""
    if patch:
        name, fake = patch
        monkeypatch.setattr(harness if name.startswith("besov") else lemmas, name, fake)
    argv = ["run", experiment, "--grid", "256,16", "--scales", "4,3"]
    if corpus:
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[corpus]\nnames = {corpus}\n")
        argv += ["--config", str(ini)]
    out = tmp_path / "out"
    assert cli_main(argv + ["--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert math.isfinite(report["threshold"])


@pytest.mark.parametrize("lemma, noise_grids", [("hardy", []), ("dzw", [256, 512])])
def test_lemma_row_builds_only_what_it_reads(monkeypatch, lemma, noise_grids):
    built = []
    noise = harness._band_noise
    monkeypatch.setattr(harness, "_band_noise",
                        lambda spec, seed: built.append(spec.N) or noise(spec, seed))
    assert run_experiment(f"lemma:{lemma}", HarnessConfig(N=256)).passed
    assert built == noise_grids


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_dzw_scaling_clears_hypothesis_in_one_step(monkeypatch, scale):
    """c = n0^(-1/q-) when n0 = || |f|^q ||_(p/q) < 1, else n0^(-1/q+), gives
    || |c f|^q ||_(p/q) >= 1 on both branches: one norm for c and one in
    check_dzw per grid, and the sweep passes."""
    noise, power_quotient = harness._band_noise, lemmas.power_quotient_norm
    monkeypatch.setattr(harness, "_band_noise", lambda spec, seed: scale * noise(spec, seed))
    norms = []
    monkeypatch.setattr(lemmas, "power_quotient_norm",
                        lambda *args: norms.append(power_quotient(*args)) or norms[-1])
    rep = run_experiment("lemma:dzw", HarnessConfig(N=256))
    assert rep.passed and [(e.norm_a, e.norm_b) for e in rep.entries] == [(1.0, 1.0)]
    assert len(norms) == 4
    n0, scaled = norms[0::2], norms[1::2]
    assert all(n >= 1.0 for n in scaled)
    if scale != 1.0:
        assert all((n < 1.0) == (scale < 1.0) for n in n0)


@pytest.mark.parametrize("args, message", [
    (["lemma:transfer", "--grid", "1024,inf"], "L must be finite and positive, got inf"),
    (["lemma:transfer", "--grid", "1024,-4"], "L must be finite and positive, got -4"),
    (["lemma:hardy", "--scales", "0,0"], "ScaleGrid needs K >= 1"),
    (["lemma:hardy", "--grid", "256"], "--grid expects two comma-separated values, got '256'"),
    (["lemma:hardy", "--grid", ""], "--grid expects two comma-separated values, got ''"),
    (["lemma:hardy", "--scales", ""], "--scales expects two comma-separated values, got ''"),
    (["lemma:hardy", "--config", ""], "cannot read config file"),
], ids=["L-inf", "L-negative", "scales-0", "grid-one-value", "grid-empty", "scales-empty",
        "config-empty"])
def test_config_validated_for_every_experiment(tmp_path, capsys, args, message):
    """The lemma sweeps read neither --grid's L nor --scales, but a bad or
    empty value is still a configuration error, and no report is written."""
    out = tmp_path / "out"
    assert cli_main(["run", *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lemma, message", [
    ("reproducing", "smallest scale 2^-3 needs frequencies up to 16.0 but the grid "
                    "resolves only 12.6"),
    ("rychkov", "not enough usable scales for the decay fit"),
])
def test_lemma_sweeps_needing_n128_reject_n64(tmp_path, capsys, lemma, message):
    """N = 64 passes the noise-band check, but these two sweeps need N >= 128
    at the default lemma grid (README), and fail from inside the sweep."""
    out = tmp_path / "out"
    assert cli_main(["run", f"lemma:{lemma}", "--grid", "64,16", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- config file and CLI ---------------------------------------------------------


INI = """
[grid]
n = 1
N = 256
L = 16.0

[scales]
K = 4
J = 3

[run]
seed = 9

[corpus]
names = gaussian, bump

[experiment:independence]
threshold = 15
triples = constant
profile_a = mollifier
profile_b = gauss

[experiment:local-means-vs-discrete]
S = 5
eps = 1.0

[experiment:lemma]
L = 8.0
K = 4
J = 2
threshold = 1.04
"""


def test_config_from_ini(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(INI)
    cfg = HarnessConfig.from_ini(path)
    assert cfg.N == 256 and cfg.K == 4 and cfg.seed == 9
    assert cfg.corpus_names == ("gaussian", "bump")
    assert cfg.triples == ("constant",)
    assert cfg.thresholds["independence"] == 15.0
    assert cfg.profile_b == "gauss"
    assert cfg.S == 5
    assert cfg.lemma_J == 2 and cfg.thresholds["lemma"] == 1.04


def test_partial_thresholds_keep_the_other_defaults():
    """A thresholds dict that names some experiments leaves every other
    experiment at its documented default (20, and 30 for the two
    maximal-function experiments), not at a looser fallback."""
    cfg = HarnessConfig(thresholds={"lemma": 2.0})
    assert {name: cfg.threshold_for(name) for name in NORM_EXPERIMENTS} == {
        "independence": 20.0, "peetre-vs-continuous": 30.0,
        "discrete-vs-continuous": 20.0, "local-means-vs-discrete": 30.0}
    assert cfg.threshold_for("lemma:hardy") == 2.0
    cfg = HarnessConfig(thresholds={"independence": 15.0})
    assert cfg.threshold_for("independence") == 15.0
    assert cfg.threshold_for("lemma:hardy") == 1.05


def test_readme_config_sample_loads_as_defaults(tmp_path):
    """The README's INI sample, comments and all, documents the defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sample = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(sample)
    assert asdict(HarnessConfig.from_ini(path)) == asdict(HarnessConfig())


@pytest.mark.parametrize("text, match", [
    ("[scales]\nk = 4\n", "unknown config key 'k' in \\[scales\\]"),
    ("[grid]\nNN = 64\n", "unknown config key 'NN' in \\[grid\\]"),
    ("[experiment:independance]\nthreshold = 2\n",
     "unknown config section \\[experiment:independance\\]"),
    ("[experiment:lemma:hardy]\nthreshold = 2\n",
     "unknown config section \\[experiment:lemma:hardy\\]"),
    ("[experiment:discrete-vs-continuous]\nS = 3\n",
     "unknown config key 'S' in \\[experiment:discrete-vs-continuous\\]"),
    ("[run]\nthreads = 1\n", "unknown config key 'threads' in \\[run\\]"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, text, match):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        HarnessConfig.from_ini(path)
    assert cli_main(["corpus", "list", "--config", str(path)]) == 2
    assert "unknown config" in capsys.readouterr().err


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        HarnessConfig.from_ini(tmp_path / "missing.ini")


def test_cli_run_pass_and_outputs(tmp_path, capsys):
    out = tmp_path / "rep"
    code = cli_main(["run", "discrete-vs-continuous", "--grid", "256,16",
                     "--scales", "4,3", "--seed", "3", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    assert (out / "report.json").exists() and (out / "report.csv").exists()
    assert json.loads((out / "report.json").read_text())["passed"]


@pytest.mark.parametrize("experiment, lines", [
    ("discrete-vs-continuous", ["ratio continuous/discrete min/max: ", "spread: ",
                                "bound: spread max/min <= 20\n"]),
    ("lemma:rychkov", ["drift c(2N) - c(N) min/max: ",
                       "bound: every |drift| <= 0.1 and slope >= M + 0.9 on both grids\n"]),
    ("lemma:transfer-violation", ["growth c(N)/c_first(N) min/max: 1 / 4\n",
                                  "bound: largest growth >= 3\n"]),
    ("lemma:hardy", ["ratio c(2N)/c(N) min/max: ", "bound: every ratio in [1/1.05, 1.05]\n"]),
])
def test_cli_names_judged_values_and_bound(tmp_path, capsys, experiment, lines):
    """The summary names what the rule judged and the bound it applied, and
    prints a spread only for the rules that judge one."""
    assert cli_main(["run", experiment, "--grid", "256,16", "--scales", "4,3",
                     "--out", str(tmp_path / "x")]) == 0
    out = capsys.readouterr().out
    assert all(line in out for line in lines), out
    assert ("spread: " in out) == (experiment == "discrete-vs-continuous")
    assert "threshold" not in out


def test_cli_determinism(tmp_path):
    args = ["run", "discrete-vs-continuous", "--grid", "256,16",
            "--scales", "4,3", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_cli_threshold_failure(tmp_path, capsys):
    code = cli_main(["run", "discrete-vs-continuous", "--grid", "256,16",
                     "--scales", "4,3", "--threshold", "1.0000001",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_threshold_reaches_a_lemma_report(tmp_path):
    """--threshold on one lemma sweep sets the shared "lemma" key, which its report carries."""
    out = tmp_path / "hardy"
    cli_main(["run", "lemma:hardy", "--grid", "256,16", "--threshold", "1.25", "--out", str(out)])
    assert json.loads((out / "report.json").read_text())["threshold"] == 1.25


def test_cli_run_all(tmp_path, capsys):
    out = tmp_path / "all"
    code = cli_main(["run", "all", "--grid", "256,16", "--scales", "4,3",
                     "--out", str(out)])
    dirs = sorted(os.listdir(out))
    assert dirs == sorted(name.replace(":", "_") for name in EXPERIMENTS)

    def strict(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    reports = [json.loads((out / d / "report.json").read_text(), parse_constant=strict)
               for d in dirs]
    passed = [r["passed"] for r in reports]
    assert code == (0 if all(passed) else 1)
    assert capsys.readouterr().out.count("PASS") == sum(passed)


def test_cli_run_all_rejects_threshold(tmp_path, capsys):
    """--threshold is a configuration error with `all` and with the sweeps
    whose rule judges against a fixed bound, which the message names."""
    for experiment, named in (("all", "every experiment"), ("lemma:rychkov", "fixed at 0.1"),
                              ("lemma:transfer-violation", "fixed at 3")):
        out = tmp_path / experiment.replace(":", "_")
        code = cli_main(["run", experiment, "--threshold", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "threshold" in err and named in err, err
        assert not out.exists()


def test_fixed_bound_reports_record_no_lemma_threshold():
    """The lemma threshold is recorded by the sweeps that read it and left
    out of the reports whose rule judges against a fixed bound."""
    cfg = HarnessConfig(N=256, thresholds={"lemma": 100.0})
    for name, bound in (("lemma:rychkov", 0.1), ("lemma:transfer-violation", 3.0)):
        rep = run_experiment(name, cfg)
        assert "lemma" not in rep.config["thresholds"] and rep.threshold == bound
    rep = run_experiment("lemma:transfer", cfg)
    assert rep.config["thresholds"]["lemma"] == 100.0 and rep.threshold == 100.0


# experiment -> the value its rule judges, the bound it prints at the default
# thresholds, and its fixed bound as --threshold's error names it (None: none)
SUMMARIES = {
    "independence": ("ratio continuous/continuous-b", "spread max/min <= 20", None),
    "peetre-vs-continuous": ("ratio peetre/continuous",
                             "spread max/min <= 30 and peetre >= continuous", None),
    "discrete-vs-continuous": ("ratio continuous/discrete", "spread max/min <= 20", None),
    "local-means-vs-discrete": ("ratio local-means/discrete", "spread max/min <= 30", None),
    "lemma:transfer-violation": ("growth c(N)/c_first(N)", "largest growth >= 3", "3"),
    "lemma:rychkov": ("drift c(2N) - c(N)",
                      "every |drift| <= 0.1 and slope >= M + 0.9 on both grids", "0.1"),
}
STABLE = ("ratio c(2N)/c(N)", "every ratio in [1/1.05, 1.05]", None)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_row_summary_and_threshold(tmp_path, capsys, name):
    """Each row's summary names its judged value and bound, and --threshold 5
    either sets the bound its rule reads or is refused naming the fixed one."""
    judged, bound, fixed = SUMMARIES.get(name, STABLE)
    rep = run_experiment(name, HarnessConfig(**SMALL))
    lines = harness._summary(rep)
    assert lines[0] == f"{judged} min/max: {rep.ratio_min:.6g} / {rep.ratio_max:.6g}"
    assert lines[-1] == f"bound: {bound}"
    assert (harness.threshold_key(name) is None) == (fixed is not None)
    ini = tmp_path / "small.ini"
    ini.write_text("[grid]\nN = 256\nL = 16.0\n[scales]\nK = 4\nJ = 3\n"
                   "[corpus]\nnames = gaussian, modulated_4, bump\n"
                   "[experiment:independence]\ntriples = constant, sine-alpha\n")
    assert asdict(HarnessConfig.from_ini(ini)) == asdict(HarnessConfig(**SMALL))
    out = tmp_path / "out"
    code = cli_main(["run", name, "--config", str(ini), "--threshold", "5", "--out", str(out)])
    if fixed is None:
        assert code in (0, 1)
        assert json.loads((out / "report.json").read_text())["threshold"] == 5.0
    else:
        assert code == 2 and f"its bound is fixed at {fixed}" in capsys.readouterr().err
        assert not out.exists()


def test_cli_unwritable_out_is_an_error(tmp_path, capsys):
    """An --out that is an existing file ends in exit 2 and an error line."""
    out = tmp_path / "taken"
    out.write_text("")
    assert cli_main(["run", "lemma:hardy", "--grid", "256,16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == ""


def test_cli_config_error(capsys):
    assert cli_main(["run", "no-such-experiment"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_infinite_half_period(tmp_path, capsys):
    code = cli_main(["run", "discrete-vs-continuous", "--grid", "1024,inf",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "half-period L must be finite and positive" in capsys.readouterr().err


def test_cli_hypothesis_error(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[experiment:local-means-vs-discrete]\nS = -1\n")
    code = cli_main(["run", "local-means-vs-discrete", "--config", str(ini),
                     "--grid", "256,16", "--scales", "4,3",
                     "--out", str(tmp_path / "y")])
    assert code == 2


def test_cli_run_all_stops_at_the_first_error(tmp_path, capsys):
    """A hypothesis error in the fourth experiment ends `run all` with exit
    code 2 after the reports of the three before it are written."""
    ini = tmp_path / "cfg.ini"
    ini.write_text("[experiment:local-means-vs-discrete]\nS = -1\n")
    out = tmp_path / "all"
    code = cli_main(["run", "all", "--config", str(ini), "--grid", "256,16",
                     "--scales", "4,3", "--out", str(out)])
    assert code == 2
    assert "S+1" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["discrete-vs-continuous", "independence",
                                       "peetre-vs-continuous"]
    for d in os.listdir(out):
        assert sorted(os.listdir(out / d)) == ["report.csv", "report.json"]


def test_python_m_varbesov():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-m", "varbesov", "corpus", "list", "--grid", "256,16"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "gaussian" in out.stdout


def test_cli_kernels_export(tmp_path):
    out = tmp_path / "ktab"
    code = cli_main(["kernels", "export", "--grid", "256,16", "--scales", "4,3",
                     "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert "Phi_mollifier.csv" in names and "k0.csv" in names
    assert any(n.startswith("psi_") for n in names)


def test_cli_corpus_list(capsys):
    code = cli_main(["corpus", "list", "--grid", "256,16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gaussian" in out and "boundary mass" in out


@pytest.mark.parametrize("argv", [
    ["kernels", "export", "--seed", "1"],
    ["kernels", "export", "--threads", "2"],
    ["corpus", "list", "--scales", "4,3"],
    ["corpus", "list", "--threads", "2"],
    ["corpus", "list", "--out", "x"],
])
def test_cli_rejects_flags_the_subcommand_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert err.startswith(f"usage: varbesov {argv[0]} {argv[1]} ")  # the subcommand's own


def test_cli_run_takes_no_threads(tmp_path, capsys):
    """Each norm column is one ordered loop, so `run` has no --threads."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "all", "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: varbesov run ")


def test_threads_only_at_one_and_not_a_field():
    """HarnessConfig(threads=1) builds, with no threads in its fields; any
    other value is a configuration error."""
    assert "threads" not in asdict(HarnessConfig(threads=1))
    with pytest.raises(ConfigError, match="threads must be 1, got 2"):
        HarnessConfig(threads=2)
