import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

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
from varbesov.harness import (
    EXPERIMENTS,
    ConfigError,
    EntryResult,
    HarnessConfig,
    RatioReport,
    _ratio_entry,
    emit_report,
    run_experiment,
)

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
    with pytest.raises(ValueError, match="unknown corpus entry"):
        build_corpus(spec, names=("nope",))


def test_exponent_presets(spec):
    alpha, p, q = make_triple(spec, "sine-p")
    assert alpha.is_constant
    assert not p.is_constant and p.range_min == pytest.approx(1.5)
    assert q.is_constant
    with pytest.raises(ValueError, match="unknown exponent triple"):
        make_triple(spec, "nope")
    g = make_exponent(spec, kind="bump", base=0.5, amplitude=0.4)
    assert g.range_max == pytest.approx(0.9, abs=1e-6)


# --- reports ----------------------------------------------------------------


def test_report_roundtrip_and_csv(tmp_path):
    rep = RatioReport(
        experiment="demo",
        entries=[EntryResult("a", 1.0, 2.0, 0.5),
                 EntryResult("z", 0.0, 0.0, math.nan, vacuous=True)],
        threshold=10.0,
        hypothesis={"a": 1.5},
        config={"N": 256},
    )
    assert rep.spread == 1.0
    assert rep.passed
    text = rep.to_json()
    d = json.loads(text)
    assert d["spread"] == 1.0 and d["passed"] and len(d["entries"]) == 2
    files = emit_report(rep, tmp_path)
    assert (tmp_path / "report.json").read_text() == text
    csv_text = (tmp_path / "report.csv").read_text()
    assert len(csv_text.splitlines()) == len(rep.entries) + 1
    assert len(files) == 2


def test_zero_ratio_fails_report():
    """A non-vacuous ratio of 0 makes the spread infinite, and the report fails."""
    zero = _ratio_entry("x", 0.0, 2.0)
    assert not zero.vacuous and zero.ratio == 0.0
    rep = RatioReport("demo", [zero, _ratio_entry("y", 1.0, 2.0)], 10.0)
    assert rep.spread == math.inf
    assert not rep.passed
    assert json.loads(rep.to_json())["spread"] == math.inf


def test_nan_ratio_fails_report_in_any_order():
    """A non-vacuous NaN ratio (a lemma constant of 0 on the coarse grid)
    makes the range and spread NaN whatever its position, so the report
    fails; min/max over the list would pass (2, 4, NaN) with spread 2."""
    nan = EntryResult("z", 0.0, 1.0, math.nan)
    two, four = EntryResult("a", 1.0, 2.0, 2.0), EntryResult("b", 1.0, 4.0, 4.0)
    for entries in ([nan, two, four], [two, four, nan], [two, nan, four]):
        rep = RatioReport("demo", entries, 10.0)
        assert math.isnan(rep.ratio_min) and math.isnan(rep.ratio_max)
        assert math.isnan(rep.spread)
        assert not rep.passed
        assert math.isnan(json.loads(rep.to_json())["spread"])


def test_spread_at_least_one():
    rep = RatioReport("demo", [EntryResult("a", 2.0, 1.0, 2.0),
                               EntryResult("b", 3.0, 1.0, 3.0)], 10.0)
    assert rep.spread >= 1.0
    assert rep.ratio_min == 2.0 and rep.ratio_max == 3.0


# --- experiments --------------------------------------------------------------


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_experiment("nope", HarnessConfig(**SMALL))


def test_empty_corpus_rejected():
    cfg = HarnessConfig(**{**SMALL, "corpus_names": ()})
    with pytest.raises(ConfigError, match="empty corpus"):
        run_experiment("discrete-vs-continuous", cfg)


def test_zero_entry_marked_vacuous():
    cfg = HarnessConfig(**{**SMALL, "corpus_names": ("gaussian", "zero")})
    rep = run_experiment("discrete-vs-continuous", cfg)
    vac = [e for e in rep.entries if e.vacuous]
    assert len(vac) == len(cfg.triples)
    for e in vac:
        assert e.norm_a == e.norm_b == 0.0


def test_independence_small_run():
    rep = run_experiment("independence", HarnessConfig(**SMALL))
    assert rep.passed and rep.spread <= 20.0
    assert len(rep.entries) == 6


def test_peetre_domination_check_recorded():
    cfg = HarnessConfig(**{**SMALL, "corpus_names": ("gaussian",), "triples": ("constant",)})
    rep = run_experiment("peetre-vs-continuous", cfg)
    assert rep.checks_ok
    for e in rep.entries:
        assert e.ratio >= 1.0 - 1e-12


def test_local_means_hypothesis_rejection():
    cfg = HarnessConfig(**{**SMALL, "S": -1})
    with pytest.raises(HypothesisError, match="S\\+1"):
        run_experiment("local-means-vs-discrete", cfg)


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


def test_lemma_unknown_id():
    with pytest.raises(ConfigError, match="unknown lemma"):
        run_experiment("lemma:nope", HarnessConfig(**SMALL))


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
threads = 1

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


def test_readme_config_sample_loads_as_defaults(tmp_path):
    """The README's INI sample, comments and all, documents the defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sample = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(sample)
    assert asdict(HarnessConfig.from_ini(path)) == asdict(HarnessConfig())


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


def test_cli_run_all(tmp_path, capsys):
    out = tmp_path / "all"
    code = cli_main(["run", "all", "--grid", "256,16", "--scales", "4,3",
                     "--out", str(out)])
    dirs = sorted(os.listdir(out))
    assert dirs == sorted(name.replace(":", "_") for name in EXPERIMENTS)
    passed = [json.loads((out / d / "report.json").read_text())["passed"] for d in dirs]
    assert code == (0 if all(passed) else 1)
    assert capsys.readouterr().out.count("PASS") == sum(passed)


def test_cli_run_all_rejects_threshold(tmp_path, capsys):
    code = cli_main(["run", "all", "--threshold", "5", "--out", str(tmp_path / "z")])
    assert code == 2
    assert "threshold" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_cli_config_error(capsys):
    assert cli_main(["run", "no-such-experiment"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_hypothesis_error(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[experiment:local-means-vs-discrete]\nS = -1\n")
    code = cli_main(["run", "local-means-vs-discrete", "--config", str(ini),
                     "--grid", "256,16", "--scales", "4,3",
                     "--out", str(tmp_path / "y")])
    assert code == 2


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


def test_threads_do_not_change_results():
    cfg1 = HarnessConfig(**SMALL)
    cfg2 = HarnessConfig(**{**SMALL, "threads": 4})
    r1 = run_experiment("discrete-vs-continuous", cfg1)
    r2 = run_experiment("discrete-vs-continuous", cfg2)
    assert [e.ratio for e in r1.entries if not e.vacuous] == \
        [e.ratio for e in r2.entries if not e.vacuous]
