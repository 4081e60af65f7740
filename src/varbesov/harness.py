"""Experiment orchestration: equivalence sweeps, lemma sweeps, reports.

A norm experiment is the per-entry ratio of two columns of one table, a
column being one evaluator on one kernel over every (triple, corpus entry)
evaluated once per `run_experiments` call; a lemma sweep compares its
constants on the lemma grid N and on 2N.  Each experiment has one rule,
the only source of its report's `passed`.  The inequalities never quantify
their constants, so thresholds are configuration data with loose defaults.

Reports serialise to strict JSON (a non-finite float as the string "nan",
"inf" or "-inf") and CSV, with no timestamps, so identical config + seed
reproduces byte-identical files.
"""

from __future__ import annotations

import configparser
import csv
import functools
import io
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lemmas
from .besov import BesovParams, besov_continuous, besov_discrete, \
    besov_local_means, besov_peetre
from .calderon import build_continuous_pair, build_dyadic, build_local_means, \
    max_dyadic_level
from .corpus import build_corpus, make_entry, make_triple
from .exponent import ExponentField
from .grid import GridFunction, GridSpec, ScaleGrid, dft

__all__ = ["HarnessConfig", "ConfigError", "RatioReport", "EntryResult",
           "run_experiment", "run_experiments", "emit_report", "EXPERIMENTS"]


class ConfigError(ValueError):
    """Bad experiment name, empty corpus or triples, or malformed configuration."""


# column -> (evaluator, kernel), both by name and looked up at fill time, as a
# tracer that rebinds the module's names needs; a pair kernel names its profile
_COLUMNS = {
    "continuous": ("besov_continuous", "profile_a"),
    "continuous-b": ("besov_continuous", "profile_b"),
    "peetre": ("besov_peetre", "profile_a"),
    "discrete": ("besov_discrete", "dyadic"),
    "local-means": ("besov_local_means", "local-means"),
}

# Default spread threshold per norm experiment, and the bound on each
# ratio c(2N)/c(N) of a `_stable` lemma sweep; a config that sets only
# some keeps these for the rest.
_THRESHOLDS = {
    "independence": 20.0,
    "discrete-vs-continuous": 20.0,
    "peetre-vs-continuous": 30.0,
    "local-means-vs-discrete": 30.0,
    "lemma": 1.05,
}


def threshold_key(experiment: str) -> str:
    """The thresholds key of an experiment: every lemma sweep shares "lemma"."""
    return "lemma" if experiment.startswith("lemma:") else experiment


def _csv(text: str) -> tuple:
    """The non-empty comma-separated names in `text`."""
    return tuple(filter(None, (x.strip() for x in text.split(","))))


# The sections and keys of the README's config sample, each with the
# HarnessConfig field it sets and its parser; every experiment section
# also takes a threshold.  from_ini rejects any other section or key, so a
# misspelt one cannot leave its default in place unnoticed.
_INI_FIELDS = {
    "grid": {"n": ("n", int), "N": ("N", int), "L": ("L", float)},
    "scales": {"K": ("K", int), "J": ("J", int)},
    "run": {"seed": ("seed", int), "threads": ("threads", int), "out": ("out", str)},
    "corpus": {"names": ("corpus_names", lambda v: _csv(v) if v else None)},
    "experiment:independence": {"triples": ("triples", _csv),
                                "profile_a": ("profile_a", str),
                                "profile_b": ("profile_b", str)},
    "experiment:discrete-vs-continuous": {},
    "experiment:peetre-vs-continuous": {"a_offset": ("a_offset", float)},
    "experiment:local-means-vs-discrete": {"S": ("S", int), "eps": ("eps", float)},
    "experiment:lemma": {"L": ("lemma_L", float), "K": ("lemma_K", int),
                         "J": ("lemma_J", int)},
}


@dataclass
class HarnessConfig:
    """Defaults for the desk-scale runs; every field can come from the INI
    config file or a CLI flag (flags win)."""

    n: int = 1
    N: int = 1024
    L: float = 16.0
    K: int = 8
    J: int = 5
    seed: int = 0
    threads: int = 1
    out: str = "reports"
    corpus_names: tuple = None  # None -> default corpus
    triples: tuple = ("constant", "sine-alpha", "sine-p")
    thresholds: dict = field(default_factory=lambda: dict(_THRESHOLDS))
    a_offset: float = 1.0     # Peetre exponent a = n/p- + a_offset
    S: int = 3                # local means moment order
    eps: float = 1.0          # local means Tauberian radius
    profile_a: str = "mollifier"
    profile_b: str = "mu-eta"
    # dedicated grid for the lemma sweeps: finer spacing relative to the smallest
    # scale keeps each ratio c(2N)/c(N) well inside the lemma threshold
    lemma_L: float = 8.0
    lemma_K: int = 4
    lemma_J: int = 3

    def spec(self) -> GridSpec:
        return GridSpec(self.n, self.N, self.L)

    def scales(self) -> ScaleGrid:
        return ScaleGrid(self.K, self.J)

    def threshold_for(self, experiment: str) -> float:
        key = threshold_key(experiment)
        return float(self.thresholds.get(key, _THRESHOLDS[key]))

    @classmethod
    def from_ini(cls, path) -> "HarnessConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.optionxform = str  # keys are case-sensitive (N vs n)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        cfg = cls()
        for section in parser.sections():
            if section not in _INI_FIELDS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, text in parser[section].items():
                if key in _INI_FIELDS[section]:
                    name, parse = _INI_FIELDS[section][key]
                    setattr(cfg, name, parse(text))
                elif key == "threshold" and section.startswith("experiment:"):
                    cfg.thresholds[section.split(":", 1)[1]] = float(text)
                else:
                    raise ConfigError(f"unknown config key {key!r} in [{section}]")
        return cfg


@dataclass
class EntryResult:
    name: str
    norm_a: float
    norm_b: float
    ratio: float
    vacuous: bool = False


@dataclass
class RatioReport:
    """Per-entry values, the rule's verdict and statistics of the judged values."""

    experiment: str
    entries: list
    threshold: float
    passed: bool
    hypothesis: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def ratios(self):
        return [e.ratio for e in self.entries if not e.vacuous]

    # unlike min/max, np.min/np.max give NaN for a NaN ratio in any position
    @property
    def ratio_min(self) -> float:
        r = self.ratios
        return float(np.min(r)) if r else math.nan

    @property
    def ratio_max(self) -> float:
        r = self.ratios
        return float(np.max(r)) if r else math.nan

    @property
    def spread(self) -> float:
        """max ratio / min ratio; inf when the smallest ratio is 0."""
        lo = self.ratio_min
        return self.ratio_max / lo if lo != 0 else math.inf

    # -- serialisation (deterministic bytes: sorted keys, repr floats) -----

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "threshold": self.threshold,
            "hypothesis": self.hypothesis,
            "config": self.config,
            "entries": [asdict(e) for e in self.entries],
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "spread": self.spread,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(_strict(self.to_dict()), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["entry", "norm_a", "norm_b", "ratio", "vacuous"])
        for e in self.entries:
            writer.writerow([e.name, repr(e.norm_a), repr(e.norm_b),
                             repr(e.ratio), int(e.vacuous)])
        return buf.getvalue()


def _strict(x):
    """x with every non-finite float written as the string float() reads back."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_strict(v) for v in x]
    return str(float(x)) if isinstance(x, float) and not math.isfinite(x) else x


def emit_report(report: RatioReport, out_dir):
    """Write report.json and report.csv into out_dir; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in (("report.json", report.to_json()), ("report.csv", report.to_csv())):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written


def _spread(cases, threshold: float) -> tuple:
    """Ratios a/b, passing when max/min is at most the threshold."""
    ratios = [a / b if b != 0 else math.inf for _, a, b in cases]
    lo, hi = (float(np.min(ratios)), float(np.max(ratios))) if ratios else (math.nan,) * 2
    return ratios, (hi / lo if lo != 0 else math.inf) <= threshold, threshold


def _dominates(cases, threshold: float) -> tuple:
    """_spread, and the maximal form a dominates: a >= b (1 - 1e-12) in every case."""
    ratios, ok, bound = _spread(cases, threshold)
    return ratios, ok and all(a >= b * (1.0 - 1e-12) for _, a, b in cases), bound


def _stable(cases, threshold: float) -> tuple:
    """Every c(2N)/c(N) of positive constants in [1/threshold, threshold]."""
    ratios = [b / a if a != 0 else math.nan for _, a, b in cases]
    return ratios, all(a > 0 and b > 0 and r * threshold >= 1.0 and r <= threshold
                       for (_, a, b), r in zip(cases, ratios)), threshold


def _slope(cases, threshold: float) -> tuple:
    """Decay slopes drifting by at most 0.1, case M=<M> >= M + 0.9 on both grids."""
    drifts = [b - a for _, a, b in cases]
    return drifts, all(min(a, b) >= int(name.split("M=")[-1]) + 0.9 and abs(d) <= 0.1
                       for (name, a, b), d in zip(cases, drifts)), 0.1


def _degrades(cases, threshold: float) -> tuple:
    """Growth c(N)/c_first(N) of positive constants, the largest at least 3."""
    ok = bool(cases) and all(0 < c < math.inf for case in cases for c in case[1:])
    growth = [a / cases[0][1] if ok else math.nan for _, a, _ in cases]
    return growth, ok and max(growth) >= 3.0, 3.0


def _judge(experiment: str, cases, blank, rule, threshold: float, **fields) -> RatioReport:
    """The report of `cases` (name, a, b), vacuous where both values are `blank`.  `rule`
    maps the judged cases and `threshold` to the value judged in each, the verdict
    and the finite bound it used."""
    vacuous = [blank(a) and blank(b) for _, a, b in cases]
    values, passed, bound = rule([c for c, v in zip(cases, vacuous) if not v], threshold)
    values = iter(values)
    entries = [EntryResult(name, a, b, math.nan if vac else next(values), vac)
               for (name, a, b), vac in zip(cases, vacuous)]
    return RatioReport(experiment, entries, bound, bool(passed) and not all(vacuous), **fields)


# --- norm experiments ------------------------------------------------------------

# norm experiment -> (column a, column b, rule); its entry ratios are a / b
NORM_EXPERIMENTS = {
    "independence": ("continuous", "continuous-b", _spread),
    "peetre-vs-continuous": ("peetre", "continuous", _dominates),
    "discrete-vs-continuous": ("continuous", "discrete", _spread),
    "local-means-vs-discrete": ("local-means", "discrete", _spread),
}


def _entry_map(cfg: HarnessConfig, corpus: tuple, fn):
    """Ordered map over the (name, GridFunction) corpus entries, optionally
    threaded."""
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(lambda nf: fn(*nf), corpus))
    return [fn(name, f) for name, f in corpus]


def _kernels(kernel: str, cfg: HarnessConfig, spec: GridSpec, scales: ScaleGrid):
    if kernel == "dyadic":
        return build_dyadic(spec, max_dyadic_level(spec))
    if kernel == "local-means":
        return build_local_means(cfg.S, cfg.eps, spec)
    return build_continuous_pair(spec, scales, profile=getattr(cfg, kernel))


def _norm_report(name: str, cfg: HarnessConfig, corpus, triples, column) -> RatioReport:
    """The experiment's two columns judged by its rule, and each triple's hypothesis data."""
    *cols, rule = NORM_EXPERIMENTS[name]
    cases = list(zip([f"{t}/{e}" for t in triples for e, _ in corpus], *map(column, cols)))
    meta = {"profiles": f"{cfg.profile_a}|{cfg.profile_b}"} if "continuous-b" in cols else {}
    if "local-means" in cols:
        meta.update(S=cfg.S, eps=cfg.eps)
    for tname, (alpha, p, q, a) in triples.items():
        if {"peetre", "local-means"} & set(cols):  # the columns that read a
            meta[f"a[{tname}]"] = a
        meta[f"clog_alpha[{tname}]"] = alpha.clog_local
        meta[f"clog_1q[{tname}]"] = q.reciprocal().clog_local
        meta[f"p_min[{tname}]"] = p.range_min
    return _judge(name, cases, lambda v: v == 0.0, rule, cfg.threshold_for(name),
                  hypothesis=meta, config=_config_snapshot(cfg))


def _config_snapshot(cfg: HarnessConfig) -> dict:
    d = asdict(cfg)
    d.pop("out", None)  # output location is not part of the experiment identity
    d["corpus_names"] = list(cfg.corpus_names) if cfg.corpus_names else None
    d["triples"] = list(cfg.triples)
    return d


# --- lemma sweeps ----------------------------------------------------------------
#
# One row of _LEMMAS per sweep: its constants on one grid, from a function
# that builds only the inputs it reads and reaches lemmas.check_* and the
# kernel builders through module globals (as a tracer needs), the rule
# that judges the cases (name, c(N), c(2N)), and the hypothesis data the
# constants read.

_M = 3.0  # eta decay order m = n + 2 (the sweeps run at n = 1)
_NOISE_BAND = 8.0


def _band_noise(spec: GridSpec, seed: int) -> GridFunction:
    """Seeded noise band-limited to |xi| < 8 with coefficients on the integer
    frequency indices, so refining N reproduces the same continuum function."""
    kmax = int(_NOISE_BAND * spec.L / math.pi)
    rng = np.random.default_rng(seed)
    coefs = rng.standard_normal(2 * kmax + 1) + 1j * rng.standard_normal(2 * kmax + 1)
    xi = math.pi * np.arange(-kmax, kmax + 1) / spec.L
    spectrum = np.zeros(spec.shape, dtype=complex)
    spectrum[spec.N // 2 - kmax:spec.N // 2 + kmax + 1] = (
        coefs * np.maximum(0.0, 1.0 - (xi / _NOISE_BAND) ** 2) ** 2)
    return GridFunction(spec, dft(spectrum, spec, inverse=True))


def _field(spec: GridSpec, base: float, amp: float, wave=np.sin) -> ExponentField:
    return ExponentField.from_callable(spec, lambda x: base + amp * wave(np.pi * x / spec.L))


def _pq(spec: GridSpec) -> tuple:
    return _field(spec, 2.0, 0.5), _field(spec, 2.0, 0.3, np.cos)


def _transfer(spec, scales, seed, profile):
    alpha = _field(spec, 0.5, 0.2)
    R = alpha.clog_local + 0.5
    return {f"t={t}": lemmas.check_transfer(alpha, t, R) for t in (1.0, 0.25, 1.0 / 16.0)}


def _transfer_violation(spec, scales, seed, profile):
    alpha = _field(spec, 0.5, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {f"t={t}": lemmas.check_transfer(alpha, t, R=0.0)
                for t in (1.0, 0.25, 1.0 / 16.0, 1.0 / 32.0)}


def _dzw(spec, scales, seed, profile):
    # |c f|^q >= c^q- |f|^q for c >= 1 and >= c^q+ |f|^q for c <= 1, so by the
    # lattice property and homogeneity of the Luxemburg norm this c clears
    # the hypothesis || |c f|^q ||_(p/q) >= 1
    f, (p, q) = _band_noise(spec, seed + 17), _pq(spec)
    n0 = lemmas.power_quotient_norm(f, p, q)
    c = n0 ** (-1.0 / (q.range_min if n0 < 1.0 else q.range_max))
    return {"noisy": 1.0 if lemmas.check_dzw(c * f, p, q) else math.inf}


def _hardy(spec, scales, seed, profile):
    sH = ScaleGrid(scales.K, max(scales.J, 12))
    return {f"s={s}": lemmas.check_hardy(sH.t, s, sH) for s in (2.0, 0.5)}


def _rtrick(spec, scales, seed, profile):
    g = make_entry(spec, "gaussian")
    return {f"N={Nd}": lemmas.check_rtrick(g, Nd, 0.5, _M) for Nd in (1.0, 2.0, 4.0)}


def _eta_conv_discrete(spec, scales, seed, profile):
    x = spec.axis()
    fam = np.exp(1j * (2.0 ** np.arange(4))[:, None] * x) * np.exp(-x**2 / 2.0)
    return {"waves": lemmas.check_eta_conv_discrete(fam, *_pq(spec), _M)}


def _eta_conv_continuous(spec, scales, seed, profile):
    fam = np.exp(1j * spec.axis() / scales.t[:, None]) * np.exp(-spec.axis() ** 2 / 2.0)
    return {"waves": lemmas.check_eta_conv_continuous(fam, *_pq(spec), _M, scales)}


def _averaged(spec, scales, seed, profile):
    fam = np.exp(1j * spec.axis() / scales.t[:, None]) * np.exp(-spec.axis() ** 2 / 2.0)
    return {"band=1/4..4": lemmas.check_averaged(fam, *_pq(spec), _M, (0.25, 4.0), scales)}


def _reproducing(spec, scales, seed, profile):
    pair = build_continuous_pair(spec, scales, profile=profile)
    return dict(zip(("low", "band"), lemmas.check_reproducing_bounds(
        _band_noise(spec, seed + 17), pair, 0.5, _M, scales)))


def _rychkov(spec, scales, seed, profile):
    g = make_entry(spec, "gaussian")
    return {f"M={M}": lemmas.check_rychkov_decay(
        build_local_means(M, 1.0, spec).k_hat, g, 2.0, ScaleGrid(4, 6)) for M in (-1, 1, 3)}


_LEMMAS = {
    "transfer": (_transfer, _stable, {}),
    "transfer-violation": (_transfer_violation, _degrades, {}),
    "dzw": (_dzw, _stable, {}),
    "hardy": (_hardy, _stable, {}),
    "rtrick": (_rtrick, _stable, {"m": _M}),
    "eta-conv-discrete": (_eta_conv_discrete, _stable, {"m": _M}),
    "eta-conv-continuous": (_eta_conv_continuous, _stable, {"m": _M}),
    "averaged": (_averaged, _stable, {"m": _M}),
    "reproducing": (_reproducing, _stable, {"m": _M}),
    "rychkov": (_rychkov, _slope, {}),
}
LEMMA_IDS = tuple(_LEMMAS)
EXPERIMENTS = tuple(NORM_EXPERIMENTS) + tuple(f"lemma:{i}" for i in LEMMA_IDS)

# rule -> the value it judges per case and the bound it applies, with the
# norm columns a and b and the report's threshold t
_RULE_TEXT = {
    _spread: ("ratio {a}/{b}", "spread max/min <= {t:g}"),
    _dominates: ("ratio {a}/{b}", "spread max/min <= {t:g} and {a} >= {b}"),
    _stable: ("ratio c(2N)/c(N)", "every ratio in [1/{t:g}, {t:g}]"),
    _slope: ("drift c(2N) - c(N)", "every |drift| <= {t:g} and slope >= M + 0.9 on both grids"),
    _degrades: ("growth c(N)/c_first(N)", "largest growth >= {t:g}"),
}


def _summary(report: RatioReport) -> list:
    """Lines naming what the report's rule judged, their range and the rule's
    bound; a spread only where the rule judges one."""
    name = report.experiment
    a, b, rule = NORM_EXPERIMENTS.get(name) or (None, None, _LEMMAS[name[len("lemma:"):]][1])
    judged, bound = (text.format(a=a, b=b, t=report.threshold) for text in _RULE_TEXT[rule])
    lines = [f"{judged} min/max: {report.ratio_min:.6g} / {report.ratio_max:.6g}"]
    if rule in (_spread, _dominates):
        lines.append(f"spread: {report.spread:.6g}")
    return lines + [f"bound: {bound}"]


def _lemma_experiment(lemma: str, cfg: HarnessConfig) -> RatioReport:
    if lemma not in _LEMMAS:
        raise ConfigError(f"unknown lemma sweep {lemma!r}; known: {', '.join(LEMMA_IDS)}")
    spec = GridSpec(cfg.n, cfg.N, cfg.lemma_L)
    if spec.n != 1:
        raise ConfigError("lemma sweeps are defined for n = 1")
    kmax = int(_NOISE_BAND * spec.L / math.pi)
    if 2 * kmax >= spec.N:
        raise ConfigError(f"the lemma noise band |xi| < {_NOISE_BAND:g} at L = {spec.L:g} "
                          f"needs N >= {2 ** (2 * kmax).bit_length()}, got N = {spec.N}")
    constants, rule, meta = _LEMMAS[lemma]
    scales = ScaleGrid(cfg.lemma_K, cfg.lemma_J)
    c1 = constants(spec, scales, cfg.seed, cfg.profile_a)
    c2 = constants(GridSpec(cfg.n, 2 * cfg.N, cfg.lemma_L), scales, cfg.seed, cfg.profile_a)
    cases = [(f"{lemma}/{case}", a, b) for (case, a), b in zip(c1.items(), c2.values())]
    return _judge(f"lemma:{lemma}", cases, math.isnan, rule,
                  cfg.threshold_for(f"lemma:{lemma}"), config=_config_snapshot(cfg),
                  hypothesis={**meta, "grid_N": cfg.N, "grid_N_refined": 2 * cfg.N})


def run_experiments(names, cfg: HarnessConfig = None):
    """Yield the RatioReport of each named experiment, in order, validating
    the config's grid and scales whatever the experiments.  The norm columns
    live for this call, each filled when first read, so an error stops the
    run after the reports before it."""
    cfg = cfg or HarnessConfig()
    spec, scales = cfg.spec(), cfg.scales()

    @functools.cache  # built on first use: the lemma sweeps read neither
    def inputs() -> tuple:
        if cfg.corpus_names is not None and len(cfg.corpus_names) == 0:
            raise ConfigError("empty corpus")
        if not cfg.triples:
            raise ConfigError("no exponent triples")
        corpus, triples = build_corpus(spec, seed=cfg.seed, names=cfg.corpus_names), {}
        for tname in cfg.triples:
            alpha, p, q = make_triple(spec, tname)
            # every column gets the Peetre exponent; only the maximal forms read it
            triples[tname] = (alpha, p, q, spec.n / p.range_min + cfg.a_offset)
        return corpus, triples

    kernels = functools.cache(lambda kernel: _kernels(kernel, cfg, spec, scales))

    @functools.cache
    def column(col: str) -> list:
        (corpus, triples), (evaluator, kernel) = inputs(), _COLUMNS[col]
        norm, values = globals()[evaluator], []
        for triple in triples.values():
            P = BesovParams(*triple, scales, kernels(kernel))
            values += _entry_map(cfg, corpus, lambda _, f: norm(f, P))
        return values

    for name in names:
        if name.startswith("lemma:"):
            yield _lemma_experiment(name.split(":", 1)[1], cfg)
        elif name in NORM_EXPERIMENTS:
            yield _norm_report(name, cfg, *inputs(), column)
        else:
            raise ConfigError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}")


def run_experiment(name: str, cfg: HarnessConfig = None) -> RatioReport:
    """Run one named experiment and return its RatioReport."""
    return next(run_experiments((name,), cfg))
