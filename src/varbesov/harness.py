"""Experiment orchestration: one table of experiments, one runner, reports.

Each experiment is a row of `EXPERIMENTS`: (axis, quantity, rule,
hypothesis data, supported n).  The runner evaluates the quantity at each
point of the axis into cases (name, a, b) for the rule, the only source of
the report's `passed`.  On the `entries` axis the quantity is two norm
columns, each one evaluator on one kernel over every (triple, corpus
entry) and built once per config state; on the `N` axis it is a
lemma sweep's constants on the lemma grid N and on 2N.  The inequalities
never quantify their constants, so thresholds are configuration data.

Reports serialise to strict JSON (a non-finite float as the string "nan",
"inf" or "-inf") and CSV, with no timestamps, so identical config + seed
reproduces byte-identical files.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
import warnings
from collections import namedtuple
from dataclasses import InitVar, asdict, dataclass, field

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
    "run": {"seed": ("seed", int), "out": ("out", str)},
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
    config file, and grid, scales, seed and out from a CLI flag (flags win).
    A config keeps what its runs build (`_kept`: the corpus and triples, the
    kernels, the norm columns), so running its experiments one call at a
    time builds each once, as one `run_experiments` call does."""

    n: int = 1
    N: int = 1024
    L: float = 16.0
    K: int = 8
    J: int = 5
    seed: int = 0
    threads: InitVar[int] = 1  # 1 only: each norm column is one ordered loop
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

    def __post_init__(self, threads):
        if threads != 1:
            raise ConfigError(f"threads must be 1, got {threads!r}")

    def spec(self) -> GridSpec:
        return GridSpec(self.n, self.N, self.L)

    def scales(self) -> ScaleGrid:
        return ScaleGrid(self.K, self.J)

    def threshold_for(self, experiment: str) -> float:
        """The bound of the experiment's rule: fixed, or the threshold under its key."""
        key = threshold_key(experiment)
        if key is None:
            return _RULES[EXPERIMENTS[experiment].rule][2]
        return float(self.thresholds.get(key, _THRESHOLDS[key]))

    def _kept(self, build, *key):
        """build(self, *key), built on first read and kept in `_memo` until a
        field changes; a build that raises keeps nothing."""
        now, kept = asdict(self), (build, *key)
        if getattr(self, "_fields", None) != now:
            self._fields, self._memo = now, {}
        if kept not in self._memo:
            self._memo[kept] = build(self, *key)
        return self._memo[kept]

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
        return _max_over_min(self.ratios)

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
    paths = [os.path.join(out_dir, name) for name in ("report.json", "report.csv")]
    for path, text in zip(paths, (report.to_json(), report.to_csv())):
        with open(path, "w") as fh:
            fh.write(text)
    return paths


def _max_over_min(values) -> float:
    """max/min of `values`: inf when the smallest is 0, NaN for none or a NaN."""
    lo, hi = (float(np.min(values)), float(np.max(values))) if values else (math.nan,) * 2
    return hi / lo if lo != 0 else math.inf


def _spread(cases, bound: float) -> tuple:
    """Ratios a/b, passing when max/min is at most the bound."""
    ratios = [a / b if b != 0 else math.inf for _, a, b in cases]
    return ratios, _max_over_min(ratios) <= bound


def _dominates(cases, bound: float) -> tuple:
    """_spread, and the maximal form a dominates: a >= b (1 - 1e-12) in every case."""
    ratios, ok = _spread(cases, bound)
    return ratios, ok and all(a >= b * (1.0 - 1e-12) for _, a, b in cases)


def _stable(cases, bound: float) -> tuple:
    """Every c(2N)/c(N) of positive constants in [1/bound, bound]."""
    ratios = [b / a if a != 0 else math.nan for _, a, b in cases]
    return ratios, all(a > 0 and b > 0 and r * bound >= 1.0 and r <= bound
                       for (_, a, b), r in zip(cases, ratios))


def _slope(cases, bound: float) -> tuple:
    """Decay slopes drifting by at most the bound, case M=<M> >= M + 0.9 on both grids."""
    drifts = [b - a for _, a, b in cases]
    return drifts, all(min(a, b) >= int(name.split("M=")[-1]) + 0.9 and abs(d) <= bound
                       for (name, a, b), d in zip(cases, drifts))


def _degrades(cases, bound: float) -> tuple:
    """Growth c(N)/c_first(N) of positive constants, the largest at least the bound."""
    ok = bool(cases) and all(0 < c < math.inf for case in cases for c in case[1:])
    growth = [a / cases[0][1] if ok else math.nan for _, a, _ in cases]
    return growth, ok and max(growth) >= bound


# rule -> the value it judges per case and the bound it applies, with a norm
# row's columns q and the bound t, and its fixed bound (None: a threshold's)
_RULES = {
    _spread: ("ratio {q[0]}/{q[1]}", "spread max/min <= {t:g}", None),
    _dominates: ("ratio {q[0]}/{q[1]}", "spread max/min <= {t:g} and {q[0]} >= {q[1]}", None),
    _stable: ("ratio c(2N)/c(N)", "every ratio in [1/{t:g}, {t:g}]", None),
    _slope: ("drift c(2N) - c(N)", "every |drift| <= {t:g} and slope >= M + 0.9 on both grids",
             0.1),
    _degrades: ("growth c(N)/c_first(N)", "largest growth >= {t:g}", 3.0),
}


def _judge(experiment: str, cases, blank, rule, bound: float, **fields) -> RatioReport:
    """The report of `cases` (name, a, b), vacuous where both values are `blank`.  `rule`
    maps the judged cases and the bound to the value judged in each and the verdict."""
    vacuous = [blank(a) and blank(b) for _, a, b in cases]
    values, passed = rule([c for c, v in zip(cases, vacuous) if not v], bound)
    values = iter(values)
    entries = [EntryResult(name, a, b, math.nan if vac else next(values), vac)
               for (name, a, b), vac in zip(cases, vacuous)]
    return RatioReport(experiment, entries, bound, bool(passed) and not all(vacuous), **fields)


# --- the entries axis: two norm columns over triples x corpus entries ----------------


def _inputs(cfg: HarnessConfig) -> tuple:
    """The corpus, and by triple name its (alpha, p, q, a) and the c_log of 1/q."""
    if cfg.corpus_names is not None and len(cfg.corpus_names) == 0:
        raise ConfigError("empty corpus")
    if not cfg.triples:
        raise ConfigError("no exponent triples")
    spec, triples = cfg.spec(), {}
    for tname in cfg.triples:
        alpha, p, q = make_triple(spec, tname)
        # every column gets the Peetre exponent; only the maximal forms read it
        a = spec.n / p.range_min + cfg.a_offset
        triples[tname] = (alpha, p, q, a), q.reciprocal().clog_local
    return build_corpus(spec, seed=cfg.seed, names=cfg.corpus_names), triples


def _kernel(cfg: HarnessConfig, kernel: str):
    spec = cfg.spec()
    if kernel == "dyadic":
        return build_dyadic(spec, max_dyadic_level(spec))
    if kernel == "local-means":
        return build_local_means(cfg.S, cfg.eps, spec)
    return build_continuous_pair(spec, cfg.scales(), profile=getattr(cfg, kernel))


def _column(cfg: HarnessConfig, col: str, norm) -> tuple:
    """The column's norms by its evaluator `norm` over every (triple, corpus
    entry), in that order.  Kept under the evaluator object, a rebound
    evaluator name misses; another rebound name needs a new config."""
    (corpus, triples), kernel = cfg._kept(_inputs), cfg._kept(_kernel, _COLUMNS[col][1])
    params = [BesovParams(*triple, cfg.scales(), kernel) for triple, _ in triples.values()]
    return tuple(norm(f, P) for P in params for _, f in corpus)


def _entries(name: str, row, cfg: HarnessConfig) -> tuple:
    """The row's columns a and b at every (triple, corpus entry), vacuous where
    both norms are 0, and each triple's hypothesis data."""
    (corpus, triples), cols = cfg._kept(_inputs), row.quantity
    norms = [cfg._kept(_column, col, globals()[_COLUMNS[col][0]]) for col in cols]
    cases = list(zip([f"{t}/{e}" for t in triples for e, _ in corpus], *norms))
    meta = {"profiles": f"{cfg.profile_a}|{cfg.profile_b}"} if "continuous-b" in cols else {}
    if "local-means" in cols:
        meta.update(S=cfg.S, eps=cfg.eps)
    for tname, ((alpha, p, q, a), clog_1q) in triples.items():
        if {"peetre", "local-means"} & set(cols):  # the columns that read a
            meta[f"a[{tname}]"] = a
        meta[f"clog_alpha[{tname}]"] = alpha.clog_local
        meta[f"clog_1q[{tname}]"] = clog_1q
        meta[f"p_min[{tname}]"] = p.range_min
    return cases, lambda v: v == 0.0, meta


# --- the N axis: a lemma sweep's constants on the lemma grid N and on 2N -------------
#
# A sweep's quantity gives its constants on one grid (spec, scales, seed, profile),
# building only what it reads and reaching lemmas.check_* and the kernel builders
# through module globals, as a tracer that rebinds the module's names needs.

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
    return {f"M={M}": lemmas.check_rychkov_decay(build_local_means(M, 1.0, spec).k_hat, g)
            for M in (-1, 1, 3)}


def _refined(name: str, row, cfg: HarnessConfig) -> tuple:
    """The row's constants on the lemma grid N (a) and on 2N (b), vacuous where
    both are NaN; the grid must hold the noise band."""
    spec = GridSpec(cfg.n, cfg.N, cfg.lemma_L)
    kmax = int(_NOISE_BAND * spec.L / math.pi)
    if 2 * kmax >= spec.N:
        raise ConfigError(f"the lemma noise band |xi| < {_NOISE_BAND:g} at L = {spec.L:g} "
                          f"needs N >= {2 ** (2 * kmax).bit_length()}, got N = {spec.N}")
    scales = ScaleGrid(cfg.lemma_K, cfg.lemma_J)
    c1 = row.quantity(spec, scales, cfg.seed, cfg.profile_a)
    c2 = row.quantity(GridSpec(cfg.n, 2 * cfg.N, cfg.lemma_L), scales, cfg.seed, cfg.profile_a)
    cases = [(f"{name.removeprefix('lemma:')}/{case}", a, b)
             for (case, a), b in zip(c1.items(), c2.values())]
    return cases, math.isnan, {"grid_N": cfg.N, "grid_N_refined": 2 * cfg.N}


# axis -> (its cases, blank test and hypothesis data for a row, the thresholds
# key its rows share (None: each its own name), what its rows are called)
_AXES = {"entries": (_entries, None, "norm experiments"),
         "N": (_refined, "lemma", "lemma sweeps")}

_Row = namedtuple("_Row", "axis quantity rule hypothesis n", defaults=({}, (1, 2)))
EXPERIMENTS = {
    "independence": _Row("entries", ("continuous", "continuous-b"), _spread),
    "peetre-vs-continuous": _Row("entries", ("peetre", "continuous"), _dominates),
    "discrete-vs-continuous": _Row("entries", ("continuous", "discrete"), _spread),
    "local-means-vs-discrete": _Row("entries", ("local-means", "discrete"), _spread),
    "lemma:transfer": _Row("N", _transfer, _stable, n=(1,)),
    "lemma:transfer-violation": _Row("N", _transfer_violation, _degrades, n=(1,)),
    "lemma:dzw": _Row("N", _dzw, _stable, n=(1,)),
    "lemma:hardy": _Row("N", _hardy, _stable, n=(1,)),
    "lemma:rtrick": _Row("N", _rtrick, _stable, {"m": _M}, (1,)),
    "lemma:eta-conv-discrete": _Row("N", _eta_conv_discrete, _stable, {"m": _M}, (1,)),
    "lemma:eta-conv-continuous": _Row("N", _eta_conv_continuous, _stable, {"m": _M}, (1,)),
    "lemma:averaged": _Row("N", _averaged, _stable, {"m": _M}, (1,)),
    "lemma:reproducing": _Row("N", _reproducing, _stable, {"m": _M}, (1,)),
    "lemma:rychkov": _Row("N", _rychkov, _slope, n=(1,)),
}


def _row(experiment: str) -> _Row:
    if experiment not in EXPERIMENTS:
        kind = "lemma sweep" if experiment.startswith("lemma:") else "experiment"
        raise ConfigError(f"unknown {kind} {experiment!r}; known: {', '.join(EXPERIMENTS)}")
    return EXPERIMENTS[experiment]


def threshold_key(experiment: str):
    """The thresholds key the experiment's rule reads (its axis's shared key or
    its own name), or None where the rule's bound is fixed."""
    row = _row(experiment)
    return None if _RULES[row.rule][2] is not None else _AXES[row.axis][1] or experiment


def _config_snapshot(cfg: HarnessConfig, experiment: str) -> dict:
    d = asdict(cfg)
    d.pop("out", None)  # output location is not part of the experiment identity
    d["corpus_names"] = list(cfg.corpus_names) if cfg.corpus_names else None
    d["triples"] = list(cfg.triples)
    if threshold_key(experiment) is None:  # no threshold may read as applied to a fixed bound
        d["thresholds"].pop(_AXES[EXPERIMENTS[experiment].axis][1] or experiment, None)
    return d


def _summary(report: RatioReport) -> list:
    """Lines naming what the report's rule judged, their range and the rule's
    bound; a spread only where the rule judges one."""
    row = EXPERIMENTS[report.experiment]
    judged, bound = (text.format(q=row.quantity, t=report.threshold)
                     for text in _RULES[row.rule][:2])
    lines = [f"{judged} min/max: {report.ratio_min:.6g} / {report.ratio_max:.6g}"]
    if row.rule in (_spread, _dominates):
        lines.append(f"spread: {report.spread:.6g}")
    return lines + [f"bound: {bound}"]


def run_experiments(names, cfg: HarnessConfig = None):
    """Yield the RatioReport of each named experiment, in order: its row's
    quantity at every point of the row's axis, judged by the row's rule, all
    on the config as it is when the report is taken.  The config's grid and
    scales are validated whatever the experiments.  What a norm row reads is
    built on first read and kept in the config's memo for its later runs."""
    cfg = cfg or HarnessConfig()
    cfg.spec(), cfg.scales()
    for name in names:
        row = _row(name)
        points, _, rows = _AXES[row.axis]
        if cfg.n not in row.n:
            raise ConfigError(f"{rows} are defined for n = {' or '.join(map(str, row.n))}")
        cases, blank, meta = points(name, row, cfg)
        yield _judge(name, cases, blank, row.rule, cfg.threshold_for(name),
                     hypothesis={**row.hypothesis, **meta}, config=_config_snapshot(cfg, name))


def run_experiment(name: str, cfg: HarnessConfig = None) -> RatioReport:
    """Run one named experiment and return its RatioReport."""
    return next(run_experiments((name,), cfg))
