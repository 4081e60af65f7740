"""Span tracing around the public functions of each varbesov layer.

`install` rebinds, in the namespace of every layer module, each public
function of a layer module to a wrapper that records a span (name, start,
end, parent, run id).  Nothing under `src/` changes; the rebinding lives
only in the traced benchmark process.  `layer_metrics` turns the spans of
one pass into the per-layer numbers.

A layer's self time is the duration of its spans minus the part of each
span that its direct child spans cover.  Byte counts are computed from
array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field

LAYERS = ("grid", "calderon", "exponent", "corpus", "modular_norms", "besov",
          "lemmas", "harness")

# per-sample helpers called in tight loops inside other public functions;
# a span there would cost more than the work it times
UNTRACED = {"grid.eta_pointwise"}

BUILDERS = {"calderon.build_continuous_pair", "calderon.build_mu_eta_pair",
            "calderon.build_dyadic", "calderon.build_local_means"}
BESOV_KINDS = ("continuous", "discrete", "peetre", "local_means")
SOLVE_KINDS = ("luxemburg_constp", "luxemburg_varp", "mixed_constq", "mixed_varq")
PROFILE = "calderon.RadialProfile.__call__"

# per-layer metric name -> unit; the traced run prints exactly these
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"besov.{k}_ms_{p}": "ms" for k in BESOV_KINDS for p in ("p50", "p90")},
    **{f"modular_norms.{k}_ms_p50": "ms" for k in SOLVE_KINDS},
    "modular_norms.power_quotient_s": "s",
    "grid.fft_s": "s",
    "grid.fft_calls": "count",
    "grid.fft_bytes_computed": "bytes",
    "grid.eta_s": "s",
    "grid.eta_calls": "count",
    "calderon.build_s": "s",
    "calderon.build_calls": "count",
    "calderon.profile_s": "s",
    "calderon.profile_calls": "count",
    "calderon.profile_points": "count",
    "exponent.clog_s": "s",
    "exponent.clog_calls": "count",
    "corpus.build_s": "s",
    "harness.report_s": "s",
    "trace.coverage_frac": "frac",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None  # index into the span list
    run_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the union of its direct children,
    each child clipped to the parent's interval."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in kids if c.end > s.start and c.start < s.end)
        out.append(s.duration - covered)
    return out


# --- recording ------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _fft_attrs(args, kwargs, result):
    return {"bytes": int(args[0].values.nbytes + result.values.nbytes)}


def _exponent_label(kind, index, name):
    def attrs(args, kwargs, result):
        const = _arg(args, kwargs, index, name).is_constant
        return {"label": f"{kind}_const{name}" if const else f"{kind}_var{name}"}
    return attrs


ATTRS = {
    "grid.fourier": _fft_attrs,
    "grid.inverse_fourier": _fft_attrs,
    "modular_norms.luxemburg_norm": _exponent_label("luxemburg", 1, "p"),
    "modular_norms.mixed_norm_discrete": _exponent_label("mixed", 2, "q"),
    "modular_norms.mixed_norm_continuous": _exponent_label("mixed", 2, "q"),
}


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._in_profile = False

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else None,
                        run_id=self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def wrap_profile(self, call):
        """RadialProfile.__call__, recorded only where it is outermost:
        profiles built from other profiles count once, at the top."""
        inner = self.wrap(PROFILE, call,
                          lambda args, kwargs, result: {"points": int(result.size)})

        @functools.wraps(call)
        def traced(profile, r):
            if self._in_profile:
                return call(profile, r)
            self._in_profile = True
            try:
                return inner(profile, r)
            finally:
                self._in_profile = False

        return traced


def install(tracer: Tracer):
    """Route every public layer function through `tracer`, in the layer
    modules' own namespaces (the layers call each other only through
    those).  For use in a throwaway process only: the rebinding is never
    undone."""
    mods = {layer: importlib.import_module(f"varbesov.{layer}") for layer in LAYERS}
    swaps = {}
    for layer, mod in mods.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                    and name not in UNTRACED:
                swaps[id(fn)] = (fn, tracer.wrap(name, fn, ATTRS.get(name)))
    for ns in mods.values():
        for attr, value in list(vars(ns).items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
    profile_cls = mods["calderon"].RadialProfile
    profile_cls.__call__ = tracer.wrap_profile(profile_cls.__call__)


# --- per-layer metrics ------------------------------------------------------------


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_metrics(spans, run_start: float, run_s: float) -> dict:
    """Per-layer numbers of one traced pass whose timed region starts at
    `run_start` and lasts `run_s`.  Time totals of a span group are the
    union of its intervals, so nested spans of one group count once."""
    selfs = self_times(spans)

    def group(pred):
        return [s for s in spans if pred(s.name)]

    def covered(pred):
        return union_length((s.start, s.end) for s in group(pred))

    def ms(pred):
        return [1e3 * s.duration for s in group(pred)]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)
        m[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
    for kind in BESOV_KINDS:
        d = ms(lambda n, k=kind: n == f"besov.besov_{k}")
        m[f"besov.{kind}_ms_p50"] = _percentile(d, 50)
        m[f"besov.{kind}_ms_p90"] = _percentile(d, 90)
    for kind in SOLVE_KINDS:
        d = [1e3 * s.duration for s in spans if s.attrs.get("label") == kind]
        m[f"modular_norms.{kind}_ms_p50"] = _percentile(d, 50)
    m["modular_norms.power_quotient_s"] = covered(
        lambda n: n == "modular_norms.power_quotient_norm")
    is_fft = lambda n: n in ("grid.fourier", "grid.inverse_fourier")  # noqa: E731
    m["grid.fft_s"] = covered(is_fft)
    m["grid.fft_calls"] = len(group(is_fft))
    m["grid.fft_bytes_computed"] = sum(s.attrs["bytes"] for s in group(is_fft))
    m["grid.eta_s"] = covered(lambda n: n == "grid.eta_periodized")
    m["grid.eta_calls"] = len(group(lambda n: n == "grid.eta_periodized"))
    m["calderon.build_s"] = covered(lambda n: n in BUILDERS)
    m["calderon.build_calls"] = len(group(lambda n: n in BUILDERS))
    m["calderon.profile_s"] = covered(lambda n: n == PROFILE)
    m["calderon.profile_calls"] = len(group(lambda n: n == PROFILE))
    m["calderon.profile_points"] = sum(s.attrs["points"] for s in group(lambda n: n == PROFILE))
    m["exponent.clog_s"] = covered(lambda n: n == "exponent.estimate_clog")
    m["exponent.clog_calls"] = len(group(lambda n: n == "exponent.estimate_clog"))
    m["corpus.build_s"] = covered(lambda n: n == "corpus.build_corpus")
    m["harness.report_s"] = covered(lambda n: n == "harness.emit_report")
    roots = [(max(s.start, run_start), min(s.end, run_start + run_s))
             for s in spans if s.parent is None]
    m["trace.coverage_frac"] = union_length(roots) / run_s if run_s > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m
