"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _nested():
    # root [0, 10] with two overlapping children, one child running past
    # the root's end, and a grandchild
    return [
        Span("harness.run_experiment", 0.0, 10.0),
        Span("besov.besov_continuous", 1.0, 3.0, parent=0),
        Span("grid.fourier", 1.5, 2.0, parent=1, attrs={"bytes": 100}),
        Span("besov.besov_discrete", 2.0, 5.0, parent=0),
        Span("modular_norms.luxemburg_norm", 8.0, 12.0, parent=0,
             attrs={"label": "luxemburg_varp"}),
    ]


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_time_subtracts_union_of_direct_children():
    st = spans.self_times(_nested())
    # root: 10 minus the union of [1, 5] and [8, 10] (clipped)
    assert st == pytest.approx([4.0, 1.5, 0.5, 3.0, 4.0])


def test_layer_metrics_on_synthetic_spans():
    m = spans.layer_metrics(_nested(), run_start=0.0, run_s=10.0)
    assert m["harness.self_s"] == pytest.approx(4.0)
    assert m["besov.self_s"] == pytest.approx(4.5)
    assert m["grid.self_s"] == pytest.approx(0.5)
    assert m["besov.calls"] == 2
    assert m["grid.fft_calls"] == 1 and m["grid.fft_bytes_computed"] == 100
    assert m["modular_norms.luxemburg_varp_ms_p50"] == pytest.approx(4000.0)
    assert m["modular_norms.luxemburg_constp_ms_p50"] == 0.0
    assert m["trace.coverage_frac"] == pytest.approx(1.0)


def test_tracer_records_parents():
    tracer = spans.Tracer("t")
    leaf = tracer.wrap("grid.leaf", lambda x: x + 1)
    outer = tracer.wrap("besov.outer", lambda x: leaf(leaf(x)))
    assert outer(1) == 3
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("besov.outer", None), ("grid.leaf", 0), ("grid.leaf", 0)]
    assert all(s.end >= s.start and s.run_id == "t" for s in tracer.spans)


def test_install_traces_the_real_layers():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import spans\n"
        "from varbesov import harness\n"
        "t = spans.Tracer('x'); spans.install(t)\n"
        "harness.run_experiment('discrete-vs-continuous', harness.HarnessConfig("
        "N=128, L=8.0, K=2, J=2,"
        " corpus_names=('gaussian',), triples=('constant',)))\n"
        "print(' '.join(sorted({s.name for s in t.spans})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    names = set(out.stdout.split())
    assert {"harness.run_experiment", "besov.besov_continuous", "besov.besov_discrete",
            "grid.fourier", "calderon.build_continuous_pair", "corpus.build_corpus",
            "modular_norms.mixed_norm_continuous", spans.PROFILE} <= names


def _report_from(snap):
    return {"passed": snap["passed"],
            "entries": [{"name": n, "norm_a": a, "norm_b": b} for n, a, b in snap["entries"]]}


def test_perturbed_reference_value_raises_failed_frac():
    expected = reference.load("lemmas")["0"]
    reports = {e: _report_from(s) for e, s in expected.items()}
    clean = [{"name": e, "problems": reference.check(r, expected[e])}
             for e, r in reports.items()]
    assert not any(x["problems"] for x in clean)

    victim = next(iter(reports))
    entry = next(e for e in reports[victim]["entries"]
                 if math.isfinite(e["norm_a"]) and e["norm_a"] != 0.0)
    entry["norm_a"] *= 1.0 + 1e-9  # inside the tolerance
    assert reference.check(reports[victim], expected[victim]) == []
    entry["norm_a"] *= 1.0 + 1e-4  # outside it
    perturbed = [{"name": e, "problems": reference.check(r, expected[e])}
                 for e, r in reports.items()]
    assert sum(bool(x["problems"]) for x in perturbed) == 1

    def passes(experiments):
        return [(False, {"setup_s": 1.0, "run_s": 2.0, "peak_rss_mb": 3.0, "evals": 4,
                         "referenced": True, "experiments": experiments})]
    assert run.summarise(passes(clean))["failed"] == 0
    s = run.summarise(passes(perturbed))
    assert s["failed"] / s["attempted"] == pytest.approx(1 / len(expected))


def test_report_that_fails_its_own_gates_fails_without_reference():
    assert reference.check({"passed": True, "entries": []}) == []
    assert reference.check({"passed": False, "entries": []}) != []


def test_failed_report_fails_even_when_the_reference_failed_too():
    expected = {"passed": False, "entries": [["gaussian", 1.0, 2.0]]}
    assert reference.check(_report_from(expected), expected) != []
    assert reference.check(_report_from(dict(expected, passed=True)), expected) != []


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS
    summary = run.summarise([(False, {"setup_s": 1.0, "run_s": 2.0, "peak_rss_mb": 3.0,
                                      "evals": 4, "referenced": True, "experiments": []})])
    assert set(summary["metrics"]) == set(run.END_TO_END_UNITS)
    layers = spans.layer_metrics(_nested(), 0.0, 10.0)
    assert set(layers) | {"trace.overhead_frac"} == set(spans.PER_LAYER_UNITS)


def test_every_workload_has_a_reference():
    for name in WORKLOADS:
        seeds = reference.load(name)
        assert "0" in seeds
        assert set(seeds["0"]) == set(WORKLOADS[name].experiments)
