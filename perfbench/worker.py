"""One phase of a measured pass of a workload, run by `run.py` in a
fresh process.

    python3 perfbench/worker.py --phase setup --workload NAME --seed S
    python3 perfbench/worker.py --phase run --workload NAME --seed S --trace 0|1 --out DIR

`setup` times importing varbesov and building the workload's kernels,
corpus and exponent triples.  `run` imports varbesov untimed and then
times every experiment of the workload through `harness.run_experiment`
and `harness.emit_report`, as `varbesov run` does.  The two phases run in
separate processes, so nothing built for set-up is cached for the run.
Outside the timed region the run phase checks the written report.json
files against the reference outputs.  Prints one JSON line with the
phase's numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def build_inputs(workload, cfg):
    """The kernels, corpus and exponent triples the workload's
    experiments use, built as the harness builds them."""
    from varbesov import calderon, corpus
    from varbesov.grid import GridSpec, ScaleGrid
    built = []
    if workload.name == "lemmas":
        # each sweep builds its inputs on the lemma grid and its refinement
        scales = ScaleGrid(cfg.lemma_K, cfg.lemma_J)
        for N in (cfg.N, 2 * cfg.N):
            spec = GridSpec(cfg.n, N, cfg.lemma_L)
            built.append(calderon.build_continuous_pair(spec, scales, profile=cfg.profile_a))
            built.extend(calderon.build_local_means(M, 1.0, spec) for M in (-1, 1, 3))
        return built
    spec, scales = cfg.spec(), cfg.scales()
    built.append(corpus.build_corpus(spec, seed=cfg.seed, names=cfg.corpus_names))
    built.extend(corpus.make_triple(spec, t) for t in cfg.triples)
    exps = set(workload.experiments)
    if exps & {"independence", "discrete-vs-continuous", "peetre-vs-continuous"}:
        built.append(calderon.build_continuous_pair(spec, scales, profile=cfg.profile_a))
    if "independence" in exps:
        built.append(calderon.build_continuous_pair(spec, scales, profile=cfg.profile_b))
    if exps & {"discrete-vs-continuous", "local-means-vs-discrete"}:
        built.append(calderon.build_dyadic(spec, calderon.max_dyadic_level(spec)))
    if "local-means-vs-discrete" in exps:
        built.append(calderon.build_local_means(cfg.S, cfg.eps, spec))
    return built


def setup_phase(workload, seed: int) -> dict:
    build_inputs(workload, workload.harness_config(seed))
    return {"setup_s": time.perf_counter() - T_START}


def run_phase(workload, seed: int, trace: bool, out: Path) -> dict:
    from varbesov import harness
    cfg = workload.harness_config(seed)
    tracer = None
    if trace:
        tracer = spans.Tracer(f"{workload.name}/seed{seed}/{out.name}")
        spans.install(tracer)
    written, errors = {}, {}
    run_start = time.perf_counter()
    for i, name in enumerate(workload.experiments):
        try:
            report = harness.run_experiment(name, cfg)
            harness.emit_report(report, out / f"{i:02d}")
            written[name] = out / f"{i:02d}" / "report.json"
        except Exception:  # one failed experiment must not stop the pass
            errors[name] = traceback.format_exc()
    run_s = time.perf_counter() - run_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = reference.load(workload.name).get(str(seed), {})
    experiments, evals = [], 0
    for name in workload.experiments:
        if name in errors:
            problems = [errors[name].strip().splitlines()[-1]]
            print(errors[name], file=sys.stderr)
        else:
            report = json.loads(written[name].read_text())
            evals += 2 * len(report["entries"])
            problems = reference.check(report, expected.get(name) if expected else None)
        experiments.append({"name": name, "problems": problems})

    result = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "evals": evals,
        "referenced": bool(expected),
        "experiments": experiments,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, run_start, run_s)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phase", required=True, choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for the reports (run phase)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import varbesov
    src = (ROOT / "src").resolve()
    if src not in Path(varbesov.__file__).resolve().parents:
        print(f"varbesov imported from {varbesov.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.phase == "setup":
        result = setup_phase(workload, args.seed)
    elif args.out is None:
        ap.error("--phase run needs --out")
    else:
        result = run_phase(workload, args.seed, bool(args.trace), Path(args.out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
