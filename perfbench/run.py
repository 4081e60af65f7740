"""varbesov benchmark: time to a checked report, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed S --seconds T --trace 0|1

Run from the root of a source checkout (the package is imported from its
`src/`).  Each pass runs `worker.py` with BLAS and OpenMP pinned to one
thread: set-up in one fresh process, then the run in another, so
module-level caches never carry over from set-up to the run or between
passes, and set-up time and peak memory stay cold.  Passes repeat
until about T seconds per workload are used (at least MIN_PASSES); with
`all`, passes go round the workloads in an order that rotates every
round.  Each experiment's report is checked against the committed
reference outputs.

--trace 0 reports the end-to-end metrics: medians over passes of set-up
time, run time and peak RSS, plus evaluations per second of the median
run time.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics (medians over the traced passes) and the tracing
overhead.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "evals/s",
    "peak_rss_mb": "MB",
}
MIN_PASSES = 3          # per workload and, with --trace 1, per kind of pass
PASS_TIMEOUT_S = 150.0  # a pass that hangs is killed and counted as failed
HARD_LIMIT_S = 165.0    # no new round starts past this (single workload)
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine_record() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": f"{np.fft.fftn.__module__} (pocketfft)"
        if np.fft.fftn.__module__.startswith("numpy.fft") else np.fft.fftn.__module__,
        "byte_counts": "computed from array sizes, not measured",
    }


def _worker(phase: str, workload: str, seed: int, trace: bool, out: Path) -> dict:
    """One phase of a pass in a fresh process; raises RuntimeError with the
    reason when it crashes or times out."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--phase", phase, "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{phase} phase timed out after {PASS_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} phase exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, trace: bool, tag: str) -> dict:
    """One pass: an untraced pass times set-up in one fresh process and the
    run in another, so nothing set-up builds is cached for the run; a
    traced pass has only the run.  A crash or timeout counts every
    experiment of the workload as failed."""
    out = OUT_DIR / tag
    try:
        result = {} if trace else _worker("setup", workload, seed, False, out)
        result.update(_worker("run", workload, seed, trace, out))
        return result
    except RuntimeError as exc:
        why = str(exc)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(f"{workload}: {why}", file=sys.stderr)
    return {"experiments": [{"name": e, "problems": [why]}
                            for e in WORKLOADS[workload].experiments]}


def schedule(names, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds of passes until the time budget is used; returns
    workload -> list of (traced, pass result)."""
    results = {n: [] for n in names}
    budget = seconds * len(names)
    min_rounds = 2 * MIN_PASSES if trace else MIN_PASSES
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        traced = trace and rounds % 2 == 1
        k = rounds % len(names)
        for name in names[k:] + names[:k]:
            tag = f"{os.getpid()}-{name}-{rounds}"
            results[name].append((traced, run_pass(name, seed, traced, tag)))
        rounds += 1
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t0
        if rounds >= min_rounds and (elapsed + last > budget
                                     or (len(names) == 1 and elapsed + last > HARD_LIMIT_S)):
            return results


def summarise(passes) -> dict:
    """attempted / failed counts and the metrics of one workload's passes."""
    attempted = sum(len(r["experiments"]) for _, r in passes)
    failed = sum(1 for _, r in passes for e in r["experiments"] if e["problems"])
    ok = [(traced, r) for traced, r in passes if "run_s" in r]
    plain = [r for traced, r in ok if not traced]
    traced = [r for t, r in ok if t]
    summary = {"attempted": attempted, "failed": failed, "passes": len(plain),
               "traced_passes": len(traced), "metrics": {},
               "referenced": bool(ok) and all(r["referenced"] for _, r in ok)}
    if not plain:
        return summary
    run_s = statistics.median(r["run_s"] for r in plain)
    summary["metrics"] = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "run_s": run_s,
        "evals_per_s": statistics.median(r["evals"] for r in plain) / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        layers["trace.overhead_frac"] = (traced_run_s - run_s) / run_s
        summary["layers"] = layers
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="varbesov benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "varbesov" / "__init__.py").is_file():
        print(f"no varbesov sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = schedule(names, args.seed, args.seconds, bool(args.trace))
    try:
        OUT_DIR.rmdir()  # each pass removed its own reports
    except OSError:
        pass

    print("machine " + json.dumps(machine_record()))
    attempted = failed = 0
    metrics = {}
    for name in names:
        s = summarise(results[name])
        attempted += s["attempted"]
        failed += s["failed"]
        passes = s["passes"] + s["traced_passes"]
        checked = ("committed reference outputs" if s["referenced"]
                   else "the harness's own gates (no reference for this seed)")
        print(f"workload {name} seed {args.seed}: {passes} passes "
              f"({s['traced_passes']} traced), {s['failed']} of {s['attempted']} "
              f"experiments failed against {checked}; {WORKLOADS[name].why}")
        if not s["metrics"] or (args.trace and "layers" not in s):
            print(f"{name}: no pass completed", file=sys.stderr)
            return 1
        shown = [(s["metrics"], END_TO_END_UNITS)]
        if args.trace:
            shown.append((s["layers"], PER_LAYER_UNITS))
        for values, units in shown:
            for key, unit in units.items():
                print(f"  {key:<42} {values[key]:.6g} {unit}")
        print(f"  {'failed_frac':<42} {s['failed'] / s['attempted']:.6g} frac")
        values, units = shown[-1]
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: {"value": values[k], "unit": u} for k, u in units.items()})

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
