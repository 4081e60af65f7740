"""Command-line interface.

    varbesov run <experiment|all> [--config file] [--seed S] [--grid N,L]
                 [--scales K,J] [--threads T] [--threshold X] [--out DIR]
    varbesov kernels export [--config file] [--grid N,L] [--scales K,J]
                            [--out DIR]
    varbesov corpus list [--config file] [--grid N,L] [--seed S]

`run` writes report.json and report.csv into --out; `run all` runs every
experiment, each into <out>/<name with ':' -> '_'>, evaluating each norm once.

Exit codes: 0 run passed (with `all`: every run passed), 1 the
experiment's rule failed, 2 hypothesis or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .calderon import (build_continuous_pair, build_dyadic, build_local_means,
                       export_radial_table, max_dyadic_level)
from .corpus import boundary_mass, build_corpus
from .harness import (ConfigError, EXPERIMENTS, HarnessConfig, _summary, emit_report,
                      run_experiments, threshold_key)


_FLAGS = {
    "config": dict(help="INI config file"),
    "seed": dict(type=int, help="corpus RNG seed"),
    "grid": dict(help="N,L   (points per axis, half-period)"),
    "scales": dict(help="K,J   (scales per octave, octaves)"),
    "threads": dict(type=int, help="parallel corpus workers"),
    "out": dict(help="output directory"),
}


def _add_flags(p, *names):
    """Give a subcommand the config flags it reads, and no others."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _parse_pair(text, name, types):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--{name} expects two comma-separated values, got {text!r}")
    return types[0](parts[0]), types[1](parts[1])


def _config_from_args(args) -> HarnessConfig:
    flags = vars(args)  # holds only the flags of the subcommand run
    cfg = HarnessConfig.from_ini(args.config) if args.config else HarnessConfig()
    if flags.get("seed") is not None:
        cfg.seed = args.seed
    if flags.get("grid"):
        cfg.N, cfg.L = _parse_pair(args.grid, "grid", (int, float))
    if flags.get("scales"):
        cfg.K, cfg.J = _parse_pair(args.scales, "scales", (int, int))
    if flags.get("threads") is not None:
        cfg.threads = args.threads
    if flags.get("out"):
        cfg.out = args.out
    return cfg


def _emit(report, out: str) -> bool:
    written = emit_report(report, out)
    n_ok = sum(1 for e in report.entries if not e.vacuous)
    print(f"experiment: {report.experiment}")
    print(f"entries: {len(report.entries)} ({n_ok} non-vacuous)")
    print(*_summary(report), sep="\n")
    for path in written:
        print(f"wrote {path}")
    print("PASS" if report.passed else "FAIL")
    return report.passed


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    every = args.experiment == "all"
    if every and args.threshold is not None:
        raise ConfigError("--threshold sets one experiment's threshold; "
                          "it cannot be combined with 'all'")
    if args.threshold is not None:
        cfg.thresholds[threshold_key(args.experiment)] = args.threshold
    passed = []  # each report is written as it comes, so an error keeps the earlier ones
    for report in run_experiments(EXPERIMENTS if every else (args.experiment,), cfg):
        out = os.path.join(cfg.out, report.experiment.replace(":", "_")) if every else cfg.out
        passed.append(_emit(report, out))
    return 0 if all(passed) else 1


def cmd_kernels_export(args) -> int:
    cfg = _config_from_args(args)
    spec = cfg.spec()
    scales = cfg.scales()
    os.makedirs(cfg.out, exist_ok=True)
    rmax = spec.xi_max
    for profile in (cfg.profile_a, cfg.profile_b):
        pair = build_continuous_pair(spec, scales, profile=profile)
        export_radial_table(pair.phi0_hat, os.path.join(cfg.out, f"Phi_{profile}.csv"), 2.5)
        export_radial_table(pair.phi_hat, os.path.join(cfg.out, f"phi_{profile}.csv"), 2.5)
    dyad = build_dyadic(spec, max_dyadic_level(spec))
    for v in range(dyad.v_max + 1):
        export_radial_table(dyad.psi_hat(v), os.path.join(cfg.out, f"psi_{v}.csv"),
                            min(2.0 ** (v + 1) * 1.25, rmax))
    kern = build_local_means(cfg.S, cfg.eps, spec)
    export_radial_table(kern.k0_hat, os.path.join(cfg.out, "k0.csv"), 4.0 * cfg.eps)
    export_radial_table(kern.k_hat, os.path.join(cfg.out, "k.csv"), 4.0 * cfg.eps)
    print(f"wrote kernel tables to {cfg.out}")
    return 0


def cmd_corpus_list(args) -> int:
    cfg = _config_from_args(args)
    corpus = build_corpus(cfg.spec(), seed=cfg.seed, names=cfg.corpus_names)
    print(f"{'entry':<16} {'max|f|':>10} {'boundary mass':>14}")
    for name, f in corpus:
        print(f"{name:<16} {np.abs(f.values).max():>10.4f} {boundary_mass(f):>14.3e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varbesov",
        description="variable-exponent Besov norm experiments on a periodic torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and emit reports")
    p_run.add_argument("experiment",
                       help=f"one of: {', '.join(EXPERIMENTS)}; or all")
    p_run.add_argument("--threshold", type=float, help="threshold of the experiment's rule")
    _add_flags(p_run, "config", "seed", "grid", "scales", "threads", "out")
    p_run.set_defaults(fn=cmd_run, parser=p_run)

    p_k = sub.add_parser("kernels", help="kernel table utilities")
    sub_k = p_k.add_subparsers(dest="kcommand", required=True)
    p_ke = sub_k.add_parser("export", help="export radial kernel tables as CSV")
    _add_flags(p_ke, "config", "grid", "scales", "out")
    p_ke.set_defaults(fn=cmd_kernels_export, parser=p_ke)

    p_c = sub.add_parser("corpus", help="corpus utilities")
    sub_c = p_c.add_subparsers(dest="ccommand", required=True)
    p_cl = sub_c.add_parser("list", help="list corpus entries and boundary masses")
    _add_flags(p_cl, "config", "grid", "seed")
    p_cl.set_defaults(fn=cmd_corpus_list, parser=p_cl)

    # a flag the subcommand does not take is reported with its own usage line
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except ValueError as exc:  # includes ConfigError and HypothesisError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
