"""Write the golden norms that `tests/test_golden.py` compares against.

One file per experiment, `<name with ':' -> '_'>.json`, holding the
per-entry `norm_a` and `norm_b` and the report's `passed` at the default
`HarnessConfig` (seed 0).  Run it only on purpose, when a change moves
the numbers, and say in CHANGES.md why they moved:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
from pathlib import Path

from varbesov.harness import EXPERIMENTS, HarnessConfig, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name.replace(':', '_')}.json"


def golden_record(name: str) -> dict:
    """The pinned numbers of one experiment at the default config."""
    report = run_experiment(name, HarnessConfig())
    return {
        "experiment": name,
        "passed": report.passed,
        "entries": [{"name": e.name, "norm_a": e.norm_a, "norm_b": e.norm_b}
                    for e in report.entries],
    }


def main():
    for name in EXPERIMENTS:
        path = golden_path(name)
        path.write_text(json.dumps(golden_record(name), indent=2, allow_nan=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
