"""Reference outputs and the check of a report against them.

`reference/<workload>.json` holds, per workload seed and experiment, the
per-entry `norm_a` / `norm_b` values and the `passed` flag that the
harness produced at the commit recorded in the file.  A report is
correct when it has `passed` (the harness's own gate, which includes
`checks_ok`) and, where the seed has a reference, its entry names are
the same, every value agrees to `RTOL` (relative; NaN matches NaN,
infinities match by sign) and `passed` is the same.  A seed with no
reference is checked by the harness's gate alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Loose enough for a reordered sum, an exact Peetre path or a rewritten
# root finder (the solvers stop at 1e-10 relative); tight enough that
# any change of what is computed shows.
RTOL = 1e-6


def snapshot(report: dict) -> dict:
    """The part of a report.json dict that the reference keeps."""
    return {
        "passed": report["passed"],
        "entries": [[e["name"], e["norm_a"], e["norm_b"]] for e in report["entries"]],
    }


def load(workload: str, path: Path = None) -> dict:
    """seed (as str) -> experiment -> snapshot; empty if no file."""
    path = path or REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def check(report: dict, expected: dict = None) -> list:
    """Problems found in one report; empty means it is correct."""
    problems = [] if report["passed"] else ["report did not pass its own gates"]
    if expected is None:
        return problems
    if report["passed"] != expected["passed"]:
        problems.append(f"passed={report['passed']}, reference {expected['passed']}")
    got = snapshot(report)["entries"]
    if [e[0] for e in got] != [e[0] for e in expected["entries"]]:
        return problems + ["entry names differ from the reference"]
    for (name, a, b), (_, ra, rb) in zip(got, expected["entries"]):
        for label, v, r in (("norm_a", a, ra), ("norm_b", b, rb)):
            if not _close(float(v), float(r)):
                problems.append(f"{name} {label}={v!r}, reference {r!r}")
    return problems
