"""Write the reference outputs that every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Run it from the root of a git checkout of the commit whose outputs become
the reference; the commit id is recorded in each file.  Regenerating the
references at a later commit would hide any change that commit made to
the outputs, so do so only on purpose and say why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = 32  # references cover workload seeds 0 .. SEEDS-1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    from varbesov.harness import run_experiment
    root = Path(__file__).resolve().parents[1]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                            text=True, check=True).stdout.strip()
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        workload = WORKLOADS[name]
        lines = []
        for seed in range(SEEDS):
            cfg = workload.harness_config(seed)
            snap = {e: reference.snapshot(json.loads(run_experiment(e, cfg).to_json()))
                    for e in workload.experiments}
            lines.append(f"    {json.dumps(str(seed))}: {json.dumps(snap)}")
            print(f"{name} seed {seed} done", flush=True)
        text = ("{\n" f'  "commit": {json.dumps(commit)},\n'
                f'  "rtol": {reference.RTOL!r},\n' '  "seeds": {\n'
                + ",\n".join(lines) + "\n  }\n}\n")
        json.loads(text)  # the file must parse
        (reference.REFERENCE_DIR / f"{name}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
