"""Golden norms: every experiment at the default config (seed 0) must
reproduce the per-entry norms and the pass/fail of `tests/golden/`.

The comparison is exact (NaN equal to NaN): two runs of the default
config, in separate processes, write identical golden files, so any
difference is a change of the numbers.  A change that moves them on
purpose regenerates the files with `tests/golden/regenerate.py` and says
why in CHANGES.md.
"""

import json

import numpy as np
import pytest

from golden.regenerate import golden_path, golden_record
from varbesov.harness import EXPERIMENTS


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_golden_norms(name):
    want = json.loads(golden_path(name).read_text())
    got = golden_record(name)
    assert got["passed"] == want["passed"]
    assert [e["name"] for e in got["entries"]] == [e["name"] for e in want["entries"]]
    for key in ("norm_a", "norm_b"):
        np.testing.assert_array_equal(
            [e[key] for e in got["entries"]], [e[key] for e in want["entries"]],
            err_msg=f"{name}: {key} moved")
