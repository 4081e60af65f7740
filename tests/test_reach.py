"""`src/` holds what a run reaches: the command line, profiled on small
configs, calls every function defined in the package at least once."""

import ast
import cProfile
import os
import pstats
from pathlib import Path

import varbesov
from varbesov import calderon
from varbesov.cli import main as cli_main

# module.function -> why no command reaches it
UNREACHED = {
    "harness.run_experiment": "the benchmark's entry point, called by perfbench/",
}


def _defined() -> list:
    """("module.qualified.name", (file, first line of its code object)) for
    every def in the package; a decorated code object starts at its first
    decorator."""
    found = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                where = (os.path.realpath(path), first)
                found.append((f"{path.stem}.{prefix}{child.name}", where))
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(Path(varbesov.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def test_every_function_in_src_is_reached_by_a_run(tmp_path):
    """`run all` with the `zero` entry and a gauss profile, one n = 2 Peetre
    run at the `peetre-2d` workload's config, `kernels export` and
    `corpus list`: every function they do not call is in UNREACHED."""
    small = tmp_path / "small.ini"
    small.write_text("[corpus]\nnames = gaussian, zero, random_band_1\n"
                     "[experiment:independence]\nprofile_b = gauss\n")
    plane = tmp_path / "plane.ini"
    plane.write_text("[grid]\nn = 2\nN = 64\nL = 8.0\n[scales]\nK = 4\nJ = 2\n"
                     "[corpus]\nnames = modulated_4\n"
                     "[experiment:independence]\ntriples = constant, sine-p\n")
    runs = (["run", "all", "--config", str(small), "--grid", "256,16", "--scales", "4,3",
             "--out", str(tmp_path / "all")],
            ["run", "peetre-vs-continuous", "--config", str(plane),
             "--out", str(tmp_path / "plane")],
            ["kernels", "export", "--grid", "256,16", "--scales", "4,3",
             "--out", str(tmp_path / "tables")],
            ["corpus", "list", "--grid", "256,16", "--seed", "1"])
    # cold kernel caches, as in a fresh process: other tests may have filled them
    calderon._normalised_bump_pair.cache_clear()
    calderon.multiplier_bank.cache_clear()
    profile = cProfile.Profile()
    profile.enable()
    try:
        codes = [cli_main(argv) for argv in runs]
    finally:
        profile.disable()
    assert codes == [0, 0, 0, 0]
    reached = {(os.path.realpath(path), line) for path, line, _ in pstats.Stats(profile).stats}
    missed = sorted(name for name, where in _defined() if where not in reached)
    assert missed == sorted(UNREACHED), f"not reached by any run: {', '.join(missed)}"
