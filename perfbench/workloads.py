"""The benchmark's workloads: which experiments run, on which config.

Every workload goes through the public harness API exactly as
`varbesov run` does.  The seed reaches the program only as
`HarnessConfig.seed`.  The sizes are cut from the desk-scale defaults so
that one pass takes 2-4 s on a 2-core machine and several fresh-process
passes fit in one timed run; the grid and scale sizes, which set the
per-evaluation cost, are kept where the reason for a workload depends on
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LEMMA_EXPERIMENTS = tuple(f"lemma:{name}" for name in (
    "transfer", "transfer-violation", "dzw", "hardy", "rtrick",
    "eta-conv-discrete", "eta-conv-continuous", "averaged", "reproducing",
    "rychkov",
))


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple
    config: dict = field(default_factory=dict)  # HarnessConfig overrides
    why: str = ""

    def harness_config(self, seed: int):
        # imported here: run.py reads the workloads without importing varbesov
        from varbesov.harness import HarnessConfig
        return HarnessConfig(seed=seed, threads=1, **self.config)


WORKLOADS = {w.name: w for w in (
    Workload(
        "peetre-1d",
        ("peetre-vs-continuous", "local-means-vs-discrete"),
        dict(corpus_names=("gaussian", "random_band_1"), triples=("sine-p",)),
        "1-D Peetre supremum, ~88% of the time: both maximal-function "
        "experiments at N=1024 L=16 K=8 J=5 on gaussian+random_band_1 x sine-p",
    ),
    Workload(
        "varexp-1d",
        ("discrete-vs-continuous", "independence"),
        dict(corpus_names=("gaussian", "modulated_8", "random_band_1"),
             triples=("constant", "sine-alpha", "sine-p", "sine-q")),
        "variable-p/q Luxemburg and mixed-norm solves, no Peetre work: "
        "default 1-D grid, 3 entries x 4 triples incl. sine-q",
    ),
    # one entry: the Python-level roll loop varies most from pass to pass
    # on a shared machine, so short passes let a run take more of them
    Workload(
        "peetre-2d",
        ("peetre-vs-continuous",),
        dict(n=2, N=64, L=8.0, K=4, J=2, corpus_names=("modulated_4",),
             triples=("constant", "sine-p")),
        "only path through the 2-D np.roll Peetre branch and 2-D FFTs: "
        "n=2 N=64 L=8 K=4 J=2, modulated_4 x constant+sine-p",
    ),
    Workload(
        "lemmas",
        LEMMA_EXPERIMENTS,
        {},
        "all ten lemma sweeps on fresh N and 2N grids: eta periodisation, "
        "estimate_clog, kernel builds and small mixed-norm solves",
    ),
)}
