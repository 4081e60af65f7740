"""varbesov: variable-exponent Lebesgue, mixed sequence-space and Besov
quasi-norms on a periodic torus, plus an experiment harness that measures
empirical equivalence constants between the different norm evaluators."""

from .grid import (
    GridSpec,
    GridFunction,
    ScaleGrid,
    fourier,
)
from .exponent import ExponentField, estimate_clog
from .modular_norms import (
    luxemburg_norm,
    mixed_norm_discrete,
    mixed_norm_continuous,
)
from .calderon import (
    KernelPair,
    DyadicFamily,
    LocalMeansKernels,
    build_continuous_pair,
    build_dyadic,
    build_local_means,
)
from .besov import (
    BesovParams,
    HypothesisError,
    besov_continuous,
    besov_discrete,
    besov_peetre,
    besov_local_means,
)

__version__ = "0.1.0"
