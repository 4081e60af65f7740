"""Reference tools the tests compare the package against, and the helpers
that several test files share.  No command of the package calls them."""

import math

import numpy as np

from varbesov.calderon import _CONSTRUCTION_K
from varbesov.exponent import ExponentField
from varbesov.grid import GridFunction, ScaleGrid, dft, fourier


def const(spec, v):
    return ExponentField.from_constant(spec, v)


def classical_lp(f, p):
    return float((f.spec.cell_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def pointwise_sum(A: np.ndarray, w: np.ndarray, p: ExponentField) -> GridFunction:
    """(sum_v w_v A_v(x)^p(x))^(1/p(x)) for a (T, *shape) stack A of moduli."""
    return GridFunction(p.spec, np.einsum("v,v...->...", w, A ** p.samples) ** (1.0 / p.samples))


# --- the variable-exponent modular ------------------------------------------------


def omega_sum(a: np.ndarray, p: np.ndarray, cell: float) -> float:
    """Quadrature of omega_{p(x)}(a(x)); a nonnegative, p in (0, inf]."""
    out = np.zeros_like(a)
    pinf = np.isinf(p)
    if pinf.any():
        if np.any(a[pinf] > 1.0):
            return math.inf
    pos = (a > 0) & ~pinf
    with np.errstate(over="ignore"):
        out[pos] = np.exp(p[pos] * np.log(a[pos]))
    s = cell * out.sum()
    return float(s)


def modular_lp(f: GridFunction, p: ExponentField) -> float:
    """Variable exponent modular; +inf propagates (p = inf and |f| > 1)."""
    p.require_grid(f.spec, "p").require_p0("p")
    a = np.abs(f.values).ravel()
    return omega_sum(a, p.samples.ravel(), f.spec.cell_volume)


# --- transforms -------------------------------------------------------------------


def inverse_fourier(g: GridFunction) -> GridFunction:
    """Exact inverse of `fourier`."""
    return GridFunction(g.spec, dft(g.values, g.spec, inverse=True))


def convolve_kernel(f: GridFunction, khat: GridFunction) -> GridFunction:
    """Convolution realised in frequency: inverse of (2pi)^(n/2) * fhat * khat.

    `khat` is the frequency-side kernel (same layout as `fourier` output);
    with the symmetric transform convention this matches the continuous
    convolution theorem F(f*k) = (2pi)^(n/2) F(f) F(k).
    """
    if f.spec != khat.spec:
        raise ValueError(f"grid spec mismatch: {f.spec} vs {khat.spec}")
    n = f.spec.n
    fhat = fourier(f)
    prod = (2.0 * np.pi) ** (n / 2.0) * fhat.values * khat.values
    return inverse_fourier(GridFunction(f.spec, prod))


# --- kernel diagnostics -----------------------------------------------------------


def reproducing_residual(pair, radii) -> float:
    """Max over the given |xi| samples of |Phi_hat + sum_j w_j phi_hat(t_j .) - 1|,
    with the dt/t quadrature at the construction rate, over enough octaves
    to cover the full annulus of every sample."""
    radii = np.asarray(radii, dtype=float).ravel()
    rmax = float(radii.max())
    J = max(1, int(math.ceil(math.log2(max(2.0 * rmax, 2.0)))))
    s = ScaleGrid(_CONSTRUCTION_K, J)
    acc = pair.phi0_hat(radii)
    for t, w in zip(s.t, s.weights):
        acc = acc + w * pair.phi_hat(t * radii)
    return float(np.abs(acc - 1.0).max())


def partition_residual(fam, radii) -> float:
    """Max of |sum_v psi_hat_v - 1| over the given |xi| samples up to 2^v_max,
    where the dyadic partition sums to 1 exactly."""
    radii = np.asarray(radii, dtype=float).ravel()
    radii = radii[radii <= 2.0**fam.v_max]
    acc = np.zeros_like(radii)
    for v in range(fam.v_max + 1):
        acc += fam.psi_hat(v)(radii)
    return float(np.abs(acc - 1.0).max())


def tauberian_margins(kern) -> tuple:
    """Smallest |k0_hat| on [0, 2 eps) and |k_hat| on (eps/2, 2 eps) of the
    local-means kernels, each over 4096 samples."""
    r0 = np.linspace(0.0, 2.0 * kern.eps, 4096, endpoint=False)
    m0 = float(np.abs(kern.k0_hat(r0)).min())
    r1 = np.linspace(0.5 * kern.eps, 2.0 * kern.eps, 4098)[1:-1]
    m1 = float(np.abs(kern.k_hat(r1)).min())
    return m0, m1


def moment_slope(kern) -> float:
    """Fitted log-log exponent of the local-means |k_hat| as r -> 0; >= S+1
    certifies the vanishing moments."""
    r = kern.eps * np.logspace(-3, -1.5, 40)
    v = np.abs(kern.k_hat(r))
    if np.all(v == 0):
        return math.inf
    if kern.S == -1:
        return 0.0  # profile tends to the positive constant e at 0
    coef = np.polyfit(np.log(r), np.log(v), 1)
    return float(coef[0])
