"""Periodic-torus sampling, Fourier transform, scale convolution and quadrature.

Functions live on the torus [-L, L)^n sampled with N points per axis
(N a power of two).  The Fourier transform follows the symmetric
convention  F(f)(xi) = (2pi)^(-n/2) * integral e^{-i x.xi} f(x) dx,
discretised so that the forward/inverse pair is an exact DFT round trip
and, for functions with negligible mass near the boundary, matches the
continuous transform at the grid frequencies xi_k = pi*k/L,
k = -N/2 .. N/2-1 (stored in ascending order).

Scale decompositions integrate over t in (0, 1] against dt/t; ScaleGrid
discretises that measure on a geometric grid with trapezoid weights in
log t, so that the weights sum exactly to ln(2^J).

Nothing is cached: grid geometry (axes, coordinates, radii, scale nodes and
weights) costs microseconds per call, a periodised eta stack milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "GridSpec",
    "GridFunction",
    "ScaleGrid",
    "fourier",
    "inverse_fourier",
    "dft",
    "convolve_kernel",
    "eta_pointwise",
    "eta_periodized",
    "integrate",
    "norm_l2",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^n with N points per axis."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension n must be 1 or 2, got {self.n}")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 16, got {self.N}")
        if not 0 < self.L < np.inf:
            raise ValueError(f"half-period L must be finite and positive, got {self.L}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def xi_max(self) -> float:
        """Largest per-axis frequency magnitude, pi*N/(2L)."""
        return np.pi * self.N / (2.0 * self.L)

    def axis(self) -> np.ndarray:
        """Spatial sample positions along one axis, -L .. L-h."""
        return -self.L + (2.0 * self.L / self.N) * np.arange(self.N)

    def freq_axis(self) -> np.ndarray:
        """Frequencies pi*k/L for k = -N/2 .. N/2-1, ascending."""
        return (np.pi / self.L) * (np.arange(self.N) - self.N // 2)

    def coords(self) -> tuple:
        """Meshgrid of spatial coordinates, one array per axis."""
        return tuple(np.meshgrid(*(self.axis(),) * self.n, indexing="ij"))

    def freq_coords(self) -> tuple:
        return tuple(np.meshgrid(*(self.freq_axis(),) * self.n, indexing="ij"))

    def xi_radius(self) -> np.ndarray:
        """|xi| at every grid frequency."""
        return _euclidean(np.abs(self.freq_axis()), self.n)

    def periodic_radius(self) -> np.ndarray:
        """Periodic distance from the origin at every spatial sample."""
        x = np.abs(self.axis())
        return _euclidean(np.minimum(x, 2.0 * self.L - x), self.n)

    def offset_distance(self) -> np.ndarray:
        """Periodic length of every grid offset k: h * min(k, N - k) per
        axis, combined as the Euclidean norm in 2-D."""
        k = np.arange(self.N)
        return _euclidean((2.0 * self.L / self.N) * np.minimum(k, self.N - k), self.n)


def _euclidean(d: np.ndarray, n: int) -> np.ndarray:
    """Per-axis magnitudes d combined over n axes: d itself in 1-D,
    sqrt(d_i^2 + d_j^2) on the (N, N) grid in 2-D."""
    return d if n == 1 else np.sqrt(d[:, None] ** 2 + d[None, :] ** 2)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a GridSpec, row-major.  Immutable after creation."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).reshape(self.spec.shape)
        if not np.all(np.isfinite(v)):
            raise ValueError("GridFunction values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridFunction":
        return cls(spec, fn(*spec.coords()))

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls(spec, np.zeros(spec.shape))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.spec, values)

    def __mul__(self, c):
        return GridFunction(self.spec, self.values * c)

    __rmul__ = __mul__

    def __add__(self, other):
        _require_same_spec(self, other)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other):
        _require_same_spec(self, other)
        return GridFunction(self.spec, self.values - other.values)


def _require_same_spec(f: GridFunction, g: GridFunction):
    if f.spec != g.spec:
        raise ValueError(f"grid spec mismatch: {f.spec} vs {g.spec}")


def dft(values: np.ndarray, spec: GridSpec, inverse: bool = False) -> np.ndarray:
    """Transform over the last n axes of a (..., *spec.shape) array, each
    leading index on its own: the array form of `fourier` (or, with
    inverse=True, of `inverse_fourier`), with the same scaling and
    ascending-frequency layout."""
    axes = tuple(range(-spec.n, 0))
    if inverse:
        scale = (2.0 * np.pi) ** (spec.n / 2.0) / spec.cell_volume
        op = np.fft.ifftn
    else:
        scale = spec.cell_volume * (2.0 * np.pi) ** (-spec.n / 2.0)
        op = np.fft.fftn
    v = np.fft.fftshift(op(np.fft.ifftshift(values, axes=axes), axes=axes), axes=axes)
    return scale * v


def fourier(f: GridFunction) -> GridFunction:
    """Forward transform; output samples approximate F(f) at grid frequencies.

    Output is ordered by ascending frequency along each axis.  Exact
    inverse is `inverse_fourier`.
    """
    return GridFunction(f.spec, dft(f.values, f.spec))


def inverse_fourier(g: GridFunction) -> GridFunction:
    return GridFunction(g.spec, dft(g.values, g.spec, inverse=True))


def _circulant(w: np.ndarray) -> np.ndarray:
    """View c of shape (N,) * 2n with c[(*y, *x)] = w[(x - y) mod N]:
    w unrolled once per axis, windowed, and reversed along the y axes."""
    view = sliding_window_view(np.tile(w, (2,) * w.ndim), w.shape)
    return view[(slice(w.shape[0], 0, -1),) * w.ndim]


def convolve_kernel(f: GridFunction, khat: GridFunction) -> GridFunction:
    """Convolution realised in frequency: inverse of (2pi)^(n/2) * fhat * khat.

    `khat` is the frequency-side kernel (same layout as `fourier` output);
    with the symmetric transform convention this matches the continuous
    convolution theorem F(f*k) = (2pi)^(n/2) F(f) F(k).
    """
    _require_same_spec(f, khat)
    n = f.spec.n
    fhat = fourier(f)
    prod = (2.0 * np.pi) ** (n / 2.0) * fhat.values * khat.values
    return inverse_fourier(GridFunction(f.spec, prod))


def integrate(f: GridFunction) -> complex:
    """Torus quadrature h^n * sum(values); exact for band-limited integrands."""
    return complex(f.spec.cell_volume * f.values.sum())


def norm_l2(f: GridFunction) -> float:
    return float(np.sqrt(f.spec.cell_volume * np.sum(np.abs(f.values) ** 2)))


# --- the kernels eta_{t,m}(x) = t^-n (1 + |x|/t)^-m --------------------------


def eta_pointwise(t, m: float, dist, n: int):
    """eta_{t,m} at distances `dist` (no periodisation); t may broadcast against them."""
    if not m > n:
        raise ValueError(f"eta_{{t,m}} requires m > n for integrability, got m={m}, n={n}")
    if not np.all(np.asarray(t) > 0):
        raise ValueError(f"scale t must be positive, got {t}")
    return t ** (-n) * (1.0 + np.asarray(dist) / t) ** (-m)


_ZETA_DIRECT = 8  # Hurwitz zeta terms summed before the Euler-Maclaurin remainder
_ZETA_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                   -691 / 1307674368000, 1 / 74724249600)  # B_2i / (2i)!, i = 1..7


def _hurwitz_zeta(s: float, a: np.ndarray) -> np.ndarray:
    """zeta(s, a) = sum_{k >= 0} (k + a)^-s for s > 1, a > 0: the first terms
    directly, the rest as the Euler-Maclaurin integral, half term and
    Bernoulli corrections at b = a + _ZETA_DIRECT."""
    b = a + _ZETA_DIRECT
    tail = b ** (1.0 - s)
    term = tail / b
    acc = tail / (s - 1.0) + 0.5 * term
    term = term / b
    rising = s  # s (s + 1) ... (s + 2i - 2)
    for i, c in enumerate(_ZETA_BERNOULLI):
        acc = acc + c * rising * term
        rising *= (s + 2 * i + 1) * (s + 2 * i + 2)
        term = term / (b * b)
    for k in range(_ZETA_DIRECT - 1, -1, -1):
        acc = acc + (a + k) ** -s
    return acc


def eta_periodized(t, m: float, spec: GridSpec) -> np.ndarray:
    """Spatial samples of sum_j eta_{t,m}(x + 2Lj) over integers j, for one
    scale t or an array of them: a real array of shape np.shape(t) + spec.shape.
    Implemented for n = 1 only.

    With P = 2L and x in [-L, L), the images j >= 1 on each side sum in
    closed form to Hurwitz zeta tails, exact to rounding:
        t^-1 [(1 + |x|/t)^-m + (t/P)^m (zeta(m, 1 + (t+x)/P) + zeta(m, 1 + (t-x)/P))]."""
    t = np.asarray(t, dtype=float)
    if spec.n != 1:
        raise ValueError(f"periodised eta_{{t,m}} is implemented for n = 1 only, through "
                         f"its Hurwitz-zeta closed form; got n = {spec.n}")
    if not m > spec.n:
        raise ValueError(f"eta_{{t,m}} requires m > n, got m={m}, n={spec.n}")
    if not np.all((t > 0) & (t <= 1)):
        raise ValueError(f"scale t must lie in (0, 1], got {t}")
    tc, period, x = t.reshape(-1, 1), 2.0 * spec.L, spec.axis()
    # t - x[i] is t + x[N - i] wherever x[N - i] == -x[i], so the second tail
    # reads the first one backwards; x[0] = -L and inexact mirrors are evaluated
    mirror = -np.arange(spec.N) % spec.N
    plus = _hurwitz_zeta(m, 1.0 + (tc + x) / period)
    minus = plus[:, mirror]
    fix = np.flatnonzero(x[mirror] != -x)
    minus[:, fix] = _hurwitz_zeta(m, 1.0 + (tc - x[fix]) / period)
    images = (tc / period) ** m * (plus + minus)
    return (eta_pointwise(tc, m, np.abs(x), 1) + images / tc).reshape(t.shape + spec.shape)


# --- geometric scale grid for integral_0^1 ... dt/t --------------------------


@dataclass(frozen=True)
class ScaleGrid:
    """Scales t_j = 2^(-j/K), j = 0..J*K, with trapezoid dt/t weights.

    K scales per octave over J octaves; sum of weights equals ln(2^J)
    exactly, the dt/t measure of [2^-J, 1].
    """

    K: int
    J: int

    def __post_init__(self):
        if self.K < 1 or self.J < 1:
            raise ValueError("ScaleGrid needs K >= 1 scales per octave and J >= 1 octaves")

    @property
    def t(self) -> np.ndarray:
        return 2.0 ** (-np.arange(len(self)) / self.K)

    @property
    def weights(self) -> np.ndarray:
        w = np.full(len(self), np.log(2.0) / self.K)
        w[[0, -1]] *= 0.5
        return w

    @property
    def t_min(self) -> float:
        return 2.0 ** (-self.J)

    def __len__(self):
        return self.J * self.K + 1

    def require_resolvable(self, spec: GridSpec):
        if 2.0 / self.t_min > spec.xi_max:
            raise ValueError(
                f"smallest scale 2^-{self.J} needs frequencies up to "
                f"{2.0 / self.t_min:.1f} but the grid resolves only {spec.xi_max:.1f}"
            )

