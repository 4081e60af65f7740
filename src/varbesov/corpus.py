"""Test-function corpus and named exponent families for the harness.

Corpus entries are Schwartz-class functions concentrated well inside the
torus: every entry keeps a relative boundary mass below 1e-10 so that
periodisation does not distort the norms being compared.  Random entries
are reproducible from the seed.
"""

from __future__ import annotations

import numpy as np

from .calderon import _mollifier
from .exponent import ExponentField
from .grid import GridFunction, GridSpec

__all__ = ["build_corpus", "boundary_mass", "make_exponent",
           "TRIPLE_PRESETS", "make_triple"]

_BOUNDARY_TOL = 1e-10  # largest relative boundary mass a corpus entry may carry
_BAND = 12.0           # random entries: spectrum supported in |xi| < _BAND
_ENVELOPE = 3.0        # random entries: spatial Gaussian envelope width
_BUMP_WIDTH = 0.25     # exponent bump: support radius relative to L


def boundary_mass(f: GridFunction) -> float:
    """Fraction of the squared mass in the outer tenth of the torus,
    |x_i| >= 0.9 L along some axis."""
    a2 = np.abs(f.values) ** 2
    total = a2.sum()
    if total == 0.0:
        return 0.0
    outer = np.any(np.abs(np.stack(f.spec.coords())) >= 0.9 * f.spec.L, axis=0)
    return float(a2[outer].sum() / total)


def _radial2(spec: GridSpec):
    """First coordinate and squared Euclidean radius at every sample."""
    X = spec.coords()
    return X[0], sum(c * c for c in X)


def _random_band(spec: GridSpec, r2, rng_seed: int) -> np.ndarray:
    """Random spectrum tapered to |xi| < _BAND, times a Gaussian envelope,
    scaled to peak 1."""
    rng = np.random.default_rng(rng_seed)
    coef = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    taper = np.clip(1.0 - (spec.xi_radius() / _BAND) ** 2, 0.0, None) ** 2
    # inverse transform of the shaped spectrum (layout matches fourier())
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(coef * taper)))
    vals = vals * np.exp(-r2 / _ENVELOPE**2)
    peak = np.abs(vals).max()
    return vals / peak if peak > 0 else vals


# name -> samples from (spec, first coordinate x1, squared radius r2, seed)
_ENTRIES = {
    "gaussian": lambda spec, x1, r2, seed: np.exp(-r2 / 2.0),
    "gaussian_wide": lambda spec, x1, r2, seed: np.exp(-r2 / 8.0),
    "dilated_2": lambda spec, x1, r2, seed: np.exp(-4.0 * r2 / 2.0),
    "dilated_4": lambda spec, x1, r2, seed: np.exp(-16.0 * r2 / 2.0),
    "modulated_4": lambda spec, x1, r2, seed: np.exp(4j * x1) * np.exp(-r2 / 2.0),
    "modulated_8": lambda spec, x1, r2, seed: np.exp(8j * x1) * np.exp(-r2 / 2.0),
    "bump": lambda spec, x1, r2, seed: _mollifier(np.sqrt(r2) / (spec.L / 4.0)),
    "bump_shifted": lambda spec, x1, r2, seed: _mollifier(
        np.sqrt((x1 - spec.L / 8.0) ** 2 + (r2 - x1 * x1)) / (spec.L / 8.0)),
    "random_band_1": lambda spec, x1, r2, seed: _random_band(spec, r2, seed * 1000 + 1),
    "random_band_2": lambda spec, x1, r2, seed: _random_band(spec, r2, seed * 1000 + 2),
}
DEFAULT_ENTRIES = tuple(_ENTRIES)


def make_entry(spec: GridSpec, name: str, seed: int = 0) -> GridFunction:
    """One corpus entry: a name of DEFAULT_ENTRIES, or "zero"."""
    if name == "zero":
        return GridFunction.zeros(spec)
    if name not in _ENTRIES:
        raise ValueError(f"unknown corpus entry {name!r}")
    return GridFunction(spec, _ENTRIES[name](spec, *_radial2(spec), seed))


def build_corpus(spec: GridSpec, seed: int = 0, names=None) -> tuple:
    """Named test functions as a tuple of (name, GridFunction) pairs, in
    the order of `names` (default: DEFAULT_ENTRIES)."""
    names = list(names) if names is not None else list(DEFAULT_ENTRIES)
    entries = []
    for name in names:
        f = make_entry(spec, name, seed)
        bm = boundary_mass(f)
        if bm > _BOUNDARY_TOL:
            raise ValueError(f"corpus entry {name!r} has boundary mass {bm:.2e}")
        entries.append((name, f))
    return tuple(entries)


# --- exponent families -----------------------------------------------------------


def make_exponent(spec: GridSpec, kind: str = "constant", base: float = 2.0,
                  amplitude: float = 0.0, frequency: float = 1.0) -> ExponentField:
    """Named exponent families: constant, sine, or a smooth bump.

    sine:  base + amplitude * sin(pi * frequency * x / L) (periodic for
           integer frequency; product of per-axis sines in 2d)
    bump:  base + amplitude * smooth bump of radius L / 4 about the origin
    """
    if kind == "constant":
        return ExponentField.from_constant(spec, base)
    if kind == "sine":
        wave = np.prod([np.sin(np.pi * frequency * c / spec.L) for c in spec.coords()], axis=0)
        return ExponentField(spec, base + amplitude * wave)
    if kind == "bump":
        u = np.sqrt(_radial2(spec)[1]) / (_BUMP_WIDTH * spec.L)
        return ExponentField(spec, base + amplitude * _mollifier(u))
    raise ValueError(f"unknown exponent kind {kind!r}")


_EXPONENT_PRESETS = {
    "const-half": dict(kind="constant", base=0.5),
    "const-2": dict(kind="constant", base=2.0),
    "sine-alpha": dict(kind="sine", base=0.5, amplitude=0.2, frequency=1.0),
    "sine-p": dict(kind="sine", base=2.0, amplitude=0.5, frequency=1.0),
    "sine-q": dict(kind="sine", base=2.0, amplitude=0.3, frequency=2.0),
}

# alpha, p, q presets for the equivalence sweeps
TRIPLE_PRESETS = {
    "constant": ("const-half", "const-2", "const-2"),
    "sine-alpha": ("sine-alpha", "const-2", "const-2"),
    "sine-p": ("const-half", "sine-p", "const-2"),
    "sine-q": ("const-half", "const-2", "sine-q"),
}


def make_triple(spec: GridSpec, name: str):
    """(alpha, p, q) ExponentFields for a named preset triple."""
    try:
        keys = TRIPLE_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown exponent triple {name!r}; "
                         f"known: {sorted(TRIPLE_PRESETS)}") from None
    return tuple(make_exponent(spec, **_EXPONENT_PRESETS[k]) for k in keys)
