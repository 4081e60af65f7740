"""Test-function corpus and named exponent families for the harness.

Corpus entries are Schwartz-class functions concentrated well inside the
torus: every entry keeps a relative boundary mass below 1e-10 so that
periodisation does not distort the norms being compared.  Random entries
are reproducible from the seed.
"""

from __future__ import annotations

import math

import numpy as np

from .calderon import _mollifier
from .exponent import ExponentField
from .grid import GridFunction, GridSpec

__all__ = ["build_corpus", "boundary_mass", "make_exponent",
           "EXPONENT_PRESETS", "TRIPLE_PRESETS", "make_triple"]

_BOUNDARY_TOL = 1e-10  # largest relative boundary mass a corpus entry may carry

DEFAULT_ENTRIES = (
    "gaussian",
    "gaussian_wide",
    "dilated_2",
    "dilated_4",
    "modulated_4",
    "modulated_8",
    "bump",
    "bump_shifted",
    "random_band_1",
    "random_band_2",
)


def boundary_mass(f: GridFunction) -> float:
    """Fraction of the squared mass in the outer tenth of the torus,
    |x_i| >= 0.9 L along some axis."""
    spec = f.spec
    a2 = np.abs(f.values) ** 2
    total = a2.sum()
    if total == 0.0:
        return 0.0
    edge = 0.9 * spec.L
    x = np.abs(spec.axis())
    if spec.n == 1:
        outer = x >= edge
    else:
        outer = (x[:, None] >= edge) | (x[None, :] >= edge)
    return float(a2[outer].sum() / total)


def _radial2(spec: GridSpec):
    """First coordinate and squared Euclidean radius at every sample."""
    X = spec.coords()
    return X[0], sum(c * c for c in X)


def _random_band(spec: GridSpec, rng, band: float, envelope: float) -> np.ndarray:
    shape = spec.shape
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = spec.xi_radius()
    taper = np.clip(1.0 - (r / band) ** 2, 0.0, None) ** 2
    spectrum = coef * taper
    # inverse transform of the shaped spectrum (layout matches fourier())
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spectrum)))
    x1, r2 = _radial2(spec)
    vals = vals * np.exp(-r2 / envelope**2)
    peak = np.abs(vals).max()
    return vals / peak if peak > 0 else vals


def _parameter(name: str, prefix: str, kind) -> float:
    """The finite number after `prefix` in a parametrised entry name; no
    digit separators, which int and float would read ('1_0' as 10)."""
    text = name[len(prefix):]
    try:
        value = kind(text)
        if "_" not in text and math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"unknown corpus entry {name!r}")


def make_entry(spec: GridSpec, name: str, seed: int = 0) -> GridFunction:
    x1, r2 = _radial2(spec)
    if name == "gaussian":
        return GridFunction(spec, np.exp(-r2 / 2.0))
    if name == "gaussian_wide":
        return GridFunction(spec, np.exp(-r2 / 8.0))
    if name.startswith("dilated_"):
        lam = _parameter(name, "dilated_", float)
        return GridFunction(spec, np.exp(-(lam**2) * r2 / 2.0))
    if name.startswith("modulated_"):
        k = _parameter(name, "modulated_", float)
        return GridFunction(spec, np.exp(1j * k * x1) * np.exp(-r2 / 2.0))
    if name == "bump":
        return GridFunction(spec, _mollifier(np.sqrt(r2) / (spec.L / 4.0)))
    if name == "bump_shifted":
        shifted = np.sqrt((x1 - spec.L / 8.0) ** 2 + (r2 - x1 * x1))
        return GridFunction(spec, _mollifier(shifted / (spec.L / 8.0)))
    if name.startswith("random_band_"):
        idx = _parameter(name, "random_band_", int)
        rng = np.random.default_rng(seed * 1000 + idx)
        return GridFunction(spec, _random_band(spec, rng, band=12.0, envelope=3.0))
    if name == "zero":
        return GridFunction.zeros(spec)
    raise ValueError(f"unknown corpus entry {name!r}")


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
                  amplitude: float = 0.0, frequency: float = 1.0,
                  width: float = 0.25) -> ExponentField:
    """Named exponent families: constant, sine, or a smooth bump.

    sine:  base + amplitude * sin(pi * frequency * x / L) (periodic for
           integer frequency; product of per-axis sines in 2d)
    bump:  base + amplitude * smooth bump of relative width `width`
    """
    if kind == "constant":
        return ExponentField.from_constant(spec, base)
    if kind == "sine":
        def fn(*coords):
            out = np.full(spec.shape, base, dtype=float)
            wave = np.ones(spec.shape)
            for c in coords:
                wave = wave * np.sin(np.pi * frequency * c / spec.L)
            return out + amplitude * wave
        return ExponentField.from_callable(spec, fn)
    if kind == "bump":
        def fn(*coords):
            r2 = sum(c * c for c in coords)
            u = np.sqrt(r2) / (width * spec.L)
            return base + amplitude * _mollifier(u)
        return ExponentField.from_callable(spec, fn)
    raise ValueError(f"unknown exponent kind {kind!r}")


EXPONENT_PRESETS = {
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
    return tuple(make_exponent(spec, **EXPONENT_PRESETS[k]) for k in keys)
