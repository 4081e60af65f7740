"""Variable-exponent modulars, the Luxemburg norm solver, and mixed norms.

The modular of f is the quadrature of omega_{p(x)}(|f(x)|) over the torus;
the Luxemburg (quasi-)norm is inf{lambda > 0 : modular(f/lambda) <= 1}.
Every such solve, here and in the mixed norms, is one Newton iteration in
u = log(lambda) on the log-modular F(u) = log(cell * sum_x exp(a_x - e_x u)),
a log-sum-exp of affine functions: convex and decreasing in u, so Newton's
first step lands at or below the root and the later ones climb to it
monotonically (for a constant exponent F is linear and one step is exact).
The result is returned a relative _REL_TOL above the root, on the feasible
side; an iterate that is not finite, or no convergence within _MAX_STEPS,
raises ArithmeticError.  Points with p = inf act as the constraint
lambda >= max |f| there.

Mixed sequence-space norms aggregate a family (f_v) through the modular
sum_v ||  |f_v/mu|^{q(.)} ||_{p(.)/q(.)}  (weighted by dt/t quadrature
weights in the scale-continuous version).  In s = log(mu) each inner root
u_v(s) is convex (the set {F_v <= 0} is convex in (s, u)) with slope
-<p>/<e> under the inner's final weights, so the outer log-modular
H(s) = log sum_v w_v exp(u_v(s)) is convex and decreasing as well, and the
same Newton iteration solves it; for constant q, H is linear.  Only the
first outer evaluation starts the inner roots cold, at max(a/e); every
later one starts them on the tangent of the previous evaluation,
u_v(s') + (s - s') u_v'(s').  u_v is convex, so the tangent lies at or
below the root u_v(s), and the inner iterates climb to it monotonically
as from the cold start (a start above it by rounding is no risk: Newton's
first step lands below).  For constant q, u_v is linear and the tangent
start is the root up to rounding.  The log-sum-exps leave their weights
exp(z - max) unnormalised, in place of their argument: each derivative is
a ratio of weighted sums, so it divides by the row sums once.  Powers are
formed in log space, so no overflow occurs.  q must be finite everywhere
or identically inf; for q = inf the mixed norm is sup_v ||f_v||_{p(.)},
the largest member norm, and the quadrature weights do not enter.

`_luxemburg_rows` solves every row of a (T, *shape) stack of moduli at
once and takes its exponent as validated; `luxemburg_norm` validates one
GridFunction and calls it.  The `mixed_norm_*` functions take a family as
one (T, *shape) array of values, validate it and take its moduli for the
one mixed-norm core, `_mixed_norm`.
"""

from __future__ import annotations

import math

import numpy as np

from .exponent import ExponentField
from .grid import GridFunction, ScaleGrid

__all__ = [
    "luxemburg_norm",
    "power_quotient_norm",
    "mixed_norm_discrete",
    "mixed_norm_continuous",
]

_REL_TOL = 1e-10  # relative offset of the result above the root
_F_TOL = 1e-12    # the Newton step taken at |log-modular| <= _F_TOL is the last
_MAX_STEPS = 100


# --- the solver ------------------------------------------------------------------


def _lse(z: np.ndarray):
    """Log-sum-exp over the last axis, and the row sums S of the weights
    exp(z - max) that overwrite z (a temporary of the caller's): a mean
    under the normalised weights is (z @ x) / S.  Every row needs a finite
    entry."""
    m = z.max(axis=-1, keepdims=True)
    z -= m
    np.exp(z, out=z)
    s = z.sum(axis=-1)
    return m[..., 0] + np.log(s), s


def _newton(fn, u):
    """Row-wise root of F = fn(u)[0], convex and decreasing in u; fn returns
    (F, dF/du).  The step taken at |F| <= _F_TOL is the last one."""
    for _ in range(_MAX_STEPS):
        F, dF = fn(u)
        u = u - F / dF
        if not np.all(np.isfinite(u)):
            raise ArithmeticError("Newton iterate in log(lambda) is not finite")
        if np.all(np.abs(F) <= _F_TOL):
            return u
    raise ArithmeticError(f"Newton iteration in log(lambda) did not converge "
                          f"in {_MAX_STEPS} steps")


def _log_roots(a: np.ndarray, e: np.ndarray, u=None):
    """Row-wise u with log sum_x exp(a[:, x] - e[x] u) = 0, for e > 0 and no
    row of a all -inf, returned with the weights W of the last evaluation
    (see `_lse`) and their products W @ e, which its derivative formed.
    Default start: the largest single term equals 1, below the root."""
    last = []

    def fn(u):
        last.clear()  # free the previous W before forming the next
        W = -u[:, None] * e + a  # a - u e, formed in the product's buffer
        F, S = _lse(W)
        last[:] = W, W @ e
        return F, -last[1] / S

    u = _newton(fn, np.max(a / e, axis=-1) if u is None else u)
    return u, *last


def _luxemburg_rows(A: np.ndarray, p: ExponentField) -> np.ndarray:
    """Luxemburg norms of the rows of A, a (T, *p.spec.shape) stack of
    moduli |f_v|, as a (T,) array; 0 for a zero row.  p is taken as
    validated (p- > 0)."""
    A = A.reshape(len(A), -1)
    ps = p.samples.ravel()
    fin = np.isfinite(ps)
    lam = A[:, ~fin].max(axis=1, initial=0.0)
    live = A[:, fin].max(axis=1, initial=0.0) > 0
    if live.any():
        amax, pf = A[live].max(axis=1), ps[fin]
        with np.errstate(divide="ignore"):
            a = math.log(p.spec.cell_volume) + pf * np.log(A[live][:, fin] / amax[:, None])
        u = _log_roots(a, pf)[0]
        lam[live] = np.maximum(lam[live], amax * np.exp(u + _REL_TOL))
    return lam


def luxemburg_norm(f: GridFunction, p: ExponentField) -> float:
    """inf{lambda > 0 : modular(f/lambda) <= 1}; 0 for f identically zero."""
    p.require_grid(f.spec, "p").require_p0("p")
    return float(_luxemburg_rows(np.abs(f.values)[None], p)[0])


def power_quotient_norm(f: GridFunction, p: ExponentField, q: ExponentField) -> float:
    """|| |f|^{q(.)} ||_{p(.)/q(.)}, the inner term of the mixed modular."""
    p.require_grid(f.spec, "p")
    q.require_grid(f.spec, "q")
    p.require_p0("p").require_finite("p")
    q.require_p0("q").require_finite("q")
    a = np.abs(f.values).ravel()
    live = a > 0
    if not live.any():
        return 0.0
    ps = p.samples.ravel()[live]
    e = ps / q.samples.ravel()[live]
    u = _log_roots((math.log(f.spec.cell_volume) + ps * np.log(a[live]))[None], e)[0]
    return math.exp(u[0] + _REL_TOL)


def _mixed_norm(A: np.ndarray, w: np.ndarray, p: ExponentField,
                q: ExponentField) -> float:
    """Outer Luxemburg solve in s = log(mu) for the weighted mixed modular.

    A: (T, *p.spec.shape) moduli |f_v|; w: (T,) quadrature weights (all
    ones in the discrete case).  p and q are taken as validated: p finite,
    q finite or identically inf, both bounded away from 0.  For q = inf the
    norm is the largest row norm.
    """
    A = A.reshape(len(A), -1)
    amax = float(A.max())
    if not math.isfinite(amax):
        raise ValueError("family values must be finite")
    if q.range_min == math.inf:
        return float(_luxemburg_rows(A, p).max())
    if amax == 0.0:
        return 0.0
    live = A.max(axis=1) > 0
    ps = p.samples.ravel()
    e = ps / q.samples.ravel()
    with np.errstate(divide="ignore"):
        a0 = math.log(p.spec.cell_volume) + ps * np.log(A[live] / amax)
    logw = np.log(w[live])
    prev = None  # (s, u, du/ds) of the previous evaluation

    def fn(s):
        nonlocal prev
        start = None if prev is None else prev[1] + prev[2] * (s - prev[0])
        u, W, We = _log_roots(a0 - s * ps, e, start)
        du = -(W @ ps) / We
        prev = s, u, du
        z = logw + u
        H, S = _lse(z)
        return H, (z @ du) / S

    return amax * math.exp(float(_newton(fn, 0.0)) + _REL_TOL)


def _stack_mixed(fs: np.ndarray, p: ExponentField, q: ExponentField) -> np.ndarray:
    """Validate a family for the mixed norms and return its moduli; fs is a
    (T, *p.spec.shape) array of the members' values."""
    if not isinstance(fs, np.ndarray):
        raise TypeError("a family is one (T, *shape) array of values, not a sequence")
    if fs.shape[1:] != p.spec.shape:
        raise ValueError("p is sampled on a different grid than the family")
    A = np.abs(fs)
    p.require_p0("p").require_finite("p")
    q.require_grid(p.spec, "q").require_p0("q")
    if not (q.is_finite or q.range_min == math.inf):
        raise ValueError("q must be finite everywhere or identically inf")
    return A


def mixed_norm_discrete(fs: np.ndarray, p: ExponentField, q: ExponentField) -> float:
    """Mixed sequence-space norm of a finite family (f_v)."""
    A = _stack_mixed(fs, p, q)
    return _mixed_norm(A, np.ones(len(A)), p, q) if len(A) else 0.0


def mixed_norm_continuous(ft: np.ndarray, p: ExponentField, q: ExponentField,
                          s: ScaleGrid) -> float:
    """Scale-continuous mixed norm: the discrete sum over v becomes the
    dt/t quadrature over the ScaleGrid."""
    A = _stack_mixed(ft, p, q)
    if len(A) != len(s):
        raise ValueError(f"family has {len(A)} members but the scale grid has {len(s)}")
    return _mixed_norm(A, s.weights, p, q)
