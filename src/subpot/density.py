"""Potential density u^(q): the alternating series, joined to the contour by ``evaluate``.

  * ``u_series`` sums (-1)^n drift^{-(n+1)} (1 * (tbar+q)^{*n})(x) with the
    geometric truncation bound, valid wherever the contraction factor
    m(x) = (1*(tbar+q))(x)/drift is at most 1/2.  It takes a number or a
    whole node vector; each node keeps its own truncation order.
  * ``evaluate`` serves u and both one-sided derivatives at any x > 0: the
    series where m(x) <= 1/2 and the Bromwich contour of ``inversion``
    beyond, each value with its error bound.

``bv_split`` separates the even and odd series terms into the two
nondecreasing components of the bounded-variation decomposition, and
``laplace_crosscheck`` integrates ``evaluate``'s u against e^{-lam x} and
compares it with 1/(q + psi(lambda)), for a number or an array of lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convolve import ConvolutionEngine, _gauss_legendre, atom_sums
from .errors import (AccuracyFailureError, PreconditionError, SeriesRadiusError, check_count, check_points,
                     check_positive)
from .inversion import invert_density, invert_derivative_pair
from .model import LevyModel

_MAX_SERIES_TERMS = 400
# the series and its geometric truncation bound are certified where m(x) <= this level
_SERIES_LEVEL = 0.5


def _truncation(m: float, delta: float, tol: float):
    """Smallest N with drift^-1 m^N / (1 - m) < tol, as (that bound, N)."""
    for n in range(_MAX_SERIES_TERMS + 1):
        bound = m ** (n + 1) / (delta * (1.0 - m))
        if bound < tol:
            return bound, n + 1
    raise AccuracyFailureError("series truncation failed to meet tolerance", bound, tol)


def u_series(model: LevyModel, x, tol: float = 1e-10, engine: Optional[ConvolutionEngine] = None):
    """Series value of u^(q)(x) with a certified truncation bound.

    Returns (value, err_bound, terms_used).  x may also be an array: then
    value and err_bound are arrays, each point keeps its own truncation
    order, terms_used is the total over the points, and every entry equals
    the scalar call bit for bit.  Raises SeriesRadiusError when m(x) > 1/2
    at any point, where the geometric tail bound is unavailable; the
    contour covers that regime (``invert_density``, ``evaluate``).
    Raises AccuracyFailureError when a value or bound would be NaN or
    infinite, and ValueError naming the argument for an x that is not a
    number or a non-empty 1-D array of finite numbers >= 0
    (``check_points``), or a tol that is not a finite number > 0.
    """
    check_positive("tol", tol)
    xs = check_points("x", x, zero_ok=True)
    delta = model.drift
    m = np.zeros(xs.shape)
    if np.any(xs > 0):
        if engine is None:
            engine = ConvolutionEngine(model, float(xs.max()))
        m = engine.mass_scale(xs)
    outside = m > _SERIES_LEVEL
    if np.any(outside):
        k = int(np.argmax(outside))
        raise SeriesRadiusError(float(xs[k]), float(m[k]))
    # m = 0 (x = 0 or no kernel mass yet): the first term 1/drift is exact
    value = np.full(xs.shape, 1.0 / delta)
    bound = np.zeros(xs.shape)
    terms = np.ones(xs.shape, dtype=int)
    live = np.nonzero(m)[0]
    for k in live:
        bound[k], terms[k] = _truncation(float(m[k]), delta, tol)
    if live.size:
        value[live] = engine.alternating_sum(xs[live], 0, terms[live])
    bad = ~(np.isfinite(value) & np.isfinite(bound))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise AccuracyFailureError(f"series value {value[k]!r} at x={float(xs[k])!r} is not finite", bound[k], tol)
    if np.ndim(x) == 0:
        return float(value[0]), float(bound[0]), int(terms[0])
    return value, bound, int(terms.sum())


def series_radius(model: LevyModel, x_max: float, engine: Optional[ConvolutionEngine] = None) -> float:
    """Largest x <= x_max with m(x) <= 1/2 (m is continuous increasing).

    80 bisection steps, run as ten subtrees of eight: the 255 midpoints a
    subtree can reach are formed level by level with the step's own
    0.5 * (lo + hi) and go through one array ``mass_scale`` call, then the
    eight steps walk down them, until lo and hi are adjacent.  The result
    is bit for bit that of 80 scalar steps.
    """
    if engine is None:
        engine = ConvolutionEngine(model, x_max)
    if engine.mass_scale(x_max) <= _SERIES_LEVEL:
        return x_max
    lo, hi = 0.0, x_max
    for _ in range(10):
        ends, mids = np.array([lo, hi]), []
        for _ in range(8):
            mids.append(0.5 * (ends[:-1] + ends[1:]))
            ends = np.insert(ends, np.arange(1, ends.size), mids[-1])
        below = engine.mass_scale(np.concatenate(mids)) <= _SERIES_LEVEL
        k = 0  # the node of level d is mids[d][k], at 2^d - 1 + k in the concatenation
        for d in range(8):
            k = 2 * k + int(below[2**d - 1 + k])  # m(mid) <= 1/2: lo = mid, the right half
        lo, hi = float(ends[k]), float(ends[k + 1])
        if hi <= np.nextafter(lo, math.inf):  # adjacent floats: no later step moves lo
            break
    return lo


def evaluate(model: LevyModel, x, tol: float = 1e-7, route: str = "auto", N: Optional[int] = None,
             lam: Optional[float] = None, derivatives: bool = True):
    """u^(q) and both one-sided derivatives at x (a number or a 1-D array), with error bounds.

    Returns arrays (u, err, method, du_left, du_right, du_err); the last
    three are None with derivatives=False.  Route "auto" takes ``u_series``
    where m(x) <= 1/2 and ``invert_density`` (order N, abscissa lam)
    elsewhere, as method records; "series" and "inversion" force one.  The
    pair is one ``invert_derivative_pair`` contour over every x, and one
    ConvolutionEngine serves all three calls.  x goes through
    ``check_points``: finite and >= 0, and > 0 for the derivatives; x = 0
    is the series' first term 1/drift.  tol must be a finite number > 0
    and N None or an integer >= 1; both are checked, as x is, before any
    engine is built.
    """
    if route not in ("auto", "series", "inversion"):
        raise ValueError(f"route must be 'auto', 'series' or 'inversion', got {route!r}")
    check_positive("tol", tol)
    if N is not None:
        check_count("N", N, 1)
    xs = check_points("x", x, zero_ok=not derivatives)
    x_max = float(xs.max())
    engine = ConvolutionEngine(model, x_max) if x_max > 0 else None  # all x = 0: m = 0, as in u_series
    if route == "auto":
        series = (engine.mass_scale(xs) if engine else np.zeros(xs.size)) <= _SERIES_LEVEL
    else:
        series = np.full(xs.size, route == "series")
    u, err = np.empty(xs.size), np.empty(xs.size)
    if series.any():  # one call for all series points
        u[series], err[series], _ = u_series(model, xs[series], tol=tol, engine=engine)
    if not series.all():
        u[~series], err[~series] = invert_density(model, xs[~series], N=N, lam=lam, tol=tol, engine=engine)
    du = invert_derivative_pair(model, xs, N=N, lam=lam, tol=tol, engine=engine) if derivatives else (None,) * 3
    return (u, err, np.where(series, "series", "inversion"), *du)


# ---------------------------------------------------------------------------
# bounded-variation split
# ---------------------------------------------------------------------------


@dataclass
class BvSplit:
    """u = u1 - u2 with both components nondecreasing on the grid."""

    nodes: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    tol: float
    terms_used: int

    def reconstruction(self) -> np.ndarray:
        return self.u1 - self.u2


def bv_split(model: LevyModel, x_max: float, tol: float = 1e-8, n_nodes: int = 160,
             engine: Optional[ConvolutionEngine] = None) -> BvSplit:
    """Even/odd-order partial sums of the series as the increasing components.

    Inside the series radius the truncation is certified by the geometric
    bound, and a tol that bound cannot meet within 400 terms raises
    AccuracyFailureError, as in ``u_series``; beyond the radius, terms are
    added until the newest term at x_max drops below tol (the series
    converges everywhere, but this stop test bounds no error there).
    x_max and tol must be finite and > 0, and n_nodes >= 2 so that the last
    node is x_max, else ValueError names the argument.
    """
    check_positive("x_max", x_max)
    check_positive("tol", tol)
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes!r}")
    if engine is None:
        engine = ConvolutionEngine(model, x_max)
    delta = model.drift
    nodes = np.linspace(0.0, x_max, n_nodes)
    m_end = engine.mass_scale(x_max)
    past = m_end > _SERIES_LEVEL
    # orders 0..top: inside the radius the terms u_series would sum, and at least two;
    # past it, orders up to the first whose term at x_max (the last node) is below tol
    top = _MAX_SERIES_TERMS - 1 if past else max(1, _truncation(m_end, delta, tol)[1] - 1)
    u1 = np.zeros_like(nodes)
    u2 = np.zeros_like(nodes)
    prev = math.inf
    for n in range(top + 1):
        term = engine.running(n, nodes) / delta ** (n + 1)
        if n % 2 == 0:
            u1 += term
        else:
            u2 += term
        if past and n >= 1:
            if term[-1] < tol and term[-1] <= prev:
                break
            prev = term[-1]
    else:
        if past:
            raise AccuracyFailureError("series extension did not reach tolerance", prev, tol)
    return BvSplit(nodes=nodes, u1=u1, u2=u2, tol=tol, terms_used=n + 1)


# ---------------------------------------------------------------------------
# Laplace-transform cross-check
# ---------------------------------------------------------------------------


@dataclass
class CrosscheckResult:
    """One lambda of ``laplace_crosscheck``.

    lhs_err is the error bar of lhs against int_0^x_max e^{-lam x} u(x) dx,
    in two terms.  The values' term, sum w e^{-lam x} err_est(x) over the
    20-point nodes, is a bound wherever ``evaluate``'s err_est is one.  The
    quadrature term, the sum over the cells of |Q20 - Q10|, is an estimate,
    not a bound.
    """

    lam: float
    lhs: float
    rhs: float
    abs_diff: float
    tail_bound: float
    x_max: float
    lhs_err: float


# cells graded toward 0, where u of an AC tail leaves 1/drift like x^(1 - alpha)
_ZERO_HALVINGS = 24


def _cells(model: LevyModel, x_max: float) -> np.ndarray:
    """Cell edges on [0, x_max] for the Gauss-Legendre rules of ``laplace_crosscheck``.

    [0, x_max] breaks at the atom sums of order <= 3, where u, u' or u''
    has a kink; each piece splits into equal cells at most 1 wide, and the
    first cell is halved ``_ZERO_HALVINGS`` times toward 0.
    """
    sums = atom_sums(model.atomic, 3, x_max).values
    ends = np.unique(np.concatenate(([0.0, x_max], sums[sums < x_max])))
    pieces = [np.linspace(a, b, math.ceil(b - a) + 1)[1:] for a, b in zip(ends[:-1], ends[1:])]
    edges = np.concatenate(pieces)
    return np.concatenate(([0.0], edges[0] * 0.5 ** np.arange(_ZERO_HALVINGS, 0, -1), edges))


def laplace_crosscheck(model: LevyModel, lam, tol: float = 1e-6):
    """Compare int_0^inf e^{-lam x} u^(q)(x) dx against 1/(q + psi(lam)).

    The integral over [0, x_max] applies 20-point Gauss-Legendre rules on
    the cells of ``_cells`` to the u that ``evaluate`` prints, at tol/100,
    with 10-point rules on the same cells for the quadrature term of
    lhs_err (``CrosscheckResult``); beyond x_max the tail is bounded by
    e^{-lam x_max}/(drift*lam) since u <= 1/drift.  lam is a number or a
    1-D array: x_max is long enough for the smallest lam's tail to drop
    below tol, and one ``evaluate`` call serves every lam and both rules.
    Returns a CrosscheckResult, or a list of them for an array.  lam must
    be a number or a non-empty 1-D array of finite numbers > 0
    (``check_points``) and tol a finite number > 0, else ValueError names
    the argument.
    """
    check_positive("tol", tol)
    lams = check_points("lam", lam).tolist()
    delta = model.drift
    x_max = max(min(max(math.log(2.0 / (tol * delta * v)) / v, 1.0), 1e4) for v in lams)
    tail_bounds = [math.exp(-v * x_max) / (delta * v) for v in lams]
    for v, tail_bound in zip(lams, tail_bounds):
        if tail_bound > tol:
            raise PreconditionError(
                f"tail bound {tail_bound:.3e} exceeds tolerance at lam={v}; increase x_max"
            )
    edges = _cells(model, x_max)
    half, mid = np.diff(edges)[:, None] / 2.0, (edges[:-1] + edges[1:])[:, None] / 2.0
    (x20, w20), (x10, w10) = [(mid + half * t, half * w) for t, w in (_gauss_legendre(20), _gauss_legendre(10))]
    u, err = evaluate(model, np.concatenate((x20.ravel(), x10.ravel())), tol=tol / 100.0, derivatives=False)[:2]
    u20, u10 = u[: x20.size].reshape(x20.shape), u[x20.size :].reshape(x10.shape)
    err20 = err[: x20.size].reshape(x20.shape)
    results = []
    for v, tail_bound in zip(lams, tail_bounds):
        e20, e10 = w20 * np.exp(-v * x20), w10 * np.exp(-v * x10)
        q20, q10 = np.sum(e20 * u20, axis=1), np.sum(e10 * u10, axis=1)
        lhs = float(np.sum(q20))
        lhs_err = float(np.sum(e20 * err20) + np.sum(np.abs(q20 - q10)))
        rhs = 1.0 / (model.q + model.laplace_exponent(v))
        results.append(CrosscheckResult(lam=v, lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs),
                                        tail_bound=tail_bound, x_max=x_max, lhs_err=lhs_err))
    return results[0] if np.ndim(lam) == 0 else results
