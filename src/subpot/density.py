"""Potential density u^(q) by alternating series and by the renewal equation.

Two routes with certified error control:

  * ``u_series`` sums (-1)^n drift^{-(n+1)} (1 * (tbar+q)^{*n})(x) with the
    geometric truncation bound, valid wherever the contraction factor
    m(x) = (1*(tbar+q))(x)/drift is at most 1/2.
  * ``u_volterra`` marches the renewal equation
    drift*u(x) = 1 - int_0^x u(x-y)(tbar(y)+q) dy by product integration:
    the unknown is piecewise linear on a breakpoint-aligned grid while the
    kernel is integrated exactly through its closed-form moments, so atoms
    and the integrable power singularity at zero cost no order of accuracy.
    The head of the grid (inside the series radius) is filled with certified
    series values, which also pins down the singular slope of u at 0+ for
    models with an absolutely continuous part.

``bv_split`` separates the even and odd series terms into the two
nondecreasing components of the bounded-variation decomposition, and
``laplace_crosscheck`` validates the grid against 1/(q + psi(lambda)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convolve import ConvolutionEngine
from .errors import AccuracyFailureError, PreconditionError, SeriesRadiusError
from .model import LevyModel

_MAX_SERIES_TERMS = 400


def u_series(model: LevyModel, x: float, tol: float = 1e-10, engine: Optional[ConvolutionEngine] = None):
    """Series value of u^(q)(x) with a certified truncation bound.

    Returns (value, err_bound, terms_used).  Raises SeriesRadiusError when
    m(x) > 1/2, where the geometric tail bound is unavailable; the Volterra
    solver covers that regime.
    """
    if not x >= 0:
        raise ValueError(f"x must be a number >= 0, got {x!r}")
    delta = model.drift
    if x == 0:
        return 1.0 / delta, 0.0, 1
    if engine is None:
        engine = ConvolutionEngine(model, x)
    m = engine.mass_scale(x)
    if m > 0.5 + 1e-12:
        raise SeriesRadiusError(x, m)
    if m == 0.0:
        return 1.0 / delta, 0.0, 1
    # smallest N with delta^-1 m^(N+1) / (1-m) < tol
    for n in range(_MAX_SERIES_TERMS + 1):
        bound = m ** (n + 1) / (delta * (1.0 - m))
        if bound < tol:
            break
    else:
        raise AccuracyFailureError("series truncation failed to meet tolerance", bound, tol)
    return engine.alternating_sum(x, 0, n + 1), bound, n + 1


def series_radius(model: LevyModel, x_max: float, engine: Optional[ConvolutionEngine] = None, level: float = 0.5) -> float:
    """Largest x <= x_max with m(x) <= level (m is continuous increasing)."""
    if engine is None:
        engine = ConvolutionEngine(model, x_max)
    if engine.mass_scale(x_max) <= level:
        return x_max
    lo, hi = 0.0, x_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if engine.mass_scale(mid) <= level:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# grid solver
# ---------------------------------------------------------------------------


@dataclass
class DensityGrid:
    """Sampled u^(q) on a breakpoint-aligned grid with per-node provenance.

    u is continuous (only its derivatives jump), so a single value per node
    is stored.
    """

    model_hash: str
    q: float
    drift: float
    nodes: np.ndarray
    u: np.ndarray
    err_est: np.ndarray
    method: np.ndarray  # "series" | "volterra" per node
    breakpoints: np.ndarray
    series_head_end: float

    def __call__(self, x):
        return np.interp(x, self.nodes, self.u)

    def err_at(self, x):
        return np.interp(x, self.nodes, self.err_est)

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])


def _grid_nodes(model, engine, x_max, h, breakpoint_order, head_end):
    breaks = {0.0, float(x_max)}
    for k in range(1, breakpoint_order + 1):
        breaks.update(float(v) for v in engine.kinks(k) if v < x_max)
    breaks = np.array(sorted(breaks))
    nodes = set(breaks.tolist())
    nodes.update(np.arange(0.0, x_max, h).tolist())
    if head_end > 0:
        nodes.add(head_end)
        # geometric refinement toward 0 resolves the singular slope of u;
        # AC tails need a fine ratio since these nodes do not refine with h
        ratio = 1.05 if model.has_ac else 2.0
        g = head_end
        while g > 1e-12 * max(1.0, x_max):
            g /= ratio
            nodes.add(g)
    if model.has_ac:
        # u'' ~ x^-(1+alpha): power-graded cells keep local errors level.
        # Start below the series head: the kernel singularity of the
        # marching integral amplifies coarse cells just under head_end.
        expo = 0.5 * (1.0 + model.ac.alpha)
        x = max(head_end / 8.0, 1e-6)
        stop = min(1.0, x_max)
        while x < stop:
            x += h * x**expo
            nodes.add(min(x, x_max))
    arr = np.array(sorted(nodes))
    keep = np.concatenate([[True], np.diff(arr) > 1e-13 * np.maximum(1.0, arr[1:])])
    return arr[keep], breaks


def _march(model: LevyModel, nodes: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Product-integration march: exact kernel moments, piecewise-linear u."""
    delta = model.drift
    q = model.q
    u = np.array(known, dtype=float)
    n_known = int(np.sum(~np.isnan(known)))

    for i in range(n_known, nodes.size):
        xi = nodes[i]
        w = xi - nodes[: i + 1]  # decreasing, w[i] = 0
        f0 = model.tail_antiderivative(w) + q * w
        f1 = model.tail_first_moment(w) + q * w**2 / 2.0
        m0 = f0[:-1] - f0[1:]   # cell j: window [w_{j+1}, w_j]
        m1 = f1[:-1] - f1[1:]
        h = nodes[1 : i + 1] - nodes[:i]
        a_coef = (m1 - w[1:] * m0) / h       # multiplies u_j
        b_coef = (w[:-1] * m0 - m1) / h      # multiplies u_{j+1}
        conv_known = float(np.dot(a_coef, u[:i])) + float(np.dot(b_coef[:-1], u[1:i]))
        c_last = b_coef[-1]
        u[i] = (1.0 - conv_known) / (delta + c_last)
    return u


def u_volterra(
    model: LevyModel,
    x_max: float,
    h_target: float = 0.004,
    tol: float = 1e-7,
    breakpoint_order: int = 2,
    max_refine: int = 3,
    engine: Optional[ConvolutionEngine] = None,
) -> DensityGrid:
    """Solve the renewal equation on [0, x_max] with step-halving control.

    The returned grid carries an error estimate per node taken from the
    final step-halving comparison; a disagreement above 10*tol after
    ``max_refine`` halvings raises AccuracyFailureError.
    """
    if x_max <= 0:
        raise ValueError("x_max must be > 0")
    if engine is None:
        engine = ConvolutionEngine(model, x_max)
    # mixed measures make series terms costly (cross-term quadratures), so
    # the certified head stops earlier and the march covers the rest
    head_level = 0.2 if (model.has_atoms and model.has_ac) else 0.45
    head_end = series_radius(model, x_max, engine, level=head_level)
    head_end = min(head_end, x_max)
    series_tol = min(tol * 1e-2, 1e-10)
    head_cache: dict = {}

    def head_value(x):
        if x not in head_cache:
            head_cache[x], _, _ = u_series(model, x, tol=series_tol, engine=engine)
        return head_cache[x]

    def solve(h):
        nodes, breaks = _grid_nodes(model, engine, x_max, h, breakpoint_order, head_end)
        known = np.full(nodes.size, np.nan)
        head = nodes <= head_end * (1 + 1e-15)
        for idx in np.nonzero(head)[0]:
            known[idx] = head_value(float(nodes[idx]))
        u = _march(model, nodes, known)
        return nodes, breaks, u, head

    h = float(h_target)
    nodes1, breaks, u1, head1 = solve(h)
    for attempt in range(max_refine):
        nodes2, _, u2, head2 = solve(h / 2.0)
        diff = np.abs(np.interp(nodes1, nodes2, u2) - u1)
        max_diff = float(diff.max()) if diff.size else 0.0
        if max_diff <= 10.0 * tol or attempt == max_refine - 1:
            if max_diff > 10.0 * tol:
                raise AccuracyFailureError("step-halving disagreement after max refinement", max_diff, tol)
            err = np.interp(nodes2, nodes1, diff)
            err[head2] = series_tol
            method = np.where(head2, "series", "volterra")
            return DensityGrid(
                model_hash=model.model_hash(),
                q=model.q,
                drift=model.drift,
                nodes=nodes2,
                u=u2,
                err_est=err,
                method=method,
                breakpoints=breaks,
                series_head_end=head_end,
            )
        nodes1, u1, head1 = nodes2, u2, head2
        h /= 2.0
    raise AssertionError("unreachable")


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
    bound; beyond it, terms are added until the newest term at x_max drops
    below tol (the series converges everywhere; the documented tolerance for
    this extension is ``tol`` against the Volterra-validated density).
    """
    if engine is None:
        engine = ConvolutionEngine(model, x_max)
    delta = model.drift
    nodes = np.linspace(0.0, x_max, n_nodes)
    m_end = engine.mass_scale(x_max)
    if m_end <= 0.5:
        n_terms = 1
        while m_end ** (n_terms + 1) / (delta * (1 - m_end)) >= tol and n_terms < _MAX_SERIES_TERMS:
            n_terms += 1
    else:
        n_terms = 1
        prev = math.inf
        while n_terms < _MAX_SERIES_TERMS:
            term = engine.running(n_terms, x_max) / delta ** (n_terms + 1)
            if term < tol and term <= prev:
                break
            prev = term
            n_terms += 1
        else:
            raise AccuracyFailureError("series extension did not reach tolerance", prev, tol)

    u1 = np.zeros_like(nodes)
    u2 = np.zeros_like(nodes)
    for n in range(n_terms + 1):
        vals = np.array([engine.running(n, x) if x > 0 else (1.0 if n == 0 else 0.0) for x in nodes])
        term = vals / delta ** (n + 1)
        if n % 2 == 0:
            u1 += term
        else:
            u2 += term
    return BvSplit(nodes=nodes, u1=u1, u2=u2, tol=tol, terms_used=n_terms + 1)


# ---------------------------------------------------------------------------
# Laplace-transform cross-check
# ---------------------------------------------------------------------------


@dataclass
class CrosscheckResult:
    lam: float
    lhs: float
    rhs: float
    abs_diff: float
    tail_bound: float
    x_max: float


def laplace_crosscheck(model: LevyModel, lam: float, tol: float = 1e-6,
                       grid: Optional[DensityGrid] = None) -> CrosscheckResult:
    """Compare int_0^inf e^{-lam x} u^(q)(x) dx against 1/(q + psi(lam)).

    The integral over [0, x_max] uses the grid's piecewise-linear density
    against exact exponential cell moments; beyond x_max the tail is bounded
    by e^{-lam x_max}/(drift*lam) since u <= 1/drift.
    """
    if lam <= 0:
        raise PreconditionError("crosscheck requires lam > 0")
    delta = model.drift
    if grid is None:
        x_max = math.log(2.0 / (tol * delta * lam)) / lam
        x_max = min(max(x_max, 1.0), 1e4)
        grid = u_volterra(model, x_max, tol=min(tol * 0.1, 1e-7))
    x_max = grid.x_max
    tail_bound = math.exp(-lam * x_max) / (delta * lam)
    if tail_bound > tol:
        raise PreconditionError(
            f"tail bound {tail_bound:.3e} exceeds tolerance at lam={lam}; increase x_max"
        )
    xs = grid.nodes
    us = grid.u
    e = np.exp(-lam * xs)
    # cell integral of e^{-lam x} (a + b x): exact
    h = np.diff(xs)
    ui, uj = us[:-1], us[1:]
    ei, ej = e[:-1], e[1:]
    slope = (uj - ui) / h
    # int_{xi}^{xj} e^{-lam x} (ui + slope (x - xi)) dx, exact per cell
    term = ui * (ei - ej) / lam + slope * ((ei - ej) / lam**2 - h * ej / lam)
    lhs = float(np.sum(term))
    rhs = 1.0 / (model.q + model.laplace_exponent(lam))
    return CrosscheckResult(lam=lam, lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs),
                            tail_bound=tail_bound, x_max=x_max)
