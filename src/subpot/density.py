"""Potential density u^(q) by alternating series and by the renewal equation.

Two routes with certified error control (``evaluate`` joins the series to the contour):

  * ``u_series`` sums (-1)^n drift^{-(n+1)} (1 * (tbar+q)^{*n})(x) with the
    geometric truncation bound, valid wherever the contraction factor
    m(x) = (1*(tbar+q))(x)/drift is at most 1/2.  It takes a number or a
    whole node vector; each node keeps its own truncation order.
  * ``u_volterra`` marches the renewal equation
    drift*u(x) = 1 - int_0^x u(x-y)(tbar(y)+q) dy by product integration:
    the unknown is piecewise linear on a breakpoint-aligned grid while the
    kernel is integrated exactly, so atoms and the integrable power
    singularity at zero cost no order of accuracy.  Atoms and q act through
    the running integral U of u (an atom of mass m at a adds
    m (U(x) - U(x - a))), so an atom-only march costs O(n * atoms); an AC
    tail adds its closed-form moments, one broadcast over the history per
    block of rows.  The head of the grid (inside the series radius) is
    filled with certified series values from one ``u_series`` call per
    grid, which also pins down the singular slope of u at 0+ for models
    with an absolutely continuous part.

``DensityGrid.err_at`` adds the linear-interpolation error of the cell to
the node estimates.  ``bv_split`` separates the even and odd series terms
into the two nondecreasing components of the bounded-variation
decomposition, and ``laplace_crosscheck`` validates the grid against
1/(q + psi(lambda)), for a number or an array of lambda on one grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .convolve import ConvolutionEngine
from .errors import AccuracyFailureError, PreconditionError, SeriesRadiusError, check_positive
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
    infinite, and ValueError for an x that is not a finite number >= 0 or a
    tol that is not a finite number > 0.
    """
    check_positive("tol", tol)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ok = np.isfinite(xs) & (xs >= 0)
    if not np.all(ok):
        raise ValueError(f"x must be a finite number >= 0, got {float(xs[~ok][0])!r}")
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


def series_radius(model: LevyModel, x_max: float, engine: Optional[ConvolutionEngine] = None,
                  level: float = _SERIES_LEVEL) -> float:
    """Largest x <= x_max with m(x) <= level (m is continuous increasing).

    80 bisection steps, run as ten subtrees of eight: the 255 midpoints a
    subtree can reach are formed level by level with the step's own
    0.5 * (lo + hi) and go through one array ``mass_scale`` call, then the
    eight steps walk down them, until lo and hi are adjacent.  The result
    is bit for bit that of 80 scalar steps.
    """
    if engine is None:
        engine = ConvolutionEngine(model, x_max)
    if engine.mass_scale(x_max) <= level:
        return x_max
    lo, hi = 0.0, x_max
    for _ in range(10):
        ends, mids = np.array([lo, hi]), []
        for _ in range(8):
            mids.append(0.5 * (ends[:-1] + ends[1:]))
            ends = np.insert(ends, np.arange(1, ends.size), mids[-1])
        below = engine.mass_scale(np.concatenate(mids)) <= level
        k = 0  # the node of level d is mids[d][k], at 2^d - 1 + k in the concatenation
        for d in range(8):
            k = 2 * k + int(below[2**d - 1 + k])  # m(mid) <= level: lo = mid, the right half
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
    ConvolutionEngine serves all three calls.  x must be finite and >= 0,
    and > 0 for the derivatives; x = 0 is the series' first term 1/drift.
    """
    if route not in ("auto", "series", "inversion"):
        raise ValueError(f"route must be 'auto', 'series' or 'inversion', got {route!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("x must be a number or a non-empty 1-D array")
    bad = ~(np.isfinite(xs) & ((xs > 0) if derivatives else (xs >= 0)))
    if np.any(bad):
        raise ValueError(f"x must be a finite number {'>' if derivatives else '>='} 0, got {float(xs[bad][0])!r}")
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
# grid solver
# ---------------------------------------------------------------------------


@dataclass
class DensityGrid:
    """Sampled u^(q) on a breakpoint-aligned grid with per-node provenance.

    u is continuous (only its derivatives jump), so a single value per node
    is stored.
    """

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
        """Error bound of ``self(x)``: the node estimates, interpolated, plus
        the linear-interpolation error (x - x_j)(x_{j+1} - x)/2 * |u''| of
        the cell [x_j, x_{j+1}] holding x (0 at the nodes themselves)."""
        x_arr = np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(self.nodes, x_arr, side="right") - 1, 0, self.nodes.size - 2)
        gap = np.maximum(x_arr - self.nodes[j], 0.0) * np.maximum(self.nodes[j + 1] - x_arr, 0.0)
        return np.interp(x, self.nodes, self.err_est) + gap / 2.0 * self._cell_curvature[j]

    @cached_property
    def _cell_curvature(self) -> np.ndarray:
        """|u''| per cell, the larger second difference at the cell's two nodes.

        A difference centred on a breakpoint node straddles a jump of u' (or
        u''), so next to a breakpoint only the one-sided difference from the
        other end counts; a cell between two breakpoints falls back to both.
        """
        x, u = self.nodes, self.u
        slope = np.diff(u) / np.diff(x)
        d2 = np.full(x.size, np.nan)
        d2[1:-1] = np.abs(2.0 * np.diff(slope) / (x[2:] - x[:-2]))
        both = np.fmax(d2[:-1], d2[1:])
        d2[np.isin(x, self.breakpoints)] = np.nan
        one_sided = np.fmax(d2[:-1], d2[1:])
        return np.nan_to_num(np.where(np.isnan(one_sided), both, one_sided))

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])


def _grid_nodes(model, engine, x_max, h, breakpoint_order, head_end):
    breaks = {0.0, float(x_max)}
    # the order-k sum set holds every sum of fewer atoms too
    breaks.update(float(v) for v in engine.kinks(breakpoint_order) if v < x_max)
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


# Rows per block of an AC march are chosen so that each (rows, columns)
# temporary of the tail-moment broadcast holds at most this many floats
# (128 KB).
_BLOCK_FLOATS = 1 << 14


def _sum_error(a, b, s):
    """a + b - s exactly, for s the rounded a + b (Knuth's TwoSum)."""
    t = s - a
    return (a - (s - t)) + (b - t)


def _march(model: LevyModel, nodes: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Product-integration march: exact kernel, piecewise-linear u.

    Row r solves drift*u_r + int_0^{x_r} u(x_r - y)(tbar(y) + q) dy = 1 for
    the interpolant u.  With U the running integral of u, q contributes
    q U(x_r) and an atom of mass m at a contributes m (U(x_r) - U(x_r - a)):
    its kernel is the step 1{y < a}.  U is kept at the nodes as a
    compensated (hi, lo) pair, so a lag term far from 0 keeps the digits
    that U itself would lose.  A block of rows starts after node i-1 and
    ends where its lags x_r - a pass x_{i-1}; each row then adds its
    block's own partial integral P_r = U(x_r) - U(x_{i-1}), also a
    compensated sum, to the known differences U(x_{i-1}) - U(x_r - a).
    An atom shorter than a cell makes one-row blocks, whose in-cell part
    of U(x_r - a) is linear in u_r and joins the divisor.  Atom-only
    marches cost O(n * atoms).  An AC tail adds its exact moments against
    the two hat functions of every cell: one broadcast over the block's
    whole history, one matrix-vector product for the columns solved before
    it and forward substitution inside it, with rows capped by
    ``_BLOCK_FLOATS``.
    """
    delta, q, has_ac = model.drift, model.q, model.has_ac
    locs = np.asarray(model.atomic.locations, dtype=float)
    masses = np.asarray(model.atomic.masses, dtype=float)
    weight = q + math.fsum(model.atomic.masses)  # of P_r: q and every atom
    n = nodes.size
    h = np.diff(nodes)
    u = np.where(np.isnan(known), 0.0, known)  # unsolved nodes read as 0
    hi = np.zeros(n)
    lo = np.zeros(n)

    def integrate(i, end):
        """U at nodes i..end-1: U(x_{i-1}) plus the trapezoids' running sum, every rounding kept in lo."""
        d = h[i - 1 : end - 1] * (u[i - 1 : end - 1] + u[i:end]) / 2.0
        p = np.cumsum(d)  # sequential, so step k rounds p[k - 1] + d[k]
        lost = np.cumsum(_sum_error(np.concatenate(([0.0], p[:-1])), d, p))
        s = hi[i - 1] + p
        lo[i:end] = lo[i - 1] + _sum_error(hi[i - 1], p, s) + lost
        hi[i:end] = s

    i = int(np.sum(~np.isnan(known)))
    integrate(1, i)
    while i < n:
        last = nodes[i - 1]
        end = n
        if locs.size:
            # rows whose lags x_r - a all lie at or before x_{i-1}, tested with
            # the subtraction the lags use: adding a can land one ulp off
            end = int(np.searchsorted(nodes, last + locs[0], side="right"))
            while end > i and nodes[end - 1] - locs[0] > last:
                end -= 1
            while end < n and nodes[end] - locs[0] <= last:
                end += 1
            end = max(end, i + 1)
        if has_ac:
            end = min(end, i + max(1, int((math.sqrt(i * i + 4 * _BLOCK_FLOATS) - i) / 2)))
        half = h[i - 1 : end - 1] / 2.0
        div = delta + weight * half
        rhs = np.full(end - i, 1.0 - q * (hi[i - 1] + lo[i - 1]))
        if locs.size:
            c = np.searchsorted(nodes, np.maximum(nodes[i:end, None] - locs, 0.0), side="right") - 1
            # x_r - a - x_c in lag space, where x_r - x_c is exact far out:
            # rounding x_r - a itself would shift the atom by ulp(x_r)
            s = np.maximum(nodes[i:end, None] - nodes[c] - locs, 0.0)
            ramp = s * s / (2.0 * h[c])
            # U(x_{i-1}) - U(x_r - a); in cell i - 1, u_r's share joins div
            lag = (hi[i - 1] - hi[c]) + (lo[i - 1] - lo[c]) - (s * u[c] + ramp * (u[c + 1] - u[c]))
            rhs -= lag @ masses
            div -= np.where(c == i - 1, ramp, 0.0) @ masses
        if has_ac:
            w = np.maximum(nodes[i:end, None] - nodes[None, :end], 0.0)  # 0 on and above the diagonal
            f0 = model.ac.antiderivative(w)
            f1 = model.ac.first_moment(w)
            m0 = f0[:, :-1] - f0[:, 1:]  # cell c: lags [w_{c+1}, w_c]
            m1 = f1[:, :-1] - f1[:, 1:]
            g = np.zeros_like(w)
            g[:, :-1] = (m1 - w[:, 1:] * m0) / h[: end - 1]   # hat function of the cell's left node
            g[:, 1:] += (w[:, :-1] * m0 - m1) / h[: end - 1]  # ... and of its right node
            rhs -= g[:, :i] @ u[:i]
            block = g[:, i:]
            div += np.diagonal(block)
        # P_r = p + carry, a compensated sum: its roundings would add up
        # over the block's rows
        p, carry, before = 0.0, 0.0, float(u[i - 1])
        for r, (b, hr, d) in enumerate(zip(rhs.tolist(), half.tolist(), div.tolist())):
            if has_ac:
                b -= block[r, :r] @ u[i : i + r]
            u[i + r] = now = (b - weight * ((p + carry) + hr * before)) / d
            step = hr * (before + now)
            total = p + step
            t = total - p
            carry += (p - (total - t)) + (step - t)  # _sum_error, inline
            p, before = total, now
        integrate(i, end)
        i = end
    return u


def u_volterra(
    model: LevyModel,
    x_max: float,
    h_target: float = 0.004,
    tol: float = 1e-7,
    breakpoint_order: int = 2,
    max_refine: int = 3,
) -> DensityGrid:
    """Solve the renewal equation on [0, x_max] with step-halving control.

    The returned grid carries an error estimate per node taken from the
    final step-halving comparison; a disagreement above 10*tol after
    ``max_refine`` halvings, or a non-finite u, raises
    AccuracyFailureError.  x_max, h_target
    and tol must be finite and > 0, and max_refine and breakpoint_order
    >= 1, else ValueError names the argument.
    """
    for name, value in (("x_max", x_max), ("h_target", h_target), ("tol", tol)):
        check_positive(name, value)
    for name, value in (("max_refine", max_refine), ("breakpoint_order", breakpoint_order)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    engine = ConvolutionEngine(model, x_max)
    # with atoms and an AC tail the march needs fewer nodes after a shorter
    # head: on a 2-vCPU host, the unit atom plus stable (0.2, 0.4) to 1.5
    # solves in 0.23 s at level 0.2 and in 0.72 s at 0.45
    head_level = 0.2 if (model.has_atoms and model.has_ac) else 0.45
    head_end = series_radius(model, x_max, engine, level=head_level)
    head_end = min(head_end, x_max)
    series_tol = min(tol * 1e-2, 1e-10)

    def solve(h, prev_x, prev_u):
        """March on the grid of step h; head nodes the coarser grid shares keep its series values."""
        nodes, breaks = _grid_nodes(model, engine, x_max, h, breakpoint_order, head_end)
        head = nodes <= head_end * (1 + 1e-15)
        hx = nodes[head]
        values = np.full(hx.size, np.nan)
        if prev_x.size:
            j = np.minimum(np.searchsorted(prev_x, hx), prev_x.size - 1)
            shared = prev_x[j] == hx
            values[shared] = prev_u[j[shared]]
        new = np.isnan(values)
        if np.any(new):
            values[new] = u_series(model, hx[new], tol=series_tol, engine=engine)[0]
        known = np.full(nodes.size, np.nan)
        known[head] = values
        u = _march(model, nodes, known)
        return nodes, breaks, u, head

    h = float(h_target)
    nodes1, breaks, u1, head1 = solve(h, np.empty(0), np.empty(0))
    for attempt in range(max_refine):
        nodes2, _, u2, head2 = solve(h / 2.0, nodes1[head1], u1[head1])
        diff = np.abs(np.interp(nodes1, nodes2, u2) - u1)
        max_diff = float(diff.max()) if diff.size else 0.0
        if not (math.isfinite(max_diff) and np.isfinite(u2).all()):  # NaN passes both tests below
            raise AccuracyFailureError("the march gave a non-finite u", math.inf, tol)
        if max_diff <= 10.0 * tol or attempt == max_refine - 1:
            if max_diff > 10.0 * tol:
                raise AccuracyFailureError("step-halving disagreement after max refinement", max_diff, tol)
            err = np.interp(nodes2, nodes1, diff)
            err[head2] = series_tol
            method = np.where(head2, "series", "volterra")
            return DensityGrid(
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
    bound, and a tol that bound cannot meet within 400 terms raises
    AccuracyFailureError, as in ``u_series``; beyond the radius, terms are added until the newest term at x_max drops
    below tol (the series converges everywhere; the documented tolerance for
    this extension is ``tol`` against the Volterra-validated density).
    x_max and tol must be finite and > 0, else ValueError names the argument.
    """
    check_positive("x_max", x_max)
    check_positive("tol", tol)
    if engine is None:
        engine = ConvolutionEngine(model, x_max)
    delta = model.drift
    nodes = np.linspace(0.0, x_max, n_nodes)
    m_end = engine.mass_scale(x_max)
    if m_end <= _SERIES_LEVEL:
        # orders 0..n_terms: the terms u_series would sum, and at least two
        n_terms = max(1, _truncation(m_end, delta, tol)[1] - 1)
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
        term = engine.running(n, nodes) / delta ** (n + 1)
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


def laplace_crosscheck(model: LevyModel, lam, tol: float = 1e-6,
                       grid: Optional[DensityGrid] = None):
    """Compare int_0^inf e^{-lam x} u^(q)(x) dx against 1/(q + psi(lam)).

    The integral over [0, x_max] uses the grid's piecewise-linear density
    against exact exponential cell moments; beyond x_max the tail is bounded
    by e^{-lam x_max}/(drift*lam) since u <= 1/drift.  lam is a number or a
    1-D array: one grid, long enough for the smallest lam's tail to drop
    below tol, serves every lam (a longer grid only shrinks the other tail
    bounds).  Returns a CrosscheckResult, or a list of them for an array.
    tol must be a finite number > 0, else ValueError names it.
    """
    check_positive("tol", tol)
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lam must be a number or a non-empty 1-D array")
    if not np.all(np.isfinite(lams) & (lams > 0)):
        raise PreconditionError("crosscheck requires finite lam > 0")
    delta = model.drift
    if grid is None:
        x_max = max(min(max(math.log(2.0 / (tol * delta * v)) / v, 1.0), 1e4) for v in lams.tolist())
        grid = u_volterra(model, x_max, tol=min(tol * 0.1, 1e-7))
    x_max = grid.x_max
    xs = grid.nodes
    us = grid.u
    h = np.diff(xs)
    ui, uj = us[:-1], us[1:]
    slope = (uj - ui) / h
    results = []
    for v in lams.tolist():
        tail_bound = math.exp(-v * x_max) / (delta * v)
        if tail_bound > tol:
            raise PreconditionError(
                f"tail bound {tail_bound:.3e} exceeds tolerance at lam={v}; increase x_max"
            )
        e = np.exp(-v * xs)
        ei, ej = e[:-1], e[1:]
        # int_{xi}^{xj} e^{-lam x} (ui + slope (x - xi)) dx, exact per cell
        term = ui * (ei - ej) / v + slope * ((ei - ej) / v**2 - h * ej / v)
        lhs = float(np.sum(term))
        rhs = 1.0 / (model.q + model.laplace_exponent(v))
        results.append(CrosscheckResult(lam=v, lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs),
                                        tail_bound=tail_bound, x_max=x_max))
    return results[0] if np.ndim(lam) == 0 else results
