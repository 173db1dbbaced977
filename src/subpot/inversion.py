"""Density and derivative evaluation through Bromwich-contour inversion.

The density splits into a finite alternating sum of running convolutions
plus a remainder whose bilateral Laplace transform is explicit:

    u(x) = sum_{n<N} (-1)^n d^-(n+1) (1 * (tbar+q)^{*n})(x) + remainder(x),
    remainder_transform(s) = (-T(s))^N / (s * d^(N+1) * (1 + T(s)/d)),

with T(s) the transform of (tbar + q) and d the drift.  The derivative
replaces the running convolutions by the powers (tbar+q)^{*n} and drops
the 1/s factor.  Its two one-sided limits differ only in the n = 1 term,
-(q + tbar(x-/x+))/d^2, so one contour integral serves both sides.  The
derivative of order j >= 2 differentiates the powers j - 1 times and
multiplies the integrand by s^(j-1):

    u^(j)(x+-) = sum_{n<N} (-1)^n d^-(n+1) (pc^{*n})^(j-1)(x+-)
                 + Bromwich integral of s^(j-1) (-T)^N / (d^(N+1) (1 + T/d)),

with pc the piecewise-constant kernel of the atoms and q.  Only the finite
sum is one-sided, so again one contour serves both sides.  The engine has
no closed form for derivatives of the AC cross terms, so orders j >= 2 are
given for models without an AC part only.

``_split_contour`` picks or checks the order N and places the truncation point
Theta by a proved bound.  With finitely many atoms, lam >= 0 and theta > 0,

    |T(lam + i theta)| <= tau(theta) = c1/theta + g theta^(abar-1),
    c1 = q + sum_a m_a (1 + e^{-lam a}),   g = C Gamma(1-alpha),

since |s|, |s + b| >= theta, |1 - e^{-s a}| <= 1 + e^{-lam a} and
alpha - 1 < 0 (abar = alpha; g = abar = 0 without an AC part).  Past
theta0, where tau <= d/2, |1 + T/d| >= 1/2 and the remainder is at most
2 tau^N |s|^-e / d^(N+1), e = 1 for the density's 1/s and 1 - j for the
order-j derivative's s^(j-1).  For e >= 0, |s|^-e <= theta^-e; for e < 0,
|s|^-e <= theta^-e (1 + lam^2/Theta^2)^(-e/2) past Theta.  Past Theta,
tau(theta) <= kappa theta^(abar-1) with kappa = c1 Theta^-abar + g, so the
tail of the integral is at most 2 kappa^N Theta^-rho / (rho d^(N+1)), times
that factor for e < 0, with rho = N (1 - abar) + e - 1; the order floor,
set by the padded decay |theta|^(N*(beta+eps-1)-e) with beta the
small-jump index, keeps rho > 0.  Theta is the smallest point where
e^{lam x}/pi times that tail is at most tol/2.  The integral on [0, Theta]
uses panels no wider than one half-oscillation of e^{i theta x} with
15-point Gauss-Legendre, using Hermitian symmetry to fold onto theta >= 0.

Every N is an identity, so with N=None the order only trades panels against
convolution orders and roundoff, and it is chosen by predicted cost.  For
each order n <= 16 whose panels fit PANEL_BUDGET, Theta_n and the panel
count are known before any integrand evaluation.  The predicted cost is 15
integrand points per panel plus a fixed cost per order of the finite sum
(``_order_cost``): orders 1 .. N-1 for the density, 2 .. N-1 for a
derivative of any order, whose ladders ``pc_power`` builds from 2 up.
The predicted err_est at the largest x is
e^{lam x} (tail_n/pi + 1e-13 (M_n + 1)), with M_n the integral over
[0, Theta_n] of a majorant of |remainder|.  As tbar + q >= 0,
|T(lam + i theta)| <= T(lam), and |T| <= c1/|s| + g |s + b|^(abar-1)
(b = 0 for the stable tail).  With Phi(s) = s (d + T(s)) the Laplace
exponent, |1 + T/d| = |Phi(s)|/(d|s|) is at least Phi(lam)/(d|s|), since
Re Phi(s) >= Phi(lam), and 1 - |T|/d; as every part of T but the atoms'
part A has Re >= 0 and |A| <= c_atoms/|s|, it is also at least
1 - c_atoms/(d|s|) and (|T| - 2 c_atoms/|s|)/d.  So M_n bounds the
integral's magnitude up to the trapezoid rule on 288 points.  On the
imaginary axis (lam = 0) Phi(0) = 0, and with atoms no bound may be
positive near theta = 0; then M_n is infinite and so is every predicted
err_est.  The scan takes the cheapest order whose predicted err_est meets
tol, else the order with the least, the lowest of equals.  The choice
depends on the model, the largest x, lam, tol and the quantity only.

One call serves x, a number or a non-empty 1-D array of finite numbers
> 0 (``check_points``, else ValueError naming x), with one contour: lam
(``default_lambda(max x)`` unless given), N, Theta and the panel set,
width pi/max(x_max, a_max, 1), are chosen once at the largest x, where
e^{lam x} is largest, and the integrand is evaluated once on that node
set.  The panels form two uniform runs (a fine one near the real axis and
the rest), so a node is lo_k + off_j and the phase factors as
e^{i x lo_k} e^{i x off_j}: per run, one (xs x 15) table of
e^{i x off_j}, and per block of panels and chunk of x, one (panels x 15)
by 15 product per x and one array pass over the chunk's (x, panel) pairs
with e^{i x lo_k}, never a (nodes x xs) array.  A chunk holds at most
``_CHUNK_ENTRIES`` pairs, and an x's value does not depend on its chunk.
Every x reports its own e^{lam x} (tail/pi + 1e-13 (|integral| + 1)), at
most tol/2 plus roundoff.

For killing rate zero and finite mean the derivative pair is valid on the
imaginary axis itself (lam = 0), which is what makes the derivative's
decay at infinity computable without e^{lam*x} amplification.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .convolve import ConvolutionEngine, _gauss_legendre, _unwrap
from .errors import (AccuracyFailureError, ContourOrderError, ModelValidationError, PreconditionError, check_points,
                     check_positive)
from .model import LevyModel, Side

DENOM_FLOOR = 1e-10


def contour_epsilon(beta: float) -> float:
    """Decay-padding exponent: any eps with beta + eps < 1 works."""
    return min(0.05, (1.0 - beta) / 4.0)


def default_lambda(x: float) -> float:
    """Contour abscissa heuristic, balancing e^{lam x} against 1/lam growth."""
    return float(min(max(1.0 / x, 1e-3), 10.0))


def tail_transform(model: LevyModel, s):
    """Bilateral Laplace transform of (tbar + q) at s with Re(s) >= 0, s != 0.

    Per atom (a, m): m (1 - e^{-s a})/s; stable tail: C Gamma(1-alpha)
    s^(alpha-1); tempered tail: C Gamma(1-alpha) (s+b)^(alpha-1); killing:
    q/s.  Principal branch throughout; the contour never crosses the
    negative real axis.
    """
    s_arr = np.asarray(s, dtype=complex)
    if np.any(s_arr == 0):
        raise ZeroDivisionError("tail transform has a pole at s = 0")
    out = np.zeros_like(s_arr)
    for a, m in zip(model.atomic.locations, model.atomic.masses):
        out += m * (-np.expm1(-s_arr * a)) / s_arr
    ac = model.ac
    if not ac.is_none:
        out += ac.g * np.exp((ac.alpha - 1.0) * np.log(s_arr + ac.tempering))
    if model.q:
        out += model.q / s_arr
    return out if np.ndim(s) else complex(out)


def _remainder(model: LevyModel, N: int, s, over_s: bool):
    """(-T)^N / ([s] d^(N+1) (1 + T/d)) with T = tail_transform(model, s)."""
    s_arr = np.asarray(s, dtype=complex)
    t = tail_transform(model, s_arr)
    den = 1.0 + t / model.drift
    if np.min(np.abs(den)) < DENOM_FLOOR:
        raise ModelValidationError(
            [("", "transform denominator nearly singular on the contour; model violates contour positivity")]
        )
    val = (-t) ** N / ((s_arr if over_s else 1.0) * model.drift ** (N + 1) * den)
    return val if np.ndim(s) else complex(val)


def density_integrand(model: LevyModel, N: int, s):
    """Bromwich integrand of the order-N density remainder."""
    return _remainder(model, N, s, over_s=True)


def derivative_integrand(model: LevyModel, N: int, s):
    """Bromwich integrand of the order-N derivative remainder (no 1/s factor)."""
    return _remainder(model, N, s, over_s=False)


# ---------------------------------------------------------------------------
# oscillatory quadrature with a proved tail bound
# ---------------------------------------------------------------------------

# panels allowed per integral
PANEL_BUDGET = 400_000
# predicted cost of a call in integrand points (15 per panel); an order of the
# finite sum adds a ladder step and, with an AC part, its cross terms: one
# batched closed form without atoms, and with atoms one Gauss-Legendre batch
# per lower order on top.  Measured on 8 x on a 2-vCPU host: an integrand
# point takes 0.17-0.3 us (about 1 us with 8 atoms), an atom-free order's
# cross terms 0.1-0.15 ms and, with atoms, each cross term 0.17-0.27 ms.  A
# ladder step took 0.3 ms when its constant was set and 0.1-0.2 ms now; it
# is kept, so that atom-only models keep their orders.
_LADDER_COST, _CLOSED_COST, _CROSS_COST = 1000.0, 500.0, 1000.0
# panels per integrand call: bounds the memory of a long contour
_BLOCK_PANELS = 4096
# (x, panel) pairs summed in one array pass: bounds the memory of many x
_CHUNK_ENTRIES = 2**13


def _panel_width(model: LevyModel, x: float) -> float:
    # one half-oscillation of e^{i theta x}; atoms add their own scale
    a_max = model.atomic.locations[-1] if model.atomic.locations else 0.0
    return math.pi / max(x, a_max, 1.0)


def _panel_counts(theta: float, width: float, lam: float):
    """Panels on [0, min(4*lam, theta)] (lam/2 wide, none for lam = 0) and on the rest."""
    fine_end = min(4.0 * lam, theta)
    n_fine = int(math.ceil(fine_end / min(0.5 * lam, width))) if lam > 0 else 0
    return n_fine, float(np.ceil((theta - fine_end) / width))


def _panel_runs(theta: float, width: float, lam: float):
    """Panels on [0, theta] as uniform runs (first edge, panel width, count).

    Near the real axis the integrand varies on the scale of lam, so a fine
    run covers [0, min(4*lam, theta)]; the rest are at most ``width`` wide.
    """
    n_fine, n_rest = _panel_counts(theta, width, lam)
    fine_end = min(4.0 * lam, theta)
    runs = [(0.0, fine_end, n_fine), (fine_end, theta, int(n_rest))]
    return [(a, (b - a) / n, n) for a, b, n in runs if n > 0]


def _oscillatory(fn, xs: np.ndarray, runs) -> np.ndarray:
    """int e^{i theta x} fn(theta) dtheta over the paneled range, for every x in xs.

    fn is evaluated once on every node, in one call when there are at most
    ``_BLOCK_PANELS`` panels and one call per block of that many otherwise,
    so memory does not grow with the panel count.  In a run the nodes are
    lo_k + off_j, so the sum factors as sum_k e^{i x lo_k} (F @ P[x])[k],
    F[k, j] = fn(lo_k + off_j), P[x, j] = w_j e^{i x off_j}, one phase
    table per run.  A block is summed for a chunk of x at a time, of at
    most ``_CHUNK_ENTRIES`` (x, panel) pairs, so no array outgrows the
    block.  F @ P[x] is one matrix-vector product per x and the sum over k
    runs along each x's own row, so an x's value does not depend on the
    x it is chunked with (a matrix product over many x would change its
    summation order with their number).
    """
    nodes, weights = _gauss_legendre(15)
    blocks = []  # (panel starts, offsets, phase table) for every block of every run
    for a, h, n in runs:
        off = 0.5 * h * (nodes + 1.0)
        phase = 0.5 * h * weights * np.exp(1j * (xs[:, None] * off))
        lo = a + h * np.arange(n)
        blocks += [(lo[k:k + _BLOCK_PANELS], off, phase) for k in range(0, n, _BLOCK_PANELS)]
    calls = [blocks] if sum(lo.size for lo, _, _ in blocks) <= _BLOCK_PANELS else [[b] for b in blocks]
    out = np.zeros(xs.size, dtype=complex)
    for call in calls:
        vals = fn(np.concatenate([(lo[:, None] + off).ravel() for lo, off, _ in call]))
        at = 0
        for lo, off, phase in call:
            f = vals[at:at + lo.size * off.size].reshape(lo.size, off.size)
            at += f.size
            step = max(1, _CHUNK_ENTRIES // lo.size)
            for c in range(0, xs.size, step):
                g = np.matmul(f, phase[c:c + step, :, None])[:, :, 0]
                out[c:c + step] += (np.exp(1j * (xs[c:c + step, None] * lo)) * g).sum(axis=1)
    return out


def _smallest_theta(f, level: float, lo: float) -> float:
    """Smallest theta >= lo with f(theta) <= level, to 1e-9 relative, for decreasing f.

    Returns inf if f stays above level up to 1e300.
    """
    a, b = lo, lo
    while f(b) > level:
        if b >= 1e300:
            return math.inf
        a, b = b, min(2.0 * b * b / a, 1e300)
    while b > a * (1.0 + 1e-9):
        # the geometric mean; past 1e154 a * b overflows, so take it in two roots there
        mid = math.sqrt(a * b) if a * b < math.inf else math.sqrt(a) * math.sqrt(b)
        a, b = (a, mid) if f(mid) <= level else (mid, b)
    return b


def _contour_integral(fn, xs, theta, tail, width, lam):
    """Folded Bromwich integral over [0, Theta] at every x, and tail bound plus panel roundoff scale."""
    main = _oscillatory(fn, xs, _panel_runs(theta, width, lam))
    return main.real / math.pi, tail / math.pi + 1e-13 * (np.abs(main) + 1.0)


def _abscissa(xs: np.ndarray, lam: Optional[float]) -> float:
    """Validated contour abscissa, defaulting to ``default_lambda`` at the largest x."""
    lam = default_lambda(float(xs.max())) if lam is None else lam
    if not lam > 0:
        raise PreconditionError("contour abscissa lam must be > 0")
    return lam


def _no_order(tol: float, panels: dict) -> AccuracyFailureError:
    """No order fits ``PANEL_BUDGET``; panels maps each order scanned to the panels its Theta needs."""
    why = "no split order up to 16 meets the tolerance within the panel budget"
    if panels:
        n = min(panels, key=panels.get)
        why += f"; the cheapest, N={n}, needs {panels[n]:.4g} panels against {PANEL_BUDGET}"
    return AccuracyFailureError(why, math.inf, tol)


def _order_cost(model: LevyModel, n: int) -> float:
    """Predicted cost of order n of the finite sum, in integrand points (``_LADDER_COST``)."""
    cost = 0.0 if model.atomic.is_empty and model.q == 0.0 else _LADDER_COST
    if not model.ac.is_none:
        cost += _CLOSED_COST if model.atomic.is_empty else (n - 1) * _CROSS_COST
    return cost


def _split_contour(model: LevyModel, xs: np.ndarray, N: Optional[int], lam: float, tol: float,
                   integrand, e: int):
    """Split order, truncation and the amplified remainder integral at every x.

    ``integrand(model, n, s)`` is the order-n remainder transform times
    s^-e: e = 1 for the density's 1/s, 1 - j for the order-j derivative's
    s^(j-1).  Orders whose decay is not integrable
    are refused.  The order, Theta and the panels are chosen once, at the
    largest x, where e^{lam x} is largest.  Returns (N, integral, err),
    arrays over xs with e^{lam x} already applied to both; the truncation
    leaves at most tol/2 of err at every x.

    N=None takes, among the orders up to 16 within ``PANEL_BUDGET``, the
    cheapest whose predicted err_est meets tol, else the lowest with the
    least predicted err_est.  Both predictions come before any integrand
    evaluation (module docstring).  tol must be a finite number > 0.
    """
    check_positive("tol", tol)
    beta = model.bg_index()
    # smallest order with an integrable remainder
    n_min = max(1, math.floor((1.0 + 1e-12 - e) / (1.0 - beta - contour_epsilon(beta))) + 1)
    x_max = float(xs.max())
    width, amp, drift = _panel_width(model, x_max), math.exp(lam * x_max), model.drift
    # tau(theta) = c1/theta + g theta^(abar-1) bounds |T| (module docstring)
    c_atoms = sum(m * (1.0 + math.exp(-lam * a)) for a, m in zip(model.atomic.locations, model.atomic.masses))
    c1 = model.q + c_atoms
    g, b, abar = model.ac.g, model.ac.tempering, (model.ac.alpha if model.has_ac else 0.0)
    # at least one panel, so a vanishing tau still integrates theta > 0
    theta0 = _smallest_theta(lambda t: c1 / t + g * t ** (abar - 1.0), 0.5 * drift, width)
    # T(lam) >= |T(lam + i theta)|, and Phi(lam) = lam (d + T(lam)) <= Re Phi(lam + i theta)
    t_lam = tail_transform(model, lam).real if lam > 0 else model.mean() - drift
    phi_lam = lam * (drift + t_lam)

    # |s|^-e over theta^-e past t, for the s^(j-1) of a derivative of order j >= 2
    grow = (lambda t: (1.0 + (lam / t) ** 2) ** (-0.5 * e)) if e < 0 else (lambda t: 1.0)

    def truncation(n):
        rho = n * (1.0 - abar) + e - 1.0
        tail = lambda t: 2.0 * (c1 * t**-abar + g) ** n * t**-rho / (rho * drift ** (n + 1)) * grow(t)
        theta = _smallest_theta(tail, 0.5 * math.pi * tol / amp, theta0)
        return theta, tail(theta), sum(_panel_counts(theta, width, lam))

    def magnitude(n, theta):
        # int_0^theta of max |T/d|^n / (|s|^e d |1 + T/d|) by the trapezoid rule
        # (module docstring); u bounds |T|/d, w the atoms' part of it
        edge = min(theta, 4.0 * lam if lam > 0 else 1.0)
        th = np.concatenate([np.linspace(0.0, edge, 33)[:-1], np.geomspace(edge, theta, 256)])
        s = np.maximum(np.hypot(lam, th), 1e-300)
        u = np.minimum(t_lam, c1 / s + g * (np.hypot(lam + b, th) if b else s) ** (abar - 1.0)) / drift
        w = c_atoms / (drift * s)
        # a lower bound on |1 + T/d|; where none is positive the magnitude is unbounded
        den = np.maximum.reduce([phi_lam / (drift * s), 1.0 - u, 1.0 - w, np.zeros_like(s)])
        with np.errstate(divide="ignore"):
            # sup of v^n / max(den, v - 2w) over 0 <= v <= u
            ratio = np.maximum(u**n / np.maximum(den, u - 2.0 * w), np.minimum(u, 2.0 * w + den) ** n / den)
        return float(np.trapezoid(ratio / (s**e * drift), th))

    if N is not None:
        if N < 1:
            raise ValueError("N must be >= 1")
        if N < n_min:
            raise ContourOrderError(N, n_min)
        theta, tail, panels = truncation(N)
        if panels > PANEL_BUDGET:
            needs = {N: panels}
            for n in range(N + 1, 17):
                needs[n] = truncation(n)[2]
                if needs[n] <= PANEL_BUDGET:
                    raise ContourOrderError(N, n, panel_budget=PANEL_BUDGET)
            raise _no_order(tol, needs)
    else:
        best = None  # (misses tol, predicted cost or err_est, n, theta, tail)
        needs = {}  # panels of the orders past the budget
        for n in range(n_min, 17):
            # the density's finite sum runs over orders 1 .. n - 1; a derivative's builds the ladders 2 .. n - 1
            engine_cost = sum(_order_cost(model, m) for m in range(1 if e == 1 else 2, n))
            if best is not None and not best[0] and engine_cost >= best[1]:
                break  # the finite sum alone costs more than the best order so far
            theta, tail, panels = truncation(n)
            if panels > PANEL_BUDGET:
                needs[n] = panels
                continue
            err = amp * (tail / math.pi + 1e-13 * (magnitude(n, theta) + 1.0))
            key = (False, engine_cost + 15.0 * panels) if err <= tol else (True, err)
            if best is None or key < best[:2]:
                best = (*key, n, theta, tail)
        if best is None:
            raise _no_order(tol, needs)
        N, theta, tail = best[2:]
    integral, err = _contour_integral(lambda th: integrand(model, N, lam + 1j * th), xs, theta, tail,
                                      width, lam)
    amps = np.exp(lam * xs)
    return N, amps * integral, amps * err


def invert_density(model: LevyModel, x, N: Optional[int] = None, lam: Optional[float] = None,
                   tol: float = 1e-8, engine: Optional[ConvolutionEngine] = None):
    """u^(q)(x) through the order-N split representation.

    x is a number or a 1-D array; one contour serves every x, with lam
    defaulting to ``default_lambda(max x)``.  Returns (value, err_est),
    floats for a number and arrays for an array; err_est is the proved
    contour tail bound beyond Theta plus the panel roundoff scale, each
    amplified by its own e^{lam x}.  Any N >= 1 is an identity, but a
    small N may need a truncation point beyond the panel budget; that
    raises ContourOrderError citing the smallest order that fits.  N=None
    picks the cheapest order predicted to meet tol (module docstring).
    """
    xs = check_points("x", x)
    N, integral, err = _split_contour(model, xs, N, _abscissa(xs, lam), tol, density_integrand, 1)
    if engine is None:
        engine = ConvolutionEngine(model, float(xs.max()))
    return _unwrap(engine.alternating_sum(xs, 0, N) + integral, x), _unwrap(err, x)


def _derivative_pair(model, x, xs, N, lam, tol, engine, order=1):
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > 1 and model.has_ac:
        raise PreconditionError(f"one-sided derivatives of order {order} need a model without an AC part")
    integrand = derivative_integrand if order == 1 else (
        lambda m, n, s: s ** (order - 1) * derivative_integrand(m, n, s))
    N, integral, err = _split_contour(model, xs, N, lam, tol, integrand, 1 - order)
    if engine is None:
        engine = ConvolutionEngine(model, float(xs.max()))
    if order == 1:
        # orders n >= 2 are continuous; the n = 1 term carries the atom's jump
        base = engine.alternating_sum(xs, 2, N, Side.RIGHT)
        left, right = (-engine.power(1, xs, side) / model.drift**2 + base + integral
                       for side in (Side.LEFT, Side.RIGHT))
    else:
        # (pc^{*n})^(order-1) vanishes for n < order, as pc^{*n} has degree n - 1
        terms = []
        for n in range(order, N):
            poly = engine.pc_power(n)
            for _ in range(order - 1):
                poly = poly.derivative()
            terms.append(((-1.0) ** n / model.drift ** (n + 1), poly))
        left, right = (sum(c * p.eval(xs, side_left=side_left) for c, p in terms) + integral
                       for side_left in (True, False))
    return _unwrap(left, x), _unwrap(right, x), _unwrap(err, x)


def invert_derivative_pair(model: LevyModel, x, N: Optional[int] = None,
                           lam: Optional[float] = None, tol: float = 1e-8,
                           engine: Optional[ConvolutionEngine] = None, order: int = 1):
    """Both one-sided derivatives of u^(q) of the given order at x from one contour integral.

    Order 1: the sides differ only in the n = 1 term, -(q + tbar(x-/x+))/drift^2,
    so right - left is the atom mass at x over drift^2.  Order j >= 2 needs a
    model without an AC part (else PreconditionError): its finite sum is
    (pc^{*n})^(j-1) read on each side, and its jump at a point of minimal
    jump count j is J_j/drift^(j+1).  Needs N large enough that the
    remainder is integrable (N > j/(1 - beta)); a too-small explicit N
    raises ContourOrderError citing the required order.  N=None picks the
    cheapest order predicted to meet tol.  x is a number or a 1-D array,
    as for ``invert_density``.  Returns (left, right, err_est); err_est
    bounds each side's contour error.
    """
    xs = check_points("x", x)
    return _derivative_pair(model, x, xs, N, _abscissa(xs, lam), tol, engine, order)


def derivative_zero_contour(model: LevyModel, x, N: Optional[int] = None,
                            tol: float = 1e-9, engine: Optional[ConvolutionEngine] = None):
    """u'(x-), u'(x+) on the imaginary axis (q = 0, finite mean).

    The derivative pair at lam = 0 avoids the e^{lam x} amplification
    entirely, which is what makes the derivative at large x resolvable.
    x is a number or a 1-D array.  Returns (left, right, err_est).
    """
    xs = check_points("x", x)
    if model.q != 0.0:
        raise PreconditionError("imaginary-axis contour requires q = 0")
    if not math.isfinite(model.mean()):
        raise PreconditionError("imaginary-axis contour requires a finite mean")
    return _derivative_pair(model, x, xs, N, 0.0, tol, engine)
