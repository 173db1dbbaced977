"""Density and derivative evaluation through Bromwich-contour inversion.

The density splits into a finite alternating sum of running convolutions
plus a remainder whose bilateral Laplace transform is explicit:

    u(x) = sum_{n<N} (-1)^n d^-(n+1) (1 * (tbar+q)^{*n})(x) + remainder(x),
    remainder_transform(s) = (-T(s))^N / (s * d^(N+1) * (1 + T(s)/d)),

with T(s) the transform of (tbar + q) and d the drift.  The derivative
replaces the running convolutions by the powers (tbar+q)^{*n} and drops
the 1/s factor.  Its two one-sided limits differ only in the n = 1 term,
-(q + tbar(x-/x+))/d^2, so one contour integral serves both sides.

Both remainders decay along a vertical contour like |theta|^(N*(beta+eps-1))
(one extra power of decay for the density), where beta is the small-jump
index.  One driver picks or checks the order N, places the truncation
point Theta from a conservatively fitted tail constant, and evaluates the
integral on panels no wider than one half-oscillation of e^{i theta x}
with 15-point Gauss-Legendre, using Hermitian symmetry to fold onto
theta >= 0.

For killing rate zero and finite mean the derivative pair is valid on the
imaginary axis itself (lam = 0), which is what makes the derivative's
decay at infinity computable without e^{lam*x} amplification.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import gamma as _gamma

from .convolve import ConvolutionEngine
from .errors import AccuracyFailureError, ContourOrderError, ModelValidationError, PreconditionError
from .model import LevyModel, Side

_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)
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
        g = ac.C * _gamma(1.0 - ac.alpha)
        base = s_arr if ac.kind == "stable" else s_arr + ac.b
        out += g * np.exp((ac.alpha - 1.0) * np.log(base))
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
# oscillatory quadrature with analytic tail control
# ---------------------------------------------------------------------------


def _panel_width(model: LevyModel, x: float) -> float:
    # one half-oscillation of e^{i theta x}; atoms add their own scale
    a_max = model.atomic.locations[-1] if model.atomic.locations else 0.0
    return math.pi / max(x, a_max, 1.0)


def _panel_edges(theta_lo: float, theta_hi: float, width: float, lam: float) -> np.ndarray:
    """Panel boundaries on [theta_lo, theta_hi].

    Near the real axis the integrand varies on the scale of lam, so a fine
    zone [0, 4*lam] with panels of lam/2 precedes the half-oscillation grid
    (none for lam = 0).
    """
    pieces = []
    start = theta_lo
    if theta_lo < 4.0 * lam:
        fine_end = min(4.0 * lam, theta_hi)
        fine_w = min(0.5 * lam, width)
        n = max(1, int(math.ceil((fine_end - start) / fine_w)))
        pieces.append(np.linspace(start, fine_end, n + 1))
        start = fine_end
    if start < theta_hi:
        n = max(1, int(math.ceil((theta_hi - start) / width)))
        grid = np.linspace(start, theta_hi, n + 1)
        pieces.append(grid if not pieces else grid[1:])
    return np.concatenate(pieces) if pieces else np.array([theta_lo, theta_hi])


def _oscillatory(fn, x: float, edges: np.ndarray) -> complex:
    """int e^{i theta x} fn(theta) dtheta over the paneled range."""
    lo = edges[:-1]
    half = 0.5 * np.diff(edges)
    nodes = (lo[:, None] + half[:, None] * (_GL15_NODES[None, :] + 1.0)).ravel()
    vals = fn(nodes) * np.exp(1j * x * nodes)
    w = (half[:, None] * _GL15_WEIGHTS[None, :]).ravel()
    return complex(np.dot(w, vals))


def _truncation(fn, slope: float, tol: float, theta_from: float):
    """Theta with the analytic tail below tol/2, given decay exponent slope."""
    # conservative C with |fn| <= C * theta^slope for theta >= theta_from
    probes = np.geomspace(theta_from, theta_from * 1e3, 24)
    c = max(2.0 * float(np.max(np.abs(fn(probes)) * probes ** (-slope))), 1e-300)
    tail = lambda t: c * t ** (slope + 1.0) / (-(slope + 1.0))
    theta = (tol * 0.5 * (-(slope + 1.0)) / c) ** (1.0 / (slope + 1.0))
    theta = max(theta, theta_from, 10.0)
    return theta, tail


def _order_scan(slope, tol: float, width: float, budget: int, fn_factory, n_min: int):
    """Smallest split order whose truncation point fits the panel budget.

    ``slope(n)`` is the order-n decay exponent.  A first pass looks for an
    order that fits comfortably (the extra convolution terms are far
    cheaper than oscillatory panels); only if none exists is the full
    budget allowed.
    """
    for allowed in (min(budget, 30_000), budget):
        for n in range(n_min, 17):
            theta, tail = _truncation(fn_factory(n), slope(n), tol, 10.0)
            if 2.0 * theta / width <= allowed:
                return n, theta, tail
    raise AccuracyFailureError(
        "no split order up to 16 meets the tolerance within the panel budget", math.inf, tol
    )


def _contour_integral(fn, x, theta, tail, width, lam):
    """Folded Bromwich integral with a post-hoc segment check on [Theta, 2*Theta].

    Returns (integral, err) where the integral already includes the check
    segment; err combines the analytic tail beyond 2*Theta with panel
    roundoff, inflated if the check segment exceeds its analytic bound.
    """
    main = _oscillatory(fn, x, _panel_edges(0.0, theta, width, lam))
    check = _oscillatory(fn, x, _panel_edges(theta, 2.0 * theta, width, 0.0))
    integral = (main + check).real / math.pi
    err = tail(2.0 * theta) / math.pi + 1e-13 * (abs(main) + 1.0)
    if abs(check) > tail(theta):
        err = max(err, abs(check))
    return integral, err


def _abscissa(x: float, lam: Optional[float]) -> float:
    """Validated contour abscissa for x, defaulting to ``default_lambda``."""
    if not x > 0:
        raise ValueError("x must be > 0")
    lam = default_lambda(x) if lam is None else lam
    if not lam > 0:
        raise PreconditionError("contour abscissa lam must be > 0")
    return lam


def _split_contour(model: LevyModel, x: float, N: Optional[int], lam: float, tol: float,
                   theta_cut: Optional[float], panel_budget: int, integrand, extra_decay: float):
    """Split order, truncation and the amplified remainder integral at x.

    ``integrand(model, n, s)`` is the order-n remainder transform, whose
    magnitude decays like |theta|^(n*(beta+eps-1) - extra_decay).  Orders
    whose decay is not integrable are refused.  Returns (N, integral, err)
    with e^{lam x} already applied to both.
    """
    beta = model.bg_index()
    eps = contour_epsilon(beta)
    slope = lambda n: n * (beta + eps - 1.0) - extra_decay
    # smallest order with an integrable remainder (slope below -1)
    n_min = max(1, math.floor((1.0 + 1e-12 - extra_decay) / (1.0 - beta - eps)) + 1)
    width = _panel_width(model, x)
    factory = lambda n: (lambda th: integrand(model, n, lam + 1j * th))
    if N is None:
        N, theta, tail = _order_scan(slope, tol, width, panel_budget, factory, n_min)
    else:
        if N < 1:
            raise ValueError("N must be >= 1")
        if N < n_min:
            raise ContourOrderError(N, n_min)
        theta, tail = _truncation(factory(N), slope(N), tol, max(10.0, 4.0 * lam))
        if theta_cut is None and 2.0 * theta / width > panel_budget:
            n_req, _, _ = _order_scan(slope, tol, width, panel_budget, factory, N + 1)
            raise ContourOrderError(N, n_req)
    if theta_cut is not None:
        theta = float(theta_cut)
    integral, err = _contour_integral(factory(N), x, theta, tail, width, lam)
    amp = math.exp(lam * x)
    return N, amp * integral, amp * err


def invert_density(model: LevyModel, x: float, N: Optional[int] = 3, lam: Optional[float] = None,
                   tol: float = 1e-8, engine: Optional[ConvolutionEngine] = None,
                   theta_cut: Optional[float] = None, panel_budget: int = 400_000):
    """u^(q)(x) through the order-N split representation.

    Returns (value, err_est); err_est combines the analytic contour tail
    beyond 2*Theta with the panel roundoff scale.  Any N >= 1 is an
    identity, but a small N may need a truncation point beyond the panel
    budget; that raises ContourOrderError citing a workable order.
    N=None picks the smallest order that fits the budget.
    """
    lam = _abscissa(x, lam)
    N, integral, err = _split_contour(model, x, N, lam, tol, theta_cut, panel_budget,
                                      density_integrand, 1.0)
    if engine is None:
        engine = ConvolutionEngine(model, x)
    return engine.alternating_sum(x, 0, N) + integral, err


def _derivative_pair(model, x, N, lam, tol, engine, theta_cut, panel_budget):
    N, integral, err = _split_contour(model, x, N, lam, tol, theta_cut, panel_budget,
                                      derivative_integrand, 0.0)
    if engine is None:
        engine = ConvolutionEngine(model, x)
    # orders n >= 2 are continuous; the n = 1 term carries the atom's jump
    base = engine.alternating_sum(x, 2, N, Side.RIGHT)
    left, right = (-(model.tail(x, side) + model.q) / model.drift**2 + base + integral
                   for side in (Side.LEFT, Side.RIGHT))
    return left, right, err


def invert_derivative_pair(model: LevyModel, x: float, N: Optional[int] = None,
                           lam: Optional[float] = None, tol: float = 1e-8,
                           engine: Optional[ConvolutionEngine] = None,
                           theta_cut: Optional[float] = None, panel_budget: int = 400_000):
    """Both one-sided derivatives of u^(q) at x from one contour integral.

    The sides differ only in the n = 1 term, -(q + tbar(x-/x+))/drift^2,
    so right - left is the atom mass at x over drift^2.  Needs N large
    enough that the derivative remainder is integrable (N > 1/(1 - beta));
    a too-small explicit N raises ContourOrderError citing the required
    order.  N=None picks the smallest order that fits the panel budget.
    Returns (left, right, err_est); err_est bounds each side.
    """
    return _derivative_pair(model, x, N, _abscissa(x, lam), tol, engine, theta_cut, panel_budget)


def invert_derivative(model: LevyModel, x: float, side: Side = Side.RIGHT,
                      N: Optional[int] = None, lam: Optional[float] = None,
                      tol: float = 1e-8, engine: Optional[ConvolutionEngine] = None,
                      theta_cut: Optional[float] = None, panel_budget: int = 400_000):
    """One side of ``invert_derivative_pair``: returns (value, err_est)."""
    left, right, err = invert_derivative_pair(model, x, N, lam, tol, engine, theta_cut, panel_budget)
    return (left if side is Side.LEFT else right), err


def derivative_zero_contour(model: LevyModel, x: float, N: Optional[int] = None,
                            tol: float = 1e-9, engine: Optional[ConvolutionEngine] = None,
                            panel_budget: int = 400_000):
    """u'(x-), u'(x+) on the imaginary axis (q = 0, finite mean).

    The derivative pair at lam = 0 avoids the e^{lam x} amplification
    entirely, which is what makes the derivative at large x resolvable.
    Returns (left, right, err_est).
    """
    if not x > 0:
        raise ValueError("x must be > 0")
    if model.q != 0.0:
        raise PreconditionError("imaginary-axis contour requires q = 0")
    if not math.isfinite(model.mean()):
        raise PreconditionError("imaginary-axis contour requires a finite mean")
    return _derivative_pair(model, x, N, 0.0, tol, engine, None, panel_budget)
