"""Density and derivative evaluation through Bromwich-contour inversion.

The density splits into a finite alternating sum of running convolutions
plus a remainder whose bilateral Laplace transform is explicit:

    u(x) = sum_{n<N} (-1)^n d^-(n+1) (1 * (tbar+q)^{*n})(x) + remainder(x),
    remainder_transform(s) = (-T(s))^N / (s * d^(N+1) * (1 + T(s)/d)),

with T(s) the transform of (tbar + q) and d the drift.  The derivative
replaces the running convolutions by the powers (tbar+q)^{*n} and drops
the 1/s factor.  Its two one-sided limits differ only in the n = 1 term,
-(q + tbar(x-/x+))/d^2, so one contour integral serves both sides.

``_split_contour`` picks or checks the order N and places the truncation point
Theta by a proved bound.  With finitely many atoms, lam >= 0 and theta > 0,

    |T(lam + i theta)| <= tau(theta) = c1/theta + g theta^(abar-1),
    c1 = q + sum_a m_a (1 + e^{-lam a}),   g = C Gamma(1-alpha),

since |s|, |s + b| >= theta, |1 - e^{-s a}| <= 1 + e^{-lam a} and
alpha - 1 < 0 (abar = alpha; g = abar = 0 without an AC part).  Past
theta0, where tau <= d/2, |1 + T/d| >= 1/2 and the remainder is at most
2 tau^N / (theta^e d^(N+1)), e = 1 for the density's 1/s and 0 for the
derivative.  Past Theta, tau(theta) <= kappa theta^(abar-1) with
kappa = c1 Theta^-abar + g, so the tail of the integral is at most
2 kappa^N Theta^-rho / (rho d^(N+1)), rho = N (1 - abar) + e - 1; the order
floor, set by the padded decay |theta|^(N*(beta+eps-1)-e) with beta the
small-jump index, keeps rho > 0.  Theta is the smallest point where
e^{lam x}/pi times that tail is at most tol/2.  The integral on [0, Theta]
uses panels no wider than one half-oscillation of e^{i theta x} with
15-point Gauss-Legendre, using Hermitian symmetry to fold onto theta >= 0.

One call serves a number or a 1-D array of x with one contour: lam
(``default_lambda(max x)`` unless given), N, Theta and the panel set,
width pi/max(x_max, a_max, 1), are chosen once at the largest x, where
e^{lam x} is largest, and the integrand is evaluated once on that node
set.  The panels form two uniform runs (a fine one near the real axis and
the rest), so a node is lo_k + off_j and the phase factors as
e^{i x lo_k} e^{i x off_j}: per run and x, one (panels x 15) by 15
product and one dot with e^{i x lo_k}, never a (nodes x xs) array.  Every
x reports its own e^{lam x} (tail/pi + 1e-13 (|integral| + 1)), at most
tol/2 plus roundoff.

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
# oscillatory quadrature with a proved tail bound
# ---------------------------------------------------------------------------

# panels allowed per integral: a first pass looks for an order that fits
# comfortably (the extra convolution terms are far cheaper than oscillatory
# panels); only if none exists is the full budget allowed
PANEL_BUDGET = 400_000
_COMFORTABLE_PANELS = 30_000


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

    fn is evaluated once.  In a run the nodes are lo_k + off_j, so the sum
    factors as sum_k e^{i x lo_k} (F @ E)[k, x], F[k, j] = fn(lo_k + off_j),
    E[j, x] = w_j e^{i x off_j}.  It is formed one x at a time, so no
    array outgrows the nodes (a matrix product over all x would also touch
    BLAS's level-3 work buffer, which shows in peak memory).
    """
    los = [a + h * np.arange(n) for a, h, n in runs]
    offs = [0.5 * h * (_GL15_NODES + 1.0) for _, h, _ in runs]
    vals = fn(np.concatenate([(lo[:, None] + off).ravel() for lo, off in zip(los, offs)]))
    out = np.zeros(xs.size, dtype=complex)
    at = 0
    for (_, h, n), lo, off in zip(runs, los, offs):
        f = vals[at:at + n * off.size].reshape(n, off.size)
        at += f.size
        w = 0.5 * h * _GL15_WEIGHTS
        for i, x in enumerate(xs.tolist()):
            out[i] += np.exp(1j * x * lo) @ (f @ (w * np.exp(1j * x * off)))
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
        mid = math.sqrt(a * b)
        a, b = (a, mid) if f(mid) <= level else (mid, b)
    return b


def _contour_integral(fn, xs, theta, tail, width, lam):
    """Folded Bromwich integral over [0, Theta] at every x, and tail bound plus panel roundoff scale."""
    main = _oscillatory(fn, xs, _panel_runs(theta, width, lam))
    return main.real / math.pi, tail / math.pi + 1e-13 * (np.abs(main) + 1.0)


def _points(x) -> np.ndarray:
    """x (a number or a 1-D array of numbers > 0) as a 1-D float array."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("x must be a number or a non-empty 1-D array")
    if not np.all(xs > 0):
        raise ValueError("x must be > 0")
    return xs


def _abscissa(xs: np.ndarray, lam: Optional[float]) -> float:
    """Validated contour abscissa, defaulting to ``default_lambda`` at the largest x."""
    lam = default_lambda(float(xs.max())) if lam is None else lam
    if not lam > 0:
        raise PreconditionError("contour abscissa lam must be > 0")
    return lam


def _shaped(x, *arrays):
    """Floats for a scalar argument x, else the arrays."""
    return tuple(float(a[0]) for a in arrays) if np.ndim(x) == 0 else arrays


def _split_contour(model: LevyModel, xs: np.ndarray, N: Optional[int], lam: float, tol: float,
                   integrand, e: int):
    """Split order, truncation and the amplified remainder integral at every x.

    ``integrand(model, n, s)`` is the order-n remainder transform, with e = 1
    for a 1/s factor and 0 without.  Orders whose decay is not integrable
    are refused.  The order, Theta and the panels are chosen once, at the
    largest x, where e^{lam x} is largest.  Returns (N, integral, err),
    arrays over xs with e^{lam x} already applied to both; the truncation
    leaves at most tol/2 of err at every x.
    """
    beta = model.bg_index()
    # smallest order with an integrable remainder
    n_min = max(1, math.floor((1.0 + 1e-12 - e) / (1.0 - beta - contour_epsilon(beta))) + 1)
    x_max = float(xs.max())
    width, amp, drift = _panel_width(model, x_max), math.exp(lam * x_max), model.drift
    # tau(theta) = c1/theta + g theta^(abar-1) bounds |T| (module docstring)
    c1 = model.q + sum(m * (1.0 + math.exp(-lam * a)) for a, m in zip(model.atomic.locations, model.atomic.masses))
    g, abar = (0.0, 0.0) if model.ac.is_none else (model.ac.C * _gamma(1.0 - model.ac.alpha), model.ac.alpha)
    # at least one panel, so a vanishing tau still integrates theta > 0
    theta0 = _smallest_theta(lambda t: c1 / t + g * t ** (abar - 1.0), 0.5 * drift, width)

    def truncation(n):
        rho = n * (1.0 - abar) + e - 1.0
        tail = lambda t: 2.0 * (c1 * t**-abar + g) ** n * t**-rho / (rho * drift ** (n + 1))
        theta = _smallest_theta(tail, 0.5 * math.pi * tol / amp, theta0)
        return theta, tail(theta)

    def scan(n_from):
        for allowed in (_COMFORTABLE_PANELS, PANEL_BUDGET):
            for n in range(n_from, 17):
                theta, tail = truncation(n)
                if sum(_panel_counts(theta, width, lam)) <= allowed:
                    return n, theta, tail
        raise AccuracyFailureError(
            "no split order up to 16 meets the tolerance within the panel budget", math.inf, tol
        )

    if N is None:
        N, theta, tail = scan(n_min)
    else:
        if N < 1:
            raise ValueError("N must be >= 1")
        if N < n_min:
            raise ContourOrderError(N, n_min)
        theta, tail = truncation(N)
        if sum(_panel_counts(theta, width, lam)) > PANEL_BUDGET:
            raise ContourOrderError(N, scan(N + 1)[0], panel_budget=PANEL_BUDGET)
    integral, err = _contour_integral(lambda th: integrand(model, N, lam + 1j * th), xs, theta, tail,
                                      width, lam)
    amps = np.exp(lam * xs)
    return N, amps * integral, amps * err


def invert_density(model: LevyModel, x, N: Optional[int] = 3, lam: Optional[float] = None,
                   tol: float = 1e-8, engine: Optional[ConvolutionEngine] = None):
    """u^(q)(x) through the order-N split representation.

    x is a number or a 1-D array; one contour serves every x, with lam
    defaulting to ``default_lambda(max x)``.  Returns (value, err_est),
    floats for a number and arrays for an array; err_est is the proved
    contour tail bound beyond Theta plus the panel roundoff scale, each
    amplified by its own e^{lam x}.  Any N >= 1 is an identity, but a
    small N may need a truncation point beyond the panel budget; that
    raises ContourOrderError citing a workable order.  N=None picks the
    smallest order that fits the budget.
    """
    xs = _points(x)
    N, integral, err = _split_contour(model, xs, N, _abscissa(xs, lam), tol, density_integrand, 1)
    if engine is None:
        engine = ConvolutionEngine(model, float(xs.max()))
    return _shaped(x, engine.alternating_sum(xs, 0, N) + integral, err)


def _derivative_pair(model, x, xs, N, lam, tol, engine):
    N, integral, err = _split_contour(model, xs, N, lam, tol, derivative_integrand, 0)
    if engine is None:
        engine = ConvolutionEngine(model, float(xs.max()))
    # orders n >= 2 are continuous; the n = 1 term carries the atom's jump
    base = engine.alternating_sum(xs, 2, N, Side.RIGHT)
    left, right = (np.array([-(model.tail(v, side) + model.q) / model.drift**2 for v in xs.tolist()])
                   + base + integral for side in (Side.LEFT, Side.RIGHT))
    return _shaped(x, left, right, err)


def invert_derivative_pair(model: LevyModel, x, N: Optional[int] = None,
                           lam: Optional[float] = None, tol: float = 1e-8,
                           engine: Optional[ConvolutionEngine] = None):
    """Both one-sided derivatives of u^(q) at x from one contour integral.

    The sides differ only in the n = 1 term, -(q + tbar(x-/x+))/drift^2,
    so right - left is the atom mass at x over drift^2.  Needs N large
    enough that the derivative remainder is integrable (N > 1/(1 - beta));
    a too-small explicit N raises ContourOrderError citing the required
    order.  N=None picks the smallest order that fits the panel budget.
    x is a number or a 1-D array, as for ``invert_density``.  Returns
    (left, right, err_est); err_est bounds each side.
    """
    xs = _points(x)
    return _derivative_pair(model, x, xs, N, _abscissa(xs, lam), tol, engine)


def invert_derivative(model: LevyModel, x, side: Side = Side.RIGHT,
                      N: Optional[int] = None, lam: Optional[float] = None,
                      tol: float = 1e-8, engine: Optional[ConvolutionEngine] = None):
    """One side of ``invert_derivative_pair``: returns (value, err_est)."""
    left, right, err = invert_derivative_pair(model, x, N, lam, tol, engine)
    return (left if side is Side.LEFT else right), err


def derivative_zero_contour(model: LevyModel, x, N: Optional[int] = None,
                            tol: float = 1e-9, engine: Optional[ConvolutionEngine] = None):
    """u'(x-), u'(x+) on the imaginary axis (q = 0, finite mean).

    The derivative pair at lam = 0 avoids the e^{lam x} amplification
    entirely, which is what makes the derivative at large x resolvable.
    x is a number or a 1-D array.  Returns (left, right, err_est).
    """
    xs = _points(x)
    if model.q != 0.0:
        raise PreconditionError("imaginary-axis contour requires q = 0")
    if not math.isfinite(model.mean()):
        raise PreconditionError("imaginary-axis contour requires a finite mean")
    return _derivative_pair(model, x, xs, N, 0.0, tol, engine)
