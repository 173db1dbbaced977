"""Numerical verification of the density's limit laws at zero and infinity.

Limits cannot be evaluated at 0 or infinity, so every check uses a trend
criterion on a geometric grid: the metric must approach its limit
monotonically over the last three points and meet a stated tolerance at
the extreme point.  Ratios use 5% tolerances, residuals the absolute
thresholds given per check.

Sign convention: the derivative's small-x law uses the negative leading
term -(q + tbar(x+))/drift^2 throughout.  That is the sign the series
representation produces and the single-atom closed form confirms
(u'(0+) = -1 for drift 1, unit atom at 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convolve import ConvolutionEngine
from .density import _SERIES_LEVEL, series_radius, u_series
from .errors import PreconditionError
from .inversion import derivative_zero_contour, invert_derivative
from .model import LevyModel, Side

_RATIO_TOL = 0.05


@dataclass
class AsymptoticCheck:
    law: str
    xs: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    passed: bool
    degenerate: bool = False
    fitted_slope: Optional[float] = None
    notes: str = ""


def _monotone_approach(metric: np.ndarray, n_last: int = 3) -> bool:
    tail = metric[-n_last:]
    return bool(np.all(np.diff(tail) <= 1e-12 + 1e-6 * np.abs(tail[:-1])))


def _zero_grid(lo=1e-4, hi=1e-1, per_decade=7) -> np.ndarray:
    n = max(int(per_decade * math.log10(hi / lo)) + 1, 7)
    return np.geomspace(hi, lo, n)  # decreasing toward 0


def _auto_zero_grid(model: LevyModel) -> np.ndarray:
    # keep the default grid inside the series radius
    hi = min(0.1, 0.8 * series_radius(model, 1.0))
    return _zero_grid(lo=hi * 1e-3, hi=hi)


def check_zero_series(model: LevyModel, n: int, x_grid: Optional[np.ndarray] = None) -> AsymptoticCheck:
    """Ratio of the order-n series remainder to the (n+1)-st term tends to 1.

    The remainder is summed directly from the terms beyond n, which avoids
    the cancellation of subtracting two near-equal densities.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    xs = _auto_zero_grid(model) if x_grid is None else np.asarray(x_grid, dtype=float)
    if xs.size < 4 or np.any(np.diff(xs) >= 0):
        raise ValueError("x grid must be strictly decreasing toward 0 with >= 4 points")
    engine = ConvolutionEngine(model, float(xs.max()))
    delta = model.drift
    if model.is_pure_drift:
        z = np.zeros_like(xs)
        return AsymptoticCheck("zero-series", xs, z, z, np.ones_like(xs), True, degenerate=True,
                               notes="pure drift: remainder identically zero")

    # m and the first term grow with x, so on the decreasing grid the points
    # outside the radius come first and the underflowing ones last
    outside = engine.mass_scale(xs) > _SERIES_LEVEL
    if np.any(outside):
        raise PreconditionError(f"x={xs[np.argmax(outside)]} outside the series radius; shrink the grid")
    t_first = engine.running(n + 1, xs) / delta ** (n + 2)
    if np.any(t_first < 1e-280):
        raise PreconditionError(f"denominator underflow at x={xs[np.argmax(t_first < 1e-280)]}; "
                                "shrink the grid toward larger x")
    # one array call per order; a point stops once its newest term is
    # below 1e-14 of its first, as a loop over the points would
    total = np.zeros_like(xs)
    live = np.arange(xs.size)
    term = t_first
    for k in range(n + 1, n + 202):
        if k > n + 1:
            term = engine.running(k, xs[live]) / delta ** (k + 1)
        total[live] += (-1.0) ** (k - n - 1) * term
        live = live[~(term < 1e-14 * t_first[live])]
        if live.size == 0:
            break
    ratios = np.abs(total) / t_first
    metric = np.abs(ratios - 1.0)
    passed = metric[-1] <= _RATIO_TOL and _monotone_approach(metric)
    return AsymptoticCheck("zero-series", xs, ratios, np.ones_like(xs), ratios, bool(passed))


def check_linear_zero(model: LevyModel, x_grid: Optional[np.ndarray] = None) -> AsymptoticCheck:
    """Linear zero-slope -(total mass + q)/drift^2 iff the measure is finite.

    For infinite measures the difference quotient must diverge monotonically
    over the last decade instead.
    """
    xs = _auto_zero_grid(model) if x_grid is None else np.asarray(x_grid, dtype=float)
    delta = model.drift
    engine = ConvolutionEngine(model, float(xs.max()))
    u = u_series(model, xs, tol=1e-12, engine=engine)[0]
    slopes = (u - 1.0 / delta) / xs

    total = model.total_mass()
    if math.isfinite(total):
        target = -(total + model.q) / delta**2
        if target == 0.0:
            passed = bool(np.all(np.abs(slopes) <= 1e-12))
            return AsymptoticCheck("linear-zero", xs, slopes, np.full_like(xs, target),
                                   np.ones_like(xs), passed, degenerate=True,
                                   fitted_slope=0.0, notes="pure drift: slope identically 0")
        # extrapolate the last few difference quotients linearly to x = 0
        k = min(5, xs.size)
        a = np.vstack([np.ones(k), xs[-k:]]).T
        coef, *_ = np.linalg.lstsq(a, slopes[-k:], rcond=None)
        fitted = float(coef[0])
        metric = np.abs(slopes - target)
        passed = abs(fitted - target) <= _RATIO_TOL * abs(target) and _monotone_approach(metric)
        return AsymptoticCheck("linear-zero", xs, slopes, np.full_like(xs, target),
                               slopes / target, bool(passed), fitted_slope=fitted)
    # infinite measure: super-linear decay of 1/drift - u
    div = (1.0 / delta - u) / xs
    growing = np.all(np.diff(div[xs <= xs[0] * 0.11]) > 0)
    return AsymptoticCheck("linear-zero", xs, div, np.full_like(xs, math.inf),
                           np.zeros_like(xs), bool(growing),
                           notes="infinite measure: difference quotient diverges")


def minimal_tail_order(beta: float) -> int:
    """Smallest n >= 1 with beta strictly below n/(n+1).

    The source statement allows equality, but at beta = n/(n+1) the
    (n+1)-fold tail power scales like x^0 and does not vanish, so the
    strict inequality is the one the proof actually supports.
    """
    n = 1
    while beta >= n / (n + 1.0):
        n += 1
    return n


def check_du_zero(model: LevyModel, x_grid: Optional[np.ndarray] = None) -> AsymptoticCheck:
    """Derivative near zero matches the order-n alternating tail sum.

    Passes when the residual decreases over the last three grid points and
    ends below 1% of the leading term.  The ratio column holds
    u'(x+) / (-(q + tbar(x+))/drift^2), which tends to 1 whenever the
    small-jump index is below 1/2.
    """
    beta = model.bg_index()
    if beta >= 1.0:
        raise PreconditionError("derivative asymptotics need small-jump index < 1")
    n = minimal_tail_order(beta)
    xs = np.geomspace(1e-2, 1e-4, 15) if x_grid is None else np.asarray(x_grid, dtype=float)
    engine = ConvolutionEngine(model, float(xs.max()))
    leading = engine.power(1, xs, Side.RIGHT) / model.drift**2
    # one contour for every x, at the tolerance the smallest leading term asks
    du, _ = invert_derivative(model, xs, Side.RIGHT, tol=max(1e-9, 1e-4 * float(np.min(np.abs(leading)))),
                              engine=engine)
    series = engine.alternating_sum(xs, 1, n + 1, Side.RIGHT)
    residual = np.abs(du - series)
    passed = _monotone_approach(residual) and residual[-1] < 0.01 * abs(leading[-1])
    return AsymptoticCheck("du-zero", xs, du, series, du / (-leading), bool(passed),
                           notes=f"tail order n={n}")


def check_du_infinity(model: LevyModel, x_grid: Optional[np.ndarray] = None) -> AsymptoticCheck:
    """Derivative vanishes at infinity for killing-free finite-mean models.

    Uses the imaginary-axis contour, so no e^{lam x} amplification enters.
    Raises PreconditionError for infinite mean (open problem) or q > 0.
    """
    if model.q != 0.0:
        raise PreconditionError("infinity law applies to the unkilled density only")
    mean = model.mean()
    if not math.isfinite(mean):
        raise PreconditionError("infinite-mean model: derivative decay at infinity is open")
    if model.bg_index() >= 1.0:
        raise PreconditionError("derivative asymptotics need small-jump index < 1")
    if x_grid is None:
        x_hi = max(20.0 * mean, 40.0)
        x_grid = np.geomspace(x_hi / 8.0, x_hi, 6)
    xs = np.asarray(x_grid, dtype=float)
    engine = ConvolutionEngine(model, float(xs.max()))
    left, right, _ = derivative_zero_contour(model, xs, tol=1e-10, engine=engine)
    vals = np.maximum(np.abs(left), np.abs(right))
    passed = _monotone_approach(vals) and vals[-1] < 1e-3 / model.drift
    return AsymptoticCheck("du-infinity", xs, vals, np.zeros_like(xs), vals * 0, bool(passed))
