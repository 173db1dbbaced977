"""Differentiability classification and derivative-jump measurement.

A point is reachable by at most k atomic jumps exactly when it lies in the
k-fold atom-sum set; the potential distribution function is (k+1)-times
differentiable at x precisely when x is outside that set, and an
infinitely-differentiable AC tail does not change the verdict.  The density's
order-j derivative jumps only at points whose minimal jump count is j, by

    jump_j(x) = J_j(x) / drift^(j+1),   J_1(x) = mass at x,
    J_j(x) = sum_a m_a * J_{j-1}(x - a)   (magnitudes).

Measurements are one-sided polynomial fits on grid windows that never
straddle a breakpoint, or one-sided limits of the inversion representation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .convolve import atom_sums
from .density import DensityGrid, u_volterra
from .errors import FitWindowError, PreconditionError
from .inversion import invert_derivative_pair
from .model import AtomicPart, LevyModel, Side
from .piecewise import PiecewisePoly

_JUMP_SIGMA = 3.0  # decision rule: a jump is "present" when |est| > 3*stderr


@dataclass
class JumpMeasurement:
    order: int
    predicted: Optional[float]
    measured: Optional[float]
    stderr: Optional[float]

    @property
    def significant(self) -> Optional[bool]:
        if self.measured is None or self.stderr is None:
            return None
        return abs(self.measured) > _JUMP_SIGMA * self.stderr


@dataclass
class SmoothnessReport:
    x: float
    k_max: int
    min_k: Optional[int]
    verdicts: list  # (k, differentiable): distribution fn is (k+1)-times diff. iff True
    jumps: list = field(default_factory=list)  # JumpMeasurement per order

    def to_json(self) -> str:
        doc = {
            "x": self.x,
            "min_k": self.min_k,
            "verdicts": [{"k": k, "differentiable": bool(d)} for k, d in self.verdicts],
            "jumps": [
                {"order": j.order, "predicted": j.predicted, "measured": j.measured, "stderr": j.stderr}
                for j in self.jumps
            ],
        }
        return json.dumps(doc)


def predicted_jump_magnitude(atomic: AtomicPart, order: int, x: float) -> float:
    """|J_order(x)|: recursive atom-sum weights (0 off the order-level set)."""
    if order == 1:
        return atomic.mass_at(x)
    total = 0.0
    for a, m in zip(atomic.locations, atomic.masses):
        if a < x - 1e-12:
            inner = predicted_jump_magnitude(atomic, order - 1, x - a)
            if inner:
                total += m * inner
    return total


def classify_point(
    model: LevyModel,
    x,
    k_max: int = 4,
    grid: Optional[DensityGrid] = None,
    measure: bool = False,
    budget: Optional[int] = None,
) -> SmoothnessReport:
    """Differentiability verdicts at x, optionally with measured jumps.

    ``x`` may be a Fraction or rational string for exact membership tests
    against rational atom locations.  Verdicts use the atomic part only:
    the supported AC families are infinitely differentiable, so they do
    not move any verdict.
    """
    exact = None
    if isinstance(x, (Fraction, str, int)):
        exact = Fraction(x)
    xf = float(x)
    if xf <= 0:
        raise ValueError("x must be > 0")
    if model.bg_index() >= 1.0:
        raise PreconditionError("classification requires small-jump index < 1")

    min_k = None
    if model.has_atoms:
        kwargs = {} if budget is None else {"budget": budget}
        sums = atom_sums(model.atomic, k_max, xf + 1.0, **kwargs)
        min_k = sums.min_jumps(xf, exact=exact)
    verdicts = [(k, min_k is None or min_k > k) for k in range(1, k_max + 1)]

    jumps = []
    if measure and grid is None:
        grid = u_volterra(model, xf + 1.0, breakpoint_order=k_max)
    if grid is not None:
        top = min_k if min_k is not None else k_max
        for order in range(1, k_max + 1):
            pred = predicted_jump_magnitude(model.atomic, order, xf) / model.drift ** (order + 1)
            if order > top:
                jumps.append(JumpMeasurement(order, None, None, None))
                continue
            try:
                lo, se_lo = one_sided_fd(grid, xf, order, Side.LEFT)
                hi, se_hi = one_sided_fd(grid, xf, order, Side.RIGHT)
                jumps.append(JumpMeasurement(order, pred, hi - lo, math.hypot(se_lo, se_hi)))
            except FitWindowError:
                jumps.append(JumpMeasurement(order, pred, None, None))
    return SmoothnessReport(x=xf, k_max=k_max, min_k=min_k, verdicts=verdicts, jumps=jumps)


def one_sided_fd(grid: DensityGrid, x: float, order: int, side: Side,
                 window: Optional[float] = None):
    """Order-th one-sided derivative at x by polynomial fit on grid nodes.

    The window never includes a breakpoint other than x itself; it shrinks
    to half the distance to the nearest one.  The estimate comes from a fit
    of degree order+2; the stderr combines the shift seen one degree higher
    with the grid's propagated error estimates.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    others = grid.breakpoints[np.abs(grid.breakpoints - x) > 1e-12 * max(1.0, abs(x))]
    dist = np.min(np.abs(others - x)) if others.size else np.inf
    w = 0.5 * dist
    if window is not None:
        w = min(w, window)
    w = min(w, grid.x_max - x if side is Side.RIGHT else x)
    if not np.isfinite(w) or w <= 0:
        raise FitWindowError(f"no one-sided window available at x={x}")
    if side is Side.RIGHT:
        sel = (grid.nodes >= x) & (grid.nodes <= x + w)
    else:
        sel = (grid.nodes >= x - w) & (grid.nodes <= x)
    nodes = grid.nodes[sel]
    vals = grid.u[sel]
    errs = grid.err_est[sel]
    need = max(6, order + 5)
    if nodes.size < need:
        raise FitWindowError(
            f"window at x={x} ({side.value}) holds {nodes.size} nodes, need >= {need}"
        )

    t = (nodes - x) / w
    est, row_norm = _fit_deriv(t, vals, order, order + 2, w)
    est_hi, _ = _fit_deriv(t, vals, order, order + 3, w)
    bias = abs(est - est_hi)
    se_grid = float(np.max(errs)) * row_norm
    stderr = bias + se_grid + 1e-14 * max(1.0, abs(est))
    return est, stderr


def _fit_deriv(t, vals, order, degree, w):
    a = np.vander(t, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(a, vals, rcond=None)
    pinv = np.linalg.pinv(a)
    row_norm = float(np.linalg.norm(pinv[order])) * math.factorial(order) / w**order
    est = coef[order] * math.factorial(order) / w**order
    return float(est), row_norm


def derivative_jump(model: LevyModel, x: float, grid: Optional[DensityGrid] = None,
                    tol: float = 1e-8):
    """Measured vs predicted derivative jump of the density at x.

    predicted = (mass at x)/drift^2; measured is the difference of the
    one-sided inversion derivatives, falling back to grid fits when the
    contour route is unavailable.  Returns (predicted, measured, stderr).
    """
    predicted = model.atom_mass_at(x) / model.drift**2
    try:
        left, right, err = invert_derivative_pair(model, x, tol=tol)
        return predicted, right - left, 2.0 * err
    except PreconditionError:
        if grid is None:
            grid = u_volterra(model, x + 1.0, breakpoint_order=2)
        right, se_r = one_sided_fd(grid, x, 1, Side.RIGHT)
        left, se_l = one_sided_fd(grid, x, 1, Side.LEFT)
        return predicted, right - left, math.hypot(se_r, se_l)


def conv_jump(model: LevyModel, n: int, b: float):
    """Jump magnitude of the (n-1)-th derivative of the n-fold tail power at b.

    Only defined for purely atomic measures and b reachable by exactly n
    jumps.  The prediction is the recursive atom-sum weight; the measured
    value differentiates the exact piecewise polynomial on both sides.
    Returns (predicted, measured) as magnitudes.
    """
    if model.has_ac:
        raise PreconditionError("conv_jump requires a purely atomic model")
    if n < 2:
        raise ValueError("n must be >= 2")
    sums = atom_sums(model.atomic, n, b + 1.0)
    entry = sums.member(b)
    if entry is None or entry.min_jumps != n:
        raise PreconditionError(
            f"b={b} is not reachable by exactly {n} atomic jumps (min_jumps="
            f"{None if entry is None else entry.min_jumps})"
        )
    predicted = predicted_jump_magnitude(model.atomic, n, b)

    pp = PiecewisePoly.step_tail(model.atomic.locations, model.atomic.masses, 0.0)
    power = pp
    for _ in range(n - 1):
        power = power.convolve_step_tail(model.atomic.locations, model.atomic.masses, 0.0, x_max=b + 1.0)
    for _ in range(n - 1):
        power = power.derivative()
    measured = abs(power.eval(b, side_left=False) - power.eval(b, side_left=True))
    return predicted, measured
