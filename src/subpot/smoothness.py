"""Differentiability classification and derivative-jump measurement.

A point is reachable by at most k atomic jumps exactly when it lies in the
k-fold atom-sum set; the potential distribution function is (k+1)-times
differentiable at x precisely when x is outside that set, and an
infinitely-differentiable AC tail does not change the verdict.  The density's
order-j derivative jumps only at points whose minimal jump count is j, by

    jump_j(x) = J_j(x) / drift^(j+1)   (magnitudes),

where J_j(x) sums the product of the masses over the ordered j-tuples of
atoms that add up to x (J_1(x) is the mass at x).  J_j is the ``weight`` of
x's entry in the atom-sum enumeration, read from it, not recomputed.

The first-derivative jump is measured as the difference of the one-sided
limits of the inversion representation (``derivative_jump``).  Jumps of
every order, as ``classify_point`` measures them, are one-sided polynomial
fits on grid windows that never straddle a breakpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .convolve import DEFAULT_SUM_BUDGET, AtomSumEntry, ConvolutionEngine, atom_sums
from .density import DensityGrid, u_volterra
from .errors import FitWindowError, PreconditionError
from .inversion import invert_derivative_pair
from .model import AtomicPart, LevyModel, Side

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


def _jump_weight(entry: Optional[AtomSumEntry], order: int) -> float:
    """J_order at an atom-sum entry: its weight on the order-level set, else 0."""
    return entry.weight if entry is not None and entry.min_jumps == order else 0.0


def predicted_jump_magnitude(atomic: AtomicPart, order: int, x: float,
                             exact: Optional[Fraction] = None) -> float:
    """|J_order(x)|: the ordered-tuple mass sum (0 off the order-level set).

    ``exact`` matches x exactly against rational atom locations.
    """
    return _jump_weight(atom_sums(atomic, order, x).member(x, exact=exact), order)


def classify_point(
    model: LevyModel,
    x,
    k_max: int = 4,
    grid: Optional[DensityGrid] = None,
    measure: bool = False,
    budget: int = DEFAULT_SUM_BUDGET,
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
    xf = float(x if exact is None else exact)
    if xf <= 0:
        raise ValueError("x must be > 0")
    if model.bg_index() >= 1.0:
        raise PreconditionError("classification requires small-jump index < 1")

    # membership of x needs no sum beyond x
    entry = atom_sums(model.atomic, k_max, xf, budget).member(xf, exact=exact)
    min_k = None if entry is None else entry.min_jumps
    verdicts = [(k, min_k is None or min_k > k) for k in range(1, k_max + 1)]

    jumps = []
    if measure and grid is None:
        grid = u_volterra(model, xf + 1.0, breakpoint_order=k_max)
    if grid is not None:
        top = min_k if min_k is not None else k_max
        for order in range(1, k_max + 1):
            pred = _jump_weight(entry, order) / model.drift ** (order + 1)
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
    # the pseudo-inverse gives both the least-squares fit and its sensitivity
    pinv = np.linalg.pinv(np.vander(t, degree + 1, increasing=True))
    coef = pinv @ vals
    row_norm = float(np.linalg.norm(pinv[order])) * math.factorial(order) / w**order
    est = coef[order] * math.factorial(order) / w**order
    return float(est), row_norm


def derivative_jump(model: LevyModel, x: float, tol: float = 1e-8):
    """Measured vs predicted derivative jump of the density at x.

    predicted = (mass at x)/drift^2; measured is the difference of the
    one-sided inversion derivatives.  Returns (predicted, measured, stderr).
    """
    predicted = model.atom_mass_at(x) / model.drift**2
    left, right, err = invert_derivative_pair(model, x, tol=tol)
    return predicted, right - left, 2.0 * err


def conv_jump(model: LevyModel, n: int, b: float):
    """Jump magnitude of the (n-1)-th derivative of the n-fold tail power at b.

    Only defined for purely atomic measures and b reachable by exactly n
    jumps.  The prediction is the entry's ordered-tuple mass sum; the
    measured value differentiates the engine's exact piecewise polynomial
    on both sides (its q terms hold fewer than n atoms, so are smooth at b).
    Returns (predicted, measured) as magnitudes.
    """
    if model.has_ac:
        raise PreconditionError("conv_jump requires a purely atomic model")
    if n < 2:
        raise ValueError("n must be >= 2")
    engine = ConvolutionEngine(model, b + 1.0)
    entry = engine.sum_set(n).member(b)
    if entry is None or entry.min_jumps != n:
        raise PreconditionError(
            f"b={b} is not reachable by exactly {n} atomic jumps (min_jumps="
            f"{None if entry is None else entry.min_jumps})"
        )
    power = engine.pc_power(n)
    for _ in range(n - 1):
        power = power.derivative()
    measured = abs(power.eval(b, side_left=False) - power.eval(b, side_left=True))
    return entry.weight, measured
