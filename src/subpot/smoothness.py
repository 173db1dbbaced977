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

Jumps are measured as right - left of the one-sided derivatives of the
split contour (``invert_derivative_pair``): order 1 on every model
(``derivative_jump``), and each order up to the minimal jump count in
``classify_point``.  The two sides share one contour integral, so the
jump's bar is the sum of the sides' bars.  Orders j >= 2 need a model
without an AC part; on one with it they are not measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .convolve import DEFAULT_SUM_BUDGET, AtomSumEntry, ConvolutionEngine, atom_sums
from .errors import PreconditionError, check_positive
from .inversion import invert_derivative_pair
from .model import AtomicPart, LevyModel


@dataclass
class JumpMeasurement:
    order: int
    predicted: Optional[float]
    measured: Optional[float]
    err_est: Optional[float]  # bounds |measured - true jump|

    @property
    def significant(self) -> Optional[bool]:
        """A jump is present when it exceeds its bar."""
        if self.measured is None:
            return None
        return abs(self.measured) > self.err_est


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
                {"order": j.order, "predicted": j.predicted, "measured": j.measured, "err_est": j.err_est}
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
    measure: bool = False,
    budget: int = DEFAULT_SUM_BUDGET,
) -> SmoothnessReport:
    """Differentiability verdicts at x, optionally with measured jumps.

    ``x`` may be a Fraction or rational string for exact membership tests
    against rational atom locations.  Verdicts use the atomic part only:
    the supported AC families are infinitely differentiable, so they do
    not move any verdict.  With ``measure``, each order up to the minimal
    jump count (``k_max`` off the atom-sum set) gets right - left of the
    contour's one-sided derivatives, with the two sides' bars summed; an
    order the contour cannot give (j >= 2 with an AC part) has measured
    and err_est None.
    """
    exact = None
    if isinstance(x, (Fraction, str, int)):
        exact = Fraction(x)
    xf = float(x if exact is None else exact)
    check_positive("x", xf)
    if model.bg_index() >= 1.0:
        raise PreconditionError("classification requires small-jump index < 1")

    # membership of x needs no sum beyond x
    entry = atom_sums(model.atomic, k_max, xf, budget).member(xf, exact=exact)
    min_k = None if entry is None else entry.min_jumps
    verdicts = [(k, min_k is None or min_k > k) for k in range(1, k_max + 1)]

    jumps = []
    if measure:
        engine = ConvolutionEngine(model, xf, budget)
        top = min_k if min_k is not None else k_max
        for order in range(1, k_max + 1):
            if order > top:
                jumps.append(JumpMeasurement(order, None, None, None))
                continue
            pred = _jump_weight(entry, order) / model.drift ** (order + 1)
            try:
                left, right, err = invert_derivative_pair(model, xf, engine=engine, order=order)
            except PreconditionError:
                jumps.append(JumpMeasurement(order, pred, None, None))
            else:
                jumps.append(JumpMeasurement(order, pred, right - left, 2.0 * err))
    return SmoothnessReport(x=xf, k_max=k_max, min_k=min_k, verdicts=verdicts, jumps=jumps)


def derivative_jump(model: LevyModel, x: float, tol: float = 1e-8):
    """Measured vs predicted derivative jump of the density at x.

    predicted = (mass at x)/drift^2; measured is the difference of the
    one-sided inversion derivatives.  Returns (predicted, measured, err_est).
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
