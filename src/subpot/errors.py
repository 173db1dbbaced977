"""Exception types shared across the library, and its argument check.

The CLI maps these onto exit codes: model validation failures -> 2,
numerical accuracy failures -> 3, precondition failures (wrong regime,
budget, unusable parameters) -> 4.  A bad argument of a library call
raises ValueError naming it (``check_positive``, ``check_points``); the CLI
checks its flags before it calls the library.
"""

from __future__ import annotations

import math

import numpy as np


def check_positive(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless value is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def check_points(name: str, x, zero_ok: bool = False) -> np.ndarray:
    """x as a contiguous 1-D float array, or ValueError naming ``name``.

    x must be a number or a non-empty 1-D array of finite numbers > 0
    (>= 0 with zero_ok).
    """
    # numpy runs a SIMD pow on contiguous arrays and libm's on strided ones, and the two
    # differ in the last bit: a reversed view of x must give the reversed values
    xs = np.ascontiguousarray(x, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError(f"{name} must be a number or a non-empty 1-D array")
    bad = ~(np.isfinite(xs) & ((xs >= 0) if zero_ok else (xs > 0)))
    if bad.any():
        raise ValueError(f"{name} must be a finite number {'>=' if zero_ok else '>'} 0, got {float(xs[bad][0])!r}")
    return xs


class SubpotError(Exception):
    """Base class for library errors."""


class ModelValidationError(SubpotError):
    """One or more model invariants are violated.

    ``violations`` is a list of (json_pointer, message) pairs so callers can
    report exactly which field is bad.  A pointer may also name a CLI flag
    (``--x``); when every pointer does, the message says "invalid argument".
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{ptr}: {msg}" for ptr, msg in self.violations)
        flags = self.violations and all(ptr.startswith("--") for ptr, _ in self.violations)
        what = "argument" if flags else "model"
        super().__init__(f"invalid {what}: {lines}")


class PreconditionError(SubpotError):
    """An operation was called outside its domain of validity."""


class SeriesRadiusError(PreconditionError):
    """The geometric truncation bound does not apply at this x (m(x) > 1/2)."""

    def __init__(self, x, m):
        self.x = float(x)
        self.m = float(m)
        super().__init__(
            f"series bound unavailable at x={x!r}: m(x)={m:.6g} > 1/2; "
            "use --route auto or invert (the contour) here"
        )


class BudgetExceededError(PreconditionError):
    """Atom-sum enumeration exceeded its node budget."""

    def __init__(self, k, budget):
        self.k = int(k)
        self.budget = int(budget)
        super().__init__(
            f"atom-sum enumeration for k={k} exceeded the budget of {budget} partial sums"
        )


class ContourOrderError(PreconditionError):
    """The split order N is too small.

    Either its remainder is not integrable (a derivative needs a higher
    order), or its truncation point needs more than ``panel_budget`` panels.
    """

    def __init__(self, n_given, n_required, panel_budget=None):
        self.n_given = int(n_given)
        self.n_required = int(n_required)
        why = ("for an integrable derivative integrand" if panel_budget is None
               else f"to meet the tolerance within the budget of {panel_budget} panels")
        super().__init__(f"split order N={n_given} too small; need N >= {n_required} {why}")


class IndeterminateIndexError(PreconditionError):
    """Small-jump index estimation did not stabilize within the family cap."""


class AccuracyFailureError(SubpotError):
    """A computation finished but missed its accuracy target.

    Carries the achieved error estimate so it can be reported.
    """

    def __init__(self, message, achieved, target):
        self.achieved = float(achieved)
        self.target = float(target)
        super().__init__(f"{message} (achieved {achieved:.3e}, target {target:.3e})")
