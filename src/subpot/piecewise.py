"""Exact piecewise-polynomial algebra on [0, inf).

Functions are zero on the negative half-line.  A function is held as two
arrays: strictly increasing ``breaks`` with ``breaks[0] == 0`` (the last
cell extends to infinity), and ``coeffs`` of shape ``(cells, degree + 1)``,
whose row i is the polynomial on cell i in ascending powers of
(x - breaks[i]), zero-padded to the common degree.  Local coordinates keep
Horner evaluation well conditioned.  Every operation works on whole arrays:
moving rows to new origins is one Taylor shift run column by column over
all rows at once, so the number of numpy calls depends on the degree, not
on the number of cells.

These objects carry the atomic part of the jump measure through repeated
convolution: convolving any piecewise polynomial with a step-function tail
is again piecewise polynomial, with breakpoints shifted by atom locations.
"""

from __future__ import annotations

import numpy as np

_BREAK_TOL = 1e-12


def _poly_eval(coeffs: np.ndarray, t):
    """Horner over the rows of ``coeffs`` (ascending powers); rows may be vectors."""
    out = np.zeros_like(np.asarray(t, dtype=float))
    for c in coeffs[::-1]:
        out = out * t + c
    return out


def _poly_shift(coeffs: np.ndarray, d) -> np.ndarray:
    """Rebase p(t) to p(u + d) via repeated synthetic (Horner) division.

    ``coeffs`` is one polynomial, or a (rows, n) array with one offset per
    row in ``d``; each division step runs over all rows at once, in the same
    order of operations as for a single row.
    """
    c = np.array(np.asarray(coeffs, dtype=float).T, order="C")
    if not np.any(d):
        return c.T
    n = c.shape[0]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += d * c[j + 1]
    return c.T


def _merge_breaks(breaks: np.ndarray) -> np.ndarray:
    """Drop each sorted break lying within the tolerance of its predecessor."""
    keep = np.concatenate([[True], np.diff(breaks) > _BREAK_TOL * np.maximum(1.0, breaks[1:])])
    return breaks[keep]


class PiecewisePoly:
    """Immutable piecewise polynomial; breaks[0] == 0."""

    __slots__ = ("breaks", "coeffs")

    def __init__(self, breaks, coeffs):
        breaks = np.asarray(breaks, dtype=float)
        if breaks[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] != breaks.size:
            raise ValueError("need one coefficient row per cell (last cell is unbounded)")
        self.breaks = breaks
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def step_tail(cls, locations, masses, q: float) -> "PiecewisePoly":
        """The function q + sum_a m_a 1_{(0, a]}(x) as a piecewise constant."""
        masses = np.asarray(list(masses), dtype=float)
        breaks = np.concatenate([[0.0], np.asarray(list(locations), dtype=float)])
        total = float(np.sum(masses)) + float(q)
        vals = np.subtract.accumulate(np.concatenate([[total], masses]))
        if q == 0:
            vals[-1] = 0.0  # past the last atom; the running subtraction leaves its roundoff there
        return cls(breaks, vals[:, None])

    # -- evaluation ------------------------------------------------------------

    def _cell_index(self, x: np.ndarray, left_limit: bool) -> np.ndarray:
        tol = _BREAK_TOL * np.maximum(1.0, np.abs(x))
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        # snap to a breakpoint within tolerance on either side, then honor the side
        near = np.searchsorted(self.breaks, x + tol, side="right") - 1
        snapped = near > idx
        idx = np.where(snapped, near, idx)
        on_break = snapped | (x - np.take(self.breaks, np.clip(idx, 0, self.breaks.size - 1)) <= tol)
        idx = np.where(on_break & left_limit, idx - 1, idx)
        return idx

    def eval(self, x, side_left: bool = True):
        """Evaluate; at a breakpoint, side_left picks the cell ending there."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        side_left = bool(side_left)
        idx = self._cell_index(x_arr, side_left)
        valid = idx >= 0
        if side_left:
            # x at or below 0 from the left is 0 by convention
            valid &= ~(x_arr <= _BREAK_TOL)
        cell = idx[valid]
        out = np.zeros_like(x_arr)
        out[valid] = _poly_eval(self.coeffs[cell].T, x_arr[valid] - self.breaks[cell])
        return float(out[0]) if np.ndim(x) == 0 else out

    def __call__(self, x):
        return self.eval(x, side_left=True)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    # -- algebra ----------------------------------------------------------------

    def shift(self, a: float) -> "PiecewisePoly":
        """x -> f(x - a) for a > 0 (zero on [0, a))."""
        if a <= 0:
            raise ValueError("shift requires a > 0")
        breaks = np.concatenate([[0.0], self.breaks + a])
        coeffs = np.vstack([np.zeros((1, self.coeffs.shape[1])), self.coeffs])
        return PiecewisePoly(breaks, coeffs)

    def _rebased(self, origins: np.ndarray) -> np.ndarray:
        """Row k: the polynomial valid on [origins[k], next break), rebased there.

        Origins are >= 0, so each lies in some cell; an origin within the
        tolerance below a break snaps to the cell starting at that break.
        """
        i = np.searchsorted(self.breaks, origins + _BREAK_TOL * np.maximum(1.0, np.abs(origins)), side="right") - 1
        return _poly_shift(self.coeffs[i], origins - self.breaks[i])

    def antiderivative(self) -> "PiecewisePoly":
        """F(x) = int_0^x f, continuous, F(0) = 0."""
        n = self.coeffs.shape[1]
        anti = np.zeros((self.breaks.size, n + 1))
        anti[:, 1:] = self.coeffs / np.arange(1, n + 1)
        # each cell's integral over its full width, summed left to right,
        # is the constant term of the next cell
        anti[1:, 0] = np.cumsum(_poly_eval(anti[:-1].T, np.diff(self.breaks)))
        return PiecewisePoly(self.breaks, anti)

    def derivative(self) -> "PiecewisePoly":
        n = self.coeffs.shape[1]
        if n == 1:
            return PiecewisePoly(self.breaks, np.zeros_like(self.coeffs))
        return PiecewisePoly(self.breaks, self.coeffs[:, 1:] * np.arange(1, n))

    def truncate(self, x_max: float) -> "PiecewisePoly":
        """Drop breakpoints beyond x_max; result is only valid on [0, x_max]."""
        n = int(np.sum(self.breaks <= x_max * (1.0 + 1e-12)))
        if n == self.breaks.size:
            return self
        return PiecewisePoly(self.breaks[:n], self.coeffs[:n])

    def convolve_step_tail(self, locations, masses, q: float, x_max: float | None = None) -> "PiecewisePoly":
        """Convolution with q + sum m_a 1_{(0,a]}: sum m_a (F(x) - F(x-a)) + q F(x).

        The result lives on one merge of F's breaks with all their atom
        shifts; every term is rebased once onto it.
        """
        F = self.antiderivative()
        if x_max is not None:
            F = F.truncate(x_max)
        breaks = _merge_breaks(np.unique(np.concatenate([F.breaks + a for a in (0.0, *locations)])))
        if x_max is not None:
            breaks = breaks[breaks <= x_max * (1.0 + 1e-12)]
        base = F._rebased(breaks)
        out = base * q
        for a, m in zip(locations, masses):
            out += (base - F.shift(a)._rebased(breaks)) * m
        return PiecewisePoly(breaks, out)
