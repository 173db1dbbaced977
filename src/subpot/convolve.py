"""Iterated convolutions of the (tail + killing) kernel and atom-sum sets.

The kernel f = tbar + q splits into a piecewise-constant part pc (atoms
plus the constant q) and a smooth tail part s (stable / tempered family).
The n-fold convolution expands binomially,

    f^{*n} = sum_j C(n, j) pc^{*(n-j)} * s^{*j},

where pc^{*i} is an exact piecewise polynomial (degree i-1, breakpoints on
the i-fold atom sums) and s^{*j} is closed form (powers and exponentials are
stable under self-convolution).  Without atoms pc is the constant q, so
pc^{*i}(y) = q^i y^(i-1)/(i-1)! and every cross term is a Beta function
times a Kummer function (DLMF 13.4.1), evaluated for all points at once.
With atoms the cross terms reduce to cell integrals of a polynomial against
the weight v^{p} e^{-b v}.  Those cells are delimited by the polynomial's
breakpoints -- integration never crosses a kink -- and are evaluated by
Gauss-Jacobi (singular first cell) and Gauss-Legendre rules that are exact
for the polynomial factor.

Evaluations are pure; the per-order ladders are memoized with an exclusive
writer during construction and are safe for concurrent readers afterwards.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.special import betaln as _betaln
from scipy.special import gamma as _gamma
from scipy.special import gammainc as _gammainc
from scipy.special import gammaln as _gammaln
from scipy.special import hyp1f1 as _hyp1f1
from scipy.special import roots_jacobi

from .errors import BudgetExceededError
from .model import AtomicPart, LevyModel, Side
from .piecewise import PiecewisePoly

DEFAULT_SUM_BUDGET = 10**7
_VALUE_TOL = 1e-12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


# ---------------------------------------------------------------------------
# atom-sum sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomSumEntry:
    value: float
    exact: Optional[Fraction]
    min_jumps: int
    representations: int  # ordered tuples of length min_jumps reaching value
    weight: float  # sum over those tuples of the product of their atoms' masses


def _near(sorted_values, v: float) -> Optional[int]:
    """Index of a neighbour of v in sorted_values within the 1e-12 relative tolerance, else None."""
    i = bisect_left(sorted_values, v)
    for j in (i - 1, i):
        if 0 <= j < len(sorted_values) and abs(sorted_values[j] - v) <= _VALUE_TOL * max(1.0, abs(v)):
            return j
    return None


@dataclass(frozen=True)
class AtomSumSet:
    """All sums of at most k atom locations that land in (0, x_max].

    ``representations`` counts the ordered tuples of min_jumps atoms that
    reach a value, and ``weight`` sums the product of their masses over
    those tuples: the weight J_k(x) of the order-k derivative jump at a
    value with min_jumps = k.  Values are deduplicated exactly when every
    atom location is rational, with a 1e-12 relative tolerance otherwise.
    """

    k: int
    x_max: float
    entries: tuple
    exact_mode: bool

    @cached_property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=float)

    @cached_property
    def _by_exact(self) -> dict:
        return {e.exact: e for e in self.entries}

    def member(self, x, exact: Optional[Fraction] = None) -> Optional[AtomSumEntry]:
        if self.exact_mode and exact is not None:
            return self._by_exact.get(exact)
        j = _near(self.values, float(x))
        return None if j is None else self.entries[j]


def atom_sums(atomic: AtomicPart, k: int, x_max: float, budget: int = DEFAULT_SUM_BUDGET) -> AtomSumSet:
    """Breadth-first enumeration of the k-fold atom-sum set, pruned at x_max.

    Level j carries, for every sum of j atoms, the number of ordered j-tuples
    reaching it and the sum of their mass products; an entry keeps the pair
    from the first level that reaches its value.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if x_max <= 0:
        raise ValueError("x_max must be > 0")
    exact_mode = atomic.all_rational
    if atomic.is_empty:
        return AtomSumSet(k=k, x_max=x_max, entries=(), exact_mode=exact_mode)

    if exact_mode:
        atoms = list(atomic.exact_locations)
        limit = Fraction(x_max).limit_denominator(10**15) if not isinstance(x_max, Fraction) else x_max
        tol_ok = lambda v: v <= limit or float(v) <= x_max * (1 + 1e-12)
    else:
        atoms = list(atomic.locations)
        tol_ok = lambda v: v <= x_max * (1 + 1e-12)
    seen = []  # sorted float keys, pairwise further apart than the tolerance

    def canonical(v: float) -> float:
        j = _near(seen, v)
        if j is None:
            insort(seen, v)
            return v
        return seen[j]

    masses = list(atomic.masses)
    first_seen = {}  # key -> (level, value_float, exact, ordered reps, weight at that level)
    level_sums = {0: (1, 1.0)}  # key -> (ordered-tuple count, mass-product sum); level 0: the empty tuple
    spent = 0
    for level in range(1, k + 1):
        next_sums = {}
        for key, (cnt, wt) in level_sums.items():
            for a, m in zip(atoms, masses):
                spent += 1
                if spent > budget:
                    raise BudgetExceededError(level, budget)
                v = key + a
                if tol_ok(v):
                    nk = v if exact_mode else canonical(float(v))
                    c, w = next_sums.get(nk, (0, 0.0))
                    next_sums[nk] = (c + cnt, w + wt * m)
        for key, (cnt, wt) in next_sums.items():
            first_seen.setdefault(key, (level, float(key), key if exact_mode else None, cnt, wt))
        level_sums = next_sums

    entries = sorted(
        (
            AtomSumEntry(value=val, exact=ex, min_jumps=lvl, representations=reps, weight=wt)
            for lvl, val, ex, reps, wt in first_seen.values()
        ),
        key=lambda e: e.value,
    )
    return AtomSumSet(k=k, x_max=float(x_max), entries=tuple(entries), exact_mode=exact_mode)


# ---------------------------------------------------------------------------
# convolution engine
# ---------------------------------------------------------------------------


def _unwrap(out: np.ndarray, x):
    """A float for a scalar argument x, else the array."""
    return float(out[0]) if np.ndim(x) == 0 else out


class ConvolutionEngine:
    """Evaluates (tbar + q)^{*n} and its running integral on [0, x_max].

    ``power``, ``running``, ``mass_scale`` and ``alternating_sum`` take a
    number or an array of numbers; an array is evaluated with one ladder
    lookup per order, and each entry equals the scalar call bit for bit.
    """

    def __init__(self, model: LevyModel, x_max: float, budget: int = DEFAULT_SUM_BUDGET):
        if not (x_max > 0 and math.isfinite(x_max)):
            raise ValueError(f"x_max must be a finite number > 0, got {x_max!r}")
        self.model = model
        self.x_max = float(x_max)
        self.budget = int(budget)
        atomic = model.atomic
        self._pc_trivial = atomic.is_empty and model.q == 0.0
        self._pc = PiecewisePoly.step_tail(atomic.locations, atomic.masses, model.q)
        self._pc_pow = {1: self._pc}
        self._pc_run = {}
        self._sum_sets = {}
        self._jacobi = {}
        ac = model.ac
        if ac.is_none:
            self._A = 0.0
        else:
            self._A = ac.C * _gamma(1.0 - ac.alpha)

    # -- public surface ------------------------------------------------------

    def power(self, n: int, x, side: Side = Side.LEFT):
        """(tbar + q)^{*n}(x); side selects the one-sided limit for n = 1.

        Convolutions of order n >= 2 are continuous, so the side argument is
        ignored there.  x may be a number or an array of numbers in (0, x_max].
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        xs = self._check_x(x, allow_zero=False)
        if n == 1:
            tail, q = self.model.tail, self.model.q
            out = np.array([tail(float(v), side) + q for v in xs])
        else:
            out = self._binomial(n, xs, running=False)
        return _unwrap(out, x)

    def running(self, n: int, x):
        """(1 * (tbar + q)^{*n})(x); the n = 0 convention is the constant 1.

        x may be a number or an array of numbers in [0, x_max]; the running
        integral is 0 at x = 0 for n >= 1.
        """
        if n == 0:
            return 1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))
        xs = self._check_x(x, allow_zero=True)
        return _unwrap(self._binomial(n, xs, running=True), x)

    def alternating_sum(self, x, n_lo: int, n_hi, side: Optional[Side] = None):
        """sum_{n_lo <= n < n_hi} (-1)^n drift^-(n+1) g_n(x), the split series' finite part.

        g_n is the running integral ``running(n, x)`` when side is None (the
        density's terms) and the power ``power(n, x, side)`` otherwise (the
        derivative's terms).  For an array x, n_hi may be an array too: each
        point keeps its own stopping order, and order n is evaluated only at
        the points with n < n_hi.  Every point's sum is bit-for-bit the sum a
        scalar call would form.
        """
        delta = self.model.drift
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        hi = np.broadcast_to(np.asarray(n_hi), xs.shape)
        total = np.zeros(xs.shape)
        for n in range(n_lo, int(hi.max(initial=n_lo))):
            sel = hi > n
            g = self.running(n, xs[sel]) if side is None else self.power(n, xs[sel], side)
            total[sel] += (-1.0) ** n / delta ** (n + 1) * g
        return _unwrap(total, x)

    def mass_scale(self, x):
        """m(x) = (1 * (tbar + q))(x) / drift, the series contraction factor.

        x may be a number or an array; m is 0 for x <= 0 and is held at its
        value at x_max beyond the horizon.
        """
        # the running integral is 0 at x = 0; a NaN passes on to its domain check
        return self.running(1, np.clip(np.asarray(x, dtype=float), 0.0, self.x_max)) / self.model.drift

    def kinks(self, n: int) -> np.ndarray:
        """Potential non-smoothness points of order-n convolutions in (0, x_max]."""
        return self.sum_set(n).values

    def sum_set(self, k: int) -> AtomSumSet:
        if k not in self._sum_sets:
            self._sum_sets[k] = atom_sums(self.model.atomic, k, self.x_max, self.budget)
        return self._sum_sets[k]

    # -- internals -------------------------------------------------------------

    def _check_x(self, x, allow_zero: bool) -> np.ndarray:
        """x as a 1-D float array, after checking it lies in (0, x_max] ([0, x_max])."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if xs.size == 0:
            return xs
        lo, hi = float(xs.min()), float(xs.max())  # NaN if any entry is NaN
        if not (lo >= 0 if allow_zero else lo > 0):
            raise ValueError(f"convolution argument must be {'>=' if allow_zero else '>'} 0, got {lo!r}")
        if hi > self.x_max * (1 + 1e-12):
            raise ValueError(f"x={hi!r} beyond engine horizon {self.x_max!r}")
        return xs

    def pc_power(self, i: int) -> PiecewisePoly:
        if i not in self._pc_pow:
            prev = self.pc_power(i - 1)
            atomic = self.model.atomic
            nxt = prev.convolve_step_tail(atomic.locations, atomic.masses, self.model.q, x_max=self.x_max)
            if nxt.breaks.size * max(1, nxt.degree) > self.budget:
                raise BudgetExceededError(i, self.budget)
            self._pc_pow[i] = nxt
        return self._pc_pow[i]

    def pc_running(self, i: int) -> PiecewisePoly:
        if i not in self._pc_run:
            self._pc_run[i] = self.pc_power(i).antiderivative()
        return self._pc_run[i]

    def _ac_exponents(self, j: int):
        alpha = self.model.ac.alpha
        p = j * (1.0 - alpha) - 1.0
        log_k = j * math.log(self._A) - _gammaln(j * (1.0 - alpha))
        return p, math.exp(log_k)

    def _binomial(self, n: int, xs: np.ndarray, running: bool) -> np.ndarray:
        """sum_j C(n, j) pc^{*(n-j)} * s^{*j} at the points xs, or its running integral.

        The pure pc term (j = 0) is one ladder lookup for all points.
        Without atoms pc is the constant q: each cross term (0 < j < n) is
        one closed-form array (``_killing_cross``), the pure tail term
        (j = n) is formed point by point, and the terms are added as arrays
        in order of j.  With atoms the terms with the AC tail are added
        point by point in scalar floats, the cross terms by cell quadrature.
        Either way a point's value does not depend on the array it arrives
        in.
        """
        total = np.zeros(xs.shape)
        if not self._pc_trivial:
            total += (self.pc_running(n) if running else self.pc_power(n)).eval(xs)
        if self.model.ac.is_none:
            return total
        if self.model.atomic.is_empty:
            for j in range(1, n + 1):
                i = n - j
                if i == 0:
                    f = self._ac_running if running else self._ac_power
                    total += np.array([f(j, x) for x in xs.tolist()])
                elif not self._pc_trivial:
                    total += math.comb(n, j) * self._killing_cross(i, j, xs, running)
            return total
        for k, x in enumerate(xs.tolist()):
            t = float(total[k])
            for j in range(1, n + 1):
                t += math.comb(n, j) * self._ac_term(n - j, j, x, running)
            total[k] = t
        return total

    def _ac_term(self, i: int, j: int, x: float, running: bool) -> float:
        """pc^{*i} * s^{*j} at x (j >= 1), or its running integral, by quadrature for i >= 1."""
        if i == 0:
            return self._ac_running(j, x) if running else self._ac_power(j, x)
        pp = self.pc_running(i) if running else self.pc_power(i)
        return self._cross(pp, j, x)

    def _killing_cross(self, i: int, j: int, xs: np.ndarray, running: bool) -> np.ndarray:
        """q^i y^(i-1)/(i-1)! * s^{*j} at the points xs (i >= 1), or its running integral.

        With m = i - 1 (m = i for the running integral, whose pc factor is
        q^i y^i/i!), int_0^x (x - v)^m v^p e^{-b v} dv
        = x^(m+p+1) B(m+1, p+1) 1F1(p+1; m+p+2; -b x) (DLMF 13.4.1).
        The prefactor is formed in logarithms, so a vanishing coefficient
        and a large power of x cannot meet as 0 * inf.
        """
        ac = self.model.ac
        m = i if running else i - 1
        p, K = self._ac_exponents(j)
        log_c = math.log(K) + i * math.log(self.model.q) - _gammaln(m + 1.0) + _betaln(m + 1.0, p + 1.0)
        with np.errstate(divide="ignore"):  # log(0) = -inf gives the running integral's 0 at x = 0
            out = np.exp(log_c + (m + p + 1.0) * np.log(xs))
        if ac.kind == "tempered":
            out *= _hyp1f1(p + 1.0, m + p + 2.0, -ac.b * xs)
        return out

    def _ac_power(self, j: int, x: float) -> float:
        p, K = self._ac_exponents(j)
        val = K * x**p
        if self.model.ac.kind == "tempered":
            val *= math.exp(-self.model.ac.b * x)
        return val

    def _ac_running(self, j: int, x: float) -> float:
        ac = self.model.ac
        s = j * (1.0 - ac.alpha)
        if ac.kind == "stable":
            _, K = self._ac_exponents(j)
            return K * x**s / s
        log_a = j * math.log(self._A) - s * math.log(ac.b)
        return math.exp(log_a) * float(_gammainc(s, ac.b * x))

    def _jacobi_rule(self, p: float):
        key = round(p, 12)
        if key not in self._jacobi:
            nodes, weights = roots_jacobi(20, 0.0, p)
            self._jacobi[key] = (nodes, weights)
        return self._jacobi[key]

    def _cross(self, pp: PiecewisePoly, j: int, x: float) -> float:
        """int_0^x pp(x - v) * K v^p e^{-b v} dv with cells split at pp's kinks."""
        ac = self.model.ac
        p, K = self._ac_exponents(j)
        b = ac.b if ac.kind == "tempered" else 0.0
        edges = [0.0, x]
        for br in pp.breaks:
            v = x - br
            if _VALUE_TOL < v < x - _VALUE_TOL:
                edges.append(v)
        edges = np.unique(np.asarray(edges))
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += self._cross_cell(pp, x, lo, hi, p, b)
        return K * total

    def _cross_cell(self, pp, x, lo, hi, p, b) -> float:
        if hi - lo <= 0:
            return 0.0
        if lo == 0.0:
            cap = hi if b == 0.0 else min(hi, 8.0 / b)
            nodes, weights = self._jacobi_rule(p)
            half = 0.5 * cap
            v = half * (nodes + 1.0)
            phi = pp.eval(x - v)
            if b > 0.0:
                phi = phi * np.exp(-b * v)
            val = half ** (p + 1.0) * float(np.dot(weights, phi))
            if cap < hi:
                val += self._cross_cell(pp, x, cap, hi, p, b)
            return val
        # smooth region: geometric splits keep the v^p factor well resolved,
        # and cells at most 8/b wide the exponential
        mid = hi
        if hi / lo > 8.0:
            mid = lo * 8.0
        elif b > 0.0 and (hi - lo) > 8.0 / b:
            mid = lo + 8.0 / b
        # a split point that rounds onto an end would split the cell into itself
        if lo < mid < hi:
            return self._cross_cell(pp, x, lo, mid, p, b) + self._cross_cell(pp, x, mid, hi, p, b)
        half = 0.5 * (hi - lo)
        v = lo + half * (_GL_NODES + 1.0)
        integrand = pp.eval(x - v) * v**p
        if b > 0.0:
            integrand = integrand * np.exp(-b * v)
        return half * float(np.dot(_GL_WEIGHTS, integrand))
