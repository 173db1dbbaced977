"""Iterated convolutions of the (tail + killing) kernel and atom-sum sets.

The kernel f = tbar + q splits into a piecewise-constant part pc (atoms
plus the constant q) and a smooth tail part s (stable / tempered family).
The n-fold convolution expands binomially,

    f^{*n} = sum_j C(n, j) pc^{*(n-j)} * s^{*j},

where pc^{*i} is an exact piecewise polynomial (degree i-1, breakpoints on
the i-fold atom sums) and s^{*j} is closed form (powers and exponentials are
stable under self-convolution).  The atoms are pc's only kinks, so below the
smallest atom a_min (everywhere without atoms) pc^{*i} is the single
monomial c_i y^(i-1), and its running integral c_i y^i/i: one coefficient
table serves every model there, evaluated and fed to the cross terms
without PiecewisePoly, and only points past a_min build and read ladders.
A cross term is an integral of pc^{*i}(x - v) against s^{*j}(v) =
K v^p e^{-b v}, split at pc^{*i}'s breakpoints so that integration never
crosses a kink.  On the cell next to v = 0 the polynomial, in that cell's
local coefficients, meets the singular weight in closed form: a Beta
function times a Kummer function per monomial (DLMF 13.4.1).  Below a_min
that cell is all of [0, x]; past it the cells further out are smooth and go
through one batched Gauss-Legendre rule.  The cross terms of all orders of
a sum, at all their points, go through one array pass, cut into batches of
at most ``_MAX_ENTRIES`` monomial entries so that memory stays bounded;
only the pure tail terms, and past a_min the pure pc terms, take array
calls per order, whatever the number of points.

Evaluations are pure; the per-order ladders are memoized with an exclusive
writer during construction and are safe for concurrent readers afterwards.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _special
from ._special import hyp1f1_neg as _hyp1f1_neg
from .errors import BudgetExceededError, check_positive
from .model import _LOCATION_TOL, AtomicPart, LevyModel, Side
from .piecewise import _BREAK_TOL, PiecewisePoly

DEFAULT_SUM_BUDGET = 10**7
_MAX_ENTRIES = 2**16  # monomial entries of one batched cross-term pass; bounds its memory


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


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
        if 0 <= j < len(sorted_values) and abs(sorted_values[j] - v) <= _LOCATION_TOL * max(1.0, abs(v)):
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
    In the exact mode ``exact`` is the sum as a Fraction, and ``value`` is
    that Fraction correctly rounded to a float.
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
    from the first level that reaches its value.  With rational atoms every
    sum is keyed by its int numerator over D, the lcm of the atoms'
    denominators, so additions, lookups and the x_max test run on ints;
    a sum just past x_max is kept if its float is within 1e-12 relative.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not x_max > 0:  # inf passes: every k-fold sum
        raise ValueError(f"x_max must be a number > 0, got {x_max!r}")
    exact_mode = atomic.all_rational
    if atomic.is_empty:
        return AtomSumSet(k=k, x_max=x_max, entries=(), exact_mode=exact_mode)

    if exact_mode:
        scale = math.lcm(*(a.denominator for a in atomic.exact_locations))
        atoms = [a.numerator * (scale // a.denominator) for a in atomic.exact_locations]
        if not isinstance(x_max, Fraction) and math.isinf(x_max):
            top = math.inf  # every int compares below it
        else:
            limit = x_max if isinstance(x_max, Fraction) else Fraction(x_max).limit_denominator(10**15)
            top = math.floor(limit * scale)  # v / D <= limit exactly when the int v <= top
        # v / D is correctly rounded, so it equals float(Fraction(v, D))
        tol_ok = lambda v: v <= top or v / scale <= x_max * (1 + 1e-12)
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
    first_seen = {}  # key -> (level, ordered reps, weight at that level)
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
            first_seen.setdefault(key, (level, cnt, wt))
        level_sums = next_sums

    value = (lambda v: (v / scale, Fraction(v, scale))) if exact_mode else (lambda v: (v, None))
    entries = sorted(
        (
            AtomSumEntry(*value(key), min_jumps=lvl, representations=reps, weight=wt)
            for key, (lvl, reps, wt) in first_seen.items()
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
        check_positive("x_max", x_max)
        self.model = model
        self.x_max = float(x_max)
        self.budget = int(budget)
        atomic = model.atomic
        self._pc_trivial = atomic.is_empty and model.q == 0.0
        self._pc = PiecewisePoly.step_tail(atomic.locations, atomic.masses, model.q)
        self._pc_pow = {1: self._pc}
        self._pc_run = {}
        # below the smallest atom pc^{*i}(y) = c_i y^(i-1) (``_monomials``), c_1 = pc(0+); entry 0 is unused
        self._a_min = float(atomic.locations[0]) if atomic.locations else math.inf
        self._table = [math.nan, float(self._pc.coeffs[0, 0])]
        self._ac_tables = None  # ``_ac_table``, built on first use
        self._sum_sets = {}

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
            # model.tail(x, side) + q, in the same order of additions
            out = self.model.atomic.tail(xs, side)
            if self.model.has_ac:
                out = out + self.model.ac.tail(xs)
            out = out + self.model.q
        else:
            out, = self._binomial([(n, np.arange(xs.size))], xs, running=False)
        return _unwrap(out, x)

    def running(self, n: int, x):
        """(1 * (tbar + q)^{*n})(x); the n = 0 convention is the constant 1.

        x may be a number or an array of numbers in [0, x_max]; the running
        integral is 0 at x = 0 for n >= 1.
        """
        if n == 0:
            return 1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))
        xs = self._check_x(x, allow_zero=True)
        out, = self._binomial([(n, np.arange(xs.size))], xs, running=True)
        return _unwrap(out, x)

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
        running = side is None
        orders = [(n, np.nonzero(hi > n)[0]) for n in range(n_lo, int(hi.max(initial=n_lo)))]
        low = [(n, pts) for n, pts in orders if n < (1 if running else 2)]  # the constant 1, the model tail
        high = orders[len(low):]
        if high:
            self._check_x(xs[high[0][1]], allow_zero=running)  # later orders take a subset of its points
        values = chain((np.ones(pts.size) if running else self.power(n, xs[pts], side) for n, pts in low),
                       self._binomial(high, xs, running))
        for (n, pts), g in zip(orders, values):
            total[pts] += (-1.0) ** n / delta ** (n + 1) * g
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
        """x as a contiguous 1-D float array, after checking it lies in (0, x_max] ([0, x_max])."""
        # numpy runs a SIMD pow on contiguous arrays and libm's on strided ones, and the two
        # differ in the last bit: a reversed view of x must give the reversed values
        xs = np.ascontiguousarray(x, dtype=float)
        if xs.size == 0:
            return xs
        lo, hi = float(xs.min()), float(xs.max())  # NaN if any entry is NaN
        if not (lo >= 0 if allow_zero else lo > 0):
            raise ValueError(f"convolution argument must be {'>=' if allow_zero else '>'} 0, got {lo!r}")
        if hi > self.x_max * (1 + 1e-12):
            raise ValueError(f"x={hi!r} beyond engine horizon {self.x_max!r}")
        return xs

    def pc_power(self, i: int) -> PiecewisePoly:
        """pc^{*i}, convolved from pc^{*(i-1)}; the series reads it only at and past the smallest atom."""
        if i not in self._pc_pow:
            atomic = self.model.atomic
            nxt = self.pc_power(i - 1).convolve_step_tail(atomic.locations, atomic.masses, self.model.q,
                                                          x_max=self.x_max)
            if nxt.breaks.size * max(1, nxt.degree) > self.budget:
                raise BudgetExceededError(i, self.budget)
            self._pc_pow[i] = nxt
        return self._pc_pow[i]

    def pc_running(self, i: int) -> PiecewisePoly:
        """The running integral of pc^{*i}."""
        if i not in self._pc_run:
            self._pc_run[i] = self.pc_power(i).antiderivative()
        return self._pc_run[i]

    def _monomials(self, top: int, running: bool) -> tuple[np.ndarray, np.ndarray]:
        """(a, m) over i = 0 .. top: pc^{*i}(y) = a_i y^(m_i) below the smallest atom, or its running integral.

        On [0, a_min), the first cell of every pc ladder (all of [0, inf)
        without atoms), pc^{*i} is the single monomial c_i y^(i-1).  Its
        coefficient follows the recurrence that ``convolve_step_tail``
        applies to that cell, t = c_{i-1}/(i-1) and c_i = t q + t m_1 +
        t m_2 + ... over the atoms' masses in order (q^i/(i-1)! without
        atoms), and the running integral's is c_i/i, as ``antiderivative``
        forms it, bit for bit.  Entry 0 is unused.  The table grows on a
        copy that is published whole, so concurrent readers that grow it
        build the same list.
        """
        c = self._table
        if len(c) <= top:
            c = list(c)
            q, masses = self.model.q, [float(v) for v in self.model.atomic.masses]
            for i in range(len(c), top + 1):
                if i - 1 > self.budget:  # the degree, as pc_power bounds a ladder's size
                    raise BudgetExceededError(i, self.budget)
                t = c[i - 1] / (i - 1)
                c_i = t * q
                for mass in masses:
                    c_i += t * mass
                c.append(c_i)
            self._table = c
        i = np.arange(top + 1)
        a = np.array(c[:top + 1])
        return (a / np.maximum(i, 1), i) if running else (a, i - 1)

    def _ac_table(self, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, log K, log B) of the tail powers s^{*j}(v) = K v^(s-1) e^{-b v} over j = 0 .. top at least.

        s_j = j (1 - alpha) and log K_j = j log g - log Gamma(s_j), from
        ``_special.log_powers`` and ``_special.log_gamma``; log B[m, j] = log B(m + 1, s_j)
        over the degrees m = 0 .. top (``_special.log_beta``), the Beta factor of ``_near_cell``.
        Entry j = 0 is unused.  An entry does not depend on the size of the
        tables, which grow to twice their size at least, on new arrays
        published whole, so concurrent readers that grow them read the same
        entries.
        """
        tables = self._ac_tables
        if tables is None or tables[0].size <= top:
            ac = self.model.ac
            top = max(top, 32 if tables is None else 2 * (tables[0].size - 1))
            j = np.arange(top + 1)
            s = j * (1.0 - ac.alpha)
            log_k = _special.log_powers(ac.C, 1.0 - ac.alpha, top)
            log_k -= [math.inf, *map(_special.log_gamma, s[1:].tolist())]
            with np.errstate(divide="ignore"):
                tables = self._ac_tables = s, log_k, _special.log_beta(top, s)
        return tables

    def _binomial(self, orders, xs: np.ndarray, running: bool):
        """Yield sum_j C(n, j) pc^{*(n-j)} * s^{*j}, or its running integral, for each (n, pts).

        The sum is taken at the points xs[pts]; n >= 2 for the power and
        n >= 1 for the running integral, and the orders ascend.  A point
        certainly below the smallest atom a_min, x + 1e-12 max(1, x) <
        a_min as ``PiecewisePoly.eval`` snaps it (every point without
        atoms), lies in the first cell of every pc ladder, where pc^{*i} is
        the monomial of ``_monomials``: it takes the coefficient table, and
        an order whose points all do builds no ladder.  The other points
        take the ladders; each order's two parts are put back in the order
        of its points.  A point's value does not depend on the orders or
        points it is batched with, so it is the one its own ladder gives.
        """
        head = xs + _BREAK_TOL * np.maximum(1.0, xs) < self._a_min
        if head.all():
            yield from self._batches(orders, xs, running, table=True)
            return
        split = [(pts, head[pts]) for _, pts in orders]
        near = self._batches([(n, pts[h]) for (n, _), (pts, h) in zip(orders, split) if h.any()], xs, running, True)
        far = self._batches([(n, pts[~h]) for (n, _), (pts, h) in zip(orders, split) if not h.all()], xs, running,
                            False)
        for pts, h in split:
            out = np.empty(pts.size)
            if h.any():
                out[h] = next(near)
            if not h.all():
                out[~h] = next(far)
            yield out

    def _batches(self, orders, xs: np.ndarray, running: bool, table: bool):
        """The sums of ``_binomial`` for orders whose points all take the table, or all the ladders.

        The pure pc term (j = 0) is one Horner pass over the batch from the
        table, or one ladder lookup per order, and the pure tail term
        (j = n) one closed-form array.  The cross terms (0 < j < n) of
        consecutive orders share one array pass, flushed before its
        monomial entries would pass ``_MAX_ENTRIES``.  An order's terms are
        added point by point in order of j.
        """
        cross = not (self._pc_trivial or self.model.ac.is_none)
        top = max((n for n, _ in orders), default=0)
        # an order's entries per point are at most nonzeros[n - 1]: the most
        # nonzero coefficients in one cell, summed over ladders 1 .. n - 1;
        # in the table's cell each ladder is one entry, whatever its coefficient
        if not cross:
            per_ladder = [0] * (top - 1)
        elif table:
            per_ladder = [1] * (top - 1)
        else:
            ladder = self.pc_running if running else self.pc_power
            per_ladder = [np.count_nonzero(ladder(i).coeffs, axis=1).max() for i in range(1, top)]
        nonzeros = np.cumsum(np.concatenate([[0], per_ladder]))
        batch, entries = [], 0
        for n, pts in orders:
            size = int(nonzeros[n - 1]) * pts.size
            if batch and entries + size > _MAX_ENTRIES:
                yield from self._binomial_batch(batch, xs, running, cross, table)
                batch, entries = [], 0
            batch.append((n, pts))
            entries += size
        if batch:
            yield from self._binomial_batch(batch, xs, running, cross, table)

    def _binomial_batch(self, batch, xs: np.ndarray, running: bool, cross: bool, table: bool):
        """The sums of ``_batches`` for one batch of orders, its cross terms from one array pass.

        With cross terms, one zero-padded (top + 1) x points matrix holds
        every order's terms at its own columns: row 0 the pure pc term, row
        j the cross term times C(n, j), 0 < j < n, and row n the pure tail
        term.  One cumsum down the rows adds them in order of j, as
        ``total += term`` over j would (a reduction may sum pairwise), and
        row n of an order's columns is its sum.
        """
        ladder = self.pc_running if running else self.pc_power
        if not self._pc_trivial:
            pure = self._monomial_terms(batch, xs, running) if table else [ladder(n).eval(xs[pts]) for n, pts in batch]
        if not self.model.ac.is_none:
            orders = np.array([n for n, _ in batch])
            sizes = np.array([pts.size for _, pts in batch])
            points = np.concatenate([pts for _, pts in batch])
            tails = self._tail_term(np.repeat(orders, sizes), xs[points], running)
        if not (cross and batch[-1][0] > 1):
            start = 0
            for k, (_, pts) in enumerate(batch):
                total = np.zeros(pts.size)
                if not self._pc_trivial:
                    total += pure[k]
                yield total if self.model.ac.is_none else total + tails[start:start + pts.size]
                start += pts.size
            return
        # the cross rows (n, j), j = 1 .. n - 1, in order, each over its order's points;
        # entry e of them goes to sums[j, column[e]]
        rows = orders - 1
        n = np.repeat(orders, rows)
        j = np.arange(n.size) - np.repeat(np.cumsum(rows) - rows, rows) + 1
        size = np.repeat(sizes, rows)
        column = np.repeat(np.repeat(np.cumsum(sizes) - sizes, rows) - (np.cumsum(size) - size), size)
        column += np.arange(column.size)
        if table:
            terms = self._monomial_cross(n - j, j, size, xs[points[column]], running)
        else:
            terms = self._cross([(ladder(i), k) for i, k in zip((n - j).tolist(), j.tolist())], xs,
                                np.split(points[column], np.cumsum(size)[:-1]))
        sums = np.zeros((int(orders.max()) + 1, points.size))
        if not self._pc_trivial:
            sums[0] += np.concatenate(pure)
        comb = np.array([math.comb(*nj) for nj in zip(n.tolist(), j.tolist())], dtype=float)
        sums[np.repeat(j, size), column] = np.repeat(comb, size) * terms
        tail = np.repeat(orders, sizes), np.arange(points.size)
        sums[tail] = tails
        yield from np.split(np.cumsum(sums, axis=0)[tail], np.cumsum(sizes)[:-1])

    def _monomial_terms(self, batch, xs: np.ndarray, running: bool) -> list:
        """a_n x^(m_n) of ``_monomials`` for each order n of a batch at its points.

        As ``PiecewisePoly.eval``'s Horner loop forms it over zero lower
        coefficients: a_n, then times x, m_n times over, so the product
        associates left to right.  The orders ascend, so in reverse their
        entries still to multiply are a prefix, and the pass takes one array
        step per degree of the highest order.  Like ``eval``'s left limit at
        0, the value is 0 for x <= ``_BREAK_TOL``.
        """
        a, m = self._monomials(batch[-1][0], running)
        orders = np.array([n for n, _ in batch[::-1]])
        sizes = np.array([pts.size for _, pts in batch[::-1]])
        x = xs[np.concatenate([pts for _, pts in batch[::-1]])]
        val, degree = np.repeat(a[orders], sizes), m[orders]
        ends = np.cumsum(sizes)
        for k in range(int(degree[0])):
            stop = ends[np.count_nonzero(degree > k) - 1]
            val[:stop] *= x[:stop]
        val[x <= _BREAK_TOL] = 0.0
        return np.split(val, ends[:-1])[::-1]

    def _monomial_cross(self, i, j, size, x, running: bool) -> np.ndarray:
        """The cross terms of ``_binomial_batch`` below the smallest atom, row (i + j, j) over its points x.

        pc^{*i} is the monomial a_i y^(m_i) of ``_monomials`` on all of
        [0, x], its ladder's first cell, so every point of a row is one
        entry of ``_near_cell`` with c = x: the entries come from one repeat
        of the rows' coefficients, degrees and exponents, with no ladder
        lookup.  ``size`` is each row's number of points.
        """
        a, m = (v[i] for v in self._monomials(int(i.max()), running))
        return self._near_cell(*(np.repeat(v, size) for v in (a, m, j)), x)

    def _tail_term(self, j, xs: np.ndarray, running: bool) -> np.ndarray:
        """s^{*j} at the points xs, or its running integral; j is one order or one per point.

        The running integral K int_0^x v^(s-1) e^{-b v} dv is K x^s / s
        times 1F1(s; s + 1; -b x), ``_near_cell``'s entry with a = 1 and m =
        0, so the incomplete Gamma function of all the orders of a batch is
        one ``_hyp1f1_neg`` call.  An order is spread over the
        points first, so a point's value does not depend on the others.
        """
        j = np.broadcast_to(j, xs.shape)
        s, log_k, _ = self._ac_table(int(j.max(initial=0)))
        s, b = s[j], self.model.ac.tempering
        if running:
            out = np.exp(log_k[j]) * xs**s / s
            if b:
                out *= _hyp1f1_neg(s, s + 1.0, b * xs)
        else:
            out = np.exp(log_k[j]) * xs ** (s - 1.0)
            if b:
                out *= np.exp(-b * xs)
        return out

    def _near_cell(self, a, m, j, c) -> np.ndarray:
        """a K int_0^c (c - v)^m v^p e^{-b v} dv per entry of the order j (DLMF 13.4.1).

        a K c^(m+p+1) B(m+1, p+1) 1F1(p+1; m+p+2; -b c), with K, p and the
        Beta function looked up in ``_ac_table`` by (m, j), the prefactor
        formed in logarithms, so a vanishing coefficient and a large power
        of c cannot meet as 0 * inf, and one ``_hyp1f1_neg`` call for all
        entries.
        """
        s, log_k, log_beta = self._ac_table(max(int(j.max(initial=0)), int(m.max(initial=0))))
        p = s[j] - 1.0
        with np.errstate(divide="ignore"):  # log(0) = -inf gives the running integral's 0 at x = 0
            val = np.exp(log_k[j] + np.log(np.abs(a)) + log_beta[m, j] + (m + p + 1.0) * np.log(c))
        val *= np.sign(a)
        b = self.model.ac.tempering
        if b > 0.0:
            val *= _hyp1f1_neg(p + 1.0, m + p + 2.0, b * c)
        return val

    def _cross(self, terms, xs: np.ndarray, points) -> np.ndarray:
        """pp * s^{*j} at the points xs[points[r]] for every row r = (pp, j) of terms.

        The rows' values come back one after another.  pp is a
        PiecewisePoly, pc^{*i} or its running integral.  The cell of pp
        holding x, v in [0, c] with c = x - beta_K, is integrated in closed
        form by ``_near_cell``, one entry per nonzero local coefficient a_m
        of that cell.  Each distinct pp is looked up once, at every point:
        its cell, c and nonzero coefficients, which are then copied to each
        row that uses it.  The cells below it, v in [c, x], exist only with
        atoms and go through ``_far_cells``.
        """
        lookup = {}  # id(pp) -> (its index, pp), in order of first use
        for pp, _ in terms:
            lookup.setdefault(id(pp), (len(lookup), pp))
        ladders = [pp for _, pp in lookup.values()]
        cells, count, a, m, c = [], [], [], [], []  # slot k * xs.size + point: ladder k at that point
        for pp in ladders:
            # x on a break takes the cell ending there, x = 0 the first cell
            cell = np.maximum(np.searchsorted(pp.breaks, xs) - 1, 0)
            local = pp.coeffs[cell]
            point, power = np.nonzero(local)  # a point's monomials in ascending m
            cells.append(cell)
            count.append(np.bincount(point, minlength=xs.size))
            a.append(local[point, power])
            m.append(power)
            c.append(xs - pp.breaks[cell])
        count, a, m, c = (np.concatenate(v) for v in (count, a, m, c))

        # copy each (row, point) pair's slot entries, one after another
        sizes = [pts.size for pts in points]
        row = np.repeat(np.arange(len(terms)), sizes)
        slot = np.array([lookup[id(pp)][0] for pp, _ in terms], dtype=int)[row] * xs.size + np.concatenate(points)
        per_pair = count[slot]
        pair = np.repeat(np.arange(slot.size), per_pair)
        # the slot's first entry, less the pair's first position in the copy
        entry = np.repeat((np.cumsum(count) - count)[slot] - (np.cumsum(per_pair) - per_pair), per_pair)
        entry += np.arange(entry.size)
        val = self._near_cell(a[entry], m[entry], np.array([j for _, j in terms], dtype=int)[row[pair]],
                              c[slot][pair])
        out = np.bincount(pair, weights=val, minlength=slot.size).astype(float, copy=False)  # int when empty
        stop = np.cumsum(sizes)
        for r, (pp, j) in enumerate(terms):
            if pp.breaks.size > 1 and (cell := cells[lookup[id(pp)][0]][points[r]]).any():
                out[stop[r] - sizes[r]:stop[r]] += self._far_cells(pp, j, xs[points[r]], cell)
        return out

    def _far_cells(self, pp: PiecewisePoly, j: int, xs: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """K int_c^x pp(x - v) v^p e^{-b v} dv at the points xs, c = x - pp.breaks[cell].

        The range splits at pp's breaks into cells [x - beta_{k+1}, x - beta_k],
        k < cell, so integration never crosses a kink, and the cells are cut
        up front into pieces with hi/lo <= 8 (for v^p) and at most 8/b wide
        (for the exponential).  All pieces of all points go through one
        20-point Gauss-Legendre batch, summed per point in a fixed order.
        """
        k, owner = np.nonzero(np.arange(cell.max())[:, None] < cell)
        lo, hi = xs[owner] - pp.breaks[k + 1], xs[owner] - pp.breaks[k]
        b = self.model.ac.tempering
        step, stop = (8.0 / b, 750.0 / b) if b > 0.0 else (math.inf, math.inf)
        hi = np.minimum(hi, stop)  # e^{-b v} is exactly 0 in floats past v = 750/b
        ends = [lo]
        while np.any(ends[-1] < hi):
            ends.append(np.minimum(np.minimum(8.0 * ends[-1], ends[-1] + step), hi))
        ends = np.array(ends)
        keep = ends[1:] > ends[:-1]
        owner, lo, hi = np.broadcast_to(owner, keep.shape)[keep], ends[:-1][keep], ends[1:][keep]
        half = 0.5 * (hi - lo)[:, None]
        nodes, weights = _gauss_legendre(20)
        v = lo[:, None] + half * (nodes + 1.0)
        s, log_k, _ = self._ac_table(j)
        p, log_k = s[j] - 1.0, log_k[j]
        f = pp.eval((xs[owner][:, None] - v).ravel()).reshape(v.shape) * v**p
        if b > 0.0:
            f *= np.exp(-b * v)
        piece = (half * f * weights).sum(axis=1)
        return math.exp(log_k) * np.bincount(owner, weights=piece, minlength=xs.size)

