import itertools
import math
from fractions import Fraction
from functools import cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from subpot import (
    AcTail,
    AtomicPart,
    BudgetExceededError,
    ConvolutionEngine,
    LevyModel,
    Side,
    atom_sums,
    series_radius,
    u_series,
)
from subpot import _special, convolve
from subpot.piecewise import PiecewisePoly


def brute_force_sums(locations, k, x_max):
    """Exhaustive <=k-fold sum enumeration. Only viable for tiny atom sets."""
    found = set()
    for j in range(1, k + 1):
        for combo in itertools.product(locations, repeat=j):
            v = sum(combo)
            if v <= x_max + 1e-12:
                found.add(round(v, 10))
    return found


def cross_reference(eng, pp, j: int, x: float):
    """pp * s^{*j} at x by mpmath.quad at 40 digits, s^{*j}(v) = A^j v^(s-1) e^{-bv} / Gamma(s) with
    s = j (1 - alpha).  The range splits at v = x - breaks, and on each cell pp is its own
    coefficients' polynomial.  In v = u^4 the factor v^(s-1) dv is 4 u^(4s-1) du with 4s - 1 > 0:
    no quadrature node sits on a singularity, where rounding the node would cost digits.  Only the
    cell at v = 0 needs tanh-sinh; the integrand is smooth on the others, where Gauss-Legendre is
    cheaper."""
    ac = eng.model.ac
    with mpmath.workdps(40):
        alpha, b, x_mp = mpmath.mpf(ac.alpha), mpmath.mpf(ac.b if ac.kind == "tempered" else 0), mpmath.mpf(x)
        s = j * (1 - alpha)
        ends = [float(v) for v in pp.breaks if v < x] + [x]
        total = mpmath.mpf(0)
        for cell, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
            poly, origin = [mpmath.mpf(float(a)) for a in pp.coeffs[cell][::-1]], x_mp - mpmath.mpf(lo)
            f = lambda u: mpmath.polyval(poly, origin - u**4) * 4 * mpmath.exp((4 * s - 1) * mpmath.log(u) - b * u**4)
            total += mpmath.quad(f, [mpmath.root(x_mp - mpmath.mpf(hi), 4), mpmath.root(origin, 4)],
                                 method="tanh-sinh" if hi == x else "gauss-legendre")
        return (ac.C * mpmath.gamma(1 - alpha)) ** j / mpmath.gamma(s) * total


def binomial_reference(eng, quantity: str, n: int, x: float):
    """(tbar + q)^{*n}(x), or its running integral, at 40 digits: the binomial sum over pc's
    ladders, every cross term by ``cross_reference`` and the pure tail term in closed form."""
    ac, ladder = eng.model.ac, (eng.pc_running if quantity == "running" else eng.pc_power)
    with mpmath.workdps(40):
        cell = int(np.searchsorted(ladder(n).breaks, x)) - 1  # x on a break: the cell ending there
        poly = [mpmath.mpf(float(a)) for a in ladder(n).coeffs[cell][::-1]]
        total = mpmath.polyval(poly, mpmath.mpf(x) - mpmath.mpf(float(ladder(n).breaks[cell])))
        total += sum(math.comb(n, j) * cross_reference(eng, ladder(n - j), j, x) for j in range(1, n))
        alpha, b, x = mpmath.mpf(ac.alpha), mpmath.mpf(ac.b if ac.kind == "tempered" else 0), mpmath.mpf(x)
        s = n * (1 - alpha)
        k = (ac.C * mpmath.gamma(1 - alpha)) ** n / mpmath.gamma(s)
        if quantity == "power":
            return total + k * x ** (s - 1) * mpmath.exp(-b * x)
        return total + k * (mpmath.gammainc(s, 0, b * x) / b**s if b else x**s / s)


def worst_rel_error(got, want) -> float:
    """Largest |got / want - 1| over nested lists of floats and 40-digit references."""
    if isinstance(want, (list, tuple)):
        return max(worst_rel_error(g, w) for g, w in zip(got, want))
    with mpmath.workdps(40):
        return float(abs((mpmath.mpf(got) - want) / want))


class TestAtomSums:
    def test_single_atom_ladder(self):
        sums = atom_sums(AtomicPart.from_pairs([(1, 1.0)]), 3, 10.0)
        assert [e.value for e in sums.entries] == [1.0, 2.0, 3.0]
        assert [e.min_jumps for e in sums.entries] == [1, 2, 3]

    def test_two_atom_example(self):
        sums = atom_sums(AtomicPart.from_pairs([(0.5, 1.0), (0.7, 1.0)]), 2, 2.0)
        assert [e.value for e in sums.entries] == pytest.approx([0.5, 0.7, 1.0, 1.2, 1.4])
        by_value = {round(e.value, 10): e for e in sums.entries}
        assert by_value[1.2].representations == 2  # 0.5+0.7 and 0.7+0.5

    def test_reciprocal_family_rational_membership(self):
        fam = AtomicPart.reciprocal_integers([1.0 / j**2 for j in range(1, 9)], 8)
        sums = atom_sums(fam, 4, 1.0)
        # n/k with n summands of 1/k: 3/5 reachable with 3 jumps
        entry = sums.member(0.6, exact=Fraction(3, 5))
        assert entry is not None
        assert entry.min_jumps <= 3

    def test_monotone_in_k(self):
        atomic = AtomicPart.from_pairs([(0.3, 1.0), (0.45, 2.0)])
        prev = set()
        for k in range(1, 5):
            vals = {round(v, 10) for v in atom_sums(atomic, k, 2.0).values}
            assert prev <= vals
            prev = vals

    @given(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4, unique=True), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, locs, k):
        locs = sorted(locs)
        if any(b - a < 1e-6 for a, b in zip(locs, locs[1:])):
            return
        atomic = AtomicPart.from_pairs([(a, 1.0) for a in locs])
        got = {round(v, 10) for v in atom_sums(atomic, k, 5.0).values}
        assert got == brute_force_sums(locs, k, 5.0)

    def test_budget_error_names_level(self):
        fam = AtomicPart.reciprocal_integers([1.0 / j**2 for j in range(1, 33)], 32)
        with pytest.raises(BudgetExceededError) as exc:
            atom_sums(fam, 6, 50.0, budget=2000)
        assert exc.value.k <= 6

    def test_empty_atomic(self):
        assert atom_sums(AtomicPart.empty(), 3, 5.0).entries == ()


def brute_force_tuples(locations, masses, j, value, close):
    """(count, sum of mass products) over the ordered j-tuples of atoms reaching value."""
    count, products = 0, []
    for combo in itertools.product(range(len(locations)), repeat=j):
        if close(sum(locations[i] for i in combo), value):
            count += 1
            products.append(math.prod(masses[i] for i in combo))
    return count, math.fsum(products)


class TestAtomSumWeights:
    """``weight`` is the ordered-tuple mass sum J_k of the entry's min_jumps level."""

    @staticmethod
    def battery():
        # the atomic models of acceptance criterion 3
        from conftest import random_atomic_model

        rng = np.random.default_rng(7)
        return [AtomicPart.from_pairs([(1, 1.0)]), AtomicPart.from_pairs([(1, 1.0)])] + [
            random_atomic_model(rng).atomic for _ in range(6)
        ]

    def test_random_models_match_brute_force(self):
        for atomic in self.battery():
            sums = atom_sums(atomic, 3, 6.0)
            assert sums.entries
            for e in sums.entries:
                count, weight = brute_force_tuples(
                    atomic.locations, atomic.masses, e.min_jumps, e.value,
                    lambda v, x: abs(v - x) <= 1e-9,
                )
                assert e.representations == count
                assert e.weight == pytest.approx(weight, rel=1e-12)

    def test_reciprocal_family_exact(self):
        masses = [j**-1.25 for j in range(1, 9)]
        fam = AtomicPart.reciprocal_integers(masses, 8)
        sums = atom_sums(fam, 3, 1.0)
        assert sums.exact_mode
        for e in sums.entries:
            count, weight = brute_force_tuples(
                fam.exact_locations, fam.masses, e.min_jumps, e.exact, lambda v, x: v == x
            )
            assert e.representations == count
            assert e.weight == pytest.approx(weight, rel=1e-12)
        # 7/10 = 1/2 + 1/5 = 1/5 + 1/2, and no single atom
        e = sums.member(0.7, exact=Fraction(7, 10))
        assert (e.min_jumps, e.representations) == (2, 2)
        assert e.weight == pytest.approx(2 * masses[1] * masses[4], rel=1e-15)

    def test_first_level_weight_is_the_mass(self):
        atomic = AtomicPart.from_pairs([(0.5, 0.7), (0.8, 1.3)])
        sums = atom_sums(atomic, 2, 2.0)
        assert [(e.min_jumps, e.weight) for e in sums.entries[:2]] == [(1, 0.7), (1, 1.3)]

    def test_member_float_tolerance(self):
        sums = atom_sums(AtomicPart.from_pairs([(0.5, 1.0), (0.7, 1.0)]), 2, 2.0)
        assert sums.member(1.2 + 1e-13).value == pytest.approx(1.2)
        assert sums.member(1.2 + 1e-9) is None
        assert sums.member(0.1) is None and sums.member(5.0) is None


def fraction_atom_sums(atomic, k, x_max, budget):
    """The exact-mode enumeration with every sum a Fraction, as ``atom_sums`` ran it before it
    moved to int numerators: (value, exact, min_jumps, representations, weight) per entry."""
    atoms, masses = list(atomic.exact_locations), list(atomic.masses)
    limit = x_max  # a Fraction, or inf, which every Fraction compares below
    if not (isinstance(x_max, Fraction) or math.isinf(x_max)):
        limit = Fraction(x_max).limit_denominator(10**15)
    first_seen, level_sums, spent = {}, {0: (1, 1.0)}, 0
    for level in range(1, k + 1):
        next_sums = {}
        for key, (cnt, wt) in level_sums.items():
            for a, m in zip(atoms, masses):
                spent += 1
                if spent > budget:
                    raise BudgetExceededError(level, budget)
                v = key + a
                if v <= limit or float(v) <= x_max * (1 + 1e-12):
                    c, w = next_sums.get(v, (0, 0.0))
                    next_sums[v] = (c + cnt, w + wt * m)
        for key, (cnt, wt) in next_sums.items():
            first_seen.setdefault(key, (level, float(key), key, cnt, wt))
        level_sums = next_sums
    return sorted(((val, ex, lvl, reps, wt) for lvl, val, ex, reps, wt in first_seen.values()),
                  key=lambda e: e[0])


class TestIntegerNumerators:
    """Exact-mode sums run on int numerators over the atoms' common denominator; every entry
    equals the Fraction enumeration's, field for field and bit for bit."""

    BIG_PRIMES = (7919, 104729, 999983, 1000003)

    @classmethod
    def atom_sets(cls):
        """Seeded rational atom sets mixing ints, "p/q" strings and large coprime denominators;
        the first has 0.3 = 1/10 + 1/5 and 5.7 = 3·3/2 + 1 + 1/5 among its sums."""
        rng = np.random.default_rng(28)
        sets = [[("1/10", 0.4), ("1/5", 1.1), (1, 0.7), ("7/10", 2.0), ("3/2", 0.3)]]
        for _ in range(8):
            locs, n = {}, int(rng.integers(1, 6))
            while len(locs) < n:
                kind, p = int(rng.integers(3)), int(rng.choice(cls.BIG_PRIMES))
                loc = (int(rng.integers(1, 4)), f"{rng.integers(1, 30)}/{rng.integers(2, 12)}",
                       Fraction(int(rng.integers(1, 3 * p)), p))[kind]
                locs.setdefault(Fraction(loc), loc)
            sets.append([(loc, float(rng.uniform(0.1, 2.0))) for loc in locs.values()])
        return [AtomicPart.from_pairs(pairs) for pairs in sets]

    @staticmethod
    def fields(rows):
        return [(v.hex(), ex, type(ex), lvl, reps, wt.hex()) for v, ex, lvl, reps, wt in rows]

    @classmethod
    def outcome(cls, enumerate_sums):
        """The entries' fields, or the level at which the budget ran out."""
        try:
            return cls.fields(enumerate_sums())
        except BudgetExceededError as exc:
            return ("budget", exc.k, exc.budget)

    def limits(self, atomic, i):
        rng = np.random.default_rng(i)
        sums = [v for v, *_ in fraction_atom_sums(atomic, 3, math.inf, math.inf)]
        on_a_sum = sums[int(rng.integers(len(sums)))]
        # half a step of the lattice of multiples of 1/D below a sum: x_max * D is not an int
        step = 1 / math.lcm(*(a.denominator for a in atomic.exact_locations))
        limits = [float(rng.uniform(0.2, 6.0)), Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 12))),
                  math.inf, on_a_sum, math.nextafter(on_a_sum, 0.0), math.nextafter(on_a_sum, math.inf),
                  on_a_sum - step / 2]
        if i == 0:
            limits += [x for v in (0.3, 5.7) for x in (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf))]
        return limits

    def test_entries_equal_the_fraction_enumeration(self):
        for i, atomic in enumerate(self.atom_sets()):
            assert atomic.all_rational
            for x_max in self.limits(atomic, i):
                for k in range(1, 7):
                    sums = atom_sums(atomic, k, x_max)
                    assert sums.exact_mode
                    got = [(e.value, e.exact, e.min_jumps, e.representations, e.weight) for e in sums.entries]
                    assert self.fields(got) == self.fields(fraction_atom_sums(atomic, k, x_max, math.inf)), (
                        i, x_max, k)

    def test_exact_sums_and_their_neighbours(self):
        # x_max read back within denominators 10^15 lies below 3/10 and 57/10 at the lower
        # neighbours, so there the 1e-12 float tolerance alone keeps the sum; the level that
        # first reaches each sum is the fewest atoms that add up to it
        atomic = self.atom_sets()[0]
        for v in (0.3, 5.7):
            assert Fraction(math.nextafter(v, 0.0)).limit_denominator(10**15) < Fraction(str(v))
        for v, k in ((0.3, 2), (5.7, 5)):
            for x_max in (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)):
                last = atom_sums(atomic, 6, x_max).entries[-1]
                assert (last.exact, last.value, last.min_jumps) == (Fraction(str(v)), v, k)

    def test_a_tight_budget_runs_out_at_the_same_level(self):
        for i, atomic in enumerate(self.atom_sets()):
            for x_max in (math.inf, 4.0):
                for budget in (0, 5, 40, 250, 10**6):
                    want = self.outcome(lambda: fraction_atom_sums(atomic, 6, x_max, budget))
                    got = self.outcome(lambda: [(e.value, e.exact, e.min_jumps, e.representations, e.weight)
                                                for e in atom_sums(atomic, 6, x_max, budget).entries])
                    assert got == want, (i, x_max, budget)
                    if budget in (0, 10**6):  # the first addition overruns; none does
                        assert (got[:2] == ("budget", 1)) if budget == 0 else isinstance(got, list)


class TestConvPower:
    def test_delta1_two_fold_overlap(self, delta1):
        eng = ConvolutionEngine(delta1, 6.0)
        assert eng.power(2, 0.5) == pytest.approx(0.5, abs=1e-14)
        assert eng.power(2, 1.5) == pytest.approx(0.5, abs=1e-14)

    def test_order_one_sides(self, delta1):
        eng = ConvolutionEngine(delta1, 6.0)
        assert eng.power(1, 1.0, Side.LEFT) == 1.0
        assert eng.power(1, 1.0, Side.RIGHT) == 0.0
        assert eng.power(1, 2.5) == 0.0  # beyond the largest atom, q = 0

    def test_stable_two_fold_beta_identity(self, stable_half):
        eng = ConvolutionEngine(stable_half, 5.0)
        for x in (0.5, 1.0, 3.0):
            want = beta_fn(0.5, 0.5) * x**0.0  # C^2 B(1-a,1-a) x^{1-2a}, a=1/2
            assert eng.power(2, x) == pytest.approx(want, rel=1e-12)

    def test_stable_power_vs_quadrature(self):
        model = LevyModel(drift=1.0, ac=AcTail.stable(0.8, 0.3))
        eng = ConvolutionEngine(model, 4.0)
        f = lambda y: 0.8 * y**-0.3
        for x in (0.7, 2.1):
            oracle, err = quad(lambda y: f(y) * f(x - y), 0, x, limit=200)
            assert eng.power(2, x) == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_mixed_third_power_vs_nested_quadrature(self, mixed_model):
        eng = ConvolutionEngine(mixed_model, 4.0)
        f = lambda y: (1.0 if y <= 1.0 else 0.0) + 0.2 * y**-0.4
        for x in (0.8, 1.7):
            inner = lambda z: eng.power(2, z) if z > 1e-12 else 0.0
            oracle, err = quad(lambda y: inner(x - y) * f(y), 1e-12, x, limit=300)
            assert eng.power(3, x) == pytest.approx(oracle, abs=max(1e-7, 10 * err))

    def test_tempered_with_killing_vs_quadrature(self):
        model = LevyModel(
            drift=1.0, q=0.3,
            atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
            ac=AcTail.tempered(0.7, 0.6, 1.5),
        )
        eng = ConvolutionEngine(model, 4.0)
        ft = lambda y: (0.5 if y <= 0.8 else 0.0) + 0.7 * y**-0.6 * math.exp(-1.5 * y) + 0.3
        for x in (0.5, 2.6):
            oracle, err = quad(
                lambda y: ft(y) * ft(x - y), 0, x,
                points=[min(0.8, x), max(x - 0.8, 0)], limit=300,
            )
            assert eng.power(2, x) == pytest.approx(oracle, abs=max(1e-9, 10 * err))

    def test_commutativity_through_associativity(self, mixed_model):
        # (f*f)*f computed by the engine vs f*(f*f) by direct quadrature
        eng = ConvolutionEngine(mixed_model, 3.0)
        f = lambda y: (1.0 if y <= 1.0 else 0.0) + 0.2 * y**-0.4
        x = 1.3
        oracle, err = quad(lambda y: f(x - y) * eng.power(2, y) if y > 1e-12 else 0.0, 1e-12, x, limit=300)
        assert eng.power(3, x) == pytest.approx(oracle, abs=max(1e-7, 10 * err))

    def test_continuity_at_kinks(self, delta1):
        eng = ConvolutionEngine(delta1, 6.0)
        for n in (2, 3, 4):
            for b in (1.0, 2.0):
                left = eng.power(n, b, Side.LEFT)
                right = eng.power(n, b, Side.RIGHT)
                assert abs(left - right) < 1e-10

    def test_piecewise_polynomial_structure(self, delta1):
        # between consecutive kink points the power is a polynomial of degree <= n-1
        eng = ConvolutionEngine(delta1, 6.0)
        for n in (2, 3, 4):
            xs = np.linspace(1.02, 1.98, 25)  # inside (1, 2), kink-free for all orders
            vals = np.array([eng.power(n, float(x)) for x in xs])
            coeffs = np.polyfit(xs, vals, n - 1)
            resid = np.max(np.abs(np.polyval(coeffs, xs) - vals))
            assert resid < 1e-10

    def test_zero_past_the_support_of_an_atomic_power(self):
        # with q = 0, pc^{*n} vanishes past n times the largest atom; its ladder holds exact
        # zeros there, not the roundoff of pc's running subtraction (up to 1.1e-15 before)
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)]))
        eng = ConvolutionEngine(model, 10.0)
        assert eng.pc_power(1).coeffs[-1].tolist() == [0.0]
        for n in range(2, 7):
            past = np.linspace(n * 1.4, 10.0, 11)[1:]
            assert eng.pc_power(n).eval(past).tolist() == [0.0] * 10
            assert eng.power(n, past).tolist() == [0.0] * 10

    def test_domain_errors(self, delta1):
        eng = ConvolutionEngine(delta1, 6.0)
        with pytest.raises(ValueError):
            eng.power(2, 0.0)
        with pytest.raises(ValueError):
            eng.power(2, 7.0)


class TestRunningIntegral:
    def test_delta1_values(self, delta1):
        eng = ConvolutionEngine(delta1, 6.0)
        assert eng.running(1, 0.5) == pytest.approx(0.5)
        assert eng.running(1, 2.0) == pytest.approx(1.0)
        assert eng.running(0, 3.0) == 1.0

    def test_killing_constant(self):
        model = LevyModel(drift=1.0, q=0.6)
        eng = ConvolutionEngine(model, 5.0)
        assert eng.running(1, 2.0) == pytest.approx(1.2, rel=1e-14)

    def test_stable_closed_form(self, stable_half):
        eng = ConvolutionEngine(stable_half, 5.0)
        assert eng.running(1, 2.0) == pytest.approx(2.0 * 2.0**0.5, rel=1e-13)

    @given(st.integers(2, 5), st.floats(0.2, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_iterated_bound(self, n, x):
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)]))
        eng = ConvolutionEngine(model, 4.5)
        assert eng.running(n, x) <= eng.running(1, x) ** n + 1e-12

    def test_mass_scale_consistency(self, mixed_model):
        eng = ConvolutionEngine(mixed_model, 3.0)
        x = 0.8
        want = (mixed_model.tail_antiderivative(x) + mixed_model.q * x) / mixed_model.drift
        assert eng.mass_scale(x) == pytest.approx(want, rel=1e-12)


class TestNonFiniteArguments:
    def test_engine_horizon_must_be_finite(self, delta1):
        for x_max in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ConvolutionEngine(delta1, x_max)

    def test_nan_argument_rejected(self, delta1):
        eng = ConvolutionEngine(delta1, 6.0)
        with pytest.raises(ValueError):
            eng.power(2, math.nan)
        with pytest.raises(ValueError):
            eng.running(2, math.nan)

    def test_u_series_nan_rejected(self, delta1):
        with pytest.raises(ValueError):
            u_series(delta1, math.nan)
        with pytest.raises(ValueError):
            u_series(delta1, math.nan, engine=ConvolutionEngine(delta1, 6.0))


class TestAlternatingSum:
    MODEL = LevyModel(drift=1.7, q=0.2, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)]),
                      ac=AcTail.stable(0.3, 0.4))

    def test_matches_term_by_term_sum(self):
        eng = ConvolutionEngine(self.MODEL, 3.0)
        x, d = 1.7, self.MODEL.drift
        running = sum((-1) ** n / d ** (n + 1) * eng.running(n, x) for n in range(4))
        power = sum((-1) ** n / d ** (n + 1) * eng.power(n, x, Side.RIGHT) for n in range(1, 4))
        assert eng.alternating_sum(x, 0, 4) == pytest.approx(running, rel=1e-15)
        assert eng.alternating_sum(x, 1, 4, Side.RIGHT) == pytest.approx(power, rel=1e-15)
        assert eng.alternating_sum(x, 2, 2) == 0.0

    def test_side_enters_only_at_order_one(self):
        eng = ConvolutionEngine(self.MODEL, 3.0)
        left = eng.alternating_sum(1.4, 1, 4, Side.LEFT)
        right = eng.alternating_sum(1.4, 1, 4, Side.RIGHT)
        assert right - left == pytest.approx(0.5 / 1.7**2, rel=1e-12)  # mass / drift^2


class TestPinnedValues:
    # recorded before power and running shared one binomial loop; the merge
    # must not move a single bit.  Cases with atoms and an AC tail changed
    # bits when the batched kernel replaced the per-point cell quadrature,
    # so those are checked against 40 digits instead.
    CASES = [
        (LevyModel(drift=1.0, ac=AcTail.tempered(1.0, 0.5, 1.0)), "power", 3, 1.0, 2.3114546995818426),
        (LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.5)), "running", 2, 0.3, 0.9424777960769377),
        (LevyModel(drift=1.7, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)])),
         "power", 4, 2.9, 0.6604780833333332),
        (LevyModel(drift=1.7, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)])),
         "running", 5, 1.7, 0.40994454937333324),
    ]
    ATOMS_WITH_TAIL = [
        (LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)), "power", 3, 1.7),
        (LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)), "running", 3, 1.7),
        (LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                   ac=AcTail.tempered(0.7, 0.6, 1.5)), "power", 2, 0.8),
        (LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                   ac=AcTail.tempered(0.7, 0.6, 1.5)), "running", 4, 2.9),
    ]

    @pytest.mark.parametrize("model, quantity, n, x, want", CASES)
    def test_bits_unchanged(self, model, quantity, n, x, want):
        eng = ConvolutionEngine(model, 3.0)
        got = getattr(eng, quantity)(n, x)
        if model.ac.is_none:
            assert got == want
            return
        # the tail's cases carry the roundings of scipy's special functions, which subpot no longer
        # uses: such a value may move, but no farther from 40 digits than the recorded one, plus an ulp
        with mpmath.workdps(40):
            want_40 = binomial_reference(eng, quantity, n, x)
            assert abs(got - want_40) <= abs(want - want_40) + np.spacing(want)

    @pytest.mark.parametrize("model, quantity, n, x", ATOMS_WITH_TAIL)
    def test_atoms_with_a_tail_within_1e12_of_40_digits(self, model, quantity, n, x):
        eng = ConvolutionEngine(model, 3.0)
        assert worst_rel_error(getattr(eng, quantity)(n, x), binomial_reference(eng, quantity, n, x)) < 1e-12


class TestKillingCrossTerms:
    """Atom-free killed models: pc is the constant q, so pc^{*i} * s^{*j} has a
    closed form.  Probes: i <= 7, j <= 5 and five x, for power and running,
    against mpmath.quad at 40 digits and against the cell quadrature's values
    (``QUADRATURE`` at the end of this file)."""

    MODELS = {
        "stable": LevyModel(drift=1.0, q=0.25, ac=AcTail.stable(0.8, 0.3)),
        "tempered": LevyModel(drift=1.3, q=0.3, ac=AcTail.tempered(0.7, 0.6, 1.5)),
        "routes": LevyModel(drift=1.0, q=0.3, ac=AcTail.tempered(0.6, 0.5, 1.0)),  # test_killed_tempered_routes
    }
    XS = (0.01, 0.1, 0.5, 1.0, 2.0)
    PROBES = [(model, quantity) for model in MODELS for quantity in ("power", "running")]

    @staticmethod
    @cache
    def _integral(model: str, m: int, j: int, x: float):
        """int_0^x (x - v)^m s^{*j}(v) dv at 40 digits, s^{*j}(v) = A^j v^(j(1-alpha)-1) e^{-bv} / Gamma(j(1-alpha))."""
        ac = TestKillingCrossTerms.MODELS[model].ac
        with mpmath.workdps(40):
            alpha, b, x = mpmath.mpf(ac.alpha), mpmath.mpf(ac.b), mpmath.mpf(x)
            s = j * (1 - alpha)
            k = (ac.C * mpmath.gamma(1 - alpha)) ** j / mpmath.gamma(s)
            return k * mpmath.quad(lambda v: (x - v) ** m * v ** (s - 1) * mpmath.exp(-b * v), [0, x])

    def reference(self, model, quantity):
        """The cross terms at 40 digits, [i - 1][j - 1][x index]; pc^{*i}(y) = q^i y^(i-1)/(i-1)!
        and its running integral q^i y^i/i!."""
        q = mpmath.mpf(self.MODELS[model].q)
        out = []
        for i in range(1, 8):
            m = i if quantity == "running" else i - 1
            with mpmath.workdps(40):
                out.append([[q**i / mpmath.factorial(m) * self._integral(model, m, j, x) for x in self.XS]
                            for j in range(1, 6)])
        return out

    def closed_form(self, model, quantity):
        eng = ConvolutionEngine(self.MODELS[model], 2.0)
        ladder = eng.pc_running if quantity == "running" else eng.pc_power
        terms = [(ladder(i), j) for i in range(1, 8) for j in range(1, 6)]
        got = eng._cross(terms, np.array(self.XS), [np.arange(len(self.XS))] * len(terms))
        return got.reshape(7, 5, len(self.XS)).tolist()

    worst_rel_error = staticmethod(worst_rel_error)

    @pytest.mark.parametrize("model, quantity", PROBES)
    def test_within_1e12_of_40_digit_reference(self, model, quantity):
        assert self.worst_rel_error(self.closed_form(model, quantity), self.reference(model, quantity)) < 1e-12

    def test_no_worse_than_the_quadrature(self):
        closed = max(self.worst_rel_error(self.closed_form(*k), self.reference(*k)) for k in self.PROBES)
        quadrature = max(self.worst_rel_error(QUADRATURE[k], self.reference(*k)) for k in self.PROBES)
        assert closed <= quadrature

    @pytest.mark.parametrize("model, quantity", PROBES)
    def test_agrees_with_the_quadrature(self, model, quantity):
        got = np.array(self.closed_form(model, quantity))
        want = np.array(QUADRATURE[model, quantity])
        assert np.max(np.abs(got - want) / want) < 1e-12


class TestCrossCellSplit:
    """A smooth cell wider than 8/b by one ulp, whose split point lo + 8/b rounds onto hi.

    It once arose in ``running(1, 20)`` on the atom + tempered + killing
    model, where a recursive split of the cell (10.67, 16) into itself
    never ended.
    """

    MODEL = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                      ac=AcTail.tempered(0.7, 0.6, 1.5))
    X, LO, HI, B = 20.0, 10.666666666666666, 16.0, 1.5

    def test_split_point_rounds_onto_the_end(self):
        assert self.HI - self.LO > 8.0 / self.B and self.LO + 8.0 / self.B == self.HI

    def test_cell_against_40_digit_quadrature(self):
        # the indicator of y in [X - HI, X - LO] makes (LO, HI) the one far cell with a nonzero integrand
        eng = ConvolutionEngine(self.MODEL, self.X)
        pp = PiecewisePoly([0.0, self.X - self.HI, self.X - self.LO], [[0.0], [1.0], [0.0]])
        got = eng._cross([(pp, 1)], np.array([self.X]), [np.arange(1)])[0]
        with mpmath.workdps(40):
            # s^{*1} is the AC tail itself, 0.7 v^-0.6 e^{-1.5 v}
            want = 0.7 * mpmath.quad(lambda v: v ** mpmath.mpf(-0.6) * mpmath.exp(-self.B * v), [self.LO, self.HI])
            assert abs((got - want) / want) < 1e-12

    def test_steep_tail_stops_where_the_exponential_underflows(self, monkeypatch):
        # b = 1e4: pieces at most 8/b wide over every far cell would be 880 122 evaluation points
        model = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                          ac=AcTail.tempered(0.7, 0.6, 1e4))
        eng = ConvolutionEngine(model, self.X)
        want = [eng.running(9, 0.81), eng.running(9, self.X)]
        points = []
        eval_ = PiecewisePoly.eval
        monkeypatch.setattr(PiecewisePoly, "eval", lambda pp, x, *a: points.append(np.size(x)) or eval_(pp, x, *a))
        assert eng.running(9, np.array([0.81, self.X])).tolist() == want
        assert sum(points) <= 20_000  # the far cells stop at v = 750/b

    def test_running_at_x20_against_40_digit_quadrature(self):
        # the cross term pc^{*1} * s^{*1} of running(2, 20): a closed-form cell and one far cell
        eng = ConvolutionEngine(self.MODEL, self.X)
        got = eng._cross([(eng.pc_running(1), 1)], np.array([self.X]), [np.arange(1)])[0]
        with mpmath.workdps(40):
            # pc = 0.5 [y < 0.8] + 0.3, so its running integral is 0.3 y + 0.5 min(y, 0.8)
            pc_running = lambda y: mpmath.mpf(0.3) * y + mpmath.mpf(0.5) * min(y, mpmath.mpf(0.8))
            want = 0.7 * mpmath.quad(lambda v: pc_running(self.X - v) * v ** mpmath.mpf(-0.6) * mpmath.exp(-self.B * v),
                                     [0, self.X - 0.8, self.X])
            assert abs((got - want) / want) < 1e-12


class TestAtomCrossTerms:
    """Atoms with an AC tail: pc^{*i} * s^{*j} from ``_cross`` for i <= 6, j <= 4 and six x
    (near 0, on a break, 1e-9 past it, 1.7, 2.9 and 20), for power and running, against
    ``cross_reference`` at 40 digits and against the per-point cell quadrature's values
    (``ATOM_QUADRATURE`` at the end of this file)."""

    MODELS = {
        "mixed": (LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)), 1.0),
        "atom-tempered-killed": (LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                                           ac=AcTail.tempered(0.7, 0.6, 1.5)), 0.8),
        "alternating": (TestAlternatingSum.MODEL, 1.4),
    }
    PROBES = [(model, quantity) for model in MODELS for quantity in ("power", "running")]

    @classmethod
    def setup(cls, model, quantity):
        model, brk = cls.MODELS[model]
        eng = ConvolutionEngine(model, 20.0)
        ladder = eng.pc_running if quantity == "running" else eng.pc_power
        return eng, [(ladder(i), j) for i in range(1, 7) for j in range(1, 5)], [1e-3, brk, brk + 1e-9, 1.7, 2.9, 20.0]

    @classmethod
    @cache
    def reference(cls, model, quantity):
        eng, terms, xs = cls.setup(model, quantity)
        return [[cross_reference(eng, pp, j, x) for x in xs] for pp, j in terms]

    def kernel(self, model, quantity):
        eng, terms, xs = self.setup(model, quantity)
        points = [np.arange(len(xs))] * len(terms)
        return eng._cross(terms, np.array(xs), points).reshape(len(terms), len(xs)).tolist()

    @pytest.mark.parametrize("model, quantity", PROBES)
    def test_within_1e12_of_40_digits_and_no_worse_than_the_quadrature(self, model, quantity):
        want = self.reference(model, quantity)
        quadrature = [row for i_rows in ATOM_QUADRATURE[model, quantity] for row in i_rows]
        worst = worst_rel_error(self.kernel(model, quantity), want)
        assert worst < 1e-12 and worst <= worst_rel_error(quadrature, want)

    def test_eval_calls_do_not_grow_with_the_points(self, monkeypatch):
        calls = []
        eval_ = PiecewisePoly.eval
        monkeypatch.setattr(PiecewisePoly, "eval", lambda pp, *a: calls.append(1) or eval_(pp, *a))
        counts = []
        for size in (1, 8, 64):
            eng = ConvolutionEngine(self.MODELS["atom-tempered-killed"][0], 3.0)
            eng.running(4, 2.9)  # builds the ladders
            calls.clear()
            eng.running(4, np.linspace(2.9, 0.05, size))
            counts.append(len(calls))
        assert counts == [counts[0]] * 3 and counts[0] <= 4  # the j = 0 ladder and one per cross term


class TestKummerSeries:
    """1F1(a; c; -z) = 1F1(p + 1; m + p + 2; -z) as ``_cross`` calls it: a positive series below z = 5.

    scipy's hyp1f1 was 1.25e-10 off, relative, at the point below, and so
    were two cross terms of ``TestKillingCrossTerms``' tempered model there."""

    A, C, Z = 0.4, 4.4, 1.2320401337792644
    X = 0.8213600891861762  # Z / b on the tempered model

    def test_found_point_at_40_digits(self):
        got = convolve._hyp1f1_neg(np.array([self.A]), np.array([self.C]), np.array([self.Z]))[0]
        with mpmath.workdps(40):
            want = mpmath.hyp1f1(self.A, self.C, -mpmath.mpf(self.Z))
            assert abs((got - want) / want) < 1e-14

    @pytest.mark.parametrize("quantity, i", [("power", 4), ("running", 3)])
    def test_cross_terms_at_the_found_point(self, quantity, i):
        # m = 3 in both: pc^{*4}(y) = q^4 y^3/3! and the running integral of pc^{*3}, q^3 y^3/3!
        model = TestKillingCrossTerms.MODELS["tempered"]
        eng = ConvolutionEngine(model, 2.0)
        pp = eng.pc_running(i) if quantity == "running" else eng.pc_power(i)
        got = eng._cross([(pp, 1)], np.array([self.X]), [np.arange(1)])[0]
        with mpmath.workdps(40):
            want = mpmath.mpf(model.q) ** i / 6 * TestKillingCrossTerms._integral("tempered", 3, 1, self.X)
        assert worst_rel_error(got, want) < 1e-12

    def test_survey_below_z5(self):
        rng = np.random.default_rng(12)
        p, m, z = rng.uniform(-0.9, 1.5, 300), rng.integers(0, 16, 300), rng.uniform(0.0, 5.0, 300)
        got = convolve._hyp1f1_neg(p + 1.0, m + p + 2.0, z)
        with mpmath.workdps(40):
            want = [mpmath.hyp1f1(mpmath.mpf(pk) + 1, mpmath.mpf(float(mk + pk + 2.0)), -mpmath.mpf(zk))
                    for pk, mk, zk in zip(p, m, z)]
        assert worst_rel_error(got.tolist(), want) < 1e-14

    def test_survey_bits_equal_a_cumulative_product_and_sum(self):
        # the series as one cumprod and one cumsum over k, which summing term by term replaced
        rng = np.random.default_rng(12)
        p, m, z = rng.uniform(-0.9, 1.5, 300), rng.integers(0, 16, 300), rng.uniform(0.0, 5.0, 300)
        a, c = p + 1.0, m + p + 2.0
        n, bound, z_max = 1, 1.0, float(z.max())
        while bound > 1e-17:
            bound *= z_max / n
            n += 1
        k = np.arange(n - 1.0)[:, None]
        ratios = np.concatenate([np.ones((1, z.size)), (c - a + k) / (c + k) * z / (k + 1.0)])
        want = np.exp(-z) * np.cumsum(np.cumprod(ratios, axis=0), axis=0)[-1]
        assert convolve._hyp1f1_neg(a, c, z).tolist() == want.tolist()

    def test_an_entry_is_the_same_in_any_batch(self):
        # every method, NaN and inf among them: the series' term count and the continued
        # fraction's steps are set by the whole call, yet each entry is its own call's value
        a = np.array([0.4, 0.7, 0.4, 12.5, 30.0, 2.0, 0.4, 59.0, 0.4, 3.0])
        c = a + np.array([4.0, 1.0, 2.0, 41.0, 8.0, 1.0, 61.0, 3.0, 1.0, 6.0])
        z = np.array([0.01, 4.99, 2.0, 20.0, 200.0, 9e3, 61.0, 1e4, math.nan, math.inf])
        batch = convolve._hyp1f1_neg(a, c, z)
        alone = [convolve._hyp1f1_neg(a[k:k + 1], c[k:k + 1], z[k:k + 1])[0] for k in range(a.size)]
        assert np.array_equal(batch, alone, equal_nan=True)
        zs = np.array([0.0, 0.5, 1.6, 1.8, 30.0, 700.0, math.inf, math.nan])
        assert np.array_equal(_special.lower_gamma(0.8, zs), [_special.lower_gamma(0.8, v) for v in zs],
                              equal_nan=True)


class TestArrayArguments:
    # atoms, killing and a tempered tail: every kind of term, cross terms too
    MODEL = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                      ac=AcTail.tempered(0.7, 0.6, 1.5))
    XS = np.array([0.05, 0.8, 1.7, 0.8, 2.9, 1e-9])

    @pytest.mark.parametrize("quantity, n", [("running", 1), ("running", 3), ("power", 1), ("power", 2)])
    def test_equals_scalar_calls(self, quantity, n):
        eng = ConvolutionEngine(self.MODEL, 3.0)
        got = getattr(eng, quantity)(n, self.XS)
        assert got.tolist() == [getattr(eng, quantity)(n, float(x)) for x in self.XS]

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_order_one_equals_the_model_tail(self, side):
        # on the atom, inside and just outside model.tail's 1e-12 location
        # tolerance on either side, and away from it
        eng = ConvolutionEngine(self.MODEL, 3.0)
        near = [0.8 + d for d in (0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 1e-9, -1e-9)]
        xs = np.array([*near, np.nextafter(0.8, 0.0), np.nextafter(0.8, 1.0), *self.XS])
        want = [self.MODEL.tail(float(x), side) + self.MODEL.q for x in xs]
        assert eng.power(1, xs, side).tolist() == want
        counted = {self.MODEL.atomic.tail(float(x), side) > 0 for x in near}
        assert counted == {True, False}

    ATOM_FREE = [LevyModel(drift=1.0, q=0.3, ac=AcTail.stable(0.5, 0.5)),
                 LevyModel(drift=1.3, q=0.3, ac=AcTail.tempered(0.7, 0.6, 1.5))]

    @pytest.mark.parametrize("model", ATOM_FREE, ids=["killed-stable", "killed-tempered"])
    @pytest.mark.parametrize("quantity, n", [("running", 1), ("running", 4), ("power", 2), ("power", 5)])
    def test_atom_free_equals_scalar_calls(self, model, quantity, n):
        eng = ConvolutionEngine(model, 3.0)
        got = getattr(eng, quantity)(n, self.XS)
        assert got.tolist() == [getattr(eng, quantity)(n, float(x)) for x in self.XS]

    @pytest.mark.parametrize("model", ATOM_FREE, ids=["killed-stable", "killed-tempered"])
    def test_atom_free_running_at_zero_and_alternating_sum(self, model):
        eng = ConvolutionEngine(model, 3.0)
        assert eng.running(3, np.array([0.0, 0.4])).tolist() == [0.0, eng.running(3, 0.4)]
        n_hi = np.array([1, 4, 2, 0, 3, 5])
        got = eng.alternating_sum(self.XS, 0, n_hi)
        assert got.tolist() == [eng.alternating_sum(float(x), 0, int(k)) for x, k in zip(self.XS, n_hi)]

    def test_mass_scale_and_running_at_zero(self):
        eng = ConvolutionEngine(self.MODEL, 3.0)
        xs = np.array([0.0, 0.4, -1.0, 5.0])
        assert eng.mass_scale(xs).tolist() == [eng.mass_scale(float(x)) for x in xs]
        assert eng.running(2, np.array([0.0, 0.4])).tolist() == [0.0, eng.running(2, 0.4)]
        assert eng.running(0, np.array([0.0, 0.4])).tolist() == [1.0, 1.0]

    def test_alternating_sum_per_point_orders(self):
        eng = ConvolutionEngine(self.MODEL, 3.0)
        n_hi = np.array([1, 4, 2, 0, 3, 5])
        for side in (None, Side.RIGHT):
            lo = 0 if side is None else 1
            got = eng.alternating_sum(self.XS, lo, n_hi, side)
            assert got.tolist() == [eng.alternating_sum(float(x), lo, int(k), side) for x, k in zip(self.XS, n_hi)]

    def test_nan_and_domain_in_arrays(self):
        eng = ConvolutionEngine(self.MODEL, 3.0)
        bad = np.array([0.4, math.nan])
        for call in (lambda: eng.running(2, bad), lambda: eng.power(2, bad), lambda: eng.mass_scale(bad),
                     lambda: eng.power(2, np.array([0.4, 0.0])), lambda: eng.running(2, np.array([0.4, 3.5]))):
            with pytest.raises(ValueError):
                call()


class TestBatchedOrders:
    """``alternating_sum`` forms the cross terms of all its orders in batched ``_cross`` calls;
    every point's sum must equal, bit for bit, a plain loop over the orders' own
    ``running`` or ``power`` calls, however the batches are cut."""

    MODELS = {
        "killed-stable": LevyModel(drift=1.0, q=0.3, ac=AcTail.stable(0.5, 0.5)),
        "killed-tempered": LevyModel(drift=1.3, q=0.3, ac=AcTail.tempered(0.7, 0.6, 1.5)),
        "atom-tempered-killed": TestArrayArguments.MODEL,
        "atoms-q": TestAlternatingSum.MODEL,
    }
    XS = np.array([0.05, 0.8, 1.7, 0.8, 2.9, 1e-9, 1.4, 0.31])
    N_HI = np.array([1, 7, 2, 0, 9, 5, 8, 3])

    @staticmethod
    def loop(eng, xs, n_lo, n_hi, side):
        total = np.zeros(xs.shape)
        for n in range(n_lo, int(n_hi.max())):
            sel = n_hi > n
            g = eng.running(n, xs[sel]) if side is None else eng.power(n, xs[sel], side)
            total[sel] += (-1.0) ** n / eng.model.drift ** (n + 1) * g
        return total.tolist()

    @pytest.mark.parametrize("max_entries", [convolve._MAX_ENTRIES, 1, 40])
    @pytest.mark.parametrize("model", MODELS)
    def test_equals_a_loop_over_the_orders(self, model, max_entries, monkeypatch):
        monkeypatch.setattr(convolve, "_MAX_ENTRIES", max_entries)  # 1: a batch per order
        eng = ConvolutionEngine(self.MODELS[model], 3.0)
        for n_lo, side in ((0, None), (1, Side.LEFT), (1, Side.RIGHT), (2, Side.RIGHT)):
            got = eng.alternating_sum(self.XS, n_lo, self.N_HI, side)
            assert got.tolist() == self.loop(eng, self.XS, n_lo, self.N_HI, side)

    # recorded with one _cross call per order, at x 0.8, 2.9, 1.4 with n_hi 7, 9, 8:
    # (running sum from n = 0, right-side power sum from n = 2).  Recorded again when subpot's
    # own special functions replaced scipy's; the sums with scipy's are SCIPY_PINNED
    PINNED = {
        "killed-stable": ([0.44143626580164375, 3.306195233710196, 0.1638220808681824],
                          [0.7789192577981326, 6.029039188553768, 0.1338121395747054]),
        "killed-tempered": ([0.4968725168392756, 2.816798723575332, -0.10280685337098272],
                            [0.670481880675126, 2.5621613790665663, -0.5756691866025805]),
        "atom-tempered-killed": ([0.6348978452100049, 13.277005759617193, -1.2087581891120902],
                                 [1.7216243496069634, 12.641937685207484, -3.0464927301186218]),
        "atoms-q": ([0.2744603139491789, 0.3219857096368197, 0.21781094834070003],
                    [0.29562358373789166, 0.35868777333788027, 0.2358591511292475]),
    }
    SCIPY_PINNED = {
        "killed-stable": ([0.4414362658016438, 3.3061952337101914, 0.16382208086818206],
                          [0.7789192577981328, 6.029039188553763, 0.1338121395747054]),
        "killed-tempered": ([0.496872516839276, 2.8167987235753307, -0.10280685337098316],
                            [0.6704818806751258, 2.562161379066566, -0.5756691866025807]),
        "atom-tempered-killed": ([0.6348978452100057, 13.277005759617198, -1.2087581891120913],
                                 [1.721624349606962, 12.641937685207482, -3.046492730118621]),
        "atoms-q": ([0.2744603139491789, 0.3219857096368198, 0.21781094834070003],
                    [0.29562358373789166, 0.35868777333788027, 0.2358591511292475]),
    }

    @pytest.mark.parametrize("model", MODELS)
    def test_bits_of_the_per_order_kernel(self, model):
        eng = ConvolutionEngine(self.MODELS[model], 3.0)
        xs, n_hi = self.XS[[1, 4, 6]], self.N_HI[[1, 4, 6]]
        got = eng.alternating_sum(xs, 0, n_hi).tolist(), eng.alternating_sum(xs, 2, n_hi, Side.RIGHT).tolist()
        assert got == self.PINNED[model]

    def test_sums_no_farther_from_40_digits_than_scipys(self):
        # a sum alternates over terms larger than itself, whose last bits leave it several ulps
        # from its 40-digit value, scipy's sums as well as these: over all the pinned sums, the
        # distance in ulps of the sum may not exceed that of the sums with scipy's functions.
        # The sums now are PINNED, which the bit test above holds them to
        ours = theirs = 0.0
        for model in self.MODELS:
            eng = ConvolutionEngine(self.MODELS[model], 3.0)
            for sums, scipys, (quantity, n_lo) in zip(self.PINNED[model], self.SCIPY_PINNED[model],
                                                       (("running", 0), ("power", 2))):
                for x, top, new, old in zip(self.XS[[1, 4, 6]].tolist(), self.N_HI[[1, 4, 6]].tolist(), sums, scipys):
                    with mpmath.workdps(40):
                        want = sum((-1) ** n / mpmath.mpf(eng.model.drift) ** (n + 1)
                                   * (binomial_reference(eng, quantity, n, x) if n else 1) for n in range(n_lo, top))
                        ulp = np.spacing(abs(float(want)))
                        ours, theirs = ours + float(abs(new - want)) / ulp, theirs + float(abs(old - want)) / ulp
        assert ours <= theirs, (ours, theirs)

    def test_atom_free_ladder_equals_the_convolution(self):
        # pc^{*i} of an atom-free model is a monomial built without convolve_step_tail
        model = self.MODELS["killed-tempered"]
        eng = ConvolutionEngine(model, 3.0)
        conv = eng.pc_power(1)
        for i in range(2, 12):
            conv = conv.convolve_step_tail([], [], model.q, x_max=3.0)
            got = eng.pc_power(i)
            assert got.breaks.tolist() == conv.breaks.tolist() and got.coeffs.tolist() == conv.coeffs.tolist()

    @pytest.mark.parametrize("model", [LevyModel(drift=1.0, q=0.3), MODELS["killed-tempered"]],
                             ids=["killed", "killed-tempered"])
    def test_atom_free_table_equals_the_convolved_ladders(self, model):
        # the engine forms an atom-free model's pc terms from a coefficient table; here they come
        # from PiecewisePoly ladders built by convolve_step_tail instead: the j = 0 term by eval,
        # which takes the left limit 0 for x <= 1e-12, and with an AC tail the cross terms by
        # _cross over the same ladders, added in order of j, and the pure tail term.  Order 1 of
        # the power is the model tail, not a ladder
        eng = ConvolutionEngine(model, 3.0)
        xs = np.array([0.0, 1e-13, 1e-12, 2e-12, 0.3, 3.0])
        powers = [PiecewisePoly.step_tail([], [], model.q)]
        while len(powers) < 30:
            powers.append(powers[-1].convolve_step_tail([], [], model.q, x_max=3.0))
        runnings = [pp.antiderivative() for pp in powers]
        for quantity, ladders, n_lo, pts in (("running", runnings, 1, xs), ("power", powers, 2, xs[1:])):
            every = [np.arange(pts.size)]
            for n in range(n_lo, 31):
                want = np.zeros(pts.size) + ladders[n - 1].eval(pts)
                if not model.ac.is_none:
                    for j in range(1, n):
                        want = want + math.comb(n, j) * eng._cross([(ladders[n - j - 1], j)], pts, every)
                    want = want + eng._tail_term(n, pts, quantity == "running")
                assert getattr(eng, quantity)(n, pts).tolist() == want.tolist(), (quantity, n)

    HEAD_MODELS = {
        "unit-atom": (LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)])), 3.0),
        "atoms-q": (LevyModel(drift=1.0, q=0.2, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)])), 3.0),
        "family": (LevyModel(drift=2.0, atomic=AtomicPart.reciprocal_integers([j**-1.25 for j in range(1, 9)], 8)),
                   0.5),
        "atom-tempered-killed": (TestArrayArguments.MODEL, 3.0),
    }

    @pytest.mark.parametrize("model", HEAD_MODELS)
    def test_head_table_equals_the_convolved_ladders(self, model):
        # below the smallest atom a_min the engine forms the pc terms from its coefficient
        # table, and past it from ladders; here every point takes ladders built by
        # convolve_step_tail, as in the atom-free test above.  The probes straddle the
        # table's test x + 1e-12 max(1, x) < a_min.  Within 1e-12 of a_min, eval's left
        # limit takes the cell ending at a_min, and _cross the cell holding x, which above
        # a_min is the next one.  All of them go in one call, so an order's two parts must
        # also come back in the order of its points
        model, x_max = self.HEAD_MODELS[model]
        atomic, a = model.atomic, model.atomic.locations[0]
        eng = ConvolutionEngine(model, x_max)
        xs = np.array([0.0, 1e-13, 1e-12, 2e-12, 0.3 * a, a - 2e-12, a - 1e-12, a - 5e-13, a, a + 5e-13, a + 1e-12,
                       0.5 * (a + x_max), x_max])
        powers = [PiecewisePoly.step_tail(atomic.locations, atomic.masses, model.q)]
        while len(powers) < 30:
            powers.append(powers[-1].convolve_step_tail(atomic.locations, atomic.masses, model.q, x_max=x_max))
        runnings = [pp.antiderivative() for pp in powers]
        for quantity, ladders, n_lo, pts in (("running", runnings, 1, xs), ("power", powers, 2, xs[1:])):
            every = [np.arange(pts.size)]
            for n in range(n_lo, 31):
                want = np.zeros(pts.size) + ladders[n - 1].eval(pts)
                if not model.ac.is_none:
                    for j in range(1, n):
                        want = want + math.comb(n, j) * eng._cross([(ladders[n - j - 1], j)], pts, every)
                    want = want + eng._tail_term(n, pts, quantity == "running")
                got = eng.running(n, pts) if quantity == "running" else eng.power(n, pts, Side.RIGHT)
                assert got.tolist() == want.tolist(), (quantity, n)
        # the probes below a_min - 1e-12 took the table, and built no ladder past pc itself
        fresh = ConvolutionEngine(model, x_max)
        fresh.running(30, xs[:6]), fresh.power(30, xs[1:6])
        assert list(fresh._pc_pow) == [1] and not fresh._pc_run

    def test_batches_hold_the_cap_when_table_coefficients_underflow(self, monkeypatch):
        # with q = 1e-10 the table's c_i = q^i/(i-1)! is 0 from about i = 31, yet every
        # (n, j) row still makes one _near_cell entry per point, so a batch is sized by its rows
        monkeypatch.setattr(convolve, "_MAX_ENTRIES", 2000)
        eng = ConvolutionEngine(LevyModel(drift=1.0, q=1e-10, ac=AcTail.tempered(0.7, 0.6, 1.5)), 3.0)
        sizes, near_cell = [], eng._near_cell
        monkeypatch.setattr(eng, "_near_cell", lambda *args: sizes.append(args[-1].size) or near_cell(*args))
        xs = np.linspace(0.1, 3.0, 20)
        eng.alternating_sum(xs, 0, np.full(20, 45))
        assert sizes and max(sizes) <= 2000

    def test_atom_free_table_grows_on_a_copy(self):
        # a reader that grows the table publishes a new list, so another reader's
        # growth of the old one cannot shift its entries
        eng = ConvolutionEngine(self.MODELS["killed-tempered"], 3.0)
        old = eng._table
        eng._monomials(20, running=False)
        assert len(old) == 2 and len(eng._table) == 21

    def test_memory_of_a_long_series_head(self):
        # 2000 points up to 0.95 of the series radius at tol 1e-12: 50 615 terms in all.  One
        # _cross call per order peaked at 11.9 MB (tracemalloc); the batches of orders are capped
        # and the Kummer series is summed term by term, so the peak stays near that figure
        import tracemalloc

        model = LevyModel(drift=1.0, q=0.3, ac=AcTail.tempered(0.8, 0.4, 1.5))
        xs = np.linspace(0.0, 0.95 * series_radius(model, 3.0), 2000)
        u_series(model, xs[:3], tol=1e-12)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            terms = u_series(model, xs, tol=1e-12)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms == 50_615 and peak <= 1.25 * 11.9e6


# The cell quadrature's values on these probes, recorded before the closed
# form replaced it on atom-free models: [model, quantity][i - 1][j - 1][x index].
QUADRATURE = {
    ("stable", "power"): [
        [
            [0.01137449058724279, 0.05700749471339662, 0.1758777733349882, 0.2857142857142859, 0.4641442264892778],
            [0.00034397397637775726, 0.008640235640556852, 0.0822400930428968, 0.21703290670560235, 0.5727532745921556],
            [8.03779513505749e-06, 0.0010118984550319397, 0.029714877344050386, 0.12739046791949651, 0.5461348915847892],
            [1.5556560297903958e-07, 9.815525974811483e-05, 0.008892617018554436, 0.061931782037434095, 0.43131798190896825],
            [2.5954443370571894e-09, 8.20751564528648e-06, 0.0022940703636567025, 0.025954443370571897, 0.2936410065480579],
        ],
        [
            [1.672719204006295e-05, 0.000838345510491128, 0.012932189215807972, 0.04201680672268917, 0.13651300779096426],
            [3.5830622539349673e-07, 9.000245458913382e-05, 0.004283338179317537, 0.022607594448500225, 0.11932359887336565],
            [6.4820928508528e-09, 8.160471411547881e-06, 0.0011981805380665454, 0.010273424832217439, 0.08808627283625614],
            [1.0234579143357859e-10, 6.457582878165445e-07, 0.0002925202966629746, 0.004074459344568029, 0.05675236604065367],
            [1.4419135205873255e-12, 4.5597309140480385e-08, 6.372417676824162e-05, 0.0014419135205873252, 0.03262677850533971],
        ],
        [
            [1.548814077783608e-08, 7.762458430473415e-06, 0.0005987124636948144, 0.0038904450669156685, 0.025280186627956374],
            [2.6346045984815944e-10, 6.617827543318662e-07, 0.00015747566835726235, 0.0016623231212132515, 0.017547588069612593],
            [3.952495640763904e-12, 4.975897202163344e-08, 3.652989445324833e-05, 0.0006264283434278925, 0.010742228394665381],
            [5.330509970498887e-14, 3.3633244157111704e-09, 7.6177160589316324e-06, 0.00021221142419625158, 0.005911704795901426],
            [6.554152366306024e-16, 2.072604960930926e-10, 1.4482767447327645e-06, 6.554152366306025e-05, 0.0029660707732127017],
        ],
        [
            [1.046495998502439e-11, 5.2449043449144745e-08, 2.0226772422122123e-05, 0.0002628679099267346, 0.003416241436210324],
            [1.496934430955451e-13, 3.760129285976512e-09, 4.473740578331317e-06, 9.4450177341662e-05, 0.0019940440988196126],
            [1.9374978631195615e-15, 2.439165295178112e-10, 8.953405503247144e-07, 3.0707271736661414e-05, 0.0010531596465358224],
            [2.2976336079736588e-17, 1.449708799875505e-11, 1.6417491506318176e-07, 9.147044146390156e-06, 0.0005096297237846058],
            [2.520827833194625e-19, 7.971557542042026e-13, 2.785147586024547e-08, 2.5208278331946246e-06, 0.00022815929024713088],
        ],
        [
            [5.5664680771406374e-15, 2.789842736656637e-10, 5.379460750564396e-07, 1.398233563440078e-05, 0.00036342994002237496],
            [6.930251995164125e-17, 1.7408005953594964e-11, 1.0355880968359527e-07, 4.372693395447313e-06, 0.00018463371285366777],
            [7.940565012785092e-19, 9.996579078598819e-13, 1.8347142424686776e-08, 1.258494743305796e-06, 8.632456119146086e-05],
            [8.4471823822561e-21, 5.329811764248181e-14, 3.0179212327790776e-09, 3.362883877349323e-07, 3.747277380769161e-05],
            [8.402759443982084e-23, 2.6571858473473424e-15, 4.6419126433742443e-10, 8.402759443982081e-08, 1.5210619349808724e-05],
        ],
        [
            [2.4414333671669475e-18, 1.2236152353757189e-12, 1.179706304948333e-08, 6.132603348421398e-07, 3.187981930020834e-05],
            [2.707129685610986e-20, 6.800002325623033e-14, 2.0226330016327203e-09, 1.7080833575966073e-07, 1.4424508816692797e-05],
            [2.7959735960510896e-22, 3.519922210774235e-15, 3.2301307085716175e-10, 4.431319518682383e-08, 6.079194450102882e-06],
            [2.7074302507231082e-24, 1.7082730013615956e-16, 4.8364122320177513e-11, 1.0778473965863214e-08, 2.4021008851084363e-06],
            [2.4713998364653183e-26, 7.815252492198065e-18, 6.826342122609183e-12, 2.471399836465318e-09, 8.947423146946308e-07],
        ],
        [
            [9.109825996891598e-22, 4.565728490207908e-15, 2.2009445987842043e-10, 2.2882848315005225e-08, 2.379090992552863e-06],
            [9.145708397334412e-24, 2.2972980829807546e-16, 3.4166098000552724e-11, 5.770551883772323e-09, 9.74628974100865e-07],
            [8.629548135960158e-26, 1.086395744066122e-17, 4.984769611993238e-12, 1.3676912094698716e-09, 3.7525891667301746e-07],
            [7.691563212281559e-28, 4.853048299322716e-19, 6.869903738661579e-13, 3.062066467574777e-10, 1.3648300483570661e-07],
            [6.50368378017189e-30, 2.0566453926837016e-20, 8.982029108696295e-14, 6.50368378017189e-11, 4.709170077340163e-08],
        ],
    ],
    ("stable", "running"): [
        [
            [6.69087681602518e-05, 0.003353382041964512, 0.05172875686323189, 0.16806722689075668, 0.546052031163857],
            [1.433224901573987e-06, 0.00036000981835653526, 0.017133352717270147, 0.0904303777940009, 0.4772943954934626],
            [2.59283714034112e-08, 3.2641885646191524e-05, 0.0047927221522661816, 0.041093699328869755, 0.35234509134502456],
            [4.0938316573431436e-10, 2.583033151266178e-06, 0.0011700811866518985, 0.016297837378272118, 0.2270094641626147],
            [5.767654082349302e-12, 1.8238923656192154e-07, 0.0002548967070729665, 0.005767654082349301, 0.13050711402135884],
        ],
        [
            [6.195256311134432e-08, 3.104983372189366e-05, 0.0023948498547792575, 0.015561780267662674, 0.1011207465118255],
            [1.0538418393926378e-09, 2.647131017327465e-06, 0.0006299026734290494, 0.006649292484853006, 0.07019035227845037],
            [1.5809982563055617e-11, 1.9903588808653376e-07, 0.0001461195778129933, 0.00250571337371157, 0.042968913578661526],
            [2.1322039881995547e-13, 1.3453297662844682e-08, 3.047086423572653e-05, 0.0008488456967850063, 0.023646819183605703],
            [2.6216609465224096e-15, 8.290419843723704e-10, 5.793106978931058e-06, 0.000262166094652241, 0.011864283092850807],
        ],
        [
            [4.185983994009756e-11, 2.0979617379657898e-07, 8.090708968848849e-05, 0.0010514716397069385, 0.013664965744841296],
            [5.987737723821804e-13, 1.5040517143906048e-08, 1.7894962313325266e-05, 0.000377800709366648, 0.00797617639527845],
            [7.749991452478246e-15, 9.756661180712449e-10, 3.5813622012988575e-06, 0.00012282908694664566, 0.00421263858614329],
            [9.190534431894635e-17, 5.79883519950202e-11, 6.56699660252727e-07, 3.658817658556062e-05, 0.002038518895138423],
            [1.00833113327785e-18, 3.1886230168168104e-12, 1.1140590344098187e-07, 1.0083311332778498e-05, 0.0009126371609885235],
        ],
        [
            [2.226587230856255e-14, 1.1159370946626548e-09, 2.1517843002257585e-06, 5.592934253760312e-05, 0.0014537197600894998],
            [2.77210079806565e-16, 6.963202381437986e-11, 4.142352387343811e-07, 1.7490773581789254e-05, 0.0007385348514146711],
            [3.1762260051140367e-18, 3.9986316314395276e-12, 7.33885696987471e-08, 5.033978973223184e-06, 0.00034529824476584346],
            [3.37887295290244e-20, 2.1319247056992724e-13, 1.207168493111631e-08, 1.3451535509397292e-06, 0.00014989109523076645],
            [3.3611037775928336e-22, 1.062874338938937e-14, 1.8567650573496977e-09, 3.3611037775928325e-07, 6.0842477399234895e-05],
        ],
        [
            [9.76573346866779e-18, 4.8944609415028755e-12, 4.718825219793332e-08, 2.453041339368559e-06, 0.00012751927720083337],
            [1.0828518742443944e-19, 2.720000930249213e-13, 8.090532006530881e-09, 6.832333430386429e-07, 5.769803526677119e-05],
            [1.1183894384204358e-21, 1.407968884309694e-14, 1.292052283428647e-09, 1.7725278074729532e-07, 2.4316777800411527e-05],
            [1.0829721002892433e-23, 6.833092005446382e-16, 1.9345648928071005e-10, 4.3113895863452854e-08, 9.608403540433745e-06],
            [9.885599345861273e-26, 3.126100996879226e-17, 2.730536849043673e-11, 9.885599345861272e-09, 3.5789692587785233e-06],
        ],
        [
            [3.643930398756639e-21, 1.826291396083163e-14, 8.803778395136817e-10, 9.15313932600209e-08, 9.516363970211451e-06],
            [3.658283358933765e-23, 9.189192331923019e-16, 1.366643920022109e-10, 2.3082207535089292e-08, 3.89851589640346e-06],
            [3.451819254384063e-25, 4.345582976264488e-17, 1.9939078447972953e-11, 5.470764837879486e-09, 1.5010356666920699e-06],
            [3.0766252849126237e-27, 1.9412193197290863e-18, 2.7479614954646317e-12, 1.2248265870299107e-09, 5.459320193428265e-07],
            [2.601473512068756e-29, 8.226581570734807e-20, 3.592811643478518e-13, 2.601473512068756e-10, 1.8836680309360652e-07],
        ],
        [
            [1.1830942853105973e-24, 5.929517519750532e-17, 1.4291848044053276e-11, 2.9717984824682117e-09, 6.179457123513931e-07],
            [1.0887748092064776e-26, 2.7348786702151835e-18, 2.0336963095567092e-12, 6.869704623538479e-10, 2.3205451764306306e-07],
            [9.483019929626547e-29, 1.193841476995739e-19, 2.738884402194087e-13, 1.502957373043815e-10, 8.247448718088297e-08],
            [7.848533890083223e-31, 4.9520901013497115e-21, 3.5050529278885604e-14, 3.124557619974262e-11, 2.7853674456266653e-08],
            [6.193984552544658e-33, 1.9587098977940013e-22, 4.277156718426806e-15, 6.193984552544657e-12, 8.969847766362214e-09],
        ],
    ],
    ("tempered", "power"): [
        [
            [0.08285184627471943, 0.20042729985121277, 0.32839990605994446, 0.37173809573567385, 0.39211212607182944],
            [0.019376852767050607, 0.1152526091869084, 0.3274524166828935, 0.43823713500215933, 0.5058637025855622],
            [0.004024764122651021, 0.05931111479454655, 0.30124140220505213, 0.49090302694023324, 0.6411830907195496],
            [0.0007625298982115443, 0.02795738925757584, 0.25845170961683067, 0.5232501074935936, 0.7955351025658248],
            [0.00013403096080953606, 0.012257139743489005, 0.2086114105291084, 0.5320918762426646, 0.9637068662884697],
        ],
        [
            [0.00017785610578063458, 0.004370103728470223, 0.03802344342274901, 0.0911538477880797, 0.20665747164110174],
            [3.237161285414363e-05, 0.0019663933800724035, 0.030434746277596895, 0.08907698174717352, 0.23335050178546204],
            [5.502351845712623e-06, 0.0008295275001675987, 0.023185536536795597, 0.08403744331830242, 0.2588063021699074],
            [8.820998886029547e-07, 0.0003309170835997708, 0.016882823270417343, 0.07662549916481283, 0.2816582061433759],
            [1.3436637286861918e-07, 0.00012566592849582307, 0.011794783940429753, 0.06761771095087266, 0.3005818741749296],
        ],
        [
            [2.2248323179715688e-07, 5.5018933494840774e-05, 0.0024544747684202913, 0.012063681349950511, 0.056591923026884726],
            [3.4722935650543255e-08, 2.130291984877861e-05, 0.0017161378910957271, 0.010474804597649566, 0.05835388236938916],
            [5.165358507100957e-09, 7.880206849282309e-06, 0.0011567182352404334, 0.008844469775925876, 0.05917548961676577],
            [7.361482595993205e-10, 2.797482290783628e-06, 0.0007534533392252494, 0.007268698316678384, 0.05899843439968444],
            [1.00925941578003e-10, 9.566296091574529e-07, 0.0004753447713399332, 0.005820099644649043, 0.057822411977308204],
        ],
        [
            [1.9638730037817134e-10, 4.873674327141283e-07, 0.00011024220970124844, 0.001099256074764513, 0.010529975786719197],
            [2.7430851711194807e-11, 1.6927092019391968e-07, 6.980861765955284e-05, 0.0008737232364805072, 0.010112071836343663],
            [3.692579468090324e-12, 5.6746274314464574e-08, 4.2924720278685665e-05, 0.0006783756250944531, 0.009563245558572787],
            [4.805436763532658e-13, 1.8413240319306842e-08, 2.5672098251375925e-05, 0.0005148922189612814, 0.008906390869747639],
            [6.061609450104221e-14, 5.796923974566549e-09, 1.4956472280645338e-05, 0.0003823376115759463, 0.008168447501843304],
        ],
        [
            [1.3393418056743734e-13, 3.331192426213787e-09, 3.801467977736408e-06, 7.652589314662514e-05, 0.0014871581750721188],
            [1.7151661237870838e-14, 1.062436837777563e-09, 2.225219990136142e-06, 5.6643896769485127e-05, 0.0013461335976279272],
            [2.1315223672444887e-15, 3.291897252444047e-10, 1.2708725162299883e-06, 4.108633725113722e-05, 0.00120146995498861],
            [2.5760113591182773e-16, 9.927746512966619e-11, 7.09021130799499e-07, 2.922218081117702e-05, 0.0010574417624107193],
            [3.0329682315681404e-17, 2.919034990379149e-11, 3.868354254123653e-07, 2.0392412643945032e-05, 0.0009178276091349161],
        ],
        [
            [7.442077385168881e-17, 1.853820680060128e-11, 1.0643893345796459e-07, 4.314069292165416e-06, 0.00016943856107721743],
            [8.874244414897907e-18, 5.511852406076823e-12, 5.8366067555261873e-08, 3.007684464194046e-06, 0.0001457681050430371],
            [1.0317972043325302e-18, 1.5992046779878426e-12, 3.133301378317647e-08, 2.059729587965144e-06, 0.00012378853736674973],
            [1.171473996895291e-19, 4.534009849009703e-13, 1.6482490133152586e-08, 1.386268974502338e-06, 0.00010377943758322829],
            [1.3005393750934842e-20, 1.257668919926528e-13, 8.50339434727531e-09, 9.174170630012507e-07, 8.59034269480494e-05],
        ],
        [
            [3.4889150365415414e-20, 8.700623610851876e-14, 2.5093052026972635e-09, 2.0442992348473628e-07, 1.6188078615264517e-05],
            [3.91599244760336e-21, 2.4371301299761196e-14, 1.3011452455449605e-09, 1.3533752782703794e-07, 1.33176488152084e-05],
            [4.300464312259251e-22, 6.683448516857036e-15, 6.621984105395591e-10, 8.817240373016704e-08, 1.0825288447318945e-05],
            [4.625935933111333e-23, 1.796253375957493e-15, 3.3102007803273817e-10, 5.655608244637238e-08, 8.69530273822696e-06],
            [4.879053225478841e-24, 4.735762321357766e-16, 1.626366380461373e-10, 3.573099822255442e-08, 6.902761922958406e-06],
        ],
    ],
    ("tempered", "running"): [
        [
            [0.0005928536859354485, 0.01456701242823407, 0.12674481140916333, 0.303846159293599, 0.6888582388036726],
            [0.0001079053761804788, 0.0065546446002413454, 0.10144915425865635, 0.2969232724905784, 0.7778350059515403],
            [1.834117281904208e-05, 0.0027650916672253283, 0.07728512178931864, 0.280124811061008, 0.8626876738996915],
            [2.94033296200985e-06, 0.0011030569453325694, 0.056276077568057796, 0.25541833054937607, 0.9388606871445863],
            [4.478879095620639e-07, 0.00041888642831941015, 0.03931594646809917, 0.2253923698362422, 1.0019395805830984],
        ],
        [
            [7.416107726571894e-07, 0.00018339644498280254, 0.008181582561400972, 0.04021227116650169, 0.18863974342294906],
            [1.1574311883514416e-07, 7.100973282926202e-05, 0.005720459636985759, 0.03491601532549855, 0.19451294123129725],
            [1.7217861690336522e-08, 2.6267356164274357e-05, 0.0038557274508014446, 0.02948156591975292, 0.1972516320558859],
            [2.4538275319977354e-09, 9.324940969278762e-06, 0.002511511130750831, 0.024228994388927942, 0.19666144799894816],
            [3.3641980526000993e-10, 3.1887653638581766e-06, 0.0015844825711331108, 0.019400332148830142, 0.19274137325769403],
        ],
        [
            [6.546243345939044e-10, 1.6245581090470942e-06, 0.00036747403233749494, 0.00366418691588171, 0.035099919289063995],
            [9.143617237064935e-11, 5.642364006463989e-07, 0.00023269539219850945, 0.002912410788268357, 0.03370690612114556],
            [1.2308598226967745e-11, 1.8915424771488193e-07, 0.00014308240092895223, 0.0022612520836481765, 0.031877485195242625],
            [1.6018122545108856e-12, 6.137746773102282e-08, 8.557366083791976e-05, 0.0017163073965376047, 0.02968796956582547],
            [2.0205364833680731e-13, 1.932307991522183e-08, 4.985490760215112e-05, 0.0012744587052531545, 0.02722815833947768],
        ],
        [
            [4.464472685581245e-13, 1.1103974754045955e-08, 1.2671559925788026e-05, 0.00025508631048875045, 0.004957193916907064],
            [5.71722041262361e-14, 3.5414561259252097e-09, 7.417399967120474e-06, 0.00018881298923161712, 0.00448711199209309],
            [7.105074557481631e-15, 1.097299084148016e-09, 4.236241720766627e-06, 0.0001369544575037908, 0.004004899849962033],
            [8.586704530394256e-16, 3.30924883765554e-10, 2.363403769331664e-06, 9.740726937059005e-05, 0.0035248058747023967],
            [1.0109894105227136e-16, 9.73011663459716e-11, 1.289451418041218e-06, 6.797470881315013e-05, 0.0030594253637830546],
        ],
        [
            [2.4806924617229606e-16, 6.179402266867092e-11, 3.5479644485988206e-07, 1.4380230973884722e-05, 0.0005647952035907248],
            [2.9580814716326364e-17, 1.8372841353589406e-11, 1.9455355851753961e-07, 1.002561488064682e-05, 0.00048589368347679024],
            [3.4393240144417672e-18, 5.330682259959475e-12, 1.0444337927725489e-07, 6.865765293217147e-06, 0.0004126284578891658],
            [3.9049133229843033e-19, 1.5113366163365678e-12, 5.494163377717528e-08, 4.620896581674461e-06, 0.0003459314586107609],
            [4.3351312503116147e-20, 4.1922297330884257e-13, 2.8344647824251033e-08, 3.0580568766708355e-06, 0.00028634475649349795],
        ],
        [
            [1.1629716788471805e-19, 2.9002078702839584e-13, 8.364350675657544e-09, 6.814330782824541e-07, 5.396026205088172e-05],
            [1.3053308158677864e-20, 8.123767099920401e-14, 4.3371508184832006e-09, 4.5112509275679305e-07, 4.439216271736134e-05],
            [1.4334881040864174e-21, 2.227816172285678e-14, 2.2073280351318634e-09, 2.9390801243389014e-07, 3.608429482439648e-05],
            [1.5419786443704436e-22, 5.987511253191646e-15, 1.1034002601091269e-09, 1.885202748212413e-07, 2.898434246075654e-05],
            [1.6263510751596136e-23, 1.578587440452589e-15, 5.421221268204575e-10, 1.1910332740851475e-07, 2.300920640986136e-05],
        ],
        [
            [4.715204494155569e-23, 1.1768788895037717e-15, 1.7031101175761483e-10, 2.7858491673752428e-08, 4.440349462326639e-06],
            [5.021379781420949e-24, 3.1299224179929787e-16, 8.409346645164453e-11, 1.7620613502372602e-08, 3.5098854788600282e-06],
            [5.245718704116191e-25, 8.169793293269043e-17, 4.083545899964987e-11, 1.0984397631199241e-08, 2.7435153277438494e-06],
            [5.380557543738056e-26, 2.094684725197833e-17, 1.951295099510757e-11, 6.751294231221851e-09, 2.1208828527707483e-06],
            [5.422975938665483e-27, 5.279365477498764e-18, 9.180335833981093e-12, 4.0927267098830005e-09, 1.6217377670512012e-06],
        ],
    ],
    ("routes", "power"): [
        [
            [0.03588035914452108, 0.11015844590011882, 0.21780641147599847, 0.2688566878124711, 0.3045252119301297],
            [0.003376011873125959, 0.0322879033866455, 0.13350100199683818, 0.21447345281027808, 0.29337382677623297],
            [0.0002698108050240836, 0.008086401117519838, 0.07171379016712574, 0.15428748577515114, 0.2664841655291001],
            [1.9059079269012986e-05, 0.0017954123599683968, 0.03461400468770025, 0.1013973019775867, 0.22793350544348845],
            [1.21919974125278e-06, 0.0003616212438292322, 0.015276401181173674, 0.06156186861203274, 0.1838772505825907],
        ],
        [
            [7.185630800090675e-05, 0.002232261118939275, 0.02315962489393864, 0.06019399299512753, 0.14737156699168086],
            [5.07245782530507e-06, 0.0004923891816372729, 0.010843500389103176, 0.03744556613322587, 0.11556305591974878],
            [3.243282514804012e-07, 9.870751231944044e-05, 0.004678781623472213, 0.021791556493598336, 0.08672806593654409],
            [1.9090865560193437e-08, 1.8255336875429855e-05, 0.0018795086118675816, 0.011930746977239105, 0.0623186854683463],
            [1.0466884170486202e-09, 3.1491932517064823e-06, 0.0007086569970263442, 0.006177109180997365, 0.04292395655549016],
        ],
        [
            [8.627677683158567e-08, 2.6938171573279315e-05, 0.0014267005241190866, 0.007584001476926394, 0.038460136598087086],
            [5.076682053117934e-09, 4.964648473282081e-06, 0.0005639849573806452, 0.004034470456478639, 0.026403644409860993],
            [2.782603329077031e-10, 8.541005938406998e-07, 0.00020992579171866472, 0.0020398366488221767, 0.017478969952378215],
            [1.4332467309087984e-11, 1.3828407904579859e-07, 7.39993760229126e-05, 0.0009836544958196716, 0.011166212669662024],
            [6.984972387986495e-13, 2.1207038861240044e-08, 2.4823377914552963e-05, 0.00045386814466746324, 0.0068910623274478855],
        ],
        [
            [7.397496920695832e-11, 2.3162217923071687e-07, 6.205426858525819e-05, 0.0006682195683148439, 0.006919287189596368],
            [3.809413709259964e-12, 3.74194876600157e-08, 2.165626649138648e-05, 0.0003164728927010491, 0.004293418914198834],
            [1.85619259331999e-13, 5.728335052483442e-09, 7.203986836483832e-06, 0.00014378753260240598, 0.0025818384633359173],
            [8.605211731925172e-15, 8.352197984281225e-10, 2.29284756999432e-06, 6.282606057127172e-05, 0.001505878594168374],
            [3.8126489399246203e-16, 1.1648265617382728e-10, 7.005037895739793e-07, 2.6459424796308788e-05, 0.0008526718114674383],
        ],
        [
            [4.9326597185271895e-14, 1.547230336045098e-09, 2.0881704646564783e-06, 4.534886417180901e-05, 0.0009522863380843083],
            [2.286409455491531e-15, 2.2525892433009617e-10, 6.600608165433112e-07, 1.9569184413033382e-05, 0.0005441511613139207],
            [1.0128932418255695e-16, 3.1375768822039406e-11, 2.0046910588982903e-07, 8.152097290367448e-06, 0.0003024589359815357],
            [4.304653871801275e-18, 4.195901930711899e-12, 5.865692538468371e-08, 3.2844079845610962e-06, 0.00016365688644690685],
            [1.760586282998908e-19, 5.403616873900501e-13, 1.657408044847866e-08, 1.2819773862637069e-06, 8.627145422495229e-05],
        ],
        [
            [2.6909175540147828e-17, 8.45111389938121e-12, 5.7327505749764395e-08, 2.504690753587197e-06, 0.00010625138811282074],
            [1.1434766926293061e-18, 1.1289540349800355e-12, 1.668997795578438e-08, 9.999078094908744e-07, 5.661587187465242e-05],
            [4.6763294025581064e-20, 1.4525399612943456e-13, 4.695149761405816e-09, 3.8710931844409857e-07, 2.9429808123970633e-05],
            [1.845510221152288e-21, 1.8046353698608073e-14, 1.278842753003259e-09, 1.4554669491456217e-07, 1.4933976642803828e-05],
            [7.045105866570573e-23, 2.1698931551098478e-15, 3.3786514471349646e-10, 5.3217108866534935e-08, 7.40289257209067e-06],
        ],
        [
            [1.2420892020152925e-20, 3.904475123470452e-14, 1.3294020474823761e-09, 1.1667754302001064e-07, 9.9745972227854e-06],
            [4.901488812527079e-22, 4.846946176034017e-15, 3.6071218623413274e-10, 4.3560813822782446e-08, 5.001360464487148e-06],
            [1.8709716082497137e-23, 5.823744716400894e-16, 9.497336575197399e-11, 1.58263967833847e-08, 2.452061251552687e-06],
            [6.922584774671327e-25, 6.786087004806534e-17, 2.430304565906881e-11, 5.602111294047806e-09, 1.1762124327062515e-06],
            [2.487277467683964e-26, 7.68206369443205e-18, 6.052802713866178e-12, 1.934100412331758e-09, 5.523481694236361e-07],
        ],
    ],
    ("routes", "running"): [
        [
            [0.00023952102666968916, 0.007440870396464251, 0.07719874964646214, 0.20064664331709178, 0.4912385566389362],
            [1.69081927510169e-05, 0.0016412972721242425, 0.03614500129701059, 0.12481855377741956, 0.3852101863991626],
            [1.0810941716013375e-06, 0.00032902504106480145, 0.015595938744907377, 0.07263852164532777, 0.2890935531218136],
            [6.363621853397813e-08, 6.0851122918099524e-05, 0.006265028706225272, 0.03976915659079701, 0.20772895156115437],
            [3.4889613901620684e-09, 1.0497310839021607e-05, 0.002362189990087815, 0.020590363936657877, 0.1430798551849672],
        ],
        [
            [2.8758925610528566e-07, 8.979390524426434e-05, 0.004755668413730288, 0.025280004923087993, 0.12820045532695695],
            [1.6922273510393108e-08, 1.6548828244273602e-05, 0.0018799498579354838, 0.013448234854928794, 0.08801214803286998],
            [9.275344430256772e-10, 2.8470019794689997e-06, 0.0006997526390622155, 0.006799455496073924, 0.05826323317459404],
            [4.777489103029328e-11, 4.609469301526619e-07, 0.000246664586743042, 0.0032788483193989053, 0.037220708898873404],
            [2.328324129328832e-12, 7.069012953746682e-08, 8.274459304850987e-05, 0.001512893815558211, 0.022970207758159618],
        ],
        [
            [2.4658323068986104e-10, 7.720739307690562e-07, 0.00020684756195086068, 0.0022273985610494797, 0.0230642906319879],
            [1.269804569753321e-11, 1.2473162553338564e-07, 7.218755497128824e-05, 0.0010549096423368301, 0.01431139638066278],
            [6.187308644399966e-13, 1.9094450174944812e-08, 2.4013289454946105e-05, 0.0004792917753413533, 0.008606128211119727],
            [2.868403910641724e-14, 2.7840659947604083e-09, 7.642825233314401e-06, 0.00020942020190423908, 0.005019595313894581],
            [1.2708829799748741e-15, 3.8827552057942433e-10, 2.335012631913264e-06, 8.819808265436263e-05, 0.002842239371558128],
        ],
        [
            [1.6442199061757298e-13, 5.157434453483661e-09, 6.960568215521596e-06, 0.0001511628805726967, 0.0031742877936143613],
            [7.621364851638436e-15, 7.508630811003204e-10, 2.200202721811037e-06, 6.52306147101113e-05, 0.0018138372043797358],
            [3.376310806085232e-16, 1.045858960734647e-10, 6.682303529660969e-07, 2.717365763455816e-05, 0.0010081964532717856],
            [1.4348846239337586e-17, 1.3986339769039667e-11, 1.9552308461561239e-07, 1.0948026615203655e-05, 0.0005455229548230231],
            [5.868620943329696e-19, 1.801205624633501e-12, 5.524693482826219e-08, 4.273257954212357e-06, 0.00028757151408317433],
        ],
        [
            [8.969725180049278e-17, 2.817037966460404e-11, 1.91091685832548e-07, 8.348969178623991e-06, 0.00035417129370940247],
            [3.81158897543102e-18, 3.763180116600119e-12, 5.56332598526146e-08, 3.3330260316362477e-06, 0.00018871957291550804],
            [1.5587764675193692e-19, 4.841799870981152e-13, 1.5650499204686052e-08, 1.2903643948136617e-06, 9.80993604132354e-05],
            [6.151700737174291e-21, 6.015451232869358e-14, 4.2628091766775296e-09, 4.851556497152072e-07, 4.977992214267942e-05],
            [2.348368622190191e-22, 7.232977183699494e-15, 1.1262171490449883e-09, 1.7739036288844978e-07, 2.4676308573635562e-05],
        ],
        [
            [4.140297340050976e-20, 1.3014917078234836e-13, 4.4313401582745865e-09, 3.8892514340003544e-07, 3.324865740928467e-05],
            [1.6338296041756928e-21, 1.6156487253446723e-14, 1.2023739541137759e-09, 1.4520271274260813e-07, 1.6671201548290498e-05],
            [6.236572027499045e-23, 1.9412482388002976e-15, 3.1657788583991335e-10, 5.275465594461566e-08, 8.173537505175624e-06],
            [2.307528258223776e-24, 2.262029001602178e-16, 8.101015219689602e-11, 1.867370431349269e-08, 3.920708109020839e-06],
            [8.290924892279883e-26, 2.5606878981440166e-17, 2.01760090462206e-11, 6.447001374439196e-09, 1.8411605647454537e-06],
        ],
        [
            [1.656248709292664e-23, 5.210012970465515e-16, 8.895908251005006e-11, 1.5668677066585087e-08, 2.6950207664510994e-06],
            [6.127711330704053e-25, 6.067034782376664e-17, 2.2695354692256452e-11, 5.5153514157953956e-09, 1.280388686050818e-06],
            [2.2015516977103123e-26, 6.864113392339793e-18, 5.6369862781507145e-12, 1.894459491604157e-09, 5.959354272632306e-07],
            [7.693469277818005e-28, 7.556767969323167e-19, 1.3647957867818307e-12, 6.356042022905719e-10, 2.7187305563496933e-07],
            [2.6188427249808385e-29, 8.106566000946144e-20, 3.224785708707228e-13, 2.0848279535318521e-10, 1.2163892028582404e-07],
        ],
    ],
}


# The per-point cell quadrature's values on TestAtomCrossTerms' probes, recorded
# before the batched kernel replaced it: [model, quantity][i - 1][j - 1][x index].
ATOM_QUADRATURE = {
    ("mixed", "power"): [
        [
            [0.005282977308203711, 0.33333333333333326, 0.3333320065093639, 0.18918335181462784, 0.1414923799387113, 0.06095969804531544],
            [2.0223567811688885e-05, 0.08051147360008239, 0.08051147369542015, 0.09971585571520548, 0.11496687131970178, 0.17500011271081378],
            [6.27395091827396e-08, 0.01575945218356941, 0.015759452211936427, 0.0326658708912697, 0.05707905108890739, 0.3053751519787505],
            [1.6654477115648153e-10, 0.0026395567404590143, 0.00263955674679395, 0.008310685528798344, 0.021666931458616923, 0.40533802720390155],
        ],
        [
            [3.301860817627275e-06, 0.2083333333333304, 0.20833333366666318, 0.2514663347684998, 0.15688512208251226, 0.06160057066717514],
            [9.192530823494964e-09, 0.03659612436367388, 0.03659612444418532, 0.08420922163422431, 0.10942084776853138, 0.17408994723166357],
            [2.240696756526413e-11, 0.005628375779846215, 0.005628375795605677, 0.02072139801739515, 0.047224496566090075, 0.29908901197549953],
            [4.898375622249447e-14, 0.0007763402177820613, 0.0007763402204216213, 0.004254291132455267, 0.01576257115614223, 0.390888980981675],
        ],
        [
            [1.2699464683181687e-09, 0.08012820512820312, 0.08012820533653753, 0.2232891565198705, 0.18382417607633536, 0.062265895136912726],
            [2.8726658823421817e-12, 0.011436288863648109, 0.011436288900244196, 0.05151949791377549, 0.10204259537638632, 0.17316015565058263],
            [5.896570411911613e-15, 0.0014811515210121618, 0.00148115152664054, 0.009979378523925081, 0.03671272753480088, 0.29276935405565085],
            [1.1132671868748741e-17, 0.0001764409585868321, 0.00017644095936317303, 0.0017119177973357784, 0.010520748883814808, 0.37659235012819064],
        ],
        [
            [3.527629078661546e-13, 0.02225783475783399, 0.02225783483796265, 0.12569399607938556, 0.22213776633824486, 0.06295733240420685],
            [6.839680672243301e-16, 0.002722925919916221, 0.002722925931352495, 0.022853348379413923, 0.08740226476585419, 0.17220974949151346],
            [1.2284521691482523e-18, 0.0003085732335442003, 0.0003085732350253523, 0.003717366408556255, 0.02538885980221599, 0.2864150655296782],
            [2.061605901620137e-21, 3.267425159015408e-05, 3.2674251766595154e-05, 0.0005545816986561024, 0.006187707346113675, 0.3624506360356987],
        ],
        [
            [7.668758866655472e-17, 0.00483865972996387, 0.004838659752221837, 0.050873856399812664, 0.21466559627955792, 0.06367670969587685],
            [1.3153232062006368e-19, 0.0005236395999838893, 0.0005236396027068115, 0.00785761675339252, 0.06221143744146005, 0.17123765975069552],
            [2.11802098129009e-22, 5.3202281645551746e-05, 5.320228195412506e-05, 0.0011212623692903826, 0.014858059241289774, 0.2800249633239113],
            [3.221259221281463e-25, 5.105351810961575e-06, 5.105351843635843e-06, 0.0001497658628261318, 0.0031227008313939194, 0.3484664538250757],
        ],
        [
            [1.369421226188466e-20, 0.0008640463803506841, 0.0008640463851893727, 0.016164054865743835, 0.1542230994723077, 0.06442604296818469],
            [2.121489042259095e-23, 8.445799999740161e-05, 8.445800052104054e-05, 0.002211343237241573, 0.03571291856431789, 0.17024272762179807],
            [3.1147367371913087e-26, 7.823864947875258e-06, 7.823865001077545e-06, 0.0002845662725310376, 0.007274289456428304, 0.2735977872376907],
            [4.3530530017317073e-29, 6.899124068866993e-07, 6.899124119920532e-07, 3.47082857824578e-05, 0.0013483830927548146, 0.3346425410903742],
        ],
    ],
    ("mixed", "running"): [
        [
            [3.301860817627275e-06, 0.2083333333333304, 0.20833333366666404, 0.3692040561878956, 0.562658983429271, 1.9810164844016962],
            [9.192530823494964e-09, 0.03659612436367388, 0.03659612444418532, 0.10090669590030149, 0.2306040730694382, 2.843876489495113],
            [2.240696756526413e-11, 0.005628375779846215, 0.005628375795605677, 0.022794676295351743, 0.07698820645186827, 3.3088108422121496],
            [4.898375622249447e-14, 0.0007763402177820613, 0.0007763402204216213, 0.004485170657919479, 0.022103554552526064, 3.294381851129006],
        ],
        [
            [1.2699464683181687e-09, 0.08012820512820312, 0.08012820533653753, 0.2549877738250922, 0.48712099105107814, 1.9503243233894403],
            [2.8726658823421817e-12, 0.011436288863648109, 0.011436288900244196, 0.05517207040947989, 0.17490215910329832, 2.7566787591125532],
            [5.896570411911613e-15, 0.0014811515210121618, 0.00148115152664054, 0.010361298206706556, 0.051704857845583575, 3.158216815785076],
            [1.1132671868748741e-17, 0.0001764409585868321, 0.00017644095936317303, 0.0017486486309323578, 0.013271232533086394, 3.096537581801855],
        ],
        [
            [3.527629078661546e-13, 0.02225783475783399, 0.02225783483796265, 0.1318576161109564, 0.40082793209600004, 1.9193036631932878],
            [6.839680672243301e-16, 0.002722925919916221, 0.002722925931352495, 0.02346211046203132, 0.12250052804101341, 2.6699426008089437],
            [1.2284521691482523e-18, 0.0003085732335442003, 0.0003085732350253523, 0.0037730630289618877, 0.031550687663181386, 3.010776972146103],
            [2.061605901620137e-21, 3.267425159015408e-05, 3.2674251766595154e-05, 0.0005593431030112146, 0.007178078279792167, 2.9058671662194087],
        ],
        [
            [7.668758866655472e-17, 0.00483865972996387, 0.004838659752221837, 0.05181179857852993, 0.2954261272634628, 1.8879417328783616],
            [1.3153232062006368e-19, 0.0005236395999838893, 0.0005236396027068115, 0.007939565495283322, 0.07574223479261809, 2.5836781529038446],
            [2.11802098129009e-22, 5.3202281645551746e-05, 5.320228195412506e-05, 0.0011279843752014071, 0.016943966356946196, 2.866508437424011],
            [3.221259221281463e-25, 5.105351810961575e-06, 5.105351843635843e-06, 0.0001502866414274722, 0.003422786724756815, 2.7222935689763776],
        ],
        [
            [1.369421226188466e-20, 0.0008640463803506841, 0.0008640463851893727, 0.0162812976380835, 0.18327372930897146, 1.85622487675535],
            [2.121489042259095e-23, 8.445799999740161e-05, 8.445800052104054e-05, 0.002220595514551825, 0.04001083150581039, 2.4978960743192995],
            [3.1147367371913087e-26, 7.823864947875258e-06, 7.823865001077545e-06, 0.0002852582437277607, 0.007870280496768006, 2.7254289172027537],
            [4.3530530017317073e-29, 6.899124068866993e-07, 6.899124119920532e-07, 3.4757548623125126e-05, 0.0014265218753860597, 2.5457384665213545],
        ],
        [
            [2.074880645740085e-24, 0.0001309161182349512, 0.00013091611909900268, 0.004270053016030661, 0.09417435871055656, 1.8241384639525284],
            [2.9465125586931917e-27, 1.1730277777416909e-05, 1.1730277861874796e-05, 0.0005298329398850262, 0.017965964095205136, 2.412607587864024],
            [3.993252227168341e-30, 1.0030596087019557e-06, 1.0030596165258218e-06, 6.255313980552598e-05, 0.0031629981622667046, 2.5875567339159224],
            [5.182205954442511e-33, 8.213242939127377e-08, 8.213243008118634e-08, 7.059483675497885e-06, 0.0005213266267590992, 2.376122187427782],
        ],
    ],
    ("atom-tempered-killed", "power"): [
        [
            [0.08829618734334456, 0.960090091770081, 0.9598703019027423, 0.4274312793436566, 0.3993453673873263, 0.3960733039767239],
            [0.008238601078316213, 1.0804375211262145, 1.0804374399854064, 0.6160941783657651, 0.536090087662798, 0.5229135404103034],
            [0.0006821869439994795, 1.1431079158428556, 1.1431079167554472, 0.870723672171368, 0.7253736756493947, 0.6903736454819813],
            [5.150274920297861e-05, 1.1420591851842807, 1.1420591865553185, 1.1837645232060565, 0.9858678097273966, 0.9114619024832946],
        ],
        [
            [5.046397230755114e-05, 0.4919137196272011, 0.49191372039503495, 0.5197546313082556, 0.6321343371531601, 2.6616126027235394],
            [3.6624722506175967e-06, 0.4531062172876683, 0.4531062181520175, 0.6672553635696897, 0.7978116891004825, 3.4721459083240394],
            [2.4813140816546943e-07, 0.40086051261830546, 0.40086051353279023, 0.8202138590800665, 1.0055820365647903, 4.528851114359433],
            [1.585106339371386e-08, 0.3413401153241627, 0.3413401162378104, 0.9630942242958177, 1.2621882917546683, 5.906273128079603],
        ],
        [
            [1.682256068350902e-08, 0.13761997728196948, 0.13761997767550613, 0.41410938848791506, 0.637243139131943, 9.890425688263369],
            [1.0465386445927513e-09, 0.11189767550618031, 0.11189767586866503, 0.46304380657945143, 0.7667209999339036, 12.765783679327168],
            [6.20411594133585e-11, 0.08819428093896653, 0.08819428125965437, 0.4967317909816521, 0.9165904799264714, 16.47286748010718],
            [3.522969017970478e-12, 0.06747779121709635, 0.06747779149016848, 0.5131647991178382, 1.0855283191727727, 21.250916548731325],
        ],
        [
            [3.958408292198008e-12, 0.026609921390762147, 0.02660992150085958, 0.2167083664112897, 0.496160120013515, 26.64101844224358],
            [2.2033841800230662e-13, 0.019724746356305625, 0.01972474644582371, 0.2149377363718805, 0.5706715048426285, 34.05400387364378],
            [1.1818337555339702e-14, 0.014251051768494762, 0.014251051839050064, 0.20666287201235595, 0.6488008581822895, 43.51470375981596],
            [6.127473429898435e-16, 0.01004639553536582, 0.01004639558934806, 0.19314698986252293, 0.7273774617225652, 55.58418432598419],
        ],
        [
            [7.197287696068344e-16, 0.003937994453437592, 0.003937994474725787, 0.07994077264962594, 0.3175854266377148, 57.82028307797633],
            [3.672465232522586e-17, 0.0027106895730081002, 0.0027106895887878905, 0.0723844360089266, 0.34756455303382683, 73.24604609068349],
            [1.8183072790867777e-18, 0.0018254912660605903, 0.0018254912774614133, 0.06400296748804328, 0.37444566308764354, 92.74826220383486],
            [8.754101834466937e-20, 0.0012037388744930446, 0.001203738882530163, 0.05535388938070078, 0.39670894043448457, 117.39277902582397],
        ],
        [
            [1.0662833522083869e-19, 0.0004724018601693012, 0.0004724018633197321, 0.022539104716600342, 0.1692979796422916, 106.88031408253862],
            [5.065623386560983e-21, 0.0003056378885553527, 0.0003056378907239034, 0.019014660603514522, 0.17541187373681758, 134.2524593367598],
            [2.3462975351082115e-22, 0.00019399552721005881, 0.00019399552867044954, 0.015738050151491448, 0.1786816762062449, 168.5526640607884],
            [1.0611540185914656e-23, 0.00012087915678557033, 0.00012087915774856164, 0.012793250246370893, 0.17893884805882737, 211.51143212966628],
        ],
    ],
    ("atom-tempered-killed", "running"): [
        [
            [6.307996538443892e-05, 0.6148921495340014, 0.6148921504939507, 1.0793927740036615, 1.569190898256995, 8.343944270442826],
            [4.578090313271997e-06, 0.5663827716095853, 0.5663827726900219, 1.2502977663391286, 1.9264083681328321, 10.876601640532988],
            [3.1016426020683683e-07, 0.5010756407728817, 0.5010756419159879, 1.4098202504807882, 2.3457404429200484, 14.17567218722165],
            [1.9813829242142324e-08, 0.42667514415520336, 0.426675145297263, 1.5449457619817912, 2.8280729064626193, 18.47229455695181],
        ],
        [
            [2.102820085438627e-08, 0.1720249716024618, 0.17202497209438272, 0.6572935175929228, 1.3401122663910217, 29.482640552549437],
            [1.3081733057409396e-09, 0.13987209438272544, 0.13987209483583124, 0.6968921986180762, 1.5636965867316412, 38.0067505531241],
            [7.755144926669813e-11, 0.11024285117370818, 0.11024285157456801, 0.7176580380653169, 1.8058934500769053, 48.981549897821466],
            [4.403711272463097e-12, 0.08434723902137044, 0.08434723936271063, 0.7184222169684523, 2.061230035993479, 63.107191562727216],
        ],
        [
            [4.948010365247507e-12, 0.0332624017384527, 0.03326240187607447, 0.3015337042336395, 0.9195477741726001, 76.06229752606016],
            [2.754230225028833e-13, 0.02465593294538203, 0.024655933057279637, 0.2922688294929044, 1.0241548561204261, 97.07461785831049],
            [1.4772921944174624e-14, 0.01781381471061844, 0.017813814798812583, 0.27605004918314785, 1.126631579661388, 123.84515253485624],
            [7.659341787373044e-16, 0.012557994419207272, 0.012557994486685079, 0.25443021997063786, 1.22276779754154, 157.9377295715377],
        ],
        [
            [8.996609620085431e-16, 0.00492249306679699, 0.004922493093407233, 0.10504289598233944, 0.5283886498252157, 158.93500770625002],
            [4.590581540653232e-17, 0.0033883619662601265, 0.0033883619859848635, 0.09414219344023264, 0.5616843295511761, 200.97286530354125],
            [2.2728840988584715e-18, 0.0022818640825757385, 0.0022818640968267673, 0.08256923686670932, 0.5887114826925933, 254.01463725012428],
            [1.0942627293083672e-19, 0.0015046735931163063, 0.0015046736031627042, 0.0709536656280474, 0.6080431965173455, 320.9072655135406],
        ],
        [
            [1.3328541902604835e-19, 0.0005905023252116264, 0.0005905023291496649, 0.02886542912931891, 0.25801453726773677, 283.96449345440084],
            [6.3320292332012295e-21, 0.00038204736069419093, 0.0003820473634048793, 0.02423391769706572, 0.2614065640515972, 355.9771335917644],
            [2.9328719188852646e-22, 0.0002424944090125734, 0.00024249441083806192, 0.019980279938456212, 0.2609415279557046, 446.0202356636702],
            [1.3264425232393322e-23, 0.0001510989459819629, 0.0001510989471857021, 0.01619132740537751, 0.2566226360178747, 558.5436340707562],
        ],
        [
            [1.6660888418050767e-23, 5.958095972099542e-05, 5.958096019340225e-05, 0.006513097164253547, 0.10754183069845223, 448.31045306989455],
            [7.449614674246469e-25, 3.654522659672909e-05, 3.6545226902366874e-05, 0.005176840810410286, 0.10385581146159936, 557.4177237320574],
            [3.258845917770514e-26, 2.2037419358720664e-05, 2.2037419552715895e-05, 0.004051396406164643, 0.09885154195236229, 692.6777941988603],
            [1.3963065530665996e-27, 1.3071714781496477e-05, 1.3071714902375668e-05, 0.0031237426793306695, 0.09275461029087322, 860.2521218881444],
        ],
    ],
    ("alternating", "power"): [
        [
            [0.01267914553968891, 0.5853538491759872, 0.5853528540323586, 0.5020334171905905, 0.45481336211697604, 0.7168680336870273],
            [7.280484412207999e-05, 0.3092884684953842, 0.30928846867886584, 0.34374863985904597, 0.44971961924223197, 1.8073013217394613],
            [3.387933495867938e-07, 0.12390819919021992, 0.12390819931863996, 0.16130515838362625, 0.308883022777738, 3.6138411806334965],
            [1.3490126463675005e-09, 0.04090308438730248, 0.04090308444837101, 0.06091097915231178, 0.1688237919332394, 6.083131574914787],
        ],
        [
            [1.2679145539688738e-05, 0.760047815651964, 0.7600478161129456, 0.8322532053735064, 0.857337684583631, 3.123464933482652],
            [5.2948977543330994e-08, 0.2987021286950876, 0.2987021290116417, 0.3901308508558933, 0.6633734014444181, 6.16924727322889],
            [1.9359619976388219e-10, 0.09563529606272088, 0.09563529621209632, 0.1445831846034418, 0.38118239865210884, 10.413963843631636],
            [6.348294806435284e-13, 0.026298732261927197, 0.026298732316336042, 0.045665599633122285, 0.1803550352743875, 15.448119597928137],
        ],
        [
            [7.80255110134683e-09, 0.7228324036476408, 0.722832404421572, 0.9486722468550963, 1.4077741854309782, 10.572244592896045],
            [2.6474488771665545e-11, 0.2228327468215429, 0.22283274718953636, 0.3432961295265233, 0.8624624944277058, 17.86292027711744],
            [8.151418937426615e-14, 0.05878370666781143, 0.058783706797940365, 0.10535859338111468, 0.4174341418246351, 26.71892787490187],
            [2.308470838703738e-16, 0.01377004339568789, 0.013770043433568288, 0.028539954760537663, 0.17195335996168273, 35.96597970879541],
        ],
        [
            [3.4678004894874473e-12, 0.5154980218686394, 0.5154980227885211, 0.8148306461517021, 1.9586319321284695, 30.70186034856173],
            [1.0085519532063081e-14, 0.12968196702424284, 0.1296819673352564, 0.24190790672649573, 0.9714518361851223, 46.2312317843384],
            [2.717139645808871e-17, 0.029062377101523113, 0.02906237718775315, 0.0633236731358029, 0.4013942737427874, 62.91123930197964],
            [6.839913596159225e-20, 0.005939591522123074, 0.0059395915429262475, 0.01499740506720898, 0.14538017852346372, 78.21921080247148],
        ],
        [
            [1.206191474604319e-15, 0.281230586043001, 0.28123058678095614, 0.5515714151060018, 2.276104128893576, 80.04286880631732],
            [3.1032367790963383e-18, 0.060189463393245185, 0.060189463586675325, 0.13904200768862748, 0.9408903584383113, 109.96931795736323],
            [7.495557643610675e-21, 0.011803008945862389, 0.011803008990263616, 0.0317705370850879, 0.3377117343213339, 138.39806764238287],
            [1.709978399039806e-23, 0.0021518650642275965, 0.0021518650734389114, 0.006695582051238223, 0.10886480780903138, 160.82731252344917],
        ],
        [
            [3.446261356012314e-19, 0.12208680509946682, 0.12208680552501283, 0.30141727920616557, 2.214606842363387, 192.14947266392073],
            [8.008352978313146e-22, 0.022979689526992655, 0.022979689619818677, 0.06634432729696821, 0.7854335316317159, 244.52567540138182],
            [1.7636606220260418e-24, 0.00403818726595651, 0.004038187284377264, 0.013508115509026627, 0.24929321025877765, 287.8063758014842],
            [3.697250592518501e-27, 0.0006687545276587851, 0.0006687545310433123, 0.0025743055819935985, 0.0724110599498054, 315.2265313147842],
        ],
    ],
    ("alternating", "running"): [
        [
            [7.92446596230546e-06, 0.6597884980113291, 0.6597884985966822, 0.8183154754396605, 1.381499237064329, 11.224411786666987],
            [3.309311096458188e-08, 0.23083876325439012, 0.23083876356367855, 0.329067254965547, 0.8073788214071601, 19.914578869195076],
            [1.2099762485242631e-10, 0.06881865791545098, 0.06881865803935922, 0.11163531119758437, 0.3934392915238608, 30.51042156967589],
            [3.967684254022052e-13, 0.018084747555597133, 0.018084747596500226, 0.03327625989494671, 0.16694279502801676, 41.46291378397602],
        ],
        [
            [4.876594438341768e-09, 0.5456936458892875, 0.5456936466493334, 0.7867552001963553, 1.8007586583217086, 34.02349412320525],
            [1.654655548229097e-11, 0.15717214099607701, 0.15717214129477916, 0.2607282364258903, 0.9024528002651778, 52.559717468838855],
            [5.0946368358916336e-14, 0.03980496905531844, 0.039804969150953745, 0.07564911060580823, 0.38654958096251196, 72.3490815937612],
            [1.4427942741898367e-16, 0.009086923127075442, 0.009086923153374175, 0.019728894038208215, 0.1466189697539636, 90.19430563506509],
        ],
        [
            [2.1673753059296544e-12, 0.3562402051950251, 0.35624020591785616, 0.6075345536830457, 2.0786100006529797, 90.60373285912905],
            [6.303449707539426e-15, 0.0865530160333535, 0.08655301625618625, 0.17101077697955913, 0.8985992594180561, 126.12433285053058],
            [1.6982122786305446e-17, 0.018984339210873443, 0.018984339269657157, 0.043227465293084064, 0.34012495309596624, 159.4096859344719],
            [4.274945997599515e-20, 0.0038263557866115025, 0.0038263558003815475, 0.00999610201699845, 0.11589099298174085, 184.96745691514823],
        ],
        [
            [7.538696716276993e-16, 0.18531834045222959, 0.18531834096772698, 0.3837869500177939, 2.0984830022347656, 219.7440009324139],
            [1.9395229869352115e-18, 0.03897723356612202, 0.038977233695803984, 0.09376951468777397, 0.7910568600805066, 281.25226106074774],
            [4.684723527256673e-21, 0.007558187149694982, 0.007558187178757363, 0.020980688981104435, 0.2668349227033198, 330.96599212691973],
            [1.0687364993998788e-23, 0.001367752296635171, 0.0013677523025747626, 0.00435757431871023, 0.08224358308117972, 360.9950041937601],
        ],
        [
            [2.153913347507696e-19, 0.07849269580391069, 0.07849269608514105, 0.2009836970421616, 1.844327424902759, 495.5244464922091],
            [5.005220611445715e-22, 0.014643158014224736, 0.014643158074414204, 0.0434465412878969, 0.6145362306395986, 590.859499804354],
            [1.1022878887662759e-24, 0.0025580123536994262, 0.0025580123655024353, 0.008736439958123723, 0.18660091044480792, 653.6042160476854],
            [2.3107816203240628e-27, 0.0004219225569033332, 0.00042192255905519843, 0.0016503044102488787, 0.052436872697158944, 674.9645615884367],
        ],
        [
            [5.2216081151701345e-23, 0.027807114638136104, 0.027807114760222847, 0.0886381442218542, 1.41488993673642, 1052.7349394333821],
            [1.1122712469879385e-25, 0.00469295461146537, 0.004692954634445058, 0.01725008280266381, 0.42250131932143, 1180.2748088363405],
            [2.2611033615718475e-28, 0.0007500178425903037, 0.0007500178466284914, 0.0031611102037236273, 0.11665040405587217, 1235.9448708049626],
            [4.401488800617264e-31, 0.00011416832939450857, 0.00011416833006326317, 0.0005493553182345587, 0.03011923163358867, 1214.9491630177079],
        ],
    ],
}
