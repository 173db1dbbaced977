import itertools
import math
from fractions import Fraction

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
    u_series,
)


def brute_force_sums(locations, k, x_max):
    """Exhaustive <=k-fold sum enumeration. Only viable for tiny atom sets."""
    found = set()
    for j in range(1, k + 1):
        for combo in itertools.product(locations, repeat=j):
            v = sum(combo)
            if v <= x_max + 1e-12:
                found.add(round(v, 10))
    return found


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
    # must not move a single bit
    CASES = [
        (LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)),
         "power", 3, 1.7, 1.806914907454394),
        (LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)),
         "running", 3, 1.7, 1.7559757265126106),
        (LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                   ac=AcTail.tempered(0.7, 0.6, 1.5)), "power", 2, 0.8, 3.0843663537962436),
        (LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                   ac=AcTail.tempered(0.7, 0.6, 1.5)), "running", 4, 2.9, 25.852446784686947),
        (LevyModel(drift=1.0, ac=AcTail.tempered(1.0, 0.5, 1.0)), "power", 3, 1.0, 2.3114546995818426),
        (LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.5)), "running", 2, 0.3, 0.9424777960769377),
        (LevyModel(drift=1.7, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)])),
         "power", 4, 2.9, 0.6604780833333332),
        (LevyModel(drift=1.7, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)])),
         "running", 5, 1.7, 0.40994454937333324),
    ]

    @pytest.mark.parametrize("model, quantity, n, x, want", CASES)
    def test_bits_unchanged(self, model, quantity, n, x, want):
        eng = ConvolutionEngine(model, 3.0)
        assert getattr(eng, quantity)(n, x) == want


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
