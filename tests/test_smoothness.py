import json
import math
from fractions import Fraction

import numpy as np
import pytest

from subpot import (
    AtomicPart,
    LevyModel,
    PreconditionError,
    classify_point,
    conv_jump,
    derivative_jump,
)
from subpot.smoothness import predicted_jump_magnitude


class TestClassification:
    def test_delta1_at_two(self, delta1):
        rep = classify_point(delta1, 2.0, k_max=3)
        assert rep.min_k == 2
        assert rep.verdicts == [(1, True), (2, False), (3, False)]

    def test_monotone_verdicts(self, delta1):
        rep = classify_point(delta1, 3.0, k_max=5)
        flags = [d for _, d in rep.verdicts]
        # once non-differentiable, stays non-differentiable
        assert flags == sorted(flags, reverse=True)

    def test_reciprocal_family_rational_vs_irrational(self):
        fam = AtomicPart.reciprocal_integers([1.0 / j**2 for j in range(1, 17)], 16)
        model = LevyModel(drift=1.0, atomic=fam)
        rep = classify_point(model, Fraction(3, 5), k_max=4)
        assert rep.min_k is not None and rep.min_k <= 3
        rep_irr = classify_point(model, math.sqrt(2.0) - 1.0, k_max=3)
        assert rep_irr.min_k is None
        assert all(d for _, d in rep_irr.verdicts)

    def test_smooth_model_everywhere_differentiable(self, stable_half):
        rep = classify_point(stable_half, 1.7, k_max=4)
        assert rep.min_k is None
        assert all(d for _, d in rep.verdicts)

    def test_mixed_model_same_verdicts_as_atomic(self, delta1, mixed_model):
        for x in (1.0, 2.0, 2.5, 3.0):
            a = classify_point(delta1, x, k_max=3)
            b = classify_point(mixed_model, x, k_max=3)
            assert a.min_k == b.min_k
            assert a.verdicts == b.verdicts

    def test_measured_jumps_delta1(self, delta1):
        for x, order in ((1.0, 1), (2.0, 2), (3.0, 3)):
            rep = classify_point(delta1, x, k_max=3, measure=True)
            assert rep.min_k == order
            for j in rep.jumps:
                if j.order > order:
                    assert j.measured is None and j.err_est is None
                    continue
                # no slack: the exact jump J_j/d^(j+1), 0 below the minimal jump count
                assert abs(j.measured - j.predicted) <= j.err_est
                assert j.significant == (j.order == order)

    def test_ac_model_measures_order_one_only(self, mixed_model):
        # atom 1 of mass 1 plus a stable tail: the contour has no order >= 2 with an AC part
        for x, min_k in ((1.0, 1), (2.0, 2), (1.5, None)):
            rep = classify_point(mixed_model, x, k_max=3, measure=True)
            assert rep.min_k == min_k
            first, *higher = rep.jumps
            assert abs(first.measured - first.predicted) <= first.err_est
            assert first.significant == (x == 1.0)
            top = 3 if min_k is None else min_k
            assert [(j.measured, j.err_est) for j in higher] == [(None, None)] * 2
            assert [j.predicted is None for j in higher] == [j.order > top for j in higher]
        doc = json.loads(classify_point(mixed_model, 2.0, k_max=3, measure=True).to_json())
        assert [j["measured"] for j in doc["jumps"][1:]] == [None, None]
        assert [sorted(j) for j in doc["jumps"]] == [["err_est", "measured", "order", "predicted"]] * 3

    def test_no_false_kinks(self, delta1):
        rng = np.random.default_rng(5)
        checked = 0
        for x in rng.uniform(0.3, 4.0, size=40):
            if min(abs(x - b) for b in (1.0, 2.0, 3.0, 4.0)) < 0.05:
                continue
            rep = classify_point(delta1, float(x), k_max=2, measure=True)
            assert rep.min_k is None
            assert [j.order for j in rep.jumps if j.measured is not None] == [1, 2]
            for j in rep.jumps:
                assert not j.significant, f"false kink at {x} order {j.order}"
            checked += 1
        assert checked > 20


class TestDerivativeJump:
    def test_delta1_atom(self, delta1):
        pred, meas, se = derivative_jump(delta1, 1.0)
        assert pred == 1.0
        assert meas == pytest.approx(1.0, abs=max(1e-4, 3 * se))

    def test_non_atom(self, delta1):
        pred, meas, se = derivative_jump(delta1, 0.37)
        assert pred == 0.0
        assert abs(meas) <= 3 * se + 1e-12

    def test_scaled_atom(self):
        model = LevyModel(drift=2.0, atomic=AtomicPart.from_pairs([(0.5, 2.0)]))
        pred, meas, se = derivative_jump(model, 0.5)
        assert pred == pytest.approx(0.5)
        assert meas == pytest.approx(0.5, abs=max(1e-4, 3 * se))

    def test_mixed_model_jump(self, mixed_model):
        pred, meas, se = derivative_jump(mixed_model, 1.0, tol=1e-7)
        assert pred == 1.0
        assert meas == pytest.approx(1.0, abs=max(1e-4, 3 * se))


class TestConvJump:
    def test_single_atom_two_fold(self, delta1):
        pred, meas = conv_jump(delta1, 2, 2.0)
        assert pred == 1.0
        assert meas == pytest.approx(1.0, abs=1e-12)

    def test_two_atoms_ordered_pairs(self):
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0), (2, 1.0)]))
        pred, meas = conv_jump(model, 2, 3.0)
        assert pred == 2.0  # 1+2 and 2+1
        assert meas == pytest.approx(2.0, abs=1e-12)

    def test_atom_itself_rejected(self):
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0), (2, 1.0)]))
        with pytest.raises(PreconditionError):
            conv_jump(model, 2, 2.0)  # 2 is an atom: in G_1

    def test_positivity_on_ladder(self, delta1):
        for n in (2, 3, 4):
            pred, meas = conv_jump(delta1, n, float(n))
            assert pred > 0
            assert meas == pytest.approx(pred, rel=1e-10)

    def test_recursive_magnitude_vs_brute_force(self):
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.5, 0.7), (0.8, 1.3)]))
        # b = 1.3 = 0.5+0.8 is in G_2\G_1: ordered pairs (0.5,0.8), (0.8,0.5)
        pred, meas = conv_jump(model, 2, 1.3)
        assert pred == pytest.approx(2 * 0.7 * 1.3)
        assert meas == pytest.approx(pred, rel=1e-10)

    def test_ac_model_rejected(self, mixed_model):
        with pytest.raises(PreconditionError):
            conv_jump(mixed_model, 2, 2.0)


class TestPredictedMagnitude:
    def test_matches_mass_at_order_one(self, delta1):
        assert predicted_jump_magnitude(delta1.atomic, 1, 1.0) == 1.0
        assert predicted_jump_magnitude(delta1.atomic, 1, 1.5) == 0.0

    def test_third_order_single_atom(self, delta1):
        assert predicted_jump_magnitude(delta1.atomic, 3, 3.0) == 1.0
        assert predicted_jump_magnitude(delta1.atomic, 3, 2.0) == 0.0


class TestAtomSumLookups:
    """Every atom-sum fact in this module is read from one enumeration."""

    FAMILY = LevyModel(
        drift=2.0, atomic=AtomicPart.reciprocal_integers([j**-1.25 for j in range(1, 9)], 8)
    )

    def test_predicted_magnitude_exact_rational(self):
        m = self.FAMILY.atomic.masses[::-1]  # masses of the atoms 1/1, 1/2, ..., 1/8
        seven_tenths = Fraction(7, 10)  # 1/2 + 1/5 and 1/5 + 1/2
        assert predicted_jump_magnitude(self.FAMILY.atomic, 2, 0.7, exact=seven_tenths) == pytest.approx(
            2 * m[1] * m[4], rel=1e-15
        )
        assert predicted_jump_magnitude(self.FAMILY.atomic, 1, 0.7, exact=seven_tenths) == 0.0
        assert predicted_jump_magnitude(self.FAMILY.atomic, 3, 0.7, exact=seven_tenths) == 0.0
        assert predicted_jump_magnitude(self.FAMILY.atomic, 1, 0.25, exact=Fraction(1, 4)) == m[3]
        # within the float tolerance of 7/10 but not equal to it: only the
        # exact test tells them apart
        near = seven_tenths + Fraction(1, 10**14)
        assert predicted_jump_magnitude(self.FAMILY.atomic, 2, float(near), exact=near) == 0.0
        assert predicted_jump_magnitude(self.FAMILY.atomic, 2, float(near)) > 0.0

    def test_predicted_magnitude_off_the_level_set(self):
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 0.5), (2, 3.0)]))
        # 2 is an atom (order 1, mass 3) and also 1 + 1 (order 2, mass 0.25)
        assert predicted_jump_magnitude(model.atomic, 1, 2.0) == 3.0
        assert predicted_jump_magnitude(model.atomic, 2, 2.0) == 0.0
        assert predicted_jump_magnitude(model.atomic, 2, 3.0) == pytest.approx(2 * 0.5 * 3.0)
        assert predicted_jump_magnitude(AtomicPart.empty(), 2, 1.0) == 0.0

    # min_k at the family points of the atom-family-ladder benchmark, k_max = 3,
    # recorded from the recursive implementation
    FAMILY_MIN_K = {
        "0.25": 1, "0.375": 2, "0.45": 2, "0.5": 1, "0.625": 2, "0.7": 2,
        "0.75": 2, "0.875": 3, "0.3": None, "0.55": None, "0.9": 3,
    }

    def test_family_min_k_recorded(self):
        got = {x: classify_point(self.FAMILY, x, k_max=3).min_k for x in self.FAMILY_MIN_K}
        assert got == self.FAMILY_MIN_K

    def test_classify_point_enumerates_once_up_to_x(self, monkeypatch):
        import subpot.smoothness as smoothness

        calls = []
        enumerate_ = smoothness.atom_sums
        monkeypatch.setattr(smoothness, "atom_sums", lambda *a: calls.append(a[1:3]) or enumerate_(*a))
        rep = classify_point(self.FAMILY, "7/8", k_max=3)
        assert rep.min_k == 3 and calls == [(3, 0.875)]
        calls.clear()
        delta1 = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]))
        rep = classify_point(delta1, 2.0, k_max=3, measure=True)
        assert calls == [(3, 2.0)]
        assert [j.predicted for j in rep.jumps] == [0.0, 1.0, None]

    @pytest.mark.parametrize("x", ["7/8", "3/4", "1/2", "9/10"])
    def test_family_jumps_measured_within_their_bars(self, x):
        # the grid fit had no room between breakpoints here and printed null;
        # 9/10 = 1/2 + 1/5 + 1/5 sums to one ulp below the float 0.9
        rep = classify_point(self.FAMILY, x, k_max=3, measure=True)
        assert rep.min_k == self.FAMILY_MIN_K[str(float(Fraction(x)))]
        measured = [j for j in rep.jumps if j.order <= rep.min_k]
        assert [j.order for j in measured] == list(range(1, rep.min_k + 1))
        for j in measured:
            assert abs(j.measured - j.predicted) <= j.err_est
            assert j.significant == (j.order == rep.min_k)
        assert measured[-1].predicted > 0

    def test_rational_string_point(self):
        rep = classify_point(self.FAMILY, "7/10", k_max=3)
        assert rep.x == 0.7 and rep.min_k == 2

    def test_conv_jump_at_a_break_one_ulp_below_x(self):
        # the ladder's break 1/2 + 1/5 + 1/5 lies one ulp below the float 0.9
        pred, meas = conv_jump(self.FAMILY, 3, 0.9)
        assert meas == pytest.approx(pred, rel=1e-12)

    @pytest.mark.parametrize("pairs, n, b", [
        ([(0.5, 0.7), (0.8, 1.3)], 2, 1.3),
        ([(1, 1.0)], 3, 3.0),
        ([(1, 1.0), (2, 1.0)], 2, 3.0),
    ])
    def test_conv_jump_killing_leaves_the_jump(self, pairs, n, b):
        pred0, meas0 = conv_jump(LevyModel(drift=1.0, atomic=AtomicPart.from_pairs(pairs)), n, b)
        pred, meas = conv_jump(LevyModel(drift=1.0, q=0.4, atomic=AtomicPart.from_pairs(pairs)), n, b)
        assert pred == pred0
        assert meas == pytest.approx(meas0, abs=1e-10)
        assert meas0 == pytest.approx(pred0, rel=1e-10)
