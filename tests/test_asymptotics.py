import math

import numpy as np
import pytest

from subpot import (
    AcTail,
    AtomicPart,
    LevyModel,
    PreconditionError,
    check_du_infinity,
    check_du_zero,
    check_linear_zero,
    check_zero_series,
    u_series,
)
from subpot.asymptotics import minimal_tail_order
from subpot.convolve import ConvolutionEngine
from subpot.model import Side

ATOM_TEMPERED_KILLED = LevyModel(drift=1.0, q=0.3, atomic=AtomicPart.from_pairs([(0.5, 0.7)]),
                                 ac=AcTail.tempered(0.4, 0.3, 1.5))


def _zero_series_ratios(model, n, xs):
    """The remainder/term ratios as a loop over the points, one order at a time."""
    engine = ConvolutionEngine(model, float(xs.max()))
    delta, out = model.drift, []
    for x in xs.tolist():
        t_first = engine.running(n + 1, x) / delta ** (n + 2)
        total = 0.0
        for k in range(n + 1, n + 202):
            term = engine.running(k, x) / delta ** (k + 1)
            total += (-1.0) ** (k - n - 1) * term
            if term < 1e-14 * t_first:
                break
        out.append(abs(total) / t_first)
    return np.array(out)


class TestZeroSeries:
    def test_delta1_first_order(self, delta1):
        # (1 - e^{-x})/x -> 1 restated as remainder/term ratio
        check = check_zero_series(delta1, 0)
        assert check.passed
        assert check.ratio[-1] == pytest.approx(1.0, abs=1e-3)

    def test_delta1_higher_order(self, delta1):
        check = check_zero_series(delta1, 2)
        assert check.passed

    def test_stable_leading_term(self, stable_half):
        check = check_zero_series(stable_half, 0)
        assert check.passed
        # Taylor oracle: remainder/term = 1 - (pi/2) sqrt(x) + O(x)
        x = check.xs[-1]
        assert check.ratio[-1] == pytest.approx(1.0 - math.pi / 2.0 * math.sqrt(x), abs=0.01)

    def test_pure_drift_degenerate(self, pure_drift):
        check = check_zero_series(pure_drift, 0)
        assert check.passed and check.degenerate

    def test_grid_validation(self, delta1):
        with pytest.raises(ValueError):
            check_zero_series(delta1, 0, x_grid=np.array([0.1, 0.2, 0.3, 0.4]))

    @pytest.mark.parametrize("name", ["delta1", "stable_half", "atom_tempered_killed"])
    @pytest.mark.parametrize("n", [0, 2])
    def test_ratios_bit_equal_to_pointwise(self, request, name, n):
        model = ATOM_TEMPERED_KILLED if name == "atom_tempered_killed" else request.getfixturevalue(name)
        check = check_zero_series(model, n)
        assert np.array_equal(check.ratio, _zero_series_ratios(model, n, check.xs))

    @pytest.mark.parametrize("n, grid, message", [
        (0, [0.8, 0.6, 0.4, 0.2], "x=0.8 outside the series radius"),
        (30, [0.1, 1e-9, 1e-10, 1e-11], "denominator underflow at x=1e-09"),
    ])
    def test_first_offending_x_is_cited(self, delta1, n, grid, message):
        with pytest.raises(PreconditionError, match=message):
            check_zero_series(delta1, n, x_grid=np.array(grid))


class TestLinearZero:
    def test_delta1_slope(self, delta1):
        check = check_linear_zero(delta1)
        assert check.passed
        assert check.fitted_slope == pytest.approx(-1.0, rel=0.01)

    def test_killed_pure_drift_slope(self):
        model = LevyModel(drift=1.0, q=1.0)
        check = check_linear_zero(model)
        assert check.passed
        assert check.fitted_slope == pytest.approx(-1.0, rel=0.01)

    def test_scaled_target(self):
        model = LevyModel(drift=2.0, q=0.5, atomic=AtomicPart.from_pairs([(0.7, 1.5)]))
        check = check_linear_zero(model)
        assert check.passed
        assert check.fitted_slope == pytest.approx(-(1.5 + 0.5) / 4.0, rel=0.02)

    def test_infinite_measure_flagged_superlinear(self, stable_half):
        check = check_linear_zero(stable_half)
        assert check.passed
        assert "diverges" in check.notes


class TestDuZero:
    def test_minimal_order_strict_at_boundary(self):
        assert minimal_tail_order(0.0) == 1
        assert minimal_tail_order(0.3) == 1
        assert minimal_tail_order(0.5) == 2
        assert minimal_tail_order(2.0 / 3.0) == 3

    def test_stable_small_alpha_ratio(self):
        model = LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.3))
        check = check_du_zero(model)
        assert check.passed
        i = int(np.argmin(np.abs(check.xs - 1e-3)))
        assert 0.9 <= check.ratio[i] <= 1.1

    def test_delta1_limit(self, delta1):
        # u'(x) -> -1 = -(q + tail(0+))/drift^2
        check = check_du_zero(delta1)
        assert check.passed
        assert check.lhs[-1] == pytest.approx(-1.0, abs=0.01)

    def test_boundary_alpha_half_needs_two_terms(self, stable_half):
        check = check_du_zero(stable_half)
        assert check.passed
        assert "n=2" in check.notes

    @pytest.mark.parametrize("name", ["delta1", "stable_half", "atom_tempered_killed"])
    def test_ratio_bit_equal_to_pointwise_leading_term(self, request, name):
        model = ATOM_TEMPERED_KILLED if name == "atom_tempered_killed" else request.getfixturevalue(name)
        check = check_du_zero(model)
        leading = np.array([model.q + model.tail(x, Side.RIGHT) for x in check.xs.tolist()]) / model.drift**2
        assert np.array_equal(check.ratio, check.lhs / (-leading))


class TestDuInfinity:
    def test_delta1(self, delta1):
        check = check_du_infinity(delta1, x_grid=np.array([10.0, 20.0, 40.0]))
        assert check.passed
        assert check.lhs[-1] < 1e-6

    def test_pure_drift_exact_zero(self, pure_drift):
        check = check_du_infinity(pure_drift, x_grid=np.array([5.0, 10.0, 20.0]))
        assert check.passed
        assert np.max(check.lhs) < 1e-12

    def test_infinite_mean_rejected(self, stable_half):
        with pytest.raises(PreconditionError):
            check_du_infinity(stable_half)

    def test_killed_rejected(self):
        with pytest.raises(PreconditionError):
            check_du_infinity(LevyModel(drift=1.0, q=0.2))

    def test_tempered_decreasing(self, tempered_model):
        check = check_du_infinity(tempered_model, x_grid=np.array([5.0, 10.0, 20.0, 40.0]))
        assert check.passed
        assert np.all(np.diff(check.lhs) < 0)


class TestClassicalLimits:
    def test_value_near_zero_for_finite_measures(self, delta1):
        # finite-activity models reach 1/drift at 1e-4 within 1e-3
        v, _, _ = u_series(delta1, 1e-4)
        assert abs(v - 1.0) < 1e-3

    def test_value_near_zero_stable_leading_term(self, stable_half):
        # AC tails approach like C x^{1-a}/(d^2 (1-a)): test against that law
        x = 1e-4
        v, _, _ = u_series(stable_half, x)
        assert 1.0 - v == pytest.approx(2.0 * math.sqrt(x), rel=0.02)

    def test_long_run_value(self, delta1, delta1_grid):
        # u(x) E[X_1] -> 1
        from subpot import u_volterra

        grid = u_volterra(delta1, 45.0)
        assert grid(42.0) * delta1.mean() == pytest.approx(1.0, abs=0.02)
