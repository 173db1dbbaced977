import cmath
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from subpot import (
    AcTail,
    AtomicPart,
    ContourOrderError,
    ConvolutionEngine,
    LevyModel,
    PreconditionError,
    density_integrand,
    derivative_integrand,
    derivative_zero_contour,
    evaluate,
    invert_density,
    invert_derivative_pair,
    model_from_dict,
    tail_transform,
)
from subpot.inversion import contour_epsilon, default_lambda
from conftest import delta1_du, delta1_u, oracles, talbot_du

# model documents of the fixtures, for the 30-digit oracles that read documents
DOCS = {
    "delta1": {"drift": 1.0, "atoms": [{"x": 1, "mass": 1.0}]},
    "mixed_model": {"drift": 1.0, "atoms": [{"x": 1, "mass": 1.0}],
                    "ac": {"kind": "stable", "C": 0.2, "alpha": 0.4}},
    "tempered_model": {"drift": 1.0, "ac": {"kind": "tempered", "C": 1.0, "alpha": 0.5, "b": 1.0}},
    "killed_atom_tempered": {"drift": 1.3, "q": 0.3, "atoms": [{"x": 0.8, "mass": 0.5}],
                             "ac": {"kind": "tempered", "C": 0.7, "alpha": 0.6, "b": 1.5}},
}

# the stable_half fixture, for the oracles only: adding it to DOCS would add it to their batteries
STABLE_HALF_DOC = {"drift": 1.0, "ac": {"kind": "stable", "C": 1.0, "alpha": 0.5}}


def du_oracle(name: str, x: float) -> tuple[float, float]:
    """(u'(x-), u'(x+)): the closed form on the unit atom, Talbot otherwise."""
    if name == "delta1":
        return delta1_du(x), delta1_du(x) + (x == 1.0)
    return talbot_du(DOCS[name], x)


class TestTailTransform:
    def test_atom_value_vs_quadrature(self, delta1):
        oracle, _ = quad(lambda x: math.exp(-x), 0, 1)
        assert tail_transform(delta1, 1.0 + 0j) == pytest.approx(oracle, rel=1e-12)

    def test_stable_value_vs_quadrature(self, stable_half):
        oracle, err = quad(lambda x: math.exp(-x) * x**-0.5, 0, np.inf)
        got = tail_transform(stable_half, 1.0 + 0j)
        assert got.real == pytest.approx(oracle, abs=max(1e-9, 10 * err))
        assert got.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_complex_vs_quadrature(self, tempered_model):
        s = 0.8 + 2.3j
        f = lambda x: (x**-0.5 * math.exp(-x)) * cmath.exp(-s * x)
        re, _ = quad(lambda x: f(x).real, 0, np.inf, limit=400)
        im, _ = quad(lambda x: f(x).imag, 0, np.inf, limit=400)
        assert tail_transform(tempered_model, s) == pytest.approx(re + 1j * im, abs=1e-8)

    def test_decay_to_zero(self, delta1):
        assert abs(tail_transform(delta1, 1e6 + 0j)) < 1e-5

    def test_killing_term(self):
        model = LevyModel(drift=1.0, q=2.0)
        assert tail_transform(model, 4.0 + 0j) == pytest.approx(0.5)

    def test_pole_at_zero(self, delta1):
        with pytest.raises(ZeroDivisionError):
            tail_transform(delta1, 0.0)


class TestIntegrands:
    def test_pure_drift_hand_value(self):
        model = LevyModel(drift=1.0, q=1.0)
        assert density_integrand(model, 1, 1.0 + 0j) == pytest.approx(-0.5)

    def test_hermitian_symmetry(self, mixed_model):
        for theta in (0.3, 2.0, 17.0):
            a = density_integrand(mixed_model, 3, 1.0 + 1j * theta)
            b = density_integrand(mixed_model, 3, 1.0 - 1j * theta)
            assert a == pytest.approx(b.conjugate(), rel=1e-13)

    def test_decay_conformance(self, delta1, stable_half):
        # log-log slope over theta in [10, 1e4] obeys the analytic bound
        for model, N in ((delta1, 3), (stable_half, 4)):
            beta = model.bg_index()
            thetas = np.geomspace(10.0, 1e4, 60)
            mags = np.abs(density_integrand(model, N, 1.0 + 1j * thetas))
            slope = np.polyfit(np.log(thetas), np.log(mags), 1)[0]
            assert slope <= N * (beta + 0.05 - 1.0) - 1.0 + 0.1

    def test_derivative_integrand_one_power_slower(self, delta1):
        thetas = np.geomspace(10.0, 1e4, 50)
        g = np.abs(density_integrand(delta1, 4, 1.0 + 1j * thetas))
        h = np.abs(derivative_integrand(delta1, 4, 1.0 + 1j * thetas))
        assert np.all(h >= g * thetas * 0.49)


class TestInvertDensity:
    def test_delta1_against_closed_form(self, delta1):
        for x in (0.5, 1.5, 2.5, 4.5):
            v, err = invert_density(delta1, x, N=3, lam=1.0, tol=1e-8)
            assert v == pytest.approx(delta1_u(x), abs=1e-7)
            assert abs(v - delta1_u(x)) <= err + 1e-9

    def test_pure_drift(self, pure_drift):
        v, _ = invert_density(pure_drift, 2.0, N=2)
        assert v == pytest.approx(0.5, abs=1e-10)

    def test_agrees_with_the_oracle(self, stable_half):
        v, err = invert_density(stable_half, 1.0, N=4, tol=1e-7)
        assert abs(v - float(oracles.density(STABLE_HALF_DOC, 1.0))) <= err

    def test_n_independence(self, delta1):
        vals = [invert_density(delta1, 2.2, N=n, tol=1e-9)[0] for n in (2, 3, 4)]
        assert max(vals) - min(vals) < 1e-8

    def test_lambda_independence(self, stable_half):
        x = 1.0
        vals = [invert_density(stable_half, x, N=4, lam=lam / x, tol=1e-8)[0] for lam in (0.5, 1.0, 2.0)]
        assert max(vals) - min(vals) < 1e-7

    def test_small_n_budget_error_cites_required(self, stable_half):
        with pytest.raises(ContourOrderError) as exc:
            invert_density(stable_half, 1.0, N=2, tol=1e-8)
        assert exc.value.n_required > 2

    def test_order_errors_name_the_failed_limit(self, stable_half):
        # an integrable order whose truncation point is past the panel budget
        model = LevyModel(drift=1, ac=AcTail.tempered(1, 0.5, 1))
        with pytest.raises(ContourOrderError) as exc:
            invert_density(model, 1.3, N=3, tol=1e-8)
        assert (exc.value.n_given, exc.value.n_required) == (3, 4)
        assert "panels" in str(exc.value) and "integrable" not in str(exc.value)
        # a derivative order whose remainder is not integrable
        with pytest.raises(ContourOrderError) as exc:
            invert_derivative_pair(stable_half, 1.0, N=2)
        assert (exc.value.n_given, exc.value.n_required) == (2, 3)
        assert "integrable derivative integrand" in str(exc.value) and "panels" not in str(exc.value)

    def test_imaginary_part_vanishes(self, delta1):
        # brute two-sided panel integral: the imaginary part cancels
        x, lam, N = 1.3, 1.0, 3
        thetas = np.linspace(-300.0, 300.0, 60001)
        vals = density_integrand(delta1, N, lam + 1j * thetas) * np.exp(1j * thetas * x)
        total = np.trapezoid(vals, thetas)
        assert abs(total.imag) < 1e-8 * (1.0 + abs(total.real))


class TestInvertDerivative:
    def test_delta1_values(self, delta1):
        for x in (0.5, 1.5, 2.5):
            _, v, err = invert_derivative_pair(delta1, x, tol=1e-9)
            assert v == pytest.approx(delta1_du(x), abs=1e-8)

    def test_one_sided_jump_at_atom(self, delta1):
        left, right, _ = invert_derivative_pair(delta1, 1.0, tol=1e-10)
        assert right - left == pytest.approx(1.0, abs=1e-9)
        assert left == pytest.approx(-math.exp(-1.0), abs=1e-8)

    def test_pure_drift_zero(self, pure_drift):
        _, v, _ = invert_derivative_pair(pure_drift, 1.5, N=2)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_order_floor_enforced(self, stable_half):
        with pytest.raises(ContourOrderError) as exc:
            invert_derivative_pair(stable_half, 1.0, N=2)
        assert exc.value.n_required >= 3

    def test_matches_talbot_du(self, stable_half):
        left, right, err = invert_derivative_pair(stable_half, 1.0, tol=1e-7)
        want = talbot_du(STABLE_HALF_DOC, 1.0)
        assert abs(left - want[0]) <= err and abs(right - want[1]) <= err


class TestDerivativePair:
    # (left, right, err) from the earlier code, which ran one contour per side
    # and fitted its truncation constant from probes
    EARLIER = {
        ("delta1", 1.0): (-0.3678794411714388, 0.6321205588285612, 1.2004662052015771e-09),
        ("delta1", 2.5): (0.03379891869412377, 0.03379891869412377, 6.215861954800897e-10),
        ("mixed_model", 1.0): (-0.3010308929146835, 0.6989691070853166, 1.286617451369038e-09),
        ("mixed_model", 2.5): (0.008017505164782612, 0.008017505164782612, 8.793508236382455e-10),
    }

    @pytest.mark.parametrize("name, x", sorted(EARLIER))
    def test_matches_one_sided_calls(self, request, name, x):
        model = request.getfixturevalue(name)
        left, right, err = invert_derivative_pair(model, x)
        # no slack against the oracle; the earlier values within both bars
        want_l, want_r = du_oracle(name, x)
        assert abs(left - want_l) <= err and abs(right - want_r) <= err
        old_l, old_r, old_err = self.EARLIER[(name, x)]
        assert abs(left - old_l) <= err + old_err and abs(right - old_r) <= err + old_err

    def test_jump_is_atom_mass(self, mixed_model):
        left, right, _ = invert_derivative_pair(mixed_model, 1.0)
        assert right - left == pytest.approx(1.0, abs=1e-14)

    def test_abscissa_must_be_positive(self, delta1):
        with pytest.raises(PreconditionError):
            invert_derivative_pair(delta1, 1.0, lam=0.0)

    @pytest.mark.parametrize("call", [invert_density, invert_derivative_pair, evaluate])
    def test_abscissa_must_be_finite(self, delta1, call):
        # x = 2 lies past the unit atom's series radius, so evaluate takes the contour
        with pytest.raises(PreconditionError, match=r"^contour abscissa lam must be a finite number > 0, got inf$"):
            call(delta1, 2.0, lam=math.inf)

    def test_order_floor_at_integer_boundary(self):
        # alpha = 0.7: 4 * (1 - alpha - eps) is 1 up to rounding, so N = 4
        # leaves a non-integrable remainder and the cited order must be 5
        model = LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.7))
        with pytest.raises(ContourOrderError) as exc:
            invert_derivative_pair(model, 1.0, N=4)
        assert exc.value.n_required == 5


def delta1_derivative(x: float, j: int, left: bool):
    """u^(j)(x-) (left) or u^(j)(x+) of the unit atom, summed in mpmath at 30 digits.

    u(x) = sum_k (x-k)^k e^{-(x-k)}/k! over the k < x (k <= x from the right), and
    d^j/dy^j y^k e^{-y}/k! = e^{-y} sum_{i <= min(j, k)} C(j, i) (-1)^(j-i) y^(k-i)/(k-i)!.
    """
    import mpmath

    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for k in range(math.floor(x) + 1):
            y = mpmath.mpf(x) - k
            if y == 0 and left:
                continue
            total += mpmath.exp(-y) * mpmath.fsum(
                mpmath.binomial(j, i) * (-1) ** (j - i) * y ** (k - i) / mpmath.factorial(k - i)
                for i in range(min(j, k) + 1))
        return total


class TestDerivativesOfEveryOrder:
    XS = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_unit_atom_sides_within_their_bars(self, delta1, order):
        # no slack: every side at integer and non-integer x against the closed form
        left, right, err = invert_derivative_pair(delta1, self.XS, tol=1e-9, order=order)
        for x, got_l, got_r, e in zip(self.XS, left, right, err):
            assert abs(got_l - delta1_derivative(x, order, left=True)) <= e, (x, "left")
            assert abs(got_r - delta1_derivative(x, order, left=False)) <= e, (x, "right")

    def test_scalar_x_matches_the_array(self, delta1):
        left, right, err = invert_derivative_pair(delta1, self.XS, order=3)
        assert invert_derivative_pair(delta1, 3.0, order=3) == (left[-1], right[-1], err[-1])

    def test_higher_orders_refused_with_an_ac_part(self, mixed_model):
        with pytest.raises(PreconditionError, match="order 2"):
            invert_derivative_pair(mixed_model, 2.0, order=2)
        with pytest.raises(ValueError, match="order"):
            invert_derivative_pair(mixed_model, 2.0, order=0)


class TestZeroContour:
    def test_delta1_large_x(self, delta1):
        for x in (10.0, 20.0):
            left, right, err = derivative_zero_contour(delta1, x, tol=1e-10)
            assert right == pytest.approx(delta1_du(x + 1e-12), abs=1e-9)
            assert abs(right) < 1e-6 or x < 15

    def test_delta1_x20_below_tolerance(self, delta1):
        _, right, _ = derivative_zero_contour(delta1, 20.0, tol=1e-10)
        assert abs(right) < 1e-6

    @pytest.mark.parametrize("name, x, earlier", [
        ("delta1", 20.0, (-3.157462248302692e-14, -3.157462248302692e-14, 1.2857458788385047e-12)),
        ("tempered_model", 5.0, (-8.795968684971456e-05, -8.795968684971456e-05, 5.4450483322970626e-12)),
    ])
    def test_against_oracle(self, request, name, x, earlier):
        # earlier: (left, right, err) from the former dedicated imaginary-axis routine
        left, right, err = derivative_zero_contour(request.getfixturevalue(name), x, tol=1e-10)
        want_l, want_r = du_oracle(name, x)
        assert abs(left - want_l) <= err and abs(right - want_r) <= err
        assert abs(left - earlier[0]) <= err + earlier[2] and abs(right - earlier[1]) <= err + earlier[2]
        assert err <= 1e-10

    def test_pure_drift_exact_zero(self, pure_drift):
        left, right, _ = derivative_zero_contour(pure_drift, 3.0, N=2)
        assert left == pytest.approx(0.0, abs=1e-12)
        assert right == pytest.approx(0.0, abs=1e-12)

    def test_infinite_mean_rejected(self, stable_half):
        with pytest.raises(PreconditionError):
            derivative_zero_contour(stable_half, 5.0)

    def test_killed_rejected(self):
        model = LevyModel(drift=1.0, q=0.5, atomic=AtomicPart.from_pairs([(1, 1.0)]))
        with pytest.raises(PreconditionError):
            derivative_zero_contour(model, 5.0)

    def test_tempered_decreasing(self, tempered_model):
        vals = []
        for x in (5.0, 10.0, 20.0):
            left, right, _ = derivative_zero_contour(tempered_model, x, tol=1e-10)
            vals.append(max(abs(left), abs(right)))
        assert vals[0] > vals[1] > vals[2]


class TestHonestyBattery:
    """invert_density against the 30-digit oracles, with no additive slack."""

    TOL = 1e-8
    ROWS = [*itertools.product(DOCS, (0.1, 0.5, 1.3, 2.9, 6.0)), ("delta1", 20.0), ("tempered_model", 20.0)]

    @pytest.mark.parametrize("name, x", ROWS)
    def test_error_bar_holds(self, name, x):
        u, err = invert_density(model_from_dict(DOCS[name]), x, N=None, tol=self.TOL)
        assert abs(u - float(oracles.density(DOCS[name], x))) <= err
        assert err <= self.TOL


class TestArrayX:
    """One contour for a whole array of x: one lam = default_lambda(max x), N, Theta and panel set."""

    TOL = 1e-8
    # x << x_max, where lam = 1/x_max is far from the scalar default 1/x; the
    # killed model stops at 6 (a scalar call at x = 20 fails there as well)
    GRIDS = [(name, x_max) for name in DOCS for x_max in (6.0, 20.0)
             if (name, x_max) != ("killed_atom_tempered", 20.0)]

    @staticmethod
    def xs(x_max):
        return np.array([0.02, 0.1, 0.5, 1.0, 1.3, 2.9, x_max])

    @pytest.mark.parametrize("name, x_max", GRIDS)
    def test_error_bars_hold_without_slack(self, name, x_max):
        model, xs = model_from_dict(DOCS[name]), self.xs(x_max)
        u, err = invert_density(model, xs, N=None, tol=self.TOL)
        left, right, d_err = invert_derivative_pair(model, xs, tol=self.TOL)
        for k, x in enumerate(xs.tolist()):
            assert abs(u[k] - float(oracles.density(DOCS[name], x))) <= err[k] <= self.TOL
            want_l, want_r = du_oracle(name, x)
            assert max(abs(left[k] - want_l), abs(right[k] - want_r)) <= d_err[k] <= self.TOL

    @pytest.mark.parametrize("name", DOCS)
    def test_agrees_with_scalar_calls(self, name):
        model, xs = model_from_dict(DOCS[name]), self.xs(6.0)
        u, err = invert_density(model, xs, N=None, tol=self.TOL)
        left, right, d_err = invert_derivative_pair(model, xs, tol=self.TOL)
        for k, x in enumerate(xs.tolist()):
            one, one_err = invert_density(model, x, N=None, tol=self.TOL)
            assert isinstance(one, float) and abs(u[k] - one) <= err[k] + one_err
            one_l, one_r, one_err = invert_derivative_pair(model, x, tol=self.TOL)
            assert max(abs(left[k] - one_l), abs(right[k] - one_r)) <= d_err[k] + one_err

    def test_points_do_not_grow_with_the_number_of_x(self, mixed_model, monkeypatch):
        import subpot.inversion as inversion

        sizes = []
        for fn in ("density_integrand", "derivative_integrand"):
            orig = getattr(inversion, fn)
            monkeypatch.setattr(inversion, fn, lambda m, n, s, f=orig: sizes.append(np.size(s)) or f(m, n, s))
        counts = []
        for n_x in (1, 8, 32):
            xs = np.linspace(2.9, 0.1, n_x)  # the same largest x, 2.9, every time
            sizes.clear()
            invert_density(mixed_model, xs, N=None, tol=1e-7)
            invert_derivative_pair(mixed_model, xs, tol=1e-7)
            assert len(sizes) == 2
            counts.append(list(sizes))
        assert counts[0] == counts[1] == counts[2] and min(counts[0]) > 0

    @pytest.mark.parametrize("name", ["delta1", "mixed_model"])
    def test_values_do_not_depend_on_the_chunks_of_x(self, request, name, monkeypatch):
        import subpot.inversion as inversion

        model = request.getfixturevalue(name)
        xs = np.linspace(0.05, 6.0, 200)
        want = invert_density(model, xs), invert_derivative_pair(model, xs)
        # a contiguous copy; a reversed view is test_a_reversed_view_gives_the_reversed_result's
        backwards = np.ascontiguousarray(xs[::-1])
        for cap in (1, 2**20):
            monkeypatch.setattr(inversion, "_CHUNK_ENTRIES", cap)
            for x, order in ((xs, slice(None)), (backwards, slice(None, None, -1))):
                got = invert_density(model, x), invert_derivative_pair(model, x)
                for w, g in zip(itertools.chain(*want), itertools.chain(*got)):
                    assert w.tolist() == g[order].tolist(), (cap, x[0])

    def test_a_reversed_view_gives_the_reversed_result(self, mixed_model):
        # each entry point takes x contiguous, so the stable tail's np.power runs numpy's SIMD
        # pow on a strided view too, not libm's pow; with the view passed through, 12 of these
        # 200 values of power(1, x) and 2 of the pair's differed in their last bits
        xs = np.linspace(0.05, 6.0, 200)
        engine = ConvolutionEngine(mixed_model, 6.0)
        for call in (lambda x: (engine.power(1, x),), lambda x: invert_derivative_pair(mixed_model, x),
                     lambda x: evaluate(mixed_model, x)):
            for want, got in zip(call(xs), call(xs[::-1])):
                assert want[::-1].tobytes() == got.tobytes()

    def test_memory_of_many_x_on_a_long_contour(self, stable_half):
        # about 36 000 panels, whose integrand blocks alone peak near 5 MB (tracemalloc): 2000 x
        # with the same largest x add their phase tables (1 MB) and chunks of at most
        # _CHUNK_ENTRIES (x, panel) pairs; one x at a time added 1.5 MB, every x at once 390 MB
        import tracemalloc

        xs = np.linspace(0.05, 20.0, 2000)
        invert_density(stable_half, xs[:3])  # imports and caches outside the measurement
        peaks = []
        for x in (xs[-3:], xs):
            tracemalloc.start()
            try:
                invert_density(stable_half, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2e6

    def test_shapes_and_validation(self, delta1):
        u, err = invert_density(delta1, [0.5, 1.5], N=3)
        assert u.shape == err.shape == (2,)
        left, right, d_err = derivative_zero_contour(delta1, np.array([10.0, 20.0]), tol=1e-10)
        assert left.shape == right.shape == d_err.shape == (2,)
        for bad in ([], [0.5, 0.0], [0.5, math.nan], [[0.5]]):
            with pytest.raises(ValueError):
                invert_density(delta1, bad)


class TestOrderChoice:
    """N=None takes the cheapest order predicted to meet tol, counted in integrand points, not timed.

    EARLIER_* come from the order scan this replaced, which took the first
    order whose contour fitted 30 000 panels.
    """

    XS = np.linspace(0.1, 2.9, 8)  # contour-mc's grid, tol 1e-7; the fixtures sit in its model box
    # (model, quantity): (earlier order, its integrand points)
    EARLIER_POINTS = {("delta1", "density"): (2, 98505), ("delta1", "pair"): (3, 128730),
                      ("mixed_model", "density"): (3, 30390), ("mixed_model", "pair"): (4, 124065)}
    # (model document, x, tol, earlier err_est rounded down where above tol, density then pair)
    BATTERY = {
        "reciprocal family": (
            {"drift": 2.0, "atom_family": {"kind": "reciprocal-integers", "cap": 8,
                                           "masses": [j**-1.25 for j in range(1, 9)]}},
            np.linspace(0.1, 2.0, 8), 1e-8, (None, None)),
        "atom + tempered + killing": (DOCS["killed_atom_tempered"], TestArrayX.xs(6.0), 1e-8, (None, None)),
        "stable 0.7": (
            {"drift": 1.0, "ac": {"kind": "stable", "C": 1.0, "alpha": 0.7}}, np.linspace(0.2, 3.0, 6), 1e-8,
            ([1.40e-8, 1.89e-8, 2.56e-8, 3.41e-8, 4.47e-8, 5.76e-8],
             [4.21e-6, 5.61e-6, 7.56e-6, 1.01e-5, 1.35e-5, 1.77e-5])),
        "tempered 0.7 + killing": (
            {"drift": 1.0, "q": 0.2, "ac": {"kind": "tempered", "C": 1.0, "alpha": 0.7, "b": 2.0}},
            np.linspace(0.1, 2.0, 8), 1e-8,
            (None, [1.17e-8, 1.63e-8, 2.12e-8, 2.57e-8, 2.98e-8, 3.35e-8, 3.72e-8, 4.09e-8])),
    }

    @staticmethod
    def points(monkeypatch, call):
        import subpot.inversion as inversion

        sizes = []
        for fn in ("density_integrand", "derivative_integrand"):
            orig = getattr(inversion, fn)
            monkeypatch.setattr(inversion, fn, lambda m, n, s, f=orig: sizes.append(np.size(s)) or f(m, n, s))
        call()
        return sum(sizes)

    def calls(self, model, N=None):
        return {"density": lambda: invert_density(model, self.XS, N=N, tol=1e-7),
                "pair": lambda: invert_derivative_pair(model, self.XS, N=N, tol=1e-7)}

    def test_a_tenth_of_the_earlier_points(self, request, monkeypatch):
        got = {}
        for (name, quantity), (n_earlier, earlier) in self.EARLIER_POINTS.items():
            model = request.getfixturevalue(name)
            # an explicit N keeps its truncation point and panels
            assert self.points(monkeypatch, self.calls(model, n_earlier)[quantity]) == earlier
            got[name, quantity] = self.points(monkeypatch, self.calls(model)[quantity])
        for key in ("delta1", "mixed_model", "density", "pair"):
            now = sum(v for k, v in got.items() if key in k)
            assert now <= sum(v[1] for k, v in self.EARLIER_POINTS.items() if key in k) / 10

    @pytest.mark.parametrize("name", BATTERY)
    def test_err_est_no_worse_than_earlier(self, name):
        doc, xs, tol, earlier = self.BATTERY[name]
        model = model_from_dict(doc)
        errs = (invert_density(model, xs, N=None, tol=tol)[1], invert_derivative_pair(model, xs, tol=tol)[2])
        for err, old in zip(errs, earlier):
            assert np.all(err <= np.maximum(tol, 0.0 if old is None else np.array(old)))


class TestKilledAtomTemperedFarOut:
    """x = 20 on the atom + tempered + killing model, whose cross-term cells
    once included one that split into itself without end (RecursionError)."""

    def test_density_at_x20(self):
        doc = DOCS["killed_atom_tempered"]
        u, err = invert_density(model_from_dict(doc), 20.0, N=None, tol=1e-8)
        assert math.isfinite(u) and abs(u - float(oracles.density(doc, 20.0))) <= err <= 1e-8


class TestDefaults:
    def test_epsilon_rule(self):
        assert contour_epsilon(0.0) == 0.05
        assert contour_epsilon(0.9) == pytest.approx(0.025)

    def test_lambda_heuristic_clipped(self):
        assert default_lambda(0.5) == 2.0
        assert default_lambda(1e-6) == 10.0
        assert default_lambda(1e6) == 1e-3
