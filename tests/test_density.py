import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpot import (
    AccuracyFailureError,
    AcTail,
    AtomicPart,
    ConvolutionEngine,
    LevyModel,
    PreconditionError,
    SeriesRadiusError,
    bv_split,
    evaluate,
    invert_density,
    invert_derivative_pair,
    atom_sums,
    laplace_crosscheck,
    model_from_dict,
    series_radius,
    u_series,
)
from subpot import convolve, density
from conftest import delta1_u, oracles, random_atomic_model


UNIT_ATOM = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]))
TWO_ATOMS_KILLED = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)]))
TEMPERED_ATOM_KILLED = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                                 ac=AcTail.tempered(0.7, 0.6, 1.5))
ATOM_STABLE = LevyModel(drift=1.4, atomic=AtomicPart.from_pairs([(0.7, 0.6)]), ac=AcTail.stable(0.3, 0.5))
KILLED_DRIFT = LevyModel(drift=1.0, q=1.0)
# an atom at 0.003: the first cells of u are far shorter than the series radius (about 0.994)
SHORT_ATOM = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.003, 1.0), (1.0, 0.5)]))


class TestSeries:
    def test_delta1_value(self, delta1):
        v, err, terms = u_series(delta1, 0.5, tol=1e-10)
        assert v == pytest.approx(math.exp(-0.5), abs=1e-9)
        assert err < 1e-10
        assert abs(v - math.exp(-0.5)) <= err + 1e-12

    def test_limit_at_zero(self, delta1, stable_half):
        v, _, _ = u_series(delta1, 1e-8)
        assert v == pytest.approx(1.0, abs=1e-6)
        # the stable density leaves 1/drift like 2*C*sqrt(x): slower approach
        v, _, _ = u_series(stable_half, 1e-8)
        assert v == pytest.approx(1.0, abs=3e-4)
        assert 1.0 - v == pytest.approx(2.0 * math.sqrt(1e-8), rel=1e-3)

    def test_pure_drift_single_term(self, pure_drift):
        v, err, terms = u_series(pure_drift, 3.0)
        assert v == 0.5
        assert terms == 1
        assert err == 0.0

    def test_radius_gate(self, delta1):
        with pytest.raises(SeriesRadiusError):
            u_series(delta1, 0.9)

    def test_radius_location(self, delta1):
        assert series_radius(delta1, 5.0) == pytest.approx(0.5, abs=1e-9)

    @staticmethod
    def scalar_radius(engine, x_max):
        """The radius search as 80 scalar bisection steps, one mass_scale call each."""
        if engine.mass_scale(x_max) <= 0.5:
            return x_max
        lo, hi = 0.0, x_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if engine.mass_scale(mid) <= 0.5:
                lo = mid
            else:
                hi = mid
        return lo

    RADIUS_MODELS = {
        "unit-atom": LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)])),
        # q = 0: m stops at 0.44999999999999996 past x = 0.6, so the search returns x_max at once
        "flat-atoms": LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.3, 0.5), (0.6, 0.5)])),
        "stable": LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.5)),
        # the radius is about 1e-13: 80 steps end well short of one ulp of it
        "stable-0.9": LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.9)),
        "tempered-killed": LevyModel(drift=1.3, q=0.3, ac=AcTail.tempered(0.7, 0.6, 1.5)),
        "atom-stable": LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)),
    }

    @pytest.mark.parametrize("model", RADIUS_MODELS)
    def test_radius_equals_the_scalar_bisection(self, model):
        # the search runs as array passes over subtrees of midpoints; it must land on the
        # scalar loop's float, also where m(x_max) <= 1/2 returns x_max at once (x_max 0.05)
        model = self.RADIUS_MODELS[model]
        for x_max in (0.05, 3.0):
            engine = ConvolutionEngine(model, x_max)
            want = self.scalar_radius(engine, x_max)
            assert series_radius(model, x_max, engine) == want
            assert series_radius(model, x_max) == want

    def test_killed_pure_drift(self):
        model = LevyModel(drift=1.0, q=1.0)
        v, _, _ = u_series(model, 0.4, tol=1e-12)
        assert v == pytest.approx(math.exp(-0.4), rel=1e-10)


class TestCrossTermRouting:
    KILLED_STABLE = LevyModel(drift=1.0, q=0.3, ac=AcTail.stable(0.5, 0.5))
    KILLED_TEMPERED = LevyModel(drift=1.3, q=0.3, ac=AcTail.tempered(0.7, 0.6, 1.5))
    ATOM_TEMPERED_KILLED = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                                     ac=AcTail.tempered(0.7, 0.6, 1.5))

    @pytest.fixture
    def far_cell_calls(self, monkeypatch):
        calls = []
        quadrature = ConvolutionEngine._far_cells

        def spy(engine, *args):
            calls.append(args)
            return quadrature(engine, *args)

        monkeypatch.setattr(ConvolutionEngine, "_far_cells", spy)
        return calls

    def test_atom_free_models_never_enter_the_quadrature(self, far_cell_calls):
        for model in (self.KILLED_STABLE, self.KILLED_TEMPERED):
            u_series(model, np.array([0.01, 0.05]))
        assert far_cell_calls == []

    def test_atoms_with_a_tail_use_it_past_the_atom(self, far_cell_calls):
        engine = ConvolutionEngine(self.ATOM_TEMPERED_KILLED, 2.0)
        engine.running(3, 0.5)
        assert far_cell_calls == []  # below the atom the closed-form cell is all of [0, x]
        engine.running(3, 1.7)
        assert far_cell_calls

    def test_non_finite_series_value_raises(self, monkeypatch):
        monkeypatch.setattr(convolve, "_hyp1f1_neg", lambda a, c, z: np.full(np.shape(z), np.nan))
        for x in (0.05, np.array([0.01, 0.05])):
            with pytest.raises(AccuracyFailureError):
                u_series(self.KILLED_TEMPERED, x)


class TestBvSplit:
    def test_pure_drift(self, pure_drift):
        split = bv_split(pure_drift, 3.0)
        assert np.allclose(split.u1, 0.5)
        assert np.allclose(split.u2, 0.0)

    def test_delta1_exponential_identity(self, delta1):
        split = bv_split(delta1, 0.5, tol=1e-10)
        assert np.max(np.abs(split.reconstruction() - np.exp(-split.nodes))) < 1e-9
        # cosh/sinh partial sums
        assert np.all(np.diff(split.u1) >= -1e-12)
        assert np.all(np.diff(split.u2) >= -1e-12)

    def test_beyond_radius_extension(self, delta1):
        split = bv_split(delta1, 3.0, tol=1e-8)
        want = np.array([delta1_u(x) for x in split.nodes])
        assert np.max(np.abs(split.reconstruction() - want)) < 1e-6
        assert np.all(np.diff(split.u1) >= -1e-12)
        assert np.all(np.diff(split.u2) >= -1e-12)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12, 1e-16, 1e-100])
    def test_term_count_from_the_geometric_bound(self, delta1, tol):
        # orders 0..n with n the smallest >= 1 where m^(n+1)/(drift (1 - m)) < tol
        m, n = ConvolutionEngine(delta1, 0.4).mass_scale(0.4), 1
        while m ** (n + 1) / (1.0 - m) >= tol:
            n += 1
        assert bv_split(delta1, 0.4, tol=tol, n_nodes=5).terms_used == n + 1

    def test_uncertifiable_tol_raises(self, delta1):
        # 0.4^401 / 0.6 is about 1e-160: no 400-term sum meets 1e-300
        with pytest.raises(AccuracyFailureError, match="truncation"):
            bv_split(delta1, 0.4, tol=1e-300)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_monotone_on_random_models(self, seed):
        rng = np.random.default_rng(seed)
        model = random_atomic_model(rng)
        x_max = series_radius(model, 3.0)
        split = bv_split(model, min(x_max, 2.0), tol=1e-8, n_nodes=60)
        assert np.all(np.diff(split.u1) >= -1e-10)
        assert np.all(np.diff(split.u2) >= -1e-10)


class TestCrosscheck:
    def test_delta1_lambda3(self, delta1):
        res = laplace_crosscheck(delta1, 3.0, tol=1e-6)
        assert res.rhs == pytest.approx(1.0 / (4.0 - math.exp(-3.0)), rel=1e-12)
        assert res.abs_diff < 1e-6

    def test_pure_drift_identity(self, pure_drift):
        res = laplace_crosscheck(pure_drift, 2.0, tol=1e-6)
        assert res.rhs == pytest.approx(1.0 / (2.0 * 2.0))
        assert res.abs_diff < 1e-6

    def test_killed_pure_drift(self):
        model = LevyModel(drift=1.0, q=1.0)
        res = laplace_crosscheck(model, 1.0, tol=1e-6)
        assert res.rhs == pytest.approx(0.5)
        assert res.abs_diff < 1e-6

    def test_stable_all_lambdas(self, stable_half):
        for lam in (1.0, 3.0, 10.0):
            res = laplace_crosscheck(stable_half, lam, tol=1e-5)
            assert res.abs_diff < 1e-5

    def test_killed_atomic(self):
        model = LevyModel(drift=1.0, q=0.5, atomic=AtomicPart.from_pairs([(1, 1.0)]))
        res = laplace_crosscheck(model, 2.0, tol=1e-6)
        assert res.abs_diff < 1e-6

    def test_array_of_lambdas_from_one_evaluate(self, delta1, monkeypatch):
        # the range the smallest lambda needs serves them all, from one evaluate
        # call, and lambda = 1 alone evaluates the same points
        calls, call = [], density.evaluate
        monkeypatch.setattr(density, "evaluate", lambda *a, **k: calls.append(a[1].size) or call(*a, **k))
        rows = laplace_crosscheck(delta1, np.array([3.0, 1.0, 10.0]), tol=1e-6)
        alone = laplace_crosscheck(delta1, 1.0, tol=1e-6)
        assert [r.lam for r in rows] == [3.0, 1.0, 10.0]
        assert rows[1] == alone
        assert len(calls) == 2 and calls[0] == calls[1]
        for bad in ([], [1.0, -1.0], [1.0, math.nan], [[1.0]]):
            with pytest.raises(ValueError, match=r"^lam must be "):
                laplace_crosscheck(delta1, bad)
        # x_max stops at 1e4, where lambda = 1e-4 leaves a tail bound of 1/(e lambda)
        with pytest.raises(PreconditionError, match=r"^tail bound 3\.679e\+03 exceeds tolerance at lam=0\.0001"):
            laplace_crosscheck(delta1, [1.0, 1e-4])
        assert len(calls) == 2

    # a mutant that divides lhs_err by 1000 fails at lambda 3 on mixed and on
    # atom + tempered + killing
    HONESTY = {
        "unit atom": UNIT_ATOM,
        "mixed": LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)),
        "stable half": LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.5)),
        "atom + tempered + killing": TEMPERED_ATOM_KILLED,
    }

    @pytest.mark.parametrize("name", HONESTY)
    def test_no_slack_honesty(self, name):
        for row in laplace_crosscheck(self.HONESTY[name], np.array([1.0, 3.0, 10.0]), tol=1e-6):
            assert row.abs_diff <= row.tail_bound + row.lhs_err, f"lam {row.lam}"

    # the same check on atoms in pairs, a stable tail beside an atom, killing
    # alone, an atom shorter than the first unit cell and atom-free tails
    MORE_MODELS = {
        "two atoms killed": TWO_ATOMS_KILLED,
        "atom stable": ATOM_STABLE,
        "killed drift": KILLED_DRIFT,
        "short atom": SHORT_ATOM,
        "tempered": LevyModel(drift=1.0, ac=AcTail.tempered(1.0, 0.5, 1.0)),
        "killed stable": LevyModel(drift=1.0, q=0.3, ac=AcTail.stable(0.5, 0.5)),
    }

    @pytest.mark.parametrize("name", MORE_MODELS)
    def test_no_slack_honesty_on_more_models(self, name):
        for row in laplace_crosscheck(self.MORE_MODELS[name], np.array([1.0, 3.0, 10.0]), tol=1e-6):
            assert row.abs_diff <= row.tail_bound + row.lhs_err, f"lam {row.lam}"
            assert row.abs_diff < 1e-6

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_within_tol_at_every_tol(self, delta1, tol):
        # x_max grows with log(1/tol) and evaluate runs at tol/100: the rows
        # stay within tol and honest as tol tightens
        row = laplace_crosscheck(delta1, 3.0, tol=tol)
        assert row.tail_bound <= tol and row.lhs_err <= tol / 100
        assert row.abs_diff <= min(tol, row.tail_bound + row.lhs_err)

    def test_cells(self):
        # breaks at every atom sum of order <= 3 below x_max, cells at most 1
        # wide, and the first cell halved 24 times toward 0
        edges = density._cells(TWO_ATOMS_KILLED, 4.5)
        sums = [a + b + c for a in (0.0, 0.6, 1.4) for b in (0.0, 0.6, 1.4) for c in (0.0, 0.6, 1.4)]
        assert all(np.min(np.abs(edges - v)) <= 1e-12 for v in sums if 0 < v < 4.5)
        assert edges[0] == 0.0 and edges[-1] == 4.5
        assert np.all(np.diff(edges[25:]) <= 1.0) and np.all(np.diff(edges) > 0)
        assert edges[1:26].tolist() == (edges[25] * 0.5 ** np.arange(24, -1, -1)).tolist()
        # an atom-free model: only the ends, cut into three equal cells
        edges = density._cells(LevyModel(drift=1.0, q=1.0), 2.5)
        assert edges.size == 28 and edges[25:].tolist() == np.linspace(0.0, 2.5, 4)[1:].tolist()


class TestSeriesArrays:
    # kernel mass 0.4: m(5e-324) underflows to exactly 0, the m = 0 case at x > 0
    LIGHT = LevyModel(drift=1.1, q=0.1, atomic=AtomicPart.from_pairs([(0.9, 0.3)]))

    @pytest.mark.parametrize("model, xs", [
        (LIGHT, [0.0, 5e-324, 1e-6, 0.3, 1.2, 0.0, 0.9]),
        (UNIT_ATOM, [0.45, 0.0, 0.01, 1e-9, 0.2]),
        (TEMPERED_ATOM_KILLED, [0.0, 1e-7, 0.004, 0.02, 1e-3]),
        (LevyModel(drift=2.0), [0.0, 1.0, 3.0]),
    ])
    def test_equals_scalar_calls(self, model, xs):
        engine = ConvolutionEngine(model, 1.5)
        scalar = [u_series(model, x, tol=1e-12, engine=engine) for x in xs]
        value, bound, terms = u_series(model, np.array(xs), tol=1e-12, engine=engine)
        assert value.tolist() == [s[0] for s in scalar]
        assert bound.tolist() == [s[1] for s in scalar]
        assert terms == sum(s[2] for s in scalar)
        if model.total_mass() > 0:
            assert len({s[2] for s in scalar if s[2] > 1}) >= 2  # several truncation orders
        if model is self.LIGHT:
            assert engine.mass_scale(5e-324) == 0.0

    def test_without_engine(self):
        xs = np.array([0.0, 0.1, 0.3])
        value, bound, _ = u_series(UNIT_ATOM, xs)
        assert value.tolist() == [u_series(UNIT_ATOM, float(x))[0] for x in xs]
        assert bound.tolist() == [u_series(UNIT_ATOM, float(x))[1] for x in xs]
        value, _, terms = u_series(UNIT_ATOM, np.zeros(3))
        assert value.tolist() == [1.0] * 3 and terms == 3

    def test_one_point_outside_radius(self):
        with pytest.raises(SeriesRadiusError):
            u_series(UNIT_ATOM, np.array([0.1, 0.2, 0.9, 0.3]))

    def test_nan_in_array(self):
        with pytest.raises(ValueError):
            u_series(UNIT_ATOM, np.array([0.1, math.nan, 0.3]))
        with pytest.raises(ValueError):
            u_series(UNIT_ATOM, np.array([0.1, -0.2]))

class TestEvaluate:
    # the unit atom's series radius is 1/2, so these points take both routes
    XS = np.linspace(0.05, 6.0, 60)

    def test_series_inside_the_radius_and_the_contour_beyond(self, delta1):
        u, err, method, du_l, du_r, du_err = evaluate(delta1, self.XS)
        engine = ConvolutionEngine(delta1, 6.0)
        series = engine.mass_scale(self.XS) <= 0.5
        assert 0 < series.sum() < series.size
        assert method.tolist() == np.where(series, "series", "inversion").tolist()
        want_u, want_err, _ = u_series(delta1, self.XS[series], tol=1e-7, engine=engine)
        assert u[series].tolist() == want_u.tolist() and err[series].tolist() == want_err.tolist()
        want_u, want_err = invert_density(delta1, self.XS[~series], tol=1e-7, engine=engine)
        assert u[~series].tolist() == want_u.tolist() and err[~series].tolist() == want_err.tolist()
        pair = invert_derivative_pair(delta1, self.XS, tol=1e-7, engine=engine)
        assert [v.tolist() for v in (du_l, du_r, du_err)] == [v.tolist() for v in pair]

    def test_forced_series_past_the_radius_raises(self, delta1):
        with pytest.raises(SeriesRadiusError):
            evaluate(delta1, self.XS, route="series")

    def test_without_derivatives(self, delta1):
        u, err, method, *du = evaluate(delta1, [0.3, 2.0], derivatives=False)
        assert du == [None, None, None]
        assert method.tolist() == ["series", "inversion"]

    def test_unknown_route_raises(self, delta1):
        with pytest.raises(ValueError, match="route"):
            evaluate(delta1, 1.0, route="volterra")

    @pytest.mark.parametrize("x", [[math.nan], [-1.0], [0.0], [], [0.0, 2.0], [math.inf], [[1.0]]])
    def test_bad_x_is_named_before_the_engine(self, delta1, monkeypatch, x):
        monkeypatch.setattr(density, "ConvolutionEngine", None)  # any engine call would raise TypeError
        with pytest.raises(ValueError, match=r"^x must be a (number|finite number > 0)"):
            evaluate(delta1, x)

    def test_x_zero_is_the_first_series_term_without_derivatives(self, delta1, monkeypatch):
        want = evaluate(delta1, [2.0], derivatives=False)
        u, err, method, *du = evaluate(delta1, [0.0, 2.0], derivatives=False)
        assert du == [None, None, None]
        assert (u.tolist(), err.tolist(), method.tolist()) == (
            [1.0, *want[0].tolist()], [0.0, *want[1].tolist()], ["series", "inversion"])
        monkeypatch.setattr(density, "ConvolutionEngine", None)  # all x = 0 needs no engine
        u, err, method, *_ = evaluate(delta1, [0.0, 0.0], derivatives=False)
        assert (u.tolist(), err.tolist(), method.tolist()) == ([1.0, 1.0], [0.0, 0.0], ["series", "series"])
        with pytest.raises(ValueError, match=r"^x must be a finite number >= 0, got -1.0"):
            evaluate(delta1, [0.0, -1.0], derivatives=False)


class TestSeriesRule:
    """On the unit atom m(x) = x, so the rule m(x) <= 1/2 holds up to x = 0.5 exactly."""

    EDGE, PAST = 0.5, float(np.nextafter(0.5, 1.0))

    def test_every_entry_point_draws_the_same_line(self, delta1, monkeypatch):
        m = ConvolutionEngine(delta1, 1.0).mass_scale(np.array([self.EDGE, self.PAST]))
        assert m.tolist() == [self.EDGE, self.PAST]
        assert series_radius(delta1, 1.0) == self.EDGE
        u_series(delta1, self.EDGE)
        with pytest.raises(SeriesRadiusError):
            u_series(delta1, self.PAST)
        method = evaluate(delta1, [self.EDGE, self.PAST], derivatives=False)[2]
        assert method.tolist() == ["series", "inversion"]
        # bv_split takes the certified truncation only inside the radius
        certified, truncation = [], density._truncation
        monkeypatch.setattr(density, "_truncation", lambda m, *a: certified.append(m) or truncation(m, *a))
        bv_split(delta1, self.EDGE)
        bv_split(delta1, self.PAST)
        assert certified == [self.EDGE]


class TestArrayCallers:
    def test_bv_split_bit_equal_to_pointwise(self):
        model = TWO_ATOMS_KILLED
        split = bv_split(model, 0.8, tol=1e-10, n_nodes=40)
        engine = ConvolutionEngine(model, 0.8)
        u1 = np.zeros(split.nodes.size)
        u2 = np.zeros(split.nodes.size)
        for n in range(split.terms_used):
            vals = np.array([engine.running(n, float(x)) if x > 0 else (1.0 if n == 0 else 0.0)
                             for x in split.nodes])
            if n % 2 == 0:
                u1 += vals / model.drift ** (n + 1)
            else:
                u2 += vals / model.drift ** (n + 1)
        assert np.array_equal(split.u1, u1) and np.array_equal(split.u2, u2)

    def test_check_linear_zero_bit_equal_to_pointwise(self):
        from subpot import check_linear_zero

        model = TEMPERED_ATOM_KILLED
        check = check_linear_zero(model)
        engine = ConvolutionEngine(model, float(check.xs.max()))
        u = np.array([u_series(model, float(x), tol=1e-12, engine=engine)[0] for x in check.xs])
        # an infinite measure: the check reports (1/drift - u)/x
        assert np.array_equal(check.lhs, (1.0 / model.drift - u) / check.xs)


# ---------------------------------------------------------------------------
# the printed density: evaluate against closed forms and 30-digit oracles
# ---------------------------------------------------------------------------


class TestEvaluatedDensity:
    """evaluate's u on the unit atom and the stable 1/2 tail, against u's closed form and its known shape."""

    def test_delta1_closed_form(self, delta1):
        xs = np.linspace(0.025, 5.0, 200)
        u, err, method, *_ = evaluate(delta1, xs)
        want = np.array([delta1_u(x) for x in xs])
        assert 0 < np.sum(method == "series") < xs.size
        assert np.all(np.abs(u - want) <= err) and np.max(err) < 1e-6

    def test_named_values(self, delta1):
        # u(1.5) = e^{-1.5} + 0.5 e^{-0.5};  u(2.5) adds the 2-jump term
        u, err, *_ = evaluate(delta1, [1.5, 2.5], tol=1e-10, derivatives=False)
        assert u[0] == pytest.approx(math.exp(-1.5) + 0.5 * math.exp(-0.5), abs=1e-10)
        assert u[1] == pytest.approx(delta1_u(2.5), abs=1e-10)
        assert u[1] == pytest.approx(0.4925966, abs=1e-6)
        assert evaluate(delta1, [0.0], derivatives=False)[0].tolist() == [1.0]

    def test_continuity_at_atoms(self, delta1):
        # u is continuous across an atom: only u' jumps there
        for a in (1.0, 2.0):
            u, err, *_ = evaluate(delta1, [a - 1e-9, a, a + 1e-9], derivatives=False)
            assert np.all(np.abs(np.diff(u)) <= 2e-9 + err[1:] + err[:-1])

    def test_positive_and_bounded(self, delta1, stable_half):
        # 0 < u <= 1/drift: u(x) drift is the probability of creeping across x
        xs = np.linspace(0.01, 6.0, 300)
        for model in (delta1, stable_half):
            u = evaluate(model, xs, derivatives=False)[0]
            assert np.all(u > 0) and np.all(u <= 1.0 / model.drift)

    def test_long_run_level(self, delta1):
        # u(x) -> 1/E[X_1] = 1/2
        u, err, *_ = evaluate(delta1, [40.0], derivatives=False)
        assert abs(u[0] - 0.5) <= err[0] + 1e-12

    def test_stable_head_matches_series(self, stable_half):
        u, err, method, *_ = evaluate(stable_half, [0.01, 0.03], tol=1e-12, derivatives=False)
        for x, v, e, how in zip((0.01, 0.03), u, err, method):
            want, bound, _ = u_series(stable_half, x, tol=1e-12)
            if how == "series":
                assert v == want and e == bound
            assert abs(v - want) <= e + bound

    def test_no_slack_on_the_head(self, delta1):
        # the span a grid once interpolated between series nodes: each value
        # carries its own bound
        xs = np.linspace(1e-6, 0.6, 4001)
        u, err, *_ = evaluate(delta1, xs, derivatives=False)
        want = np.array([delta1_u(x) for x in xs])
        assert np.all(np.abs(u - want) <= err)

    def test_no_slack_next_to_breakpoints(self, delta1):
        # both sides of the series radius 1/2 and of the atom sums 1 to 4
        off = np.geomspace(1e-9, 3e-3, 40)
        xs = np.sort(np.concatenate([k + s * off for k in (0.45, 0.5, 1.0, 2.0, 3.0, 4.0) for s in (-1.0, 1.0)]))
        u, err, *_ = evaluate(delta1, xs, derivatives=False)
        want = np.array([delta1_u(x) for x in xs])
        assert np.all(np.abs(u - want) <= err)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_error_bar_holds_at_every_tol(self, delta1, tol):
        xs = np.linspace(0.05, 6.0, 60)
        u, err, *_ = evaluate(delta1, xs, tol=tol, derivatives=False)
        want = np.array([delta1_u(x) for x in xs])
        assert np.all(np.abs(u - want) <= err) and np.all(err <= tol)

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_killed_unit_atom_closed_form(self, q):
        model = LevyModel(drift=1.0, q=q, atomic=AtomicPart.from_pairs([(1, 1.0)]))
        xs = np.linspace(0.05, 6.0, 60)
        u, err, *_ = evaluate(model, xs, derivatives=False)
        want = np.array([delta1_u(x, q) for x in xs])
        assert np.all(np.abs(u - want) <= err)


class TestKilledRoutes:
    """Killing at q > 0 through both routes and the 30-digit oracle."""

    def test_killed_atomic_both_routes(self):
        doc = {"drift": 1.2, "q": 0.5, "atoms": [{"x": 0.8, "mass": 0.7}]}
        model = model_from_dict(doc)
        xs = np.array([0.15, 0.9, 2.2])
        u, err, method, *_ = evaluate(model, xs, tol=1e-9, derivatives=False)
        assert method.tolist() == ["series", "inversion", "inversion"]
        for x, v, e in zip(xs.tolist(), u, err):
            want = oracles.density(doc, x)
            assert abs(v - float(want)) <= e + oracles.ulp_floor(want)
        inv, inv_err = invert_density(model, 0.15, N=3, tol=1e-9)
        assert abs(u[0] - inv) <= err[0] + inv_err

    def test_killed_tempered_both_routes(self):
        doc = {"drift": 1.0, "q": 0.3, "ac": {"kind": "tempered", "C": 0.6, "alpha": 0.5, "b": 1.0}}
        model = model_from_dict(doc)
        u, err, *_ = evaluate(model, [0.02, 0.4, 1.5], tol=1e-8, derivatives=False)
        for x, v, e in zip((0.02, 0.4, 1.5), u, err):
            want = oracles.density(doc, x)
            assert abs(v - float(want)) <= e + oracles.ulp_floor(want)


class TestRouteAgreement:
    """Inside the series radius the series and the contour agree within the sum of their bounds."""

    MODELS = [UNIT_ATOM, TWO_ATOMS_KILLED, ATOM_STABLE, TEMPERED_ATOM_KILLED, KILLED_DRIFT, SHORT_ATOM]

    @pytest.mark.parametrize("tol", [1e-7, 1e-10])
    @pytest.mark.parametrize("model", MODELS)
    def test_series_and_contour_agree_inside_the_radius(self, model, tol):
        xs = np.linspace(0.0, series_radius(model, 3.0), 9)[1:]
        series, s_err, *_ = evaluate(model, xs, tol=tol, route="series", derivatives=False)
        contour, c_err, *_ = evaluate(model, xs, tol=tol, route="inversion", derivatives=False)
        assert np.all(np.abs(series - contour) <= s_err + c_err)
        assert np.all(s_err <= tol) and np.all(c_err <= tol)


class TestOracleBattery:
    """evaluate's route "auto" against the 30-digit oracles, with only the oracles' roundoff floor as slack."""

    DOCS = {
        "two_atoms_killed": {"drift": 1.3, "q": 0.3, "atoms": [{"x": 0.6, "mass": 0.9}, {"x": 1.4, "mass": 0.5}]},
        "atom_stable": {"drift": 1.4, "atoms": [{"x": 0.7, "mass": 0.6}],
                        "ac": {"kind": "stable", "C": 0.3, "alpha": 0.5}},
        "short_atom": {"drift": 1.0, "atoms": [{"x": 0.003, "mass": 1.0}, {"x": 1.0, "mass": 0.5}]},
        "killed_drift": {"drift": 1.0, "q": 1.0},
        "pure_drift": {"drift": 2.0},
        "tempered": {"drift": 1.0, "ac": {"kind": "tempered", "C": 1.0, "alpha": 0.5, "b": 1.0}},
        "stable_half": {"drift": 1.0, "ac": {"kind": "stable", "C": 1.0, "alpha": 0.5}},
        "killed_stable": {"drift": 1.0, "q": 0.3, "ac": {"kind": "stable", "C": 0.5, "alpha": 0.5}},
    }
    XS = [0.05, 0.3, 1.1, 2.5, 4.0]

    @pytest.mark.parametrize("name", DOCS)
    def test_error_bar_holds_without_slack(self, name):
        doc = self.DOCS[name]
        u, err, *_ = evaluate(model_from_dict(doc), self.XS, tol=1e-8, derivatives=False)
        for x, v, e in zip(self.XS, u, err):
            want = oracles.density(doc, x)
            assert abs(v - float(want)) <= e + oracles.ulp_floor(want), f"x {x}"
            assert e <= 1e-8


class TestCellBreaksOneEnumeration:
    """The kinks come from one atom-sum set, the union over k = 1..order, and the crosscheck's cells break at them."""

    FAMILY = LevyModel(drift=2.0, atomic=AtomicPart.reciprocal_integers([j**-1.25 for j in range(1, 9)], 8))

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("model, x_max", [(UNIT_ATOM, 4.5), (TWO_ATOMS_KILLED, 3.0), (FAMILY, 1.2)])
    def test_bit_equal_to_union_over_k(self, model, x_max, order):
        engine = ConvolutionEngine(model, x_max)
        union = set()
        for k in range(1, order + 1):
            union.update(float(v) for v in atom_sums(model.atomic, k, engine.x_max).values)
        kinks = engine.kinks(order)
        assert kinks.tobytes() == np.array(sorted(union)).tobytes()
        if order == 3:  # the order of the crosscheck's breaks
            assert np.all(np.isin(kinks[kinks < x_max], density._cells(model, x_max)))

    def test_atom_free_model_has_only_the_ends(self):
        engine = ConvolutionEngine(KILLED_DRIFT, 2.0)
        assert engine.kinks(2).size == 0 and engine.kinks(3).size == 0
        edges = density._cells(KILLED_DRIFT, 2.0)
        assert edges[25:].tolist() == [1.0, 2.0]
