import math

import mpmath
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
    laplace_crosscheck,
    series_radius,
    u_series,
    u_volterra,
)
from subpot import convolve, density
from conftest import delta1_u, random_atomic_model


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
    def scalar_radius(engine, x_max, level):
        """The radius search as 80 scalar bisection steps, one mass_scale call each."""
        if engine.mass_scale(x_max) <= level:
            return x_max
        lo, hi = 0.0, x_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if engine.mass_scale(mid) <= level:
                lo = mid
            else:
                hi = mid
        return lo

    RADIUS_MODELS = {
        "unit-atom": LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)])),
        # q = 0: m stops at 0.44999999999999996 past x = 0.6, so levels 0.45 and 0.5 return
        # x_max at once, and at 0.2 the first midpoints fall on the flat stretch
        "flat-atoms": LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.3, 0.5), (0.6, 0.5)])),
        "stable": LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.5)),
        # the radius is about 1e-13: 80 steps end well short of one ulp of it
        "stable-0.9": LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.9)),
        "tempered-killed": LevyModel(drift=1.3, q=0.3, ac=AcTail.tempered(0.7, 0.6, 1.5)),
        "atom-stable": LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4)),
    }

    @pytest.mark.parametrize("level", [0.2, 0.45, 0.5])
    @pytest.mark.parametrize("model", RADIUS_MODELS)
    def test_radius_equals_the_scalar_bisection(self, model, level):
        # the search runs as array passes over subtrees of midpoints; it must land on the
        # scalar loop's float, also where m(x_max) <= level returns x_max at once (x_max 0.05)
        model = self.RADIUS_MODELS[model]
        for x_max in (0.05, 3.0):
            engine = ConvolutionEngine(model, x_max)
            want = self.scalar_radius(engine, x_max, level)
            assert series_radius(model, x_max, engine, level) == want
            assert series_radius(model, x_max, level=level) == want

    def test_killed_pure_drift(self):
        model = LevyModel(drift=1.0, q=1.0)
        v, _, _ = u_series(model, 0.4, tol=1e-12)
        assert v == pytest.approx(math.exp(-0.4), rel=1e-10)


class TestVolterra:
    def test_delta1_closed_form(self, delta1, delta1_grid):
        xs = np.linspace(0.025, 5.0, 200)
        want = np.array([delta1_u(x) for x in xs])
        assert np.max(np.abs(delta1_grid(xs) - want)) < 1e-6

    def test_named_values(self, delta1_grid):
        # oracle: u(1.5) = e^{-1.5} + 0.5 e^{-0.5},  u(2.5) adds the 2-jump term
        assert delta1_grid(1.5) == pytest.approx(math.exp(-1.5) + 0.5 * math.exp(-0.5), abs=1e-6)
        assert delta1_grid(2.5) == pytest.approx(delta1_u(2.5), abs=1e-6)
        assert delta1_grid(2.5) == pytest.approx(0.4925966, abs=1e-6)
        assert delta1_grid.u[0] == pytest.approx(1.0)

    def test_continuity_at_atoms(self, delta1_grid):
        for a in (1.0, 2.0):
            i = np.searchsorted(delta1_grid.nodes, a)
            gaps = np.abs(np.diff(delta1_grid.u[i - 2 : i + 2]))
            assert np.all(gaps < 1e-3)  # u continuous: no jump across the atom

    def test_positive_and_bounded(self, delta1_grid, stable_grid):
        for grid in (delta1_grid, stable_grid):
            assert np.all(grid.u > 0)
            assert np.all(grid.u <= 1.0 / grid.drift + 1e-8)

    def test_long_run_level(self, delta1):
        # u(x) -> 1/E[X_1] = 1/2
        grid = u_volterra(delta1, 45.0)
        assert grid(40.0) == pytest.approx(0.5, abs=1e-4)

    def test_order_two_convergence(self, delta1):
        # halving h reduces the self-reported error by ~4x
        g1 = u_volterra(delta1, 3.0, h_target=0.016, max_refine=1, tol=1e-2)
        g2 = u_volterra(delta1, 3.0, h_target=0.008, max_refine=1, tol=1e-2)
        e1 = np.max(g1.err_est[g1.nodes > g1.series_head_end])
        e2 = np.max(g2.err_est[g2.nodes > g2.series_head_end])
        assert e1 / e2 == pytest.approx(4.0, rel=0.5)

    def test_err_estimate_is_honest(self, delta1_grid):
        xs = np.linspace(0.6, 4.9, 77)
        want = np.array([delta1_u(x) for x in xs])
        got = delta1_grid(xs)
        # true error bounded by the reported estimate plus interpolation slack
        assert np.all(np.abs(got - want) <= delta1_grid.err_at(xs) + 1e-6)

    def test_stable_head_matches_series(self, stable_half, stable_grid):
        for x in (0.01, 0.03):
            v, err, _ = u_series(stable_half, x, tol=1e-12)
            assert stable_grid(x) == pytest.approx(v, abs=1e-6)

    def test_route_agreement_series_vs_volterra(self, delta1, delta1_grid):
        for x in (0.1, 0.3, 0.45):
            v, err, _ = u_series(delta1, x, tol=1e-10)
            assert abs(v - delta1_grid(x)) <= err + delta1_grid.err_at(x) + 1e-7

    def test_non_finite_march_raises(self, delta1, monkeypatch):
        # a NaN step-halving difference passes neither `<= 10 tol` nor `> 10 tol`
        march = density._march

        def last_node_nan(*args):
            u = march(*args)
            u[-1] = math.nan
            return u

        monkeypatch.setattr(density, "_march", last_node_nan)
        with pytest.raises(AccuracyFailureError, match="non-finite"):
            u_volterra(delta1, 2.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"max_refine": 0}, "max_refine"),  # the refinement loop would never run
        ({"max_refine": -1}, "max_refine"),
        ({"breakpoint_order": 0}, "breakpoint_order"),
        ({"h_target": 0.0}, "h_target"),
        ({"h_target": math.nan}, "h_target"),
        ({"h_target": math.inf}, "h_target"),
        ({"tol": math.nan}, "tol"),
        ({"tol": -1e-7}, "tol"),
        ({"x_max": math.nan}, "x_max"),
    ])
    def test_bad_arguments_raise_value_error(self, delta1, kwargs, name):
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            u_volterra(delta1, **{"x_max": 2.0, **kwargs})


class TestKilledRoutes:
    def test_killed_atomic_three_routes(self):
        from subpot import invert_density

        model = LevyModel(drift=1.2, q=0.5, atomic=AtomicPart.from_pairs([(0.8, 0.7)]))
        grid = u_volterra(model, 3.0, tol=1e-8)
        for x in (0.15, 0.9, 2.2):
            inv, err = invert_density(model, x, N=3, tol=1e-9)
            assert abs(grid(x) - inv) < grid.err_at(x) + err + 1e-7
        v, bound, _ = u_series(model, 0.15, tol=1e-12)
        assert abs(v - grid(0.15)) < bound + grid.err_at(0.15) + 1e-9

    def test_killed_tempered_routes(self):
        from subpot import AcTail, invert_density

        model = LevyModel(drift=1.0, q=0.3, ac=AcTail.tempered(0.6, 0.5, 1.0))
        grid = u_volterra(model, 2.0)
        for x in (0.4, 1.5):
            inv, err = invert_density(model, x, N=4, tol=1e-8)
            assert abs(grid(x) - inv) < grid.err_at(x) + err + 1e-6


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
            u_volterra(model, 0.5)
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

    def test_array_of_lambdas_on_one_grid(self, delta1):
        # the grid the smallest lambda needs serves them all; each row equals
        # the scalar call on that grid, and lambda = 1 alone builds the same grid
        rows = laplace_crosscheck(delta1, np.array([3.0, 1.0, 10.0]), tol=1e-6)
        alone = laplace_crosscheck(delta1, 1.0, tol=1e-6)
        assert [r.lam for r in rows] == [3.0, 1.0, 10.0]
        assert rows[1] == alone
        grid = u_volterra(delta1, alone.x_max, tol=1e-7)
        assert rows == [laplace_crosscheck(delta1, lam, tol=1e-6, grid=grid) for lam in (3.0, 1.0, 10.0)]
        for bad in ([], [1.0, -1.0], [1.0, math.nan], [[1.0]]):
            with pytest.raises((ValueError, PreconditionError)):
                laplace_crosscheck(delta1, bad, grid=grid)


# ---------------------------------------------------------------------------
# blocked march, array series head, honest interpolation error
# ---------------------------------------------------------------------------


def reference_march(model, nodes, known):
    """The row-by-row march over the whole history, kept as the reference."""
    u = np.array(known, dtype=float)
    for i in range(int(np.sum(~np.isnan(known))), nodes.size):
        w = nodes[i] - nodes[: i + 1]
        f0 = model.tail_antiderivative(w) + model.q * w
        f1 = model.tail_first_moment(w) + model.q * w**2 / 2.0
        m0, m1 = f0[:-1] - f0[1:], f1[:-1] - f1[1:]
        h = np.diff(nodes[: i + 1])
        a = (m1 - w[1:] * m0) / h
        b = (w[:-1] * m0 - m1) / h
        u[i] = (1.0 - a @ u[:i] - b[:-1] @ u[1:i]) / (model.drift + b[-1])
    return u


def tempered_moments(s, b, w):
    """(int_0^w y^(s-1) e^{-by} dy, int_0^w y^s e^{-by} dy) in np.longdouble.

    int_0^w y^(r-1) e^{-by} dy = w^r e^{-bw} sum_k (bw)^k / (r (r+1) ... (r+k))
    (DLMF 8.7.1), a polynomial of positive coefficients in bw, taken by
    Horner's rule to the degree where (b max w)^k / k! is below the
    longdouble's precision.
    """
    z = b * w
    top, bound = 0, np.longdouble(1)
    while bound > 1e-22:
        top += 1
        bound *= z.max(initial=0) / top

    def lower(r):
        coeffs = [1 / r]
        for k in range(1, top + 1):
            coeffs.append(coeffs[-1] / (r + k))
        total = np.full_like(z, coeffs[-1])
        for a in coeffs[-2::-1]:
            total = total * z + a
        return w**r * np.exp(-z) * total

    return lower(s), lower(s + 1)


def extended_march(model, nodes, known):
    """``reference_march`` in np.longdouble, for atoms, q and a stable or tempered tail.

    Without q and a tail, the cells whose lags all reach past the largest
    atom have zero moments and are left out.
    """
    ld = np.longdouble
    x = nodes.astype(ld)
    locs = np.array(model.atomic.locations, dtype=ld)
    masses = np.array(model.atomic.masses, dtype=ld)
    c, s, q, rate = ld(model.ac.C), 1 - ld(model.ac.alpha), ld(model.q), ld(model.ac.tempering)
    reach = math.inf if model.q or model.has_ac else model.atomic.locations[-1]
    u = np.array(known, dtype=ld)
    h = np.diff(x)
    for i in range(int(np.sum(~np.isnan(known))), x.size):
        c0 = max(0, int(np.searchsorted(x, x[i] - reach, side="right")) - 1)
        w = x[i] - x[c0 : i + 1]
        clip = np.minimum(w[:, None], locs)
        t0, t1 = tempered_moments(s, rate, w) if rate else (w**s / s, w ** (s + 1) / (s + 1))
        f0 = clip @ masses + c * t0 + q * w
        f1 = clip**2 @ masses / 2 + c * t1 + q * w**2 / 2
        m0, m1 = f0[:-1] - f0[1:], f1[:-1] - f1[1:]
        a = (m1 - w[1:] * m0) / h[c0:i]
        b = (w[:-1] * m0 - m1) / h[c0:i]
        u[i] = (1 - a @ u[c0:i] - b[:-1] @ u[c0 + 1 : i]) / (ld(model.drift) + b[-1])
    return u


UNIT_ATOM = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]))
TWO_ATOMS_KILLED = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.6, 0.9), (1.4, 0.5)]))
ATOM_STABLE = LevyModel(drift=1.4, atomic=AtomicPart.from_pairs([(0.7, 0.6)]), ac=AcTail.stable(0.3, 0.5))
TEMPERED_ATOM_KILLED = LevyModel(drift=1.3, q=0.3, atomic=AtomicPart.from_pairs([(0.8, 0.5)]),
                                 ac=AcTail.tempered(0.7, 0.6, 1.5))
KILLED_DRIFT = LevyModel(drift=1.0, q=1.0)
# the atom at 0.003 is shorter than the 0.01 cells of TestBlockedMarch.grid
SHORT_ATOM = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.003, 1.0), (1.0, 0.5)]))


class TestBlockedMarch:
    # (model, relative limit against the row-by-row march): with q = 0 and
    # no AC part the cells beyond the largest atom contribute exact zeros
    MODELS = [
        (UNIT_ATOM, 1e-14),
        (TWO_ATOMS_KILLED, 1e-12),
        (ATOM_STABLE, 1e-12),
        (TEMPERED_ATOM_KILLED, 1e-12),
        (KILLED_DRIFT, 1e-12),
        (SHORT_ATOM, 1e-12),
    ]

    @staticmethod
    def grid(model, head_end=0.93):
        kinks = [a + b for a in (0.0, *model.atomic.locations) for b in model.atomic.locations]
        nodes = np.unique(np.concatenate([np.arange(0.0, 3.0, 0.01), [3.0], [k for k in kinks if k < 3.0]]))
        known = np.where(nodes <= head_end, np.exp(-nodes) / model.drift, np.nan)
        return nodes, known

    @pytest.mark.parametrize("budget", [64, 1 << 14])
    @pytest.mark.parametrize("model, limit", MODELS)
    def test_matches_row_by_row_march(self, model, limit, budget, monkeypatch):
        # a budget of 64 floats leaves one row per block with a cut window
        monkeypatch.setattr(density, "_BLOCK_FLOATS", budget)
        nodes, known = self.grid(model)
        want = reference_march(model, nodes, known)
        got = density._march(model, nodes, known)
        assert np.all(got[~np.isnan(known)] == known[~np.isnan(known)])
        assert np.max(np.abs(got - want) / np.abs(want)) <= limit

    def test_unit_atom_far_out(self):
        # the lag terms U(x) - U(x - 1) of the unit atom subtract running
        # integrals near x/2; a plain running sum leaves 1.8e-13 here
        grid = u_volterra(UNIT_ATOM, 30.0, tol=1e-7)
        xs = np.linspace(0.05, 30.0, 300)
        far = xs[xs > 14.0]
        assert np.max(np.abs(grid(far) - np.array([delta1_u(x) for x in far]))) <= 3e-14

    def test_rounding_far_out(self):
        # lag terms taken in lag space from compensated sums keep the march
        # within a few ulp of u (about 0.47) of the same grid solved in
        # extended precision, over blocks of about 490 rows
        model = LevyModel(drift=1.0869, atomic=AtomicPart.from_pairs([(0.9776, 1.0643)]))
        nodes = np.unique(np.concatenate([np.arange(0.0, 20.0, 0.002), [20.0, 0.9776, 2 * 0.9776]]))
        known = np.where(nodes <= 0.5, np.exp(-nodes) / model.drift, np.nan)
        want = extended_march(model, nodes, known)
        assert np.max(np.abs(density._march(model, nodes, known) - want)) <= 4e-16

    def test_first_block_spans_head_end_and_breakpoints(self, monkeypatch):
        # only an AC tail takes kernel moments; atoms and q act through the
        # running integral of u
        shapes = []
        moment = AcTail.antiderivative

        def spy(self, t):
            shapes.append(np.shape(t))
            return moment(self, t)

        monkeypatch.setattr(AcTail, "antiderivative", spy)
        nodes, known = self.grid(TEMPERED_ATOM_KILLED)
        got = density._march(TEMPERED_ATOM_KILLED, nodes, known)
        first = int(np.sum(~np.isnan(known)))
        rows = shapes[0][0]
        # the first block starts right after the head and runs past the
        # breakpoint 0.8 and on past 1.4
        assert nodes[first - 1] <= 0.93 < nodes[first]
        assert nodes[first + rows - 1] > 1.4
        want = reference_march(TEMPERED_ATOM_KILLED, nodes, known)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


class TestParentValues:
    # grid(xs) at xs = linspace(0.1, x_max, 7), recorded from the row-by-row
    # march before the blocked one replaced it
    RECORDED = {
        "delta1_grid": [0.9048374180359596, 0.39984966448988607, 0.5289183272475428, 0.4943296676095238,
                        0.5002749489149736, 0.5003394964667143, 0.4998176655252555],
        "delta1_fine_grid": [0.9048374180359596, 0.44190221327910195, 0.52869305899263, 0.4878677437947864,
                             0.5043628859169079, 0.4985336883781489, 0.5005061826298036],
        "stable_grid": [0.5859407167850803, 0.27303509482654936, 0.20728974140934492, 0.17395184252810544,
                        0.15286617592821264, 0.1379801111890899, 0.12674586468442642],
    }
    SOLVED = {
        "tempered": (1.5, [0.5965674447066698, 0.46069787204978874, 0.41523063987947134, 0.3933980545379958,
                           0.3813749478589584, 0.3742332343954468, 0.3697793546878859]),
        "pure_drift": (3.0, [0.5] * 7),
        "two_atoms_killed": (4.0, [0.6749386404782487, 0.3541323795554947, 0.2786373197115577,
                                   0.29562051752430185, 0.27273390633040995, 0.25215841443756687,
                                   0.23428624469654255]),
    }
    # the tempered figures while scipy's incomplete Gamma function gave the tail's moments
    SCIPY_TEMPERED = [0.5965674447658658, 0.46069787198139855, 0.41523063984553726, 0.39339805428614577,
                      0.38137494818252454, 0.37423323510047396, 0.36977935711419596]
    # largest relative distance of the grid from an extended-precision march
    # on its own nodes and head values, rounded up from the figures of the
    # march that took every kernel part through moments (1.461e-11, 1.412e-10)
    EXTENDED = {"mixed": 1.47e-11, "atom_stable": 1.42e-10}

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_fixture_grids(self, name, request):
        grid = request.getfixturevalue(name)
        got = grid(np.linspace(0.1, grid.x_max, 7))
        # q = 0 atomic fixtures: 1e-14; the stable fixture: 1e-12
        limit = 1e-14 if name.startswith("delta1") else 1e-12
        assert np.max(np.abs(got / self.RECORDED[name] - 1.0)) <= limit

    @pytest.mark.parametrize("name", sorted(SOLVED))
    def test_solved_grids(self, name, tempered_model, pure_drift):
        model = {"tempered": tempered_model, "pure_drift": pure_drift, "two_atoms_killed": TWO_ATOMS_KILLED}[name]
        x_max, want = self.SOLVED[name]
        xs = np.linspace(0.1, x_max, 7)
        grid = u_volterra(model, x_max)
        got = grid(xs)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        if name == "tempered":
            # the march's moment differences (m1 - w m0) / h amplify the moments' roundings about
            # 1e7, so the grid moved 6.6e-9 with the incomplete Gamma function: it may be no
            # farther from an extended-precision march on its own nodes and head than before
            exact = extended_march(model, grid.nodes, np.where(grid.method == "series", grid.u, np.nan))
            ref = np.interp(xs, grid.nodes, exact.astype(float))
            assert np.max(np.abs(got / ref - 1.0)) <= np.max(np.abs(np.array(self.SCIPY_TEMPERED) / ref - 1.0))

    @pytest.mark.parametrize("s, b", [(0.5, 1.0), (0.4, 1.5), (0.9, 0.2)])
    def test_tempered_moments_against_30_digits(self, s, b):
        # the tempered tail's moments in extended_march, the reference of the tempered grid
        w = [0.0, 1e-7, 0.01, 0.3, 1.0, 1.5, 4.0]
        moments = tempered_moments(np.longdouble(s), np.longdouble(b), np.array(w, dtype=np.longdouble))
        with mpmath.workdps(30):
            for r, got in zip((mpmath.mpf(s), mpmath.mpf(s) + 1), moments):
                assert got[0] == 0
                for wk, gk in zip(w[1:], got[1:]):
                    want = mpmath.gammainc(r, 0, b * mpmath.mpf(wk)) / mpmath.mpf(b) ** r
                    assert abs(mpmath.mpf(np.format_float_scientific(gk, unique=True)) / want - 1) < 1e-18

    @pytest.mark.parametrize("name", sorted(EXTENDED))
    def test_atoms_with_a_stable_tail_against_extended_precision(self, name, mixed_model):
        # the march's rounding, not its discretisation: both sides solve the
        # same grid from the same series head
        model = {"mixed": mixed_model, "atom_stable": ATOM_STABLE}[name]
        grid = u_volterra(model, 1.5)
        want = extended_march(model, grid.nodes, np.where(grid.method == "series", grid.u, np.nan))
        assert np.max(np.abs(grid.u / want - 1.0)) <= self.EXTENDED[name]


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

    def test_volterra_head_bit_equal_to_series(self):
        grid = u_volterra(TWO_ATOMS_KILLED, 2.0)
        head = grid.method == "series"
        # the head's series tolerance is min(tol / 100, 1e-10) = 1e-10
        want = [u_series(TWO_ATOMS_KILLED, float(x), tol=1e-10)[0] for x in grid.nodes[head]]
        assert grid.u[head].tolist() == want


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


class TestHonestInterpolation:
    def test_no_slack_on_the_head(self, delta1_grid):
        # the unit atom between series-head nodes: the gap the node
        # estimates alone under-reported by about 1000x
        xs = np.linspace(1e-6, 0.6, 4001)
        want = np.array([delta1_u(x) for x in xs])
        assert np.all(np.abs(delta1_grid(xs) - want) <= delta1_grid.err_at(xs))

    def test_no_slack_next_to_breakpoints(self, delta1_grid):
        off = np.geomspace(1e-9, 3e-3, 40)
        xs = np.sort(np.concatenate([k + s * off for k in (0.45, 1.0, 2.0, 3.0, 4.0) for s in (-1.0, 1.0)]))
        want = np.array([delta1_u(x) for x in xs])
        assert np.all(np.abs(delta1_grid(xs) - want) <= delta1_grid.err_at(xs))

    def test_kinks_do_not_inflate_the_estimate(self, delta1_grid):
        # u' jumps at the atoms; a second difference centred on one would
        # read that jump as a curvature of order 1/h
        nodes = delta1_grid.nodes
        for k in (1.0, 2.0, 3.0):
            i = int(np.searchsorted(nodes, k))
            for cell, far in ((i, i + 2), (i - 1, i - 3)):
                mid = 0.5 * (nodes[cell] + nodes[cell + 1])
                far_mid = 0.5 * (nodes[far] + nodes[far + 1])
                assert delta1_grid.err_at(mid) <= 3.0 * delta1_grid.err_at(far_mid)

    def test_nodes_keep_their_estimates(self, delta1_grid):
        assert np.array_equal(delta1_grid.err_at(delta1_grid.nodes), delta1_grid.err_est)
        assert np.ndim(delta1_grid.err_at(0.3)) == 0


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


class TestGridNodesOneEnumeration:
    """The breakpoints come from one atom-sum set, the old union over k = 1..order."""

    FAMILY = LevyModel(drift=2.0, atomic=AtomicPart.reciprocal_integers([j**-1.25 for j in range(1, 9)], 8))

    @staticmethod
    def union_over_k(model, engine, x_max, order):
        from subpot import atom_sums

        breaks = {0.0, float(x_max)}
        for k in range(1, order + 1):
            breaks.update(float(v) for v in atom_sums(model.atomic, k, engine.x_max).values if v < x_max)
        return np.array(sorted(breaks))

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("model, x_max", [(UNIT_ATOM, 4.5), (TWO_ATOMS_KILLED, 3.0), (FAMILY, 1.2)])
    def test_bit_equal_to_union_over_k(self, model, x_max, order):
        engine = ConvolutionEngine(model, x_max)
        calls = []
        sum_set = engine.sum_set
        engine.sum_set = lambda k: calls.append(k) or sum_set(k)
        nodes, breaks = density._grid_nodes(model, engine, x_max, 0.004, order, 0.3)
        want = self.union_over_k(model, engine, x_max, order)
        assert calls == [order]
        assert breaks.tobytes() == want.tobytes()
        assert np.all(np.isin(want, nodes))

    def test_atom_free_model_has_only_the_ends(self):
        engine = ConvolutionEngine(KILLED_DRIFT, 2.0)
        assert engine.kinks(2).size == 0
        _, breaks = density._grid_nodes(KILLED_DRIFT, engine, 2.0, 0.01, 2, 0.0)
        assert breaks.tolist() == [0.0, 2.0]
