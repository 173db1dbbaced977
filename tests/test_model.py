import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subpot import (
    AcTail,
    AtomicPart,
    IndeterminateIndexError,
    LevyModel,
    ModelValidationError,
    Side,
    model_from_dict,
)


class TestTail:
    def test_delta1_interior(self, delta1):
        assert delta1.tail(0.5, Side.LEFT) == 1.0

    def test_delta1_one_sided_at_atom(self, delta1):
        assert delta1.tail(1.0, Side.RIGHT) == 0.0
        assert delta1.tail(1.0, Side.LEFT) == 1.0

    def test_zero_convention(self, delta1):
        assert delta1.tail(-0.3, Side.LEFT) == 0.0
        assert delta1.tail(0.0, Side.LEFT) == 0.0
        assert delta1.tail(0.0, Side.RIGHT) == 1.0

    def test_stable_value(self, stable_half):
        assert stable_half.tail(4.0) == pytest.approx(0.5, abs=1e-15)

    def test_unbounded_at_zero_is_marker(self, stable_half):
        assert stable_half.tail(0.0, Side.RIGHT) == math.inf
        assert stable_half.has_ac
        assert not LevyModel(drift=1.0).has_ac

    @given(
        y1=st.floats(0.01, 5.0),
        y2=st.floats(0.01, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_tail_nonincreasing(self, y1, y2):
        model = LevyModel(
            drift=1.0,
            atomic=AtomicPart.from_pairs([(0.5, 1.0), (1.7, 0.4)]),
            ac=AcTail.stable(0.3, 0.6),
        )
        lo, hi = min(y1, y2), max(y1, y2)
        assert model.tail(lo, Side.LEFT) >= model.tail(hi, Side.LEFT) - 1e-12

    @given(st.integers(0, 1))
    @settings(max_examples=10, deadline=None)
    def test_side_gap_is_exactly_the_mass(self, i):
        atoms = [(0.5, 2.0), (1.25, 0.75)]
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs(atoms))
        a, m = atoms[i]
        assert model.tail(a, Side.LEFT) - model.tail(a, Side.RIGHT) == pytest.approx(m, rel=1e-14)
        # off-atom the sides agree
        assert model.tail(a + 0.01, Side.LEFT) == model.tail(a + 0.01, Side.RIGHT)


class TestLaplaceExponent:
    def test_delta1_value(self, delta1):
        assert delta1.laplace_exponent(1.0) == pytest.approx(2.0 - math.exp(-1.0), rel=1e-12)

    def test_zero(self, delta1, stable_half, tempered_model):
        for m in (delta1, stable_half, tempered_model):
            assert m.laplace_exponent(0.0) == 0.0

    def test_stable_closed_form_vs_quadrature(self, stable_half):
        # int (1 - e^{-lam x}) Pi(dx) with density 0.5 x^{-1.5}
        for lam in (0.5, 1.0, 3.0):
            oracle, err = quad(lambda x: (1 - math.exp(-lam * x)) * 0.5 * x**-1.5, 0, np.inf, limit=300)
            assert stable_half.laplace_exponent(lam) == pytest.approx(lam + oracle, abs=max(1e-8, 10 * err))
            assert stable_half.laplace_exponent(lam) == pytest.approx(
                lam + math.sqrt(math.pi) * math.sqrt(lam), rel=1e-12
            )

    def test_tempered_closed_form_vs_quadrature(self, tempered_model):
        dens = lambda x: (0.5 * x**-1.5 + x**-0.5) * math.exp(-x)
        for lam in (0.7, 2.0):
            oracle, err = quad(lambda x: (1 - math.exp(-lam * x)) * dens(x), 0, np.inf, limit=300)
            assert tempered_model.laplace_exponent(lam) == pytest.approx(1.0 * lam + oracle, abs=max(1e-8, 10 * err))

    @given(st.floats(0.01, 20.0), st.floats(0.01, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_psi_over_lam_nonincreasing(self, l1, l2):
        model = LevyModel(drift=0.7, atomic=AtomicPart.from_pairs([(1.2, 0.8)]), ac=AcTail.stable(0.2, 0.4))
        lo, hi = min(l1, l2), max(l1, l2)
        assert model.laplace_exponent(lo) / lo >= model.laplace_exponent(hi) / hi - 1e-10

    @given(st.floats(0.0, 25.0))
    @settings(max_examples=60, deadline=None)
    def test_psi_at_least_drift_lam(self, lam):
        model = LevyModel(drift=1.3, atomic=AtomicPart.from_pairs([(0.4, 0.5)]))
        assert model.laplace_exponent(lam) >= 1.3 * lam - 1e-12
        pure = LevyModel(drift=1.3)
        assert pure.laplace_exponent(lam) == pytest.approx(1.3 * lam, rel=1e-14)


class TestMean:
    def test_delta1(self, delta1):
        assert delta1.mean() == pytest.approx(2.0)

    def test_pure_drift(self, pure_drift):
        assert pure_drift.mean() == 2.0

    def test_stable_infinite(self, stable_half):
        assert math.isinf(stable_half.mean())

    def test_tempered_finite(self, tempered_model):
        oracle, err = quad(lambda x: x**-0.5 * math.exp(-x), 0, np.inf)
        assert tempered_model.mean() == pytest.approx(1.0 + oracle, abs=1e-9)


class TestBgIndex:
    def test_finite_atoms_zero(self, delta1):
        assert delta1.bg_index() == 0.0

    def test_pure_drift_zero(self, pure_drift):
        assert pure_drift.bg_index() == 0.0

    def test_stable_alpha(self):
        model = LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.3))
        assert model.bg_index() == pytest.approx(0.3)

    def test_atoms_do_not_move_ac_contribution(self, mixed_model):
        assert mixed_model.bg_index() == pytest.approx(0.4)

    def test_generated_family_fast_masses(self):
        fam = AtomicPart.reciprocal_integers([1.0 / j**2 for j in range(1, 33)], 32)
        assert LevyModel(drift=1.0, atomic=fam).bg_index() == pytest.approx(0.0, abs=1e-5)

    def test_generated_family_slow_masses(self):
        fam = AtomicPart.reciprocal_integers([j**-0.5 for j in range(1, 65)], 64)
        assert LevyModel(drift=1.0, atomic=fam).bg_index() == pytest.approx(0.5, abs=2e-2)

    def test_non_power_masses_rejected(self):
        # alternating factor breaks the power-law fit right at the boundary
        j = np.arange(1, 65)
        fam_masses = (j**-0.5 * (2.0 + np.cos(np.pi * j))).tolist()
        with pytest.raises((IndeterminateIndexError, ModelValidationError)):
            fam = AtomicPart.reciprocal_integers(fam_masses, 64)
            LevyModel(drift=1.0, atomic=fam).bg_index()


class TestValidationAndSchema:
    def test_rejects_zero_drift(self):
        with pytest.raises(ModelValidationError):
            LevyModel(drift=0.0)

    def test_rejects_negative_q(self):
        with pytest.raises(ModelValidationError):
            LevyModel(drift=1.0, q=-0.1)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ModelValidationError):
            AcTail.stable(1.0, 1.2)

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ModelValidationError):
            AtomicPart(locations=(2.0, 1.0), masses=(1.0, 1.0))

    def test_schema_round_trip(self):
        doc = {
            "drift": 1.5,
            "q": 0.25,
            "atoms": [{"x": "7/10", "mass": 0.5}, {"x": 2.0, "mass": 1.0}],
            "ac": {"kind": "tempered", "C": 0.4, "alpha": 0.6, "b": 2.0},
        }
        model = model_from_dict(doc)
        assert model.atomic.exact_locations[0] == Fraction(7, 10)
        assert model.atomic.locations == (0.7, 2.0)
        assert model.ac.kind == "tempered"

    def test_schema_diagnostics_carry_pointers(self):
        with pytest.raises(ModelValidationError) as exc:
            model_from_dict({"drift": -1, "ac": {"kind": "stable", "C": 1.0, "alpha": 1.2}})
        pointers = {p for p, _ in exc.value.violations}
        assert "/drift" in pointers
        assert "/ac/alpha" in pointers

    @pytest.mark.parametrize("doc, pointer", [
        ({"drift": True}, "/drift"),
        ({"drift": math.nan}, "/drift"),
        ({"drift": 1.0, "q": math.inf}, "/q"),
        ({"drift": 1.0, "q": False}, "/q"),
        ({"drift": 1.0, "atoms": [{"x": math.inf, "mass": 1.0}]}, "/atoms/0/x"),
        ({"drift": 1.0, "atoms": [{"x": True, "mass": 1.0}]}, "/atoms/0/x"),
        ({"drift": 1.0, "atoms": [{"x": "1e400", "mass": 1.0}]}, "/atoms/0/x"),
        ({"drift": 1.0, "atoms": [{"x": "1e-400", "mass": 1.0}]}, "/atoms/0/x"),
        ({"drift": 1.0, "atoms": 5}, "/atoms"),
        ({"drift": 1.0, "ac": "stable"}, "/ac"),
        ({"drift": 1.0, "atom_family": [1.0]}, "/atom_family"),
        ({"drift": 1.0, "atoms": [{"x": 1.0, "mass": math.inf}]}, "/atoms/0/mass"),
        ({"drift": 1.0, "atoms": [{"x": 1.0, "mass": 10**400}]}, "/atoms/0/mass"),
        ({"drift": 1.0, "ac": {"kind": "stable", "C": math.inf, "alpha": 0.5}}, "/ac/C"),
        ({"drift": 1.0, "ac": {"kind": "stable", "C": True, "alpha": 0.5}}, "/ac/C"),
        ({"drift": 1.0, "ac": {"kind": "stable", "C": 1.0, "alpha": math.nan}}, "/ac/alpha"),
        ({"drift": 1.0, "ac": {"kind": "tempered", "C": 1.0, "alpha": 0.5, "b": math.inf}}, "/ac/b"),
        ({"drift": 1.0, "atom_family": {"kind": "reciprocal-integers", "cap": 4,
                                        "masses": [1.0, math.inf, 0.1, 0.05]}}, "/atom_family/masses/1"),
        ({"drift": 1.0, "atom_family": {"kind": "reciprocal-integers", "cap": 4,
                                        "masses": [1.0, 0.3, True, 0.05]}}, "/atom_family/masses/2"),
        ({"drift": 1.0, "atom_family": {"kind": "reciprocal-integers", "cap": True,
                                        "masses": [1.0]}}, "/atom_family/cap"),
    ])
    def test_schema_rejects_non_finite_and_boolean_numbers(self, doc, pointer):
        with pytest.raises(ModelValidationError) as exc:
            model_from_dict(doc)
        assert [p for p, _ in exc.value.violations] == [pointer]

    @pytest.mark.parametrize("build, pointer", [
        (lambda: LevyModel(drift=1.0, q=math.nan), "/q"),
        (lambda: LevyModel(drift=1.0, q=math.inf), "/q"),
        (lambda: LevyModel(drift=1.0, q=False), "/q"),
        (lambda: LevyModel(drift=True), "/drift"),
        (lambda: LevyModel(drift=math.inf), "/drift"),
        (lambda: LevyModel(drift=math.nan), "/drift"),
        (lambda: AtomicPart.from_pairs([(1, math.nan)]), "/atoms"),
        (lambda: AtomicPart.from_pairs([(math.inf, 1.0)]), "/atoms"),
        (lambda: AtomicPart.from_pairs([(1, True)]), "/atoms"),
        (lambda: AtomicPart.from_pairs([(True, 1.0)]), "/atoms"),
        (lambda: AcTail.stable(math.inf, 0.5), "/ac/C"),
        (lambda: AcTail.stable(True, 0.5), "/ac/C"),
        (lambda: AcTail.stable(1.0, math.nan), "/ac/alpha"),
        (lambda: AcTail.tempered(1.0, 0.5, math.inf), "/ac/b"),
        (lambda: AcTail.tempered(1.0, 0.5, True), "/ac/b"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_constructors_reject_non_finite_and_boolean_numbers(self, build, pointer):
        with pytest.raises(ModelValidationError) as exc:
            build()
        assert [p for p, _ in exc.value.violations] == [pointer]

    def test_constructors_store_floats(self):
        model = LevyModel(drift=np.int64(2), q=Fraction(1, 4),
                          atomic=AtomicPart.from_pairs([(1, np.float32(0.5))]),
                          ac=AcTail.stable(1, Fraction(1, 2)))
        numbers = (model.drift, model.q, *model.atomic.locations, *model.atomic.masses,
                   model.ac.C, model.ac.alpha)
        assert numbers == (2.0, 0.25, 1.0, 0.5, 1.0, 0.5)
        assert all(type(v) is float for v in numbers)

    def test_hash_distinguishes_models(self, delta1, stable_half):
        assert delta1.model_hash() != stable_half.model_hash()
        clone = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]))
        assert clone.model_hash() == delta1.model_hash()


class TestKernelMoments:
    def test_antiderivative_matches_quadrature(self, mixed_model):
        for t in (0.3, 0.9, 1.4, 2.7):
            oracle, err = quad(lambda y: mixed_model.tail(y), 0, t, points=[1.0] if t > 1 else None, limit=200)
            assert mixed_model.tail_antiderivative(t) == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_first_moment_matches_quadrature(self, tempered_model):
        for t in (0.4, 1.1, 3.0):
            oracle, err = quad(lambda y: y * tempered_model.tail(y), 0, t, limit=200)
            assert tempered_model.tail_first_moment(t) == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_small_jump_moment(self, stable_half):
        eps = 1e-3
        oracle, _ = quad(lambda y: y * 0.5 * y**-1.5, 0, eps)
        assert stable_half.small_jump_moment(eps) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("alpha, b, eps", [(0.3, 1.5, 1e-4), (0.7, 0.1, 0.1), (0.95, 20.0, 2.0)])
    def test_tempered_small_jump_moment_exact(self, alpha, b, eps):
        # int_0^eps y C (alpha y^(-1-alpha) + b y^(-alpha)) e^{-by} dy, with
        # y = eps u^(1/(1-alpha)) taking out the singularity at 0
        s = 1 / (1 - mp.mpf(alpha))
        y = lambda u: eps * u**s
        with mp.workdps(30):
            oracle = mp.quad(lambda u: 0.7 * (alpha * y(u) ** -alpha + b * y(u) ** (1 - alpha))
                             * mp.exp(-b * y(u)) * eps * s * u ** (s - 1), [0, 1])
        got = AcTail.tempered(0.7, alpha, b).small_jump_moment(eps)
        assert got == pytest.approx(float(oracle), rel=1e-13)
