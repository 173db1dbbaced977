"""A bad tol, x or lam at a library entry point raises ValueError naming it.

Not a value, a ZeroDivisionError, an AccuracyFailureError (the CLI's exit
3, which means a computation missed its target) or a message that names
an argument the caller never passed.
"""

import math

import numpy as np
import pytest

from subpot import (
    ConvolutionEngine,
    atom_sums,
    bv_split,
    classify_point,
    creep_prob,
    creep_prob_killed,
    derivative_zero_contour,
    evaluate,
    first_passage,
    invert_density,
    invert_derivative_pair,
    laplace_crosscheck,
    model_from_dict,
    u_series,
)

nan, inf = math.nan, math.inf

CASES = {
    "invert_density tol nan": (lambda m: invert_density(m, 0.5, tol=nan), "tol"),
    "invert_derivative_pair tol nan": (lambda m: invert_derivative_pair(m, 0.5, tol=nan), "tol"),
    "invert_derivative_pair order 3 tol nan": (lambda m: invert_derivative_pair(m, 0.5, tol=nan, order=3), "tol"),
    "invert_density x inf": (lambda m: invert_density(m, inf), "x"),
    "invert_derivative_pair x inf": (lambda m: invert_derivative_pair(m, inf), "x"),
    "u_series tol nan": (lambda m: u_series(m, 0.3, tol=nan), "tol"),
    "u_series tol 0": (lambda m: u_series(m, 0.3, tol=0.0), "tol"),
    "u_series tol -1": (lambda m: u_series(m, 0.3, tol=-1.0), "tol"),
    "u_series x inf": (lambda m: u_series(m, inf), "x"),
    "bv_split tol nan": (lambda m: bv_split(m, 0.3, tol=nan), "tol"),
    "bv_split x_max nan": (lambda m: bv_split(m, nan), "x_max"),
    "bv_split x_max inf": (lambda m: bv_split(m, inf), "x_max"),
    "evaluate tol nan": (lambda m: evaluate(m, 0.3, tol=nan), "tol"),
    "evaluate tol 0": (lambda m: evaluate(m, 0.3, tol=0.0), "tol"),
    "evaluate tol inf": (lambda m: evaluate(m, 0.3, tol=inf), "tol"),
    "evaluate series tol -1": (lambda m: evaluate(m, 0.3, tol=-1.0, route="series"), "tol"),
    "evaluate inversion tol nan": (lambda m: evaluate(m, 2.0, tol=nan, route="inversion"), "tol"),
    "laplace_crosscheck tol nan": (lambda m: laplace_crosscheck(m, [1.0], tol=nan), "tol"),
    "laplace_crosscheck tol 0": (lambda m: laplace_crosscheck(m, [1.0], tol=0.0), "tol"),
    "laplace_crosscheck tol inf": (lambda m: laplace_crosscheck(m, [1.0], tol=inf), "tol"),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES)
def test_bad_argument_raises_value_error_naming_it(delta1, call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number >=? 0, got "):
        call(delta1)


# every entry point that takes points: (call on the unit atom, the argument's name, whether 0 is refused)
POINT_TAKERS = {
    "evaluate": (lambda m, x: evaluate(m, x), "x", True),
    "u_series": (lambda m, x: u_series(m, x), "x", False),
    "invert_density": (lambda m, x: invert_density(m, x), "x", True),
    "invert_derivative_pair": (lambda m, x: invert_derivative_pair(m, x), "x", True),
    "derivative_zero_contour": (lambda m, x: derivative_zero_contour(m, x), "x", True),
    "engine.power": (lambda m, x: ConvolutionEngine(m, 2.0).power(1, x), "x", True),
    "engine.running": (lambda m, x: ConvolutionEngine(m, 2.0).running(1, x), "x", False),
    "engine.alternating_sum": (lambda m, x: ConvolutionEngine(m, 2.0).alternating_sum(x, 0, 3), "x", False),
    "laplace_crosscheck": (lambda m, lam: laplace_crosscheck(m, lam), "lam", True),
    "creep_prob": (lambda m, x: creep_prob(m, x, 100), "x", True),
    "creep_prob_killed": (lambda m, x: creep_prob_killed(m, 0.5, x, 100), "x", True),
}
BAD_POINTS = {"2-D": [[0.5, 1.5]], "empty": [], "nan": [nan], "inf": [inf], "negative": [-1.0]}
POINT_CASES = [pytest.param(call, name, x, id=f"{taker} {label}")
               for taker, (call, name, zero_bad) in POINT_TAKERS.items()
               for label, x in {**BAD_POINTS, **({"zero": [0.0]} if zero_bad else {})}.items()]


@pytest.mark.parametrize("call, name, x", POINT_CASES)
def test_bad_points_raise_value_error_naming_them(delta1, call, name, x):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(delta1, x)


@pytest.mark.parametrize("route", ["auto", "series", "inversion"])
def test_evaluate_names_tol_before_the_engine(delta1, monkeypatch, route):
    """A bad tol costs no engine build: each route once built one before u_series or the contour refused it."""
    from subpot import density

    monkeypatch.setattr(density, "ConvolutionEngine", None)  # any engine call would raise TypeError
    with pytest.raises(ValueError, match=r"^tol must be a finite number > 0, got nan"):
        evaluate(delta1, [0.3, 2.0], tol=nan, route=route, derivatives=False)


# the split order N, the derivative order and k_max: (call on the unit atom with the bad value, the argument's name);
# a float is refused even when integral, as is a bool, which Python counts as an int
COUNT_CASES = {
    f"{taker} {label}": (call, name, value)
    for taker, (call, name) in {
        "invert_density N": (lambda m, v: invert_density(m, 2.0, N=v), "N"),
        "invert_derivative_pair N": (lambda m, v: invert_derivative_pair(m, 2.0, N=v), "N"),
        "derivative_zero_contour N": (lambda m, v: derivative_zero_contour(m, 2.0, N=v), "N"),
        "evaluate N": (lambda m, v: evaluate(m, 2.0, N=v, derivatives=False), "N"),
        "evaluate series N": (lambda m, v: evaluate(m, 0.3, N=v, route="series", derivatives=False), "N"),
        "invert_derivative_pair order": (lambda m, v: invert_derivative_pair(m, 2.0, order=v), "order"),
        "classify_point k_max": (lambda m, v: classify_point(m, 2, k_max=v), "k_max"),
    }.items()
    for label, value in {"1.5": 1.5, "2.5": 2.5, "3.0": 3.0, "True": True, "0": 0}.items()
}


@pytest.mark.parametrize("call, name, value", COUNT_CASES.values(), ids=COUNT_CASES)
def test_bad_counts_raise_value_error_naming_them(delta1, call, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {value!r}$"):
        call(delta1, value)


def test_numpy_integer_counts_accepted(delta1):
    assert invert_density(delta1, 2.0, N=np.int64(3)) == invert_density(delta1, 2.0, N=3)
    assert classify_point(delta1, 2, k_max=np.int32(2)) == classify_point(delta1, 2, k_max=2)


@pytest.mark.parametrize("x", [[[0.5, 1.5]], [], [nan]], ids=["2-D", "empty", "nan"])
def test_mass_scale_refuses_what_it_cannot_clip(delta1, x):
    """mass_scale holds x <= 0 at m = 0 and x past the horizon at m(x_max), so only these are refused."""
    with pytest.raises(ValueError, match=r"^x must be "):
        ConvolutionEngine(delta1, 2.0).mass_scale(x)


@pytest.mark.parametrize("x", [nan, inf, 0.0])
@pytest.mark.parametrize("call", [lambda m, x: classify_point(m, x), lambda m, x: first_passage(m, x, seed=1)],
                         ids=["classify_point", "first_passage"])
def test_scalar_point_takers_name_x(delta1, call, x):
    with pytest.raises(ValueError, match=r"^x must be a finite number > 0, got "):
        call(delta1, x)


@pytest.mark.parametrize("x", ["abc", "1/0", "1e400"])
def test_classify_point_names_an_x_it_cannot_read(delta1, x):
    with pytest.raises(ValueError, match=r"^x must be a finite number > 0, got "):
        classify_point(delta1, x)


def test_bv_split_needs_two_nodes(delta1):
    """Its last node is x_max, where the extension past the radius reads its stopping term."""
    for n_nodes in (0, 1):
        with pytest.raises(ValueError, match=r"^n_nodes must be >= 2, got "):
            bv_split(delta1, 0.3, n_nodes=n_nodes)


def test_atom_sums_rejects_nan_x_max_by_name(delta1):
    with pytest.raises(ValueError, match=r"^x_max must be a number > 0, got nan$"):
        atom_sums(delta1.atomic, 2, nan)


def test_no_atom_sum_is_a_member_at_a_non_finite_value(delta1):
    """|v - inf| <= 1e-12 * max(1, inf) holds for every v; inf and nan must match no entry."""
    atoms = [{"x": 1, "mass": 0.5}, {"x": math.sqrt(2), "mass": 1.0}]
    irrational = model_from_dict({"drift": 1.0, "atoms": atoms, "ac": {"kind": "none"}})
    for model, exact_mode in ((delta1, True), (irrational, False)):
        sums = atom_sums(model.atomic, 3, inf)
        assert sums.exact_mode is exact_mode and sums.member(sums.entries[-1].value) is sums.entries[-1]
        assert [sums.member(v) for v in (inf, -inf, nan)] == [None, None, None]


def test_atom_sums_takes_an_infinite_x_max():
    """x_max = inf means no pruning: every sum of 1 or 2 of the 2 atoms."""
    atoms = [{"x": 1, "mass": 0.5}, {"x": math.sqrt(2), "mass": 1.0}]
    model = model_from_dict({"drift": 1.0, "atoms": atoms, "ac": {"kind": "none"}})
    assert len(atom_sums(model.atomic, 2, inf).entries) == 5



def test_atom_sums_takes_an_infinite_x_max_with_rational_atoms(delta1):
    """Every atom rational (exact mode): inf once raised OverflowError from Fraction(inf)."""
    sums = atom_sums(delta1.atomic, 2, inf)
    assert sums.exact_mode and [e.value for e in sums.entries] == [1.0, 2.0]
