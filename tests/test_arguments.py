"""A bad tol or x at a library entry point raises ValueError naming it.

Not a value, a ZeroDivisionError, an AccuracyFailureError (the CLI's exit
3, which means a computation missed its target) or a message that names
an argument the caller never passed.
"""

import math

import pytest

from subpot import (
    atom_sums,
    bv_split,
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
    "laplace_crosscheck tol nan": (lambda m: laplace_crosscheck(m, [1.0], tol=nan), "tol"),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES)
def test_bad_argument_raises_value_error_naming_it(delta1, call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number >=? 0, got "):
        call(delta1)


def test_atom_sums_rejects_nan_x_max_by_name(delta1):
    with pytest.raises(ValueError, match=r"^x_max must be a number > 0, got nan$"):
        atom_sums(delta1.atomic, 2, nan)


def test_atom_sums_takes_an_infinite_x_max():
    """x_max = inf means no pruning: every sum of 1 or 2 of the 2 atoms."""
    atoms = [{"x": 1, "mass": 0.5}, {"x": math.sqrt(2), "mass": 1.0}]
    model = model_from_dict({"drift": 1.0, "atoms": atoms, "ac": {"kind": "none"}})
    assert len(atom_sums(model.atomic, 2, inf).entries) == 5



def test_atom_sums_takes_an_infinite_x_max_with_rational_atoms(delta1):
    """Every atom rational (exact mode): inf once raised OverflowError from Fraction(inf)."""
    sums = atom_sums(delta1.atomic, 2, inf)
    assert sums.exact_mode and [e.value for e in sums.entries] == [1.0, 2.0]
