"""What ``import subpot`` loads, and what an atom-only command adds to it.

scipy.special is needed only for an absolutely continuous tail, numpy.random
only for simulation, and numpy.polynomial only for the Gauss-Legendre
tables, so none of them is loaded by ``import subpot``.  This test session
has imported scipy itself, so each check runs in a fresh interpreter.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from subpot import convolve

UNIT_ATOM = {"drift": 1.0, "q": 0.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "none"}}
STABLE = {"drift": 1.0, "q": 0.0, "atoms": [], "ac": {"kind": "stable", "C": 1.0, "alpha": 0.5}}
DEFERRED = ("scipy", "scipy.special", "numpy.random", "numpy.polynomial")


def fresh(code: str, cwd) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON document as its last line."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(setup: str, cwd) -> list:
    """The modules of DEFERRED that are loaded after ``setup`` runs in a fresh interpreter."""
    return fresh(f"import json, sys\n{setup}\nprint(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))", cwd)


@pytest.fixture
def models(tmp_path):
    for name, doc in (("atom", UNIT_ATOM), ("stable", STABLE)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return tmp_path


def cli_calls(*argvs) -> str:
    """Code that runs each argv through ``cli.main`` and asserts exit 0."""
    return "from subpot.cli import main\n" + "".join(f"assert main({list(a)!r}) == 0\n" for a in argvs)


def test_import_loads_none_of_them(tmp_path):
    assert loaded_after("import subpot", tmp_path) == []


def test_atom_only_commands_leave_scipy_unloaded(models):
    code = cli_calls(
        ["eval", "--model", "atom.json", "--x", "0.5:2.5:5", "--out", "eval.csv"],
        ["crosscheck", "--model", "atom.json", "--lambda", "1,3", "--out", "crosscheck.csv"],
        ["simulate", "--model", "atom.json", "--x", "0.5,1.5", "--paths", "1000", "--seed", "7",
         "--out", "simulate.csv"],
    )
    assert [m for m in loaded_after(code, models) if m.startswith("scipy")] == []
    assert (models / "eval.csv").read_text().count("\n") == 6


def test_a_tail_loads_scipy_special(models):
    code = cli_calls(["eval", "--model", "stable.json", "--x", "0.5,1.5", "--out", "eval.csv"])
    assert "scipy.special" in loaded_after(code, models)


def test_special_names_are_scipys_own_functions(tmp_path):
    code = """
import json
import scipy.special
from subpot import _special
names = sorted(_special._NAMES)
print(json.dumps({n: getattr(_special, n) is getattr(scipy.special, n) for n in names}))
"""
    same = fresh(code, tmp_path)
    assert sorted(same) == ["betaln", "gamma", "gammainc", "gammaln", "hyp1f1"]
    assert all(same.values())


def test_special_rejects_other_names():
    from subpot import _special

    with pytest.raises(AttributeError, match="erf"):
        _special.erf


@pytest.mark.parametrize("n", [15, 20])
def test_gauss_legendre_tables_are_leggauss_bit_for_bit(n):
    nodes, weights = convolve._gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
