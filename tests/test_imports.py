"""What ``import subpot`` loads, and what an atom-only command adds to it.

scipy.special is needed only for an absolutely continuous tail, numpy.random
only for simulation, and numpy.polynomial only for the Gauss-Legendre
tables, so none of them is loaded by ``import subpot``.  The package's
public names resolve on first read, so ``import subpot`` plus ``load_model``
loads only the model layer, and hashlib waits for ``model_hash``.  This
test session has imported scipy and all of subpot itself, so each check of
what is loaded runs in a fresh interpreter.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import subpot
from subpot import convolve

UNIT_ATOM = {"drift": 1.0, "q": 0.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "none"}}
STABLE = {"drift": 1.0, "q": 0.0, "atoms": [], "ac": {"kind": "stable", "C": 1.0, "alpha": 0.5}}
FAMILY = {"drift": 2.0, "q": 0.0, "ac": {"kind": "none"},
          "atom_family": {"kind": "reciprocal-integers", "cap": 8, "masses": [j ** -1.25 for j in range(1, 9)]}}
SUBMODULES = ("asymptotics", "convolve", "density", "errors", "inversion", "model", "piecewise", "simulate",
              "smoothness", "_special")
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
    for name, doc in (("atom", UNIT_ATOM), ("stable", STABLE), ("family", FAMILY)):
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


def test_load_model_loads_only_the_model_layer(models):
    code = """
import json, sys
import subpot
for name in ("atom", "stable", "family"):
    subpot.load_model(name + ".json")
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "subpot"), "hashlib" in sys.modules]))
"""
    assert fresh(code, models) == [["subpot", "subpot._special", "subpot.errors", "subpot.model"], False]


def test_submodules_resolve_after_a_plain_import(tmp_path):
    code = f"""
import json
import subpot
print(json.dumps([getattr(subpot, name).__name__ for name in {SUBMODULES!r}]))
"""
    assert fresh(code, tmp_path) == [f"subpot.{name}" for name in SUBMODULES]


def test_every_public_name_is_its_modules_object():
    assert len(subpot.__all__) == 47
    for name in subpot.__all__:
        value = getattr(subpot, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from subpot import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == subpot.__all__
    assert all(namespace[name] is getattr(subpot, name) for name in subpot.__all__)


def test_dir_lists_the_public_names_submodules_and_version():
    assert {*subpot.__all__, *SUBMODULES, "__version__"} <= set(dir(subpot))


def test_public_names_follow_a_patch_of_their_module(monkeypatch):
    """The package caches nothing, so patching a module, and undoing it, shows through."""
    original = subpot.u_series
    with monkeypatch.context() as patch:
        patch.setattr(subpot.density, "u_series", len)
        assert subpot.u_series is len
    assert subpot.u_series is original


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        subpot.nope


@pytest.mark.parametrize("name, digest", [("atom", "063d3b155ec5df4a"), ("stable", "669d1a67cf6e7234")])
def test_validate_prints_the_same_hash(models, capsys, name, digest):
    from subpot.cli import main

    assert main(["validate", "--model", str(models / f"{name}.json")]) == 0
    assert json.loads(capsys.readouterr().out)["hash"] == digest
