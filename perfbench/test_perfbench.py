"""Tests of the benchmark's own parts: oracles, tracer and printed metrics.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

UNIT = {"drift": 1.0, "q": 0.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "none"}}
TEMPERED = {"drift": 1.0, "q": 0.3, "atoms": [], "ac": {"kind": "tempered", "C": 0.8, "alpha": 0.4, "b": 1.5}}
MIXED = {"drift": 1.0, "q": 0.0, "atoms": [{"x": 1, "mass": 0.7}], "ac": {"kind": "stable", "C": 0.2, "alpha": 0.4}}


def _unit_atom_closed_form(x: float) -> mp.mpf:
    """u(x) = e^{-x} + sum_{i<=x} (x-i)^i / i! e^{-(x-i)}, as in tests/conftest.py."""
    with mp.workdps(oracles.DPS):
        x = mp.mpf(x)
        return mp.exp(-x) + mp.fsum((x - i) ** i / mp.factorial(i) * mp.exp(-(x - i))
                                    for i in range(1, int(mp.floor(x)) + 1))


# -- oracles ---------------------------------------------------------------


@pytest.mark.parametrize("x", [0.3, 1.0, 1.05, 2.5, 7.3, 14.2, 29.9])
def test_poisson_sum_is_the_unit_atom_formula(x):
    assert abs(oracles.density(UNIT, x) - _unit_atom_closed_form(x)) < mp.mpf(10) ** (2 - oracles.DPS)


def test_poisson_sum_has_the_right_laplace_transform():
    doc = {"drift": 1.3, "q": 0.2, "atoms": [{"x": "1/2", "mass": 0.6}, {"x": 1.25, "mass": 0.9}],
           "ac": {"kind": "none"}}
    lam, end = 3.0, 12.0
    # every atom sum is a multiple of 1/4: integrate between them, never across a kink
    edges = [k / 4 for k in range(int(4 * end) + 1)]
    with mp.workdps(20):
        integral = mp.fsum(mp.quad(lambda x: mp.exp(-lam * x) * oracles.density(doc, float(x)), [lo, hi])
                           for lo, hi in zip(edges, edges[1:]))
        tail = mp.exp(-lam * end) / (1.3 * lam)  # u <= 1/drift beyond the last edge
        assert abs(integral - oracles.transform(doc, lam)) < tail + mp.mpf(10) ** -15


@pytest.mark.parametrize("doc", [TEMPERED, MIXED], ids=["tempered", "mixed"])
def test_talbot_meets_the_stated_accuracy(doc, monkeypatch):
    xs = (0.05, 0.7, 1.6)
    values = [oracles.density(doc, x) for x in xs]
    monkeypatch.setattr(oracles, "DPS", oracles.DPS + 10)
    for x, value in zip(xs, values):
        finer = oracles.density(doc, x)
        assert abs(value - finer) <= oracles.REL_ACCURACY * abs(finer)


def test_talbot_agrees_with_u_series_inside_the_radius():
    from subpot import model_from_dict, u_series

    model = model_from_dict(TEMPERED)
    radius = oracles.series_radius(TEMPERED)
    for x in (0.05 * radius, 0.5 * radius, 0.9 * radius):
        value, bound, _ = u_series(model, x, tol=1e-12)
        exact = oracles.density(TEMPERED, x)
        assert abs(value - exact) <= bound + oracles.ulp_floor(exact)


def test_series_radius_is_where_the_contraction_factor_is_one_half():
    from subpot import model_from_dict, series_radius

    model = model_from_dict(TEMPERED)
    assert oracles.series_radius(TEMPERED) == pytest.approx(series_radius(model, 10.0), rel=1e-9)


def test_atom_sum_table_by_hand():
    assert oracles.atom_sum_table(UNIT, 3, 10) == {1: (1, 1), 2: (2, 1), 3: (3, 1)}
    doc = {"drift": 1.0, "atoms": [{"x": "1/2", "mass": 1.0}, {"x": 1, "mass": 1.0}]}
    table = oracles.atom_sum_table(doc, 2, 2)
    assert table[Fraction(1)] == (1, 1)
    assert table[Fraction(3, 2)] == (2, 2)  # (1/2, 1) and (1, 1/2)


# -- workloads ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    assert WORKLOADS[name](7) == WORKLOADS[name](7)
    assert WORKLOADS[name](7) != WORKLOADS[name](8)


def test_check_flags_a_wrong_density():
    op = Op("eval", "unit", ["--x", "0.5,1.5", "--tol", "1e-7", "--format", "json"], 1e-7)
    ref = checks.expected(op, UNIT)
    rows = [{"x": x, "u": float(v), "du_left": None, "du_right": -0.5, "err_est": 1e-9, "method": "volterra"}
            for x, v in zip(checks.x_values(op), ref)]
    assert not checks.check(op, 0, json.dumps(rows), ref).failed
    rows[1]["u"] += 1e-4
    assert checks.check(op, 0, json.dumps(rows), ref).failed
    rows[1]["u"] = math.nan
    assert checks.check(op, 0, json.dumps(rows), ref).failed
    assert checks.check(op, 3, None, ref).failed


# -- tracer --------------------------------------------------------------------

TRACED_OPS = [
    ("eval", UNIT, ["--x", "0.25:3:12"]),
    ("eval", TEMPERED, ["--x", "0.01:0.1:5", "--route", "series", "--no-derivatives", "--format", "json"]),
    ("invert", MIXED, ["--x", "0.5,1.5", "--no-derivatives"]),
    ("crosscheck", UNIT, ["--lambda", "10"]),
    ("gk", UNIT, ["--k", "3", "--xmax", "4"]),
    ("smoothness", UNIT, ["--x", "2", "--kmax", "3"]),
    ("simulate", UNIT, ["--x", "0.5,1.5", "--paths", "2000", "--seed", "3"]),
]


def _run_cli(tmp_path, command, doc, args, tag):
    import subpot.cli

    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / f"{tag}.out"
    assert subpot.cli.main([command, "--model", str(model), *args, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("command,doc,args", TRACED_OPS, ids=[op[0] for op in TRACED_OPS])
def test_traced_output_is_byte_identical(tmp_path, command, doc, args):
    import subpot.cli
    import subpot.density

    plain = _run_cli(tmp_path, command, doc, args, "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_cli(tmp_path, command, doc, args, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    calls = tracer.summary()
    assert calls["cli.main"][0] == 1
    assert subpot.cli.u_series is subpot.density.u_series
    assert not hasattr(subpot.cli.main, "__wrapped__")


def test_tracer_catches_internal_calls_and_self_time(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        _run_cli(tmp_path, "eval", UNIT, ["--x", "0.25:3:12"], "t")
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # cli.py imports u_volterra by name; the march calls the model's moments
    assert summary["density.u_volterra"][0] >= 1
    assert summary["model.LevyModel.tail_antiderivative"][0] > 100
    a = tracer.arrays()
    total = float((a["end"] - a["start"])[a["parent"] < 0].sum())
    assert sum(s for _, s in summary.values()) == pytest.approx(total, rel=1e-9)


# -- printed metrics -------------------------------------------------------------


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    proc = subprocess.run(
        [*command, "--workload", "contour-mc", "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for metric in spec[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
