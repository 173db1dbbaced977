import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from subpot.cli import main
from conftest import delta1_du, delta1_u, oracles, talbot_du

DELTA1 = {"drift": 1.0, "q": 0.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "none"}}
STABLE = {"drift": 1.0, "q": 0.0, "atoms": [], "ac": {"kind": "stable", "C": 1.0, "alpha": 0.5}}


@pytest.fixture
def delta1_path(tmp_path):
    p = tmp_path / "delta1.json"
    p.write_text(json.dumps(DELTA1))
    return str(p)


@pytest.fixture
def stable_path(tmp_path):
    p = tmp_path / "stable.json"
    p.write_text(json.dumps(STABLE))
    return str(p)


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "subpot.cli", *args],
        capture_output=True, text=True, **kwargs,
    )


class TestValidate:
    def test_valid_model(self, delta1_path, capsys):
        assert main(["validate", "--model", delta1_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] and doc["atoms"] == 1

    def test_zero_drift_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"drift": 0.0, "ac": {"kind": "none"}}))
        assert main(["validate", "--model", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert any("drift" in v["pointer"] for v in err["violations"])

    def test_bad_alpha_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad2.json"
        p.write_text(json.dumps({"drift": 1.0, "ac": {"kind": "stable", "C": 1.0, "alpha": 1.2}}))
        assert main(["validate", "--model", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert any("alpha" in v["pointer"] for v in err["violations"])

    @pytest.mark.parametrize("text, pointer", [
        ('{"drift": true}', "/drift"),
        ('{"drift": 1.0, "q": Infinity}', "/q"),
        ('{"drift": 1.0, "atoms": [{"x": 1, "mass": Infinity}]}', "/atoms/0/mass"),
        ('{"drift": 1.0, "ac": {"kind": "stable", "C": Infinity, "alpha": 0.5}}', "/ac/C"),
    ])
    def test_non_finite_and_boolean_numbers_rejected(self, tmp_path, capsys, text, pointer):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["validate", "--model", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert [v["pointer"] for v in err["violations"]] == [pointer]


class TestEval:
    def test_csv_columns_and_values(self, delta1_path, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", delta1_path, "--x", "0.25:5:20", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,u,du_left,du_right,err_est,method"
        for line in lines[1:]:
            x, u, dul, dur, err, method = line.split(",")
            assert float(u) == pytest.approx(delta1_u(float(x)), abs=5e-6)
            assert method in ("series", "inversion")

    def test_geometric_spacing(self, delta1_path, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", delta1_path, "--x", "0.1:4:5", "--spacing", "geometric",
                     "--no-derivatives", "--format", "json", "--out", str(out)]) == 0
        assert [row["x"] for row in json.loads(out.read_text())] == np.geomspace(0.1, 4.0, 5).tolist()
        assert main(["eval", "--model", delta1_path, "--x", "0:10:5", "--spacing", "geometric"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert [v["pointer"] for v in err["violations"]] == ["--x"]

    def test_inversion_route(self, delta1_path, tmp_path):
        out = tmp_path / "inv.csv"
        assert main([
            "invert", "--model", delta1_path, "--x", "0.5,1.5", "--order", "3",
            "--no-derivatives", "--out", str(out),
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            x, u, *_ , method = row.split(",")
            assert method == "inversion"
            assert float(u) == pytest.approx(delta1_u(float(x)), abs=1e-6)

    @pytest.mark.parametrize("extra, method", [
        ([], "series"),
        (["--no-derivatives"], "series"),
        (["--route", "inversion", "--order", "3"], "inversion"),
    ])
    def test_one_engine_per_eval(self, delta1_path, tmp_path, monkeypatch, extra, method):
        # every x lies inside the series radius (x <= 1/2 for the unit atom),
        # and derivatives come from the contour
        import subpot.cli as cli

        engines = []
        init = cli.ConvolutionEngine.__init__
        monkeypatch.setattr(cli.ConvolutionEngine, "__init__",
                            lambda self, *a, **k: engines.append(a) or init(self, *a, **k))
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", delta1_path, "--x", "0.1:0.45:4", *extra, "--out", str(out)]) == 0
        assert len(engines) == 1
        assert all(row.endswith("," + method) for row in out.read_text().strip().splitlines()[1:])

    @pytest.mark.parametrize("route, xs, methods", [
        ("auto", "0.1:3:6", {"series", "inversion"}),
        ("series", "0.1:0.45:4", {"series"}),
        ("inversion", "0.1:3:6", {"inversion"}),
    ])
    def test_eval_methods_per_route(self, delta1_path, tmp_path, route, xs, methods):
        # rows past the series radius go to the contour
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", delta1_path, "--x", xs, "--route", route, "--out", str(out)]) == 0
        assert {row.rsplit(",", 1)[1] for row in out.read_text().strip().splitlines()[1:]} == methods


    def test_invert_runs_one_contour_per_quantity(self, delta1_path, tmp_path, monkeypatch):
        # the density and the derivative pair: two contour integrals per
        # command, each serving every x
        import subpot.inversion as inversion

        calls = []
        integral = inversion._contour_integral
        monkeypatch.setattr(inversion, "_contour_integral",
                            lambda *a: calls.append(a[1].tolist()) or integral(*a))
        out = tmp_path / "inv.csv"
        assert main(["invert", "--model", delta1_path, "--x", "0.5,1.5,2.5", "--out", str(out)]) == 0
        assert calls == [[0.5, 1.5, 2.5], [0.5, 1.5, 2.5]]

    def test_invert_far_out_on_killed_atom_tempered(self, tmp_path):
        # once a RecursionError in the cross-term cells: exit 1 with a traceback
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"drift": 1.3, "q": 0.3, "atoms": [{"x": 0.8, "mass": 0.5}],
                                     "ac": {"kind": "tempered", "C": 0.7, "alpha": 0.6, "b": 1.5}}))
        out = tmp_path / "inv.json"
        assert main(["invert", "--model", str(model), "--x", "20", "--format", "json", "--out", str(out)]) == 0
        (row,) = json.loads(out.read_text())
        assert all(math.isfinite(row[k]) for k in ("u", "du_left", "du_right", "err_est"))

    @pytest.mark.parametrize("argv", [
        ["eval", "--x", "nan", "--no-derivatives"],
        ["eval", "--x", "inf"],
        ["eval", "--x", "0.5:inf:4"],
        ["eval", "--x", "0.5,abc"],
        ["invert", "--x", "nan"],
        ["simulate", "--x", "nan", "--paths", "10"],
        ["simulate", "--x=-inf:1:3", "--paths", "10"],
    ])
    def test_non_finite_x_rejected(self, delta1_path, capsys, argv):
        assert main([argv[0], "--model", delta1_path, *argv[1:]]) == 2
        err = json.loads(capsys.readouterr().err)
        assert [v["pointer"] for v in err["violations"]] == ["--x"]

    @pytest.mark.parametrize("extra, pointer", [
        (["--q", "-0.5"], "--q"),
        (["--q", "nan"], "--q"),
        (["--eps", "nan"], "--eps"),
        (["--eps", "inf"], "--eps"),
        (["--eps", "-1"], "--eps"),
        (["--paths", "0"], "--paths"),
        (["--x", "0"], "--x"),
    ])
    def test_simulate_inputs_rejected(self, delta1_path, capsys, monkeypatch, extra, pointer):
        from subpot import simulate

        monkeypatch.setattr(simulate, "_passage", lambda *a: pytest.fail("a path was simulated"))
        argv = {"--x": "0.5", "--paths": "10", **dict(zip(extra[::2], extra[1::2]))}
        assert main(["simulate", "--model", delta1_path, *[v for kv in argv.items() for v in kv]]) == 2
        err = json.loads(capsys.readouterr().err)
        assert [v["pointer"] for v in err["violations"]] == [pointer]

    @pytest.mark.parametrize("argv, pointer", [
        (["invert", "--x", "0.5", "--theta-cut", "100"], "--theta-cut"),
        (["simulate", "--x", "0.5"], "--paths"),
        (["simulate", "--x", "0.5", "--paths", "abc"], "--paths"),
        # validate and smoothness print one JSON object, so they take no --format
        (["validate", "--format", "json"], "--format"),
        (["smoothness", "--x", "2", "--format", "csv"], "--format"),
    ])
    def test_usage_errors_are_json(self, delta1_path, capsys, argv, pointer):
        assert main([argv[0], "--model", delta1_path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert [v["pointer"] for v in err["violations"]] == [pointer]

    @pytest.mark.parametrize("argv, pointer", [
        (["simulate", "--x", "0.5", "--paths", "abc"], "--paths"),
        (["eval", "--x", "0.5,abc"], "--x"),
        (["simulate", "--x", "0", "--paths", "10"], "--x"),
    ])
    def test_flag_errors_say_argument(self, delta1_path, capsys, argv, pointer):
        assert main([argv[0], "--model", delta1_path, *argv[1:]]) == 2
        err = json.loads(capsys.readouterr().err)
        assert [v["pointer"] for v in err["violations"]] == [pointer]
        assert err["message"].startswith(f"invalid argument: {pointer}: ")

    def test_model_field_errors_say_model(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"drift": true}')
        assert main(["validate", "--model", str(p)]) == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith("invalid model: /drift: ")

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: subpot simulate")

    @pytest.mark.parametrize("extra", [["--route", "series"], ["--route", "series", "--no-derivatives"], []])
    def test_one_series_call_per_eval(self, delta1_path, tmp_path, monkeypatch, extra):
        # all points lie inside the unit atom's series radius 1/2
        import subpot.cli as cli
        from subpot import load_model, u_series

        calls = []
        series = cli.u_series
        monkeypatch.setattr("subpot.density.u_series", lambda *a, **k: calls.append(a[1]) or series(*a, **k))
        out = tmp_path / "eval.json"
        argv = ["eval", "--model", delta1_path, "--x", "0.05,0.3,0.1,0.45", *extra, "--format", "json"]
        assert main([*argv, "--out", str(out)]) == 0
        assert len(calls) == 1 and calls[0].tolist() == [0.05, 0.3, 0.1, 0.45]
        model = load_model(delta1_path)
        for row in json.loads(out.read_text()):
            u, err, _ = u_series(model, row["x"], tol=1e-7)
            assert (row["u"], row["err_est"], row["method"]) == (u, err, "series")

    def test_forced_series_outside_radius_cites_first_x(self, delta1_path, capsys):
        argv = ["eval", "--model", delta1_path, "--x", "0.2,0.7,0.4,0.8", "--route", "series"]
        assert main(argv) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "precondition" and "x=0.7:" in err["message"]

    @pytest.mark.parametrize("route", ["auto"])
    def test_only_x_zero(self, delta1_path, tmp_path, route):
        # the engine reaches the largest x, here 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", delta1_path, "--x", "0", "--route", route,
                     "--format", "json", "--out", str(out)]) == 0
        (row,) = json.loads(out.read_text())
        assert abs(row["u"] - 1.0) <= row["err_est"] and abs(row["du_right"] + 1.0) <= row["du_err"]


class TestEvalHonesty:
    """Printed error bars against independent oracles, with no additive slack."""

    def test_csv_err_est_covers_printed_digits(self, delta1_path, tmp_path):
        # u is printed to 13 significant digits; far out the contour's own error
        # is below that rounding, which the printed err_est must count
        csv, js = tmp_path / "eval.csv", tmp_path / "eval.json"
        argv = ["eval", "--model", delta1_path, "--x", "0.05:30:300"]
        assert main([*argv, "--out", str(csv)]) == 0
        assert main([*argv, "--format", "json", "--out", str(js)]) == 0
        rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
        assert len(rows) == 300
        under = [x for x, row in zip(np.linspace(0.05, 30, 300).tolist(), rows)
                 if abs(float(row[1]) - delta1_u(x)) > float(row[4])]
        assert under == []
        # a derivative prints as null exactly where its error exceeds its magnitude
        for row, doc in zip(rows, json.loads(js.read_text())):
            for col, key in ((2, "du_left"), (3, "du_right")):
                null = doc["du_err"] > abs(doc[key])
                assert (row[col] == "nan") == null
                assert null or float(row[col]) == float("%.12e" % doc[key])

    def test_derivatives_against_closed_form(self, delta1_path, tmp_path):
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", delta1_path, "--x", "0.05:20:200", "--tol", "1e-7",
                     "--format", "json", "--out", str(out)]) == 0
        rows = [r for r in json.loads(out.read_text()) if r["x"] != round(r["x"])]
        assert len(rows) == 199
        under = [r["x"] for r in rows
                 if max(abs(r["du_left"] - delta1_du(r["x"])), abs(r["du_right"] - delta1_du(r["x"]))) > r["du_err"]]
        assert under == []

    @pytest.mark.parametrize("doc", [
        {"drift": 1.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "stable", "C": 0.2, "alpha": 0.4}},
        {"drift": 1.0, "ac": {"kind": "tempered", "C": 1.0, "alpha": 0.5, "b": 1.0}},
        {"drift": 1.0, "ac": {"kind": "stable", "C": 1.0, "alpha": 0.5}},
    ], ids=["mixed", "tempered", "stable"])
    def test_derivatives_against_talbot(self, tmp_path, doc):
        # the inversion route only keeps the density cheap: derivatives come
        # from the same contour pair on every route; x = 1 is the mixed atom
        model, out = tmp_path / "m.json", tmp_path / "eval.json"
        model.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(model), "--x", "0.25:4:16", "--route", "inversion",
                     "--tol", "1e-7", "--format", "json", "--out", str(out)]) == 0
        under = []
        for r in json.loads(out.read_text()):
            left, right = talbot_du(doc, r["x"])
            if max(abs(r["du_left"] - left), abs(r["du_right"] - right)) > r["du_err"]:
                under.append(r["x"])
        assert under == []

    @pytest.mark.parametrize("doc, xs", [
        ({"drift": 1.0, "ac": {"kind": "stable", "C": 1.0, "alpha": 0.5}}, "0.05:20:10"),
        ({"drift": 1.0, "q": 0.2, "ac": {"kind": "stable", "C": 1.0, "alpha": 0.7}}, "0.5:20:10"),
        ({"drift": 1.0, "atoms": [{"x": 1, "mass": 0.5}], "ac": {"kind": "stable", "C": 0.3, "alpha": 0.5}},
         "0.05:5:10"),
        ({"drift": 1.3, "q": 0.3, "atoms": [{"x": 0.8, "mass": 0.5}],
          "ac": {"kind": "tempered", "C": 0.7, "alpha": 0.6, "b": 1.5}}, "0.05:3:10"),
        ({"drift": 1.0, "q": 0.2, "ac": {"kind": "tempered", "C": 1.0, "alpha": 0.7, "b": 2.0}}, "0.02:1:10"),
        (DELTA1, "0.05:30:10"),
    ], ids=["stable", "stable-0.7-killed", "atom-stable", "atom-tempered-killed", "tempered-killed", "unit-atom"])
    def test_default_route_against_oracle(self, tmp_path, doc, xs):
        # the default route on each side of the series radius; the floor
        # counts only the oracle's own accuracy and the double nearest it
        model, out = tmp_path / "m.json", tmp_path / "eval.json"
        model.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(model), "--x", xs, "--tol", "1e-7", "--no-derivatives",
                     "--format", "json", "--out", str(out)]) == 0
        under, over_tol = [], []
        for r in json.loads(out.read_text()):
            exact = oracles.density(doc, r["x"])
            err = abs(r["u"] - float(exact))
            if err > r["err_est"] + oracles.ulp_floor(exact):
                under.append(r["x"])
            if r["err_est"] <= 1e-7 < err:
                over_tol.append(r["x"])
        assert under == [] and over_tol == []

    def test_no_derivatives_has_no_error_bar(self, delta1_path, tmp_path):
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", delta1_path, "--x", "0.3,2.5", "--no-derivatives",
                     "--format", "json", "--out", str(out)]) == 0
        for r in json.loads(out.read_text()):
            assert r["du_left"] is r["du_right"] is r["du_err"] is None

    def test_pair_errors_set_the_exit_code(self, delta1_path, capsys):
        # no silent fallback: an order the pair cannot integrate exits 4
        assert main(["eval", "--model", delta1_path, "--x", "0.3", "--order", "1"]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "precondition"


class TestInputsRejectedUpFront:
    @pytest.mark.parametrize("argv, pointer", [
        (["eval", "--x", "1", "--tol", "nan"], "--tol"),
        (["eval", "--x", "1", "--tol", "-1"], "--tol"),
        (["invert", "--x", "1", "--tol", "inf"], "--tol"),
        (["invert", "--x", "1", "--tol", "0"], "--tol"),
        (["eval", "--x", "1", "--contour-lambda", "inf"], "--contour-lambda"),
        (["invert", "--x", "1", "--contour-lambda", "-1"], "--contour-lambda"),
        (["crosscheck", "--lambda", "-1"], "--lambda"),
        (["crosscheck", "--lambda", "1,nan"], "--lambda"),
        (["crosscheck", "--lambda", "1,abc"], "--lambda"),
        (["crosscheck", "--lambda", "1", "--tol", "inf"], "--tol"),
        (["crosscheck", "--lambda", "1", "--assert-tol", "nan"], "--assert-tol"),
        (["crosscheck", "--lambda", "1", "--assert-tol", "-1e-6"], "--assert-tol"),
        (["gk", "--k", "3", "--xmax", "inf"], "--xmax"),
        (["gk", "--k", "3", "--xmax", "nan"], "--xmax"),
        (["gk", "--k", "3", "--xmax", "0"], "--xmax"),
        (["conv", "--n", "2", "--xmax", "-1"], "--xmax"),
        (["conv", "--n", "2", "--xmax", "4", "--steps", "0"], "--steps"),
        (["conv", "--n", "2", "--xmax", "4", "--steps", "-5"], "--steps"),
        (["conv", "--n", "0", "--xmax", "4"], "--n"),
        (["gk", "--k", "0", "--xmax", "3"], "--k"),
        (["smoothness", "--x", "2", "--kmax", "-1"], "--kmax"),
        (["smoothness", "--x", "2", "--kmax", "0"], "--kmax"),
        (["asymptotics", "--law", "zero-series", "--n", "-1"], "--n"),
        (["eval", "--x", "1", "--order", "0"], "--order"),
        (["invert", "--x", "1", "--order", "-2"], "--order"),
        (["eval", "--x", "1", "--route", "volterra"], "--route"),
        (["smoothness", "--x", "1/0"], "--x"),
        (["smoothness", "--x", "abc"], "--x"),
        (["smoothness", "--x", "inf"], "--x"),
        (["smoothness", "--x", "nan"], "--x"),
        (["smoothness", "--x", "0"], "--x"),
        (["smoothness", "--x=-1/2"], "--x"),
        (["smoothness", "--x", "1e400"], "--x"),
        (["smoothness", "--x", "1e-400"], "--x"),
    ])
    def test_exit_2_before_any_work(self, delta1_path, capsys, monkeypatch, argv, pointer):
        import subpot.convolve as convolve
        import subpot.density as density

        monkeypatch.setattr(convolve.ConvolutionEngine, "__init__", lambda *a, **k: pytest.fail("engine built"))
        monkeypatch.setattr(density, "evaluate", lambda *a, **k: pytest.fail("density evaluated"))
        assert main([argv[0], "--model", delta1_path, *argv[1:]]) == 2
        err = json.loads(capsys.readouterr().err, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert [v["pointer"] for v in err["violations"]] == [pointer]


class TestUnreachableTolerance:
    """--tol 1e-300 on the unit atom: no split order fits, so invert exits 3."""

    ARGS = ["invert", "--x", "1", "--tol", "1e-300", "--no-derivatives"]

    def test_automatic_order_returns(self, delta1_path):
        # the bisection for Theta once overflowed a * b to inf and never stopped
        r = run_cli([self.ARGS[0], "--model", delta1_path, *self.ARGS[1:]], timeout=60)
        assert r.returncode == 3

    def test_infinite_achieved_is_null_in_strict_json(self, delta1_path, capsys):
        assert main([self.ARGS[0], "--model", delta1_path, *self.ARGS[1:], "--order", "3"]) == 3
        err = json.loads(capsys.readouterr().err, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert err["error"] == "accuracy" and err["achieved"] is None and err["target"] == 1e-300

    @pytest.mark.parametrize("order", [[], ["--order", "3"]], ids=["scan", "given"])
    def test_message_names_the_panels_the_cheapest_order_needs(self, delta1_path, capsys, order):
        # the order scan with --order 3 and without it: every order up to 16 is past the 400 000 panels
        assert main([self.ARGS[0], "--model", delta1_path, *self.ARGS[1:], *order]) == 3
        err = json.loads(capsys.readouterr().err, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert "the cheapest, N=16, needs 2.225e+18 panels against 400000 " in err["message"]
        assert err["achieved"] is None


class TestGk:
    def test_single_atom(self, delta1_path, capsys):
        assert main(["gk", "--model", delta1_path, "--k", "3", "--xmax", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(l.split(",")[0]) for l in lines[1:]]
        assert values == [1.0, 2.0, 3.0]


class TestSmoothness:
    def test_report(self, delta1_path, capsys):
        assert main(["smoothness", "--model", delta1_path, "--x", "2", "--kmax", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_k"] == 2
        assert doc["verdicts"][0] == {"k": 1, "differentiable": True}

    @pytest.mark.parametrize("x", ["2/1", "2.0", "2e0", " 4/2 "])
    def test_rational_and_decimal_x(self, delta1_path, capsys, x):
        assert main(["smoothness", "--model", delta1_path, "--x", "2", "--kmax", "3"]) == 0
        want = capsys.readouterr().out
        assert main(["smoothness", "--model", delta1_path, "--x", x, "--kmax", "3"]) == 0
        assert capsys.readouterr().out == want


class TestSimulate:
    def test_csv_and_seed_determinism(self, delta1_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--model", delta1_path, "--x", "0.5,1.5", "--paths", "20000", "--seed", "5"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text().strip().splitlines()[1:]
        p_half = float(rows[0].split(",")[2])
        assert p_half == pytest.approx(math.exp(-0.5), abs=0.02)

    def test_rows_in_input_order(self, delta1_path, capsys):
        # one pass serves unsorted and repeated x; each row is the row of a
        # run on that x alone
        args = ["simulate", "--model", delta1_path, "--paths", "3000", "--seed", "4", "--q", "0.3"]
        assert main([*args, "--x", "1.5,0.5,1.5,2.5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        alone = []
        for x in ("1.5", "0.5", "1.5", "2.5"):
            assert main([*args, "--x", x]) == 0
            alone.append(capsys.readouterr().out.splitlines()[1])
        assert rows == alone


class TestCrosscheck:
    def test_stable_lambda3(self, stable_path, capsys):
        assert main(["crosscheck", "--model", stable_path, "--lambda", "3", "--tol", "1e-6"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        diff = float(line.split(",")[3])
        assert diff < 1e-6

    def test_one_evaluate_for_every_lambda(self, delta1_path, capsys, monkeypatch):
        import subpot.density as density

        solves = []
        solve = density.evaluate
        monkeypatch.setattr(density, "evaluate", lambda *a, **k: solves.append(a[1]) or solve(*a, **k))
        assert main(["crosscheck", "--model", delta1_path, "--lambda", "1,3,10", "--tol", "1e-6"]) == 0
        assert len(solves) == 1
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [1.0, 3.0, 10.0]
        for lam, lhs, *_ in rows:
            lam = float(lam)
            assert abs(float(lhs) - 1.0 / (lam + 1.0 - math.exp(-lam))) <= 1e-6

    def test_assert_tol_exit_code(self, stable_path, capsys):
        assert main([
            "crosscheck", "--model", stable_path, "--lambda", "3",
            "--tol", "1e-6", "--assert-tol", "1e-15",
        ]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "accuracy"
        assert "achieved" in err


class TestAsymptoticsCommand:
    def test_infinite_mean_exit_4(self, stable_path, capsys):
        assert main(["asymptotics", "--model", stable_path, "--law", "du-infinity"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "precondition"

    def test_linear_zero_csv(self, delta1_path, tmp_path, capsys):
        out = tmp_path / "law.csv"
        assert main(["asymptotics", "--model", delta1_path, "--law", "linear-zero", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "x,lhs,rhs,ratio"
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"]

    @pytest.mark.parametrize("model", [
        STABLE,
        {"drift": 1.3, "q": 0.3, "atoms": [{"x": 0.8, "mass": 0.5}],
         "ac": {"kind": "tempered", "C": 0.7, "alpha": 0.6, "b": 1.5}},
    ], ids=["stable-half", "atom-tempered-killed"])
    def test_linear_zero_json_is_strict(self, tmp_path, capsys, model):
        # an infinite measure makes rhs inf in every row; JSON has no such
        # number, so the row says null, and the CSV keeps printing inf
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        argv = ["asymptotics", "--model", str(path), "--law", "linear-zero"]
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert doc["rows"] and all(row["rhs"] is None and math.isfinite(row["lhs"]) for row in doc["rows"])
        assert main(argv) == 0
        _, *lines, _ = capsys.readouterr().out.splitlines()
        assert len(lines) == len(doc["rows"]) and all(line.split(",")[2] == "inf" for line in lines)


class TestTableFormats:
    def test_non_finite_json_cells_are_null(self, capsys):
        from types import SimpleNamespace

        from subpot.cli import _emit_table

        _emit_table(SimpleNamespace(format="json", out=None), ("a", "b"),
                    [(1.5, math.inf), (-math.inf, 2), (math.nan, "x")])
        assert capsys.readouterr().out == '[{"a": 1.5, "b": null}, {"a": null, "b": 2}, {"a": null, "b": "x"}]\n'

    @pytest.mark.parametrize("argv", [
        ["gk", "--k", "3", "--xmax", "10"],
        ["conv", "--n", "2", "--xmax", "3", "--steps", "6"],
        ["simulate", "--x", "0.5,1.5", "--paths", "2000", "--seed", "3", "--q", "0.2"],
        ["crosscheck", "--lambda", "3,10", "--tol", "1e-6"],
    ])
    def test_json_rows_match_csv(self, delta1_path, capsys, argv):
        # the same keys as the CSV header, and values that the CSV prints
        # as %.12e (floats) or as they are (ints)
        assert main([argv[0], "--model", delta1_path, *argv[1:]]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert main([argv[0], "--model", delta1_path, *argv[1:], "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(lines) > 0
        for row, line in zip(rows, lines):
            assert ",".join(row) == header
            assert [("%.12e" % v if isinstance(v, float) else str(v)) for v in row.values()] == line.split(",")


class TestDeterminismAcrossThreadCaps:
    def test_byte_identical_csv_across_thread_env(self, delta1_path, tmp_path):
        outputs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}.csv"
            env = dict(os.environ, SUBPOT_THREADS=threads)
            r = run_cli(
                ["simulate", "--model", delta1_path, "--x", "0.5,1.5,2.5",
                 "--paths", "30000", "--seed", "7", "--out", str(out)],
                env=env,
            )
            assert r.returncode == 0, r.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_eval_byte_identical(self, delta1_path, tmp_path):
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"e{threads}.csv"
            env = dict(os.environ, SUBPOT_THREADS=threads)
            r = run_cli(
                ["eval", "--model", delta1_path, "--x", "0.25:3:40", "--out", str(out)],
                env=env,
            )
            assert r.returncode == 0, r.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_thread_cap_rejected(self, delta1_path):
        r = run_cli(
            ["validate", "--model", delta1_path],
            env=dict(os.environ, SUBPOT_THREADS="zero"),
        )
        assert r.returncode == 2


class TestCachedParser:
    """main builds the parser once per process; every later call must behave as with a fresh one."""

    def test_no_parser_built_after_the_first_call(self, delta1_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argvs = [
            ["validate"], ["gk", "--k", "2", "--xmax", "3"], ["eval", "--x", "0.25,2.5"],
            ["invert", "--x", "2.5"], ["conv", "--n", "2", "--xmax", "3", "--steps", "4"],
            ["asymptotics", "--law", "linear-zero"], ["smoothness", "--x", "2"],
            ["simulate", "--x", "1.5", "--paths", "100"], ["crosscheck", "--lambda", "3"], ["validate"],
        ]
        counts = []
        for argv in argvs:
            assert main([argv[0], "--model", delta1_path, *argv[1:]]) == 0
            counts.append(len(built))
        capsys.readouterr()
        assert counts == [counts[0]] * len(argvs)

    def test_outputs_equal_a_fresh_process(self, delta1_path, stable_path, capsysbinary):
        """eval (auto), invert, eval --route series, ... in one process print what fresh processes print.

        invert's route default ("inversion") must not reach eval, nor eval's ("auto") invert: the auto
        eval after invert prints a series row, and invert prints no series row.
        """
        argvs = [
            ["eval", "--model", delta1_path, "--x", "0.25,2.5"],
            ["invert", "--model", delta1_path, "--x", "0.25,2.5"],
            ["eval", "--model", delta1_path, "--x", "0.1,0.4", "--route", "series"],
            ["simulate", "--model", delta1_path, "--x", "0.5,1.5", "--paths", "2000", "--seed", "3"],
            ["smoothness", "--model", delta1_path, "--x", "2", "--kmax", "2", "--measure"],
            ["crosscheck", "--model", stable_path, "--lambda", "1,3"],
            ["eval", "--model", delta1_path, "--x", "0.25,2.5"],
        ]
        outs = []
        for argv in argvs:
            rc = main(argv)
            out, err = capsysbinary.readouterr()
            fresh = run_cli(argv)
            assert (rc, out, err) == (fresh.returncode, fresh.stdout.encode(), fresh.stderr.encode()), argv
            assert rc == 0, err
            outs.append(out)
        auto, invert, series = (out.decode().splitlines()[1:] for out in outs[:3])
        assert [r.rsplit(",", 1)[1] for r in auto] == ["series", "inversion"]
        assert [r.rsplit(",", 1)[1] for r in invert] == ["inversion", "inversion"]
        assert [r.rsplit(",", 1)[1] for r in series] == ["series", "series"]
        assert outs[-1] == outs[0]

    @pytest.mark.parametrize("argv, pointer", [
        (["eval", "--x", "0.5"], "--model"),
        (["eval", "--model", "{delta1}", "--x", "abc"], "--x"),
        (["nosuch", "--model", "{delta1}"], "command"),
    ], ids=["missing --model", "--x abc", "unknown command"])
    def test_usage_errors_after_a_good_call(self, delta1_path, capsysbinary, argv, pointer):
        argv = [a.format(delta1=delta1_path) for a in argv]
        assert main(["validate", "--model", delta1_path]) == 0
        capsysbinary.readouterr()
        rc = main(argv)
        out, err = capsysbinary.readouterr()
        fresh = run_cli(argv)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout.encode(), fresh.stderr.encode())
        assert rc == 2 and [v["pointer"] for v in json.loads(err)["violations"]] == [pointer]
