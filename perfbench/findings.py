"""Reproduce the two accuracy findings recorded when the benchmark was defined.

Run from the root of a source checkout (takes about half a minute):

    python3 perfbench/findings.py

* the unit atom, ``eval --x 0.05:30:300``: rows whose error exceeds the
  reported ``err_est`` (plus the roundoff floor), and where they sit, for
  the exact doubles of ``--format json`` and again for the default CSV,
  whose %.12e rounding of u is not part of ``err_est``;
* the tempered tail with alpha = 0.7, b = 2 and killing q = 0.2,
  ``eval --x 0.02:1:40`` at tol 1e-7: the largest error and the
  under-reported rows.

Both use the checks and oracles of the benchmark itself.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
from workloads import Op  # noqa: E402

CASES = {
    "unit atom": (
        {"drift": 1.0, "q": 0.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "none"}},
        "0.05:30:300",
    ),
    "tempered alpha=0.7 b=2 q=0.2": (
        {"drift": 1.0, "q": 0.2, "atoms": [], "ac": {"kind": "tempered", "C": 1.0, "alpha": 0.7, "b": 2.0}},
        "0.02:1:40",
    ),
}


def main() -> int:
    from subpot.cli import main as cli

    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for label, (doc, xs) in CASES.items():
            model, out = Path(tmp) / "model.json", Path(tmp) / "out.json"
            model.write_text(json.dumps(doc))
            op = Op("eval", "model", ["--x", xs, "--tol", "1e-7", "--format", "json"], 1e-7)
            rc = cli([op.command, "--model", str(model), *op.args, "--out", str(out)])
            result = checks.check(op, rc, out.read_text() if out.exists() else None,
                                  checks.expected(op, doc))
            if result.failed:
                print(f"{label}: failed: {result.reason}")
                continue
            under = [(x, r) for x, r in zip(checks.x_values(op), result.rows) if r.underreported]
            worst = max(result.rows, key=lambda r: r.err)
            print(f"{label}: max |u - oracle| = {worst.err:.3e} ({worst.err / op.tol:.3g} x tol), "
                  f"{len(under)}/{len(result.rows)} rows under-reported")
            for x, r in under:
                print(f"    x = {x:.6g}: error {r.err:.3e} > err_est {r.err_est:.3e}")
        _unit_atom_csv(cli, Path(tmp))
    return 0


def _unit_atom_csv(cli, tmp: Path) -> None:
    doc, xs = CASES["unit atom"]
    model, out = tmp / "model.json", tmp / "out.csv"
    model.write_text(json.dumps(doc))
    cli(["eval", "--model", str(model), "--x", xs, "--tol", "1e-7", "--out", str(out)])
    op = Op("eval", "model", ["--x", xs], 1e-7)
    under = []
    for line, exact in zip(out.read_text().splitlines()[1:], checks.expected(op, doc)):
        x, u, _, _, err_est, _ = line.split(",")
        if abs(float(u) - float(exact)) > float(err_est) + oracles.ulp_floor(exact):
            under.append(float(x))
    print(f"unit atom, CSV output: {len(under)}/{len(checks.x_values(op))} rows under-reported, "
          f"{sum(x > 14 for x in under)} of them at x > 14")


if __name__ == "__main__":
    sys.exit(main())
