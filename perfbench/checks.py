"""Oracle values for each operation, and the checks of the CLI's output.

``expected`` runs before the timed region: it computes every reference
value an operation's output will be compared with.  ``check`` then parses
one output file and returns an ``OpResult``: whether the operation failed
and, for density rows, the actual error against the oracle together with
the error the program reported.

A failed operation is a nonzero exit code, a missing, malformed or
non-finite output value (a null one-sided derivative is counted apart, as
``du_unavailable``: the CLI writes it when a kink leaves too few grid nodes
for the one-sided fit), an exact result (atom sums, smoothness verdicts)
that differs from brute force, a density or transform value off its oracle
by more than ``GROSS_FACTOR`` times the requested tolerance, or a Monte
Carlo estimate more than ``Z_LIMIT`` standard errors (plus the documented
truncation bias bound) from its oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

import oracles
from workloads import Op

GROSS_FACTOR = 100.0
Z_LIMIT = 5.0
# the CSV writer prints %.12e: half a unit in the 13th significant digit
CSV_REL = 0.5e-12


@dataclass
class Row:
    """One density row: actual error against the oracle and reported error."""

    err: float
    err_est: float
    floor: float
    tol: float

    @property
    def underreported(self) -> bool:
        return self.err > self.err_est + self.floor


@dataclass
class OpResult:
    failed: bool = False
    reason: str = ""
    rows: list[Row] = field(default_factory=list)
    du_unavailable: int = 0


def _arg(op: Op, flag: str, default=None):
    return op.args[op.args.index(flag) + 1] if flag in op.args else default


def x_values(op: Op) -> list[float]:
    """The x grid exactly as the CLI builds it from ``--x``."""
    spec = _arg(op, "--x")
    parts = spec.split(":")
    if len(parts) == 3:
        return np.linspace(float(parts[0]), float(parts[1]), int(parts[2])).tolist()
    return [float(v) for v in spec.split(",")]


def expected(op: Op, doc: dict):
    """Reference values for ``op`` on the model document ``doc``."""
    if op.command in ("eval", "invert"):
        return [oracles.density(doc, x) for x in x_values(op)]
    if op.command == "crosscheck":
        return [oracles.transform(doc, float(v)) for v in _arg(op, "--lambda").split(",")]
    if op.command == "gk":
        return oracles.atom_sum_table(doc, int(_arg(op, "--k")), _arg(op, "--xmax"))
    if op.command == "smoothness":
        point = Fraction(_arg(op, "--x"))
        table = oracles.atom_sum_table(doc, int(_arg(op, "--kmax")), point)
        return table.get(point, (None, 0))[0]
    if op.command == "simulate":
        q = float(_arg(op, "--q", "0"))
        eps = float(_arg(op, "--eps", "0"))
        killed = dict(doc, q=q)
        out = []
        for x in x_values(op):
            p = float(doc["drift"] * oracles.density(killed, x))
            out.append((p, oracles.creep_bias_bound(killed, x, eps)))
        return out
    raise ValueError(f"no oracle for command {op.command!r}")


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def check(op: Op, rc: int, text: str | None, ref) -> OpResult:
    """Compare one operation's output with its oracle values."""
    if rc != 0:
        return OpResult(True, f"exit code {rc}")
    if text is None:
        return OpResult(True, "no output written")
    try:
        return _CHECKS[op.command](op, text, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return OpResult(True, f"unparseable output: {exc}")


def _check_density(op: Op, text: str, ref) -> OpResult:
    doc = json.loads(text)
    xs = x_values(op)
    if len(doc) != len(xs):
        return OpResult(True, f"{len(doc)} rows for {len(xs)} points")
    result = OpResult()
    for row, x, exact in zip(doc, xs, ref):
        # null marks a one-sided derivative the CLI could not form (too few
        # grid nodes between x and the nearest kink); a number must be finite
        derivs = [v for v in (row["du_left"], row["du_right"]) if v is not None]
        if "--no-derivatives" not in op.args:
            result.du_unavailable += 2 - len(derivs)
        if row["x"] != x or not _finite(row["u"], row["err_est"], *derivs):
            return OpResult(True, f"bad row {row}")
        err = float(abs(mp.mpf(row["u"]) - exact))
        if err > GROSS_FACTOR * op.tol:
            return OpResult(True, f"u({x}) off its oracle by {err:.3e}")
        result.rows.append(Row(err, row["err_est"], oracles.ulp_floor(exact), op.tol))
    return result


def _check_crosscheck(op: Op, text: str, ref) -> OpResult:
    rows = _csv(text, "lambda,lhs,rhs,abs_diff,tail_bound")
    if len(rows) != len(ref):
        return OpResult(True, f"{len(rows)} rows for {len(ref)} abscissas")
    for row, exact in zip(rows, ref):
        lhs, rhs = float(row[1]), float(row[2])
        if not _finite(*(float(v) for v in row)):
            return OpResult(True, f"non-finite row {row}")
        if abs(rhs - exact) > CSV_REL * abs(exact) + oracles.ulp_floor(exact):
            return OpResult(True, f"transform {rhs} differs from oracle {float(exact)}")
        if abs(lhs - exact) > GROSS_FACTOR * op.tol:
            return OpResult(True, f"grid transform {lhs} off its oracle {float(exact)}")
    return OpResult()


def _check_gk(op: Op, text: str, ref) -> OpResult:
    rows = _csv(text, "value,min_jumps,representations")
    if len(rows) != len(ref):
        return OpResult(True, f"{len(rows)} atom sums, brute force finds {len(ref)}")
    for row, (value, (jumps, reps)) in zip(rows, sorted(ref.items())):
        if row[0] != "%.12e" % float(value) or int(row[1]) != jumps or int(row[2]) != reps:
            return OpResult(True, f"atom sum {row} differs from {float(value)}, {jumps}, {reps}")
    return OpResult()


def _check_smoothness(op: Op, text: str, ref) -> OpResult:
    doc = json.loads(text)
    kmax = int(_arg(op, "--kmax"))
    verdicts = [{"k": k, "differentiable": ref is None or ref > k} for k in range(1, kmax + 1)]
    if doc["min_k"] != ref or doc["verdicts"] != verdicts:
        return OpResult(True, f"smoothness {doc} differs from min_k={ref}")
    return OpResult()


def _check_simulate(op: Op, text: str, ref) -> OpResult:
    rows = _csv(text, "x,q,p_hat,ci95,n_paths,eps,seed")
    paths = int(_arg(op, "--paths"))
    if len(rows) != len(ref):
        return OpResult(True, f"{len(rows)} rows for {len(ref)} points")
    for row, (p, bias) in zip(rows, ref):
        p_hat, ci95 = float(row[2]), float(row[3])
        if not _finite(p_hat, ci95) or int(row[4]) != paths or row[6] != _arg(op, "--seed"):
            return OpResult(True, f"bad row {row}")
        sigma = math.sqrt(p * (1.0 - p) / paths)
        if abs(p_hat - p) > Z_LIMIT * sigma + bias:
            return OpResult(True, f"p_hat {p_hat} vs oracle {p:.6f}: beyond {Z_LIMIT} sigma + bias {bias:.2e}")
    return OpResult()


_CHECKS = {
    "eval": _check_density,
    "invert": _check_density,
    "crosscheck": _check_crosscheck,
    "gk": _check_gk,
    "smoothness": _check_smoothness,
    "simulate": _check_simulate,
}
