"""Command-line interface.

The console script runs one command per process; ``main(argv)`` may also be
called many times in one process, and the argument parser is built on the
first call and shared by every later one (the console script builds it
once, as before).  Outputs are written atomically (temp file + rename)
with fixed %.12e float formatting so identical configurations produce
byte-identical artifacts.  The commands that print a table (eval, invert,
gk, conv, asymptotics, simulate, crosscheck) take --format csv|json: CSV
under a header row, or a JSON list of objects with the header's keys
(asymptotics puts them under "rows" of its verdict object), where a
non-finite float is null.  validate and
smoothness print one JSON object and take no --format.  Exit codes: 0 success, 2 model/argument
validation, 3 numerical-accuracy failure (the achieved error is printed),
4 precondition failure (wrong regime, budget, infinite mean).  Errors are
emitted as a single JSON object on stderr.

SUBPOT_THREADS caps worker parallelism; the current implementation
evaluates serially with fixed-order reductions, so the cap never changes
results (it exists so deployments can pin an upper bound).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction

import numpy as np

from .asymptotics import check_du_infinity, check_du_zero, check_linear_zero, check_zero_series
from .convolve import ConvolutionEngine, atom_sums
# u_series stays bound here: perfbench's test_traced_output_is_byte_identical checks cli.u_series
from .density import evaluate, laplace_crosscheck, u_series
from .errors import (
    AccuracyFailureError,
    ModelValidationError,
    PreconditionError,
)
from .model import Side, load_model
from .simulate import creep_prob, creep_prob_killed
from .smoothness import classify_point

_FMT = "%.12e"
# decimal arithmetic that rounds toward +inf, for error bars
_UP = Context(rounding=ROUND_CEILING)


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return _FMT % value


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".subpot-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _json_rows(keys, rows) -> list:
    """Rows as objects with those keys; a non-finite float, which JSON
    cannot hold, becomes null."""
    return [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in zip(keys, r)}
            for r in rows]


def _emit_table(args, keys, rows) -> None:
    """Rows as CSV under a header of keys (floats in ``_FMT``, ints and
    strings as they are), or under ``--format json`` as a list of objects
    with those keys (``_json_rows``)."""
    if args.format == "json":
        _emit(args, json.dumps(_json_rows(keys, rows), allow_nan=False) + "\n")
        return
    lines = [",".join(keys), *(",".join(_FMT % v if isinstance(v, float) else str(v) for v in r) for r in rows)]
    _emit(args, "\n".join(lines) + "\n")


def _parse_range(spec: str, spacing: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ModelValidationError([("--x", "expected min:max:steps or a comma list")])
    try:
        nums = [float(v) for v in (spec.split(",") if len(parts) == 1 else parts[:2])]
        steps = int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise ModelValidationError([("--x", f"not a number list or range: {spec!r}")])
    if not all(math.isfinite(v) for v in nums):
        raise ModelValidationError([("--x", "x values must be finite numbers")])
    if len(parts) == 1:
        return np.array(nums)
    lo, hi = nums
    if steps < 2:
        raise ModelValidationError([("--x", "steps must be >= 2")])
    if spacing == "geometric":
        if lo <= 0:
            raise ModelValidationError([("--x", "geometric spacing needs x_min > 0")])
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def _threads_cap() -> int:
    raw = os.environ.get("SUBPOT_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise ModelValidationError([("SUBPOT_THREADS", f"not an integer: {raw!r}")])
    if cap < 1:
        raise ModelValidationError([("SUBPOT_THREADS", "must be >= 1")])
    return cap


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    doc = {
        "valid": True,
        "hash": model.model_hash(),
        "drift": model.drift,
        "q": model.q,
        "atoms": len(model.atomic.locations),
        "ac": model.ac.kind,
        "bg_index": model.bg_index(),
        "mean": None if math.isinf(model.mean()) else model.mean(),
    }
    _emit(args, json.dumps(doc) + "\n")
    return 0


def _require_positive(*named) -> None:
    """Exit 2, pointing at each flag, unless every given value is unset or a finite number > 0."""
    bad = [(flag, "must be a finite number > 0") for flag, values in named
           if not all(v is None or (math.isfinite(v) and v > 0) for v in values)]
    if bad:
        raise ModelValidationError(bad)


def _fmt_up(value: Decimal) -> str:
    """``_FMT`` of a Decimal > 0, rounded up in the last printed digit instead of to nearest."""
    exp = value.adjusted()
    mant = value.scaleb(-exp, _UP).quantize(Decimal("1e-12"), context=_UP)
    if mant == 10:
        mant, exp = Decimal("1.000000000000"), exp + 1
    return f"{mant}e{exp:+03d}"


def _csv_row(x, u, du_l, du_r, err, method, du_err) -> str:
    # u is printed to 13 significant digits, so the printed err_est adds
    # half a unit of u's last digit; a derivative with no sure digit (its
    # error exceeds its magnitude) has no error column to say so, and
    # prints as null
    half_digit = Decimal(5).scaleb(int(_fmt(u).partition("e")[2]) - 13)
    du_l, du_r = (None if du is None or du_err > abs(du) else du for du in (du_l, du_r))
    return ",".join([_fmt(x), _fmt(u), _fmt(du_l), _fmt(du_r), _fmt_up(_UP.add(Decimal(err), half_digit)), method])


def _cmd_eval(args) -> int:
    _require_positive(("--tol", [args.tol]), ("--contour-lambda", [args.contour_lambda]), ("--order", [args.order]))
    model = load_model(args.model)
    xs = _parse_range(args.x, args.spacing)
    if np.any(xs < 0):
        raise ModelValidationError([("--x", "x must be >= 0")])
    xs = np.where(xs == 0.0, 1e-300, xs)
    u, err, method, *du = evaluate(model, xs, tol=args.tol, route=args.route, N=args.order,
                                   lam=args.contour_lambda, derivatives=not args.no_derivatives)
    du_l, du_r, du_err = ([None] * xs.size if v is None else v.tolist() for v in du)
    rows = list(zip(xs.tolist(), u.tolist(), du_l, du_r, err.tolist(), method.tolist(), du_err))
    if args.format == "json":
        _emit_table(args, ("x", "u", "du_left", "du_right", "err_est", "method", "du_err"), rows)
    else:
        _emit(args, "\n".join(["x,u,du_left,du_right,err_est,method", *(_csv_row(*r) for r in rows)]) + "\n")
    return 0


def _cmd_gk(args) -> int:
    _require_positive(("--k", [args.k]), ("--xmax", [args.xmax]))
    model = load_model(args.model)
    sums = atom_sums(model.atomic, args.k, args.xmax)
    _emit_table(args, ("value", "min_jumps", "representations"),
                [(e.value, e.min_jumps, e.representations) for e in sums.entries])
    return 0


def _cmd_conv(args) -> int:
    _require_positive(("--n", [args.n]), ("--xmax", [args.xmax]), ("--steps", [args.steps]))
    model = load_model(args.model)
    engine = ConvolutionEngine(model, args.xmax)
    kinks = [float(v) for v in engine.kinks(args.n) if v < args.xmax]
    xs = np.array(sorted(set(np.linspace(args.xmax / args.steps, args.xmax, args.steps).tolist() + kinks)))
    left, right = (engine.power(args.n, xs, side).tolist() for side in (Side.LEFT, Side.RIGHT))
    _emit_table(args, ("x", "n", "value_left", "value_right"),
                [(x, args.n, l, r) for x, l, r in zip(xs.tolist(), left, right)])
    return 0


def _cmd_smoothness(args) -> int:
    _require_positive(("--kmax", [args.kmax]))
    # a rational or decimal literal, finite and > 0 as a double
    try:
        x = Fraction(args.x)
        ok = 0 < float(x) < math.inf
    except (ValueError, ZeroDivisionError, OverflowError):
        ok = False
    if not ok:
        raise ModelValidationError([("--x", f"expected a finite rational or decimal > 0, got {args.x!r}")])
    model = load_model(args.model)
    report = classify_point(model, x, k_max=args.kmax, measure=args.measure)
    _emit(args, report.to_json() + "\n")
    return 0


def _cmd_asymptotics(args) -> int:
    if args.n < 0:
        raise ModelValidationError([("--n", "must be >= 0")])
    model = load_model(args.model)
    if args.law == "zero-series":
        check = check_zero_series(model, args.n)
    elif args.law == "linear-zero":
        check = check_linear_zero(model)
    elif args.law == "du-zero":
        check = check_du_zero(model)
    else:
        check = check_du_infinity(model)
    verdict = {
        "law": check.law,
        "passed": check.passed,
        "degenerate": check.degenerate,
        "fitted_slope": check.fitted_slope,
        "notes": check.notes,
    }
    keys = ("x", "lhs", "rhs", "ratio")
    rows = list(zip(*(v.tolist() for v in (check.xs, check.lhs, check.rhs, check.ratio))))
    if args.format == "json":
        verdict["rows"] = _json_rows(keys, rows)
        _emit(args, json.dumps(verdict, allow_nan=False) + "\n")
    else:
        _emit_table(args, keys, rows)
        sys.stdout.write(json.dumps(verdict) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    xs = _parse_range(args.x, "linear")
    bad = [(flag, msg) for flag, ok, msg in (
        ("--x", np.all(xs > 0), "x must be > 0"),
        ("--paths", args.paths >= 1, "must be >= 1"),
        ("--eps", math.isfinite(args.eps) and args.eps >= 0, "must be a finite number >= 0"),
        ("--q", math.isfinite(args.q) and args.q >= 0, "must be a finite number >= 0"),
    ) if not ok]
    if bad:
        raise ModelValidationError(bad)
    # one pass over the paths answers every x
    if args.q > 0:
        est = creep_prob_killed(model, args.q, xs, args.paths, seed=args.seed, eps=args.eps)
    else:
        est = creep_prob(model, xs, args.paths, seed=args.seed, eps=args.eps)
    _emit_table(args, ("x", "q", "p_hat", "ci95", "n_paths", "eps", "seed"),
                [(x, est.q, p, ci, est.n_paths, est.truncation_eps, est.seed)
                 for x, p, ci in zip(est.x.tolist(), est.p_hat.tolist(), est.ci95.tolist())])
    return 0


def _cmd_crosscheck(args) -> int:
    def number(v):
        try:
            return float(v)
        except ValueError:
            return math.nan

    lams = [number(v) for v in args.lam.split(",")]
    _require_positive(("--lambda", lams), ("--tol", [args.tol]), ("--assert-tol", [args.assert_tol]))
    model = load_model(args.model)
    # one evaluate call, over a range long enough for the smallest lambda, serves every lambda
    results = laplace_crosscheck(model, np.array(lams), tol=args.tol)
    _emit_table(args, ("lambda", "lhs", "rhs", "abs_diff", "tail_bound"),
                [(r.lam, r.lhs, r.rhs, r.abs_diff, r.tail_bound) for r in results])
    worst = max(r.abs_diff for r in results)
    if args.assert_tol is not None and worst > args.assert_tol:
        raise AccuracyFailureError("transform crosscheck disagreement", worst, args.assert_tol)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that ``main`` reports them as JSON like any other."""

    def error(self, message):
        # point at the first flag argparse names: bad value, missing or unknown
        flag = re.search(r"(?:argument |required: |arguments: )([^\s:,]+)", message)
        raise ModelValidationError([(flag.group(1) if flag else "argv", message)])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it as it was and fills a
    fresh Namespace from the chosen subparser's defaults (``fn``, ``invert``'s route)."""
    parser = _Parser(prog="subpot", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if table:  # validate and smoothness print one JSON object
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("validate", help="parse and validate a model file")
    common(p, table=False)
    p.set_defaults(fn=_cmd_validate)

    ev = sub.add_parser("eval", help="density (and derivative) on an x grid")
    invert = sub.add_parser("invert", help="density via the Bromwich route only")
    ev.add_argument("--route", choices=("auto", "series", "inversion"), default="auto")
    invert.set_defaults(route="inversion")
    for p in (ev, invert):
        common(p)
        p.add_argument("--x", required=True, help="min:max:steps or comma list")
        p.add_argument("--spacing", choices=("linear", "geometric"), default="linear")
        p.add_argument("--order", type=int, default=None, help="split order N for the inversion route")
        p.add_argument("--contour-lambda", type=float, default=None)
        p.add_argument("--tol", type=float, default=1e-7)
        p.add_argument("--no-derivatives", action="store_true")
        p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gk", help="atom-sum sets up to k jumps")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.set_defaults(fn=_cmd_gk)

    p = sub.add_parser("conv", help="dump an n-fold convolution grid (debugging)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(fn=_cmd_conv)

    p = sub.add_parser("smoothness", help="differentiability report at a point")
    common(p, table=False)
    p.add_argument("--x", required=True, help="point (rational strings allowed)")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--measure", action="store_true", help="also measure derivative jumps")
    p.set_defaults(fn=_cmd_smoothness)

    p = sub.add_parser("asymptotics", help="limit-law checks")
    common(p)
    p.add_argument("--law", choices=("zero-series", "linear-zero", "du-zero", "du-infinity"),
                   required=True)
    p.add_argument("--n", type=int, default=0, help="series order for zero-series")
    p.set_defaults(fn=_cmd_asymptotics)

    p = sub.add_parser("simulate", help="Monte Carlo creeping probability")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("crosscheck", help="transform identity check")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True, help="comma list of abscissas")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--assert-tol", type=float, default=None,
                   help="exit 3 when the worst disagreement exceeds this")
    p.set_defaults(fn=_cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _threads_cap()
        return args.fn(args)
    except ModelValidationError as exc:
        sys.stderr.write(json.dumps({
            "error": "validation", "message": str(exc),
            "violations": [{"pointer": p, "message": m} for p, m in exc.violations],
        }) + "\n")
        return 2
    except AccuracyFailureError as exc:
        sys.stderr.write(json.dumps({
            "error": "accuracy", "message": str(exc),
            # JSON has no inf or NaN
            "achieved": exc.achieved if math.isfinite(exc.achieved) else None,
            "target": exc.target if math.isfinite(exc.target) else None,
        }) + "\n")
        return 3
    except PreconditionError as exc:
        sys.stderr.write(json.dumps({"error": "precondition", "message": str(exc)}) + "\n")
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": "validation", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
