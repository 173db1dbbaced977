"""Seeded input generators, one per workload.

A generator turns a seed into model documents and CLI argument lists; the
program under test receives only those files and arguments.  The same seed
gives the same inputs.  Parameter boxes are fixed so that every seed has
about the same cost, and chosen so that no operation fails on them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracles

TOL = 1e-7


@dataclass
class Op:
    """One CLI call: ``subpot <command> --model <model> <args> --out <file>``."""

    command: str
    model: str
    args: list[str]
    tol: float | None = None


@dataclass
class Workload:
    models: dict[str, dict] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


def _round(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _points(rng: random.Random, n: int, lo: float, hi: float) -> str:
    """One random point in each of n equal strata of [lo, hi], as a --x list.

    Stratifying keeps the spread of x, which sets the cost of a Bromwich
    panel grid or of a simulated path, about the same for every seed.
    """
    step = (hi - lo) / n
    return ",".join(repr(round(lo + (k + rng.random()) * step, 4)) for k in range(n))


def atom_march(seed: int) -> Workload:
    """A single-atom model: the Volterra march to x = 20 and the transform check.

    Inside this box every model needs the same number of step halvings, so
    the cost does not jump from seed to seed.
    """
    rng = random.Random(seed)
    w = Workload()
    w.models["atom"] = {
        "drift": _round(rng, 0.9, 1.1),
        "q": 0.0,
        "atoms": [{"x": _round(rng, 0.9, 1.1), "mass": _round(rng, 0.9, 1.1)}],
        "ac": {"kind": "none"},
    }
    w.ops.append(Op("eval", "atom", ["--x", "0.05:20:200", "--tol", repr(TOL), "--format", "json"], TOL))
    w.ops.append(Op("crosscheck", "atom", ["--lambda", "1,3,10", "--tol", "1e-6"], 1e-6))
    return w


def killed_ac_head(seed: int) -> Workload:
    """Atom-free stable and tempered tails with killing, on the series head."""
    rng = random.Random(seed)
    w = Workload()
    for i in range(8):
        kind = ("stable", "tempered")[i % 2]
        name = f"{kind}{i}"
        ac = {"kind": kind, "C": _round(rng, 0.5, 1.0), "alpha": _round(rng, 0.35, 0.45)}
        if kind == "tempered":
            ac["b"] = _round(rng, 1.0, 2.0)
        doc = {"drift": 1.0, "q": _round(rng, 0.1, 0.4), "atoms": [], "ac": ac}
        w.models[name] = doc
        # the forced series route needs every x inside the radius m(x) <= 1/2
        hi = 0.9 * oracles.series_radius(doc)
        x = f"{hi / 20:.6g}:{hi:.6g}:20"
        w.ops.append(Op("eval", name, ["--x", x, "--route", "series", "--no-derivatives",
                                       "--tol", repr(TOL), "--format", "json"], TOL))
    return w


# points the CLI reads as exact rationals; some are sums of at most three
# atoms 1/j of the family and some are not, and the oracle decides which
_FAMILY_POINTS = ("0.25", "0.375", "0.45", "0.5", "0.625", "0.7", "0.75", "0.875", "0.3", "0.55", "0.9")


def atom_family_ladder(seed: int) -> Workload:
    """Reciprocal-integer family with cap 8: the exact piecewise-polynomial ladder."""
    rng = random.Random(seed)
    gamma = _round(rng, 1.2, 1.3)
    w = Workload()
    w.models["family"] = {
        "drift": 2.0,
        "q": 0.0,
        "atom_family": {"kind": "reciprocal-integers", "cap": 8,
                        "masses": [round(j ** -gamma, 12) for j in range(1, 9)]},
        "ac": {"kind": "none"},
    }
    w.ops.append(Op("eval", "family", ["--x", "0.02:0.15:20", "--tol", repr(TOL), "--format", "json"], TOL))
    w.ops.append(Op("gk", "family", ["--k", "4", "--xmax", "1"]))
    for point in rng.sample(_FAMILY_POINTS, 2):
        w.ops.append(Op("smoothness", "family", ["--x", point, "--kmax", "3"]))
    return w


def contour_mc(seed: int) -> Workload:
    """Bromwich inversion with derivatives, and Monte Carlo creeping estimates."""
    rng = random.Random(seed)
    w = Workload()
    w.models["unit"] = {"drift": 1.0, "q": 0.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "none"}}
    w.models["mixed"] = {
        "drift": 1.0,
        "q": 0.0,
        "atoms": [{"x": 1, "mass": _round(rng, 0.9, 1.1)}],
        "ac": {"kind": "stable", "C": _round(rng, 0.18, 0.22), "alpha": 0.4},
    }
    w.models["tempered"] = {
        "drift": 1.0,
        "q": 0.0,
        "atoms": [],
        "ac": {"kind": "tempered", "C": _round(rng, 0.6, 0.8), "alpha": _round(rng, 0.28, 0.32),
               "b": _round(rng, 1.0, 2.0)},
    }
    # a fixed x grid: the split order, and with it the cost of a point, jumps
    # with x, so random points would make the cost depend on the seed
    for name in ("unit", "mixed"):
        w.ops.append(Op("invert", name, ["--x", "0.1:2.9:8", "--tol", repr(TOL), "--format", "json"], TOL))
    mc_seed = str(rng.randrange(2**31))
    w.ops.append(Op("simulate", "unit", ["--x", _points(rng, 6, 0.3, 4.0), "--paths", "200000",
                                         "--seed", mc_seed]))
    w.ops.append(Op("simulate", "tempered", ["--x", _points(rng, 4, 0.3, 2.0), "--paths", "20000",
                                             "--seed", mc_seed, "--eps", "1e-4",
                                             "--q", repr(_round(rng, 0.1, 0.3))]))
    return w


WORKLOADS = {
    "atom-march": atom_march,
    "killed-ac-head": killed_ac_head,
    "atom-family-ladder": atom_family_ladder,
    "contour-mc": contour_mc,
}
