"""Spans and counts around every public function and method of ``subpot``.

The tracer changes no file of the library.  ``install`` replaces each public
function of the traced modules by a timing wrapper in *every* ``subpot``
namespace that bound it (``subpot.cli`` imports ``u_series`` by name, so
patching ``subpot.density`` alone would miss the CLI's calls), and each
public method of the classes those modules define on the class itself, so
calls made inside the library are caught too.  ``uninstall`` puts the
originals back, so untraced passes run the library exactly as shipped.

A span is (name, start, end, parent span, operation id).  Spans live in
growable arrays while the run lasts, and counts in one dict per pass;
``save`` writes both once at the end.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "model", "piecewise", "convolve", "density", "inversion", "smoothness", "simulate")


def _size(value) -> int:
    return int(np.size(value))


# Counts read from the arguments or the result of a call, keyed by span name:
# (counter name, reducer, getter(args, result)).
_PROBES = {
    "piecewise.PiecewisePoly.eval": [("piecewise.eval.points", "sum", lambda a, r: _size(a[1]))],
    "density.u_series": [("density.u_series.terms", "sum", lambda a, r: r[2])],
    "density.u_volterra": [("density.grid_nodes", "sum", lambda a, r: r.nodes.size)],
    "convolve.atom_sums": [("convolve.atom_sums.entries", "sum", lambda a, r: len(r.entries))],
    "convolve.ConvolutionEngine.pc_power": [
        ("piecewise.ladder_breaks_max", "max", lambda a, r: r.breaks.size),
        ("piecewise.ladder_degree_max", "max", lambda a, r: r.degree),
    ],
    "inversion.density_integrand": [("inversion.integrand_points", "sum", lambda a, r: _size(a[2]))],
    "inversion.derivative_integrand": [("inversion.integrand_points", "sum", lambda a, r: _size(a[2]))],
    "simulate.creep_prob": [("simulate.paths", "sum", lambda a, r: r.n_paths)],
    "simulate.creep_prob_killed": [("simulate.paths", "sum", lambda a, r: r.n_paths)],
}


class Tracer:
    """Collects spans and counts for the wrapped ``subpot`` callables."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.pass_counts: list[dict[str, float]] = []
        self.counts: dict[str, float] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        probes = _PROBES.get(name, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            for counter, how, get in probes:
                value = get(args, result)
                old = self.counts.get(counter, 0)
                self.counts[counter] = old + value if how == "sum" else max(old, value)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("subpot")
        modules = {m: importlib.import_module(f"subpot.{m}") for m in LAYERS}
        namespaces = [package] + [
            mod for name, mod in sys.modules.items() if name.startswith("subpot.") and mod is not None
        ]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, bound, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or meth == "__init__"
                        if public and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def new_pass(self) -> int:
        """Start the counts of a new pass; return the index of its first span."""
        self.counts = {}
        self.pass_counts.append(self.counts)
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def summary(self, first: int = 0) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds) over the spans from index ``first`` on."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = (dur - child)[first:]
        names = a["name_id"][first:]
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        seconds = np.bincount(names, weights=self_time, minlength=n)
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans, the span-name table and the per-pass counts (``.npz``)."""
        np.savez_compressed(path, names=np.array(self.names), counts=json.dumps(self.pass_counts),
                            **self.arrays())
