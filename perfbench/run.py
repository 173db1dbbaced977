"""subpot benchmark: seeded CLI workloads checked against independent oracles.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload atom-march --seed 1 --seconds 30 --trace 0

The benchmark imports ``subpot`` from ``src/`` and drives the public CLI
in-process through ``subpot.cli.main(argv)``: one process, one thread, a
closed loop with one client and operations back to back.  BLAS and OpenMP
pools are pinned to one thread.  The seed generates the model files and
argument lists (``workloads.py``); oracle values for every output row are
computed before the timed region (``checks.py``, ``oracles.py``).

Within ``--seconds`` the workload's operation list is run as a whole pass,
again and again.  The first pass is a warm-up: it is not timed, and its
output is checked against the oracles.  Every later pass must repeat that
output byte for byte.  A timed round (a pass and a set-up) starts only if
a round of median length still fits before the time is up, and at least
three rounds run.

The CPU speed of a shared host drifts by up to 1.5x over seconds to
minutes, and that drift, not the program, would set the spread between
runs.  So every operation and every set-up is followed by a calibration:
the median of three timings of a fixed pure-Python loop
(``calibration_seconds``, about 30 ms in all).  Each call's time is divided
by the mean of the calibrations just before and after it and multiplied by
``REF_CAL_S``, the loop's time at the reference speed (``Clock``).  A
change to ``subpot`` cannot change the loop, so a slower program shows in
full.

``--trace 0`` prints the end-to-end metrics:

* ``run_s``: median over the timed passes of the pass's wall time, each
  call scaled to the reference speed (the raw median is printed as
  ``run_wall_s``, the number of timed passes as ``passes`` and the median
  host speed relative to the reference as ``cpu_speed``);
* ``setup_s``: median over fresh interpreters, one after each timed pass,
  of ``import subpot`` plus ``load_model`` of the workload's model files,
  scaled in the same way (raw: ``setup_wall_s``);
* ``peak_rss_mb``: peak resident memory of this process.

Both modes also print the accuracy of the first pass (``accuracy``):

* ``max_err_over_tol``: largest |u - oracle| / tol over density rows;
* ``err_underreport_frac``: share of density rows whose error exceeds the
  reported ``err_est`` plus the roundoff floor (16 ulp of the oracle value
  plus the oracle's own 1e-20 relative accuracy, see ``oracles.py``);
* ``failed_frac``: failed operations over attempted operations;
* ``du_unavailable``: one-sided derivatives the CLI wrote as null.

``--trace 1`` alternates untraced and traced passes after the warm-up and
prints the per-layer metrics, each the median over the traced passes
(``tracer.py``): calls and self seconds per wrapped ``subpot`` function,
counts read from their arguments and results, and ``trace.overhead_s``, the
median traced minus the median untraced pass time, both scaled as for
``run_s``.  The self seconds are not scaled.  The spans are written to
``.perfbench/trace-<workload>-<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
# seconds that calibration_seconds() takes at the reference CPU speed: a
# 2.1 GHz Xeon vCPU of a shared host, at its fast end
REF_CAL_S = 0.010
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import subpot
for path in sys.argv[1:]:
    subpot.load_model(path)
print(repr(time.perf_counter() - t0))
"""

def _calls(*spans):
    return "count", ("calls", spans)


def _self_s(*spans):
    return "s", ("self_s", spans)


def _count(name):
    return "count", ("count", name)


# per-layer metric -> (unit, (what to read, span names or counter name))
PER_LAYER = {
    "model.tail_antiderivative.calls": _calls("model.LevyModel.tail_antiderivative"),
    "model.tail_antiderivative.self_s": _self_s("model.LevyModel.tail_antiderivative"),
    "model.tail_first_moment.calls": _calls("model.LevyModel.tail_first_moment"),
    "model.tail_first_moment.self_s": _self_s("model.LevyModel.tail_first_moment"),
    "density.u_volterra.self_s": _self_s("density.u_volterra"),
    "density.grid_nodes": _count("density.grid_nodes"),
    "density.u_series.calls": _calls("density.u_series"),
    "density.u_series.self_s": _self_s("density.u_series"),
    "density.u_series.terms": _count("density.u_series.terms"),
    "density.series_radius.calls": _calls("density.series_radius"),
    "density.series_radius.self_s": _self_s("density.series_radius"),
    "convolve.running.calls": _calls("convolve.ConvolutionEngine.running"),
    "convolve.running.self_s": _self_s("convolve.ConvolutionEngine.running"),
    "convolve.mass_scale.calls": _calls("convolve.ConvolutionEngine.mass_scale"),
    "piecewise.eval.calls": _calls("piecewise.PiecewisePoly.eval"),
    "piecewise.eval.self_s": _self_s("piecewise.PiecewisePoly.eval"),
    "piecewise.eval.points": _count("piecewise.eval.points"),
    "piecewise.add.calls": _calls("piecewise.PiecewisePoly.add"),
    "piecewise.add.self_s": _self_s("piecewise.PiecewisePoly.add"),
    "piecewise.convolve_step_tail.calls": _calls("piecewise.PiecewisePoly.convolve_step_tail"),
    "piecewise.convolve_step_tail.self_s": _self_s("piecewise.PiecewisePoly.convolve_step_tail"),
    "piecewise.ladder_breaks_max": _count("piecewise.ladder_breaks_max"),
    "piecewise.ladder_degree_max": _count("piecewise.ladder_degree_max"),
    "convolve.pc_power.calls": _calls("convolve.ConvolutionEngine.pc_power"),
    "convolve.pc_power.self_s": _self_s("convolve.ConvolutionEngine.pc_power"),
    "convolve.atom_sums.calls": _calls("convolve.atom_sums"),
    "convolve.atom_sums.self_s": _self_s("convolve.atom_sums"),
    "convolve.atom_sums.entries": _count("convolve.atom_sums.entries"),
    "convolve.engine_init.calls": _calls("convolve.ConvolutionEngine.__init__"),
    "convolve.power.calls": _calls("convolve.ConvolutionEngine.power"),
    "convolve.power.self_s": _self_s("convolve.ConvolutionEngine.power"),
    "inversion.invert_density.calls": _calls("inversion.invert_density"),
    "inversion.invert_density.self_s": _self_s("inversion.invert_density"),
    "inversion.invert_derivative.calls": _calls("inversion.invert_derivative"),
    "inversion.invert_derivative.self_s": _self_s("inversion.invert_derivative"),
    "inversion.integrand_points": _count("inversion.integrand_points"),
    "inversion.integrand.self_s": _self_s("inversion.density_integrand", "inversion.derivative_integrand",
                                        "inversion.tail_transform"),
    "simulate.creep_prob.calls": _calls("simulate.creep_prob", "simulate.creep_prob_killed"),
    "simulate.creep_prob.self_s": _self_s("simulate.creep_prob", "simulate.creep_prob_killed"),
    "simulate.paths": _count("simulate.paths"),
    "smoothness.one_sided_fd.calls": _calls("smoothness.one_sided_fd"),
    "smoothness.one_sided_fd.self_s": _self_s("smoothness.one_sided_fd"),
    "smoothness.classify_point.calls": _calls("smoothness.classify_point"),
    "smoothness.classify_point.self_s": _self_s("smoothness.classify_point"),
    "cli.main.calls": _calls("cli.main"),
    "cli.main.self_s": _self_s("cli.main"),
}


def calibration_seconds() -> float:
    """Median of three timings of a fixed pure-Python loop (about 10 ms each)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times calls, and the factor that scales each to the reference CPU speed.

    A calibration follows every call; the one after a call is also the one
    before the next.
    """

    def __init__(self):
        self.cals = [calibration_seconds()]

    def time(self, fn, *args, **kwargs):
        """Return ``fn(*args, **kwargs)``, its wall seconds and its scale factor."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.cals.append(calibration_seconds())
        return out, wall, REF_CAL_S / ((self.cals[-2] + self.cals[-1]) / 2)

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return REF_CAL_S / statistics.median(self.cals)


class Bench:
    """One benchmark run: inputs on disk, oracle values, timed passes."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.spec = WORKLOADS[workload](seed)
        self.model_paths = {}
        for name, doc in self.spec.models.items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.model_paths[name] = str(path)
        self.argv = []
        self.outs = []
        for i, op in enumerate(self.spec.ops):
            out = work / f"op{i}.out"
            self.outs.append(out)
            self.argv.append([op.command, "--model", self.model_paths[op.model], *op.args, "--out", str(out)])
        self.refs = [checks.expected(op, self.spec.models[op.model]) for op in self.spec.ops]
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.rows = []
        self.du_unavailable = 0
        self.failures = []
        self.info = {}
        self.clock = Clock()

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """Run every operation once.

        Return the summed wall time of the calls, and the same sum with each
        call scaled to the reference speed.
        """
        import subpot.cli

        codes = []
        wall = scaled = 0.0
        for i, argv in enumerate(self.argv):
            self.outs[i].unlink(missing_ok=True)
            if tracer is not None:
                tracer.op_id = self.attempted + i
            rc, seconds, factor = self.clock.time(subpot.cli.main, list(argv))
            codes.append(rc)
            wall += seconds
            scaled += seconds * factor
        self._check_pass(codes)
        return wall, scaled

    def _check_pass(self, codes) -> None:
        outputs = [out.read_text() if out.exists() else None for out in self.outs]
        first = self.first_outputs is None
        if first:
            self.first_outputs = outputs
        for i, (op, rc, text, ref) in enumerate(zip(self.spec.ops, codes, outputs, self.refs)):
            self.attempted += 1
            if first:
                result = checks.check(op, rc, text, ref)
                self.rows.extend(result.rows)
                self.du_unavailable += result.du_unavailable
            elif rc != 0 or text != self.first_outputs[i]:
                result = checks.OpResult(True, f"exit code {rc} or output differs from the first pass")
            else:
                continue
            if result.failed:
                self.failed += 1
                self.failures.append(f"op {i} ({op.command} {op.model}): {result.reason}")

    def setup_seconds(self) -> tuple[float, float]:
        """One fresh interpreter's ``import subpot`` plus ``load_model`` of every model file.

        Return its seconds, as measured and scaled to the reference speed.
        """
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        paths = [self.model_paths[name] for name in self.spec.models]
        proc, _, factor = self.clock.time(
            subprocess.run, [sys.executable, "-c", SETUP_CODE, *paths],
            env=env, cwd=self.root, capture_output=True, text=True, timeout=120, check=True)
        seconds = float(proc.stdout.strip().splitlines()[-1])
        return seconds, seconds * factor


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fits(deadline: float, rounds: list[float]) -> bool:
    """Whether one more round of median length ends before ``deadline``."""
    return time.perf_counter() + statistics.median(rounds) <= deadline


def measure(bench: Bench, seconds: float) -> dict:
    # one set-up after each pass, so that set-up is sampled across the same
    # stretch of machine load as the passes
    deadline = time.perf_counter() + seconds
    bench.run_pass()
    passes, setups, rounds = [], [], []
    while len(passes) < MIN_PASSES or _fits(deadline, rounds):
        t0 = time.perf_counter()
        passes.append(bench.run_pass())
        setups.append(bench.setup_seconds())
        rounds.append(time.perf_counter() - t0)
    bench.info["passes"] = _metric(len(passes), "count")
    bench.info["run_wall_s"] = _metric(statistics.median(p[0] for p in passes), "s")
    bench.info["setup_wall_s"] = _metric(statistics.median(t[0] for t in setups), "s")
    bench.info["cpu_speed"] = _metric(bench.clock.speed(), "ratio")
    return {
        "run_s": _metric(statistics.median(p[1] for p in passes), "s"),
        "setup_s": _metric(statistics.median(t[1] for t in setups), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def accuracy(bench: Bench) -> dict:
    """Accuracy figures of the density rows, printed beside the metrics.

    They are not end-to-end metrics of BENCHMARK.json: on some workloads
    they are 0 (no row under-reported, no operation failed), and the largest
    error moves with the seeded models far more than the timing does.
    """
    rows = bench.rows
    return {
        "max_err_over_tol": _metric(max((r.err / r.tol for r in rows), default=0.0), "ratio"),
        "err_underreport_frac": _metric(sum(r.underreported for r in rows) / max(len(rows), 1), "ratio"),
        "failed_frac": _metric(bench.failed / bench.attempted, "ratio"),
        "density_rows": _metric(len(rows), "count"),
        "du_unavailable": _metric(bench.du_unavailable, "count"),
    }


def measure_traced(bench: Bench, seconds: float, trace_path: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    bench.run_pass()
    plain, traced, layers, rounds = [], [], [], []
    while len(plain) < MIN_PASSES or _fits(deadline, rounds):
        t0 = time.perf_counter()
        plain.append(bench.run_pass()[1])
        first = tracer.new_pass()
        tracer.install()
        try:
            traced.append(bench.run_pass(tracer)[1])
        finally:
            tracer.uninstall()
        layers.append(_layer_values(tracer, first))
        rounds.append(time.perf_counter() - t0)
    tracer.save(trace_path)
    bench.info["passes"] = _metric(len(traced), "count")
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        metrics[name] = _metric(statistics.median(v[name] for v in layers), unit)
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def _layer_values(tracer, first: int) -> dict[str, float]:
    """Per-layer values of the traced pass whose spans start at index ``first``."""
    summary = tracer.summary(first)
    out = {}
    for name, (_, (kind, what)) in PER_LAYER.items():
        if kind == "count":
            out[name] = tracer.counts.get(what, 0)
        else:
            col = 0 if kind == "calls" else 1
            out[name] = sum(summary.get(span, (0, 0.0))[col] for span in what)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "subpot" / "__init__.py").is_file():
        print(f"perfbench: no subpot sources under {root / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=state))
    try:
        bench = Bench(root, args.workload, args.seed, work)
        if args.trace:
            metrics = measure_traced(bench, args.seconds, state / f"trace-{args.workload}-{args.seed}.npz")
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, m in {**accuracy(bench), **bench.info, **metrics}.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
