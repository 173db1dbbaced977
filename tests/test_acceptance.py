"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here, not tuned at runtime; every expected value is either a closed form
evaluated in-test or an independently computed oracle.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from subpot import (
    AcTail,
    AtomicPart,
    ConvolutionEngine,
    LevyModel,
    PreconditionError,
    atom_sums,
    bv_split,
    check_linear_zero,
    classify_point,
    creep_prob,
    creep_prob_killed,
    derivative_jump,
    derivative_zero_contour,
    invert_density,
    laplace_crosscheck,
    series_radius,
    u_series,
)
from conftest import delta1_u, random_atomic_model


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def delta1():
    return LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]))


@pytest.fixture(scope="module")
def stable_half():
    return LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.5))


@pytest.fixture(scope="module")
def mixed():
    return LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]), ac=AcTail.stable(0.2, 0.4))


def test_criterion_1_closed_form_golden(delta1):
    """Both routes vs the explicit unit-atom density: 1e-6 at 200 points, < 5 s."""
    t0 = time.monotonic()
    xs = np.linspace(0.025, 5.0, 200)
    truth = np.array([delta1_u(float(x)) for x in xs])

    engine = ConvolutionEngine(delta1, 5.5)
    radius = series_radius(delta1, 5.0, engine)
    n_series = 0
    for x, want in zip(xs, truth):
        if x <= radius:
            v, _, _ = u_series(delta1, float(x), tol=1e-9, engine=engine)
            assert abs(v - want) < 1e-6
            n_series += 1
    assert n_series >= 15

    inv_err = 0.0
    for x, want in zip(xs, truth):
        v, _ = invert_density(delta1, float(x), N=3, tol=1e-8, engine=engine)
        inv_err = max(inv_err, abs(v - want))
    assert inv_err < 1e-6

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"series({n_series} pts) + inversion(err {inv_err:.1e}) vs closed form in {elapsed:.2f}s")


def test_criterion_2_jump_identity():
    """Measured derivative jump equals mass/drift^2 on randomized atomic models."""
    rng = np.random.default_rng(20260808)
    models = [random_atomic_model(rng) for _ in range(10)]
    n_atoms_checked = 0
    for model in models:
        for a, m in zip(model.atomic.locations, model.atomic.masses):
            pred, meas, se = derivative_jump(model, float(a), tol=1e-8)
            assert pred == pytest.approx(m / model.drift**2, rel=1e-12)
            assert abs(meas - pred) < max(1e-4, 3.0 * se)
            n_atoms_checked += 1

    n_null = 0
    while n_null < 100:
        model = models[n_null % len(models)]
        x = float(rng.uniform(0.05, 3.5))
        if model.atom_mass_at(x) > 0:
            continue
        pred, meas, se = derivative_jump(model, x, tol=1e-8)
        assert pred == 0.0
        assert abs(meas) <= 3.0 * se + 1e-12
        n_null += 1
    _report(2, f"{n_atoms_checked} atom jumps match mass/drift^2; 100 non-atoms consistent with 0")


def test_criterion_3_classification(delta1, mixed):
    """Order-k mismatch exactly at x = k for the unit atom, same verdicts mixed.

    The jumps come from the contour's one-sided derivatives.  With the stable
    part of the mixed model only order 1 is measured; orders 2 and 3 are null.
    """
    for name, model in (("atomic", delta1), ("mixed", mixed)):
        for x in (1.0, 2.0, 3.0):
            rep = classify_point(model, x, k_max=3, measure=True)
            assert rep.min_k == int(x), f"{name}: min_k at {x}"
            for j in rep.jumps:
                if j.measured is None:
                    assert name == "mixed" and j.order >= 2 or j.order > rep.min_k, f"{name}: order {j.order} at {x}"
                    continue
                assert abs(j.measured - j.predicted) <= j.err_est, f"{name}: order-{j.order} jump at {x}"
                if j.order == rep.min_k:
                    assert j.significant, f"{name}: missing order-{j.order} jump at {x}"
                else:
                    assert not j.significant, f"{name}: false order-{j.order} jump at {x}"

    # atom_sums equals brute force on every test model
    import itertools

    def brute(locs, k, x_max):
        out = set()
        for j in range(1, k + 1):
            for combo in itertools.product(locs, repeat=j):
                v = sum(combo)
                if v <= x_max + 1e-12:
                    out.add(round(v, 10))
        return out

    rng = np.random.default_rng(7)
    batteries = [delta1.atomic, mixed.atomic] + [random_atomic_model(rng).atomic for _ in range(6)]
    for atomic in batteries:
        got = {round(float(v), 10) for v in atom_sums(atomic, 3, 6.0).values}
        assert got == brute(atomic.locations, 3, 6.0)
    _report(3, "min_k = x at {1,2,3} for atomic and mixed, jumps within their bars; "
               "atom_sums == brute force on 8 models")


def test_criterion_4_monte_carlo_oracle(delta1):
    """Creeping frequency vs drift*u at 1e6 paths, killed variant vs its closed form."""
    t0 = time.monotonic()
    for x in (0.5, 1.5, 2.5):
        est = creep_prob(delta1, x, 10**6, seed=20260808)
        want = delta1_u(x)
        assert abs(est.p_hat - want) < 3.0 * est.sigma, f"x={x}: {est.p_hat} vs {want}"

    killed = LevyModel(drift=1.0, q=0.5, atomic=AtomicPart.from_pairs([(1, 1.0)]))
    for x in (0.5, 1.5, 2.5):
        est = creep_prob_killed(killed, 0.5, x, 10**6, seed=20260808)
        want = delta1_u(x, q=0.5)
        assert abs(est.p_hat - want) < 3.0 * est.sigma, f"killed x={x}: {est.p_hat} vs {want}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(4, f"6 estimates x 1e6 paths within 3 sigma of drift*u in {elapsed:.1f}s")


def test_criterion_5_transform_crosscheck(delta1, stable_half):
    """Numerical transform of u vs 1/psi within 1e-5 at lam in {1, 3, 10}."""
    worst = 0.0
    for model in (delta1, stable_half):
        for lam in (1.0, 3.0, 10.0):
            res = laplace_crosscheck(model, lam, tol=1e-6)
            assert res.abs_diff < 1e-5, f"lam={lam}: diff {res.abs_diff}"
            worst = max(worst, res.abs_diff)
    _report(5, f"both models, lam in {{1,3,10}}: worst disagreement {worst:.2e} < 1e-5")


def test_criterion_6_zero_asymptotics(delta1, stable_half):
    """Stable remainder ratio in [0.95, 1.05] at 1e-3 with monotone approach."""
    engine = ConvolutionEngine(stable_half, 0.05)
    xs = np.geomspace(1e-2, 1e-3, 8)
    ratios = []
    for x in xs:
        u, _, _ = u_series(stable_half, float(x), tol=1e-14, engine=engine)
        ratios.append((1.0 - u) / (float(x) ** 0.5 / 0.5))  # C x^{1-a}/(d^2(1-a))
    ratios = np.array(ratios)
    assert 0.95 <= ratios[-1] <= 1.05
    gaps = np.abs(ratios - 1.0)
    assert np.all(np.diff(gaps) <= 1e-12), "approach to 1 not monotone over the last decade"

    check = check_linear_zero(delta1)
    assert check.passed
    assert abs(check.fitted_slope - (-1.0)) < 0.05
    _report(6, f"stable ratio {ratios[-1]:.4f} at 1e-3 (monotone); unit-atom slope {check.fitted_slope:.4f}")


def test_criterion_7_derivative_asymptotics():
    """u'(x)/( -tail(x)/drift^2 ) in [0.9, 1.1] at 1e-3 with a monotone trend."""
    from subpot import check_du_zero

    model = LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.3))
    xs = np.geomspace(1e-2, 1e-4, 15)
    check = check_du_zero(model, x_grid=xs)
    assert check.passed
    i = int(np.argmin(np.abs(check.xs - 1e-3)))
    assert abs(check.xs[i] - 1e-3) < 1e-9
    assert 0.9 <= check.ratio[i] <= 1.1
    gaps = np.abs(check.ratio - 1.0)
    assert np.all(np.diff(gaps[i:]) <= 1e-9), "trend not monotone below 1e-3"
    _report(7, f"ratio {check.ratio[i]:.4f} at 1e-3, monotone toward 1")


def test_criterion_8_derivative_at_infinity(delta1, stable_half):
    """|u'| decreasing at {10, 20, 40}, |u'(40)| < 1e-6; infinite mean rejected."""
    vals = []
    for x in (10.0, 20.0, 40.0):
        left, right, _ = derivative_zero_contour(delta1, x, tol=1e-10)
        vals.append(max(abs(left), abs(right)))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6
    with pytest.raises(PreconditionError):
        derivative_zero_contour(stable_half, 10.0)
    _report(8, f"|u'| = {vals[0]:.1e} > {vals[1]:.1e} > {vals[2]:.1e} < 1e-6; stable rejected")


def test_criterion_8_derivative_values_within_their_bars(delta1):
    """u'(x-) and u'(x+) on the imaginary axis against the closed form at 30 digits, no slack.

    At the integers 10, 20 and 40 only sums of two or more unit atoms meet x, so u' is
    continuous there and both sides equal the closed form's left limit.  Its terms are
    up to about 0.1 while u'(40) is far smaller, so the sum is formed in mpmath rather
    than by ``delta1_du``.
    """
    import mpmath

    for x in (10, 20, 40):
        with mpmath.workdps(30):
            y = mpmath.mpf(x)
            want = -mpmath.exp(-y) + mpmath.fsum(
                ((y - i) ** (i - 1) / mpmath.factorial(i - 1) - (y - i) ** i / mpmath.factorial(i)) * mpmath.exp(i - y)
                for i in range(1, x))
        left, right, err = derivative_zero_contour(delta1, float(x), tol=1e-10)
        for side, got in (("left", left), ("right", right)):
            assert abs(got - want) <= err, (x, side, got, float(want), err)


def test_criterion_9_representation_identities(delta1, stable_half, mixed):
    """Split-order and contour independence, iterated bound, BV monotonicity."""
    rng = np.random.default_rng(99)
    pairs = []
    while len(pairs) < 20:
        n_atoms = int(rng.integers(1, 5))
        locs = np.sort(rng.uniform(0.2, 2.5, size=n_atoms))
        if np.any(np.diff(locs) < 1e-3):
            continue
        masses = rng.uniform(0.1, 1.5, size=n_atoms)
        drift = float(rng.uniform(0.5, 2.0))
        model = LevyModel(drift=drift, atomic=AtomicPart.from_pairs(list(zip(locs, masses))))
        pairs.append((model, float(rng.uniform(0.3, 2.5))))

    for model, x in pairs:
        engine = ConvolutionEngine(model, x + 0.5)
        results = [invert_density(model, x, N=n, tol=1e-6, engine=engine) for n in (2, 3, 4)]
        vals = [v for v, _ in results]
        errs = [e for _, e in results]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vals[i] - vals[j]) <= errs[i] + errs[j] + 1e-9
        lam_vals = [invert_density(model, x, N=3, lam=f / x, tol=1e-6, engine=engine) for f in (0.5, 1.0, 2.0)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(lam_vals[i][0] - lam_vals[j][0]) <= lam_vals[i][1] + lam_vals[j][1] + 1e-9
        # iterated bound on sampled (n, x)
        for n in (2, 3, 5):
            assert engine.running(n, x) <= engine.running(1, x) ** n + 1e-10

    for model in (delta1, stable_half, mixed, LevyModel(drift=2.0), LevyModel(drift=1.0, q=0.8)):
        x_max = min(2.0, series_radius(model, 2.0) * 3 + 0.1)
        split = bv_split(model, x_max, tol=1e-7, n_nodes=80)
        assert np.all(np.diff(split.u1) >= -1e-10)
        assert np.all(np.diff(split.u2) >= -1e-10)
    _report(9, "N/contour independence at 20 random pairs; iterated bound; BV split monotone")


def test_criterion_10_determinism(tmp_path):
    """Byte-identical CSV across SUBPOT_THREADS in {1, 2, 8}."""
    model_path = tmp_path / "delta1.json"
    model_path.write_text(json.dumps({"drift": 1.0, "atoms": [{"x": 1, "mass": 1.0}], "ac": {"kind": "none"}}))
    blobs = {"simulate": [], "eval": []}
    for threads in ("1", "2", "8"):
        env = dict(os.environ, SUBPOT_THREADS=threads)
        sim_out = tmp_path / f"sim{threads}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "subpot.cli", "simulate", "--model", str(model_path),
             "--x", "0.5,1.5,2.5", "--paths", "50000", "--seed", "7", "--out", str(sim_out)],
            env=env, capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        blobs["simulate"].append(sim_out.read_bytes())
        ev_out = tmp_path / f"ev{threads}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "subpot.cli", "eval", "--model", str(model_path),
             "--x", "0.25:3:30", "--out", str(ev_out)],
            env=env, capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        blobs["eval"].append(ev_out.read_bytes())
    for kind, outs in blobs.items():
        assert outs[0] == outs[1] == outs[2], f"{kind} output differs across thread caps"
    _report(10, "simulate and eval CSV byte-identical across SUBPOT_THREADS in {1,2,8}")
