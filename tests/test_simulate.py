import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpot import (
    AcTail,
    AtomicPart,
    LevyModel,
    PreconditionError,
    creep_prob,
    creep_prob_killed,
    evaluate,
    first_passage,
)
from subpot import simulate
from subpot.simulate import _BLOCK, _JumpSampler, _MAX_ROUNDS, _PURPOSE_JUMP, _PURPOSE_KILL, _PURPOSE_WAIT, _stream
from conftest import delta1_u, oracles


def _simulate(model, x, n_paths, seed, eps):
    """Reference: the rounds for one level x; returns (crept, t_passage, overshoot, n_jumps).

    The library carries every level in one pass; this per-level loop is the
    definition that pass must reproduce bit for bit.
    """
    if x <= 0:
        raise ValueError("x must be > 0")
    sampler = _JumpSampler(model, eps)
    delta = model.drift
    rate = sampler.rate

    pos = np.zeros(n_paths)
    t = np.zeros(n_paths)
    jumps = np.zeros(n_paths, dtype=np.int64)
    crept = np.zeros(n_paths, dtype=bool)
    t_pass = np.full(n_paths, np.nan)
    over = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)

    if rate == 0.0:  # pure drift: always creeps
        return np.ones(n_paths, dtype=bool), np.full(n_paths, x / delta), np.zeros(n_paths), jumps

    for round_idx in range(1, _MAX_ROUNDS + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        u_wait = _stream(seed, _PURPOSE_WAIT, round_idx, n_paths)[idx]
        tau = -np.log1p(-u_wait) / rate
        need = (x - pos[idx]) / delta  # drift time to reach x
        creeps = need < tau
        ci = idx[creeps]
        crept[ci] = True
        t_pass[ci] = t[ci] + need[creeps]
        active[ci] = False

        ji = idx[~creeps]
        if ji.size:
            t[ji] += tau[~creeps]
            pos[ji] += delta * tau[~creeps]
            sizes = sampler.sample(_stream(seed, _PURPOSE_JUMP, round_idx, n_paths)[ji])
            pos[ji] += sizes
            jumps[ji] += 1
            crossed = pos[ji] > x
            done = ji[crossed]
            t_pass[done] = t[done]
            over[done] = pos[done] - x
            active[done] = False
    else:
        raise PreconditionError(f"simulation exceeded {_MAX_ROUNDS} rounds; eps too small for this x")
    return crept, t_pass, over, jumps


def _reference_estimate(model, x, n_paths, seed, eps, q=0.0):
    """(p_hat, ci95) of one level as the per-level estimators computed them."""
    crept, t_pass, _, _ = _simulate(model, x, n_paths, seed, eps)
    if q > 0:
        crept = crept & (t_pass <= -np.log1p(-_stream(seed, _PURPOSE_KILL, 0, n_paths)) / q)
    p = float(np.count_nonzero(crept)) / n_paths
    return p, 1.96 * math.sqrt(max(p * (1.0 - p), 1e-300) / n_paths)


class TestFirstPassage:
    def test_pure_drift_always_creeps(self, pure_drift):
        out = first_passage(pure_drift, 1.0, seed=0)
        assert out.crept
        assert out.t_passage == pytest.approx(0.5)  # drift 2
        assert out.overshoot == 0.0

    def test_crept_implies_zero_overshoot(self, delta1):
        for pid in range(30):
            out = first_passage(delta1, 1.5, seed=3, path_id=pid)
            if out.crept:
                assert out.overshoot == 0.0
            else:
                assert out.overshoot > 0.0

    def test_time_reconstruction(self, delta1):
        # creeping: position at passage is exactly x, so with unit jumps
        # drift*T + n_jumps*1 == x reconstructs the crossing time
        for pid in range(20):
            out = first_passage(delta1, 2.5, seed=11, path_id=pid)
            if out.crept:
                assert out.t_passage + out.n_jumps * 1.0 == pytest.approx(2.5, rel=1e-12)

    def test_infinite_activity_needs_eps(self, stable_half):
        with pytest.raises(PreconditionError):
            first_passage(stable_half, 1.0, seed=0, eps=0.0)


class TestCreepProb:
    def test_delta1_small_x(self, delta1):
        est = creep_prob(delta1, 0.5, 200_000, seed=42)
        assert abs(est.p_hat - math.exp(-0.5)) < 3 * est.sigma

    def test_delta1_multi_jump(self, delta1):
        est = creep_prob(delta1, 1.5, 200_000, seed=43)
        assert abs(est.p_hat - delta1_u(1.5)) < 3 * est.sigma

    def test_small_x_tends_to_one(self, delta1):
        est = creep_prob(delta1, 1e-4, 50_000, seed=2)
        assert est.p_hat > 0.999

    def test_long_run_level(self, delta1):
        # p_hat -> drift/E[X_1] = 1/2
        est = creep_prob(delta1, 30.0, 100_000, seed=8)
        assert abs(est.p_hat - 0.5) < 4 * est.sigma + 1e-3

    def test_stable_with_truncation(self, stable_half):
        u, err = evaluate(stable_half, 0.3, derivatives=False)[:2]
        est = creep_prob(stable_half, 0.3, 20_000, seed=11, eps=1e-6)
        assert abs(est.p_hat - u[0]) < 3 * est.sigma + est.bias_bound + err[0]

    def test_tempered_with_truncation(self, tempered_model):
        u, err = evaluate(tempered_model, 0.3, derivatives=False)[:2]
        est = creep_prob(tempered_model, 0.3, 20_000, seed=13, eps=1e-6)
        assert abs(est.p_hat - u[0]) < 3 * est.sigma + est.bias_bound + err[0]

    def test_eps_bias_budget_scales(self, stable_half):
        b1 = creep_prob(stable_half, 0.2, 10, seed=0, eps=1e-4).bias_bound
        b2 = creep_prob(stable_half, 0.2, 10, seed=0, eps=1e-8).bias_bound
        assert b2 < b1 / 50  # ~ sqrt scaling for alpha = 1/2


class TestKilled:
    def test_pure_drift_exponential(self):
        model = LevyModel(drift=1.0)
        est = creep_prob_killed(model, 1.0, 0.7, 300_000, seed=7)
        assert abs(est.p_hat - math.exp(-0.7)) < 3 * est.sigma

    def test_matches_closed_form(self, delta1):
        model = LevyModel(drift=1.0, q=0.5, atomic=AtomicPart.from_pairs([(1, 1.0)]))
        est = creep_prob_killed(model, 0.5, 0.5, 300_000, seed=21)
        assert abs(est.p_hat - delta1_u(0.5, q=0.5)) < 3 * est.sigma

    def test_requires_positive_q(self, delta1):
        with pytest.raises(PreconditionError):
            creep_prob_killed(delta1, 0.0, 1.0, 100)

    def test_bias_bound_uses_the_killing_rate(self):
        # m(x) takes the estimate's rate q, not the model's (here 0)
        doc = {"drift": 1.0, "ac": {"kind": "tempered", "C": 0.7, "alpha": 0.3, "b": 1.5}}
        model = LevyModel(drift=1.0, ac=AcTail.tempered(0.7, 0.3, 1.5))
        est = creep_prob_killed(model, 0.2, 2.0, 10, seed=0, eps=1e-4)
        assert est.bias_bound == pytest.approx(oracles.creep_bias_bound(dict(doc, q=0.2), 2.0, 1e-4), rel=1e-12)

    def test_bias_bounds_match_the_pointwise_formula(self):
        # one array call builds every bound; np.exp and math.exp may differ
        # by an ulp each, so the loop agrees to a few ulp
        model = LevyModel(drift=1.3, atomic=AtomicPart.from_pairs([(0.005, 0.2), (0.8, 0.5)]),
                          ac=AcTail.tempered(0.7, 0.3, 1.5))
        xs, q, eps = np.array([0.3, 2.0, 0.9, 5.0]), 0.2, 1e-2
        est = creep_prob_killed(model, q, xs, 10, seed=0, eps=eps)
        nu = model.small_jump_moment(eps)
        want = [nu / model.drift * math.exp((model.tail_antiderivative(x) + q * x) / model.drift) for x in xs.tolist()]
        assert est.bias_bound.tolist() == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("seed", [1930549411, 1])
    def test_tempered_matches_the_oracle(self, seed):
        # the tempered model, levels, q and eps of the contour-mc workload at seed 1
        doc = {"drift": 1.0, "ac": {"kind": "tempered", "C": 0.7528, "alpha": 0.2902, "b": 1.4954}}
        model = LevyModel(drift=1.0, ac=AcTail.tempered(0.7528, 0.2902, 1.4954))
        q, xs = 0.2604, [0.5582, 1.051, 1.4457, 1.6882]
        est = creep_prob_killed(model, q, np.array(xs), 20_000, seed=seed, eps=1e-4)
        want = np.array([float(oracles.density(dict(doc, q=q), x)) for x in xs])  # drift 1
        assert np.all(np.abs(est.p_hat - want) <= 5 * est.sigma + est.bias_bound)

    def test_killed_subset_of_unkilled(self, delta1):
        crept, t_pass, _, _ = _simulate(delta1, 0.8, 30_000, 5, 0.0)
        e_q = -np.log1p(-_stream(5, _PURPOSE_KILL, 0, 30_000)) / 0.7
        killed_success = crept & (t_pass <= e_q)
        assert np.all(killed_success <= crept)


class TestJumpDraws:
    """One uniform per jump; a tempered jump inverts the normalised tail."""

    @pytest.mark.parametrize("ac", [AcTail.stable(0.2, 0.4), AcTail.tempered(0.2, 0.4, 1.0)], ids=["stable", "tempered"])
    def test_residual_uniform_of_one_gives_a_finite_jump(self, ac):
        model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1.0, 0.7)]), ac=ac)
        sampler = _JumpSampler(model, 1e-3)
        u = 1.0 - 2.0**-53
        # the component selector rounds the residual uniform up to 1 here
        assert (u * sampler.rate - sampler.w_atoms) / sampler.w_ac == 1.0
        y = sampler.sample(np.full(3, u))
        assert np.all(np.isfinite(y) & (y >= 1e-3))

    def test_tempered_draw_inverts_the_tail(self):
        # alpha ln y + b y = alpha ln eps + b eps - log1p(-v): tbar2(y)/tbar2(eps) = 1 - v
        v = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        for alpha, b, eps in itertools.product((0.01, 0.3, 0.99), (1e-3, 1.0, 1e3), (1e-9, 1e-3, 0.5)):
            y = _JumpSampler(LevyModel(drift=1.0, ac=AcTail.tempered(1.0, alpha, b)), eps)._sample_ac(v)
            target = alpha * math.log(eps) + b * eps - np.log1p(-v)
            assert np.all(np.isfinite(y) & (y >= eps)), (alpha, b, eps, y)
            resid = np.abs(alpha * np.log(y) + b * y - target)
            assert np.all(resid <= 8 * np.finfo(float).eps * np.maximum(np.abs(target), 1.0)), (alpha, b, eps, resid)

    @staticmethod
    def _whole_array_newton(alpha, b, eps, v):
        """Reference tempered draw: Newton passes over every entry until none falls."""
        e = -np.log1p(-v)
        target = alpha * math.log(eps) + b * eps + e
        w = np.minimum(math.log(eps) + e / alpha, np.log(eps + e / b))
        while True:
            y = np.exp(w)
            w_new = np.minimum(w, w - (alpha * w + b * y - target) / (alpha + b * y))
            if not np.any(w_new < w):
                return np.maximum(y, eps)
            w = w_new

    def test_tempered_draw_matches_whole_array_newton(self):
        # iterating only the draws still falling gives the whole-array loop's bits
        grid = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        seeded = np.random.default_rng(2024).random(10_000)
        for alpha, b, eps in itertools.product((0.01, 0.3, 0.99), (1e-3, 1.0, 1e3), (1e-9, 1e-3, 0.5)):
            sampler = _JumpSampler(LevyModel(drift=1.0, ac=AcTail.tempered(1.0, alpha, b)), eps)
            for v in (grid, seeded):
                want = self._whole_array_newton(alpha, b, eps, v)
                assert sampler._sample_ac(v).tobytes() == want.tobytes(), (alpha, b, eps)

    def test_tempered_draw_memory(self):
        # 20 000 draws of the tempered tail C 0.7528, alpha 0.2902, b 1.4954 at eps 1e-4: a
        # Newton pass that compacted i, w and the target together, with the old arrays and
        # the new iterate still alive, peaked at 1.76 MB (about eleven draw-sized arrays);
        # formed in place and compacted one array at a time it stays under 1.2 MB
        import tracemalloc

        sampler = _JumpSampler(LevyModel(drift=1.0, ac=AcTail.tempered(0.7528, 0.2902, 1.4954)), 1e-4)
        v = np.random.default_rng(1).random(20_000)
        sampler._sample_ac(v[:10])  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            sampler._sample_ac(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6

    def test_one_jump_uniform_per_round(self, monkeypatch, tempered_model):
        seen = []

        def spy(seed, purpose, round_idx, n, start=0):
            seen.append((purpose, round_idx, start))
            return _stream(seed, purpose, round_idx, n, start)

        monkeypatch.setattr(simulate, "_stream", spy)
        creep_prob_killed(tempered_model, 0.3, np.array([0.4, 1.7]), 2000, seed=5, eps=1e-4)
        assert (_PURPOSE_JUMP, 1, 0) in seen
        assert {purpose for purpose, _, _ in seen} <= {_PURPOSE_WAIT, _PURPOSE_JUMP, _PURPOSE_KILL}
        assert len(seen) == len(set(seen))


class TestReproducibility:
    def test_identical_seed_identical_estimate(self, delta1):
        a = creep_prob(delta1, 1.5, 50_000, seed=99)
        b = creep_prob(delta1, 1.5, 50_000, seed=99)
        assert a.p_hat == b.p_hat

    def test_prefix_stability(self, delta1):
        c1, *_ = _simulate(delta1, 1.5, 1_000, 9, 0.0)
        c2, *_ = _simulate(delta1, 1.5, 4_000, 9, 0.0)
        assert np.array_equal(c1, c2[:1_000])

    def test_single_path_matches_batch(self, delta1):
        crept, t_pass, over, jumps = _simulate(delta1, 1.5, 64, 17, 0.0)
        for pid in (0, 7, 63):
            out = first_passage(delta1, 1.5, seed=17, path_id=pid)
            assert out.crept == bool(crept[pid])
            assert out.t_passage == pytest.approx(float(t_pass[pid]), rel=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_seeds_change_estimates(self, seed):
        a = creep_prob(LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)])), 1.0, 500, seed=seed)
        assert 0.0 <= a.p_hat <= 1.0


class TestOnePassForEveryLevel:
    """One array call equals the per-level reference bit for bit."""

    XS = [1.7, 0.4, 2.5, 0.4, 1.0, 3.2, 0.05]  # unsorted, repeated, an atom location

    @pytest.mark.parametrize("name, n_paths, eps, q", [
        ("delta1", 4000, 0.0, 0.0),
        ("two_atoms", 4000, 0.0, 0.4),
        ("stable_half", 500, 1e-3, 0.0),
        ("tempered_model", 1000, 1e-4, 0.3),
        ("pure_drift", 4000, 0.0, 0.5),
    ])
    def test_array_call_matches_reference(self, request, name, n_paths, eps, q):
        if name == "two_atoms":
            model = LevyModel(drift=1.0, q=0.4, atomic=AtomicPart.from_pairs([(0.7, 0.6), (1.5, 0.8)]))
        else:
            model = request.getfixturevalue(name)
        xs = np.array(self.XS)
        if q > 0:
            est = creep_prob_killed(model, q, xs, n_paths, seed=31, eps=eps)
        else:
            est = creep_prob(model, xs, n_paths, seed=31, eps=eps)
        assert est.n_paths == n_paths and est.q == q
        assert np.array_equal(est.x, xs)
        for k, x in enumerate(self.XS):
            p, ci = _reference_estimate(model, x, n_paths, 31, eps, q)
            assert est.p_hat[k] == p and est.ci95[k] == ci
            one = (creep_prob_killed(model, q, x, n_paths, seed=31, eps=eps) if q > 0
                   else creep_prob(model, x, n_paths, seed=31, eps=eps))
            assert isinstance(one.p_hat, float) and one.p_hat == p and one.ci95 == ci
            assert one.x == x and est.bias_bound[k] == one.bias_bound

    def test_first_passage_matches_reference(self):
        model = LevyModel(drift=0.8, atomic=AtomicPart.from_pairs([(0.3, 1.5), (1.1, 0.4)]))
        crept, t_pass, over, jumps = _simulate(model, 1.9, 40, 5, 0.0)
        for pid in range(40):
            out = first_passage(model, 1.9, seed=5, path_id=pid)
            assert (out.crept, out.t_passage, out.overshoot, out.n_jumps) == (
                bool(crept[pid]), float(t_pass[pid]), float(over[pid]), int(jumps[pid]))

    @pytest.mark.parametrize("call", [
        lambda m: creep_prob(m, 1.0, 10, eps=float("nan")),
        lambda m: creep_prob(m, 1.0, 10, eps=float("inf")),
        lambda m: creep_prob(m, 1.0, 10, eps=-1.0),
        lambda m: creep_prob_killed(m, float("nan"), 1.0, 10),
        lambda m: creep_prob_killed(m, float("inf"), 1.0, 10),
        lambda m: creep_prob(m, [1.0, float("nan")], 10),
        lambda m: creep_prob(m, [[1.0]], 10),
        lambda m: first_passage(m, 1.0, seed=0, q=float("nan")),
        lambda m: first_passage(m, 1.0, seed=0, eps=float("nan")),
    ])
    def test_non_finite_inputs_refused(self, delta1, call):
        with pytest.raises(ValueError):
            call(delta1)


class TestBlocks:
    """Paths run in blocks; the draws and counts are those of one pass over all paths."""

    @pytest.mark.parametrize("start", [0, 4, _BLOCK, 3 * _BLOCK + 4])
    def test_offset_stream_is_a_slice_of_the_whole(self, start):
        for purpose in (_PURPOSE_WAIT, _PURPOSE_JUMP, _PURPOSE_KILL):
            assert np.array_equal(_stream(7, purpose, 3, 100, start), _stream(7, purpose, 3, start + 100)[start:])

    @pytest.mark.parametrize("start", [1, 2, 3, 6, _BLOCK + 2])
    def test_offset_not_a_multiple_of_four_raises(self, start):
        with pytest.raises(ValueError, match="multiple of 4"):
            _stream(7, _PURPOSE_WAIT, 1, 10, start)

    XS = [1.7, 0.4, 2.5, 0.4, 0.05]

    @pytest.mark.parametrize("name, n_paths, eps, q", [
        ("delta1", 4000, 0.0, 0.0),
        ("two_atoms", 4003, 0.0, 0.4),
        ("stable_half", 4003, 1e-3, 0.0),
        ("tempered_model", 203, 1e-4, 0.3),  # some 250 rounds a block: fewer paths
    ])
    def test_small_blocks_match_reference(self, request, monkeypatch, name, n_paths, eps, q):
        # 8 paths a block: hundreds of blocks, the last one short when n_paths is 4003
        monkeypatch.setattr(simulate, "_BLOCK", 8)
        if name == "two_atoms":
            model = LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(0.7, 0.6), (1.5, 0.8)]))
        else:
            model = request.getfixturevalue(name)
        xs = np.array(self.XS)
        est = (creep_prob_killed(model, q, xs, n_paths, seed=23, eps=eps) if q > 0
               else creep_prob(model, xs, n_paths, seed=23, eps=eps))
        for k, x in enumerate(self.XS):
            assert (est.p_hat[k], est.ci95[k]) == _reference_estimate(model, x, n_paths, 23, eps, q)

    LINE = np.linspace(0.05, 6, 40)  # level spacing 0.15: a unit-rate wait creeps over several

    @pytest.mark.parametrize("name, eps, ref_levels", [
        ("delta1", 0.0, slice(None)),
        # a per-level reference run of the tempered model takes about 0.3 s per
        # unit of x at this size, so it is checked at XS and two line levels
        ("tempered_model", 1e-4, slice(0, 40, 20)),
    ])
    def test_real_size_blocks_match_reference(self, request, name, eps, ref_levels):
        # _BLOCK as shipped: two full blocks and one of five paths, 45 levels at once
        model = request.getfixturevalue(name)
        n_paths, q = 2 * _BLOCK + 5, 0.3
        xs = np.concatenate([self.XS, self.LINE])
        est = creep_prob_killed(model, q, xs, n_paths, seed=37, eps=eps)
        for k in [*range(len(self.XS)), *(len(self.XS) + np.arange(self.LINE.size)[ref_levels])]:
            assert (est.p_hat[k], est.ci95[k]) == _reference_estimate(model, xs[k], n_paths, 37, eps, q), xs[k]

    def test_first_passage_matches_reference(self, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK", 8)
        model = LevyModel(drift=0.8, atomic=AtomicPart.from_pairs([(0.3, 1.5), (1.1, 0.4)]))
        crept, t_pass, over, jumps = _simulate(model, 1.9, 41, 5, 0.0)
        e_q = -np.log1p(-_stream(5, _PURPOSE_KILL, 0, 41)) / 0.6
        for pid in range(41):
            out = first_passage(model, 1.9, seed=5, path_id=pid, q=0.6)
            assert (out.crept, out.t_passage, out.overshoot, out.n_jumps, out.killed) == (
                bool(crept[pid]), float(t_pass[pid]), float(over[pid]), int(jumps[pid]),
                bool(t_pass[pid] > e_q[pid]))

    def test_first_passage_far_out(self, delta1):
        # unit atom, x < 1: the path creeps if its first wait exceeds x, and
        # otherwise the jump of 1 ends it, so the whole wait stream is the oracle
        pid, x = 10**6 + 2, 0.7
        tau = -math.log1p(-float(_stream(3, _PURPOSE_WAIT, 1, pid + 1)[pid]))
        out = first_passage(delta1, x, seed=3, path_id=pid)
        assert (out.crept, out.n_jumps) == ((True, 0) if x < tau else (False, 1))
        assert out.t_passage == (x if x < tau else tau)

    def test_memory_does_not_grow_with_paths(self, delta1):
        peaks = []
        for n_paths in (_BLOCK, 8 * _BLOCK):
            tracemalloc.start()
            try:
                creep_prob_killed(delta1, 0.2, [0.5, 1.5, 2.5], n_paths)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("call", [
        lambda m: first_passage(m, 1.0, seed=0, path_id=-1),
        lambda m: first_passage(m, 1.0, seed=0, path_id=2.5),
        lambda m: first_passage(m, 1.0, seed=0, path_id=True),
        lambda m: first_passage(m, 1.0, seed=0, path_id="3"),
        lambda m: creep_prob(m, 1.0, 1000.5),
        lambda m: creep_prob(m, 1.0, 1000.0),
        lambda m: creep_prob(m, 1.0, 0),
        lambda m: creep_prob(m, 1.0, True),
        lambda m: creep_prob_killed(m, 0.3, 1.0, -5),
        lambda m: creep_prob_killed(m, 0.3, 1.0, np.float64(10)),
    ])
    def test_bad_path_counts_refused(self, delta1, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call(delta1)

    def test_numpy_integers_accepted(self, delta1):
        assert creep_prob(delta1, 1.5, np.int64(3000), seed=2).p_hat == creep_prob(delta1, 1.5, 3000, seed=2).p_hat
        assert first_passage(delta1, 1.5, seed=2, path_id=np.int32(9)) == first_passage(delta1, 1.5, seed=2, path_id=9)
