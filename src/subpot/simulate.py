"""Event-driven first-passage simulation and creeping-probability estimates.

Between jumps the path is a straight line of slope drift, so whether the
path creeps over level x is a logical comparison -- the drift segment
reaches x strictly before the next jump time -- never a float equality on
the path position.  Strict inequality is deliberate: a jump landing at the
exact crossing instant overshoots.

Randomness is counter-based (Philox).  Draw r of purpose p for path i is
element i of the stream keyed by (seed, p, r), so the estimate depends
only on (model, x, q, n_paths, seed, eps): any batch split or thread
schedule reproduces it, and extending n_paths leaves earlier paths
unchanged.  Small jumps below eps are dropped without drift compensation
(compensating would corrupt the creeping event); the induced bias carries
a documented bound from perturbing the renewal kernel:

    |drift*u_eps(x) - drift*u(x)| <= (nu_eps/drift) * exp(m(x)),

with nu_eps the first moment of the dropped jumps and m(x) the series
contraction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.random import Generator, Philox

from .errors import PreconditionError
from .model import LevyModel

_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)

_PURPOSE_WAIT = 0
_PURPOSE_JUMP = 1
_PURPOSE_KILL = 2
_PURPOSE_REJECT = 3

_MAX_ROUNDS = 100_000


def _stream(seed: int, purpose: int, round_idx: int, n: int) -> np.ndarray:
    """Uniforms in [0,1) for all paths: counter-indexed, prefix-stable in n."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), _KEY_SALT], dtype=np.uint64)
    counter = np.array([0, 0, round_idx, purpose], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key)).random(n)


@dataclass(frozen=True)
class PathOutcome:
    """First passage of one path over level x."""

    t_passage: float
    overshoot: float
    crept: bool
    killed: bool
    n_jumps: int


@dataclass(frozen=True)
class CreepEstimate:
    x: float
    q: float
    n_paths: int
    p_hat: float
    ci95: float
    truncation_eps: float
    seed: int
    bias_bound: float

    @property
    def sigma(self) -> float:
        return self.ci95 / 1.96


class _JumpSampler:
    """Inverse-CDF / rejection sampling from the eps-truncated jump measure."""

    def __init__(self, model: LevyModel, eps: float):
        self.model = model
        self.eps = float(eps)
        if not model.finite_activity and eps <= 0:
            raise PreconditionError("infinite activity requires a truncation eps > 0")
        locs = np.array([a for a in model.atomic.locations if a >= eps], dtype=float)
        masses = np.array(
            [m for a, m in zip(model.atomic.locations, model.atomic.masses) if a >= eps], dtype=float
        )
        self.atom_locs = locs
        self.w_atoms = float(masses.sum())
        self.cum_atoms = np.cumsum(masses)
        ac = model.ac
        self.w_ac = float(ac.tail(max(eps, 0.0))) if not ac.is_none else 0.0
        if not ac.is_none and eps <= 0:
            raise PreconditionError("AC tail requires eps > 0")
        self.rate = self.w_atoms + self.w_ac
        if ac.kind == "tempered":
            # envelope for accept ratio (1 + (b/alpha) y) e^{-b y} on [eps, inf)
            y_star = max((1.0 - ac.alpha) / ac.b, eps)
            self.env = (1.0 + ac.b / ac.alpha * y_star) * math.exp(-ac.b * y_star)

    def sample(self, seed: int, round_idx: int, idx: np.ndarray, n_total: int) -> np.ndarray:
        u = _stream(seed, _PURPOSE_JUMP, round_idx, n_total)[idx]
        out = np.empty(idx.size, dtype=float)
        pick = u * self.rate
        is_atom = pick < self.w_atoms
        if np.any(is_atom):
            k = np.searchsorted(self.cum_atoms, pick[is_atom], side="right")
            out[is_atom] = self.atom_locs[np.minimum(k, self.atom_locs.size - 1)]
        n_ac = int(np.sum(~is_atom))
        if n_ac:
            # residual uniform, rescaled from the component selector
            v = (pick[~is_atom] - self.w_atoms) / self.w_ac
            out[~is_atom] = self._sample_ac(v, seed, round_idx, idx[~is_atom], n_total)
        return out

    def _sample_ac(self, v: np.ndarray, seed: int, round_idx: int, idx: np.ndarray, n_total: int) -> np.ndarray:
        ac = self.model.ac
        eps = self.eps
        draw = eps * (1.0 - v) ** (-1.0 / ac.alpha)  # stable inverse CDF on [eps, inf)
        if ac.kind == "stable":
            return draw
        # tempered: rejection against the stable proposal, fresh counter rows
        out = draw
        pending = np.ones(out.size, dtype=bool)
        attempt = 0
        while np.any(pending):
            attempt += 1
            if attempt > 10_000:
                raise PreconditionError("tempered rejection sampler failed to terminate")
            ratio = (1.0 + ac.b / ac.alpha * out) * np.exp(-ac.b * out) / self.env
            u_acc = _stream(seed, _PURPOSE_REJECT, (round_idx << 16) + 2 * attempt, n_total)[idx]
            accept = pending & (u_acc <= ratio)
            pending &= ~accept
            if np.any(pending):
                u_new = _stream(seed, _PURPOSE_REJECT, (round_idx << 16) + 2 * attempt + 1, n_total)[idx]
                out = np.where(pending, eps * (1.0 - u_new) ** (-1.0 / ac.alpha), out)
        return out


def _simulate(model: LevyModel, x: float, n_paths: int, seed: int, eps: float):
    """Vectorized rounds over all paths; returns (crept, t_passage, overshoot, n_jumps)."""
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
            sizes = sampler.sample(seed, round_idx, ji, n_paths)
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


def first_passage(model: LevyModel, x: float, seed: int, path_id: int = 0,
                  eps: float = 0.0, q: float = 0.0) -> PathOutcome:
    """Outcome of one indexed path (same draws as the batched estimator)."""
    crept, t_pass, over, jumps = _simulate(model, x, path_id + 1, seed, eps)
    killed = False
    if q > 0:
        e_q = -math.log1p(-float(_stream(seed, _PURPOSE_KILL, 0, path_id + 1)[path_id])) / q
        killed = bool(t_pass[path_id] > e_q)
    return PathOutcome(
        t_passage=float(t_pass[path_id]),
        overshoot=float(over[path_id]),
        crept=bool(crept[path_id]),
        killed=killed,
        n_jumps=int(jumps[path_id]),
    )


def _bias_bound(model: LevyModel, x: float, eps: float) -> float:
    if eps <= 0:
        return 0.0
    nu = model.small_jump_moment(eps)
    m = (model.tail_antiderivative(x) + model.q * x) / model.drift  # the series contraction factor m(x)
    return nu / model.drift * math.exp(m)


def creep_prob(model: LevyModel, x: float, n_paths: int, seed: int = 0,
               eps: float = 0.0) -> CreepEstimate:
    """Monte Carlo estimate of drift * u(x) as the creeping frequency."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    crept, _, _, _ = _simulate(model, x, n_paths, seed, eps)
    p = float(np.count_nonzero(crept)) / n_paths
    ci = 1.96 * math.sqrt(max(p * (1.0 - p), 1e-300) / n_paths)
    return CreepEstimate(x=x, q=0.0, n_paths=n_paths, p_hat=p, ci95=ci,
                         truncation_eps=eps, seed=seed, bias_bound=_bias_bound(model, x, eps))


def creep_prob_killed(model: LevyModel, q: float, x: float, n_paths: int, seed: int = 0,
                      eps: float = 0.0) -> CreepEstimate:
    """Creeping before an independent exponential killing time: drift * u^(q)(x).

    The kill draw uses a dedicated counter purpose, so the crept set couples
    with the unkilled run under the same seed (killed successes are a subset).
    """
    if q <= 0:
        raise PreconditionError("killed estimator requires q > 0")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    crept, t_pass, _, _ = _simulate(model, x, n_paths, seed, eps)
    e_q = -np.log1p(-_stream(seed, _PURPOSE_KILL, 0, n_paths)) / q
    success = crept & (t_pass <= e_q)
    p = float(np.count_nonzero(success)) / n_paths
    ci = 1.96 * math.sqrt(max(p * (1.0 - p), 1e-300) / n_paths)
    return CreepEstimate(x=x, q=q, n_paths=n_paths, p_hat=p, ci95=ci,
                         truncation_eps=eps, seed=seed, bias_bound=_bias_bound(model, x, eps))
