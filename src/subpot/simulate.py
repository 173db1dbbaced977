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
unchanged.  There are three purposes, one uniform each per path and round:
the waiting time, the jump and (round 0 only) the killing time.  The jump
uniform picks an atom or the AC tail and, rescaled, inverts that tail
exactly; a tempered tail is inverted by Newton on alpha ln y + b y, which
iterates only the draws still falling (a stopped draw would repeat).

Paths run in blocks of ``_BLOCK``, each block to the end of its own rounds,
and only the per-level hit counts are summed across blocks.  A block that
starts at path s draws elements s, s+1, ... of each stream by advancing the
Philox counter by s/4 (four draws per counter), so it makes the same draws
as one pass over all paths, and every block reuses one set of state and
draw buffers: memory is O(``_BLOCK``) whatever n_paths is.  ``first_passage``
runs only the group of at most four paths that ends at its path.

No path's trajectory depends on x, so one pass serves every level.  The
levels are sorted once, and each round runs on the index list of the
paths with a level left, each with a pointer to its first unresolved
level.  Resolution is monotone in the level, as (x - pos)/drift is
monotone in x even in floating point.  So the pointer walks up while the
drift time to its level is under the wait, each step counting its hits
(by the killing time) with one bincount, and after a jump while its level
is below pos (a searchsorted for the few still going after two steps); a
+inf past the largest level stops both walks.  These are, on the same
pos, t, waits, jumps and killing times, the comparisons a separate run
per level makes, so the estimate at every x is that run's to the bit.

Small jumps below eps are dropped without drift compensation
(compensating would corrupt the creeping event); the induced bias carries
a documented bound from perturbing the renewal kernel:

    |drift*u_eps(x) - drift*u(x)| <= (nu_eps/drift) * exp(m(x)),

with nu_eps the first moment of the dropped jumps and m(x) the series
contraction factor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import PreconditionError, check_points, check_positive
from .model import LevyModel

_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)

_PURPOSE_WAIT = 0
_PURPOSE_JUMP = 1
_PURPOSE_KILL = 2

_MAX_ROUNDS = 100_000

_BLOCK = 2**15  # paths per block; a multiple of 4, the draws per Philox counter


def _stream(seed: int, purpose: int, round_idx: int, n: Union[int, np.ndarray], start: int = 0) -> np.ndarray:
    """Uniforms in [0,1) for paths start ... start+n-1, written into n if it is
    an array: counter-indexed, so the draw of a path does not depend on n or
    start; start is a multiple of 4."""
    from numpy.random import Generator, Philox  # here, so a process that never simulates never loads it

    if start % 4:
        raise ValueError(f"start must be a multiple of 4, got {start}")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), _KEY_SALT], dtype=np.uint64)
    counter = np.array([0, 0, round_idx, purpose], dtype=np.uint64)
    out = n if isinstance(n, np.ndarray) else np.empty(n)
    return Generator(Philox(counter=counter, key=key).advance(start // 4)).random(out=out)


def _check_count(name: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    """Creeping frequencies; x, p_hat, ci95 and bias_bound are arrays in the
    order of an array x, and floats for a scalar x."""

    x: Union[float, np.ndarray]
    q: float
    n_paths: int
    p_hat: Union[float, np.ndarray]
    ci95: Union[float, np.ndarray]
    truncation_eps: float
    seed: int
    bias_bound: Union[float, np.ndarray]

    @property
    def sigma(self) -> float:
        return self.ci95 / 1.96


class _JumpSampler:
    """Inverse-CDF sampling from the eps-truncated jump measure, one uniform per jump."""

    def __init__(self, model: LevyModel, eps: float):
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")
        self.model = model
        self.eps = float(eps)
        if model.has_ac and eps <= 0:
            raise PreconditionError("infinite activity requires a truncation eps > 0")
        locs = np.array([a for a in model.atomic.locations if a >= eps], dtype=float)
        masses = np.array(
            [m for a, m in zip(model.atomic.locations, model.atomic.masses) if a >= eps], dtype=float
        )
        self.atom_locs = locs
        self.w_atoms = float(masses.sum())
        self.cum_atoms = np.append(np.cumsum(masses), np.inf)  # +inf stops _walk
        ac = model.ac
        self.w_ac = float(ac.tail(max(eps, 0.0))) if not ac.is_none else 0.0
        self.rate = self.w_atoms + self.w_ac

    def sample(self, u: np.ndarray) -> np.ndarray:
        """One jump per uniform in ``u``."""
        out = u * self.rate  # the component selector, then the jump
        atom, ac = np.flatnonzero(out < self.w_atoms), np.flatnonzero(out >= self.w_atoms)
        if ac.size:
            # residual uniform, rescaled from the component selector; rounding
            # can make it 1, the one value with an infinite jump
            out[ac] = self._sample_ac(np.minimum((out[ac] - self.w_atoms) / self.w_ac, np.nextafter(1.0, 0.0)))
        k = _walk(self.cum_atoms, np.zeros_like(atom), out[atom], "right")
        out[atom] = self.atom_locs.take(np.minimum(k, self.atom_locs.size - 1))
        return out

    def _sample_ac(self, v: np.ndarray) -> np.ndarray:
        """The jump y >= eps whose normalised tail tbar2(y)/tbar2(eps) is 1 - v."""
        ac, eps = self.model.ac, self.eps
        if ac.kind == "stable":
            return eps * (1.0 - v) ** (-1.0 / ac.alpha)
        # tempered: alpha ln y + b y = L, by Newton in w = ln y; g(w) = alpha w
        # + b e^w - L is increasing and convex and >= 0 at both starts, so the
        # iterates fall monotonically to the root until rounding stops them; a
        # stopped iterate would repeat, so only the falling ones (i) iterate.
        # target holds e = -ln(1 - v) for the starts, then L = alpha ln eps +
        # b eps + e
        a, b, target = ac.alpha, ac.b, -np.log1p(-v)
        w = np.minimum(math.log(eps) + target / a, np.log(eps + target / b))
        target += a * math.log(eps) + b * eps
        i, y = np.arange(v.size), np.empty_like(w)
        while i.size:
            # w_new = min(w, w - (a w + b y - L) / (a + b y)) is formed in place
            # and the arrays are compacted one at a time, so that at most seven
            # draw-sized arrays are alive at once
            y[i] = by = np.exp(w)
            by *= b
            w_new = a * w
            w_new += by
            w_new -= target
            by += a
            w_new /= by
            del by
            np.minimum(w, np.subtract(w, w_new, out=w_new), out=w_new)
            falling = np.flatnonzero(w_new < w)
            w = w_new[falling]
            del w_new
            i = i[falling]
            target = target[falling]
        return np.maximum(y, eps)


def _walk(table: np.ndarray, k: np.ndarray, key: np.ndarray, side: str = "left") -> np.ndarray:
    """Advance each k in place while table[k] < key (<= for side "right"):
    with table sorted and ending in +inf, max(k, searchsorted(table, key,
    side)).  Two steps are walked; only keys still going are searched."""
    below = np.less if side == "left" else np.less_equal
    s = np.flatnonzero(below(table.take(k), key))
    for _ in range(2):
        k[s] += 1
        s = s[np.flatnonzero(below(table.take(k[s]), key[s]))]
    k[s] = np.maximum(k[s], np.searchsorted(table, key[s], side=side))
    return k


def _passage(sampler: _JumpSampler, levels: np.ndarray, seed: int, start: int,
             state, e_q: Optional[np.ndarray] = None) -> np.ndarray:
    """One round loop over the paths start ... start+n-1 and every level.

    ``levels`` is sorted and unique.  ``state`` holds n-entry buffers: pos,
    t and jumps, reset here, end as each path's state when it resolved the
    largest level; u and tau take each round's draws.  Returns hits: hits[j]
    counts the paths that creep over levels[j] (by their killing time e_q).
    """
    pos, t, jumps, u, tau = state
    for buf in state[:3]:
        buf.fill(0)
    delta, rate, n_x = sampler.model.drift, sampler.rate, levels.size
    lv = np.append(levels, np.inf)  # past the largest level no wait creeps
    hits = np.zeros(n_x, dtype=np.int64)
    # the paths with a level left, their first unresolved levels and positions
    live, k, p = np.arange(pos.size), np.zeros(pos.size, dtype=np.intp), np.zeros(pos.size)

    for round_idx in range(1, _MAX_ROUNDS + 1):
        if live.size == 0:
            break
        tau_l = tau[:live.size]
        if rate == 0.0:  # pure drift: the first segment creeps over every level
            tau_l.fill(np.inf)
        else:  # mode "clip" takes into tau unbuffered; every index is in range
            np.take(_stream(seed, _PURPOSE_WAIT, round_idx, u, start), live, out=tau_l, mode="clip")
            np.divide(np.negative(np.log1p(np.negative(tau_l, out=tau_l), out=tau_l), out=tau_l), rate, out=tau_l)
        # walk k up while the drift time to level k is under the wait; s
        # indexes the live paths still creeping
        s = np.flatnonzero((lv.take(k) - p) / delta < tau_l)
        while s.size:
            ks = k[s]
            crept = ks if e_q is None else ks[np.flatnonzero(  # by the killing time
                t[live[s]] + (lv.take(ks) - p[s]) / delta <= e_q[live[s]])]
            hits += np.bincount(crept, minlength=n_x)
            ks += 1
            k[s] = ks
            s = s[np.flatnonzero((lv.take(ks) - p[s]) / delta < tau_l[s])]
        j = np.flatnonzero(k < n_x)
        live, k, p = live[j], k[j], p[j]
        if live.size:
            t[live] += tau_l[j]
            p += delta * tau_l[j]
            # the jump draws go into tau, free once the waits are added
            p += sampler.sample(np.take(_stream(seed, _PURPOSE_JUMP, round_idx, u, start), live,
                                        out=tau[:live.size], mode="clip"))
            pos[live] = p
            jumps[live] += 1
            _walk(lv, k, p)  # the jump resolves every level below pos
            j = np.flatnonzero(k < n_x)
            live, k, p = live[j], k[j], p[j]
    else:
        raise PreconditionError(f"simulation exceeded {_MAX_ROUNDS} rounds; eps too small for this x")
    return hits


def _buffers(n: int):
    """Buffers for ``_passage`` (pos, t, jumps, u, tau) of n paths."""
    return np.empty(n), np.empty(n), np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)


def _check_q(q: float) -> None:
    if not math.isfinite(q):
        raise ValueError(f"q must be a finite number, got {q!r}")


def first_passage(model: LevyModel, x: float, seed: int, path_id: int = 0,
                  eps: float = 0.0, q: float = 0.0) -> PathOutcome:
    """Outcome of one indexed path (same draws as the batched estimator)."""
    check_positive("x", x)
    _check_q(q)
    path_id = _check_count("path_id", path_id, 0)
    # the group of paths from the last multiple of 4 up to path_id
    start = path_id - path_id % 4
    state = _buffers(path_id - start + 1)
    _passage(_JumpSampler(model, eps), np.array([float(x)]), seed, start, state)
    pos, t, jumps = state[:3]
    end, t_end = float(pos[-1]), float(t[-1])
    # a path that crept stopped below x; a jump over x ends above it
    crept = end <= x
    t_pass = t_end + (x - end) / model.drift if crept else t_end
    killed = False
    if q > 0:
        e_q = -math.log1p(-float(_stream(seed, _PURPOSE_KILL, 0, pos.size, start)[-1])) / q
        killed = t_pass > e_q
    return PathOutcome(
        t_passage=t_pass,
        overshoot=0.0 if crept else end - x,
        crept=crept,
        killed=killed,
        n_jumps=int(jumps[-1]),
    )


def _estimate(model: LevyModel, x, n_paths: int, seed: int, eps: float, q: float) -> CreepEstimate:
    xs = check_points("x", x)
    n_paths = _check_count("n_paths", n_paths, 1)
    levels, where = np.unique(xs, return_inverse=True)
    sampler = _JumpSampler(model, eps)
    buffers = _buffers(min(n_paths, _BLOCK))
    hits = np.zeros(levels.size, dtype=np.int64)
    for start in range(0, n_paths, _BLOCK):
        n = min(_BLOCK, n_paths - start)
        e_q = -np.log1p(-_stream(seed, _PURPOSE_KILL, 0, n, start)) / q if q > 0 else None
        hits += _passage(sampler, levels, seed, start, tuple(b[:n] for b in buffers), e_q)
    p = hits[where] / n_paths
    ci = 1.96 * np.sqrt(np.maximum(p * (1.0 - p), 1e-300) / n_paths)
    bias = np.zeros(xs.shape)
    if eps > 0:
        # the series contraction factor m(x), with the estimate's killing rate q
        m = (model.tail_antiderivative(xs) + q * xs) / model.drift
        bias = model.small_jump_moment(eps) / model.drift * np.exp(m)
    if np.ndim(x) == 0:
        xs, p, ci, bias = float(xs[0]), float(p[0]), float(ci[0]), float(bias[0])
    return CreepEstimate(x=xs, q=q, n_paths=n_paths, p_hat=p, ci95=ci,
                         truncation_eps=eps, seed=seed, bias_bound=bias)


def creep_prob(model: LevyModel, x, n_paths: int, seed: int = 0,
               eps: float = 0.0) -> CreepEstimate:
    """Monte Carlo estimate of drift * u(x) as the creeping frequency.

    ``x`` is a number or a 1-D array; one pass over the paths serves every x.
    """
    return _estimate(model, x, n_paths, seed, eps, 0.0)


def creep_prob_killed(model: LevyModel, q: float, x, n_paths: int, seed: int = 0,
                      eps: float = 0.0) -> CreepEstimate:
    """Creeping before an independent exponential killing time: drift * u^(q)(x).

    The kill draw uses a dedicated counter purpose, so the crept set couples
    with the unkilled run under the same seed (killed successes are a subset).
    """
    _check_q(q)
    if q <= 0:
        raise PreconditionError("killed estimator requires q > 0")
    return _estimate(model, x, n_paths, seed, eps, q)
