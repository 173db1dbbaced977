"""Subordinator model: drift, jump measure, optional exponential killing.

The process is X_t = delta*t + (jumps), where jumps arrive with intensity
measure Pi(dx) on (0, inf) subject to the integrability condition
int (1 ^ x) Pi(dx) < inf.  The measure is the sum of

  * a finite atomic part, optionally generated from a reciprocal-integer
    family (locations 1/j for j = 1..cap) truncated at a documented cap, and
  * an absolutely continuous part given through its tail: either
    tbar2(x) = C * x**(-alpha) ("stable") or C * x**(-alpha) * exp(-b*x)
    ("tempered"), with alpha in (0, 1).

The tail function tbar(y) = Pi([y, inf)) is left-continuous; at an atom
the two one-sided values differ by exactly the atom's mass and both are
exposed through :meth:`LevyModel.tail`.  By convention tbar(y) = 0 for
y <= 0, and tbar(0+) may be infinite (represented as ``math.inf``, a
deliberate marker rather than an overflow).

All types are immutable after construction; every method is a pure
function of the model, so instances are safe to share between threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _special
from .errors import IndeterminateIndexError, ModelValidationError

_LOCATION_TOL = 1e-12

# Index estimation for generated families: decay exponents closer to 1
# than this margin, combined with a poor power-law fit, are refused.
_SLOPE_MARGIN = 0.1
_FIT_RESIDUAL_LIMIT = 0.05


class Side(Enum):
    """One-sided limit selector for functions with jumps."""

    LEFT = "left"
    RIGHT = "right"


def _is_finite_number(v) -> bool:
    """A finite real number; booleans (JSON ``true``) are ints but not numbers."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _drift_q_rules(drift, q) -> list:
    """(pointer, message) for each of drift > 0 and q >= 0 that fails; both must be finite."""
    violations = []
    if not (_is_finite_number(drift) and drift > 0):
        violations.append(("/drift", "drift must be a finite number > 0"))
    if not (_is_finite_number(q) and q >= 0):
        violations.append(("/q", "q must be a finite number >= 0"))
    return violations


# the fields each AC kind reads; AcTail stores the others as 0.0
_AC_FIELDS = {"none": (), "stable": ("C", "alpha"), "tempered": ("C", "alpha", "b")}


def _ac_rules(kind, C, alpha, b) -> list:
    """(pointer, message) for each AC-tail field that fails; a tail needs C > 0 and
    alpha in (0, 1), a tempered one also b > 0, all finite."""
    if kind not in ("none", "stable", "tempered"):
        return [("/ac/kind", f"unknown AC kind {kind!r}")]
    violations = []
    if kind != "none":
        if not (_is_finite_number(C) and C > 0):
            violations.append(("/ac/C", "C must be a finite number > 0"))
        if not (_is_finite_number(alpha) and 0.0 < alpha < 1.0):
            violations.append(("/ac/alpha", "alpha must lie in (0, 1)"))
    if kind == "tempered" and not (_is_finite_number(b) and b > 0):
        violations.append(("/ac/b", "b must be a finite number > 0"))
    return violations


def _as_fraction(value) -> Optional[Fraction]:
    if isinstance(value, bool):
        return None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return None


@dataclass(frozen=True)
class AtomicPart:
    """Finite list of atoms (location, mass), locations strictly increasing.

    ``exact_locations`` keeps a parallel rational value for every location
    that was entered as a rational (int, Fraction, or a string like "7/10");
    these drive exact membership tests in the atom-sum sets.
    """

    locations: tuple = ()
    masses: tuple = ()
    exact_locations: tuple = ()
    generator: Optional[str] = None
    generator_cap: int = 0

    @classmethod
    def empty(cls) -> "AtomicPart":
        return cls()

    @classmethod
    def from_pairs(cls, pairs: Sequence) -> "AtomicPart":
        """Build from (location, mass) pairs; locations may be rational strings."""
        if not pairs:
            return cls.empty()
        exact = [_as_fraction(loc) for loc, _ in pairs]
        locs = [loc if ex is None else float(ex) for (loc, _), ex in zip(pairs, exact)]
        masses = [m for _, m in pairs]
        order = sorted(range(len(locs)), key=lambda i: locs[i])
        return cls(
            locations=tuple(locs[i] for i in order),
            masses=tuple(masses[i] for i in order),
            exact_locations=tuple(exact[i] for i in order),
        )

    @classmethod
    def reciprocal_integers(cls, masses: Sequence[float], cap: int) -> "AtomicPart":
        """Family with atoms at 1/j, j = 1..cap, truncated at the cap.

        The constructor checks that sum_j (1 ^ 1/j) m_j converges within the
        cap (power-law fit of the terms m_j / j).
        """
        masses = [float(m) for m in masses]
        if len(masses) != cap:
            raise ModelValidationError(
                [("/atom_family/masses", f"expected {cap} masses, got {len(masses)}")]
            )
        j = np.arange(1, cap + 1, dtype=float)
        terms = np.asarray(masses) / j
        slope, resid = _power_fit(terms)
        if slope is None or (slope < 1.0 + _SLOPE_MARGIN and resid > _FIT_RESIDUAL_LIMIT):
            raise ModelValidationError(
                [("/atom_family/masses", "partial sums of (1 ^ x) masses do not converge within the cap")]
            )
        if slope < 1.0 + _SLOPE_MARGIN:
            raise ModelValidationError(
                [("/atom_family/masses", f"mass decay exponent {slope:.3f} too close to divergence")]
            )
        exact = tuple(Fraction(1, k) for k in range(cap, 0, -1))
        return cls(
            locations=tuple(1.0 / k for k in range(cap, 0, -1)),
            masses=tuple(masses[k - 1] for k in range(cap, 0, -1)),
            exact_locations=exact,
            generator="reciprocal-integers",
            generator_cap=cap,
        )

    def __post_init__(self):
        if not all(_is_finite_number(v) for v in (*self.locations, *self.masses)):
            raise ModelValidationError([("/atoms", "locations and masses must be finite numbers")])
        object.__setattr__(self, "locations", tuple(float(v) for v in self.locations))
        object.__setattr__(self, "masses", tuple(float(v) for v in self.masses))
        locs = np.asarray(self.locations, dtype=float)
        if locs.size and (np.any(locs <= 0) or np.any(np.diff(locs) <= 0)):
            raise ModelValidationError([("/atoms", "locations must be positive and strictly increasing")])
        if any(m <= 0 for m in self.masses):
            raise ModelValidationError([("/atoms", "masses must be positive")])
        if len(self.masses) != len(self.locations):
            raise ModelValidationError([("/atoms", "locations and masses differ in length")])
        if len(self.exact_locations) != len(self.locations):
            object.__setattr__(self, "exact_locations", tuple(None for _ in self.locations))

    @property
    def is_empty(self) -> bool:
        return len(self.locations) == 0

    @property
    def all_rational(self) -> bool:
        return bool(self.locations) and all(e is not None for e in self.exact_locations)

    def total_mass(self) -> float:
        return float(math.fsum(self.masses))

    def mass_at(self, x: float, exact: Optional[Fraction] = None) -> float:
        """Mass of the atom sitting at x (0 at non-atoms)."""
        if exact is not None and self.all_rational:
            for loc, m in zip(self.exact_locations, self.masses):
                if loc == exact:
                    return m
            return 0.0
        for loc, m in zip(self.locations, self.masses):
            if abs(x - loc) <= _LOCATION_TOL * max(1.0, abs(loc)):
                return m
        return 0.0

    @cached_property
    def _suffix_mass(self) -> np.ndarray:
        """fsum of the masses from atom k on, for k = 0..len (the last is 0)."""
        return np.array([math.fsum(self.masses[k:]) for k in range(len(self.masses) + 1)])

    def tail(self, y, side: Side = Side.LEFT):
        """Sum of masses at locations >= y (left) or > y (right); y may be an array.

        Locations within the relative tolerance of y count as at y.  The
        atoms counted are a suffix, since locations increase.
        """
        y_arr = np.asarray(y, dtype=float)
        slack = _LOCATION_TOL * np.maximum(1.0, np.abs(y_arr))
        if side is Side.LEFT:
            first = np.searchsorted(self.locations, y_arr - slack, side="left")
        else:
            first = np.searchsorted(self.locations, y_arr + slack, side="right")
        out = self._suffix_mass[first]
        return out if np.ndim(y) else float(out)


def _power_fit(terms: np.ndarray):
    """Fit terms ~ c * j**(-slope) over the last dyadic block.

    Returns (slope, relative_residual); slope is None when the terms vanish.
    Very fast decay (residual irrelevant) is reported with a large slope.
    """
    n = terms.size
    lo = max(1, n // 2)
    block = terms[lo:]
    if block.size < 4 or np.any(block <= 0):
        if np.all(terms[lo:] <= 1e-300):
            return math.inf, 0.0
        return None, math.inf
    j = np.arange(lo + 1, n + 1, dtype=float)
    lj = np.log(j)
    lt = np.log(block)
    a = np.vstack([lj, np.ones_like(lj)]).T
    coef, res, _, _ = np.linalg.lstsq(a, lt, rcond=None)
    slope = -coef[0]
    fitted = a @ coef
    scatter = float(np.sqrt(np.mean((lt - fitted) ** 2)) / max(1.0, np.std(lt) + 1e-12))
    if slope > 6.0:
        return float(slope), 0.0
    return float(slope), scatter


@dataclass(frozen=True)
class AcTail:
    """Absolutely continuous tail family: none, stable, or tempered stable.

    Stable:   tbar2(x) = C * x**(-alpha)
    Tempered: tbar2(x) = C * x**(-alpha) * exp(-b*x)

    Both are nonincreasing, infinitely differentiable on (0, inf), and
    integrable at zero for alpha in (0, 1).
    """

    kind: str = "none"  # "none" | "stable" | "tempered"
    C: float = 0.0
    alpha: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        violations = _ac_rules(self.kind, self.C, self.alpha, self.b)
        if violations:
            raise ModelValidationError(violations)
        # a field outside the kind is 0.0, so tails that act alike compare and hash alike
        for name in ("C", "alpha", "b"):
            object.__setattr__(self, name, float(getattr(self, name)) if name in _AC_FIELDS[self.kind] else 0.0)

    @classmethod
    def none(cls) -> "AcTail":
        return cls()

    @classmethod
    def stable(cls, C: float, alpha: float) -> "AcTail":
        return cls(kind="stable", C=C, alpha=alpha)

    @classmethod
    def tempered(cls, C: float, alpha: float, b: float) -> "AcTail":
        return cls(kind="tempered", C=C, alpha=alpha, b=b)

    @property
    def is_none(self) -> bool:
        return self.kind == "none"

    @cached_property
    def g(self) -> float:
        """C Gamma(1 - alpha), the transform constant of the tail (0.0 without one).

        Formed on first read, not in the constructor, so that building or
        loading a model never loads scipy.special, and a model without a
        tail never calls it.
        """
        return 0.0 if self.is_none else self.C * _special.gamma(1.0 - self.alpha)

    @property
    def tempering(self) -> float:
        """The tempering rate: b for the tempered family, else 0.0."""
        return self.b if self.kind == "tempered" else 0.0

    def tail(self, y):
        """tbar2(y); +inf at y = 0 (alpha > 0 makes the tail explode)."""
        if self.is_none:
            return np.zeros_like(np.asarray(y, dtype=float)) if np.ndim(y) else 0.0
        y_arr = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            out = self.C * np.power(y_arr, -self.alpha, where=y_arr > 0, out=np.full_like(y_arr, math.inf))
            out = np.where(y_arr > 0, out, np.where(y_arr == 0, math.inf, 0.0))
        if self.kind == "tempered":
            out = out * np.exp(-self.b * np.maximum(y_arr, 0.0))
        return out if np.ndim(y) else float(out)

    def antiderivative(self, t):
        """int_0^t tbar2(y) dy, exact."""
        t_arr = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.is_none:
            out = np.zeros_like(t_arr)
        elif self.kind == "stable":
            out = self.C * t_arr ** (1.0 - self.alpha) / (1.0 - self.alpha)
        else:
            s = 1.0 - self.alpha
            out = self.C * self.b ** (-s) * _special.gamma(s) * _special.gammainc(s, self.b * t_arr)
        return out if np.ndim(t) else float(out)

    def first_moment(self, t):
        """int_0^t y * tbar2(y) dy, exact."""
        t_arr = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.is_none:
            out = np.zeros_like(t_arr)
        elif self.kind == "stable":
            out = self.C * t_arr ** (2.0 - self.alpha) / (2.0 - self.alpha)
        else:
            s = 2.0 - self.alpha
            out = self.C * self.b ** (-s) * _special.gamma(s) * _special.gammainc(s, self.b * t_arr)
        return out if np.ndim(t) else float(out)

    def total_integral(self) -> float:
        """int_0^inf tbar2(y) dy (the AC part's contribution to E[X_1])."""
        if self.is_none:
            return 0.0
        return self.g * self.tempering ** (self.alpha - 1.0) if self.tempering else math.inf

    def small_jump_moment(self, eps: float) -> float:
        """int_0^eps y Pi2(dy) in closed form: the first moment a simulation drops below eps."""
        if self.is_none or eps <= 0:
            return 0.0
        a = self.alpha
        if self.kind == "stable":
            return self.C * a * eps ** (1.0 - a) / (1.0 - a)
        # Pi2(dy) = C (alpha y^(-1-alpha) + b y^(-alpha)) e^{-by} dy, and
        # int_0^eps y^(s-1) e^{-by} dy = b^-s Gamma(s) P(s, b eps)
        s, be = 1.0 - a, self.b * eps
        return self.C * self.b ** (a - 1.0) * (a * _special.gamma(s) * _special.gammainc(s, be)
                                               + _special.gamma(2.0 - a) * _special.gammainc(2.0 - a, be))


@dataclass(frozen=True)
class LevyModel:
    """Drift, killing rate, and jump measure of the subordinator.

    drift > 0 is required throughout: it is what makes the potential
    measure absolutely continuous with a bounded continuous density.
    """

    drift: float
    q: float = 0.0
    atomic: AtomicPart = field(default_factory=AtomicPart.empty)
    ac: AcTail = field(default_factory=AcTail.none)

    def __post_init__(self):
        violations = _drift_q_rules(self.drift, self.q)
        if violations:
            raise ModelValidationError(violations)
        object.__setattr__(self, "drift", float(self.drift))
        object.__setattr__(self, "q", float(self.q))

    # -- basic structure ---------------------------------------------------

    @property
    def has_atoms(self) -> bool:
        return not self.atomic.is_empty

    @property
    def has_ac(self) -> bool:
        return not self.ac.is_none

    @property
    def is_pure_drift(self) -> bool:
        return not self.has_atoms and not self.has_ac

    def total_mass(self) -> float:
        """Pi((0, inf)); +inf when an AC tail is present."""
        if self.has_ac:
            return math.inf
        return self.atomic.total_mass()

    # -- tail evaluation ---------------------------------------------------

    def tail(self, y: float, side: Side = Side.LEFT) -> float:
        """tbar(y) = Pi([y, inf)) with explicit one-sided limits.

        Returns 0 for y <= 0 on the left; the right limit at 0 is
        tbar(0+), which is +inf when the AC part is present.
        """
        if y < 0 or (y <= 0 and side is Side.LEFT):
            return 0.0
        if y == 0:  # side is RIGHT
            if self.has_ac:
                return math.inf
            return self.atomic.tail(0.0, Side.RIGHT)
        return self.atomic.tail(y, side) + (self.ac.tail(y) if self.has_ac else 0.0)

    def atom_mass_at(self, x, exact: Optional[Fraction] = None) -> float:
        return self.atomic.mass_at(float(x), exact=exact)

    # -- exact kernel moments ----------------------------------------------

    def _atom_clip(self, t_arr: np.ndarray) -> np.ndarray:
        """min(t, a) for every atom location a, along a new last axis."""
        return np.minimum(t_arr[..., None], np.asarray(self.atomic.locations, dtype=float))

    def tail_antiderivative(self, t):
        """int_0^t tbar(y) dy (no q term), exact and vectorized."""
        t_arr = np.maximum(np.asarray(t, dtype=float), 0.0)
        out = self._atom_clip(t_arr) @ np.asarray(self.atomic.masses, dtype=float)
        if self.has_ac:
            out += self.ac.antiderivative(t_arr)
        return out if np.ndim(t) else float(out)

    def tail_first_moment(self, t):
        """int_0^t y * tbar(y) dy, exact and vectorized."""
        t_arr = np.maximum(np.asarray(t, dtype=float), 0.0)
        out = self._atom_clip(t_arr) ** 2 @ np.asarray(self.atomic.masses, dtype=float) / 2.0
        if self.has_ac:
            out += self.ac.first_moment(t_arr)
        return out if np.ndim(t) else float(out)

    def small_jump_moment(self, eps: float) -> float:
        """int_0^eps y Pi(dy): truncation-bias budget for simulations."""
        atoms = math.fsum(a * m for a, m in zip(self.atomic.locations, self.atomic.masses) if a < eps)
        return float(atoms) + self.ac.small_jump_moment(eps)

    # -- global scalars ------------------------------------------------------

    def laplace_exponent(self, lam: float) -> float:
        """psi(lam) = drift*lam + sum m_a (1 - e^{-lam a}) + AC part.

        The AC integral uses int (1-e^{-lam x}) Pi2(dx) = lam * L tbar2(lam),
        which is closed-form for both supported families.  The killing rate
        q is not part of psi; killed quantities use q + psi(lam).
        """
        if lam < 0:
            raise ValueError("laplace_exponent requires lam >= 0")
        psi = self.drift * lam
        psi += math.fsum(m * -math.expm1(-lam * a) for a, m in zip(self.atomic.locations, self.atomic.masses))
        if self.has_ac:
            g, b, a = self.ac.g, self.ac.tempering, self.ac.alpha
            psi += g * lam * (lam + b) ** (a - 1.0) if b else g * lam**a
        return float(psi)

    def mean(self) -> float:
        """E[X_1] = drift + int_0^inf tbar(y) dy; +inf for the stable family."""
        total = self.drift
        total += math.fsum(a * m for a, m in zip(self.atomic.locations, self.atomic.masses))
        ac = self.ac.total_integral()
        if math.isinf(ac):
            return math.inf
        return float(total + ac)

    def bg_index(self) -> float:
        """Small-jump activity index inf{gamma : int_0^1 x^gamma Pi(dx) < inf}.

        Finite atomic lists contribute 0.  Generated families are probed by
        a power-law fit of the partial-sum terms with bisection on gamma to
        1e-6; a fit that does not stabilize raises IndeterminateIndexError.
        The AC families contribute alpha.
        """
        idx = 0.0
        if self.has_ac:
            idx = self.ac.alpha
        if self.atomic.generator is not None:
            idx = max(idx, self._generated_index())
        return idx

    def _generated_index(self) -> float:
        locs = np.asarray(self.atomic.locations, dtype=float)
        masses = np.asarray(self.atomic.masses, dtype=float)

        def converges(gamma: float) -> bool:
            terms = masses * locs**gamma
            # locations are 1/j in increasing order; re-express against j
            j = 1.0 / locs
            order = np.argsort(j)
            slope, resid = _power_fit(terms[order])
            if slope is None:
                raise IndeterminateIndexError("generated-family terms are not power-like")
            if abs(slope - 1.0) < _SLOPE_MARGIN and resid > _FIT_RESIDUAL_LIMIT:
                raise IndeterminateIndexError(
                    f"convergence test did not stabilize at gamma={gamma:.6f} within the cap"
                )
            return slope >= 1.0

        if converges(0.0):
            return 0.0
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if converges(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    # -- identity ------------------------------------------------------------

    def model_hash(self) -> str:
        """Stable content hash (drift, q, atoms, family cap, AC parameters)."""
        import hashlib  # here: its libcrypto costs a process that never hashes ~4 ms and ~3.5 MB

        payload = {
            "drift": float(self.drift).hex(),
            "q": float(self.q).hex(),
            "atoms": [(float(a).hex(), float(m).hex()) for a, m in zip(self.atomic.locations, self.atomic.masses)],
            "generator": [self.atomic.generator, self.atomic.generator_cap],
            "ac": [self.ac.kind, float(self.ac.C).hex(), float(self.ac.alpha).hex(), float(self.ac.b).hex()],
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


# -- JSON schema -------------------------------------------------------------


def model_from_dict(doc: dict) -> LevyModel:
    """Parse and validate the JSON model schema.

    Schema: {"drift": >0, "q": >=0, "atoms": [{"x": num|rational-string,
    "mass": num}, ...], "atom_family": {"kind": "reciprocal-integers",
    "masses": [...], "cap": int}?, "ac": {"kind": "none"|"stable"|"tempered",
    "C":, "alpha":, "b":}}.  Every number must be finite and not a boolean.
    """
    if not isinstance(doc, dict):
        raise ModelValidationError([("", "model document must be a JSON object")])
    drift, q = doc.get("drift"), doc.get("q", 0.0)
    violations = _drift_q_rules(drift, q)

    pairs = []
    atoms = doc.get("atoms", []) or []
    if not isinstance(atoms, list):
        violations.append(("/atoms", "atoms must be a list"))
        atoms = []
    for i, entry in enumerate(atoms):
        x = entry.get("x") if isinstance(entry, dict) else None
        mass = entry.get("mass") if isinstance(entry, dict) else None
        if x is None or mass is None:
            violations.append((f"/atoms/{i}", "atom entries need 'x' and 'mass'"))
            continue
        if isinstance(x, str):
            try:
                loc = float(Fraction(x))
            except (ValueError, ZeroDivisionError):
                violations.append((f"/atoms/{i}/x", f"not a rational literal: {x!r}"))
                continue
            except OverflowError:
                loc = math.inf
        else:
            loc = x if _is_finite_number(x) else math.nan
        if not (math.isfinite(loc) and loc > 0):
            violations.append((f"/atoms/{i}/x", "atom location must be a finite number > 0"))
            continue
        if not _is_finite_number(mass) or not mass > 0:
            violations.append((f"/atoms/{i}/mass", "atom mass must be a finite number > 0"))
            continue
        pairs.append((x, mass))

    ac_doc = doc.get("ac", {"kind": "none"}) or {"kind": "none"}
    if not isinstance(ac_doc, dict):
        violations.append(("/ac", "ac must be an object"))
        ac_doc = {"kind": "none"}
    kind = ac_doc.get("kind", "none")
    violations += _ac_rules(kind, ac_doc.get("C"), ac_doc.get("alpha"), ac_doc.get("b"))

    fam = doc.get("atom_family")
    if fam is not None and not isinstance(fam, dict):
        violations.append(("/atom_family", "atom_family must be an object"))
    elif fam is not None:
        if fam.get("kind") != "reciprocal-integers":
            violations.append(("/atom_family/kind", "only 'reciprocal-integers' is supported"))
        cap = fam.get("cap")
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            violations.append(("/atom_family/cap", "cap must be a positive integer"))
        masses = fam.get("masses")
        if not isinstance(masses, list):
            violations.append(("/atom_family/masses", "masses must be a list of numbers"))
        else:
            for i, m in enumerate(masses):
                if not _is_finite_number(m) or not m > 0:
                    violations.append((f"/atom_family/masses/{i}", "mass must be a finite number > 0"))

    if violations:
        raise ModelValidationError(violations)

    atomic = AtomicPart.from_pairs(pairs)
    if fam is not None:
        gen = AtomicPart.reciprocal_integers(fam["masses"], fam["cap"])
        if pairs:
            merged = list(zip(gen.locations, gen.masses)) + list(zip(atomic.locations, atomic.masses))
            seen = {}
            for loc, m in merged:
                if any(abs(loc - other) <= _LOCATION_TOL for other in seen):
                    raise ModelValidationError([("/atoms", f"atom at {loc} duplicates a generated location")])
                seen[loc] = m
            exact = list(gen.exact_locations) + list(atomic.exact_locations)
            order = sorted(range(len(merged)), key=lambda i: merged[i][0])
            atomic = AtomicPart(
                locations=tuple(merged[i][0] for i in order),
                masses=tuple(merged[i][1] for i in order),
                exact_locations=tuple(exact[i] for i in order),
                generator=gen.generator,
                generator_cap=gen.generator_cap,
            )
        else:
            atomic = gen

    # AcTail keeps only the fields of its kind: a stable tail ignores a "b" in the document
    ac = AcTail(kind, ac_doc.get("C"), ac_doc.get("alpha"), ac_doc.get("b"))

    return LevyModel(drift=float(drift), q=float(q), atomic=atomic, ac=ac)


def load_model(path) -> LevyModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc)

