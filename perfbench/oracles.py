"""Reference values for the benchmark's checks, independent of ``subpot``.

Every oracle reads the model *document* (the JSON the benchmark writes),
never a ``subpot`` object, so a defect in the library's model layer cannot
leak into the reference.

Density u^(q)(x) of a subordinator with drift d, killing q, finite atoms
(a_j, m_j) with total mass M, and an optional atom-free tail part with
Laplace exponent phi(s):

* Conditioning on the atom counts n = (n_j) up to time t, the path sits at
  s_n = sum n_j a_j plus the atom-free part, so

      u(x) = sum_{s_n < x} prod_j m_j^{n_j} / n_j! * N! * L^{-1}[(q + M + d s + phi(s))^{-(N+1)}](x - s_n),

  with N = sum n_j.  Each inverse transform has no atom, so Talbot's
  contour (Abate & Whitt 2006, INFORMS J. Comput. 18(4)) applies to it.
* Without a tail part the inverse is closed form and the sum becomes the
  Poisson path-counting formula

      u(x) = (1/d) sum_n prod_j Pois(n_j; m_j t_n) e^{-q t_n},   t_n = (x - s_n)/d.

  On the unit atom (d = m = a = 1, q = 0) this is the formula of
  ``tests/conftest.py``.

Talbot is not used on a transform that contains atoms: their e^{-s a}
factors break its contour deformation (measured 1.4e-3 off at x = 0.3 on
the unit atom).  All values carry ``DPS`` significant digits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp

DPS = 30
# Relative accuracy claimed for an oracle value.  Talbot at DPS digits and
# the closed-form sums both agree with a DPS + 10 digit recomputation to far
# better than this (see test_perfbench.py); the benchmark's roundoff floor for
# a density row is this bound plus 16 ulp of the double nearest the oracle.
REL_ACCURACY = mp.mpf(10) ** (10 - DPS)


def _num(value) -> mp.mpf:
    """The mp value of a JSON number, a rational string or a Fraction."""
    if isinstance(value, (str, Fraction)):
        frac = Fraction(value)
        return mp.mpf(frac.numerator) / frac.denominator
    return mp.mpf(value)


def _frac(value) -> Fraction:
    return Fraction(value) if isinstance(value, str) else Fraction(float(value))


def atoms_of(doc: dict) -> list[tuple[Fraction, float]]:
    """(location, mass) pairs of the document, locations as exact rationals."""
    pairs = [(_frac(a["x"]), float(a["mass"])) for a in doc.get("atoms", []) or []]
    fam = doc.get("atom_family")
    if fam is not None:
        pairs += [(Fraction(1, j), float(m)) for j, m in zip(range(1, fam["cap"] + 1), fam["masses"])]
    return sorted(pairs)


class Model:
    """The parameters of one model document at ``DPS`` digits."""

    def __init__(self, doc: dict):
        with mp.workdps(DPS):
            self.drift = _num(doc["drift"])
            self.q = _num(doc.get("q", 0.0))
            self.atoms = [(loc, mp.mpf(m)) for loc, m in atoms_of(doc)]
            self.mass = mp.fsum(m for _, m in self.atoms)
            ac = doc.get("ac") or {"kind": "none"}
            self.kind = ac.get("kind", "none")
            if self.kind != "none":
                self.C = _num(ac["C"])
                self.alpha = _num(ac["alpha"])
                self.b = _num(ac["b"]) if self.kind == "tempered" else mp.mpf(0)
                self.g = self.C * mp.gamma(1 - self.alpha)

    def phi(self, s):
        """Laplace exponent of the atom-free tail part: s * L[tbar](s)."""
        if self.kind == "none":
            return 0
        if self.kind == "stable":
            return self.g * s**self.alpha
        return self.g * s * (s + self.b) ** (self.alpha - 1)

    def psi(self, s):
        """Laplace exponent of the whole jump part (atoms included)."""
        atoms = mp.fsum(m * -mp.expm1(-s * _num(a)) for a, m in self.atoms)
        return self.drift * s + atoms + self.phi(s)

    def tail_integral(self, x):
        """int_0^x (tbar(y) + q) dy."""
        total = self.q * x
        for a, m in self.atoms:
            total += m * min(x, _num(a))
        if self.kind == "stable":
            total += self.C * x ** (1 - self.alpha) / (1 - self.alpha)
        elif self.kind == "tempered":
            s = 1 - self.alpha
            total += self.C * self.b ** (-s) * mp.gammainc(s, 0, self.b * x)
        return total

    def small_jump_moment(self, eps):
        """int_0^eps y Pi(dy), the first moment of the jumps below eps."""
        total = mp.fsum(_num(a) * m for a, m in self.atoms if _num(a) < eps)
        if self.kind != "none":
            a, b, C = self.alpha, self.b, self.C
            # Pi2(dy) = C (alpha y^(-1-alpha) + b y^(-alpha)) e^{-b y} dy
            total += mp.quad(lambda y: C * (a * y**-a + b * y ** (1 - a)) * mp.exp(-b * y), [0, eps])
        return total


def _atom_counts(atoms, x: Fraction):
    """Multi-indices n with sum n_j a_j < x (or == 0), with their sums."""
    out = []

    def rec(j, n, total):
        if j == len(atoms):
            out.append((tuple(n), total))
            return
        k = 0
        while total + k * atoms[j][0] < x or k == 0:
            rec(j + 1, n + [k], total + k * atoms[j][0])
            k += 1

    rec(0, [], Fraction(0))
    return out


def density(doc: dict, x: float) -> mp.mpf:
    """u^(q)(x) at ``DPS`` digits."""
    model = Model(doc)
    xf = Fraction(x)
    with mp.workdps(DPS):
        xm = mp.mpf(x)
        if xm == 0:
            return 1 / model.drift
        total = mp.mpf(0)
        rate = model.q + model.mass
        for n, s in _atom_counts(model.atoms, xf):
            y = xm - _num(s)
            weight = mp.mpf(1)
            for k, (_, m) in zip(n, model.atoms):
                weight *= m**k / mp.factorial(k)
            big_n = sum(n)
            if model.kind == "none":
                total += weight * y**big_n * mp.exp(-rate * y / model.drift) / model.drift ** (big_n + 1)
            else:
                kernel = lambda s_, e=big_n + 1: (rate + model.drift * s_ + model.phi(s_)) ** -e
                total += weight * mp.factorial(big_n) * mp.invertlaplace(kernel, y, method="talbot")
        return total


def transform(doc: dict, lam: float) -> mp.mpf:
    """1/(q + psi(lam)), the Laplace transform of u^(q) at lam > 0."""
    model = Model(doc)
    with mp.workdps(DPS):
        return 1 / (model.q + model.psi(mp.mpf(lam)))


def series_ratio(doc: dict, x: float) -> mp.mpf:
    """m(x) = int_0^x (tbar + q) / drift, the series contraction factor."""
    model = Model(doc)
    with mp.workdps(DPS):
        return model.tail_integral(mp.mpf(x)) / model.drift


def series_radius(doc: dict, level: float = 0.5) -> float:
    """The x at which m(x) reaches ``level`` (m is continuous and increasing)."""
    lo, hi = 0.0, 1.0
    while series_ratio(doc, hi) < level:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series_ratio(doc, mid) < level:
            lo = mid
        else:
            hi = mid
    return lo


def creep_bias_bound(doc: dict, x: float, eps: float) -> float:
    """Bound on |drift u_eps(x) - drift u(x)| when jumps below eps are dropped.

    The bound (nu_eps / drift) * exp(m(x)) follows from perturbing the
    renewal kernel by the dropped first moment nu_eps.
    """
    if eps <= 0:
        return 0.0
    model = Model(doc)
    with mp.workdps(DPS):
        nu = model.small_jump_moment(mp.mpf(eps))
        return float(nu / model.drift * mp.exp(model.tail_integral(mp.mpf(x)) / model.drift))


def atom_sum_table(doc: dict, k: int, x_max) -> dict[Fraction, tuple[int, int]]:
    """Every sum of at most k atom locations in (0, x_max], by brute force.

    Maps each value to (fewest jumps reaching it, ordered tuples of that
    length reaching it).
    """
    locs = [loc for loc, _ in atoms_of(doc)]
    limit = Fraction(x_max)
    table: dict[Fraction, tuple[int, int]] = {}
    for length in range(1, k + 1):
        for combo in itertools.product(locs, repeat=length):
            value = sum(combo, Fraction(0))
            if value > limit:
                continue
            if value not in table:
                table[value] = (length, 1)
            elif table[value][0] == length:
                table[value] = (length, table[value][1] + 1)
    return table


def ulp_floor(value: mp.mpf) -> float:
    """Roundoff floor for comparing a double against an oracle value."""
    v = abs(float(value))
    return 16.0 * math.ulp(v) + float(REL_ACCURACY * abs(value))
