"""Shared fixtures and independent closed-form oracles.

The unit-atom model (drift 1, a single atom of mass 1 at 1) admits an
explicit density and derivative, computed here straight from the Poisson
path-counting formula, independent of any library code path:

    u(x) = e^{-x} + sum_{i=1..n} (x-i)^i / i! * e^{-(x-i)},  x in [n, n+1)
    u'(x) = -e^{-x} + sum_{i=1..n} [ (x-i)^{i-1}/(i-1)! - (x-i)^i/i! ] e^{-(x-i)}

Models with an AC tail are checked against 30-digit Talbot inversions built
on the benchmark's reference oracles (``perfbench/oracles.py``), which read
a model document rather than a library object.
"""

import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from subpot import AcTail, AtomicPart, LevyModel

# CLI tests start `python -m subpot.cli` in a child process; point it at this
# checkout's sources, as the `pythonpath` setting in pyproject.toml does here
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p
)
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402


def delta1_u(x: float, q: float = 0.0) -> float:
    """u^(q) of the unit atom: killing at rate q turns each e^{-(x-i)} into e^{-(1+q)(x-i)}."""
    n = int(math.floor(x))
    rate = 1.0 + q
    total = math.exp(-rate * x)
    for i in range(1, n + 1):
        total += (x - i) ** i / math.factorial(i) * math.exp(-rate * (x - i))
    return total


def delta1_du(x: float) -> float:
    """Derivative on the open intervals; at integers this is the left limit."""
    n = int(math.floor(x))
    if x == n:
        n -= 1
    total = -math.exp(-x)
    for i in range(1, n + 1):
        total += ((x - i) ** (i - 1) / math.factorial(i - 1) - (x - i) ** i / math.factorial(i)) * math.exp(
            -(x - i)
        )
    return total


def talbot_du(doc: dict, x: float) -> tuple[float, float]:
    """(u'(x-), u'(x+)) at ``oracles.DPS`` digits for a model document.

    Conditioning on the atom counts n with atom sum s_n < x, as
    ``oracles.density`` does, each count contributes
    prod_j m_j^{n_j}/n_j! * N! * f_N'(x - s_n), with f_N the inverse of
    K^{-(N+1)}, K(s) = q + M + drift s + phi(s).  f_N' is the Talbot inverse
    of s K^{-(N+1)}, less its limit 1/drift at infinity when N = 0.  At an
    atom sum only a single atom (N = 1) moves the right limit, by
    f_1'(0+) = m/drift^2; longer sums start with zero slope.
    """
    model = oracles.Model(doc)
    with mp.workdps(oracles.DPS):
        rate = model.q + model.mass
        left = mp.mpf(0)
        for n, s in oracles._atom_counts(model.atoms, Fraction(x)):
            big_n = sum(n)
            weight = mp.fprod(m**k / mp.factorial(k) for k, (_, m) in zip(n, model.atoms))
            kernel = lambda p, e=big_n + 1: (
                p * (rate + model.drift * p + model.phi(p)) ** -e - (1 / model.drift if e == 1 else 0)
            )
            left += weight * mp.factorial(big_n) * mp.invertlaplace(kernel, mp.mpf(x) - oracles._num(s),
                                                                     method="talbot")
        jump = mp.fsum(m for a, m in model.atoms if a == Fraction(x)) / model.drift**2
        return float(left), float(left + jump)


@pytest.fixture(scope="session")
def delta1():
    return LevyModel(drift=1.0, atomic=AtomicPart.from_pairs([(1, 1.0)]))


@pytest.fixture(scope="session")
def stable_half():
    return LevyModel(drift=1.0, ac=AcTail.stable(1.0, 0.5))


@pytest.fixture(scope="session")
def tempered_model():
    return LevyModel(drift=1.0, ac=AcTail.tempered(1.0, 0.5, 1.0))


@pytest.fixture(scope="session")
def mixed_model():
    return LevyModel(
        drift=1.0,
        atomic=AtomicPart.from_pairs([(1, 1.0)]),
        ac=AcTail.stable(0.2, 0.4),
    )


@pytest.fixture(scope="session")
def pure_drift():
    return LevyModel(drift=2.0)


def random_atomic_model(rng: np.random.Generator) -> LevyModel:
    """Random finite atomic model in the acceptance battery's parameter box."""
    n_atoms = int(rng.integers(1, 6))
    locs = np.sort(rng.uniform(0.1, 3.0, size=n_atoms))
    while np.any(np.diff(locs) < 1e-3):
        locs = np.sort(rng.uniform(0.1, 3.0, size=n_atoms))
    masses = rng.uniform(0.1, 3.0, size=n_atoms)
    drift = float(rng.uniform(0.5, 4.0))
    return LevyModel(drift=drift, atomic=AtomicPart.from_pairs(list(zip(locs, masses))))
