"""Shared fixtures and independent closed-form oracles.

The unit-atom model (drift 1, a single atom of mass 1 at 1) admits an
explicit density and derivative, computed here straight from the Poisson
path-counting formula, independent of any library code path:

    u(x) = e^{-x} + sum_{i=1..n} (x-i)^i / i! * e^{-(x-i)},  x in [n, n+1)
    u'(x) = -e^{-x} + sum_{i=1..n} [ (x-i)^{i-1}/(i-1)! - (x-i)^i/i! ] e^{-(x-i)}
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from subpot import AcTail, AtomicPart, LevyModel, u_volterra

# CLI tests start `python -m subpot.cli` in a child process; point it at this
# checkout's sources, as the `pythonpath` setting in pyproject.toml does here
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p
)


def delta1_u(x: float) -> float:
    n = int(math.floor(x))
    total = math.exp(-x)
    for i in range(1, n + 1):
        total += (x - i) ** i / math.factorial(i) * math.exp(-(x - i))
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


@pytest.fixture(scope="session")
def delta1_grid(delta1):
    return u_volterra(delta1, 5.0, tol=3e-8)


@pytest.fixture(scope="session")
def delta1_fine_grid(delta1):
    # breakpoint order 4 so fourth-order one-sided fits have clean windows
    return u_volterra(delta1, 4.4, h_target=0.002, tol=1e-8, breakpoint_order=4)


@pytest.fixture(scope="session")
def stable_grid(stable_half):
    return u_volterra(stable_half, 6.0)


def random_atomic_model(rng: np.random.Generator) -> LevyModel:
    """Random finite atomic model in the acceptance battery's parameter box."""
    n_atoms = int(rng.integers(1, 6))
    locs = np.sort(rng.uniform(0.1, 3.0, size=n_atoms))
    while np.any(np.diff(locs) < 1e-3):
        locs = np.sort(rng.uniform(0.1, 3.0, size=n_atoms))
    masses = rng.uniform(0.1, 3.0, size=n_atoms)
    drift = float(rng.uniform(0.5, 4.0))
    return LevyModel(drift=drift, atomic=AtomicPart.from_pairs(list(zip(locs, masses))))
