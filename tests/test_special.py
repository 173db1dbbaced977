"""The special-function kernels of ``subpot._special`` against mpmath at 30 digits.

Each kernel is drawn, seeded, over the box of arguments subpot reaches: s
and a in (0, 60], integer degrees m in 0 .. 60, z from 0 to 1e4 and alpha
in (0, 1).  A kernel's worst error on its sample may be at most twice
scipy's worst on the same sample, or 4 ulp of 1, whichever is larger, and
at most a fixed bound a little above its measured worst.  scipy is only
the yardstick here; subpot itself never imports it.  The error of a value
is relative, and that of a logarithm absolute: either is the relative
error of the quantity it stands for.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from subpot import _special

N = 1500
FLOOR = 4 * np.finfo(float).eps


@pytest.fixture(autouse=True)
def thirty_digits():
    with mpmath.workdps(30):
        yield


def rel_errors(got, want) -> np.ndarray:
    return np.array([float(abs((mpmath.mpf(float(g)) - w) / w)) for g, w in zip(got, want)])


def abs_errors(got, want) -> np.ndarray:
    return np.array([float(abs(mpmath.mpf(float(g)) - w)) for g, w in zip(got, want)])


def check(ours: np.ndarray, scipy: np.ndarray, bound: float):
    worst, yardstick = float(ours.max()), float(scipy.max())
    assert worst <= max(2.0 * yardstick, FLOOR), (worst, yardstick)
    assert worst <= bound, worst


def positive(rng, hi: float, n: int) -> np.ndarray:
    """n draws from (0, hi]."""
    return hi * (1.0 - rng.random(n))


def arguments_z(rng, n: int) -> np.ndarray:
    """z in [0, 1e4]: half log-uniform over 1e-4 .. 1e4, half uniform below 130,
    where the box's a + m + 1 puts every switch between methods."""
    return np.where(rng.random(n) < 0.5, 10.0 ** rng.uniform(-4.0, 4.0, n), rng.uniform(0.0, 130.0, n))


def test_gamma():
    s = positive(np.random.default_rng(290), 60.0, N)
    want = [mpmath.gamma(mpmath.mpf(v)) for v in s]
    check(rel_errors([math.gamma(v) for v in s], want), rel_errors(sp.gamma(s), want), 2e-15)


def test_log_gamma_of_the_tail_powers():
    rng = np.random.default_rng(291)
    x = rng.integers(1, 61, N) * positive(rng, 1.0, N)  # j (1 - alpha)
    want = [mpmath.loggamma(mpmath.mpf(v)) for v in x]
    check(abs_errors([_special.log_gamma(v) for v in x], want), abs_errors(sp.gammaln(x), want), 3e-14)


def test_log_beta():
    rng = np.random.default_rng(292)
    s, m = positive(rng, 60.0, N), rng.integers(0, 61, N)
    table = _special.log_beta(60, s)
    want = [mpmath.log(mpmath.beta(int(k) + 1, mpmath.mpf(v))) for k, v in zip(m, s)]
    check(abs_errors(table[m, np.arange(N)], want), abs_errors(sp.betaln(m + 1.0, s), want), 3e-14)


def test_log_beta_rows_are_the_row_by_row_product():
    # a column is s^-1 prod_{k <= m} k / (s + k), and its log is taken every 64 rows
    s = np.array([0.3, 7.5, 59.0])
    table = _special.log_beta(130, s)
    for m in (0, 1, 63, 64, 65, 127, 128, 130):
        with mpmath.workdps(30):
            want = [mpmath.log(mpmath.beta(m + 1, mpmath.mpf(v))) for v in s]
        assert abs_errors(table[m], want).max() <= 1e-13
    assert np.isnan(_special.log_beta(3, np.array([math.nan]))).all()


def test_lower_gamma():
    rng = np.random.default_rng(293)
    s, z = positive(rng, 60.0, N), arguments_z(rng, N)
    want = [mpmath.gammainc(mpmath.mpf(v), 0, mpmath.mpf(w)) for v, w in zip(s, z)]
    ours = [_special.lower_gamma(float(v), w) for v, w in zip(s, z)]
    check(rel_errors(ours, want), rel_errors(sp.gamma(s) * sp.gammainc(s, z), want), 4e-14)


def test_lower_gamma_where_the_model_takes_it():
    # s = 1 - alpha and 2 - alpha, b t up to 50: arrays with one s, as the tail's moments pass them
    rng = np.random.default_rng(294)
    for s in (1.0 - rng.random(), 2.0 - rng.random()):
        z = np.concatenate([rng.uniform(0.0, 5.0, 200), 10.0 ** rng.uniform(-6.0, 1.7, 200)])
        want = [mpmath.gammainc(mpmath.mpf(s), 0, mpmath.mpf(w)) for w in z]
        check(rel_errors(_special.lower_gamma(s, z), want), rel_errors(math.gamma(s) * sp.gammainc(s, z), want),
              4e-15)


def test_hyp1f1_neg():
    rng = np.random.default_rng(295)
    a, m, z = positive(rng, 60.0, N), rng.integers(0, 61, N), arguments_z(rng, N)
    c = a + m + 1.0
    # the function meant is 1F1(a; a + m + 1; -z) with m an integer, whatever c rounds to
    want = [mpmath.hyp1f1(mpmath.mpf(v), mpmath.mpf(v) + int(k) + 1, -mpmath.mpf(w)) for v, k, w in zip(a, m, z)]
    check(rel_errors(_special.hyp1f1_neg(a, c, z), want), rel_errors(sp.hyp1f1(a, c, -z), want), 4e-14)


def test_hyp1f1_neg_at_c_a_plus_1():
    # 1F1(s; s + 1; -z), the running integrals' Kummer factor, one s per entry
    rng = np.random.default_rng(298)
    a, z = positive(rng, 60.0, N), arguments_z(rng, N)
    want = [mpmath.hyp1f1(mpmath.mpf(v), mpmath.mpf(v) + 1, -mpmath.mpf(w)) for v, w in zip(a, z)]
    check(rel_errors(_special.hyp1f1_neg(a, a + 1.0, z), want), rel_errors(sp.hyp1f1(a, a + 1.0, -z), want), 4e-14)


def test_log_powers_are_rounded_once():
    # j log(C Gamma(1 - alpha)) for the tail powers' constants: each within half an ulp, where
    # j times the logarithm of the rounded C Gamma(1 - alpha) is off by j times its rounding
    rng = np.random.default_rng(299)
    for c, x in zip(positive(rng, 5.0, 40), positive(rng, 1.0, 40)):
        got = _special.log_powers(float(c), float(x), 300)
        with mpmath.workdps(40):
            log_g = mpmath.log(mpmath.mpf(c) * mpmath.gamma(mpmath.mpf(x)))
            err = [abs(mpmath.mpf(g) - j * log_g) / np.spacing(abs(g)) for j, g in enumerate(got.tolist()) if j]
        assert got[0] == 0.0 and max(err) <= 0.5 + 1e-6


def test_hyp1f1_neg_numbers_a_and_c():
    # numbers a and c, broadcast against every z
    rng = np.random.default_rng(296)
    for a, m in ((0.35, 0), (1.6, 0), (2.5, 3), (40.25, 12)):
        z = np.concatenate([rng.uniform(0.0, 5.0, 100), 10.0 ** rng.uniform(-4.0, 4.0, 100)])
        want = [mpmath.hyp1f1(mpmath.mpf(a), mpmath.mpf(a) + m + 1, -mpmath.mpf(w)) for w in z]
        check(rel_errors(_special.hyp1f1_neg(a, a + m + 1.0, z), want),
              rel_errors(sp.hyp1f1(a, a + m + 1.0, -z), want), 4e-15)


class TestEdges:
    def test_lower_gamma_at_zero_inf_and_nan(self):
        for s in (0.3, 1.7, 45.0):
            got = _special.lower_gamma(s, np.array([0.0, math.inf, math.nan, 1.0]))
            assert got[0] == 0.0 and got[1] == math.gamma(s) and math.isnan(got[2])
            assert got[3] == _special.lower_gamma(s, 1.0)
            assert _special.lower_gamma(s, 0.0) == 0.0 and math.isnan(_special.lower_gamma(s, math.nan))

    def test_hyp1f1_neg_at_zero_inf_and_nan(self):
        a = np.array([0.4, 3.0, 0.4, 57.0, 0.4])
        c = a + np.array([1.0, 4.0, 2.0, 1.0, 1.0])
        got = _special.hyp1f1_neg(a, c, np.array([0.0, 0.0, math.inf, math.inf, math.nan]))
        assert got[:4].tolist() == [1.0, 1.0, 0.0, 0.0] and math.isnan(got[4])
        assert _special.hyp1f1_neg(0.4, 1.4, np.array([math.inf]))[0] == 0.0
