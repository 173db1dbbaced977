"""The special functions of an absolutely continuous tail, in numpy and math.

Only a stable or tempered tail needs one; atoms and killing need none.  The
transform constant C Gamma(1 - alpha) is ``math.gamma`` at a scalar.  The
rest are here:

- ``log_gamma(x)``: log Gamma(x) for a number x, the tail powers' constants;
- ``hyp1f1_neg(a, c, z)``: Kummer's 1F1(a; c; -z) for c - a a positive
  integer and every z >= 0.  The cross terms' Kummer factors need it, and
  with c = a + 1 so does the incomplete Gamma function, since gamma(s, z) =
  s^-1 z^s 1F1(s; s + 1; -z) (DLMF 8.5.1);
- ``lower_gamma(s, z)``: gamma(s, z) for a number s > 0, for the tempered
  tail's antiderivative and moments;
- ``log_beta(m_max, s)``: log B(m + 1, s) for the integer degrees m;
- ``log_powers(c, x, top)``: j log(c Gamma(x)) for j = 0 .. top, each
  rounded once from a 25-digit logarithm, the tail powers' j log g.

Each entry of a kernel's result depends only on that entry's arguments,
not on the other entries of the call.  Their errors against mpmath over
the arguments subpot passes are tested in ``tests/test_special.py``.
"""

import math
from functools import lru_cache

import numpy as np

_SERIES_Z = 5.0  # hyp1f1_neg: the positive series below this z, whatever c
_CF_TOL = 3e-16  # a continued fraction's entry has converged once its factor is this close to 1
_CF_STEPS = 1000
_HALF_LOG_2PI = "0.91893853320467274178032973640561763986"  # log(2 pi) / 2
# (numerator, denominator) of the Bernoulli numbers B_2 .. B_20
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510), (43867, 798),
              (-174611, 330))


def _at(v, mask):
    """v at the mask's entries, or v itself if it is a number."""
    return v[mask] if np.ndim(v) else v


def _terms(z: np.ndarray) -> int:
    """The number of terms of ``_series``: until z^k/k! < 1e-17 at the largest z."""
    n, bound, z_max = 1, 1.0, float(z.max(initial=0.0))
    while bound > 1e-17:
        bound *= z_max / n
        n += 1
    return n - 1


def _series(a, c, z: np.ndarray) -> np.ndarray:
    """1F1(a; c; -z) = e^{-z} 1F1(c - a; c; z), for c > c - a >= 1 (DLMF 13.2.39).

    Kummer's transformation gives a series of positive terms, the k-th at
    most z^k/k!.  It is summed in order until that bound is below 1e-17 at
    the largest z (``_terms``), less than half an ulp of a sum >= 1, so the
    terms beyond an entry's own stopping point leave it unchanged.  The
    terms are formed and added one at a time, in the order of a cumulative
    product and sum over k.  The sum reaches e^z, so z must stay below
    about 700.
    """
    c_minus_a, term, total = c - a, np.ones(z.shape), np.ones(z.shape)
    for k in range(_terms(z)):
        term *= (c_minus_a + k) / (c + k) * z / (k + 1.0)
        total += term
    return np.exp(-z) * total


def _upper_cf(a, z: np.ndarray) -> np.ndarray:
    """e^z z^-a Gamma(a, z) for z >= a + 1, by Legendre's continued fraction (DLMF 8.9.2).

    Evaluated forwards by the modified Lentz method; an entry's product
    stops at its first factor within ``_CF_TOL`` of 1.
    """
    b = z + 1.0 - a
    c = np.full(z.shape, 1e300)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(z.shape, dtype=bool)
    for i in range(1, _CF_STEPS):
        if done.all():
            break
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= np.where(done, 1.0, delta)
        done |= np.abs(delta - 1.0) <= _CF_TOL
    return h


def _by_value(f, v: np.ndarray) -> np.ndarray:
    """f at each entry of v, called once per distinct value."""
    u, inverse = np.unique(v, return_inverse=True)
    return np.array([f(x) for x in u.tolist()])[inverse]


def _recurrence(a, c, z: np.ndarray) -> np.ndarray:
    """1F1(a; a + m + 1; -z) for z >= a + m + 1 by the forward recurrence in m.

    M_m = 1F1(a; a + m + 1; -z) starts from M_-1 = e^{-z} and M_0 = a z^-a
    gamma(a, z) = Gamma(a + 1) z^-a - a e^{-z} (e^z z^-a Gamma(a, z)), the
    last factor from ``_upper_cf``, and steps by the contiguous relation
    (DLMF 13.3.2)

        M_{k+1} = (a + k + 1) / ((k + 1) z) ((z - a - k) M_k + (a + k) M_{k-1}),

    whose terms are all positive while z > a + k, so the recurrence is
    stable up to m.  Gamma(a + 1) z^-a is ``math.gamma`` times a power,
    or where those leave the float range, the exponential of its
    logarithm.
    """
    a = np.broadcast_to(a, z.shape)
    m = np.rint(c - a).astype(int) - 1
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        lead = _by_value(lambda v: math.gamma(v) if v < 171.0 else math.inf, a + 1.0) * z ** -a
        off = ~(np.isfinite(lead) & (lead > 1e-290))
        lead[off] = np.exp(_by_value(log_gamma, a[off] + 1.0) - a[off] * np.log(z[off]))
        prev, cur = np.exp(-z), lead - a * np.exp(-z) * _upper_cf(a, z)
        out = cur.copy()
        for k in range(int(m.max(initial=0))):
            prev, cur = cur, (a + k + 1.0) / ((k + 1.0) * z) * ((z - a - k) * cur + (a + k) * prev)
            out[m == k + 1] = cur[m == k + 1]
    return out


def hyp1f1_neg(a, c, z: np.ndarray) -> np.ndarray:
    """1F1(a; c; -z) for a > 0, c - a a positive integer and every z >= 0.

    a and c are arrays of z's shape, or numbers.  Below z = 5, and wherever
    z < c, the positive series of ``_series``.  From z >= max(5, c) on, the
    series would need about e z terms, and the forward recurrence of
    ``_recurrence`` is stable.  z = inf gives the limit 0, and NaN gives NaN.
    """
    z = np.asarray(z, dtype=float)
    out = np.where(z == math.inf, 0.0, math.nan)
    small = z < _SERIES_Z
    mid = ~small & (z < c)
    far = ~small & ~mid & (z < math.inf)
    for mask, kernel in ((small, _series), (mid, _series), (far, _recurrence)):
        if mask.any():
            out[mask] = kernel(_at(a, mask), _at(c, mask), z[mask])
    return out


def lower_gamma(s: float, z):
    """gamma(s, z) = int_0^z t^(s-1) e^-t dt for a number s > 0 and z >= 0 (DLMF 8.2.1).

    z^s / s 1F1(s; s + 1; -z) by ``_series`` below z = s + 1, and Gamma(s)
    less Gamma(s, z) of ``_upper_cf`` from there on.  0 at z = 0, Gamma(s)
    at z = inf and NaN at NaN; a number z gives a float.
    """
    z_arr = np.asarray(z, dtype=float)
    gamma_s = math.gamma(s)
    out = np.where(z_arr == math.inf, gamma_s, math.nan)
    low = z_arr < s + 1.0
    high = (z_arr >= s + 1.0) & (z_arr < math.inf)
    if low.any():
        zl = z_arr[low]
        out[low] = zl**s / s * _series(s, s + 1.0, zl)
    if high.any():
        zh = z_arr[high]
        out[high] = gamma_s - np.exp(s * np.log(zh) - zh) * _upper_cf(s, zh)
    return out if np.ndim(z) else float(out)


def log_gamma(x: float) -> float:
    """log Gamma(x) for a number x > 0.

    log(math.gamma(x)) while Gamma(x) is a float: ``math.gamma`` is within
    about an ulp, so the logarithm's error is about an ulp of 1, where
    ``math.lgamma`` loses up to about 17 ulps of 1 for x in (2, 10).
    ``math.lgamma`` from x = 171 on, where Gamma(x) overflows.
    """
    return math.log(math.gamma(x)) if x < 171.0 else math.lgamma(x)


def log_beta(m_max: int, s: np.ndarray) -> np.ndarray:
    """log B(m + 1, s) for m = 0 .. m_max (rows) and each s > 0 (columns).

    B(m + 1, s) = m! Gamma(s) / Gamma(s + m + 1) = s^-1 prod_{k=1}^m k / (s + k):
    a cumulative product down the rows, which loses about an ulp per row
    where differences of log-Gamma values lose the digits of their size.
    Its logarithm is taken every 64 rows, so that no product leaves the
    float range while s < 10^4.
    """
    k = np.arange(m_max + 1.0)[:, None]
    ratio = np.maximum(k, 1.0) / (s + k)
    out = np.empty(ratio.shape)
    carry = 0.0
    for lo in range(0, m_max + 1, 64):
        out[lo:lo + 64] = carry + np.log(np.cumprod(ratio[lo:lo + 64], axis=0))
        carry = out[min(lo + 63, m_max)]
    return out


@lru_cache(maxsize=64)
def _log_gamma_times(c: float, x: float):
    """log(c Gamma(x)) as a Decimal for numbers c, x > 0, to about 25 digits.

    Stirling's series at y = x + 16 to the term of B_20 (DLMF 5.11.1), less
    the logarithm of x (x + 1) ... (x + 15), in 32-digit decimals.
    """
    from decimal import Decimal, localcontext  # only a tail needs it, so the model layer does not load it

    with localcontext() as ctx:
        ctx.prec = 32
        x = Decimal(x)
        y, prod = x + 16, x
        for k in range(1, 16):
            prod *= x + k
        total = (y - Decimal("0.5")) * y.ln() - y + Decimal(_HALF_LOG_2PI) + (Decimal(c) / prod).ln()
        for k, (num, den) in enumerate(_BERNOULLI, 1):
            total += Decimal(num) / (den * 2 * k * (2 * k - 1) * y ** (2 * k - 1))
        return total


def log_powers(c: float, x: float, top: int) -> np.ndarray:
    """j log(c Gamma(x)) for j = 0 .. top and numbers c, x > 0.

    Each entry is j times the exact ratio of the 25-digit logarithm, rounded
    once by Python's integer division, where j times a rounded
    log(c Gamma(x)) would carry j times its rounding.
    """
    num, den = _log_gamma_times(c, x).as_integer_ratio()
    return np.array([j * num / den for j in range(top + 1)])
