import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpot.piecewise import PiecewisePoly, _poly_shift


def test_poly_shift_exact():
    # p(t) = 1 + 2t + 3t^2 rebased by d: compare on samples
    coeffs = np.array([1.0, 2.0, 3.0])
    shifted = _poly_shift(coeffs, 0.7)
    for u in (-0.3, 0.0, 1.1):
        direct = 1 + 2 * (u + 0.7) + 3 * (u + 0.7) ** 2
        assert np.polyval(shifted[::-1], u) == pytest.approx(direct, rel=1e-14)


def _row_shift(coeffs, d):
    """Reference: synthetic division of one row in plain Python floats."""
    c = [float(v) for v in coeffs]
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += d * c[j + 1]
    return c


def test_batched_poly_shift_equals_row_by_row():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        coeffs = rng.normal(size=(40, n)) * 10.0 ** rng.integers(-3, 4, size=(40, 1))
        d = np.concatenate([rng.uniform(-2.0, 2.0, 37), [0.0, -0.0, 1e-17]])
        batched = _poly_shift(coeffs, d)
        assert batched.shape == coeffs.shape
        for row, off, got in zip(coeffs, d, batched):
            assert got.tolist() == _row_shift(row, off)
            assert _poly_shift(row, off).tolist() == _row_shift(row, off)


@st.composite
def piecewise_polys(draw):
    cells = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=cells - 1, max_size=cells - 1))
    width = draw(st.integers(1, 7))
    flat = draw(st.lists(st.floats(-2.0, 2.0), min_size=cells * width, max_size=cells * width))
    return PiecewisePoly(np.concatenate([[0.0], np.cumsum(gaps)]), np.reshape(flat, (cells, width)))


@st.composite
def step_kernels(draw):
    locs = sorted(draw(st.lists(st.floats(0.05, 2.0), max_size=4, unique=True)))
    masses = draw(st.lists(st.floats(0.1, 2.0), min_size=len(locs), max_size=len(locs)))
    return locs, masses, draw(st.floats(0.0, 1.0))


def _magnitude(pp):
    """sum_k |c_k| t^k on each cell: the scale of rounding in rebasing and Horner."""
    return PiecewisePoly(pp.breaks, np.abs(pp.coeffs))


def _close(got, want, scale):
    """Within 1e-12 of the rounding scale; subnormal results round in absolute steps."""
    return np.all(np.abs(got - want) <= 1e-12 * scale + np.finfo(float).tiny)


def _probes(pp, x_max=None):
    """Cell midpoints and a point in the unbounded last cell: away from every break."""
    b = pp.breaks
    x = np.concatenate([0.5 * (b[:-1] + b[1:]), [b[-1] + 0.5]])
    return x if x_max is None else x[x <= x_max]


@given(piecewise_polys(), st.floats(0.01, 3.0))
@settings(max_examples=100, deadline=None)
def test_shift_delays(f, a):
    s = f.shift(a)
    x = _probes(s)
    assert _close(s(x), f(x - a), _magnitude(f)(x - a))


@given(piecewise_polys(), step_kernels(), st.one_of(st.none(), st.floats(0.5, 10.0)))
@settings(max_examples=100, deadline=None)
def test_convolve_step_tail_identity(f, kernel, x_max):
    locs, masses, q = kernel
    h = f.convolve_step_tail(locs, masses, q, x_max=x_max)
    F = f.antiderivative()
    absF = _magnitude(F)
    x = _probes(h, x_max)
    want = q * F(x) + sum(m * (F(x) - F(x - a)) for a, m in zip(locs, masses))
    scale = (q + sum(masses)) * absF(x) + sum(m * absF(x - a) for a, m in zip(locs, masses))
    assert _close(h(x), want, scale)


def test_step_tail_values():
    pp = PiecewisePoly.step_tail([0.5, 2.0], [1.0, 0.25], 0.1)
    assert pp.eval(0.2) == pytest.approx(1.35)
    assert pp.eval(0.5, side_left=True) == pytest.approx(1.35)
    assert pp.eval(0.5, side_left=False) == pytest.approx(0.35)
    assert pp.eval(3.0) == pytest.approx(0.1)
    assert pp.eval(-1.0) == 0.0


def test_antiderivative_continuity_and_values():
    pp = PiecewisePoly.step_tail([1.0], [1.0], 0.0)
    F = pp.antiderivative()
    assert F.eval(0.5) == pytest.approx(0.5)
    assert F.eval(1.0) == pytest.approx(1.0)
    assert F.eval(2.5) == pytest.approx(1.0)
    # continuity across the breakpoint
    assert F.eval(1.0, side_left=True) == pytest.approx(F.eval(1.0, side_left=False), abs=1e-14)


def test_convolve_step_tail_box_squared():
    box = PiecewisePoly.step_tail([1.0], [1.0], 0.0)
    tri = box.convolve_step_tail([1.0], [1.0], 0.0)
    xs = np.linspace(0.05, 2.5, 40)
    want = np.minimum(xs, 1.0) - np.maximum(xs - 1.0, 0.0)
    got = tri.eval(xs)
    assert np.allclose(got, np.maximum(want, 0.0), atol=1e-14)


def test_shift_and_add():
    box = PiecewisePoly.step_tail([1.0], [1.0], 0.0)
    s = box.shift(0.5)
    assert s.eval(0.4) == 0.0
    assert s.eval(0.6) == 1.0
    assert s.eval(1.6) == 0.0


def test_derivative_of_triangle():
    box = PiecewisePoly.step_tail([1.0], [1.0], 0.0)
    tri = box.convolve_step_tail([1.0], [1.0], 0.0)
    d = tri.derivative()
    assert d.eval(0.5) == pytest.approx(1.0)
    assert d.eval(1.5) == pytest.approx(-1.0)
    assert d.eval(1.0, side_left=True) == pytest.approx(1.0)
    assert d.eval(1.0, side_left=False) == pytest.approx(-1.0)


def test_degree_growth_matches_convolution_order():
    pp = PiecewisePoly.step_tail([1.0], [1.0], 0.0)
    for n in range(2, 6):
        pp = pp.convolve_step_tail([1.0], [1.0], 0.0)
        assert pp.degree == n - 1


def test_pure_killing_power_is_polynomial():
    # q-only kernel: n-fold convolution is q^n x^{n-1}/(n-1)!
    import math

    pp = PiecewisePoly.step_tail([], [], 0.7)
    power = pp
    for n in range(2, 8):
        power = power.convolve_step_tail([], [], 0.7)
        x = 1.3
        assert power.eval(x) == pytest.approx(0.7**n * x ** (n - 1) / math.factorial(n - 1), rel=1e-12)


@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_one_sided_limits_snap_to_a_break_from_either_side(ulps):
    # a break formed as 0.5 + 0.2 + 0.2 lies one ulp below 0.9; a point within
    # the tolerance on either side of it is on the break, so each side reads its own cell
    b = 0.5 + 0.2 + 0.2
    x = b
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    f = PiecewisePoly([0.0, b], [[2.0], [1.0]])
    assert (f.eval(x, side_left=True), f.eval(x, side_left=False)) == (2.0, 1.0)
    assert f.eval(np.array([x, x]), side_left=True).tolist() == [2.0, 2.0]
