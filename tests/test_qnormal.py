"""Tests for the q-normal density family and conditional moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from cqn_quadrature import cqn_moment_quadrature, f_biv_qn, q_hermite, verify_cqn_reproducing

from qstrength import qnormal
from qstrength.qnormal import (
    QuadratureError,
    cqn_conditional_moments,
    f_cqn,
    f_qn,
    h_factor,
    support,
)

# Reference values computed with mpmath at 40 decimal digits (factor count
# chosen so the dropped tail is below 1e-30); frozen here as oracles.
F_QN_ORACLE = [
    (1.0, 0.5, 0.2534967219635811),
    (0.5, 0.3, 0.3284551948255895),
    (-1.2, 0.7, 0.2040030415821639),
    (0.0, 0.9, 0.3938136891941009),
]

H_ORACLE = [
    (0.8, -0.4, 0.6, 0.5, 0.6944249265780656),
    (1.1, 0.9, 0.707, 0.25, 2.345804426911817),
]


@pytest.mark.parametrize("x, q, expected", F_QN_ORACLE)
def test_f_qn_matches_high_precision_oracle(x, q, expected):
    assert f_qn(x, q) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x, y, xi, q, expected", H_ORACLE)
def test_h_factor_matches_high_precision_oracle(x, y, xi, q, expected):
    assert h_factor(x, y, xi, q) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99])
def test_normalization(q):
    lim = support(q).hi
    total, err = quad(lambda x: f_qn(x, q), -lim, lim, limit=200)
    assert abs(total - 1.0) < 1e-8


def test_semicircle_at_q_zero():
    x = np.linspace(-1.99, 1.99, 41)
    semicircle = np.sqrt(4.0 - x**2) / (2.0 * np.pi)
    got = np.array([f_qn(float(xx), 0.0) for xx in x])
    np.testing.assert_allclose(got, semicircle, atol=1e-12)


def test_gaussian_limit():
    x = np.linspace(-3.0, 3.0, 61)
    got = np.array([f_qn(float(xx), 0.9999) for xx in x])
    assert np.max(np.abs(got - norm.pdf(x))) < 1e-2
    # extremely close to 1 the evaluation dispatches to the exact Gaussian
    assert f_qn(0.3, 1.0 - 1e-9) == pytest.approx(norm.pdf(0.3), rel=1e-4)
    assert f_qn(0.3, 1.0) == pytest.approx(norm.pdf(0.3), rel=1e-15)


def test_support_endpoints():
    s0 = support(0.0)
    assert (s0.lo, s0.hi) == (-2.0, 2.0)
    s = support(0.75)
    assert s.hi == pytest.approx(4.0)
    assert not math.isinf(s.hi)
    assert math.isinf(support(1.0).hi)
    assert s.contains(3.999) and not s.contains(4.0)


def test_density_vanishes_outside_support():
    assert f_qn(2.0, 0.0) == 0.0
    assert f_qn(-2.5, 0.0) == 0.0
    assert f_qn(support(0.5).hi + 0.1, 0.5) == 0.0
    assert f_cqn(support(0.5).hi + 0.1, 0.0, 0.5, 0.5) == 0.0


EXPLICIT_POLYS = {
    0: lambda x, q: 1.0,
    1: lambda x, q: x,
    2: lambda x, q: x**2 - 1.0,
    3: lambda x, q: x**3 - (2.0 + q) * x,
    4: lambda x, q: x**4 - (3.0 + 2.0 * q + q * q) * x**2 + (1.0 + q + q * q),
}


@given(
    n=st.integers(min_value=0, max_value=4),
    x=st.floats(min_value=-3.0, max_value=3.0),
    q=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_q_hermite_recurrence_matches_explicit_polynomials(n, x, q):
    expected = EXPLICIT_POLYS[n](x, q)
    got = q_hermite(n, x, q)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-10)


def test_q_hermite_vectorized():
    x = np.linspace(-2, 2, 7)
    got = q_hermite(3, x, 0.5)
    np.testing.assert_allclose(got, x**3 - 2.5 * x, rtol=1e-13)


@given(
    x=st.floats(min_value=-1.9, max_value=1.9),
    y=st.floats(min_value=-1.9, max_value=1.9),
    xi=st.floats(min_value=-0.95, max_value=0.95),
    q=st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=150, deadline=None)
def test_h_factor_symmetric_in_x_y(x, y, xi, q):
    assert h_factor(x, y, xi, q) == pytest.approx(h_factor(y, x, xi, q), rel=1e-12)


@given(
    x=st.floats(min_value=-1.9, max_value=1.9),
    y=st.floats(min_value=-1.9, max_value=1.9),
    xi=st.floats(min_value=0.0, max_value=0.95),
    q=st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=150, deadline=None)
def test_bivariate_factorizes_into_marginal_times_conditional(x, y, xi, q):
    biv = f_biv_qn(x, y, xi, q)
    assert biv == pytest.approx(f_qn(y, q) * f_cqn(x, y, xi, q), rel=1e-12, abs=1e-300)
    assert biv == pytest.approx(f_biv_qn(y, x, xi, q), rel=1e-12, abs=1e-300)


def test_conditional_reduces_to_marginal_at_zero_coupling():
    for x in (-1.5, 0.0, 0.7):
        assert f_cqn(x, 1.0, 0.0, 0.6) == pytest.approx(f_qn(x, 0.6), rel=1e-14)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.536, 0.9, 0.995])
def test_grid_evaluation_equals_pointwise_calls(q):
    # the CLI evaluates whole grids at once; each point must keep its bits.
    # 1025 points cross a 1024-point block, and q = 0.995 needs two factor blocks
    x = np.linspace(-5.0, 5.0, 1025)
    np.testing.assert_array_equal(f_qn(x, q), [f_qn(xx, q) for xx in x])
    np.testing.assert_array_equal(h_factor(x, -1.3, 0.3, q),
                                  [h_factor(xx, -1.3, 0.3, q) for xx in x])
    np.testing.assert_array_equal(f_cqn(x, -1.3, 0.3, q), [f_cqn(xx, -1.3, 0.3, q) for xx in x])


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
def test_h_factor_is_zero_outside_the_support(q):
    hi = support(q).hi
    x = np.array([-hi - 1.0, -hi, 0.0, hi, hi + 1.0])
    h = h_factor(x, 0.5, 0.6, q)
    np.testing.assert_array_equal(h[[0, 1, 3, 4]], 0.0)
    assert h[2] > 0.0
    assert h_factor(hi + 1.0, 0.5, 0.0, q) == 0.0


def test_conditional_rejects_y_outside_support():
    with pytest.raises(ValueError):
        f_cqn(0.0, 2.5, 0.5, 0.0)


REPRODUCING_GRID = [
    (n, q, xi, y)
    for n in range(7)
    for q in (0.0, 0.25, 0.5, 0.75)
    for xi in (0.3, 0.707)
    for y in (0.0, 1.0, -1.0, 1.5, -1.5)
]


@pytest.mark.parametrize("n, q, xi, y", REPRODUCING_GRID)
def test_reproducing_property(n, q, xi, y):
    assert verify_cqn_reproducing(n, y, xi, q) < 1e-6


MOMENT_GRID = [
    (q, xi, y) for q in (0.0, 0.25, 0.5, 0.75) for xi in (0.3, 0.707) for y in (0.0, 1.0, -1.5)
]


@pytest.mark.parametrize("q, xi, y", MOMENT_GRID)
def test_closed_form_moments_match_quadrature(q, xi, y):
    mom = cqn_conditional_moments(y, xi, q)
    assert mom.mean == pytest.approx(xi * y, abs=1e-14)
    norm_ = cqn_moment_quadrature(0, y, xi, q)
    m1 = cqn_moment_quadrature(1, y, xi, q)
    m2 = cqn_moment_quadrature(2, y, xi, q)
    m3 = cqn_moment_quadrature(3, y, xi, q)
    m4 = cqn_moment_quadrature(4, y, xi, q)
    assert norm_ == pytest.approx(1.0, abs=1e-8)
    assert m1 == pytest.approx(0.0, abs=1e-6)
    assert m2 == pytest.approx(mom.variance, abs=1e-6)
    assert m3 / m2**1.5 == pytest.approx(mom.gamma1, abs=1e-6)
    assert m4 / m2**2 - 3.0 == pytest.approx(mom.gamma2, abs=1e-6)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5357, 0.8])
def test_central_excess_at_half_coupling(q):
    # at y = 0 and xi^2 = 1/2 the conditional excess collapses to q(1-q)
    mom = cqn_conditional_moments(0.0, math.sqrt(0.5), q)
    assert mom.gamma2 == pytest.approx(q * (1.0 - q), rel=1e-12, abs=1e-14)
    assert mom.gamma1 == 0.0


def test_conditional_moment_closed_forms_at_gaussian_point():
    y, xi = 1.2, 0.6
    mom = cqn_conditional_moments(y, xi, 1.0)
    assert mom.mean == pytest.approx(xi * y)
    assert mom.variance == pytest.approx(1 - xi * xi)
    assert mom.gamma1 == pytest.approx(0.0, abs=1e-14)
    assert mom.gamma2 == pytest.approx(0.0, abs=1e-14)
    # density itself collapses to the normal conditional
    x = 0.4
    expected = norm.pdf(x, loc=xi * y, scale=math.sqrt(1 - xi * xi))
    assert f_cqn(x, y, xi, 1.0) == pytest.approx(expected, rel=1e-12)


def test_conditional_symmetric_when_conditioned_at_zero():
    for x in (0.3, 1.1, 1.9):
        assert f_cqn(x, 0.0, 0.707, 0.5) == pytest.approx(f_cqn(-x, 0.0, 0.707, 0.5), rel=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quadrature_error_surfaces():
    with pytest.raises(QuadratureError):
        cqn_moment_quadrature(4, 0.0, 0.707, 0.5, tol=1e-16)


def test_parameter_validation():
    with pytest.raises(ValueError):
        f_qn(0.0, 1.5)
    with pytest.raises(ValueError):
        f_qn(0.0, -0.1)
    with pytest.raises(ValueError):
        h_factor(0.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        q_hermite(-1, 0.0, 0.5)
