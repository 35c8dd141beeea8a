"""Tests for the moment-parameter formulas and finite-N combinatorics.

The two reference tables below are frozen copies of the published parameter
tables for the t=1 (Table A) and t=2 (Table B) systems at xi^2 = 1/2; printed
at 3 decimals, so agreement is asserted to +/-1e-3.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_formulas import bivariate_moments, centered_trace_variance, trace_variance

from qstrength import bca
from qstrength.bca import (
    SystemParams,
    binom,
    bold_lambda_sq,
    composition_table_rows,
    d_weight,
    delta_table_rows,
    lam_for_xi_sq,
    lambda_capital,
    lambda_thermo,
    q_hv_finite,
    q_params_finite,
    q_params_infinite,
    resolve_system,
    strength_moment_prediction,
    xi_infinite,
    xi_sq_finite,
)

# Reference rows: (N, m, k) -> (q_h, q_h_inf, q_v, q_v_inf, q_hv, q_hv_inf,
#                               delta_0, delta_1, delta_2), all at t=1.
TABLE_A = {
    (20, 8, 2): (0.814, 0.875, 0.417, 0.536, 0.654, 0.750, -0.043, -0.071, -0.142),
    (20, 8, 3): (0.814, 0.875, 0.119, 0.179, 0.515, 0.625, -0.087, -0.114, -0.177),
    (20, 8, 4): (0.814, 0.875, 0.015, 0.014, 0.394, 0.500, -0.093, -0.105, -0.130),
    (20, 8, 5): (0.814, 0.875, 0.0, 0.0, 0.287, 0.375, -0.077, -0.077, -0.078),
    (20, 8, 6): (0.814, 0.875, 0.0, 0.0, 0.192, 0.250, -0.055, -0.051, -0.043),
    (20, 8, 7): (0.814, 0.875, 0.0, 0.0, 0.107, 0.125, -0.033, -0.028, -0.020),
    (20, 8, 8): (0.814, 0.875, 0.0, 0.0, 0.031, 0.000, -0.010, -0.008, -0.005),
    (50, 10, 2): (0.879, 0.900, 0.567, 0.622, 0.763, 0.800, -0.026, -0.061, -0.157),
    (50, 10, 3): (0.879, 0.900, 0.240, 0.292, 0.653, 0.700, -0.079, -0.123, -0.240),
    (50, 10, 4): (0.879, 0.900, 0.053, 0.071, 0.548, 0.600, -0.108, -0.143, -0.228),
    (50, 10, 5): (0.879, 0.900, 0.003, 0.004, 0.447, 0.500, -0.106, -0.125, -0.166),
    (50, 10, 6): (0.879, 0.900, 0.0, 0.0, 0.351, 0.400, -0.090, -0.096, -0.109),
    (50, 10, 7): (0.879, 0.900, 0.0, 0.0, 0.259, 0.300, -0.071, -0.069, -0.067),
    (50, 10, 8): (0.879, 0.900, 0.0, 0.0, 0.171, 0.200, -0.050, -0.045, -0.036),
    (50, 10, 9): (0.879, 0.900, 0.0, 0.0, 0.086, 0.100, -0.027, -0.022, -0.015),
    (50, 10, 10): (0.879, 0.900, 0.0, 0.0, 0.005, 0.0, -0.002, -0.001, -0.001),
}

# Reference rows: (N, m, k) -> (q_h, q_v, q_hv, q_H), all at t=2.
TABLE_B = {
    (12, 6, 2): (0.287, 0.287, 0.287, 0.287),
    (12, 6, 3): (0.287, 0.057, 0.149, 0.160),
    (12, 6, 4): (0.287, 0.005, 0.071, 0.109),
    (24, 8, 2): (0.438, 0.438, 0.438, 0.438),
    (24, 8, 3): (0.438, 0.125, 0.270, 0.276),
    (24, 8, 4): (0.438, 0.013, 0.154, 0.190),
    (40, 12, 2): (0.600, 0.600, 0.600, 0.600),
    (40, 12, 3): (0.600, 0.292, 0.452, 0.449),
    (40, 12, 4): (0.600, 0.092, 0.333, 0.340),
}


class TestBinom:
    def test_interior_values(self):
        assert binom(12, 6) == 924
        assert binom(12, 0) == 1
        assert binom(50, 10) == 10272278170

    def test_outside_triangle_is_zero(self):
        assert binom(5, 6) == 0
        assert binom(5, -1) == 0
        assert binom(-1, 0) == 0

    @given(n=st.integers(0, 40), r=st.integers(-3, 43))
    @settings(max_examples=100, deadline=None)
    def test_matches_math_comb_inside(self, n, r):
        expected = math.comb(n, r) if 0 <= r <= n else 0
        assert binom(n, r) == expected


class TestSystemParams:
    def test_dimension(self):
        assert SystemParams(12, 6, 1, 2, 0.5).dim == 924

    def test_rejects_equal_ranks(self):
        with pytest.raises(ValueError, match="degenerate"):
            SystemParams(12, 6, 2, 2, 0.5)

    @pytest.mark.parametrize(
        "N, m, t, k",
        [(12, 6, 0, 2), (12, 6, 3, 2), (12, 6, 1, 7), (6, 8, 1, 2), (12, 6, 1, 0)],
    )
    def test_rejects_bad_ranks(self, N, m, t, k):
        with pytest.raises(ValueError):
            SystemParams(N, m, t, k, 0.5)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            SystemParams(12, 6, 1, 2, -0.5)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            SystemParams(12.0, 6, 1, 2, 0.5)

    @pytest.mark.parametrize("lam, xi_sq", [(None, None), (0.3, 0.5)])
    def test_resolve_needs_exactly_one_coupling(self, lam, xi_sq):
        with pytest.raises(ValueError, match="exactly one"):
            resolve_system(12, 6, 1, 2, lam=lam, xi_sq=xi_sq)

    def test_resolve_validates_system_before_solving(self):
        # lam_for_xi_sq would divide by a zero weight at m > N
        with pytest.raises(ValueError, match="need t < k <= m <= N"):
            resolve_system(8, 9, 1, 2, xi_sq=0.5)

    def test_resolve_solves_coupling_and_gates_predictions(self):
        params = resolve_system(12, 6, 1, 2, xi_sq=0.5)
        assert params.lam == lam_for_xi_sq(12, 6, 1, 2, 0.5)
        assert params.xi_sq_finite == pytest.approx(0.5, rel=1e-12)
        assert params.qs_finite == q_params_finite(12, 6, 1, 2, params.xi_sq_finite)
        assert resolve_system(12, 6, 1, 2, lam=0.0).qs_finite is None


class TestInfiniteN:
    def test_correlation_example(self):
        # lam = 0.5 at (12, 6, 1, 2): xi = sqrt(6 / (6 + 5.5*0.25*15))
        params = SystemParams(12, 6, 1, 2, 0.5)
        assert bold_lambda_sq(params) == pytest.approx(66 / 12 * 0.25)
        assert xi_infinite(params) == pytest.approx(math.sqrt(6 / 26.625), rel=1e-14)

    def test_thermalization_coupling(self):
        # xi^2 = 1/2 exactly when bold-lambda^2 = C(m,t)/C(m,k)
        assert lambda_thermo(6, 1, 2) == pytest.approx(0.4)
        assert lambda_thermo(6, 1, 6) == pytest.approx(6.0)
        bold = lambda_thermo(6, 1, 2)
        lam = bca.lam_from_bold(bold, 12, 1, 2)
        params = SystemParams(12, 6, 1, 2, lam)
        assert xi_infinite(params) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_q_parameters_at_half(self):
        qs = q_params_infinite(6, 1, 2, 0.5)
        assert qs.q_h == pytest.approx(binom(5, 1) / binom(6, 1))
        assert qs.q_v == pytest.approx(binom(4, 2) / binom(6, 2))
        assert qs.q_hv == pytest.approx(binom(5, 2) / binom(6, 2))
        assert qs.q_H == pytest.approx((qs.q_h + qs.q_v + 2 * qs.q_hv) / 4)

    def test_q_big_h_general_composition(self):
        qs = q_params_infinite(8, 1, 3, 0.3)
        expected = (
            0.3**2 * qs.q_h + 0.7**2 * qs.q_v + 2 * 0.3 * 0.7 * qs.q_hv
        )
        assert qs.q_H == pytest.approx(expected, rel=1e-14)


class TestFiniteN:
    def test_lambda_capital(self):
        assert lambda_capital(12, 6, 2) == binom(6, 2) * binom(8, 2)
        assert lambda_capital(12, 6, 2, nu=1) == binom(5, 2) * binom(7, 2)

    def test_d_weight(self):
        assert d_weight(12, 1) == 143
        assert d_weight(20, 2) == 35700
        assert d_weight(12, 0) == 1

    def test_trace_variance_matches_direct_sum(self):
        # the nu-sum with the transpose/diagonal correction collapses to
        # C(m,r) * (C(N-m+r,r) + 1)
        assert trace_variance(12, 6, 2) == 15 * 29
        assert trace_variance(12, 6, 1) == 6 * 8
        # rank m is the plain GOE: second moment d + 1
        assert trace_variance(12, 6, 6) == 924 + 1

    def test_centered_trace_variance(self):
        # centroid-fluctuation subtraction: 2 C(N,r) [C(N-r,m-r)/d]^2
        assert centered_trace_variance(12, 6, 1) == pytest.approx(42.0, rel=1e-14)
        assert centered_trace_variance(12, 6, 2) == pytest.approx(435 - 825 / 121, rel=1e-14)

    def test_half_coupling_solution(self):
        # Lambda^0(12,6,1) = 42, Lambda^0(12,6,2) = 420 -> lam^2 = 1/10
        lam = lam_for_xi_sq(12, 6, 1, 2, 0.5)
        assert lam == pytest.approx(math.sqrt(0.1), rel=1e-12)
        assert xi_sq_finite(12, 6, 1, 2, lam) == pytest.approx(0.5, rel=1e-14)

    def test_q_values_against_exact_fractions(self):
        assert q_hv_finite(12, 6, 1, 1) == pytest.approx(36 / 49, rel=1e-14)
        assert q_hv_finite(12, 6, 1, 2) == pytest.approx(15 / 28, rel=1e-14)
        assert q_hv_finite(12, 6, 1, 6) == pytest.approx(1 / 14, rel=1e-14)

    def test_zero_when_rank_exceeds_half_filling(self):
        # q_v vanishes (to print rounding) once k > m - k contributions die out
        assert q_hv_finite(20, 8, 5, 5) < 1e-3
        assert q_hv_finite(20, 8, 8, 8) < 0.0315


@pytest.mark.parametrize("key", sorted(TABLE_A))
def test_reference_table_t1(key):
    N, m, k = key
    ref = TABLE_A[key]
    got_q = (
        q_hv_finite(N, m, 1, 1),
        bca.binom(m - 1, 1) / bca.binom(m, 1),
        q_hv_finite(N, m, k, k),
        bca.binom(m - k, k) / bca.binom(m, k),
        q_hv_finite(N, m, 1, k),
        bca.binom(m - 1, k) / bca.binom(m, k),
    )
    np.testing.assert_allclose(got_q, ref[:6], atol=1e-3)
    qs = q_params_finite(N, m, 1, k, 0.5)
    for e_hat, want in zip((0.0, 1.0, 2.0), ref[6:]):
        pred = strength_moment_prediction(e_hat, qs, m, 1, k)
        assert pred.delta == pytest.approx(want, abs=1e-3)


def test_reference_table_t1_row_emission():
    rows = delta_table_rows(20, 8)
    assert len(rows) == 7
    by_k = {row["k"]: row for row in rows}
    assert by_k[2]["q_hv"] == pytest.approx(0.654, abs=1e-3)
    assert by_k[2]["delta_2"] == pytest.approx(-0.142, abs=1e-3)
    assert by_k[8]["q_v_inf"] == 0.0


@pytest.mark.parametrize("key", sorted(TABLE_B))
def test_reference_table_t2(key):
    N, m, k = key
    ref = TABLE_B[key]
    got = (
        q_hv_finite(N, m, 2, 2),
        q_hv_finite(N, m, k, k),
        q_hv_finite(N, m, 2, k),
        q_params_finite(N, m, 2, k, 0.5).q_H,
    )
    np.testing.assert_allclose(got, ref, atol=1e-3)


def test_reference_table_t2_row_emission():
    rows = composition_table_rows()
    assert len(rows) == 9
    row = next(r for r in rows if (r["N"], r["k"]) == (12, 3))
    assert row["q_v"] == pytest.approx(0.057, abs=1e-3)
    assert row["q_H"] == pytest.approx(0.160, abs=1e-3)


class TestBivariateMoments:
    def test_against_q_parameters(self):
        qs = q_params_finite(12, 6, 1, 4, 0.5)
        mom = bivariate_moments(qs)
        xi_sq = qs.xi_sq
        assert mom.mu11 == pytest.approx(qs.xi)
        assert mom.mu40 == pytest.approx(2 + qs.q_h)
        assert mom.mu04 == pytest.approx(2 + qs.q_H)
        assert mom.mu31 == pytest.approx(qs.xi * (2 + qs.q_h))
        assert mom.mu13 == pytest.approx(
            qs.xi * (2 + xi_sq * qs.q_h + (1 - xi_sq) * qs.q_hv)
        )
        assert mom.mu22 == pytest.approx(1 + xi_sq * (1 + qs.q_h))

    def test_cross_moments_are_asymmetric_for_weak_body_mixing(self):
        mom = bivariate_moments(q_params_finite(12, 6, 1, 4, 0.5))
        assert mom.mu31 > mom.mu13

    def test_large_m_asymptotics(self):
        # t=1, xi^2=1/2: mu40 = 3 - 1/m exactly; mu04 ~ 3 - (1+k)^2/(4m)
        for m, k in ((40, 2), (200, 3), (1000, 4)):
            qs = q_params_infinite(m, 1, k, 0.5)
            mom = bivariate_moments(qs)
            assert mom.mu40 == pytest.approx(3 - 1 / m, rel=1e-12)
            assert mom.mu04 == pytest.approx(3 - (1 + k) ** 2 / (4 * m), abs=3.0 / m**2 * k**4)


class TestMomentPredictions:
    def test_central_window_excess(self):
        qs = q_params_finite(12, 6, 1, 2, 0.5)
        pred = strength_moment_prediction(0.0, qs, 6, 1, 2)
        assert pred.centroid == 0.0
        assert pred.variance == pytest.approx(0.5)
        assert pred.gamma1 == 0.0
        assert pred.mu4_leading == pytest.approx(2 + qs.q_hv + qs.xi_sq * (1 - qs.q_hv**2) / (1 - qs.xi_sq))
        assert pred.gamma2 == pytest.approx(0.0899, abs=2e-4)

    def test_skewness_sign_tracks_window(self):
        qs = q_params_finite(12, 6, 1, 2, 0.5)
        up = strength_moment_prediction(-1.0, qs, 6, 1, 2)
        down = strength_moment_prediction(1.0, qs, 6, 1, 2)
        assert up.gamma1 > 0 > down.gamma1
        assert up.gamma1 == pytest.approx(-down.gamma1, rel=1e-14)

    def test_array_input_matches_scalar_calls_bit_for_bit(self):
        qs = q_params_finite(12, 6, 1, 4, 0.3)
        e_hat = np.array([-2.5, -1.0, np.nan, 0.0, 0.7, 2.0, np.nan])
        pred = strength_moment_prediction(e_hat, qs, 6, 1, 4)
        for name in ("centroid", "variance", "gamma1", "gamma2", "mu4_leading", "delta"):
            got = getattr(pred, name)
            assert got.shape == e_hat.shape
            want = [np.nan if np.isnan(e) else getattr(
                strength_moment_prediction(float(e), qs, 6, 1, 4), name) for e in e_hat]
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_rejects_degenerate_correlation(self):
        qs = q_params_finite(12, 6, 1, 2, 1.0)
        with pytest.raises(ValueError):
            strength_moment_prediction(0.0, qs, 6, 1, 2)


@given(
    m=st.integers(4, 24),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_infinite_q_parameters_lie_in_unit_interval(m, data):
    t = data.draw(st.integers(1, m // 2 - 1)) if m >= 6 else 1
    k = data.draw(st.integers(t + 1, m // 2))
    xi_sq = data.draw(st.floats(0.05, 0.95))
    qs = q_params_infinite(m, t, k, xi_sq)
    for value in (qs.q_h, qs.q_v, qs.q_hv, qs.q_H):
        assert 0.0 <= value < 1.0


@given(
    N=st.integers(8, 30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_finite_q_parameters_lie_in_unit_interval(N, data):
    m = data.draw(st.integers(4, min(10, N // 2)))
    t = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(t + 1, m))
    xi_sq = data.draw(st.floats(0.05, 0.95))
    qs = q_params_finite(N, m, t, k, xi_sq)
    for value in (qs.q_h, qs.q_v, qs.q_hv, qs.q_H):
        assert 0.0 <= value < 1.0
    # finite-N values never exceed their dilute-limit counterparts by much
    inf = q_params_infinite(m, t, k, xi_sq)
    assert qs.q_h <= inf.q_h + 1e-12


def test_finite_approaches_infinite_at_large_n():
    fin = q_params_finite(4000, 6, 1, 2, 0.5)
    inf = q_params_infinite(6, 1, 2, 0.5)
    assert fin.q_h == pytest.approx(inf.q_h, abs=2e-3)
    assert fin.q_v == pytest.approx(inf.q_v, abs=2e-3)
    assert fin.q_hv == pytest.approx(inf.q_hv, abs=2e-3)
