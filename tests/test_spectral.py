"""Unit tests for the spectral pipeline: eigen-helpers, accumulators, chaos measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstrength import bca, ensemble, fock, spectral
from qstrength.qnormal import QuadratureError, f_cqn, f_qn, support
from qstrength.spectral import (
    BivariateMomentAccumulator,
    ChaosMeasures,
    DiagonalizationError,
    StrengthReport,
    centroid_slope,
    diagonalize,
    npc_integral,
    overlaps,
    predicted_f_values,
    standardize,
    strength_l1,
    window_predictions,
)


# ---------------------------------------------------------------------------
# eigen-helpers


def _solve(mat):
    """diagonalize with a workspace of the length it asks for."""
    return diagonalize(mat, np.empty(spectral.diagonalize_work(len(mat))))


class TestDiagonalize:
    def test_known_two_by_two(self):
        w, u = _solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(u), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-15)

    def test_eigenvalues_ascending_and_reconstruction(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        w, u = _solve(a.copy())
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(u @ np.diag(w) @ u.T, a, atol=1e-10)

    def test_reconstruction_guard_trips(self, monkeypatch):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 1e-300)
        with pytest.raises(DiagonalizationError, match="residual"):
            _solve(a + a.T)

    def test_orthonormality_guard_trips(self, monkeypatch):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        monkeypatch.setattr(spectral, "_ORTHONORMAL_TOL", 1e-300)
        with pytest.raises(DiagonalizationError, match="orthonormal"):
            _solve(a + a.T)


    @pytest.mark.parametrize("lapack", [True, False], ids=["dsyevd", "eigh"])
    def test_non_finite_matrix_trips_a_guard(self, monkeypatch, lapack):
        if lapack:  # one NaN in the eigenvectors the in-place steps leave in the workspace
            if None in _LAPACK:
                pytest.skip("numpy's OpenBLAS lacks a step of dsyevd")
            in_place = spectral._dsyevd_in_place

            def one_nan(*args):
                w, ut, scratch = in_place(*args)
                ut[3, 5] = np.nan
                return w, ut, scratch

            monkeypatch.setattr(spectral, "_dsyevd_in_place", one_nan)
            a = np.random.default_rng(7).standard_normal((12, 12))
            mat, work = a + a.T, np.empty(spectral.diagonalize_work(12) + 100)
        else:
            monkeypatch.setattr(spectral, "openblas_symbol", lambda name: None)
            mat, work = np.array([[1.0, np.inf], [np.inf, 1.0]]), np.empty(4)
        with np.errstate(invalid="ignore"), pytest.raises(DiagonalizationError):
            diagonalize(mat, work)


def _member_h(**system) -> np.ndarray:
    cfg = ensemble.RunConfig(**system)
    return ensemble._member_hamiltonian(cfg, 0, ensemble._member_arena(cfg))[1]


# The in-place LAPACK solve must give numpy's eigh bit for bit: member H of a
# t = 1 and a t = 2 system (the rotated t = 2 H is not exactly symmetric), the
# t = 1 H scaled into dsyevd's scaling branch from below and from above (which
# eigh solves), the diagonal H at lam = 0, and d = 1 and 2.
_EIGH_CASES = {
    "member-12-6-1-2": lambda: _member_h(N=12, m=6, t=1, k=2, xi_sq_target=0.5),
    "member-12-6-1-2-x1e-150": lambda: _EIGH_CASES["member-12-6-1-2"]() * 1e-150,
    "member-12-6-1-2-x1e150": lambda: _EIGH_CASES["member-12-6-1-2"]() * 1e150,
    "rotated-8-4-2-3": lambda: _member_h(N=8, m=4, t=2, k=3, xi_sq_target=0.5),
    "lambda-0": lambda: _member_h(N=8, m=4, t=1, k=2, lam=0.0),
    "d-1": lambda: np.array([[0.75]]),
    "d-2": lambda: np.array([[0.5, -1.25], [-1.25, 2.0]]),
}
_LAPACK = [spectral.openblas_symbol(f"scipy_{name}_64_") for name in spectral._DSYEVD_STEPS]
needs_lapack = pytest.mark.skipif(None in _LAPACK,
                                  reason="numpy's OpenBLAS lacks a step of dsyevd")


@needs_lapack
@pytest.mark.parametrize("case", _EIGH_CASES)
def test_lapack_solve_is_numpy_eigh_bit_for_bit(case):
    mat = _EIGH_CASES[case]()
    solved = mat.copy()
    w, u = _solve(solved)
    w_ref, u_ref = np.linalg.eigh(mat)
    assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)
    assert u.flags.c_contiguous  # the layout downstream sums see, as eigh's
    assert np.shares_memory(u, solved)  # u overwrites the matrix


@needs_lapack
@pytest.mark.parametrize("case", ["member-12-6-1-2", "rotated-8-4-2-3", "d-2"])
def test_a_longer_workspace_changes_no_bit(case):
    # every step still receives the queried length, so dormtr blocks as in eigh
    mat = _EIGH_CASES[case]()
    work = np.full(spectral.diagonalize_work(len(mat)) + 4099, np.nan)
    w, u = diagonalize(mat.copy(), work)
    w_ref, u_ref = np.linalg.eigh(mat)
    assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)


@pytest.mark.parametrize("case", ["member-12-6-1-2", "d-2", "d-1"])
@pytest.mark.parametrize("bad", ["one-double-short", "float32", "strided"])
def test_a_workspace_diagonalize_cannot_use_is_refused(case, bad):
    # LAPACK would write past a short workspace, or read a wrong one as doubles
    mat = _EIGH_CASES[case]()
    n = spectral.diagonalize_work(len(mat))
    work = {"one-double-short": lambda: np.full(n - 1, np.nan),
            "float32": lambda: np.full(n, np.nan, dtype=np.float32),
            "strided": lambda: np.full(2 * n, np.nan)[::2]}[bad]()
    with pytest.raises(ValueError, match="work"):
        diagonalize(mat.copy(), work)


@pytest.mark.parametrize("call", [lambda: diagonalize(np.zeros((3, 2)), np.empty(64)),
                                  lambda: diagonalize(np.eye(3), np.empty(1)),
                                  lambda: overlaps(np.eye(4)[:, :3])],
                         ids=["diagonalize-not-square", "diagonalize-short-work",
                              "overlaps-not-square"])
def test_a_bad_argument_is_a_value_error_and_no_member_failure(call):
    # a member fails only by a LinAlgError, so a bad argument stops the run
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, np.linalg.LinAlgError)


@needs_lapack
@pytest.mark.parametrize("case", ["member-12-6-1-2", "rotated-8-4-2-3", "d-1"])
def test_eigh_fallback_matches_the_lapack_solve(monkeypatch, case):
    mat = _EIGH_CASES[case]()
    w, u = _solve(mat.copy())
    monkeypatch.setattr(spectral, "openblas_symbol", lambda name: None)
    w_ref, u_ref = _solve(mat.copy())
    assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)


# dsyevd scales a matrix whose largest entry lies outside [_RMIN, _RMAX] and
# carries a non-finite one through; np.linalg.eigh, which is dsyevd, solves
# both, and every other matrix goes through the in-place steps.
@pytest.fixture
def no_in_place_steps(monkeypatch):
    def in_place(*args):
        raise AssertionError("in-place steps called")

    monkeypatch.setattr(spectral, "_dsyevd_in_place", in_place)


@pytest.mark.parametrize("case", ["member-12-6-1-2-x1e-150", "member-12-6-1-2-x1e150"])
def test_matrices_dsyevd_would_scale_go_to_eigh(no_in_place_steps, case):
    mat = _EIGH_CASES[case]()
    w, u = _solve(mat.copy())
    w_ref, u_ref = np.linalg.eigh(mat)
    assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)


def test_non_finite_matrix_goes_to_eigh(no_in_place_steps):
    with np.errstate(invalid="ignore"), pytest.raises(DiagonalizationError):
        _solve(np.array([[1.0, np.inf], [np.inf, 1.0]]))


@needs_lapack
def test_in_range_member_runs_the_in_place_steps(no_in_place_steps):
    with pytest.raises(AssertionError, match="in-place"):
        _solve(_EIGH_CASES["member-12-6-1-2"]())


def test_dsyevd_resolves_wherever_the_thread_setter_does():
    if spectral.openblas_symbol("scipy_openblas_set_num_threads64_") is None:
        pytest.skip("numpy's OpenBLAS has no scipy_openblas thread setter")
    assert None not in _LAPACK  # else diagonalize would fall back to eigh's larger footprint


@pytest.mark.parametrize("d", [1, 31, 70])
def test_mirror_copies_either_triangle_over_any_values(d):
    # d = 70 is not a multiple of the row block; the target triangle holds
    # values, not zeros
    a = np.random.default_rng(d).standard_normal((d, d))
    upper = a.copy()
    spectral._mirror_upper(upper)
    np.testing.assert_array_equal(upper, np.triu(a) + np.triu(a, 1).T)
    lower = a.copy()
    spectral._mirror_upper(lower.T)
    np.testing.assert_array_equal(lower, np.tril(a) + np.tril(a, -1).T)


class TestOverlaps:
    def test_identical_bases_give_identity(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((15, 15))
        _, u = _solve(a + a.T)
        np.testing.assert_allclose(overlaps(u.T @ u), np.eye(15), atol=1e-12)

    def test_doubly_stochastic(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((30, 30))
        b = rng.standard_normal((30, 30))
        _, u0 = _solve(a + a.T)
        _, u1 = _solve(b + b.T)
        wsq = overlaps(u0.T @ u1)
        np.testing.assert_allclose(wsq.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(wsq.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(wsq >= 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            overlaps(np.eye(4)[:, :3])

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="doubly stochastic"):
            overlaps(np.full((2, 2), np.nan))

    def test_non_orthonormal_input_rejected(self):
        u_bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="doubly stochastic"):
            overlaps(u_bad.T @ u_bad)

    def test_not_doubly_stochastic_is_a_diagonalization_error(self):
        # a LinAlgError, which a member fails by, and so still a ValueError
        with pytest.raises(DiagonalizationError, match="doubly stochastic") as info:
            overlaps(np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert isinstance(info.value, np.linalg.LinAlgError)
        assert isinstance(info.value, ValueError)


class TestStandardize:
    def test_three_point_spectrum(self):
        e_hat = standardize(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(e_hat, [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], atol=1e-15)

    def test_output_is_standardized(self):
        rng = np.random.default_rng(3)
        e_hat = standardize(rng.normal(5.0, 3.0, size=1000))
        assert e_hat.mean() == pytest.approx(0.0, abs=1e-12)
        assert e_hat.std() == pytest.approx(1.0, rel=1e-12)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="zero width"):
            standardize(np.full(5, 2.0))


# ---------------------------------------------------------------------------
# strength-function accumulator

WINDOWS = np.array([[-0.5, 0.5], [1.0, 2.0]])
EDGES = np.linspace(-4.0, 4.0, 17)
# scratch of ChaosMeasures.add_member, for every W below (at most 64 x 64)
WORK = np.empty(64 * 64)


def _toy_member(seed):
    """Random standardized spectra plus a doubly-stochastic overlap matrix."""
    rng = np.random.default_rng(seed)
    n = 24
    e0 = standardize(rng.standard_normal(n))
    e1 = standardize(rng.standard_normal(n))
    a = rng.standard_normal((n, n))
    _, u0 = _solve(a + a.T)
    b = rng.standard_normal((n, n))
    _, u1 = _solve(b + b.T)
    return e0, e1, overlaps(u0.T @ u1)


class TestStrengthReport:
    def test_hand_computed_moments_single_window(self):
        rep = StrengthReport(np.array([[-1.0, 1.0]]), EDGES)
        e0 = np.array([0.0, 0.5, 3.0])  # third state falls outside the window
        e1 = np.array([-1.0, 0.0, 2.0])
        wsq = np.array(
            [
                [0.2, 0.5, 0.3],
                [0.6, 0.1, 0.3],
                [0.1, 0.1, 0.8],
            ]
        )
        rep.add_member(e0, e1, wsq)
        w = np.array([0.8, 0.6, 0.6])  # column sums over the two in-window rows
        mom = rep.window_moments()
        m1 = np.sum(w * e1) / w.sum()
        var = np.sum(w * e1**2) / w.sum() - m1**2
        assert rep.n_kappa[0] == 2
        assert rep.weight[0] == pytest.approx(2.0)
        assert mom["mean"][0] == pytest.approx(m1)
        assert mom["variance"][0] == pytest.approx(var)
        assert mom["e0_mean"][0] == pytest.approx(0.25)

    def test_merge_equals_sequential(self):
        full = StrengthReport(WINDOWS, EDGES)
        first = StrengthReport(WINDOWS, EDGES)
        second = StrengthReport(WINDOWS, EDGES)
        for seed in range(6):
            e0, e1, wsq = _toy_member(seed)
            full.add_member(e0, e1, wsq)
            (first if seed < 3 else second).add_member(e0, e1, wsq)
        merged = first.merge(second)
        assert merged.member_count == full.member_count
        np.testing.assert_allclose(merged.power_sums, full.power_sums, rtol=1e-12)
        np.testing.assert_allclose(merged.hist, full.hist, rtol=1e-12)
        np.testing.assert_allclose(merged.weight, full.weight, rtol=1e-12)

    def test_merge_rejects_mismatched_windows(self):
        a = StrengthReport(WINDOWS, EDGES)
        b = StrengthReport(WINDOWS + 0.1, EDGES)
        with pytest.raises(ValueError, match="different windows"):
            a.merge(b)

    def test_empty_window_yields_nan(self):
        rep = StrengthReport(np.array([[5.0, 6.0]]), EDGES)
        e0, e1, wsq = _toy_member(0)
        rep.add_member(e0, e1, wsq)
        assert math.isnan(rep.e0_mean[0])
        assert math.isnan(rep.window_moments()["mean"][0])

    def test_f_values_normalized(self):
        rep = StrengthReport(WINDOWS, EDGES)
        for seed in range(4):
            rep.add_member(*_toy_member(seed))
        widths = np.diff(rep.edges)
        integrals = (rep.f_values() * widths).sum(axis=1)
        # toy spectra lie well inside the grid, so no probability is clipped
        np.testing.assert_allclose(integrals, 1.0, atol=1e-12)

    def test_window_sums_are_the_gathered_rows_summed(self):
        # every sum is bit for bit what W[rows].sum(axis=0) gives, for windows
        # of a few rows, of every row, and of none
        windows = np.array([[-1.0, 0.0], [0.0, 1.0], [-5.0, 5.0], [5.0, 6.0]])
        rep = StrengthReport(windows, EDGES)
        e0, e1, wsq = _toy_member(3)
        rep.add_member(e0, e1, wsq)
        powers = np.array([e1, e1**2, e1**3, e1**4])
        want = {"n_kappa": [], "weight": [], "sum_e0": [], "power_sums": [], "hist": []}
        for lo, hi in windows:
            rows = np.flatnonzero((e0 >= lo) & (e0 < hi))
            w = wsq[rows].sum(axis=0)
            for name, value in (("n_kappa", rows.size), ("weight", w.sum()),
                                ("sum_e0", e0[rows].sum()), ("power_sums", powers @ w),
                                ("hist", np.histogram(e1, bins=EDGES, weights=w)[0])):
                want[name].append(value)
        assert want["n_kappa"][2:] == [24, 0]
        for name, values in want.items():
            expected = 0.0 + np.array(values, dtype=float)  # the sums start at zero
            assert getattr(rep, name).tobytes() == expected.tobytes(), name

    def test_centroid_slope_recovers_synthetic_slope(self):
        centers = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        rep = StrengthReport(np.column_stack([centers - 0.05, centers + 0.05]), EDGES)
        e0 = centers.copy()
        e1 = 0.7 * centers  # exact strength centroids at slope 0.7
        wsq = np.eye(5)
        rep.add_member(e0, e1, wsq)
        assert centroid_slope(rep) == pytest.approx(0.7, rel=1e-12)
        assert centroid_slope(rep, e0_max=1.5) == pytest.approx(0.7, rel=1e-12)

    def test_centroid_slope_needs_off_center_windows(self):
        rep = StrengthReport(np.array([[-0.5, 0.5]]), EDGES)
        rep.add_member(*_toy_member(1))
        with pytest.raises(ValueError, match="off-center"):
            centroid_slope(rep, e0_max=0.0)


class TestPredictionHelpers:
    def setup_method(self):
        self.qs = bca.q_params_finite(12, 6, 1, 2, 0.5)

    def test_window_predictions_follow_e0_mean(self):
        rep = StrengthReport(np.array([[-1.05, -0.95], [0.95, 1.05]]), EDGES)
        e0 = np.array([-1.0, 1.0])
        e1 = np.array([-0.7, 0.7])
        rep.add_member(e0, e1, np.eye(2))
        pred = window_predictions(rep, self.qs, 6, 1, 2)
        xi = self.qs.xi
        np.testing.assert_allclose(pred["centroid"], [-xi, xi], rtol=1e-12)
        np.testing.assert_allclose(pred["variance"], 1 - xi**2, rtol=1e-12)
        assert pred["gamma1"][0] == -pred["gamma1"][1]

    def test_strength_l1_zero_for_matching_histogram(self):
        # histogram built from the benchmark density itself -> tiny L1
        from qstrength.qnormal import f_cqn

        edges = np.linspace(-3.2, 3.2, 321)
        rep = StrengthReport(np.array([[-0.05, 0.05]]), edges)
        centers_x = 0.5 * (edges[:-1] + edges[1:])
        dens = f_cqn(centers_x, 0.0, self.qs.xi, self.qs.q_hv)
        weights = dens * np.diff(edges)
        rep.add_member(np.zeros(1), centers_x, weights.reshape(1, -1))
        l1 = strength_l1(rep, self.qs)
        assert l1[0] < 5e-3

    def test_strength_l1_matches_the_per_window_sums(self):
        # the last window lies beyond the toy spectra, so its row is nan
        rep = StrengthReport(np.array([[-1.0, 0.0], [0.0, 1.0], [5.0, 6.0]]), EDGES)
        rep.add_member(*_toy_member(2))
        f_emp, bench = rep.f_values(), predicted_f_values(rep, self.qs)
        want = [float(np.sum(np.abs(f_emp[i] - bench[i]) * np.diff(EDGES))) for i in range(2)]
        np.testing.assert_array_equal(strength_l1(rep, self.qs), want + [np.nan])

    def test_strength_l1_detects_wrong_shape(self):
        edges = np.linspace(-3.2, 3.2, 321)
        rep = StrengthReport(np.array([[-0.05, 0.05]]), edges)
        centers_x = 0.5 * (edges[:-1] + edges[1:])
        wrong = np.exp(-0.5 * (centers_x / 0.3) ** 2)  # far too narrow
        rep.add_member(np.zeros(1), centers_x, (wrong / wrong.sum()).reshape(1, -1))
        assert strength_l1(rep, self.qs)[0] > 0.5


# ---------------------------------------------------------------------------
# chaos measures


class TestChaosMeasures:
    def test_uniform_overlaps_give_full_mixing(self):
        n = 50
        cm = ChaosMeasures(np.array([-1.0, 1.0]))
        cm.add_member(np.zeros(n), np.full((n, n), 1.0 / n), WORK)
        assert cm.npc()[0] == pytest.approx(n, rel=1e-12)
        assert cm.s_info()[0] == pytest.approx(math.log(n), rel=1e-12)

    def test_delta_overlaps_are_exactly_unmixed(self):
        n = 12
        cm = ChaosMeasures(np.array([-1.0, 1.0]))
        cm.add_member(np.zeros(n), np.eye(n), WORK)
        assert cm.npc()[0] == 1.0
        assert cm.s_info()[0] == 0.0

    def test_zeros_and_subnormals_give_the_masked_sums(self):
        # W ln W over W > 0 only, with exact zeros in every column, an
        # unmixed state's column and subnormal overlaps: the sums are bit for
        # bit those of the mask the accumulator does without
        edges = np.linspace(-3.0, 3.0, 13)
        _, e1, wsq = _toy_member(5)
        wsq[::3] = 0.0
        wsq[:, 0] = 0.0
        wsq[7, 0] = 1.0
        wsq[1::5, 2::2] = np.finfo(float).smallest_subnormal
        wsq[2::7, 1::3] = 3e-310
        ent_terms = np.zeros_like(wsq)
        np.log(wsq, out=ent_terms, where=wsq > 0.0)
        ent_terms *= wsq
        ipr, ent = np.sum(np.square(wsq), axis=0), -np.sum(ent_terms, axis=0)
        cm = ChaosMeasures(edges)
        cm.add_member(e1, wsq, WORK)
        for name, weights in (("ipr_sum", ipr), ("ent_sum", ent)):
            expected = 0.0 + np.histogram(e1, bins=edges, weights=weights)[0]
            assert getattr(cm, name).tobytes() == expected.tobytes(), name

    def test_merge_equals_sequential(self):
        edges = np.linspace(-3.0, 3.0, 13)
        full = ChaosMeasures(edges)
        a = ChaosMeasures(edges)
        b = ChaosMeasures(edges)
        for seed in range(4):
            e0, e1, wsq = _toy_member(seed + 20)
            full.add_member(e1, wsq, WORK)
            (a if seed % 2 else b).add_member(e1, wsq, WORK)
        merged = a.merge(b)
        np.testing.assert_allclose(merged.ipr_sum, full.ipr_sum, rtol=1e-12)
        np.testing.assert_allclose(merged.count, full.count, rtol=1e-12)
        with pytest.raises(ValueError, match="different grids"):
            a.merge(ChaosMeasures(edges + 0.5))

    def test_empty_bins_are_nan(self):
        cm = ChaosMeasures(np.array([-2.0, -1.0, 1.0, 2.0]))
        cm.add_member(np.zeros(4), np.eye(4), WORK)
        assert math.isnan(cm.npc()[0])
        assert cm.npc()[1] == 1.0


class TestNpcIntegral:
    def setup_method(self):
        self.qs = bca.q_params_finite(12, 6, 1, 2, 0.5)

    def test_scalar_input_returns_float(self):
        val = npc_integral(0.0, self.qs, 924)
        assert isinstance(val, float)
        assert 0 < val < 924

    def test_symmetric_and_peaked_at_center(self):
        x = np.array([-1.0, 0.0, 1.0])
        vals = npc_integral(x, self.qs, 924)
        assert vals[0] == pytest.approx(vals[2], rel=1e-6)
        assert vals[1] > vals[0]

    def test_uncorrelated_limit_approaches_third_of_dimension(self):
        # as xi -> 0 the eigenvector is spread over every basis state and the
        # integral collapses to the GOE value dim/3
        qs = bca.QParameterSet(q_h=0.5, q_v=0.5, q_hv=0.5, q_H=0.5, xi_sq=1e-10)
        val = npc_integral(0.0, qs, 924)
        assert val == pytest.approx(924 / 3.0, rel=1e-4)

    def test_out_of_support_is_nan(self):
        val = npc_integral(np.array([100.0]), self.qs, 924)
        assert math.isnan(val[0])


def npc_by_adaptive_quad(x, qs, dim):
    """The NPC curve with scipy's adaptive quad of the same integrand, one x at a time."""
    from scipy.integrate import quad

    lim = support(min(qs.q_h, qs.q_H, qs.q_hv)).hi
    out = np.full(len(x), np.nan)
    for i, xx in enumerate(x):
        if not (support(qs.q_H).contains(xx) and support(qs.q_hv).contains(xx)):
            continue
        fx = f_qn(xx, qs.q_H)
        if fx < 1e-12:
            continue
        val, _ = quad(lambda y: f_qn(y, qs.q_h) * f_cqn(xx, y, qs.xi, qs.q_hv) ** 2,
                      -lim, lim, epsabs=0.0, epsrel=1e-12, limit=300)
        out[i] = (dim / 3.0) / (val / fx**2)
    return out


NPC_X = np.array([-3.2, -2.8, -2.0, -1.0, 0.0, 0.5, 1.5, 2.4, 2.8, 3.1])
NPC_CASES = {
    f"{N}-{m}-{t}-{k}-xi_sq{xi_sq}": (bca.q_params_finite(N, m, t, k, xi_sq), math.comb(N, m))
    for (N, m, t, k), xi_sq in [
        *[(system, 0.5) for system in ((12, 6, 1, 2), (12, 6, 1, 4), (12, 6, 1, 6), (20, 8, 1, 2),
                                       (50, 10, 1, 2), (50, 10, 1, 4), (24, 8, 2, 3))],
        ((12, 6, 1, 2), 0.1),
        ((12, 6, 1, 2), 0.9),
        ((12, 6, 1, 2), 0.99),
    ]
}
# q = 1 has an infinite support, which the theta rule cuts at |y| = 40
NPC_CASES["gaussian-limit"] = (bca.QParameterSet(1.0, 1.0, 1.0, 1.0, 0.5), 924)


@pytest.mark.parametrize("qs, dim", NPC_CASES.values(), ids=NPC_CASES.keys())
def test_npc_integral_matches_adaptive_quadrature(qs, dim):
    got = npc_integral(NPC_X, qs, dim)
    want = npc_by_adaptive_quad(NPC_X, qs, dim)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert np.any(np.isfinite(want))
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_npc_integral_raises_when_panels_do_not_converge():
    qs = bca.q_params_finite(12, 6, 1, 2, 0.999)
    with pytest.raises(QuadratureError):
        npc_integral(np.linspace(-3.2, 3.2, 64), qs, 924)


# ---------------------------------------------------------------------------
# bivariate trace moments


def dense_traces(h0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Oracle: the 12 centred traces (1/d) tr(H0^P H^Q) from three d x d matmuls.

    Order T20 T11 T02 T30 T21 T12 T03 T40 T31 T22 T13 T04, as in trace_sums.
    """
    d = len(h0)
    h0c = h0 - (np.trace(h0) / d) * np.eye(d)
    hc = h - (np.trace(h) / d) * np.eye(d)
    a, b, r = h0c @ h0c, hc @ hc, h0c @ hc
    return np.array([
        np.trace(a), np.sum(h0c * hc), np.trace(b),
        np.sum(a * h0c), np.sum(a * hc), np.sum(b * h0c), np.sum(b * hc),
        np.sum(a * a), np.sum(a * r.T), np.sum(a * b), np.sum(r * b), np.sum(b * b),
    ]) / d


def strength_frame(h0: np.ndarray, h: np.ndarray):
    """(E0, E, W) of a symmetric pair, W = (U0^T U)^2 from two eigensolves."""
    e0, u0 = np.linalg.eigh(h0)
    e, u = np.linalg.eigh(h)
    return e0, e, (u0.T @ u) ** 2


def random_symmetric(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a + a.T


def assert_traces_match(acc: BivariateMomentAccumulator, want: np.ndarray) -> None:
    # odd traces can vanish (T30 at half filling), so the scale sets the slack
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(acc.trace_sums, want, rtol=1e-10, atol=1e-12 * scale)


class TestBivariateAccumulator:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 40), lam=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, d, lam, seed):
        rng = np.random.default_rng(seed)
        h0 = random_symmetric(rng, d)
        h = h0 + lam * random_symmetric(rng, d)
        acc = BivariateMomentAccumulator()
        acc.add_member(*strength_frame(h0, h))
        assert_traces_match(acc, dense_traces(h0, h))

    def test_uncoupled_member_with_identity_strength(self):
        e0 = np.random.default_rng(4).standard_normal(30)
        acc = BivariateMomentAccumulator()
        acc.add_member(e0, e0, np.eye(30))
        assert_traces_match(acc, dense_traces(np.diag(e0), np.diag(e0)))
        # W = I: every T_PQ is the power sum T_(P+Q)0 of the one spectrum
        t = acc.trace_sums
        np.testing.assert_allclose(t[[1, 2, 4, 5, 6, 8, 9, 10, 11]], t[[0, 0, 3, 3, 3, 7, 7, 7, 7]],
                                   rtol=1e-13, atol=1e-15 * np.max(np.abs(t)))
        assert acc.finalize()["mu11"] == pytest.approx(1.0, rel=1e-12)

    def test_uncoupled_members_have_no_correlation_spread(self):
        # per-member mu11 is 1 up to an ulp; the one-pass variance of such
        # values is rounding residue (2.2e-16 here), not a spread of 1.5e-8
        rng = np.random.default_rng(4)
        acc = BivariateMomentAccumulator()
        for d in (30, 40, 50, 60, 70, 80):
            e0 = rng.standard_normal(d)
            order = np.argsort(e0)
            w = np.zeros((d, d))
            w[order, np.arange(d)] = 1.0
            acc.add_member(e0, e0[order], w)
        emp = acc.finalize()
        assert emp["mu11_member_mean"] == pytest.approx(1.0, rel=1e-15)
        assert emp["mu11_member_std"] == 0.0
        assert emp["mu40_member_std"] > 0.1

    def test_repeated_h0_eigenvalues(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        h0 = (q * np.repeat([-1.5, 0.0, 0.5, 2.0], 6)) @ q.T
        h = h0 + 0.4 * random_symmetric(rng, 24)
        acc = BivariateMomentAccumulator()
        acc.add_member(*strength_frame(h0, h))
        assert_traces_match(acc, dense_traces(h0, h))

    def test_two_body_mean_field_member(self):
        basis_m, basis_t, basis_k = (fock.build_basis(8, r) for r in (4, 2, 3))
        h0 = fock.embed_k_body(fock.sample_goe(basis_t.dim, 17, 0, 0), basis_m, basis_t)
        v = fock.embed_k_body(fock.sample_goe(basis_k.dim, 17, 0, 1), basis_m, basis_k)
        h = h0 + bca.lam_for_xi_sq(8, 4, 2, 3, 0.5) * v
        acc = BivariateMomentAccumulator()
        acc.add_member(*strength_frame(h0, h))
        assert_traces_match(acc, dense_traces(h0, h))

    def test_identical_operators_have_unit_correlation(self):
        rng = np.random.default_rng(2)
        acc = BivariateMomentAccumulator()
        for _ in range(3):
            h = random_symmetric(rng, 30)
            acc.add_member(*strength_frame(h, h))
        emp = acc.finalize()
        assert emp["mu11"] == pytest.approx(1.0, rel=1e-12)
        assert emp["mu40"] == pytest.approx(emp["mu04"], rel=1e-12)
        assert emp["mu31"] == pytest.approx(emp["mu40"], rel=1e-12)

    def test_merge_equals_sequential(self):
        rng = np.random.default_rng(8)
        frames = [strength_frame(random_symmetric(rng, 20), random_symmetric(rng, 20))
                  for _ in range(2)]
        full = BivariateMomentAccumulator()
        a = BivariateMomentAccumulator()
        b = BivariateMomentAccumulator()
        for frame in frames:
            full.add_member(*frame)
        a.add_member(*frames[0])
        b.add_member(*frames[1])
        merged = a.merge(b)
        np.testing.assert_allclose(merged.trace_sums, full.trace_sums, rtol=1e-12)
        f1, f2 = merged.finalize(), full.finalize()
        assert f1["mu22"] == pytest.approx(f2["mu22"], rel=1e-12)

    def test_finalize_empty_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            BivariateMomentAccumulator().finalize()

    def test_member_spread_is_tracked(self):
        rng = np.random.default_rng(13)
        acc = BivariateMomentAccumulator()
        for _ in range(5):
            acc.add_member(*strength_frame(random_symmetric(rng, 25), random_symmetric(rng, 25)))
        emp = acc.finalize()
        names = ("mu11", "mu40", "mu04", "mu31", "mu13", "mu22")
        assert list(emp) == ["member_count", "sigma_h0", "sigma_h", *(
            f"{name}{suffix}" for name in names for suffix in ("", "_member_mean", "_member_std"))]
        assert all(emp[f"{name}_member_std"] > 0 for name in names)
