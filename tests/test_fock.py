"""Tests for the determinant basis, GOE sampling, and the many-body embedding.

The heavy check is an independent full-Fock-space oracle: annihilation
operators built as Jordan-Wigner matrices on all 2^n occupation states, the
k-body operator assembled as sum g_ab B+(a) B(b), then projected onto the
m-particle sector and compared elementwise against embed_k_body.
"""

import itertools
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from trace_formulas import centered_trace_variance, trace_variance

from qstrength import fock
from qstrength.fock import (
    build_basis,
    compound_matrix,
    compound_plan,
    compound_work,
    embed_k_body,
    embed_work,
    embedding_plan,
    sample_goe,
)


def annihilators(n_orb: int) -> list[np.ndarray]:
    """Jordan-Wigner c_a on the full 2^n_orb occupation basis.

    Bit a of the basis index is the occupation of orbital a; annihilating
    orbital a picks up the parity of occupied orbitals below a.
    """
    dim = 1 << n_orb
    ops = []
    for a in range(n_orb):
        op = np.zeros((dim, dim))
        for state in range(dim):
            if state >> a & 1:
                phase = (-1) ** ((state & ((1 << a) - 1)).bit_count() & 1)
                op[state ^ (1 << a), state] = phase
        ops.append(op)
    return ops


def full_space_k_body(coeffs: np.ndarray, n_orb: int, r: int) -> np.ndarray:
    """sum_ab coeffs[a, b] B+(a) B(b) with B(b) = c_{b1} c_{b2} ... ascending."""
    c = annihilators(n_orb)
    # label subsets in the same order build_basis does: ascending bitmask
    subsets = sorted(
        itertools.combinations(range(n_orb), r),
        key=lambda s: sum(1 << o for o in s),
    )
    b_ops = []
    for sub in subsets:
        op = np.eye(1 << n_orb)
        for orb in sub:
            op = c[orb] @ op
        b_ops.append(op)
    dim = 1 << n_orb
    out = np.zeros((dim, dim))
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            out += coeffs[i, j] * (b_ops[i].T @ b_ops[j])
    return out


def project_to_sector(full: np.ndarray, basis: fock.FockBasis) -> np.ndarray:
    keep = basis.states.astype(np.int64)
    return full[np.ix_(keep, keep)]


@pytest.mark.parametrize("n_orb, m, r", [(4, 2, 1), (4, 3, 2), (5, 3, 2), (6, 3, 3), (6, 4, 2)])
def test_embedding_matches_full_space_oracle(n_orb, m, r):
    basis_m = build_basis(n_orb, m)
    basis_r = build_basis(n_orb, r)
    rng = np.random.default_rng(100 * n_orb + 10 * m + r)
    g = rng.standard_normal((basis_r.dim, basis_r.dim))
    g = (g + g.T) / 2
    got = embed_k_body(g, basis_m, basis_r)
    want = project_to_sector(full_space_k_body(g, n_orb, r), basis_m)
    # identical operators, different summation order -> ulp-level slack
    np.testing.assert_allclose(got, (want + want.T) / 2, atol=1e-12)


def test_rank_equal_to_particle_number_is_identity_embedding():
    basis = build_basis(8, 4)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((basis.dim, basis.dim))
    got = embed_k_body(g, basis, basis)
    np.testing.assert_allclose(got, (g + g.T) / 2, atol=1e-15)


def test_number_operator_counts_particles():
    basis_m = build_basis(9, 4)
    basis_1 = build_basis(9, 1)
    got = embed_k_body(np.eye(9), basis_m, basis_1)
    np.testing.assert_array_equal(got, 4.0 * np.eye(basis_m.dim))


def test_pair_counting_operator():
    # identity coefficients at rank r count the C(m, r) sub-determinants
    basis_m = build_basis(8, 4)
    basis_2 = build_basis(8, 2)
    got = embed_k_body(np.eye(basis_2.dim), basis_m, basis_2)
    np.testing.assert_array_equal(got, float(math.comb(4, 2)) * np.eye(basis_m.dim))


def test_selection_rule():
    # matrix elements vanish when the determinants differ in more than r orbitals
    basis_m = build_basis(8, 4)
    basis_2 = build_basis(8, 2)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((basis_2.dim, basis_2.dim))
    v = embed_k_body((g + g.T) / 2, basis_m, basis_2)
    states = basis_m.states.astype(np.int64)
    for i, mu in enumerate(states):
        for j, nu in enumerate(states):
            moved = (mu ^ nu).bit_count() // 2
            if moved > 2:
                assert v[i, j] == 0.0


def test_embedding_output_is_symmetric():
    basis_m = build_basis(10, 5)
    basis_2 = build_basis(10, 2)
    g = sample_goe(basis_2.dim, 17, 0)
    v = embed_k_body(g, basis_m, basis_2)
    np.testing.assert_array_equal(v, v.T)


def full_square_scatter(coeffs: np.ndarray, n_orb: int, m: int, r: int) -> np.ndarray:
    """Reference embedding: every (mu, nu) pair of each spectator set, both
    triangles, scattered with its sign product, then 0.5 * (out + out^T)."""
    basis_m, basis_r = build_basis(n_orb, m), build_basis(n_orb, r)
    index_m, index_r = ({int(s): i for i, s in enumerate(b.states)} for b in (basis_m, basis_r))
    d = basis_m.dim
    flat, sign, row_a, col_b = [], [], [], []
    for gamma in itertools.combinations(range(n_orb), m - r):
        gmask = sum(1 << o for o in gamma)
        free = [o for o in range(n_orb) if not gmask >> o & 1]
        mu, act, s = [], [], []
        for alpha in itertools.combinations(free, r):
            amask = sum(1 << o for o in alpha)
            mu.append(index_m[amask | gmask])
            act.append(index_r[amask])
            # one transposition per (active, spectator) pair in crossing order
            s.append((-1) ** sum(g < a for a in alpha for g in gamma))
        mu, act, s = np.array(mu), np.array(act), np.array(s)
        flat.append((mu[:, None] * d + mu[None, :]).ravel())
        sign.append(np.outer(s, s).ravel())
        row_a.append(np.repeat(act, len(act)))
        col_b.append(np.tile(act, len(act)))
    flat, sign, row_a, col_b = map(np.concatenate, (flat, sign, row_a, col_b))
    out = np.bincount(flat, weights=sign * coeffs[row_a, col_b], minlength=d * d)
    out = out.reshape(d, d)
    return 0.5 * (out + out.T)


# (11,5,4) and (10,5,5) have 210 and 252 active sets per spectator set, so
# an embedding step holds a few dozen table rows and the rows of one mu
# (five at (11,5,4)) can straddle two steps
@pytest.mark.parametrize("n_orb, m, r", [(8, 4, 1), (8, 4, 2), (8, 4, 3), (8, 4, 4), (6, 3, 3),
                                         (11, 5, 4), (10, 5, 5)])
def test_upper_triangle_plan_matches_full_square_scatter(n_orb, m, r):
    basis_m, basis_r = build_basis(n_orb, m), build_basis(n_orb, r)
    g = np.random.default_rng(10 * n_orb + r).standard_normal((basis_r.dim, basis_r.dim))
    got = embed_k_body(g, basis_m, basis_r)
    want = full_square_scatter(g, n_orb, m, r)
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a symmetric input is summed in the same order, so the bits agree
    v = sample_goe(basis_r.dim, 5, r)
    np.testing.assert_array_equal(embed_k_body(v, basis_m, basis_r),
                                  full_square_scatter(v, n_orb, m, r))


def test_embedding_tables_take_under_half_a_megabyte():
    # 66 spectator pairs, each linking C(10, 4) = 210 determinants
    plan = embedding_plan(12, 6, 4)
    assert plan.mu.shape == plan.act.shape == (66, 210)
    assert sum(getattr(plan, f.name).nbytes for f in fields(plan)) <= 500_000


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_table_build_stays_under_a_megabyte():
    build_basis(12, 6), build_basis(12, 4)
    embedding_plan.cache_clear()
    _, peak = _traced_peak(lambda: embedding_plan(12, 6, 4))
    assert peak <= 1_000_000


def test_embedding_needs_one_output_matrix_and_the_signed_coefficients():
    basis_m, basis_r = build_basis(12, 6), build_basis(12, 4)
    g = sample_goe(basis_r.dim, 3, 4)
    embed_k_body(g, basis_m, basis_r)  # the plan is cached before tracing
    out, peak = _traced_peak(lambda: embed_k_body(g, basis_m, basis_r))
    # tau (w + w^T) / 2 tau is 1.96 MB at rank 4; a step's three buffers add 0.25 MB
    assert peak <= out.nbytes + 2.5e6


def test_basis_states_ascending_and_indexed():
    basis = build_basis(6, 3)
    states = basis.states.astype(np.int64)
    assert basis.dim == 20
    assert np.all(np.diff(states) > 0)
    assert all(int(states[i]).bit_count() == 3 for i in range(basis.dim))
    np.testing.assert_array_equal(np.searchsorted(basis.states, basis.states), np.arange(basis.dim))


def test_basis_cap_enforced(monkeypatch):
    monkeypatch.setattr(fock, "BASIS_DIM_CAP", 1000)
    with pytest.raises(ValueError, match="cap 1000"):
        build_basis(30, 15)
    with pytest.raises(ValueError):
        build_basis(70, 2)


def test_goe_seeding_reproducible_and_streams_independent():
    a = sample_goe(50, 123, 7, stream=0)
    b = sample_goe(50, 123, 7, stream=0)
    np.testing.assert_array_equal(a, b)
    c = sample_goe(50, 123, 7, stream=1)
    d = sample_goe(50, 123, 8, stream=0)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    np.testing.assert_array_equal(a, a.T)


def test_goe_variance_profile():
    # aggregate over members: off-diagonal variance 1, diagonal variance 2
    offs, diags = [], []
    for member in range(40):
        g = sample_goe(60, 99, member)
        offs.append(g[np.triu_indices(60, k=1)])
        diags.append(np.diag(g))
    off = np.concatenate(offs)
    diag = np.concatenate(diags)
    assert off.var() == pytest.approx(1.0, rel=0.02)
    assert diag.var() == pytest.approx(2.0, rel=0.1)
    assert abs(off.mean()) < 0.01


def test_embedded_second_moment_matches_exact_ensemble_average():
    # <tr V^2>/d over members against the closed-form ensemble value
    basis_m = build_basis(10, 5)
    basis_2 = build_basis(10, 2)
    members = 60
    total = 0.0
    for member in range(members):
        v = embed_k_body(sample_goe(basis_2.dim, 4321, member), basis_m, basis_2)
        total += np.trace(v @ v) / basis_m.dim
    got = total / members
    want = trace_variance(10, 5, 2)
    assert got == pytest.approx(want, rel=0.05)


def test_centered_width_matches_centered_trace_variance():
    basis_m = build_basis(10, 5)
    basis_2 = build_basis(10, 2)
    members = 60
    total = 0.0
    for member in range(members):
        v = embed_k_body(sample_goe(basis_2.dim, 999, member), basis_m, basis_2)
        e = np.linalg.eigvalsh(v)
        total += e.var()
    got = total / members
    want = centered_trace_variance(10, 5, 2)
    assert got == pytest.approx(want, rel=0.05)


def test_embedding_rejects_mismatched_inputs():
    basis_m = build_basis(8, 4)
    basis_2 = build_basis(8, 2)
    with pytest.raises(ValueError):
        embed_k_body(np.zeros((3, 3)), basis_m, basis_2)
    with pytest.raises(ValueError):
        embed_k_body(np.zeros((28, 28)), basis_m, build_basis(9, 2))
    with pytest.raises(ValueError):
        embed_k_body(np.zeros((math.comb(8, 5),) * 2), build_basis(8, 4), build_basis(8, 5))


def test_bases_and_plans_are_shared_and_read_only():
    basis = build_basis(6, 3)
    assert build_basis(6, 3) is basis
    assert embedding_plan(6, 3, 2) is embedding_plan(6, 3, 2)
    with pytest.raises(ValueError):
        basis.states[0] = 0
    for table in fields(embedding_plan(6, 3, 2)):
        with pytest.raises(ValueError):
            getattr(embedding_plan(6, 3, 2), table.name).flat[0] = 0


def test_occupations_match_bitmasks():
    basis = build_basis(7, 3)
    occ = basis.occupations
    assert occ.shape == (basis.dim, 7)
    assert np.all(occ.sum(axis=1) == 3.0)
    weights = 2 ** np.arange(7)
    np.testing.assert_array_equal(occ @ weights, basis.states.astype(float))


# ---------------------------------------------------------------------------
# compound matrices


def _compound(o, r):
    """compound_matrix with a work area of the length it asks for."""
    return compound_matrix(o, r, np.empty(compound_work(len(o), r)))


def _orthogonal(n: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


def _subsets(n_orb: int, r: int) -> list[list[int]]:
    return [[o for o in range(n_orb) if int(mk) >> o & 1] for mk in build_basis(n_orb, r).states]


@pytest.mark.parametrize("n_orb, r", [(6, 2), (6, 3), (7, 4), (8, 2), (8, 5)])
def test_compound_matches_subdeterminants(n_orb, r):
    a = np.random.default_rng(n_orb * 10 + r).standard_normal((n_orb, n_orb))
    subs = _subsets(n_orb, r)
    want = np.array([[np.linalg.det(a[np.ix_(i, j)]) for j in subs] for i in subs])
    np.testing.assert_allclose(_compound(a, r), want, atol=1e-12)


@pytest.mark.parametrize("n_orb", [6, 7, 8])
def test_first_compound_is_the_matrix(n_orb):
    o = _orthogonal(n_orb, n_orb)
    np.testing.assert_array_equal(_compound(o, 1), o)


@pytest.mark.parametrize("n_orb", [6, 7, 8])
def test_compound_of_orthogonal_is_orthogonal(n_orb):
    o = _orthogonal(n_orb, 100 + n_orb)
    for r in range(1, n_orb + 1):
        c = _compound(o, r)
        assert c.shape == (math.comb(n_orb, r),) * 2
        assert np.max(np.abs(c.T @ c - np.eye(len(c)))) <= 1e-13


@pytest.mark.parametrize("n_orb", [6, 7, 8])
def test_compound_is_multiplicative(n_orb):
    rng = np.random.default_rng(200 + n_orb)
    a = rng.standard_normal((n_orb, n_orb))
    b = rng.standard_normal((n_orb, n_orb))
    for r in range(1, n_orb + 1):
        want = _compound(a @ b, r)
        got = _compound(a, r) @ _compound(b, r)
        np.testing.assert_allclose(got, want, atol=1e-11 * np.max(np.abs(want)))


@pytest.mark.parametrize("n_orb, m, k", [(6, 3, 1), (6, 3, 2), (6, 3, 3), (8, 4, 2)])
def test_compound_rotation_commutes_with_embedding(n_orb, m, k):
    # rotating the rank-k coefficients by C_k(O) is rotating the embedded
    # operator by C_m(O): the phase conventions of the two agree
    basis_m, basis_k = build_basis(n_orb, m), build_basis(n_orb, k)
    o = _orthogonal(n_orb, 10 * n_orb + k)
    v = sample_goe(basis_k.dim, 31, k)
    ck, cm = _compound(o, k), _compound(o, m)
    got = embed_k_body(ck.T @ v @ ck, basis_m, basis_k)
    want = cm.T @ embed_k_body(v, basis_m, basis_k) @ cm
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("n_orb, m, r", [(8, 4, 2), (9, 7, 7)])
def test_caller_buffers_change_no_bit(n_orb, m, r):
    # a member builds these over the stale values of its arena
    basis_m, basis_r = build_basis(n_orb, m), build_basis(n_orb, r)
    dr, o = basis_r.dim, _orthogonal(n_orb, 5)
    work = np.full(compound_work(n_orb, r) + dr * dr + embed_work(dr), np.nan)
    c = compound_matrix(o, r, work)
    np.testing.assert_array_equal(c, _compound(o, r))
    # Fortran order: C_k^T g C_k is computed for it, and its bits depend on it
    assert c.flags.f_contiguous
    g = sample_goe(dr, 7, 2, 1, work[:dr * dr].reshape(dr, dr))
    np.testing.assert_array_equal(g, sample_goe(dr, 7, 2, 1))
    out = np.full((basis_m.dim, basis_m.dim), np.nan)
    embed_k_body(g, basis_m, basis_r, out, work[dr * dr:])
    np.testing.assert_array_equal(out, embed_k_body(g, basis_m, basis_r))


@pytest.mark.parametrize("n_orb, m, r", [(8, 4, 3), (8, 6, 4)], ids=["C(8,3) < d", "C(8,4) > d"])
def test_coefficients_may_lie_in_the_output_memory(n_orb, m, r):
    # a member draws each rank-r matrix in the memory its embedding is written to
    basis_m, basis_r = build_basis(n_orb, m), build_basis(n_orb, r)
    d, dr = basis_m.dim, basis_r.dim
    want = embed_k_body(sample_goe(dr, 3, 0, 1), basis_m, basis_r)
    mem = np.full(max(d, dr) ** 2, np.nan)
    g = sample_goe(dr, 3, 0, 1, mem[:dr * dr].reshape(dr, dr))
    out = mem[:d * d].reshape(d, d)
    embed_k_body(g, basis_m, basis_r, out, np.full(embed_work(dr), np.nan))
    np.testing.assert_array_equal(out, want)


def test_compound_plans_are_shared_and_read_only():
    assert compound_plan(7, 3) is compound_plan(7, 3)
    plan = compound_plan(7, 3)
    assert plan.orbs.shape == plan.minors.shape == (35, 3)
    with pytest.raises(ValueError):
        plan.minors[0, 0] = 0


def test_compound_rejects_bad_input():
    with pytest.raises(ValueError):
        _compound(np.zeros((3, 4)), 2)
    with pytest.raises(ValueError):
        _compound(np.eye(4), 5)
    with pytest.raises(ValueError):
        _compound(np.eye(4), 0)
    with pytest.raises(ValueError):
        compound_plan(4, 1)
