"""Tests for the one-eigensolve member: the H0-eigenbasis frame against a dense oracle.

The oracle embeds H0 and V in the determinant basis, diagonalizes H0 and
H = H0 + lam V separately, and forms W = (U0^T U1)^2, the two-eigensolve
definition of the strength matrix.  member_spectra must reproduce its
eigenvalues and overlaps with one eigensolve of H per member.
"""

import numpy as np
import pytest
from test_spectral import dense_traces

from qstrength import fock, spectral
from qstrength.ensemble import RunConfig, member_spectra, run_member


def dense_oracle(cfg: RunConfig, member: int):
    """(H0, H, W) in the determinant basis, W from two dense eigensolves."""
    basis_m = fock.build_basis(cfg.N, cfg.m)
    basis_t = fock.build_basis(cfg.N, cfg.t)
    basis_k = fock.build_basis(cfg.N, cfg.k)
    h0 = fock.embed_k_body(fock.sample_goe(basis_t.dim, cfg.seed, member, 0), basis_m, basis_t)
    v = fock.embed_k_body(fock.sample_goe(basis_k.dim, cfg.seed, member, 1), basis_m, basis_k)
    h = h0 + cfg.system().lam * v
    _, u0 = np.linalg.eigh(h0)
    _, u1 = np.linalg.eigh(h)
    return h0, h, (u0.T @ u1) ** 2


@pytest.mark.parametrize("system", [(8, 4, 1, 2), (10, 5, 1, 3), (8, 4, 2, 3)])
def test_member_matches_dense_two_eigensolve_oracle(system):
    N, m, t, k = system
    cfg = RunConfig(N=N, m=m, t=t, k=k, xi_sq_target=0.5, seed=41)
    for member in range(3):
        spec = member_spectra(cfg, member)
        h0, h, wsq = dense_oracle(cfg, member)
        order = np.argsort(spec.e0)
        np.testing.assert_allclose(spec.e0[order], np.linalg.eigvalsh(h0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.e, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.overlap_sq[order], wsq, rtol=0, atol=1e-10)


@pytest.mark.parametrize("system", [(8, 4, 1, 2), (8, 4, 2, 3)])
def test_moments_are_basis_independent(system):
    N, m, t, k = system
    cfg = RunConfig(N=N, m=m, t=t, k=k, xi_sq_target=0.5, seed=43)
    spec = member_spectra(cfg, 0)
    h0, h, _ = dense_oracle(cfg, 0)
    frame = spectral.BivariateMomentAccumulator()
    frame.add_member(spec.e0, spec.e, spec.overlap_sq)
    dense = dense_traces(h0, h)
    # T30 vanishes for t = 1 at half filling, so the scale sets the slack
    scale = np.max(np.abs(dense))
    np.testing.assert_allclose(frame.trace_sums, dense, rtol=1e-10, atol=1e-12 * scale)


@pytest.mark.parametrize("system", [(8, 4, 1, 2), (8, 4, 2, 3)])
def test_uncoupled_member_overlaps_are_exactly_zero_or_one(system):
    N, m, t, k = system
    cfg = RunConfig(N=N, m=m, t=t, k=k, lam=0.0, seed=5)
    for member in range(3):
        wsq = member_spectra(cfg, member).overlap_sq
        assert np.all((wsq == 0.0) | (wsq == 1.0))
        assert np.all(wsq.sum(axis=0) == 1.0) and np.all(wsq.sum(axis=1) == 1.0)
        (_, chaos), err = run_member(cfg, member)
        seen = chaos.count > 0
        assert err is None
        assert np.all(chaos.npc()[seen] == 1.0) and np.all(chaos.s_info()[seen] == 0.0)


@pytest.mark.parametrize("system, eigensolves, embeddings", [((8, 4, 1, 2), 1, 1), ((8, 4, 2, 3), 2, 2)])
def test_one_many_body_eigensolve_for_one_body_mean_field(monkeypatch, system, eigensolves, embeddings):
    calls = {"diagonalize": 0, "embed": 0}
    diagonalize, embed = spectral.diagonalize, fock.embed_k_body

    def counted_diagonalize(mat):
        calls["diagonalize"] += 1
        return diagonalize(mat)

    def counted_embed(*args):
        calls["embed"] += 1
        return embed(*args)

    monkeypatch.setattr(spectral, "diagonalize", counted_diagonalize)
    monkeypatch.setattr(fock, "embed_k_body", counted_embed)
    N, m, t, k = system
    (strength, _), err = run_member(RunConfig(N=N, m=m, t=t, k=k, xi_sq_target=0.5, seed=3), 0)
    assert err is None and strength.member_count == 1
    assert calls == {"diagonalize": eigensolves, "embed": embeddings}
