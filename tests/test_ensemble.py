"""Tests for the one-eigensolve member: the H0-eigenbasis frame against a dense oracle.

The oracle embeds H0 and V in the determinant basis, diagonalizes H0 and
H = H0 + lam V separately, and forms W = (U0^T U1)^2, the two-eigensolve
definition of the strength matrix.  member_spectra must reproduce its
eigenvalues and overlaps with one eigensolve of H per member.
"""

import ctypes
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from test_cli import subprocess_env
from test_spectral import dense_traces

from qstrength import ensemble, fock, spectral
from qstrength.ensemble import RunConfig, member_spectra, run_ensemble, run_member


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


# (8,6,1,4) and (8,6,2,4): the rank-k draw, C(8,4) = 70 square, is larger than H (d = 28)
@pytest.mark.parametrize("system", [(8, 4, 1, 2), (10, 5, 1, 3), (8, 4, 2, 3), (8, 6, 1, 4),
                                    (8, 6, 2, 4)])
def test_member_matches_dense_two_eigensolve_oracle(system):
    N, m, t, k = system
    cfg = RunConfig(N=N, m=m, t=t, k=k, xi_sq=0.5, seed=41)
    arena = ensemble._member_arena(cfg)
    for member in range(3):
        spec = member_spectra(cfg, member, arena)
        h0, h, wsq = dense_oracle(cfg, member)
        order = np.argsort(spec.e0)
        np.testing.assert_allclose(spec.e0[order], np.linalg.eigvalsh(h0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.e, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.overlap_sq[order], wsq, rtol=0, atol=1e-10)


@pytest.mark.parametrize("system", [(8, 4, 1, 2), (8, 4, 2, 3)])
def test_moments_are_basis_independent(system):
    N, m, t, k = system
    cfg = RunConfig(N=N, m=m, t=t, k=k, xi_sq=0.5, seed=43)
    spec = member_spectra(cfg, 0, ensemble._member_arena(cfg))
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
    arena = ensemble._member_arena(cfg)
    for member in range(3):
        wsq = member_spectra(cfg, member, arena).overlap_sq
        assert np.all((wsq == 0.0) | (wsq == 1.0))
        assert np.all(wsq.sum(axis=0) == 1.0) and np.all(wsq.sum(axis=1) == 1.0)
        (_, chaos), err = run_member(cfg, member, arena)
        seen = chaos.count > 0
        assert err is None
        assert np.all(chaos.npc()[seen] == 1.0) and np.all(chaos.s_info()[seen] == 0.0)


@pytest.mark.parametrize("system, eigensolves, embeddings", [((8, 4, 1, 2), 1, 1), ((8, 4, 2, 3), 2, 2)])
def test_one_many_body_eigensolve_for_one_body_mean_field(monkeypatch, system, eigensolves, embeddings):
    calls = {"diagonalize": 0, "embed": 0}
    diagonalize, embed = spectral.diagonalize, fock.embed_k_body

    def counted_diagonalize(*args):
        calls["diagonalize"] += 1
        return diagonalize(*args)

    def counted_embed(*args):
        calls["embed"] += 1
        return embed(*args)

    monkeypatch.setattr(spectral, "diagonalize", counted_diagonalize)
    monkeypatch.setattr(fock, "embed_k_body", counted_embed)
    N, m, t, k = system
    cfg = RunConfig(N=N, m=m, t=t, k=k, xi_sq=0.5, seed=3)
    (strength, _), err = run_member(cfg, 0, ensemble._member_arena(cfg))
    assert err is None and strength.member_count == 1
    assert calls == {"diagonalize": eigensolves, "embed": embeddings}


# Runs an ensemble on the given worker count whose members report the BLAS
# thread count (numpy's bundled OpenBLAS) they run under as their message;
# prints the caller's count before and after, then the members' counts.  Exits
# 77 when that OpenBLAS has no thread getter or no setter.
_BLAS_SCRIPT = """
import sys
from qstrength import ensemble, spectral
getter = spectral.openblas_symbol("scipy_openblas_get_num_threads64_")
if getter is None or spectral.openblas_symbol("scipy_openblas_set_num_threads64_") is None:
    raise SystemExit(77)
run_member = ensemble.run_member
def probe(cfg, member, arena):
    return run_member(cfg, member, arena)[0], str(getter())
ensemble.run_member = probe
before = getter()
cfg = ensemble.RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=4,
                         workers=int(sys.argv[1]))
workers = [message for _, message in ensemble.run_ensemble(cfg).failures]
print(before, getter(), *workers)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_every_run_runs_members_on_one_blas_thread(workers):
    proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT, str(workers)], capture_output=True,
                          text=True, env=subprocess_env() | {"OPENBLAS_NUM_THREADS": "2"})
    if proc.returncode == 77:
        pytest.skip("numpy's OpenBLAS has no scipy_openblas thread getter or setter")
    assert proc.returncode == 0, proc.stderr
    before, after, *workers = map(int, proc.stdout.split())
    assert workers == [1, 1, 1, 1]
    assert after == before  # the calling process keeps its threads
    assert "no OpenBLAS thread setter" not in proc.stderr


def test_overlapping_runs_pin_once_and_restore_the_callers_count():
    # run A enters, run B enters, A exits: B still runs on one thread, and
    # after B exits the caller's count is back
    setter = spectral.openblas_symbol("scipy_openblas_set_num_threads64_")
    getter = spectral.openblas_symbol("scipy_openblas_get_num_threads64_")
    if setter is None or getter is None:
        pytest.skip("numpy's OpenBLAS has no scipy_openblas thread getter or setter")
    setter.argtypes = [ctypes.c_int]
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def run_a():
        with spectral.one_blas_thread():
            a_in.set()
            b_in.wait(30)
        a_out.set()

    threads = getter()
    try:
        setter(2)
        a = threading.Thread(target=run_a)
        a.start()
        assert a_in.wait(30)
        with spectral.one_blas_thread():
            b_in.set()
            assert a_out.wait(30)
            inside = getter()
        a.join(30)
        assert not a.is_alive()
        assert (inside, getter()) == (1, 2)
    finally:
        setter(threads)


def test_pool_stops_between_members_when_a_block_raises(monkeypatch):
    # block 0 (members 0-3) raises at once; block 1 (members 4-7) takes 50 ms
    # a member, so it sees the stop after its first member or, at worst, second
    getter = spectral.openblas_symbol("scipy_openblas_get_num_threads64_")
    before = None if getter is None else getter()
    ran = []

    def fake(cfg, member, arena):
        if member == 0:
            raise RuntimeError("member 0")
        time.sleep(0.05)
        ran.append(member)
        return run_member(cfg, member, arena)

    monkeypatch.setattr(ensemble, "run_member", fake)
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=8, workers=2)
    with pytest.raises(RuntimeError, match="member 0"):
        run_ensemble(cfg)
    assert len([member for member in ran if member >= 4]) <= 2, ran
    if getter is not None:
        assert getter() == before  # the caller's BLAS threads come back


def test_caller_stops_between_members_when_another_block_raises(monkeypatch):
    # block 1 (members 4-7) raises at once; the caller's block 0 (members 0-3)
    # takes 50 ms a member, so it sees the stop after its first member or, at
    # worst, second
    getter = spectral.openblas_symbol("scipy_openblas_get_num_threads64_")
    before = None if getter is None else getter()
    ran = []

    def fake(cfg, member, arena):
        if member == 4:
            raise RuntimeError("member 4")
        time.sleep(0.05)
        ran.append(member)
        return run_member(cfg, member, arena)

    monkeypatch.setattr(ensemble, "run_member", fake)
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=8, workers=2)
    with pytest.raises(RuntimeError, match="member 4"):
        run_ensemble(cfg)
    assert len([member for member in ran if member < 4]) <= 2, ran
    if getter is not None:
        assert getter() == before  # the caller's BLAS threads come back


@pytest.mark.parametrize("workers", [1, 2])
def test_a_value_error_in_a_member_stops_the_run(monkeypatch, workers):
    # a ValueError is a bug, not a failed member: no member is dropped from the sums
    build = ensemble._member_hamiltonian

    def fake(cfg, member, arena):
        if member == 5:
            raise ValueError("forced bug in member 5")
        return build(cfg, member, arena)

    monkeypatch.setattr(ensemble, "_member_hamiltonian", fake)
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=8, workers=workers)
    with pytest.raises(ValueError, match="forced bug in member 5"):
        run_ensemble(cfg)


def test_members_failing_the_overlap_check_are_failures(monkeypatch):
    solve = spectral.diagonalize

    def off_by_a_tenth(mat, work):
        w, u = solve(mat, work)
        u *= 1.1
        return w, u

    monkeypatch.setattr(ensemble.spectral, "diagonalize", off_by_a_tenth)
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=4, workers=2)
    result = run_ensemble(cfg)
    assert [member for member, _ in result.failures] == [0, 1, 2, 3]
    for _, message in result.failures:
        assert message.startswith("overlap matrix not doubly stochastic: deviation ")
    assert result.strength.member_count == 0 and result.chaos.member_count == 0


def assert_same_sums(ours, theirs):
    """Every field of the strength, chaos and moment sums is bit-identical."""
    for a, b in zip((ours.strength, ours.chaos, ours.moments),
                    (theirs.strength, theirs.chaos, theirs.moments)):
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True), f.name


def test_sums_do_not_depend_on_the_callers_blas_threads():
    # d = 924 is large enough for OpenBLAS's threaded kernels to change the
    # member steps below the 6th digit; 8 threads oversubscribe a small box,
    # which the setter allows where the environment variable is capped
    setter = spectral.openblas_symbol("scipy_openblas_set_num_threads64_")
    getter = spectral.openblas_symbol("scipy_openblas_get_num_threads64_")
    if setter is None or getter is None:
        pytest.skip("numpy's OpenBLAS has no scipy_openblas thread getter or setter")
    setter.argtypes = [ctypes.c_int]
    cfg = RunConfig(N=12, m=6, t=1, k=2, xi_sq=0.5, members=2, seed=9, moments=True)
    threads = getter()
    try:
        setter(1)
        reference = run_ensemble(replace(cfg, workers=1))
        assert not reference.failures
        for count in (1, 2, 8):
            for workers in (1, 2):
                setter(count)
                ours = run_ensemble(replace(cfg, workers=workers))
                assert getter() == count, (count, workers)
                assert_same_sums(ours, reference)
    finally:
        setter(threads)


def test_threads_building_the_tables_at_once_give_the_one_worker_sums():
    # more threads than cores, switching every microsecond, each building the
    # process's cached bases and tables from cold: one lost or torn table
    # would change the sums
    cfg = RunConfig(N=8, m=4, t=1, k=3, xi_sq=0.5, members=8, moments=True,
                    workers=1)
    serial = run_ensemble(cfg)
    interval = sys.getswitchinterval()
    for cached in (fock._basis, fock.embedding_plan, fock.compound_plan):
        cached.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_ensemble(replace(cfg, workers=4))
    finally:
        sys.setswitchinterval(interval)
    assert not serial.failures and not pooled.failures
    assert_same_sums(pooled, serial)


# Runs a 2-worker ensemble and prints the peak RSS of its finished children
# (0 when it started none) and which process or executor modules it imported.
_NO_CHILD_SCRIPT = """
import resource, sys
from qstrength import ensemble
cfg = ensemble.RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=4, workers=2)
assert not ensemble.run_ensemble(cfg).failures
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
      *sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_pool_starts_no_process():
    proc = subprocess.run([sys.executable, "-c", _NO_CHILD_SCRIPT], capture_output=True,
                          text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize("gone", ["scipy_openblas_set_num_threads64_",
                                  "scipy_openblas_get_num_threads64_"], ids=["setter", "getter"])
def test_pool_without_a_blas_setter_says_so(monkeypatch, capsys, gone):
    lookup = spectral.openblas_symbol  # the LAPACK steps still resolve: only the pinning is gone
    monkeypatch.setattr(spectral, "openblas_symbol",
                        lambda name: None if name == gone else lookup(name))
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=2, workers=2)
    result = run_ensemble(cfg)
    assert not result.failures and result.strength.member_count == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no OpenBLAS thread setter" in err


@pytest.mark.skipif(spectral.openblas_symbol("scipy_dsyevd_64_") is None,
                    reason="numpy's OpenBLAS has no scipy_dsyevd_64_")
@pytest.mark.parametrize("system", [(10, 5, 1, 2), (12, 6, 1, 4), (10, 5, 1, 4), (10, 5, 2, 3)],
                         ids=["10-5-1-2", "12-6-1-4", "10-5-1-4", "10-5-2-3"])
def test_member_working_set_is_three_dense_matrices(system):
    # The cold arena is allocated in the trace with its first member: H's
    # memory, which takes the draw embedded into it, then H, the eigenvectors
    # and W, and a flat work area that holds LAPACK's 2 d^2 workspace during
    # the solve, the compound matrix, rotation and embedding buffers before
    # it, and the guards' and accumulators' scratch after it; tracemalloc
    # sees every numpy allocation.  The O(d) slack covers LAPACK's integer
    # workspace, the eigenvalues, O(d) temporaries and a row block of the
    # in-place triangle copy.  Measured cold peaks: 3.20, 3.05, 3.20 and
    # 3.16 d^2.  A warm member allocates nothing d x d: measured 0.03 d^2 at
    # d = 924 and 0.13-0.15 d^2 at d = 252, all of it O(d).
    N, m, t, k = system
    cfg = RunConfig(N=N, m=m, t=t, k=k, xi_sq=0.5, members=2, moments=True)
    d = fock.build_basis(cfg.N, cfg.m).dim
    run_member(cfg, 0, ensemble._member_arena(cfg))  # builds the cached plans outside the trace
    peaks, arena = [], None
    for member in (1, 2):  # on a cold arena, then on the one member 1 left
        tracemalloc.start()
        try:
            if arena is None:
                arena = ensemble._member_arena(cfg)
            _, err = run_member(cfg, member, arena)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert err is None
    cold, warm = (peak / (8 * d * d) for peak in peaks)
    assert peaks[0] <= 8 * (3 * d * d + 64 * d), f"cold member {cold:.2f} d^2 doubles"
    assert warm <= 0.25, f"warm member {warm:.3f} d^2 doubles"


@pytest.mark.parametrize("workers", [1, 3])
def test_one_block_runs_on_one_arena(monkeypatch, workers):
    calls, arena = [], ensemble._member_arena
    monkeypatch.setattr(ensemble, "_member_arena", lambda cfg: calls.append(cfg) or arena(cfg))
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=4, workers=workers)
    assert not run_ensemble(cfg).failures
    assert calls == [cfg] * min(workers, cfg.members)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_ensemble_leaves_no_arena_in_the_caller(workers):
    # a member arena is 3 d^2 doubles; what the result holds is O(d) and the
    # bins, and the pool's threads allocate their arenas in the caller too
    cfg = RunConfig(N=10, m=5, t=1, k=2, xi_sq=0.5, members=3, workers=workers)
    d = fock.build_basis(cfg.N, cfg.m).dim
    assert not run_ensemble(cfg).failures  # builds the cached bases and tables
    tracemalloc.start()
    try:
        result = run_ensemble(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not result.failures
    assert held < 8 * 0.5 * d * d, f"{held / (8 * d * d):.3f} d^2 doubles left in the caller"


@pytest.mark.parametrize("workers", [1, 2])
def test_sums_do_not_depend_on_the_trim_before_either_path(monkeypatch, workers):
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=4, workers=workers,
                    moments=True)
    calls, trim = [], ensemble._malloc_trim()

    def spy(pad):
        calls.append(pad)
        return 0 if trim is None else trim(pad)

    monkeypatch.setattr(ensemble, "_malloc_trim", lambda: spy)
    trimmed = run_ensemble(cfg)
    monkeypatch.setattr(ensemble, "_malloc_trim", lambda: None)
    untrimmed = run_ensemble(cfg)
    assert calls == [0] and not trimmed.failures and not untrimmed.failures
    assert_same_sums(trimmed, untrimmed)


@pytest.mark.parametrize("bad", [{"members": 1.5}, {"seed": 1.5}, {"workers": 1.5},
                                 {"members": True}, {"seed": False}, {"workers": True},
                                 {"members": np.bool_(True)}, {"grid": (-1.0, 1.0, 2.5)},
                                 {"grid": (-1.0, 1.0, True)}],
                         ids=["members-float", "seed-float", "workers-float", "members-bool",
                              "seed-bool", "workers-bool", "members-numpy-bool", "bins-float",
                              "bins-bool"])
def test_run_config_rejects_counts_that_are_not_integers(bad):
    # each was accepted at construction and then died in run_ensemble (or ran one member)
    with pytest.raises(ValueError, match="^members, seed, workers and the grid's bins must be"):
        RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, **bad)


def test_run_config_takes_numpy_integer_counts():
    cfg = RunConfig(N=8, m=4, t=1, k=2, xi_sq=0.5, members=np.int64(2), seed=np.int32(3),
                    workers=np.int64(1), grid=(-3.0, 3.0, np.int64(8)))
    assert run_ensemble(cfg).strength.member_count == 2
