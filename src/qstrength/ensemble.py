"""Monte-Carlo ensemble runner for the two-scale random Hamiltonian.

Each member draws independent GOE matrices for the rank-t mean field (stream 0)
and the rank-k interaction (stream 1) and works in the eigenbasis of the
embedded mean field H0, where the unperturbed states |kappa> are unit vectors:

* t = 1: H0 is a one-body operator, so its eigenstates are determinants in the
  orbitals that diagonalize the N x N defining matrix h = O diag(eps) O^T, with
  energies E0 = occupations @ eps.  The interaction coefficients rotate by the
  k-th compound matrix, v' = C_k(O)^T v C_k(O), and are embedded once.
* t >= 2: the embedded H0 is diagonalized, H0 = U0 diag(E0) U0^T, and the
  embedded interaction is rotated, V' = U0^T V U0.

Either way H = diag(E0) + lam * V' is diagonalized once, and its eigenvectors
u give the strength W = u * u directly.  Members are completely determined by
(master seed, member index), so any subset can be recomputed anywhere; worker
threads only change where a member is computed, never its result.  Every run
only enters spectral.one_blas_thread (spectral owns numpy's OpenBLAS) around
its blocks, and overlapping runs pin once, so the member threads do not
oversubscribe the cores and no member depends on the caller's BLAS thread
count.  A member's LAPACK steps (ctypes calls), BLAS matmuls and large ufuncs
and takes run without the GIL; the embedding's np.add.at scatter does not:
on 2 vCPUs at one BLAS thread, two threads each embedding six rank-4 (12,6)
draws took 1.9-3.2x the wall time of one thread embedding six, where one at a
time reads 2.0 and a 600 x 600 matmul 1.0.

Each member yields one tuple of partial sums: a StrengthReport (overlap rows
selected by windows on the standardized H0 spectrum), ChaosMeasures (NPC and
information entropy binned on the standardized H spectrum), and with
with_moments a BivariateMomentAccumulator of centered trace moments through
fourth order, which needs only E0, E and W, so H is not kept: its
eigenvectors overwrite it, and W overwrites them.  run_ensemble merges the
tuples position by position in member order, by the spectral module's sums
contract (a failed member adds zeros), which makes the final numbers
byte-identical for any worker count.  A member fails only by a LinAlgError
(spectral.DiagonalizationError among them); any other exception is a bug and
stops the run.

The loop that runs members owns the member arena: H's memory, which holds the
draw embedded into it, then H, its eigenvectors and W, and one flat work area,
which holds the eigensolve's workspace, before the solve every other large
array of a member, and after it ChaosMeasures' W^2 and W ln W; the function
that allocates them also places every array in them.  After the caller's free
heap goes back to the system (glibc malloc_trim), the caller runs the first
contiguous block of members and a thread of the calling process each other
block, each block on one arena of its own, so after the first a member
allocates nothing d x d.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bca, fock, spectral

__all__ = [
    "RunConfig",
    "EnsembleResult",
    "MemberSpectra",
    "member_spectra",
    "run_ensemble",
    "run_member",
    "run_checks",
]


def _usable_cores() -> int:
    """The cores this process may run on, or the CPU count where that is not known."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation needs; exactly one of lam / xi_sq_target is set."""

    N: int
    m: int
    t: int
    k: int
    lam: float | None = None
    xi_sq_target: float | None = None
    members: int = 100
    seed: int = 2024
    window_centers: tuple[float, ...] = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    window_width: float = 0.1
    grid_lo: float = -3.2
    grid_hi: float = 3.2
    grid_bins: int = 64
    workers: int = _usable_cores()
    with_moments: bool = False

    def __post_init__(self) -> None:
        if self.members < 1:
            raise ValueError("members must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.window_centers or not np.all(np.isfinite(self.window_centers)):
            raise ValueError("window_centers must be a non-empty list of finite numbers")
        if not 0 < self.window_width < np.inf:
            raise ValueError("window_width must be positive and finite")
        if not -np.inf < self.grid_lo < self.grid_hi < np.inf:
            raise ValueError("grid bounds must be finite, with grid_lo below grid_hi")
        if self.grid_bins < 1:
            raise ValueError("grid_bins must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.system()  # exactly one coupling, then N, m, t, k, then the solved coupling
        if fock.build_basis(self.N, self.m).dim < 2:  # also checks the orbital and size caps
            raise ValueError("need at least 2 basis states to standardize a spectrum")

    def system(self) -> bca.SystemParams:
        return bca.resolve_system(self.N, self.m, self.t, self.k, self.lam, self.xi_sq_target)

    def windows(self) -> np.ndarray:
        c = np.asarray(self.window_centers, dtype=float)
        half = 0.5 * self.window_width
        return np.column_stack([c - half, c + half])

    def edges(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.grid_bins + 1)


@dataclass(frozen=True)
class EnsembleResult:
    config: RunConfig
    system: bca.SystemParams
    strength: spectral.StrengthReport
    chaos: spectral.ChaosMeasures
    moments: spectral.BivariateMomentAccumulator | None
    failures: tuple[tuple[int, str], ...]


class MemberSpectra(NamedTuple):
    """One member in the H0 eigenbasis; rows of overlap_sq follow e0's order."""

    e0: np.ndarray  # H0 eigenvalues, one per unperturbed state kappa
    e: np.ndarray  # ascending H eigenvalues
    overlap_sq: np.ndarray  # W[kappa, E] = |<kappa|E>|^2


class _Arena(NamedTuple):
    h: np.ndarray  # flat: the drawn matrix embedded into H, then H, its eigenvectors u and W
    work: np.ndarray  # flat: every other large array of a member
    rot: int  # where C^T g1 (t = 1) or U0^T V (t >= 2) starts in work
    embed: int  # where the rank-k embedding's buffers start in work


def _member_arena(cfg: RunConfig) -> _Arena:
    """A new member arena for cfg's system, the one place a member's arrays are sized and placed.

    A drawn coefficient matrix lies in the memory its embedding is written to,
    and an array not placed here starts its buffer.  t = 1: the compound
    steps, which leave C at the start of work; g1 in H's memory and C^T g1
    after C; v' = C^T g1 C over g1, then the embedding's buffers.  t >= 2: g0
    in H's memory, then its embedding's buffers; after the H0 solve, V with g1
    in its memory, the embedding's buffers after both, then U0^T V after V.
    The solve's workspace, at least d^2 doubles, and then ChaosMeasures' scratch.
    """
    d, dt, dk = (math.comb(cfg.N, r) for r in (cfg.m, cfg.t, cfg.k))
    if cfg.t == 1:
        drawn, rot, embed = dk, dk * dk, 0
        stages = (fock.compound_work(cfg.N, cfg.k), 2 * dk * dk, fock.embed_work(dk))
    else:
        drawn, rot, embed = dt, d * d, max(d * d, dk * dk)
        stages = (fock.embed_work(dt), embed + fock.embed_work(dk), 2 * d * d)
    work = max(spectral.diagonalize_work(d), *stages)
    return _Arena(np.empty(max(d * d, drawn * drawn)), np.empty(work), rot, embed)


def _square(buf: np.ndarray, start: int, n: int) -> np.ndarray:
    """The n x n C-order view of the flat buf from buf[start]."""
    return buf[start:start + n * n].reshape(n, n)


def member_spectra(cfg: RunConfig, member: int, arena: _Arena) -> MemberSpectra:
    """Build one member's H in the H0 eigenbasis and diagonalize it once.

    H, its eigenvectors and then overlap_sq occupy the given member arena, so
    the arrays returned stay valid until the next member run on that arena,
    and threads must not run members on one arena at the same time.  Raises
    LinAlgError when an eigensolve does not converge, and its subclass
    spectral.DiagonalizationError when a solve's guard or the doubly
    stochastic check of W fails.
    """
    e0, h = _member_hamiltonian(cfg, member, arena)
    e, u = spectral.diagonalize(h, arena.work)
    return MemberSpectra(e0, e, spectral.overlaps(u))  # W overwrites u


def _member_hamiltonian(cfg: RunConfig, member: int,
                        arena: _Arena) -> tuple[np.ndarray, np.ndarray]:
    """(E0, H): the H0 eigenvalues and H = diag(E0) + lam V' in the H0 eigenbasis.

    Every d x d and C(N, k)^2 array lies in the member arena, where
    _member_arena places it, and H is a view of its H memory.
    """
    basis_m = fock.build_basis(cfg.N, cfg.m)
    basis_t = fock.build_basis(cfg.N, cfg.t)
    basis_k = fock.build_basis(cfg.N, cfg.k)
    h_mem, work, rot_at, embed_at = arena
    d, dt, dk = basis_m.dim, basis_t.dim, basis_k.dim
    h = _square(h_mem, 0, d)
    if cfg.t == 1:
        eps, orb = np.linalg.eigh(fock.sample_goe(dt, cfg.seed, member, 0))
        e0 = basis_m.occupations @ eps
        c = fock.compound_matrix(orb, cfg.k, work)
        g1, rot = _square(h_mem, 0, dk), _square(work, rot_at, dk)
        fock.sample_goe(dk, cfg.seed, member, 1, g1)
        np.matmul(c.T, g1, out=rot)
        np.matmul(rot, c, out=g1)  # v' = C^T g1 C
        fock.embed_k_body(g1, basis_m, basis_k, h, work[embed_at:])
    else:  # g1 is drawn after the H0 solve, which then holds only H0's arrays
        g0 = _square(h_mem, 0, dt)
        fock.sample_goe(dt, cfg.seed, member, 0, g0)
        fock.embed_k_body(g0, basis_m, basis_t, h, work)
        e0, u0 = spectral.diagonalize(h, work)  # u0 overwrites h
        v, g1, rot = _square(work, 0, d), _square(work, 0, dk), _square(work, rot_at, d)
        fock.sample_goe(dk, cfg.seed, member, 1, g1)
        fock.embed_k_body(g1, basis_m, basis_k, v, work[embed_at:])
        np.matmul(u0.T, v, out=rot)
        np.matmul(rot, u0, out=v)  # V' = U0^T V U0
        np.copyto(h, v)
    h *= cfg.system().lam
    h.flat[:: basis_m.dim + 1] += e0
    return e0, h


def run_member(cfg: RunConfig, member: int, arena: _Arena):
    """One member's partial sums (strength, chaos[, moments]) and an error or None.

    arena is a _member_arena(cfg), whose arrays the member overwrites.  A
    member that raises LinAlgError (an eigensolve that does not converge, or
    spectral.DiagonalizationError) returns the sums still at zero (member_count
    0) with str() of the exception; otherwise each has member_count 1.  Any
    other exception propagates: no valid member raises one.
    """
    sums = (spectral.StrengthReport(cfg.windows(), cfg.edges()),
            spectral.ChaosMeasures(cfg.edges()))
    if cfg.with_moments:
        sums += (spectral.BivariateMomentAccumulator(),)
    try:
        spec = member_spectra(cfg, member, arena)
    except np.linalg.LinAlgError as exc:
        return sums, str(exc)
    e0, e1 = spectral.standardize(spec.e0), spectral.standardize(spec.e)
    strength, chaos, *moments = sums
    strength.add_member(e0, e1, spec.overlap_sq)
    chaos.add_member(e1, spec.overlap_sq, arena.work)
    for acc in moments:
        acc.add_member(spec.e0, spec.e, spec.overlap_sq)
    return sums, None


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
    return trim


def _join(threads: list[threading.Thread], stop: threading.Event) -> None:
    """Join every started thread; an interrupt meanwhile sets stop and is raised after."""
    interrupt = None
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:
                stop.set()
                interrupt = interrupt or exc
    if interrupt is not None:
        raise interrupt


def run_ensemble(cfg: RunConfig) -> EnsembleResult:
    """Run all members and reduce their partial sums in member order.

    The caller's free heap first goes back to the system (malloc_trim), which
    returns what the caller freed before the run.  The members are cut into
    min(workers, members) contiguous blocks; the caller runs block 0 and a
    thread of the calling process each other block, all inside
    spectral.one_blas_thread.  A block's error, or an interrupt in the caller,
    stops every block after its current member; once every thread is joined,
    the first error in block order is raised.  No block's arena outlives its
    block.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    blocks = min(cfg.workers, cfg.members)
    cuts = [cfg.members * b // blocks for b in range(blocks + 1)]
    done = [None] * blocks  # each block's outcomes, or what it raised
    stop = threading.Event()

    def run_block(b: int) -> None:  # on one new arena, until stop is set
        try:
            arena = _member_arena(cfg)
            done[b] = [run_member(cfg, member, arena) for member in range(cuts[b], cuts[b + 1])
                       if not stop.is_set()]
        except BaseException as exc:
            stop.set()
            done[b] = exc

    threads = [threading.Thread(target=run_block, args=(b,)) for b in range(1, blocks)]
    with spectral.one_blas_thread():
        try:
            for thread in threads:
                thread.start()
            run_block(0)
        except BaseException:
            stop.set()
            raise
        finally:
            _join(threads, stop)
    for block in done:
        if isinstance(block, BaseException):
            raise block
    outcomes = [outcome for block in done for outcome in block]
    sums = outcomes[0][0]
    for partial, _ in outcomes[1:]:
        sums = tuple(total.merge(part) for total, part in zip(sums, partial))
    failures = tuple((member, err) for member, (_, err) in enumerate(outcomes) if err is not None)
    moments = sums[2] if cfg.with_moments else None
    return EnsembleResult(cfg, cfg.system(), sums[0], sums[1], moments, failures)


def run_checks(result: EnsembleResult, tables: dict) -> list[tuple[str, bool, str]]:
    """Tolerance checks mirroring the package's acceptance gates, as (name, passed, detail).

    They judge tables, the {file name: {column: values}} mapping a run writes: at
    lam = 0 npc.csv's npc_mc and s_info_mc, else moments.csv's e0_mean, variance,
    gamma1, gamma1_pred, gamma2, gamma2_pred and l1_distance (finite-N predictions,
    so any config with 0 < xi < 1); the centroid slope is fitted to result.strength.
    """
    checks = [("members-completed", not result.failures,
               f"{result.config.members - len(result.failures)}/{result.config.members}")]
    qs = result.system.qs_finite
    if qs is None:
        npc, s_info = tables["npc.csv"]["npc_mc"], tables["npc.csv"]["s_info_mc"]
        good = np.nanmax(np.abs(npc - 1.0)) == 0.0 and np.nanmax(s_info) == 0.0
        checks.append(("uncoupled-npc-unity", bool(good), "NPC=1, S_info=0 required at lam=0"))
        return checks
    mom = tables["moments.csv"]
    e0 = mom["e0_mean"]

    try:
        slope = spectral.centroid_slope(result.strength, e0_max=2.0)
        checks.append(("centroid-slope", abs(slope - qs.xi) <= 0.03 * qs.xi,
                       f"slope={slope:.4f} xi={qs.xi:.4f}"))
    except ValueError as exc:
        checks.append(("centroid-slope", False, str(exc)))

    def variance_flat(sel):
        dev = np.max(np.abs(mom["variance"][sel] - (1 - qs.xi_sq))) / (1 - qs.xi_sq)
        return dev <= 0.05, f"max rel dev {dev:.3f}"

    def gamma1_windows(sel):
        g_emp, g_pred = mom["gamma1"][sel], mom["gamma1_pred"][sel]
        rel = np.max(np.abs(g_emp - g_pred) / np.abs(g_pred))
        signs = np.all(np.sign(g_emp) == -np.sign(e0[sel]))
        return rel <= 0.10 and signs, f"max rel dev {rel:.3f}, sign flip {signs}"

    def gamma2_windows(sel):
        g2dev = np.max(np.abs(mom["gamma2"][sel] - mom["gamma2_pred"][sel]))
        return g2dev <= 0.15, f"max abs dev {g2dev:.3f}"

    def strength_l1(sel):
        l1 = mom["l1_distance"][sel]
        return np.nanmax(l1) < 0.1, f"max L1 {np.nanmax(l1):.3f}"

    for name, lo, hi, gate in (("variance-flat", 0.0, 2.0, variance_flat),
                               ("gamma1-windows", 0.25, 1.5, gamma1_windows),
                               ("gamma2-windows", 0.0, 2.0, gamma2_windows),
                               ("strength-l1", 0.0, 1.0, strength_l1)):
        sel = np.isfinite(e0) & (np.abs(e0) >= lo) & (np.abs(e0) <= hi)
        passed, detail = (gate(sel) if np.any(sel)
                          else (False, f"no window with |e0| in [{lo:g}, {hi:g}]"))
        checks.append((name, bool(passed), detail))
    return checks
