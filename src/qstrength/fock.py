"""Fermionic Fock-space bases and embedding of few-body random operators.

A determinant basis for m fermions in n_orb single-particle states is held as
an ascending array of occupation bitmasks (bit i set = orbital i occupied).
A rank-r operator W = sum_{ab} w_ab B+(a) B(b), with a, b running over the
r-particle determinants and B+(a) the ascending-order product of creation
operators, is embedded into the m-particle space by summing over all ways of
splitting a determinant into an active r-particle part and an (m-r)-particle
spectator part.  The anticommutation phase for pulling an active set out of a
determinant is the parity of the number of (active, spectator) orbital pairs
in crossing order.

Every embedding follows from small tables per (n_orb, m, r): for each
spectator set and each of its active sets, the m-particle index mu of the
determinant they make and the rank-r index act of the active set, with those
rows sorted by mu.  The crossing phase factors into a sign tau of the active
determinant and a sign kappa of the active orbitals' places among the free
orbitals.  An embedding gathers the tau-signed symmetric part of w over
spectator block rows, applies the kappa product and adds the terms at
(mu_i, mu_j), so it needs the output, that signed part and step buffers.
Bases and tables are made once per shape and process (functools.lru_cache),
returned read-only, and shared by every member the process runs: threads use
the tables the process has cached.

An orthogonal change of orbitals, new orbital j = sum_i O[i, j] (old orbital
i), acts on rank-r determinants through the r-th compound matrix
C_r(O)[I, J] = det O[I, J] (Cauchy-Binet), so a rank-r coefficient matrix w
becomes C_r(O)^T w C_r(O) in the rotated orbitals.  compound_matrix builds it
by first-row Laplace expansion from C_{r-1}, with per-(n_orb, r) index tables
cached like the embedding tables.

Defining matrices are drawn from the Gaussian orthogonal ensemble with
off-diagonal variance 1 and diagonal variance 2, deterministically seeded per
(master seed, member index, operator stream) so that ensembles are reproducible
and independent between the mean-field and interaction streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "FockBasis",
    "build_basis",
    "sample_goe",
    "embedding_plan",
    "embed_k_body",
    "compound_plan",
    "compound_matrix",
]

BASIS_DIM_CAP = 200_000
_MAX_ORBITALS = 64
_GOE_ROWS = 16  # row block of the GOE symmetrization


@dataclass(frozen=True)
class FockBasis:
    """Determinant basis: all n_part-bit masks over n_orb orbitals, ascending."""

    n_orb: int
    n_part: int
    states: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def occupations(self) -> np.ndarray:
        """(dim, n_orb) 0/1 array: [mu, o] is the occupation of orbital o in state mu."""
        bits = np.arange(self.n_orb, dtype=np.uint64)
        return ((self.states[:, None] >> bits) & np.uint64(1)).astype(float)


def build_basis(n_orb: int, n_part: int) -> FockBasis:
    """Enumerate the fermion determinant basis in ascending bitmask order, up to BASIS_DIM_CAP."""
    if not 0 <= n_part <= n_orb:
        raise ValueError(f"need 0 <= n_part <= n_orb, got {n_part}, {n_orb}")
    if n_orb > _MAX_ORBITALS:
        raise ValueError(f"bitmask representation limited to {_MAX_ORBITALS} orbitals")
    dim = math.comb(n_orb, n_part)
    if dim > BASIS_DIM_CAP:
        raise ValueError(f"basis dimension {dim} exceeds cap {BASIS_DIM_CAP}")
    return _basis(n_orb, n_part)


@lru_cache(maxsize=32)
def _basis(n_orb: int, n_part: int) -> FockBasis:
    masks = sorted(
        sum(1 << o for o in occ) for occ in itertools.combinations(range(n_orb), n_part)
    )
    states = np.array(masks, dtype=np.uint64)
    states.flags.writeable = False
    return FockBasis(n_orb, n_part, states)


def sample_goe(dim: int, master_seed: int, member: int, stream: int = 0,
               out: np.ndarray | None = None) -> np.ndarray:
    """Symmetric GOE matrix: off-diagonal variance 1, diagonal variance 2.

    The generator is seeded by (master_seed, member, stream), so any member of
    any operator stream can be regenerated in isolation, in any process.  The
    draw a is made in out (a new array if None) and replaced there by
    (a + a^T) / sqrt(2) one block of _GOE_ROWS rows and columns at a time, so
    the scratch is two such blocks (a ufunc on strided blocks allocates buffers).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(member, stream))
    a = np.random.default_rng(ss).standard_normal(out=np.empty((dim, dim)) if out is None else out)
    root2, scratch = math.sqrt(2.0), np.empty((2, min(dim, _GOE_ROWS) * dim))
    for lo in range(0, dim, _GOE_ROWS):  # from the corner on, which no earlier block wrote
        hi = min(lo + _GOE_ROWS, dim)
        b, t = (x[: (hi - lo) * (dim - lo)].reshape(hi - lo, dim - lo) for x in scratch)
        np.copyto(b, a[lo:hi, lo:])
        np.copyto(t, a[lo:, lo:hi].T)
        np.divide(np.add(b, t, out=b), root2, out=b)
        a[lo:hi, lo:] = b
        a[lo:, lo:hi] = b.T
    return a


# ---------------------------------------------------------------------------
# embedding plans


@dataclass(frozen=True)
class _EmbeddingPlan:
    mu: np.ndarray  # (G, A) m-particle index of each active set of each spectator set
    act: np.ndarray  # (G, A) rank-r index of the active set
    order: np.ndarray  # (G * A,) flat (spectator set, active set) rows, by mu, then spectator set
    tau: np.ndarray  # (D,) (-1)^(sum of its orbitals) of each rank-r determinant
    kappa: np.ndarray  # (A,) (-1)^(sum of its places among the free orbitals) of each active set


_CHUNK = 10_240  # terms per embedding step in the least work, embed_work(dim_r)
_CHUNK_MAX = 1 << 15  # terms a step takes where the work has room
_COMPOUND_ROWS = 64  # row block of a Laplace step's products


@lru_cache(maxsize=8)
def embedding_plan(n_orb: int, m: int, r: int) -> _EmbeddingPlan:
    """Read-only tables of every rank-r embedding, one (mu, act) row per spectator set.

    Spectator sets are taken in combination order, and every row lists the
    same A = C(n_orb - m + r, r) combinations c of places among the set's
    free orbitals.  An orbital a has a spectators and free orbitals below it,
    so the crossing sign of the active orbitals alpha at places c, minus one
    to the number of spectators below them, is tau(alpha) kappa(c).
    """
    basis_m, basis_r = _basis(n_orb, m), _basis(n_orb, r)
    spect = list(itertools.combinations(range(n_orb), m - r))
    free = np.array([[o for o in range(n_orb) if o not in g] for g in spect], dtype=np.uint64)
    gmask = np.array([sum(1 << o for o in g) for g in spect], dtype=np.uint64)[:, None]
    combos = np.array(list(itertools.combinations(range(n_orb - m + r), r)), dtype=np.intp,
                      ndmin=2)
    amask = np.zeros((len(spect), len(combos)), dtype=np.uint64)
    for col in combos.T:
        amask |= np.uint64(1) << free[:, col]  # one active orbital of every active set
    mu = np.searchsorted(basis_m.states, amask | gmask)
    tables = (mu, np.searchsorted(basis_r.states, amask),
              np.argsort(mu.reshape(-1), kind="stable"),
              1.0 - 2.0 * (basis_r.occupations[:, 1::2].sum(axis=1) % 2),
              1.0 - 2.0 * (combos.sum(axis=1) % 2))
    for a in tables:
        a.flags.writeable = False
    return _EmbeddingPlan(*tables)


def _carve(work: np.ndarray, start: int, *shapes: tuple[int, int]) -> list[np.ndarray]:
    """Consecutive C-order views of the given shapes in the flat work, from work[start]."""
    views = []
    for rows, cols in shapes:
        views.append(work[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return views


def embed_work(dim_r: int) -> int:
    """Doubles of work embed_k_body uses for a rank-r basis of dim_r determinants."""
    return dim_r * dim_r + 3 * max(_CHUNK, dim_r)


def embed_k_body(coeffs: np.ndarray, basis_m: FockBasis, basis_r: FockBasis,
                 out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Embed the symmetric part of a rank-r coefficient matrix into the m-particle basis.

    coeffs[a, b] multiplies B+(a) B(b) summed over all rank-r determinant pairs;
    the result is the dense m-particle matrix of (coeffs + coeffs^T) / 2, the
    symmetric part of the embedded coeffs, and is exactly symmetric.  It is
    written into out (a new array if None).  ws = tau (coeffs + coeffs^T) / 2 tau
    and three step buffers lie in the flat work of at least embed_work(dim_r)
    doubles (a new one if None), which must not overlap coeffs; ws is complete
    before out is written, so coeffs may lie in out's memory.  A step takes
    plan rows (g, i) in mu order, up to _CHUNK_MAX terms where work has room:
    it gathers ws[act[g, i], act[g]], multiplies by kappa_i kappa and adds the
    terms at (mu[g, i], mu[g]).  A spectator set links each entry at most once
    and the rows of one mu come in ascending spectator order, so each entry,
    in either triangle, adds its terms in that order from zero.
    """
    if basis_r.n_orb != basis_m.n_orb:
        raise ValueError("bases must share the orbital set")
    if not 0 <= basis_r.n_part <= basis_m.n_part:
        raise ValueError("operator rank must not exceed the particle number")
    dr, d = basis_r.dim, basis_m.dim
    if coeffs.shape != (dr, dr):
        raise ValueError(f"coefficient matrix must be {dr} x {dr}")
    plan = embedding_plan(basis_m.n_orb, basis_m.n_part, basis_r.n_part)
    work = np.empty(embed_work(dr)) if work is None else work
    step = max(_CHUNK, dr, min(_CHUNK_MAX, (len(work) - dr * dr) // 3))
    ws, terms, index, spare = np.split(work[: dr * dr + 3 * step],
                                       [dr * dr + k * step for k in range(3)])
    # every array a ufunc below sees lies in work and is the shape of the
    # others, as a strided or broadcast operand makes numpy allocate buffers
    square, rows = ws.reshape(dr, dr), step // dr
    for lo in range(0, dr, rows):  # ws a block of rows at a time
        block, t = square[lo:lo + rows], terms[: rows * dr].reshape(rows, dr)[: dr - lo]
        np.copyto(t, coeffs[:, lo:lo + rows].T)
        np.add(coeffs[lo:lo + rows], t, out=block)
        for factor in (0.5 * plan.tau[lo:lo + rows, None], plan.tau):
            np.copyto(t, factor)
            block *= t
    out = np.empty((d, d)) if out is None else out
    out.fill(0.0)
    n_act = plan.act.shape[1]
    rows = step // n_act  # table rows per step
    for lo in range(0, len(plan.order), rows):
        flat = plan.order[lo:lo + rows]
        g, i = np.divmod(flat, n_act)
        shape = (len(g), n_act)
        idx, vals, signs = (b[: len(g) * n_act].reshape(shape)
                            for b in (index.view(np.intp), terms, spare))
        off = signs.view(np.intp)  # the row offsets, before and after the signs
        np.take(plan.act, g, axis=0, out=idx, mode="clip")  # unbuffered
        np.copyto(off, (plan.act.take(flat) * dr)[:, None])
        idx += off
        np.take(ws, idx, out=vals, mode="clip")
        np.einsum("i,j->ij", plan.kappa.take(i), plan.kappa, out=signs)
        vals *= signs
        np.take(plan.mu, g, axis=0, out=idx, mode="clip")
        np.copyto(off, (plan.mu.take(flat) * d)[:, None])
        idx += off
        np.add.at(out.reshape(-1), idx.reshape(-1), vals.reshape(-1))
    return out


# ---------------------------------------------------------------------------
# compound matrices


@dataclass(frozen=True)
class _CompoundPlan:
    orbs: np.ndarray  # (D, r): ascending orbitals of each rank-r determinant
    minors: np.ndarray  # (D, r): rank-(r-1) index of the determinant without orbs[:, p]


@lru_cache(maxsize=16)
def compound_plan(n_orb: int, r: int) -> _CompoundPlan:
    """Read-only index tables for the Laplace step C_{r-1} -> C_r over n_orb orbitals."""
    if not 2 <= r <= n_orb:
        raise ValueError(f"need 2 <= r <= n_orb, got {r}, {n_orb}")
    basis_r, states_s = _basis(n_orb, r), _basis(n_orb, r - 1).states
    orbs = np.nonzero(basis_r.occupations)[1].reshape(-1, r)  # row-major: ascending per row
    without = basis_r.states[:, None] ^ (np.uint64(1) << orbs.astype(np.uint64))
    parts = (orbs, np.searchsorted(states_s, without))
    for a in parts:
        a.flags.writeable = False
    return _CompoundPlan(*parts)


def compound_work(n_orb: int, r: int) -> int:
    """Doubles of work compound_matrix(o, r, work) uses for an n_orb x n_orb o."""
    need = n_orb * n_orb
    for s in range(2, r + 1):
        ds, dp = math.comb(n_orb, s), math.comb(n_orb, s - 1)
        need = max(need, max(ds, dp) ** 2 + ds * (dp + n_orb + 2 * min(ds, _COMPOUND_ROWS)))
    return need


def compound_matrix(o: np.ndarray, r: int, work: np.ndarray) -> np.ndarray:
    """r-th compound C_r(O)[I, J] = det O[I, J] over the rank-r basis order.

    Each rank comes from the one below by expanding along the first row of
    O[I, J]: det O[I, J] = sum_p (-1)^p O[i_1, j_p] det O[I - i_1, J - j_p].
    Every array lies in the flat work of at least compound_work(len(o), r)
    doubles.  C_r^T is built in C order in the first D^2, so C_r comes
    back in Fortran order, the layout the products it enters are computed for:
    a step gathers the columns of C_{r-1} it expands, after which C_r^T
    overwrites C_{r-1}^T one block of _COMPOUND_ROWS rows (columns J of C_r)
    at a time.
    """
    o = np.asarray(o, dtype=float)
    n = len(o)
    if o.shape != (n, n):
        raise ValueError("orbital matrix must be square")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got {r}")
    (ct,) = _carve(work, 0, (n, n))
    ct[...] = o.T
    for s in range(2, r + 1):
        plan = compound_plan(n, s)
        ds, dp, blk = len(plan.orbs), len(ct), min(len(plan.orbs), _COMPOUND_ROWS)
        # above both C_{r-1}^T and C_r^T, which overwrites it once sub is gathered
        sub, lead, term, factor = _carve(work, max(ds, dp) ** 2, (dp, ds), (n, ds),
                                        (blk, ds), (blk, ds))
        np.take(ct, plan.minors[:, 0], axis=1, out=sub, mode="clip")  # mode="clip" is unbuffered
        np.take(o.T, plan.orbs[:, 0], axis=1, out=lead, mode="clip")
        (ct,) = _carve(work, 0, (ds, ds))
        for lo in range(0, ds, blk):
            rows = ct[lo:lo + blk]
            t, f = term[: len(rows)], factor[: len(rows)]
            for p in range(s):
                np.take(lead, plan.orbs[lo:lo + blk, p], axis=0, out=t, mode="clip")
                np.take(sub, plan.minors[lo:lo + blk, p], axis=0, out=f, mode="clip")
                if p == 0:
                    np.multiply(t, f, out=rows)
                    continue
                t *= f
                if p % 2:
                    rows -= t
                else:
                    rows += t
    return ct.T
