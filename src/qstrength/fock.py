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

Embedding all pairs naively is slow, so the decomposition is precomputed once
per (n_orb, m, r) as a "plan": the position mu*dim + nu of each upper-triangle
pair (mu <= nu) a spectator set links, and the index of its coefficient in the
signed vector [u, -u], u the upper triangle of the symmetrized coefficients
row by row, in the negated half when the phase product is -1.  Both are int32
while they fit.  Embedding a coefficient matrix is then a chunked gather and
in-order accumulation into the upper triangle and an in-place mirror, so its
memory is the output plus the signed vector.  Bases and plans are made once
per shape (functools.lru_cache), returned read-only, and shared by every
ensemble member.

An orthogonal change of orbitals, new orbital j = sum_i O[i, j] (old orbital
i), acts on rank-r determinants through the r-th compound matrix
C_r(O)[I, J] = det O[I, J] (Cauchy-Binet), so a rank-r coefficient matrix w
becomes C_r(O)^T w C_r(O) in the rotated orbitals.  compound_matrix builds it
by first-row Laplace expansion from C_{r-1}, with per-(n_orb, r) index tables
cached like the embedding plans.

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
    (a + a^T) / sqrt(2) one row and column at a time, so the scratch is one row.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(member, stream))
    a = np.random.default_rng(ss).standard_normal(out=np.empty((dim, dim)) if out is None else out)
    root2, row = math.sqrt(2.0), np.empty(dim)
    for i in range(dim):  # row i and column i from the corner on, which no earlier step wrote
        r = row[: dim - i]
        np.add(a[i, i:], a[i:, i], out=r)
        r /= root2
        a[i, i:] = r
        a[i:, i] = r
    return a


# ---------------------------------------------------------------------------
# embedding plans


@dataclass(frozen=True)
class _EmbeddingPlan:
    flat: np.ndarray  # mu*dim + nu positions in the embedded matrix, mu <= nu
    src: np.ndarray  # index into [u, -u], u = upper triangle (a <= b) of w by rows
    dim: int


_CHUNK = 1 << 14  # plan terms handled per step, when building and when embedding
_MIRROR_ROWS = 32  # row block of the in-place mirror
_COMPOUND_ROWS = 64  # row block of a Laplace step's products


def _spectator_blocks(spect, combos, basis_m, basis_r):
    """(mu, act, par) of every active set of each spectator row, ascending in mu.

    spect is (g, m - r) spectator orbitals, combos (A, r) positions among a
    row's free orbitals in ascending bitmask order, so mu ascends along a row.
    par is the crossing parity of pulling the active orbitals out of mu: the
    parity of the number of spectators below them.
    """
    one = np.uint64(1)
    rows = np.arange(len(spect))
    occupied = np.zeros((len(spect), basis_m.n_orb), dtype=bool)
    occupied[rows[:, None], spect] = True
    free = np.nonzero(~occupied)[1].reshape(len(spect), -1)
    gmask = (one << spect.astype(np.uint64)).sum(axis=1, dtype=np.uint64)[:, None]
    alpha = free[:, combos]
    amask = (one << alpha.astype(np.uint64)).sum(axis=2, dtype=np.uint64)
    below = np.cumsum(occupied, axis=1)[rows[:, None, None], alpha]
    par = below.sum(axis=2) & 1
    mu = np.searchsorted(basis_m.states, amask | gmask)
    return mu, np.searchsorted(basis_r.states, amask), par


@lru_cache(maxsize=8)
def embedding_plan(n_orb: int, m: int, r: int) -> _EmbeddingPlan:
    """Read-only decomposition of every rank-r embedding, upper triangle only.

    Spectator sets are taken in combination order and each set's (mu <= nu)
    pairs in row-major order, written straight into the two plan arrays.
    """
    basis_m, basis_r = _basis(n_orb, m), _basis(n_orb, r)
    d, dr = basis_m.dim, basis_r.dim
    n_tri = dr * (dr + 1) // 2
    spect = np.array(list(itertools.combinations(range(n_orb), m - r)), dtype=np.intp)
    # every spectator set links C(n_orb - m + r, r) determinants
    combos = np.array(sorted(itertools.combinations(range(n_orb - m + r), r),
                             key=lambda c: sum(1 << i for i in c)), dtype=np.intp)
    mu, act, par = _spectator_blocks(spect, combos, basis_m, basis_r)
    # int32 wherever every index fits, as it does up to d = 46340; every
    # product below fits the dtype of the array it is written to
    mu = mu.astype(np.int32 if d * d < 2**31 else np.intp)
    act, par = (x.astype(np.int32 if 2 * n_tri < 2**31 else np.intp) for x in (act, par))
    iu, ju = np.triu_indices(len(combos))
    flat = np.empty((len(mu), len(iu)), dtype=mu.dtype)
    src = np.empty((len(mu), len(iu)), dtype=act.dtype)
    step = max(1, _CHUNK // len(iu))  # spectator sets written per step
    for first in range(0, len(mu), step):
        g = slice(first, first + step)
        flat[g] = mu[g].take(iu, axis=1) * d + mu[g].take(ju, axis=1)
        a, b = act[g].take(iu, axis=1), act[g].take(ju, axis=1)
        a, b = np.minimum(a, b), np.maximum(a, b)  # w enters symmetrized
        sign = par[g].take(iu, axis=1) ^ par[g].take(ju, axis=1)
        src[g] = a * (2 * dr - a - 1) // 2 + b + sign * n_tri
    flat, src = flat.ravel(), src.ravel()
    for arr in (flat, src):
        arr.flags.writeable = False
    return _EmbeddingPlan(flat, src, d)


def mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of a square matrix into its lower one, in place.

    The scratch is one block of _MIRROR_ROWS rows; mirror_upper(a.T) copies the
    lower triangle into the upper one.
    """
    for lo in range(0, len(a), _MIRROR_ROWS):
        hi = lo + _MIRROR_ROWS
        block = a[lo:hi, lo:hi]
        lower = np.tril_indices(len(block), -1)
        block[lower] = block.T[lower]
        a[hi:, lo:hi] = a[lo:hi, hi:].T


def _carve(work: np.ndarray, start: int, *shapes: tuple[int, int]) -> list[np.ndarray]:
    """Consecutive C-order views of the given shapes in the flat work, from work[start]."""
    views = []
    for rows, cols in shapes:
        views.append(work[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return views


def embed_work(dim_r: int) -> int:
    """Doubles of work embed_k_body uses for a rank-r basis of dim_r determinants."""
    return dim_r * (dim_r + 1) + 2 * _CHUNK


def embed_k_body(coeffs: np.ndarray, basis_m: FockBasis, basis_r: FockBasis,
                 out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Embed the symmetric part of a rank-r coefficient matrix into the m-particle basis.

    coeffs[a, b] multiplies B+(a) B(b) summed over all rank-r determinant pairs;
    the result is the dense m-particle matrix of (coeffs + coeffs^T) / 2, the
    symmetric part of the embedded coeffs, and is exactly symmetric.  It is
    written into out (a new array if None).  The signed vector and one chunk
    of gathered terms and their intp indices lie in the flat work of
    embed_work(basis_r.dim) doubles (a new one if None), which must not
    overlap coeffs; the signed vector is complete before out is written, so
    coeffs may lie in out's memory.  Each
    upper-triangle entry adds its terms in plan order, one chunk of terms at a
    time, and the lower triangle is mirrored in place.
    """
    if basis_r.n_orb != basis_m.n_orb:
        raise ValueError("bases must share the orbital set")
    if not 0 <= basis_r.n_part <= basis_m.n_part:
        raise ValueError("operator rank must not exceed the particle number")
    dr = basis_r.dim
    if coeffs.shape != (dr, dr):
        raise ValueError(f"coefficient matrix must be {dr} x {dr}")
    plan = embedding_plan(basis_m.n_orb, basis_m.n_part, basis_r.n_part)
    if work is None:
        work = np.empty(embed_work(dr))
    n_tri = dr * (dr + 1) // 2
    signed, terms, index = np.split(work[: embed_work(dr)], [2 * n_tri, 2 * n_tri + _CHUNK])
    index = index.view(np.intp)  # the plan's int32 indices, cast once per chunk
    start = 0
    for a in range(dr):  # row a of the upper triangle of coeffs + coeffs^T
        np.add(coeffs[a, a:], coeffs[a:, a], out=signed[start:start + dr - a])
        start += dr - a
    signed[:n_tri] *= 0.5
    np.negative(signed[:n_tri], out=signed[n_tri:])
    out = np.empty((plan.dim, plan.dim)) if out is None else out
    out.fill(0.0)
    upper = out.ravel()
    for lo in range(0, len(plan.src), _CHUNK):
        src, flat = plan.src[lo:lo + _CHUNK], plan.flat[lo:lo + _CHUNK]
        idx, vals = index[: len(src)], terms[: len(src)]
        np.copyto(idx, src)
        np.take(signed, idx, out=vals, mode="clip")  # unbuffered
        np.copyto(idx, flat)
        np.add.at(upper, idx, vals)
    mirror_upper(out)
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
