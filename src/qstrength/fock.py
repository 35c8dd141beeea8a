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
signed vector [w, -w], in the negated half when the phase product is -1.
Embedding a coefficient matrix is then one gather, one weighted bincount and a
mirror of the upper triangle.  Bases and plans are made once per shape
(functools.lru_cache), returned read-only, and shared by every ensemble member.

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
from types import MappingProxyType

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
    index: MappingProxyType = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def occupations(self) -> np.ndarray:
        """(dim, n_orb) 0/1 array: [mu, o] is the occupation of orbital o in state mu."""
        bits = np.arange(self.n_orb, dtype=np.uint64)
        return ((self.states[:, None] >> bits) & np.uint64(1)).astype(float)


def build_basis(n_orb: int, n_part: int, cap: int = BASIS_DIM_CAP) -> FockBasis:
    """Enumerate the fermion determinant basis in ascending bitmask order."""
    if not 0 <= n_part <= n_orb:
        raise ValueError(f"need 0 <= n_part <= n_orb, got {n_part}, {n_orb}")
    if n_orb > _MAX_ORBITALS:
        raise ValueError(f"bitmask representation limited to {_MAX_ORBITALS} orbitals")
    dim = math.comb(n_orb, n_part)
    if dim > cap:
        raise ValueError(f"basis dimension {dim} exceeds cap {cap}")
    return _basis(n_orb, n_part)


@lru_cache(maxsize=32)
def _basis(n_orb: int, n_part: int) -> FockBasis:
    masks = sorted(
        sum(1 << o for o in occ) for occ in itertools.combinations(range(n_orb), n_part)
    )
    states = np.array(masks, dtype=np.uint64)
    states.flags.writeable = False
    index = MappingProxyType({mk: i for i, mk in enumerate(masks)})
    return FockBasis(n_orb, n_part, states, index)


def sample_goe(dim: int, master_seed: int, member: int, stream: int = 0) -> np.ndarray:
    """Symmetric GOE matrix: off-diagonal variance 1, diagonal variance 2.

    The generator is seeded by (master_seed, member, stream), so any member of
    any operator stream can be regenerated in isolation, in any process.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(member, stream))
    a = np.random.default_rng(ss).standard_normal((dim, dim))
    return (a + a.T) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# embedding plans


@dataclass(frozen=True)
class _EmbeddingPlan:
    flat: np.ndarray  # mu*dim + nu positions in the embedded matrix, mu <= nu
    src: np.ndarray  # a*D + b, plus D*D when the phase product is -1
    dim: int


def _crossing_parity(active: tuple[int, ...], spectator_mask: int) -> int:
    """Parity of annihilating the active orbitals (ascending) out of the union."""
    par = 0
    for a in active:
        par ^= (spectator_mask & ((1 << a) - 1)).bit_count() & 1
    return par


@lru_cache(maxsize=8)
def embedding_plan(n_orb: int, m: int, r: int) -> _EmbeddingPlan:
    """Read-only decomposition of every rank-r embedding, upper triangle only."""
    basis_m, basis_r = _basis(n_orb, m), _basis(n_orb, r)
    d, dr = basis_m.dim, basis_r.dim
    idx_m, idx_r = basis_m.index, basis_r.index
    src_dtype = np.int32 if 2 * dr * dr < 2**31 else np.intp
    # every spectator set links C(n_orb - m + r, r) determinants
    iu, ju = np.triu_indices(math.comb(n_orb - (m - r), r))
    flats, srcs = [], []
    for gamma in itertools.combinations(range(n_orb), m - r):
        gmask = sum(1 << o for o in gamma)
        free = [o for o in range(n_orb) if not gmask >> o & 1]
        block = []
        for alpha in itertools.combinations(free, r):
            amask = sum(1 << o for o in alpha)
            block.append((idx_m[amask | gmask], idx_r[amask], _crossing_parity(alpha, gmask)))
        block.sort()  # ascending mu, so the pairs iu <= ju have mu <= nu
        mu, act, par = (np.array(col, dtype=np.intp) for col in zip(*block))
        flats.append(mu[iu] * d + mu[ju])
        srcs.append((act[iu] * dr + act[ju] + (par[iu] ^ par[ju]) * dr * dr).astype(src_dtype))
    parts = (np.concatenate(flats), np.concatenate(srcs))
    for a in parts:
        a.flags.writeable = False
    return _EmbeddingPlan(*parts, d)


def embed_k_body(coeffs: np.ndarray, basis_m: FockBasis, basis_r: FockBasis) -> np.ndarray:
    """Embed the symmetric part of a rank-r coefficient matrix into the m-particle basis.

    coeffs[a, b] multiplies B+(a) B(b) summed over all rank-r determinant pairs;
    the result is the dense m-particle matrix of (coeffs + coeffs^T) / 2, the
    symmetric part of the embedded coeffs, and is exactly symmetric.
    """
    if basis_r.n_orb != basis_m.n_orb:
        raise ValueError("bases must share the orbital set")
    if not 0 <= basis_r.n_part <= basis_m.n_part:
        raise ValueError("operator rank must not exceed the particle number")
    if coeffs.shape != (basis_r.dim, basis_r.dim):
        raise ValueError(f"coefficient matrix must be {basis_r.dim} x {basis_r.dim}")
    plan = embedding_plan(basis_m.n_orb, basis_m.n_part, basis_r.n_part)
    sym = 0.5 * (coeffs + coeffs.T)
    signed = np.concatenate([sym.ravel(), -sym.ravel()])
    upper = np.bincount(plan.flat, weights=signed.take(plan.src), minlength=plan.dim**2)
    upper = upper.reshape(plan.dim, plan.dim)
    out = upper + upper.T
    np.fill_diagonal(out, upper.diagonal())  # the sum doubled it
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
    basis_r, idx_s = _basis(n_orb, r), _basis(n_orb, r - 1).index
    orbs = [[o for o in range(n_orb) if mk >> o & 1] for mk in basis_r.states.tolist()]
    minors = [
        [idx_s[mk ^ (1 << o)] for o in row] for mk, row in zip(basis_r.states.tolist(), orbs)
    ]
    parts = (np.asarray(orbs, dtype=np.intp), np.asarray(minors, dtype=np.intp))
    for a in parts:
        a.flags.writeable = False
    return _CompoundPlan(*parts)


def compound_matrix(o: np.ndarray, r: int) -> np.ndarray:
    """r-th compound C_r(O)[I, J] = det O[I, J] over the rank-r basis order.

    Each rank comes from the one below by expanding along the first row of
    O[I, J]: det O[I, J] = sum_p (-1)^p O[i_1, j_p] det O[I - i_1, J - j_p].
    """
    o = np.asarray(o, dtype=float)
    n = len(o)
    if o.shape != (n, n):
        raise ValueError("orbital matrix must be square")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got {r}")
    c = o.copy()
    for s in range(2, r + 1):
        plan = compound_plan(n, s)
        lead = o[plan.orbs[:, 0]]
        sub = c[plan.minors[:, 0]]
        nxt = lead[:, plan.orbs[:, 0]] * sub[:, plan.minors[:, 0]]
        for p in range(1, s):
            term = lead[:, plan.orbs[:, p]] * sub[:, plan.minors[:, p]]
            if p % 2:
                nxt -= term
            else:
                nxt += term
        c = nxt
    return c
