"""Spectral analysis: overlaps, strength functions, chaos measures.

Each ensemble member is diagonalized once, in the eigenbasis of the mean-field
operator H0: the unperturbed states |kappa> are unit vectors there, so the
eigenvector matrix u of H itself gives the squared overlaps W = u * u, a
doubly stochastic array.  This module owns numpy's OpenBLAS: the solve's LAPACK
steps and one_blas_thread's one-thread pinning.  The solve runs the steps
LAPACK's dsyevd takes on a matrix it does not scale, through numpy's own
LAPACK, in the member's own matrix, rebuilds the matrix for its residual guard
from the triangle those steps leave intact, and returns u in the matrix's
memory, so it holds three d x d arrays.  The workspace is the caller's, sized
by diagonalize_work alone (at least d^2 doubles, which ChaosMeasures reuses),
and W overwrites u, so a caller that keeps it allocates nothing d x d per
member.  Rows of W, selected by windows on the standardized H0 spectrum and
binned over the standardized H spectrum, give the strength functions
F_kappa(E).  Every accumulator keeps one contract: its grid fields (windows,
edges) are fixed, every other field is a raw sum over members (weights, power
sums, histograms, traces, member_count) starting at zero, and merge() adds two
accumulators field by field, refusing different grids.  So partial results
reduced in member order give the same numbers for any split.

Moments of a strength function are always computed from the raw overlap
weights; histograms are only for display and for the L1 comparison against the
conditional q-normal benchmark curve.  Chaos measures (number of principal
components and information entropy) are binned over the H spectrum the same
way, and the analytic NPC curve is available as a quadrature of the q-normal
densities for comparison.  Bivariate trace moments need no matrix either: in
the H0 eigenbasis tr(H0^P H^Q) = sum_kappa E0_kappa^P (W E^Q)_kappa.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .bca import QParameterSet, strength_moment_prediction
from .qnormal import QuadratureError, f_cqn, f_qn, h_factor, support

__all__ = [
    "DiagonalizationError",
    "StrengthReport",
    "ChaosMeasures",
    "BivariateMomentAccumulator",
    "diagonalize",
    "overlaps",
    "standardize",
    "centroid_slope",
    "window_predictions",
    "predicted_f_values",
    "strength_l1",
    "npc_integral",
]


class DiagonalizationError(np.linalg.LinAlgError):
    """A solve failed its residual or orthonormality guard, or a W is not doubly stochastic;
    a LinAlgError (so a ValueError), the one family of exceptions a member may fail by."""


@functools.cache
def openblas_symbol(name: str):
    """A function of the library np.linalg calls into, or None if it exports none by that name."""
    return getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name, None)


_PINNED_LOCK = threading.Lock()
_PINNED = {"entries": 0, "threads": 0}  # one_blas_thread's uses inside, the count to restore


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread inside, the caller's count after, where it can be set;
    overlapping uses pin once, the first entry saving the count and the last exit restoring it."""
    setter = openblas_symbol("scipy_openblas_set_num_threads64_")
    getter = openblas_symbol("scipy_openblas_get_num_threads64_")
    if setter is None or getter is None:
        print("no OpenBLAS thread setter found: members run on the caller's BLAS threads",
              file=sys.stderr)
        yield
        return
    with _PINNED_LOCK:
        if _PINNED["entries"] == 0:
            getter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
            _PINNED["threads"] = getter()
            setter(1)
        _PINNED["entries"] += 1
    try:
        yield
    finally:
        with _PINNED_LOCK:
            _PINNED["entries"] -= 1
            if _PINNED["entries"] == 0:
                setter(_PINNED["threads"])


# The LAPACK routines dsyevd('V', 'L') runs on a matrix it does not scale, its
# workspace query first.
_DSYEVD_STEPS = ("dsyevd", "dsytrd", "dstedc", "dormtr")
# dsyevd scales a matrix whose largest entry lies outside [_RMIN, _RMAX]; its
# DLAMCH('S') and DLAMCH('P') are numpy's tiny and eps.
_SMLNUM = float(np.finfo(float).tiny / np.finfo(float).eps)
_RMIN, _RMAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)
# Bounds of the guards: the reconstruction residual relative to ||A||, the
# Gram deviation of u and the row and column sums of W.
_RESIDUAL_TOL = 1e-9
_ORTHONORMAL_TOL = 1e-10
_STOCHASTIC_TOL = 1e-10
_MIRROR_ROWS = 32  # row block of the in-place mirror
_MIRROR_LOWER = np.tril_indices(_MIRROR_ROWS, -1)  # row by row, so a shorter block's is a prefix


def _fortran(fn, *args):
    """Call an ILP64 Fortran routine of numpy's LAPACK.

    bytes are character arguments, arrays their data and every other value a
    64-bit integer, all by reference; the hidden lengths of the character
    arguments follow.
    """
    refs = [a if isinstance(a, bytes) else a.ctypes if isinstance(a, np.ndarray)
            else ctypes.byref(ctypes.c_int64(a)) for a in args]
    fn(*refs, *[ctypes.c_size_t(1)] * sum(isinstance(a, bytes) for a in args))


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of a square matrix into its lower one, in place.

    The scratch is one block of _MIRROR_ROWS rows; _mirror_upper(a.T) copies
    the lower triangle into the upper one.
    """
    for lo in range(0, len(a), _MIRROR_ROWS):
        hi = lo + _MIRROR_ROWS
        block = a[lo:hi, lo:hi]
        n = len(block) * (len(block) - 1) // 2
        lower = _MIRROR_LOWER[0][:n], _MIRROR_LOWER[1][:n]
        block[lower] = block.T[lower]
        a[hi:, lo:hi] = a[lo:hi, hi:].T


def _dsyevd_lengths(d: int, steps) -> tuple[int, int]:
    """(LWORK, LIWORK) of dsyevd('V', 'L') on a d x d matrix, (0, 0) without the steps.

    The query reads neither array.
    """
    if not steps:
        return 0, 0
    work, iwork, info = np.empty(1), np.empty(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    _fortran(steps[0], b"V", b"L", d, work, d, work, work, -1, iwork, -1, info)
    return int(work[0]), int(iwork[0])


def _lapack_steps():
    """The functions of _DSYEVD_STEPS in numpy's LAPACK, or None if one is missing."""
    steps = [openblas_symbol(f"scipy_{name}_64_") for name in _DSYEVD_STEPS]
    return None if None in steps else steps


def diagonalize_work(d: int) -> int:
    """Doubles of work diagonalize(mat, work) needs for a d x d mat: at least d^2.

    With numpy's LAPACK steps it is dsyevd's queried LWORK plus LIWORK, which
    is 2 d^2 + 11 d + 4 at every d of a reference system; the integer
    workspace follows the LWORK doubles.
    """
    return max(d * d, sum(_dsyevd_lengths(d, _lapack_steps())))


def _dsyevd_in_place(mat, work, iwork, dsytrd, dstedc, dormtr):
    """(w, ut, scratch): dsyevd('V', 'L') run step by step in an exactly symmetric mat.

    Read in Fortran order, mat's memory is mat, and its largest entry is 0 or
    within [_RMIN, _RMAX], so dsyevd would not scale it.  work and iwork are
    exactly dsyevd's queried LWORK doubles and LIWORK integers, so the steps,
    the splits of work and the lengths each step is passed are dsyevd's own,
    and w and the rows of ut, the eigenvectors, are np.linalg.eigh's bit for
    bit.  dsytrd writes only the Fortran lower (C upper) triangle, so mat is
    rebuilt from its strict lower triangle and the saved diagonal.  ut and the
    free d x d scratch lie in work.
    """
    d = len(mat)
    w, info = np.empty(d), np.zeros(1, dtype=np.int64)
    diag = mat.diagonal().copy()
    # dsyevd's INDE, INDTAU, INDWRK (the eigenvectors' d^2) and INDWK2 splits
    e, tau, z, rest = work[:d], work[d:2 * d], work[2 * d:], work[2 * d + d * d:]
    _fortran(dsytrd, b"L", d, mat, d, w, e, tau, z, len(z), info)
    _fortran(dstedc, b"I", d, w, e, z, d, rest, len(rest), iwork, len(iwork), info)
    if info[0] != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    _fortran(dormtr, b"L", b"L", b"N", d, d, mat, d, tau, z, d, rest, len(rest), info)
    _mirror_upper(mat.T)
    np.fill_diagonal(mat, diag)
    return w, z[: d * d].reshape(d, d), rest[: d * d].reshape(d, d)


def diagonalize(mat: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Overwrites mat, whose lower triangle (the one LAPACK reads) is the matrix:
    the eigenvectors u come back in C order in its memory.  A C-contiguous
    writable float array is used as is, anything else is copied first.  work
    is a contiguous flat float64 array of at least diagonalize_work(d) doubles,
    checked against the lengths of the steps this call runs (ValueError
    otherwise), and holds the solve's workspace and the guards' scratch; the
    eigenvalues are a new array.  The solve runs LAPACK dsyevd's own steps in
    mat through numpy's LAPACK, so (w, u) are np.linalg.eigh's bit for bit; the
    steps leave mat's strict lower triangle intact, and the matrix is rebuilt
    from it for the residual guard.  mat and the 2 d^2 workspace, which the
    guards reuse, are the only d x d arrays.  np.linalg.eigh, which is dsyevd
    itself, solves a matrix dsyevd would scale (largest entry |a| with
    0 < |a| < _RMIN or |a| > _RMAX), a non-finite one, d = 1, where dsyevd
    returns before its steps, and any matrix where numpy's LAPACK lacks a step.
    The reconstruction residual ||A u - u w|| and the Gram deviation of u are
    verified, NaN failing both; failures raise DiagonalizationError, a solver
    that does not converge LinAlgError, and a mat that is not square ValueError.
    """
    mat = np.require(mat, dtype=float, requirements="CW")
    d = len(mat)
    if mat.shape != (d, d):
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    steps = _lapack_steps()
    lwork, liwork = _dsyevd_lengths(d, steps)
    if not (work.dtype == np.float64 and work.ndim == 1 and work.flags.c_contiguous
            and len(work) >= max(d * d, lwork + liwork)):
        raise ValueError(f"work must be a contiguous flat float64 array of at least "
                         f"{max(d * d, lwork + liwork)} doubles")
    _mirror_upper(mat.T)  # the lower triangle into the upper one
    anrm = np.maximum(mat.max(), -mat.min())  # dsyevd's dlansy('M'); NaN propagates
    if d > 1 and steps and (anrm == 0.0 or _RMIN <= anrm <= _RMAX):
        iwork = work[lwork:lwork + liwork].view(np.int64)
        w, ut, r = _dsyevd_in_place(mat, work[:lwork], iwork, *steps[1:])
    else:
        w, u = np.linalg.eigh(mat)
        ut, r = u.T, work[: d * d].reshape(d, d)
    scale = float(np.linalg.norm(mat))
    np.matmul(ut, mat, out=r)  # (A u)^T, A being symmetric
    r -= np.einsum("ij,i->ij", ut, w, out=mat)  # w u^T over A, which u overwrites next
    resid = float(np.linalg.norm(r))
    if not resid <= _RESIDUAL_TOL * max(scale, 1e-300):
        raise DiagonalizationError(f"reconstruction residual {resid:.3e} vs scale {scale:.3e}")
    u = mat
    np.copyto(u, ut.T)
    gram = np.matmul(u.T, u, out=r)
    gram.flat[:: d + 1] -= 1.0
    gram_dev = float(np.max(np.abs(gram, out=gram)))
    if not gram_dev <= _ORTHONORMAL_TOL:
        raise DiagonalizationError(f"eigenvectors not orthonormal: deviation {gram_dev:.3e}")
    return w, u


def overlaps(u: np.ndarray) -> np.ndarray:
    """Squared-overlap matrix W[kappa, E] = |<kappa|E>|^2, written over u.

    u holds the eigenvectors |E> as columns, written in the basis of the
    unperturbed states |kappa>, so W = u * u elementwise.  Both row sums (fixed
    kappa) and column sums (fixed E) must equal 1 within _STOCHASTIC_TOL, NaN
    failing, or DiagonalizationError is raised: this is the doubly stochastic
    contract every downstream accumulator relies on.  A u that is not square
    raises ValueError.
    """
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"eigenvector matrix must be square, got shape {u.shape}")
    wsq = np.multiply(u, u, out=u)
    dev = max(float(np.max(np.abs(wsq.sum(axis=0) - 1.0))),
              float(np.max(np.abs(wsq.sum(axis=1) - 1.0))))
    if not dev <= _STOCHASTIC_TOL:
        raise DiagonalizationError(f"overlap matrix not doubly stochastic: deviation {dev:.3e}")
    return wsq


def standardize(eigvals: np.ndarray) -> np.ndarray:
    """Eigenvalues shifted and scaled to zero centroid, unit width (population)."""
    centroid = float(np.mean(eigvals))
    width = float(np.std(eigvals))
    if width == 0.0:
        raise ValueError("spectrum has zero width; cannot standardize")
    return (eigvals - centroid) / width


# ---------------------------------------------------------------------------
# mergeable accumulators


def _sum(*shape):
    """A sum field, zero-filled on construction; "win"/"bin" in its shape count windows/bins."""
    return field(default=None, metadata={"shape": shape})


class _Sums:
    """Base of the accumulators: the grid fields windows ((nwin, 2) [lo, hi)
    intervals) and edges (bin edges), and raw sums in every other field."""

    def __post_init__(self) -> None:
        dims = {}
        if hasattr(self, "windows"):
            self.windows = np.asarray(self.windows, dtype=float).reshape(-1, 2)
            dims["win"] = len(self.windows)
        if hasattr(self, "edges"):
            self.edges = np.asarray(self.edges, dtype=float)
            dims["bin"] = len(self.edges) - 1
        for f in fields(self):
            if getattr(self, f.name) is None:
                setattr(self, f.name, np.zeros([dims.get(n, n) for n in f.metadata["shape"]]))

    def merge(self, other):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, mine in values.items():
            if name not in ("windows", "edges"):
                values[name] = mine + getattr(other, name)
            elif not np.array_equal(mine, getattr(other, name)):
                label = "grids" if name == "edges" else name
                raise ValueError(f"cannot merge sums over different {label}")
        return type(self)(**values)

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


# ---------------------------------------------------------------------------
# strength-function accumulator


@dataclass
class StrengthReport(_Sums):
    """Mergeable raw sums for strength functions over H0 windows.

    windows are intervals on the standardized H0 axis, edges the histogram bin
    edges on the standardized H axis.
    """

    windows: np.ndarray
    edges: np.ndarray
    member_count: int = 0
    n_kappa: np.ndarray = _sum("win")
    weight: np.ndarray = _sum("win")
    sum_e0: np.ndarray = _sum("win")
    power_sums: np.ndarray = _sum("win", 4)  # sum of w * e^p, p = 1..4
    hist: np.ndarray = _sum("win", "bin")

    # -- accumulation ------------------------------------------------------

    def add_member(self, e0_hat: np.ndarray, e_hat: np.ndarray, overlap_sq: np.ndarray) -> None:
        """Add one member; a window's rows of W are summed in row order, as
        W[rows].sum(axis=0) sums them, into one vector."""
        powers = np.array([e_hat, e_hat**2, e_hat**3, e_hat**4])
        for i, (lo, hi) in enumerate(self.windows):
            rows = np.flatnonzero((e0_hat >= lo) & (e0_hat < hi))
            w = np.zeros(len(e_hat))
            for row in rows:
                w += overlap_sq[row]
            self.n_kappa[i] += rows.size
            self.weight[i] += float(w.sum())
            self.sum_e0[i] += float(e0_hat[rows].sum())
            self.power_sums[i] += powers @ w
            self.hist[i] += np.histogram(e_hat, bins=self.edges, weights=w)[0]
        self.member_count += 1

    # -- derived views -----------------------------------------------------

    @property
    def window_centers(self) -> np.ndarray:
        return self.windows.mean(axis=1)

    @property
    def e0_mean(self) -> np.ndarray:
        """Weight-averaged launch energy per window (nan where empty)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.n_kappa > 0, self.sum_e0 / self.n_kappa, np.nan)

    def f_values(self) -> np.ndarray:
        """Normalized strength density per window: integrates to 1 over the grid."""
        widths = np.diff(self.edges)
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.hist / (self.weight[:, None] * widths[None, :])

    def window_moments(self) -> dict[str, np.ndarray]:
        """Empirical mean/variance/gamma1/gamma2 per window from the raw weights."""
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(self.weight > 0, self.weight, np.nan)
            m1, m2, m3, m4 = self.power_sums.T / w
            var = m2 - m1**2
            mc3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
            mc4 = m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4
            return {
                "e0_mean": self.e0_mean,
                "mean": m1,
                "variance": var,
                "gamma1": mc3 / var**1.5,
                "gamma2": mc4 / var**2 - 3.0,
                "weight": self.weight.copy(),
                "n_kappa": self.n_kappa.copy(),
            }


def window_predictions(
    report: StrengthReport, qs: QParameterSet, m: int, t: int, k: int
) -> dict[str, np.ndarray]:
    """Predicted strength moments at each window's mean launch energy, nan where empty."""
    pred = strength_moment_prediction(report.e0_mean, qs, m, t, k)
    return {key: getattr(pred, key) for key in ("centroid", "variance", "gamma1", "gamma2")}


def predicted_f_values(report: StrengthReport, qs: QParameterSet) -> np.ndarray:
    """Benchmark density f_CqN(x | e0_mean; xi, q_hv) per window at the bin centers.

    The counterpart of report.f_values(); rows of empty windows are nan.
    """
    out = np.full(report.hist.shape, np.nan)
    for i, e0 in enumerate(report.e0_mean):
        if not math.isnan(e0):
            out[i] = f_cqn(report.bin_centers, float(e0), qs.xi, qs.q_hv)
    return out


def strength_l1(f_emp: np.ndarray, f_pred: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """L1 distance per window between two (windows x bins) densities on the bins of edges.

    Of f_values() and predicted_f_values(), whose benchmark density is taken at
    the bin centers, it measures both statistical noise and binning resolution.
    """
    return np.sum(np.abs(f_emp - f_pred) * np.diff(edges), axis=1)


# On the unit-width axis a centred window's e0_mean is summation rounding, at
# most n * eps * |e| (1e-11 for a million terms); launch energies are >> 1e-9.
_CENTER_E0 = 1e-9


def centroid_slope(e0, mean, w, e0_max: float | None = None) -> float:
    """Through-origin slope of window centroids mean against launch energies e0, weighted by w.

    The per-window arrays are as window_moments()' e0_mean, mean and weight.  Raises
    ValueError unless some window kept (finite, |e0| <= e0_max) has its launch energy
    off centre, beyond the rounding of a centred window's mean.
    """
    keep = np.isfinite(e0) & np.isfinite(mean)
    if e0_max is not None:
        keep &= np.abs(e0) <= e0_max
    if not np.any(keep & (np.abs(e0) > _CENTER_E0)):
        raise ValueError("no off-center windows available for a slope fit")
    num = float(np.sum(w[keep] * e0[keep] * mean[keep]))
    den = float(np.sum(w[keep] * e0[keep] ** 2))
    return num / den


# ---------------------------------------------------------------------------
# chaos measures


@dataclass
class ChaosMeasures(_Sums):
    """Binned number of principal components and information entropy.

    Per H eigenstate, ipr = sum_kappa W^2 and ent = -sum_kappa W ln W over its
    overlap column; bins collect sums and state counts so that
    npc = count / ipr_sum (the inverse of the bin-averaged ipr) and
    s_info = ent_sum / count.
    """

    edges: np.ndarray
    member_count: int = 0
    count: np.ndarray = _sum("bin")
    ipr_sum: np.ndarray = _sum("bin")
    ent_sum: np.ndarray = _sum("bin")

    def add_member(self, e_hat: np.ndarray, overlap_sq: np.ndarray, work: np.ndarray) -> None:
        """Bin one member; its scratch, W^2 and then W ln W, lies in the flat
        float work of at least W.size doubles.  W ln W is ln(max(W, smallest
        subnormal)) W: no positive entry changes, and W = 0 gives a -0.0 that no
        column sum sees, as every column of a doubly stochastic W has a positive entry."""
        terms = work[: overlap_sq.size].reshape(overlap_sq.shape)
        ipr = np.sum(np.square(overlap_sq, out=terms), axis=0)
        tiny = np.finfo(float).smallest_subnormal
        ent_terms = np.log(np.maximum(overlap_sq, tiny, out=terms), out=terms)
        ent_terms *= overlap_sq
        ent = -np.sum(ent_terms, axis=0)
        self.count += np.histogram(e_hat, bins=self.edges)[0]
        self.ipr_sum += np.histogram(e_hat, bins=self.edges, weights=ipr)[0]
        self.ent_sum += np.histogram(e_hat, bins=self.edges, weights=ent)[0]
        self.member_count += 1

    def npc(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.count > 0, self.count / self.ipr_sum, np.nan)

    def s_info(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.count > 0, self.ent_sum / self.count, np.nan)


# Composite Gauss-Legendre rule in theta for the NPC overlap integral: panel
# counts double from the first to the last until two successive sums agree.
_NPC_NODES = 16
_NPC_PANELS = (4, 2048)
_NPC_RTOL = 1e-6
# f_qN(y|q) underflows to 0 beyond |y| = 40 for every q, so wider supports
# (q > 0.9975, and the infinite q = 1 support) are cut there.
_NPC_Y_MAX = 40.0


def _theta_rule(panels: int, lim: float, q_h: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y = lim sin(theta) on (-lim, lim) and their weights f_qN(y|q_h) dy."""
    t, w = np.polynomial.legendre.leggauss(_NPC_NODES)
    half = 0.5 * math.pi / panels
    mids = half * (2 * np.arange(panels) + 1) - 0.5 * math.pi
    theta = (mids[:, None] + half * t).ravel()
    y = lim * np.sin(theta)
    return y, np.tile(w, panels) * half * lim * np.cos(theta) * f_qn(y, q_h)


def npc_integral(x: np.ndarray, qs: QParameterSet, dim: int) -> np.ndarray:
    """Analytic NPC curve: (dim/3) over the overlap integral of q-normal densities.

    NPC(x) = (dim/3) * [ integral dy f_qN(y|q_h) f_CqN(x|y; xi, q_hv)^2
                         / f_qN(x|q_H)^2 ]^{-1},
    integrated over the support (-lim, lim) of the smallest of the three q
    values, cut at |y| = 40 where the densities underflow.  With y = lim sin(theta) the square-root edges of the densities
    become smooth, and the theta integral is a composite 16-point
    Gauss-Legendre rule whose nodes and f_qN(y|q_h) weights are shared by every
    x; f_CqN(x|y)^2 = f_qN(x|q_hv)^2 h(y, x)^2 by the symmetry of h.  Entries
    where x falls outside the relevant supports (or the marginal underflows)
    are nan.  Raises QuadratureError when 1024 and 2048 panels still disagree
    by more than 1e-6 relative.
    """
    lim = min(support(min(qs.q_h, qs.q_H, qs.q_hv)).hi, _NPC_Y_MAX)
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(x.shape, np.nan)
    sup_h_big = support(qs.q_H)
    sup_hv = support(qs.q_hv)
    rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def overlap(xx: float, panels: int) -> float:
        if panels not in rules:
            rules[panels] = _theta_rule(panels, lim, qs.q_h)
        y, weights = rules[panels]
        h = h_factor(y, xx, qs.xi, qs.q_hv)
        return float(np.sum(weights * h * h))

    for i, xx in enumerate(x.tolist()):
        if not (sup_h_big.contains(xx) and sup_hv.contains(xx)):
            continue
        fx = f_qn(xx, qs.q_H)
        if fx < 1e-12:
            continue
        panels = _NPC_PANELS[0]
        val = overlap(xx, panels)
        while True:
            panels, prev = 2 * panels, val
            val = overlap(xx, panels)
            if abs(val - prev) <= _NPC_RTOL * abs(val):
                break
            if panels >= _NPC_PANELS[1]:
                raise QuadratureError(
                    f"NPC integral at x={xx}: {panels} panels give {val:.6e}, "
                    f"{panels // 2} give {prev:.6e}"
                )
        val *= f_qn(xx, qs.q_hv) ** 2
        out[i] = (dim / 3.0) / (val / fx**2)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# bivariate trace moments

_REDUCED_NAMES = ("mu11", "mu40", "mu04", "mu31", "mu13", "mu22")


def _reduced(traces: np.ndarray) -> np.ndarray:
    """Reduced moments in _REDUCED_NAMES order from the 12 centered traces."""
    t20, t11, t02, _, _, _, _, t40, t31, t22, t13, t04 = traces
    s1, s2 = math.sqrt(t20), math.sqrt(t02)
    return np.array([t11 / (s1 * s2), t40 / s1**4, t04 / s2**4,
                     t31 / (s1**3 * s2), t13 / (s1 * s2**3), t22 / (s1**2 * s2**2)])


@dataclass
class BivariateMomentAccumulator(_Sums):
    """Sums of per-member centered traces (1/d) tr(H0^P H^Q), P + Q <= 4.

    A member enters as its H0 eigenvalues e0, H eigenvalues e and strength
    matrix W.  In the H0 eigenbasis, with a = e0 - mean(e0), c = e - mean(e),
    T_PQ = (1/d) sum_kappa a_kappa^P (W c^Q)_kappa since (W c^Q)_kappa =
    <kappa|H_c^Q|kappa>.  That is exact for all 12 traces: each is a power of
    H0 times a power of H; no interleaved tr(h0 h h0 h) occurs through order 4.
    """

    member_count: int = 0
    trace_sums: np.ndarray = _sum(12)  # T20 T11 T02 T30 T21 T12 T03 T40 T31 T22 T13 T04
    value_sums: np.ndarray = _sum(6)  # per-member reduced moments, _REDUCED_NAMES order
    value_sq_sums: np.ndarray = _sum(6)

    def add_member(self, e0: np.ndarray, e: np.ndarray, overlap_sq: np.ndarray) -> None:
        d = len(e0)
        a, c = e0 - np.mean(e0), e - np.mean(e)
        a_pow = np.array([a, a**2, a**3, a**4])
        c_pow = np.array([c, c**2, c**3, c**4])
        # cross[P-1, Q-1] = T_PQ = (1/d) sum_kappa a_kappa^P <kappa|H_c^Q|kappa>
        cross = a_pow[:3] @ (overlap_sq @ c_pow[:3].T) / d
        t20, t30, t40 = a_pow[1:].sum(axis=1) / d
        t02, t03, t04 = c_pow[1:].sum(axis=1) / d
        (t11, t12, t13), (t21, t22, _), (t31, _, _) = cross
        traces = np.array([t20, t11, t02, t30, t21, t12, t03, t40, t31, t22, t13, t04])
        self.trace_sums += traces
        vals = _reduced(traces)
        self.value_sums += vals
        self.value_sq_sums += vals**2
        self.member_count += 1

    def finalize(self) -> dict:
        """The {key: value} table bivariate.csv holds, in its order.

        member_count, sigma_h0 and sigma_h, then per reduced moment its value from
        the ensemble-averaged traces and the mean and spread of the member values.
        """
        if self.member_count == 0:
            raise ValueError("no members accumulated")
        n = self.member_count
        traces = self.trace_sums / n
        mean, mean_sq = self.value_sums / n, self.value_sq_sums / n
        var = mean_sq - mean**2
        # within the one-pass formula's rounding bound the spread is unresolved
        var[var <= (n + 2) * np.finfo(float).eps * mean_sq] = 0.0
        table = {"member_count": n, "sigma_h0": math.sqrt(traces[0]),
                 "sigma_h": math.sqrt(traces[2])}
        for name, value, member_mean, member_std in zip(
                _REDUCED_NAMES, _reduced(traces).tolist(), mean, np.sqrt(var)):
            table |= {name: value, f"{name}_member_mean": member_mean,
                      f"{name}_member_std": member_std}
        return table
