"""Moment parameters for m fermions with a mean field plus k-body interaction.

A system of m fermions in N single-particle states is driven by
H = H0(t) + lam * V(k): a rank-t "mean-field" part and a rank-k interaction,
both drawn from Gaussian orthogonal ensembles in the t- and k-particle spaces
and embedded into the m-particle space.  In the dilute limit the eigenvalue
densities of H0, V and H, together with the strength functions connecting the
H0 and H eigenbases, approach members of the q-normal family.  This module
supplies the closed combinatorics behind that statement:

* variance bookkeeping: the correlation coefficient xi between H0 and H
  eigenvalues, in both the N -> infinity form and a finite-N form built from
  exact ensemble-averaged trace variances;
* the fourth-moment shape parameters q_h (for H0), q_v (for V), q_hv (the
  cross parameter entering strength functions) and the composed q_H for H,
  again as N -> infinity ratios of binomials and as finite-N sums over
  irreducible rank contributions;
* the predicted centroid, variance, skewness and excess kurtosis of a
  strength function originating from an H0 eigenvalue, including the
  correction term that goes beyond the conditional q-normal form.

All binomials are exact integers; out-of-range binomials count zero ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .qnormal import cqn_conditional_moments

__all__ = [
    "SystemParams",
    "QParameterSet",
    "StrengthMomentPrediction",
    "binom",
    "bold_lambda_sq",
    "xi_infinite",
    "lambda_thermo",
    "lam_from_bold",
    "q_params_infinite",
    "lambda_capital",
    "d_weight",
    "xi_sq_finite",
    "lam_for_xi_sq",
    "resolve_system",
    "q_hv_finite",
    "q_params_finite",
    "strength_moment_prediction",
    "delta_table_rows",
    "composition_table_rows",
]


def binom(n: int, r: int) -> int:
    """Exact binomial coefficient, 0 whenever (n, r) is outside Pascal's triangle."""
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


@dataclass(frozen=True)
class SystemParams:
    """System definition: m fermions in N orbitals, H = H0(rank t) + lam*V(rank k).

    Requires 1 <= t < k <= m <= N; the degenerate t = k case is rejected since
    H0 and V would then act in the same particle-rank space and the two-scale
    decomposition loses its meaning.
    """

    N: int
    m: int
    t: int
    k: int
    lam: float = 0.0

    def __post_init__(self) -> None:
        for name in ("N", "m", "t", "k"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{name} must be an integer, got {v!r}")
        if not 1 <= self.t:
            raise ValueError("mean-field rank t must be >= 1")
        if self.t == self.k:
            raise ValueError("t = k is degenerate; the interaction rank must exceed t")
        if not self.t < self.k <= self.m <= self.N:
            raise ValueError(
                f"need t < k <= m <= N, got t={self.t} k={self.k} m={self.m} N={self.N}"
            )
        if not (self.lam >= 0.0):
            raise ValueError("coupling lam must be >= 0")
        if not math.isfinite(self.lam * self.lam):
            raise ValueError("coupling lam must be finite")

    @property
    def dim(self) -> int:
        return binom(self.N, self.m)

    @property
    def xi_sq_finite(self) -> float:
        return xi_sq_finite(self.N, self.m, self.t, self.k, self.lam)

    @property
    def qs_finite(self) -> QParameterSet | None:
        """Finite-N q parameters, or None when predictions do not apply (xi^2 not in (0, 1))."""
        xi_sq = self.xi_sq_finite
        if not 0.0 < xi_sq < 1.0:
            return None
        return q_params_finite(self.N, self.m, self.t, self.k, xi_sq)


@dataclass(frozen=True)
class QParameterSet:
    """Fourth-moment shape parameters plus the variance fraction xi^2 of H0 in H."""

    q_h: float
    q_v: float
    q_hv: float
    q_H: float
    xi_sq: float

    @property
    def xi(self) -> float:
        return math.sqrt(self.xi_sq)


@dataclass(frozen=True)
class StrengthMomentPrediction:
    """Predicted shape of a strength function launched from H0 eigenvalue e_hat_kappa.

    Moments are in standardized units (both spectra scaled to zero centroid and
    unit width).  mu4_leading is the conditional-q-normal fourth moment (in
    units of the variance squared); delta is the relative correction beyond it,
    and gamma2 = mu4_leading*(1 + delta) - 3.
    """

    e_hat_kappa: float
    centroid: float
    variance: float
    gamma1: float
    gamma2: float
    mu4_leading: float
    delta: float


# ---------------------------------------------------------------------------
# variance bookkeeping


def bold_lambda_sq(p: SystemParams) -> float:
    """Interaction variance rescaled to the mean-field rank: binom(N,k)/binom(N,t) * lam^2."""
    return binom(p.N, p.k) / binom(p.N, p.t) * p.lam**2


def xi_infinite(p: SystemParams) -> float:
    """N -> infinity correlation coefficient sigma_H0 / sigma_H."""
    bl = bold_lambda_sq(p)
    ct, ck = binom(p.m, p.t), binom(p.m, p.k)
    return math.sqrt(ct / (ct + bl * ck))


def lambda_thermo(m: int, t: int, k: int) -> float:
    """Rescaled variance (bold lambda squared) at which xi^2 = 1/2.

    Equal contributions of mean field and interaction to sigma_H^2; for t = 1
    this is m / binom(m, k).
    """
    return binom(m, t) / binom(m, k)


def lam_from_bold(bold_sq: float, N: int, t: int, k: int) -> float:
    """Bare coupling lam corresponding to a rescaled variance bold_sq."""
    return math.sqrt(bold_sq * binom(N, t) / binom(N, k))


# ---------------------------------------------------------------------------
# N -> infinity q parameters


def q_params_infinite(m: int, t: int, k: int, xi_sq: float) -> QParameterSet:
    """Dilute-limit shape parameters as plain binomial ratios.

    q_h = binom(m-t, t)/binom(m, t), q_v = binom(m-k, k)/binom(m, k),
    q_hv = binom(m-t, k)/binom(m, k), and for H the variance-weighted mix
    q_H = xi^4 q_h + (1-xi^2)^2 q_v + 2 xi^2 (1-xi^2) q_hv.
    """
    q_h = binom(m - t, t) / binom(m, t)
    q_v = binom(m - k, k) / binom(m, k)
    q_hv = binom(m - t, k) / binom(m, k)
    return QParameterSet(q_h, q_v, q_hv, _compose_q_big(q_h, q_v, q_hv, xi_sq), xi_sq)


def _compose_q_big(q_h: float, q_v: float, q_hv: float, xi_sq: float) -> float:
    return xi_sq**2 * q_h + (1.0 - xi_sq) ** 2 * q_v + 2.0 * xi_sq * (1.0 - xi_sq) * q_hv


# ---------------------------------------------------------------------------
# finite-N combinatorics


def lambda_capital(n_orb: int, m: int, r: int, nu: int = 0) -> int:
    """Pair-counting weight binom(m - nu, r) * binom(n_orb - m + r - nu, r)."""
    return binom(m - nu, r) * binom(n_orb - m + r - nu, r)


def d_weight(n_orb: int, nu: int) -> int:
    """Multiplicity of the irreducible rank-nu contribution: binom(N,nu)^2 - binom(N,nu-1)^2."""
    return binom(n_orb, nu) ** 2 - binom(n_orb, nu - 1) ** 2


def q_hv_finite(N: int, m: int, t: int, k: int) -> float:
    """Finite-N cross parameter of the rank-t and rank-k spectra; t = k gives one rank's q."""
    num = sum(
        lambda_capital(N, m, k, nu) * lambda_capital(N, m, m - t, nu) * d_weight(N, nu)
        for nu in range(min(t, m - k) + 1)
    )
    return num / (binom(N, m) * lambda_capital(N, m, t) * lambda_capital(N, m, k))


def xi_sq_finite(N: int, m: int, t: int, k: int, lam: float) -> float:
    """Finite-N variance fraction sigma_H0^2 / sigma_H^2.

    Partial variances are taken proportional to the leading pair-counting
    weights lambda_capital(N, m, t) and lam^2 * lambda_capital(N, m, k),
    which recovers the dilute-limit ratio as N grows.
    """
    s_t = lambda_capital(N, m, t)
    s_k = lambda_capital(N, m, k)
    return s_t / (s_t + lam**2 * s_k)


def lam_for_xi_sq(N: int, m: int, t: int, k: int, xi_sq: float) -> float:
    """Bare coupling that realizes a requested finite-N variance fraction xi^2."""
    if not 0.0 < xi_sq < 1.0:
        raise ValueError("xi_sq target must lie strictly between 0 and 1")
    ratio = lambda_capital(N, m, t) / lambda_capital(N, m, k)
    return math.sqrt((1.0 - xi_sq) / xi_sq * ratio)


def resolve_system(N: int, m: int, t: int, k: int, lam=None, xi_sq=None) -> SystemParams:
    """The system with coupling lam, or with the lam that realizes the finite-N xi_sq.

    Exactly one coupling is given; N, m, t, k are validated before any is solved for.
    """
    if (lam is None) == (xi_sq is None):
        raise ValueError("set exactly one of the couplings lam and xi_sq")
    params = SystemParams(N, m, t, k)
    if xi_sq is not None:
        lam = lam_for_xi_sq(N, m, t, k, xi_sq)
    return replace(params, lam=lam)


def q_params_finite(N: int, m: int, t: int, k: int, xi_sq: float) -> QParameterSet:
    """Finite-N shape parameters with the same q_H composition as the dilute limit."""
    q_h = q_hv_finite(N, m, t, t)
    q_v = q_hv_finite(N, m, k, k)
    q_hv = q_hv_finite(N, m, t, k)
    return QParameterSet(q_h, q_v, q_hv, _compose_q_big(q_h, q_v, q_hv, xi_sq), xi_sq)


# ---------------------------------------------------------------------------
# strength-function moment predictions


def strength_moment_prediction(
    e_hat, qs: QParameterSet, m: int, t: int, k: int
) -> StrengthMomentPrediction:
    """Moments of the strength function launched from standardized energy e_hat.

    Centroid, variance, gamma1 and the leading fourth moment are those of the
    conditional q-normal f_CqN(x | e_hat; xi, q_hv); delta is the relative
    fourth-moment correction beyond that form, built from q_v - q_hv and the
    cross term X = (q_hv/2) * (binom(m-k-t, k)/binom(m, k) - q_hv).  e_hat may
    be a float or an array; a nan e_hat gives nan moments.
    """
    if not 0.0 < qs.xi_sq < 1.0:
        raise ValueError("prediction needs 0 < xi^2 < 1 (finite mixing of H0 and V)")
    mom = cqn_conditional_moments(e_hat, qs.xi, qs.q_hv)
    mu4_leading = mom.gamma2 + 3.0
    x_term = 0.5 * qs.q_hv * (binom(m - k - t, k) / binom(m, k) - qs.q_hv)
    delta0 = (qs.q_v - qs.q_hv) + x_term * qs.xi_sq * (e_hat * e_hat - 1.0) / mom.variance
    delta = delta0 / mu4_leading
    return StrengthMomentPrediction(
        e_hat_kappa=e_hat, centroid=mom.mean, variance=mom.variance, gamma1=mom.gamma1,
        gamma2=mu4_leading * (1.0 + delta) - 3.0, mu4_leading=mu4_leading, delta=delta,
    )


# ---------------------------------------------------------------------------
# benchmark tables


def delta_table_rows(N: int, m: int) -> list[dict]:
    """Finite-N vs dilute-limit q parameters and fourth-moment corrections, t = 1.

    One row per interaction rank k = 2..m at xi^2 = 1/2; delta columns are the
    relative fourth-moment corrections at the standardized energies 0, 1 and 2,
    evaluated with the finite-N parameters.
    """
    t = 1
    rows = []
    for k in range(2, m + 1):
        fin = q_params_finite(N, m, t, k, 0.5)
        inf_ = q_params_infinite(m, t, k, 0.5)
        row = {"N": N, "m": m, "t": t, "k": k}
        for name in ("q_h", "q_v", "q_hv"):
            row |= {name: getattr(fin, name), f"{name}_inf": getattr(inf_, name)}
        for e in (0.0, 1.0, 2.0):
            row[f"delta_{e:g}"] = strength_moment_prediction(e, fin, m, t, k).delta
        rows.append(row)
    return rows


def composition_table_rows() -> list[dict]:
    """Finite-N q_h, q_v, q_hv and composed q_H at t = 2, xi^2 = 1/2.

    The t = k = 2 rows are included deliberately: the q-parameter combinatorics
    remain well defined there (all four parameters coincide) even though the
    two-scale SystemParams model excludes that case.
    """
    t = 2
    rows = []
    for N, m in ((12, 6), (24, 8), (40, 12)):
        for k in (2, 3, 4):
            qs = q_params_finite(N, m, t, k, 0.5)
            rows.append({"N": N, "m": m, "t": t, "k": k,
                         **{name: getattr(qs, name) for name in ("q_h", "q_v", "q_hv", "q_H")}})
    return rows
