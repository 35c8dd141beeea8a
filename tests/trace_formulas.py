"""Closed-form ensemble moments that only the tests compare against.

The package predicts strength-function moments; these formulas describe other
moments of the same ensemble and check the simulator from outside it:

* bivariate_moments is the paper's prediction of the reduced (H0, H) moments
  mu_PQ through fourth order, which gate 08 compares with the simulated
  ensemble's bivariate.csv values;
* trace_variance and centered_trace_variance are exact ensemble averages of
  the width of an embedded rank-r GOE, before and after centring each member.
"""

from dataclasses import dataclass

from qstrength.bca import QParameterSet, binom


@dataclass(frozen=True)
class BivariateMomentSet:
    """Reduced bivariate moments mu_PQ = <H0^P H^Q> / (sigma_H0^P sigma_H^Q)."""

    mu11: float
    mu40: float
    mu04: float
    mu31: float
    mu13: float
    mu22: float


def bivariate_moments(qs: QParameterSet) -> BivariateMomentSet:
    """Reduced bivariate (H0, H) moments through fourth order."""
    xi, xi_sq = qs.xi, qs.xi_sq
    mu40 = 2.0 + qs.q_h
    return BivariateMomentSet(
        mu11=xi,
        mu40=mu40,
        mu04=2.0 + qs.q_H,
        mu31=xi * mu40,
        mu13=xi * (2.0 + xi_sq * qs.q_h + (1.0 - xi_sq) * qs.q_hv),
        mu22=xi_sq * mu40 + (1.0 - xi_sq),
    )


def trace_variance(N: int, m: int, r: int) -> int:
    """Exact ensemble-averaged <W^2> = tr(W^2)/dim for an embedded rank-r GOE, unit v.

    Equals lambda_capital(N, m, r) plus the binom(m, r) diagonal-doubling term
    of the defining GOE (diagonal entries carry variance 2).
    """
    return binom(m, r) * (binom(N - m + r, r) + 1)


def centered_trace_variance(N: int, m: int, r: int) -> float:
    """Exact ensemble mean of the per-member centered width tr(W^2)/d - (tr W/d)^2.

    Every m-particle diagonal element sums the C(N-r, m-r)-fold repeats of the
    rank-r diagonal couplings, so the fluctuating spectrum centroid carries
    variance 2 C(N,r) [C(N-r, m-r)/d]^2, which subtracts from trace_variance.
    Spectra standardized member by member see exactly this variance scale.
    """
    d = binom(N, m)
    centroid_var = 2.0 * binom(N, r) * (binom(N - r, m - r) / d) ** 2
    return trace_variance(N, m, r) - centroid_var
