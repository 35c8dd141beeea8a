"""q-normal distributions and the conditional density.

The q-normal family interpolates between the semicircle law (q = 0) and the
standard Gaussian (q = 1) while keeping zero mean and unit variance.  The
bivariate extension carries a correlation parameter xi; dividing the bivariate
density by the two marginals leaves a coupling factor h(x, y | xi, q), and the
conditional density f_CqN(x | y; xi, q) = f_qN(x | q) * h(x, y | xi, q) is the
smooth benchmark curve used for strength functions, with closed-form moments.
All densities are infinite products over powers of q, evaluated in log space,
truncated per q below machine precision and summed in blocks of at most
1024 points x 4096 factors, so that no temporary grows with the grid.

Conventions: the univariate support is (-2/sqrt(1-q), +2/sqrt(1-q)), open at
the endpoints where the density vanishes like a square root; densities are 0
outside and exactly on the boundary.  At q = 1 the densities reduce to
(bivariate) Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Support",
    "ConditionalMoments",
    "support",
    "f_qn",
    "h_factor",
    "f_cqn",
    "cqn_conditional_moments",
    "QuadratureError",
]

# Truncation control for the infinite products: keep factors until q^k drops
# below _FACTOR_EPS (tail of the log-sum is then ~q^K/(1-q), negligible for
# every q this cap can reach).  Beyond the cap the product cannot converge in
# reasonable time and the density is indistinguishable from the Gaussian limit,
# so evaluation dispatches to the closed form.
_FACTOR_EPS = 1e-16
_MAX_FACTORS = 2_000_000
_BLOCK_POINTS, _BLOCK_FACTORS = 1024, 4096


class QuadratureError(RuntimeError):
    """Raised when a quadrature's estimated error exceeds the requested tolerance."""


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 <= q <= 1.0 or math.isnan(q):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return q


def _check_xi(xi: float) -> float:
    xi = float(xi)
    if not abs(xi) < 1.0:
        raise ValueError(f"|xi| must be < 1, got {xi}")
    return xi


def _num_factors(q: float) -> int:
    if q <= 0.0:
        return 1
    n = int(math.ceil(math.log(_FACTOR_EPS) / math.log(q))) + 1
    return min(n, _MAX_FACTORS)


def _gaussian_regime(q: float) -> bool:
    """True when the product form is dropped in favour of the Gaussian limit."""
    return q >= 1.0 or (q > 0.0 and math.log(_FACTOR_EPS) / math.log(q) > _MAX_FACTORS)


@lru_cache(maxsize=64)
def _q_powers(q: float) -> np.ndarray:
    """Powers q^0 .. q^K with q^K < _FACTOR_EPS (or the hard cap)."""
    return q ** np.arange(_num_factors(q) + 1)


@dataclass(frozen=True)
class Support:
    """Open interval on which a q-normal density is positive."""

    lo: float
    hi: float

    def contains(self, x) -> np.ndarray | bool:
        """Strict interior test; the density is 0 on the boundary itself."""
        return (np.asarray(x) > self.lo) & (np.asarray(x) < self.hi)


@dataclass(frozen=True)
class ConditionalMoments:
    """Closed-form moments of f_CqN(x | y; xi, q)."""

    mean: float
    variance: float
    gamma1: float
    gamma2: float


def support(q: float) -> Support:
    q = _check_q(q)
    if q == 1.0:
        return Support(-math.inf, math.inf)
    half = 2.0 / math.sqrt(1.0 - q)
    return Support(-half, half)


def _log_product(x: np.ndarray, powers: np.ndarray, log_factors, start=0.0) -> np.ndarray:
    """start + the row sums of log_factors(x, powers), a (points x factors) array.

    log_factors is evaluated on blocks of at most _BLOCK_POINTS points and
    _BLOCK_FACTORS factors; each point adds its factor blocks in order, so its
    bits do not depend on how many other points share the call.
    """
    out = np.array(np.broadcast_to(start, x.shape), dtype=float)
    for i in range(0, len(x), _BLOCK_POINTS):
        rows = slice(i, i + _BLOCK_POINTS)
        for s in range(0, len(powers), _BLOCK_FACTORS):
            out[rows] += np.sum(log_factors(x[rows], powers[s : s + _BLOCK_FACTORS]), axis=-1)
    return out


def _log_f_qn_interior(x: np.ndarray, q: float) -> np.ndarray:
    """log f_qN at points strictly inside the support (product form, q < 1)."""
    p = _q_powers(q)
    c = 1.0 - q
    x2 = x * x
    # constant part: sqrt(1-q) * prod_{j>=1}(1-q^j) / (2*pi)
    const = 0.5 * math.log(c) + float(np.sum(np.log1p(-p[1:]))) - math.log(2.0 * math.pi)
    start = np.full(x.shape, const) - 0.5 * np.log(4.0 - c * x2)
    return _log_product(
        x2, p, lambda x2b, pc: np.log((1.0 + pc) ** 2 - c * np.multiply.outer(x2b, pc)), start
    )


def f_qn(x, q: float):
    """Univariate q-normal density f_qN(x | q); zero on and outside the support."""
    q = _check_q(q)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x1 = np.atleast_1d(x)
    if _gaussian_regime(q):
        out = np.exp(-0.5 * x1 * x1) / math.sqrt(2.0 * math.pi)
    else:
        out = np.zeros(x1.shape)
        inside = 4.0 - (1.0 - q) * x1 * x1 > 0.0
        out[inside] = np.exp(_log_f_qn_interior(x1[inside], q))
    return float(out[0]) if scalar else out.reshape(x.shape)


def _log_h_gauss(x: np.ndarray, y: float, xi: float) -> np.ndarray:
    v = 1.0 - xi * xi
    return -0.5 * math.log(v) - (xi * xi * (x * x + y * y) - 2.0 * xi * x * y) / (2.0 * v)


def h_factor(x, y: float, xi: float, q: float):
    """Bivariate coupling factor h(x, y | xi, q) = f_biv_qN / (f_qN(x) f_qN(y)).

    Symmetric in (x, y) on the support; equal to 1 there when xi = 0.  For
    q < 1, h is 0 at x on or outside the support of f_qN(.|q), where f_qN(x)
    vanishes too; y is expected inside it, and a y outside it that makes a
    product factor lose positivity raises ValueError.
    """
    q = _check_q(q)
    xi = _check_xi(xi)
    y = float(y)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x1 = np.atleast_1d(x)
    if _gaussian_regime(q):
        out = np.exp(_log_h_gauss(x1, y, xi))
    else:
        def log_factors(xb: np.ndarray, pc: np.ndarray) -> np.ndarray:
            p2 = pc * pc
            num = 1.0 - xi * xi * pc
            den = (
                (1.0 - xi * xi * p2) ** 2
                - (1.0 - q) * xi * np.multiply.outer(xb * y, pc * (1.0 + xi * xi * p2))
                + (1.0 - q) * xi * xi * np.multiply.outer(xb * xb + y * y, p2)
            )
            if np.any(den <= 0.0):
                raise ValueError("h_factor undefined: arguments outside the q-normal support")
            return np.log(num) - np.log(den)

        out = np.zeros(x1.shape)
        inside = support(q).contains(x1)
        out[inside] = np.exp(_log_product(x1[inside], _q_powers(q), log_factors))
    return float(out[0]) if scalar else out.reshape(x.shape)


def f_cqn(x, y: float, xi: float, q: float):
    """Conditional q-normal density f_CqN(x | y; xi, q) = f_qN(x|q) h(x, y|xi, q).

    y must lie inside the support of f_qN(.|q).  Normalized to 1 in x; its
    closed-form moments are available via cqn_conditional_moments.
    """
    q = _check_q(q)
    if not _gaussian_regime(q) and not support(q).contains(y):
        raise ValueError(f"conditioning point y={y} outside the q-normal support")
    return f_qn(x, q) * h_factor(x, y, xi, q)


def cqn_conditional_moments(y, xi: float, q: float) -> ConditionalMoments:
    """Closed-form mean, variance, skewness and excess kurtosis of f_CqN(x|y), elementwise in y.

    mean = xi*y, variance = 1 - xi^2,
    gamma1 = -xi (1-q) y / sqrt(1 - xi^2),
    gamma2 = (q-1) + [(1-q)^2 xi^2 y^2 + xi^2 (1-q^2)] / (1 - xi^2).
    """
    q = _check_q(q)
    xi = _check_xi(xi)
    v = 1.0 - xi * xi
    gamma1 = -xi * (1.0 - q) * y / math.sqrt(v)
    gamma2 = (q - 1.0) + ((1.0 - q) ** 2 * xi * xi * y * y + xi * xi * (1.0 - q * q)) / v
    # v + 0*y is v shaped like y, and nan where y is nan
    return ConditionalMoments(mean=xi * y, variance=v + 0.0 * y, gamma1=gamma1, gamma2=gamma2)
