"""Test oracles for the q-normal densities: q-Hermite polynomials, the
bivariate density, and adaptive-quadrature moments of the conditional density.

These are the slow, independent cross-checks of qstrength.qnormal: scipy's
adaptive quad integrates f_CqN(x | y; xi, q) against polynomials in x, with no
shared code path with the closed forms they check.  They live with the tests
because the package needs neither them nor scipy.

The q-Hermite polynomials H_n(x|q) follow the three-term recurrence
H_{n+1} = x H_n - [n]_q H_{n-1} with [n]_q = (1-q^n)/(1-q); at q = 1 they
reduce to the probabilists' Hermite polynomials.
"""

import numpy as np
from scipy.integrate import quad

from qstrength.qnormal import (
    QuadratureError,
    _check_q,
    _check_xi,
    f_cqn,
    f_qn,
    h_factor,
    support,
)


def q_hermite(n: int, x, q: float):
    """H_n(x | q) by the three-term recurrence; vectorized over x.

    H_0 = 1, H_1 = x, H_{n+1}(x|q) = x H_n(x|q) - [n]_q H_{n-1}(x|q) with the
    q-number [n]_q = (1-q^n)/(1-q) ([n]_1 = n).  q = 1 gives He_n(x).
    """
    if n < 0:
        raise ValueError("polynomial order must be >= 0")
    q = _check_q(q)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for j in range(1, n):
        qnum = j if q == 1.0 else (1.0 - q**j) / (1.0 - q)
        h, h_prev = x * h - qnum * h_prev, h
    return h if h.ndim else float(h)


def f_biv_qn(x, y: float, xi: float, q: float):
    """Bivariate q-normal density f_biv_qN(x, y | xi, q), vectorized over x."""
    return f_qn(x, q) * f_qn(y, q) * h_factor(x, y, xi, q)


def _quad_cqn(func, y: float, xi: float, q: float, tol: float) -> float:
    sup = support(q)
    val, err = quad(
        lambda x: func(x) * f_cqn(x, y, xi, q),
        sup.lo,
        sup.hi,
        epsabs=0.1 * tol,
        epsrel=0.1 * tol,
        limit=400,
    )
    if err > tol:
        raise QuadratureError(f"integral error estimate {err:.3e} exceeds tolerance {tol:.3e}")
    return val


def cqn_moment_quadrature(order: int, y: float, xi: float, q: float, tol: float = 1e-8) -> float:
    """Central moment E[(x - xi*y)^order] of f_CqN by adaptive quadrature.

    Order 0 returns the normalization integral.  Raises QuadratureError when
    the integrator's error estimate exceeds tol.  This is the slow, independent
    cross-check for the closed forms in cqn_conditional_moments.
    """
    if order < 0:
        raise ValueError("moment order must be >= 0")
    q = _check_q(q)
    xi = _check_xi(xi)
    mean = xi * float(y)
    return _quad_cqn(lambda x: (x - mean) ** order, y, xi, q, tol)


def verify_cqn_reproducing(n: int, y: float, xi: float, q: float, tol: float = 1e-8) -> float:
    """Residual |integral(H_n(x|q) f_CqN(x|y)) - xi^n H_n(y|q)|.

    The conditional density reproduces q-Hermite polynomials with eigenvalue
    xi^n; the returned residual is the quadrature-measured violation.
    """
    q = _check_q(q)
    xi = _check_xi(xi)
    lhs = _quad_cqn(lambda x: q_hermite(n, x, q), y, xi, q, tol)
    rhs = xi**n * q_hermite(n, float(y), q)
    return abs(lhs - rhs)
