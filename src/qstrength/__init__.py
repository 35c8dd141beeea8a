"""Strength functions of fermionic systems with k-body interactions.

Analytic machinery (q-normal family, binary-correlation moment formulas,
finite-N combinatorics) plus a seeded Monte-Carlo embedded-ensemble simulator
that cross-validates the analytic predictions.
"""

from .bca import (
    QParameterSet,
    SystemParams,
    q_params_finite,
    q_params_infinite,
    strength_moment_prediction,
)
from .ensemble import RunConfig, run_ensemble
from .qnormal import f_cqn, f_qn, support

__version__ = "0.1.0"

__all__ = [
    "QParameterSet",
    "SystemParams",
    "RunConfig",
    "f_cqn",
    "f_qn",
    "q_params_finite",
    "q_params_infinite",
    "run_ensemble",
    "strength_moment_prediction",
    "support",
    "__version__",
]
