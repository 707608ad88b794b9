"""Deviation bounds for Gaussian sample covariance with a variance profile.

The library computes the scalar parameters and closed-form bounds for
||X X^T - E X X^T|| where X_ij = b_ij g_ij, verifies the underlying
per-shape combinatorics exactly at desk scale, and estimates the same
quantities by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundConfig,
    BoundReport,
    chz_bound,
    diagonal_bound,
    free_probability_bound,
    kl_comparator,
    lower_bound_opnorm,
    lower_bound_schatten,
    main_upper_bound,
    schatten_upper_bound,
)
from .montecarlo import (
    MomentEstimate,
    SimConfig,
    estimate_deviation,
)
from .oracle import (
    ExactMoment,
    diag_trace_moment,
    full_trace_moment,
    joint_moment,
    joint_moment_table,
    offdiag_trace_moment,
)
from .params import (
    ProfileParams,
    SchattenParams,
    compute_params,
    compute_schatten_params,
)
from .profile import (
    ProfileDomainError,
    ProfileFormatError,
    ResourceLimitError,
    VarianceProfile,
    bounded_ratio,
    load_profile,
    rank_one,
)
from .shapes import (
    CeilingWitness,
    Shape,
    L_value,
    W_value,
    check_opnorm_ceiling,
    check_schatten_ceiling,
    enumerate_shapes,
    trace_moment_via_shapes,
)

__all__ = [
    "__version__",
    "VarianceProfile", "load_profile", "rank_one", "bounded_ratio",
    "ProfileFormatError", "ProfileDomainError", "ResourceLimitError",
    "ProfileParams", "SchattenParams", "compute_params", "compute_schatten_params",
    "BoundConfig", "BoundReport", "main_upper_bound", "schatten_upper_bound", "diagonal_bound",
    "chz_bound", "free_probability_bound",
    "lower_bound_schatten", "lower_bound_opnorm", "kl_comparator",
    "Shape", "CeilingWitness", "enumerate_shapes",
    "L_value", "W_value", "trace_moment_via_shapes",
    "check_opnorm_ceiling", "check_schatten_ceiling",
    "ExactMoment", "joint_moment", "joint_moment_table",
    "offdiag_trace_moment", "diag_trace_moment", "full_trace_moment",
    "SimConfig", "MomentEstimate",
    "estimate_deviation",
]
