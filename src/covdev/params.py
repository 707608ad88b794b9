"""Scalar parameters of a variance profile.

All quantities are functions of the d x n matrix B = (b_ij):

    sigma_C^2        = max_j sum_i b_ij^2          (largest column norm, squared)
    sigma_R^2        = max_i sum_j b_ij^2          (largest row norm, squared)
    sigma_star       = max_ij b_ij
    sigma_tilde^2    = max_{i != l} sum_j b_ij^2 b_lj^2
    sigma_bar^2      = max_i sum_j b_ij^4
    sigma_inf^2      = max_i sum_j sum_{l != i} b_ij^2 b_lj^2
    beta_inf         = sigma_tilde * sigma_C / (sigma_inf * sigma_star)
    eff_rank         = (sum_ij b_ij^2) / sigma_R^2

and, for an even Schatten order p >= 2,

    sigma_p^p        = sum_i [ sum_j sum_{l in [d]}  b_ij^2 b_lj^2 ]^{p/2}
    sigma_p_prime^p  = sum_i [ sum_j sum_{l != i}    b_ij^2 b_lj^2 ]^{p/2}
    sigma_bar_p^p    = sum_i [ sum_j b_ij^4 ]^{p/2}
    b_p^{2p}         = sum_i max_j b_ij^{2p}
    beta_p           = sigma_bar_p * sigma_C / (sigma_p * b_p)

Zero-denominator convention for the betas: 0/0 -> 0 (selects the branch whose
leading term then vanishes), positive/0 -> +inf.  For d = 1 the maxima over
i != l are empty and sigma_tilde = sigma_inf = 0.

Each parameter is homogeneous in B, of degree

    1   sigma_C, sigma_R, sigma_star, b_p
    2   sigma_tilde, sigma_bar, sigma_inf, sigma_p, sigma_p_prime, sigma_bar_p
    0   beta_inf, beta_p, eff_rank

This is the one module that knows a profile's scale.  With e =
frexp(max_ij b_ij)[1] rounded up to even, the parameters of 2^-e B are
computed once per profile object and kept on it (`normalized_params`,
`normalized_schatten_params`), and `compute_params` and
`compute_schatten_params` return them times 2^(degree * e), inf on overflow.
An exact profile whose cells all lie below the normal range is normalised
from its exact cells, which its float cells have lost.
Power-of-two scaling is exact while no value leaves the normal range
(N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
2002, sec. 2.1): outputs at normal scales are those of B itself, and across
the float range they scale exactly by powers of two, the betas not at all.
The exception is a Schatten root, and so beta_p.  It is taken of the
full-scale sum where that is normal, which keeps the plain root there, else
of the normalised sum; libm's pow is not correctly rounded, so the switch can
move it in the last place, and for p >= 6, where 1/p is rounded, it drifts
from the power-of-two image by up to about 1e-14 relative.  Float reductions
use numpy's pairwise accumulation; max-reductions are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .profile import VarianceProfile


@dataclass(frozen=True)
class ProfileParams:
    sigma_C: float
    sigma_R: float
    sigma_star: float
    sigma_tilde_inf: float
    sigma_bar_inf: float
    sigma_inf: float
    beta_inf: float  # extended real, may be math.inf
    eff_rank: float


@dataclass(frozen=True)
class SchattenParams:
    p: int
    sigma_p: float
    sigma_p_prime: float
    sigma_bar_p: float
    b_p: float
    beta_p: float


def _beta(numer: float, denom: float) -> float:
    if denom > 0:
        return numer / denom
    if numer > 0:
        return math.inf
    return 0.0


# degree of homogeneity in B of each parameter of degree 1 or 2
_DEGREE = {
    "sigma_C": 1, "sigma_R": 1, "sigma_star": 1, "b_p": 1, "sigma_tilde_inf": 2, "sigma_bar_inf": 2,
    "sigma_inf": 2, "sigma_p": 2, "sigma_p_prime": 2, "sigma_bar_p": 2,
}


def _ldexp(x: float, k: int) -> float:
    """x * 2^k, inf where that overflows (math.ldexp raises instead)."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _rescaled(e: int, P):
    """Parameters of 2^-e B turned into those of B."""
    return replace(P, **{f: _ldexp(getattr(P, f), k * e) for f, k in _DEGREE.items() if hasattr(P, f)})


def _pair_sums(B: VarianceProfile) -> tuple[int, np.ndarray, np.ndarray]:
    """(e, S, A) with S = (2^-e B)^2 entrywise and A = S @ S.T, so
    2^(4e) A_il = sum_j b_ij^2 b_lj^2."""
    values = B.as_array()
    if B.exact and not B.is_zero and values.max() < sys.float_info.min:
        # every cell is below the normal range, where its float has lost it:
        # scale the exact cells into range by an even power of two 2^s first
        nums, den = B.numerators
        s = den.bit_length() - nums.max().bit_length() + 2
        s += s % 2
        e, S, A = _pair_sums(VarianceProfile._of(nums << s, den))
        return e - s, S, A
    e = math.frexp(float(values.max()))[1]
    e += e % 2
    S = np.ldexp(values, -e)
    S *= S
    return e, S, S @ S.T


def _once(B: VarianceProfile, key, build, *args):
    """build(B, *args), evaluated once per profile object and kept on it."""
    memo = B._memo
    if key not in memo:
        memo[key] = build(B, *args)
    return memo[key]


def compute_params(B: VarianceProfile) -> ProfileParams:
    """All operator-norm parameters of a profile.  Total on valid profiles."""
    return _once(B, "params", lambda B: _rescaled(*normalized_params(B)))


def normalized_params(B: VarianceProfile) -> tuple[int, ProfileParams]:
    """(e, the parameters of 2^-e B); see the module docstring."""
    return _once(B, "normalized", _params)


def _params(B: VarianceProfile) -> tuple[int, ProfileParams]:
    e, S, A = _once(B, "pair_sums", _pair_sums)
    diag = np.diagonal(A)
    sigma_C = math.sqrt(float(S.sum(axis=0).max()))
    sigma_R2 = float(S.sum(axis=1).max())
    sigma_star = float(math.sqrt(S.max()))
    # maxima over i != l: empty, so 0, when d = 1
    sigma_tilde = math.sqrt(max(float(A[~np.eye(B.d, dtype=bool)].max()), 0.0)) if B.d >= 2 else 0.0
    sigma_inf = math.sqrt(max(float((A.sum(axis=1) - diag).max()), 0.0)) if B.d >= 2 else 0.0
    return e, ProfileParams(
        sigma_C=sigma_C, sigma_R=math.sqrt(sigma_R2), sigma_star=sigma_star,
        sigma_tilde_inf=sigma_tilde, sigma_bar_inf=math.sqrt(float(diag.max())), sigma_inf=sigma_inf,
        beta_inf=_beta(sigma_tilde * sigma_C, sigma_inf * sigma_star),
        eff_rank=float(S.sum()) / sigma_R2 if sigma_R2 > 0 else 0.0,
    )


def compute_schatten_params(B: VarianceProfile, p: int) -> SchattenParams:
    """All Schatten-order-p parameters of a profile."""
    return _once(B, ("schatten", p), lambda B: _rescaled(*normalized_schatten_params(B, p)))


def normalized_schatten_params(B: VarianceProfile, p: int) -> tuple[int, SchattenParams]:
    """(e, the Schatten-order-p parameters of 2^-e B); see the module docstring."""
    if not isinstance(p, int) or p < 2 or p % 2:
        raise ValueError(f"Schatten order must be an even integer >= 2, got {p!r}")
    return _once(B, ("normalized", p), _schatten_params, p)


def _root(total, r: int, p: int, e: int) -> float:
    """The r-th root, as a parameter of 2^-e B, of a degree-2p sum over 2^-e B:
    taken of the full-scale sum 2^(2pe) total where that is a normal float,
    else of the normalised sum."""
    full = _ldexp(float(total), 2 * p * e)
    if sys.float_info.min <= full < math.inf:
        return math.ldexp(full ** (1.0 / r), -2 * p * e // r)
    return float(total) ** (1.0 / r)


def _schatten_params(B: VarianceProfile, p: int) -> tuple[int, SchattenParams]:
    e, S, A = _once(B, "pair_sums", _pair_sums)
    diag = np.diagonal(A)
    rows = A.sum(axis=1)
    half = p // 2
    sigma_p = _root(np.sum(rows**half), p, p, e)
    sigma_p_prime = _root(np.sum(np.maximum(rows - diag, 0.0) ** half), p, p, e)
    sigma_bar_p = _root(np.sum(diag**half), p, p, e)
    b_p = _root(np.sum(S.max(axis=1) ** p), 2 * p, p, e)
    sigma_C = normalized_params(B)[1].sigma_C
    return e, SchattenParams(
        p=p, sigma_p=sigma_p, sigma_p_prime=sigma_p_prime, sigma_bar_p=sigma_bar_p,
        b_p=b_p, beta_p=_beta(sigma_bar_p * sigma_C, sigma_p * b_p),
    )

