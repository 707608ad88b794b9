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

Float reductions use numpy's pairwise accumulation; max-reductions are exact.
S = B*B and S @ S.T are built once per profile object, and each
ProfileParams and SchattenParams(p) is evaluated once per profile object and
kept on it, so repeated calls from the bound evaluators cost a lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .profile import ProfileFamily, VarianceProfile


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
    # names of fields that are upper-bound expressions rather than equalities
    # (only populated by closed_form_params; beta entries derived from upper
    # bounds are indicative, not bounds in either direction)
    upper_bound_fields: frozenset = field(default_factory=frozenset)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "upper_bound_fields"}
        if self.upper_bound_fields:
            out["upper_bound_fields"] = sorted(self.upper_bound_fields)
        return out


@dataclass(frozen=True)
class SchattenParams:
    p: int
    sigma_p: float
    sigma_p_prime: float
    sigma_bar_p: float
    b_p: float
    beta_p: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _beta(numer: float, denom: float) -> float:
    if denom > 0:
        return numer / denom
    if numer > 0:
        return math.inf
    return 0.0


def _pair_sums(B: VarianceProfile) -> tuple[np.ndarray, np.ndarray]:
    """(S, A) with S = B*B entrywise and A = S @ S.T, so A_il = sum_j b_ij^2 b_lj^2."""
    S = B.as_array() ** 2
    return S, S @ S.T


def _once(B: VarianceProfile, key, build, *args):
    """build(B, *args), evaluated once per profile object and kept on it."""
    memo = B._memo
    if key not in memo:
        memo[key] = build(B, *args)
    return memo[key]


def compute_params(B: VarianceProfile) -> ProfileParams:
    """All operator-norm parameters of a profile.  Total on valid profiles."""
    return _once(B, "params", _params)


def _params(B: VarianceProfile) -> ProfileParams:
    S, A = _once(B, "pair_sums", _pair_sums)
    diag = np.diagonal(A)
    sigma_C = math.sqrt(float(S.sum(axis=0).max()))
    sigma_R2 = float(S.sum(axis=1).max())
    sigma_star = float(math.sqrt(S.max()))
    # maxima over i != l: empty, so 0, when d = 1
    sigma_tilde = math.sqrt(max(float(A[~np.eye(B.d, dtype=bool)].max()), 0.0)) if B.d >= 2 else 0.0
    sigma_inf = math.sqrt(max(float((A.sum(axis=1) - diag).max()), 0.0)) if B.d >= 2 else 0.0
    return ProfileParams(
        sigma_C=sigma_C, sigma_R=math.sqrt(sigma_R2), sigma_star=sigma_star,
        sigma_tilde_inf=sigma_tilde, sigma_bar_inf=math.sqrt(float(diag.max())), sigma_inf=sigma_inf,
        beta_inf=_beta(sigma_tilde * sigma_C, sigma_inf * sigma_star),
        eff_rank=float(S.sum()) / sigma_R2 if sigma_R2 > 0 else 0.0,
    )


def compute_schatten_params(B: VarianceProfile, p: int) -> SchattenParams:
    """All Schatten-order-p parameters of a profile."""
    if not isinstance(p, int) or p < 2 or p % 2:
        raise ValueError(f"Schatten order must be an even integer >= 2, got {p!r}")
    return _once(B, ("schatten", p), _schatten_params, p)


def _schatten_params(B: VarianceProfile, p: int) -> SchattenParams:
    S, A = _once(B, "pair_sums", _pair_sums)
    diag = np.diagonal(A)
    rows = A.sum(axis=1)
    half = p // 2
    sigma_p = float(np.sum(rows**half)) ** (1.0 / p)
    sigma_p_prime = float(np.sum(np.maximum(rows - diag, 0.0) ** half)) ** (1.0 / p)
    sigma_bar_p = float(np.sum(diag**half)) ** (1.0 / p)
    b_p = float(np.sum(S.max(axis=1) ** p)) ** (1.0 / (2 * p))
    sigma_C = math.sqrt(float(S.sum(axis=0).max()))
    return SchattenParams(
        p=p, sigma_p=sigma_p, sigma_p_prime=sigma_p_prime, sigma_bar_p=sigma_bar_p,
        b_p=b_p, beta_p=_beta(sigma_bar_p * sigma_C, sigma_p * b_p),
    )


def _norms(vec) -> tuple[float, float, float]:
    """(l2, l4^2, linf) of a nonnegative vector."""
    v = np.asarray([float(x) for x in vec])
    return float(np.sqrt(np.sum(v**2))), float(np.sqrt(np.sum(v**4))), float(v.max()) if v.size else 0.0


def closed_form_params(family: ProfileFamily, d: int, n: int) -> ProfileParams:
    """Closed-form parameters for the structured families.

    Exact for `constant` and `iid_rows`.  For `iid_columns` and `rank_one`
    the sigma_tilde_inf and sigma_inf entries are the known upper-bound
    expressions and are listed in `upper_bound_fields` (with beta_inf, which
    is derived from them).  `bounded_ratio` and `explicit` have no closed
    form and raise ValueError.
    """
    kind = family.kind
    if kind == "constant":
        s_inf = math.sqrt(n * (d - 1))
        return ProfileParams(
            sigma_C=math.sqrt(d),
            sigma_R=math.sqrt(n),
            sigma_star=1.0,
            sigma_tilde_inf=math.sqrt(n) if d >= 2 else 0.0,
            sigma_bar_inf=math.sqrt(n),
            sigma_inf=s_inf,
            beta_inf=_beta((math.sqrt(n) if d >= 2 else 0.0) * math.sqrt(d), s_inf),
            eff_rank=float(d),
        )
    if kind == "iid_columns":
        if family.b is None or len(family.b) != d:
            raise ValueError(f"iid_columns needs a length-{d} vector")
        l2, l4sq, linf = _norms(family.b)
        tilde_ub = math.sqrt(n) * linf**2 if d >= 2 else 0.0
        inf_ub = math.sqrt(n) * linf * l2 if d >= 2 else 0.0
        return ProfileParams(
            sigma_C=l2,
            sigma_R=math.sqrt(n) * linf,
            sigma_star=linf,
            sigma_tilde_inf=tilde_ub,
            sigma_bar_inf=math.sqrt(n) * linf**2,
            sigma_inf=inf_ub,
            beta_inf=_beta(tilde_ub * l2, inf_ub * linf),
            eff_rank=(l2 / linf) ** 2 if linf > 0 else 0.0,
            upper_bound_fields=frozenset({"sigma_tilde_inf", "sigma_inf", "beta_inf"}),
        )
    if kind == "iid_rows":
        if family.b is None or len(family.b) != n:
            raise ValueError(f"iid_rows needs a length-{n} vector")
        l2, l4sq, linf = _norms(family.b)
        tilde = l4sq if d >= 2 else 0.0
        s_inf = math.sqrt(d - 1) * l4sq
        return ProfileParams(
            sigma_C=math.sqrt(d) * linf,
            sigma_R=l2,
            sigma_star=linf,
            sigma_tilde_inf=tilde,
            sigma_bar_inf=l4sq,
            sigma_inf=s_inf,
            beta_inf=_beta(tilde * math.sqrt(d) * linf, s_inf * linf),
            eff_rank=float(d) if l2 > 0 else 0.0,
        )
    if kind == "rank_one":
        if family.a is None or len(family.a) != d or family.b is None or len(family.b) != n:
            raise ValueError(f"rank_one needs vectors of lengths {d} and {n}")
        a2, a4sq, ainf = _norms(family.a)
        b2, b4sq, binf = _norms(family.b)
        tilde_ub = b4sq * ainf**2 if d >= 2 else 0.0
        inf_ub = b4sq * a2 * ainf if d >= 2 else 0.0
        return ProfileParams(
            sigma_C=a2 * binf,
            sigma_R=ainf * b2,
            sigma_star=ainf * binf,
            sigma_tilde_inf=tilde_ub,
            sigma_bar_inf=b4sq * ainf**2,
            sigma_inf=inf_ub,
            beta_inf=_beta(tilde_ub * a2 * binf, inf_ub * ainf * binf),
            eff_rank=(a2 / ainf) ** 2 if ainf > 0 and b2 > 0 else 0.0,
            upper_bound_fields=frozenset({"sigma_tilde_inf", "sigma_inf", "beta_inf"}),
        )
    raise ValueError(f"no closed-form parameters for family kind {kind!r}")
