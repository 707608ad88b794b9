"""Closed-form deviation bounds for ||X X^T - E X X^T|| with X_ij = b_ij g_ij.

Each evaluator returns a BoundReport with the bound split into a leading term
and labelled error terms.  Universal constants that the underlying results
leave unspecified are taken from BoundConfig (default 1) and echoed back in
`constants_used` by each report that reads them; the two lower bounds and
the KL comparator read none and leave it None.  Reports of an evaluator
that takes a Schatten order carry it as `p`.  The two-branch bounds (main
and Schatten) evaluate both branches once, return the one params.beta_case
picks and carry both totals as `branch_totals`.  Term labels are stable
identifiers:

    "leading"        first summand(s) of the bound
    "sqrt_log"       coefficient of sqrt(log(n ^ d))
    "log"            coefficient of log(n ^ d)
    "sqrt_p"         coefficient of sqrt(p)
    "schatten_tail"  the p * b_p^2 tail
    "log34", "log32" the log^{3/4}(nd) and log^{3/2}(nd) terms

All evaluators are total on valid profiles; an all-zero profile yields a zero
total plus a warning.  Division conventions: sigma_inf/sigma_C is 0 when
sigma_C = 0, and the branch rule uses the beta zero conventions of the
params module.  Every bound is homogeneous of degree 2 in B, so each
evaluator builds its terms from the parameters of 2^-e B (see params) and the
report scales them by 2^(2e) once, inf on overflow.  As 2^-e B is the same
array at every power-of-two scale, every term, the free-probability
comparator's half-degree factors included, is its exact image wherever it
is normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .params import CASE_GT, CASE_LE, CASE_NA, beta_case, normalized_params, normalized_schatten_params
from .profile import VarianceProfile, _float


@dataclass(frozen=True)
class BoundConfig:
    """Evaluation constants: epsilon in (0, 1/2], stand-ins for C and C',
    and whether log(n ^ d) is evaluated literally or floored at 1."""

    epsilon: float = 0.5
    C_universal: float = 1.0
    C_prime: float = 1.0
    log_floor: str = "literal"  # or "floored"

    def __post_init__(self):
        if not (0 < self.epsilon <= 0.5):
            raise ValueError(f"epsilon must be in (0, 1/2], got {self.epsilon}")
        if not all(0 < c < math.inf for c in (self.C_universal, self.C_prime)):  # rejects NaN too
            raise ValueError("universal constants must be positive and finite")
        if self.log_floor not in ("literal", "floored"):
            raise ValueError(f"log_floor must be 'literal' or 'floored', got {self.log_floor!r}")

    def c_eps(self) -> float:
        """C(eps) = C * (1 + eps) / sqrt(log(1 + eps))."""
        return self.C_universal * (1 + self.epsilon) / math.sqrt(math.log1p(self.epsilon))


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    case_taken: str
    leading_term: float
    error_terms: tuple[tuple[str, float], ...]
    total: float
    constants_used: BoundConfig | None = None  # None: the evaluator reads no constant
    warnings: tuple[str, ...] = ()
    p: int | None = None  # the Schatten order, for the evaluators that take one
    branch_totals: dict | None = None  # {case: total} of both branches, for the two-branch bounds


def _report(name, case, B, e, leading, errors, cfg=None, warnings=(), p=None) -> BoundReport:
    """The report of terms evaluated on 2^-e B, each and their total scaled by 2^(2e),
    under cfg (None if no constant was read); an all-zero B adds a warning after the others."""
    total = leading + sum(value for _, value in errors)
    if B.is_zero:
        warnings = [*warnings, "all-zero profile: bound degenerates to 0"]
    return BoundReport(
        bound_name=name,
        case_taken=case,
        leading_term=_float(leading, 2 * e),
        error_terms=tuple((label, _float(value, 2 * e)) for label, value in errors),
        total=_float(total, 2 * e),
        constants_used=cfg,
        warnings=tuple(warnings),
        p=p,
    )


def _two_branch(beta: float, le: BoundReport, gt: BoundReport) -> BoundReport:
    """The report of the branch beta selects, carrying the totals of both."""
    reports = {CASE_LE: le, CASE_GT: gt}
    return replace(reports[beta_case(beta)], branch_totals={case: r.total for case, r in reports.items()})


def _log_term(x: int, cfg: BoundConfig) -> float:
    """log(x), floored at 1 when cfg.log_floor is "floored"."""
    L = math.log(x)
    return max(L, 1.0) if cfg.log_floor == "floored" else L


def _square(x: float) -> float:
    """x**2, inf where it passes the float range (float ** raises OverflowError there)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _product(*factors: float) -> float:
    """Their product, 0 when a factor is 0 even where another is inf (0 * inf is nan)."""
    return 0.0 if 0 in factors else math.prod(factors)


def main_upper_bound(B: VarianceProfile, cfg: BoundConfig | None = None) -> BoundReport:
    """Two-branch operator-norm upper bound driven by beta_inf.

    beta_inf <= 1:
        (1+eps) { 2 sigma_inf + sigma_C^2
                  + C(eps) sigma_* (sigma_C + sigma_inf/sigma_C) sqrt(log(n^d))
                  + C(eps)^2 sigma_*^2 log(n^d) }
    beta_inf > 1: the sigma_inf terms are replaced by
        2 sigma_tilde sigma_C / sigma_*   and   (sigma_C sigma_* + sigma_bar).
    """
    cfg = cfg or BoundConfig()
    e, P = normalized_params(B)
    one_eps = 1 + cfg.epsilon
    ce = cfg.c_eps()
    L = _log_term(min(B.n, B.d), cfg)
    ratio = P.sigma_inf / P.sigma_C if P.sigma_C > 0 else 0.0
    lead_main = 2 * P.sigma_tilde_inf * P.sigma_C / P.sigma_star if P.sigma_star > 0 else 0.0
    sqrt_L = math.sqrt(L)
    log_term = ("log", _product(one_eps, _square(ce), P.sigma_star**2, L))
    le = _report("main_upper_bound", CASE_LE, B, e, one_eps * (2 * P.sigma_inf + P.sigma_C**2),
                 [("sqrt_log", _product(one_eps, ce, P.sigma_star, P.sigma_C + ratio, sqrt_L)), log_term], cfg)
    gt = _report("main_upper_bound", CASE_GT, B, e, one_eps * (lead_main + P.sigma_C**2),
                 [("sqrt_log", _product(one_eps, ce, P.sigma_C * P.sigma_star + P.sigma_bar_inf, sqrt_L)), log_term],
                 cfg)
    return _two_branch(P.beta_inf, le, gt)


def schatten_upper_bound(B: VarianceProfile, p: int, cfg: BoundConfig | None = None) -> BoundReport:
    """Two-branch Schatten-p moment bound driven by beta_p.

    beta_p <= 1:
        d^{1/p} { 2 sigma_p + sigma_C^2
                  + C sqrt(p) (sigma_C sigma_* + sigma_p sigma_*/sigma_C)
                  + C' p b_p^2 }
    beta_p > 1: the sigma_p terms are replaced by 2 sigma_bar_p sigma_C/sigma_*
    and sigma_bar_p.  The sigma_p entering either branch is the full l-sum
    variant; the sharper sigma_p_prime (l != i) is available from the params
    module for users who want the tighter leading term.
    """
    cfg = cfg or BoundConfig()
    e, P = normalized_params(B)
    _, Q = normalized_schatten_params(B, p)
    scale = B.d ** (1.0 / p)
    ratio = Q.sigma_p * P.sigma_star / P.sigma_C if P.sigma_C > 0 else 0.0
    lead_main = 2 * Q.sigma_bar_p * P.sigma_C / P.sigma_star if P.sigma_star > 0 else 0.0
    c_sqrt_p = scale * cfg.C_universal * math.sqrt(p)
    tail = ("schatten_tail", scale * cfg.C_prime * p * Q.b_p**2)
    le = _report("schatten_upper_bound", CASE_LE, B, e, scale * (2 * Q.sigma_p + P.sigma_C**2),
                 [("sqrt_p", c_sqrt_p * (P.sigma_C * P.sigma_star + ratio)), tail], cfg, p=p)
    gt = _report("schatten_upper_bound", CASE_GT, B, e, scale * (lead_main + P.sigma_C**2),
                 [("sqrt_p", c_sqrt_p * (P.sigma_C * P.sigma_star + Q.sigma_bar_p)), tail], cfg, p=p)
    return _two_branch(Q.beta_p, le, gt)


def diagonal_bound(B: VarianceProfile, p: int, cfg: BoundConfig | None = None) -> BoundReport:
    """C (sqrt(p) sigma_bar_p + p b_p^2), the two-sided order of the diagonal part."""
    cfg = cfg or BoundConfig()
    e, Q = normalized_schatten_params(B, p)
    leading = cfg.C_universal * math.sqrt(p) * Q.sigma_bar_p
    tail = cfg.C_universal * p * Q.b_p**2
    warnings = ["two-sided order estimate; both directions hold up to unspecified constants"]
    return _report("diagonal_bound", CASE_NA, B, e, leading, [("schatten_tail", tail)], cfg, warnings, p)


def chz_bound(B: VarianceProfile, cfg: BoundConfig | None = None) -> BoundReport:
    """Comparator with leading term 2 sigma_R sigma_C + sigma_C^2."""
    cfg = cfg or BoundConfig()
    e, P = normalized_params(B)
    one_eps = 1 + cfg.epsilon
    ce = cfg.c_eps()
    L = _log_term(min(B.n, B.d), cfg)
    leading = one_eps * (2 * P.sigma_R * P.sigma_C + P.sigma_C**2)
    sqrt_log = _product(one_eps, ce, P.sigma_C * P.sigma_star + P.sigma_R * P.sigma_star, math.sqrt(L))
    log_term = _product(one_eps, _square(ce), P.sigma_star**2, L)
    return _report(
        "chz_bound", CASE_NA, B, e, leading,
        [("sqrt_log", sqrt_log), ("log", log_term)], cfg,
    )


def free_probability_bound(B: VarianceProfile, cfg: BoundConfig | None = None) -> BoundReport:
    """Comparator 2 sigma_inf + sigma_C^2 plus log^{3/4}(nd) and log^{3/2}(nd) terms."""
    cfg = cfg or BoundConfig()
    e, P = normalized_params(B)
    L = _log_term(B.n * B.d, cfg)
    leading = 2 * P.sigma_inf + P.sigma_C**2
    mix = math.sqrt(P.sigma_star) * (P.sigma_C**1.5 + P.sigma_R**1.5)
    log34 = cfg.C_universal * mix * L**0.75
    log32 = cfg.C_universal * (P.sigma_star * P.sigma_C + P.sigma_star * P.sigma_R) * L**1.5
    return _report(
        "free_probability_bound", CASE_NA, B, e, leading,
        [("log34", log34), ("log32", log32)], cfg,
    )


def lower_bound_schatten(B: VarianceProfile, p: int) -> BoundReport:
    """sigma_p + sigma_C^2 + sqrt(p) sigma_bar_p + p b_p^2, a lower bound up to
    an unspecified universal constant."""
    e, P = normalized_params(B)
    _, Q = normalized_schatten_params(B, p)
    leading = Q.sigma_p + P.sigma_C**2
    warnings = ["lower bound holds up to an unspecified universal constant"]
    return _report(
        "lower_bound_schatten", CASE_NA, B, e, leading,
        [("sqrt_p", math.sqrt(p) * Q.sigma_bar_p), ("schatten_tail", p * Q.b_p**2)],
        warnings=warnings, p=p,
    )


def lower_bound_opnorm(B: VarianceProfile) -> BoundReport:
    """sigma_inf + sigma_C^2, a lower bound up to an unspecified constant."""
    e, P = normalized_params(B)
    warnings = ["lower bound holds up to an unspecified universal constant"]
    return _report(
        "lower_bound_opnorm", CASE_NA, B, e, P.sigma_inf + P.sigma_C**2, [], warnings=warnings,
    )


def kl_comparator(B: VarianceProfile) -> BoundReport:
    """Effective-rank benchmark ||Sigma|| * max(sqrt(n rk), rk) with
    Sigma = sum_j E X_j X_j^T (diagonal here) and rk = tr(Sigma)/||Sigma||.

    The source states the rate as a pair "(sqrt(n rk), rk)"; it is read as a
    maximum.  For profiles whose columns are not identically distributed this
    is a heuristic comparison point, not a proved bound.
    """
    e, P = normalized_params(B)
    rk = P.eff_rank
    total = P.sigma_R**2 * max(math.sqrt(B.n * rk), rk)
    warnings = [
        "pair (sqrt(n rk), rk) interpreted as a maximum",
        "heuristic comparator for non-iid profiles",
    ]
    return _report("kl_comparator", CASE_NA, B, e, total, [], warnings=warnings)

