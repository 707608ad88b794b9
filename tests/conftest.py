"""Shared test helpers: random profile factories, naive definitional oracles,
and reference definitions that only tests use.

The naive oracles recompute quantities with plain loops (exact Fractions
where possible) so the library implementations are checked against an
independent path.  The references are a profile's cells as Python objects
(`entries`), a scaled profile (`scaled`), the structured families'
closed-form parameters (`closed_form_params`), the all-ones profile's
moment bound (`standard_gaussian_bound`) and the full trace moment alone
(`full_trace_moment`).  `cli_payload` runs the CLI.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from covdev import (
    BoundConfig, BoundReport, ProfileDomainError, ProfileParams, VarianceProfile, trace_moments,
)
from covdev.cli import main
from covdev.oracle import DEFAULT_TERM_CAP


def cli_payload(capsys, argv) -> dict:
    """The payload of the envelope `covdev.cli.main(argv)` prints; the run must exit 0."""
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["payload"]


def entries(B: VarianceProfile) -> tuple[tuple, ...]:
    """The cells as Python objects: Fractions when exact, floats otherwise."""
    if B.exact:
        nums, den = B.numerators
        return tuple(tuple(Fraction(x, den) for x in row) for row in nums.tolist())
    return tuple(map(tuple, B.as_array().tolist()))


def scaled(B: VarianceProfile, t) -> VarianceProfile:
    """B with every entry multiplied by t >= 0; exact when B is and t is an
    int or a Fraction, else the float cells times float(t)."""
    if t < 0:
        raise ProfileDomainError("scale factor must be nonnegative")
    if B.exact and isinstance(t, (int, Fraction)):
        return VarianceProfile([[x * t for x in row] for row in entries(B)])
    return VarianceProfile(B.as_array() * float(t))


def rational_profile(rng, d, n, max_num=6, max_den=4) -> VarianceProfile:
    ent = tuple(
        tuple(Fraction(int(rng.integers(0, max_num + 1)), int(rng.integers(1, max_den + 1))) for _ in range(n))
        for _ in range(d)
    )
    return VarianceProfile(ent)


def float_profile(rng, d, n, zero_frac=0.15) -> VarianceProfile:
    arr = rng.uniform(0.0, 2.0, size=(d, n))
    arr[rng.uniform(size=(d, n)) < zero_frac] = 0.0
    return VarianceProfile(tuple(tuple(float(x) for x in row) for row in arr))


def naive_squared_params(B: VarianceProfile) -> dict:
    """Squared parameter values straight from the definitions (exact for
    rational profiles): sigma_C^2, sigma_R^2, sigma_star^2, sigma_tilde^2,
    sigma_bar^2, sigma_inf^2 and the trace sum."""
    ent, d, n = entries(B), B.d, B.n
    colsq = [sum(ent[i][j] ** 2 for i in range(d)) for j in range(n)]
    rowsq = [sum(ent[i][j] ** 2 for j in range(n)) for i in range(d)]
    out = {
        "sigma_C2": max(colsq),
        "sigma_R2": max(rowsq),
        "sigma_star2": max(x**2 for row in ent for x in row),
        "sigma_bar2": max(sum(ent[i][j] ** 4 for j in range(n)) for i in range(d)),
        "total": sum(rowsq),
    }
    if d >= 2:
        out["sigma_tilde2"] = max(
            sum(ent[i][j] ** 2 * ent[l][j] ** 2 for j in range(n))
            for i in range(d)
            for l in range(d)
            if i != l
        )
        out["sigma_inf2"] = max(
            sum(ent[i][j] ** 2 * ent[l][j] ** 2 for j in range(n) for l in range(d) if l != i)
            for i in range(d)
        )
    else:
        out["sigma_tilde2"] = Fraction(0) if B.exact else 0.0
        out["sigma_inf2"] = Fraction(0) if B.exact else 0.0
    return out


def full_trace_moment(B: VarianceProfile, p: int, cap: int = DEFAULT_TERM_CAP) -> Fraction:
    """E Tr(X X^T - E X X^T)^p, the second moment `trace_moments` gives."""
    return trace_moments(B, p, cap)[1]


def naive_offdiag_p2(B: VarianceProfile):
    """sum_{i != l} sum_j b_ij^2 b_lj^2, the closed form of the order-2
    off-diagonal trace moment."""
    ent, d, n = entries(B), B.d, B.n
    return sum(
        ent[i][j] ** 2 * ent[l][j] ** 2
        for i in range(d)
        for l in range(d)
        if l != i
        for j in range(n)
    )


def naive_diag_p2(B: VarianceProfile):
    """2 sum_i sum_j b_ij^4, the closed form of the order-2 diagonal moment."""
    return 2 * sum(x**4 for row in entries(B) for x in row)


def close(a, b, rel=1e-12, abs_=1e-300):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _beta(numer: float, denom: float) -> float:
    """The betas' zero convention: 0/0 -> 0, positive/0 -> inf."""
    if denom > 0:
        return numer / denom
    return math.inf if numer > 0 else 0.0


def _norms(vec) -> tuple[float, float, float]:
    """(l2, l4^2, linf) of a nonnegative vector."""
    v = np.asarray([float(x) for x in vec])
    return float(np.sqrt(np.sum(v**2))), float(np.sqrt(np.sum(v**4))), float(v.max()) if v.size else 0.0


@dataclass(frozen=True)
class ClosedFormParams(ProfileParams):
    """Closed-form parameters, with the names of the fields that are
    upper-bound expressions rather than equalities (a beta derived from
    upper bounds is indicative, not a bound in either direction)."""

    upper_bound_fields: frozenset = frozenset()


def closed_form_params(kind: str, d: int, n: int, a=None, b=None) -> ClosedFormParams:
    """Closed-form parameters for the structured family `kind` at size d x n,
    the profile rank_one(a, b) with a vector of ones where a or b is None:
    `iid_columns` reads a, `iid_rows` reads b, `rank_one` reads both.

    Exact for `constant` and `iid_rows`.  For `iid_columns` and `rank_one`
    the sigma_tilde_inf and sigma_inf entries are the known upper-bound
    expressions and are listed in `upper_bound_fields` (with beta_inf, which
    is derived from them).  `bounded_ratio` has no closed form and raises
    ValueError.
    """
    if kind == "constant":
        s_inf = math.sqrt(n * (d - 1))
        return ClosedFormParams(
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
        if a is None or len(a) != d:
            raise ValueError(f"iid_columns needs a length-{d} vector")
        l2, l4sq, linf = _norms(a)
        tilde_ub = math.sqrt(n) * linf**2 if d >= 2 else 0.0
        inf_ub = math.sqrt(n) * linf * l2 if d >= 2 else 0.0
        return ClosedFormParams(
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
        if b is None or len(b) != n:
            raise ValueError(f"iid_rows needs a length-{n} vector")
        l2, l4sq, linf = _norms(b)
        tilde = l4sq if d >= 2 else 0.0
        s_inf = math.sqrt(d - 1) * l4sq
        return ClosedFormParams(
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
        if a is None or len(a) != d or b is None or len(b) != n:
            raise ValueError(f"rank_one needs vectors of lengths {d} and {n}")
        a2, a4sq, ainf = _norms(a)
        b2, b4sq, binf = _norms(b)
        tilde_ub = b4sq * ainf**2 if d >= 2 else 0.0
        inf_ub = b4sq * a2 * ainf if d >= 2 else 0.0
        return ClosedFormParams(
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


def standard_gaussian_bound(
    d: int, n: int, p: float, off_diagonal: bool = False, cfg: BoundConfig | None = None
) -> BoundReport:
    """Moment bound for the all-ones profile (i.i.d. standard Gaussian matrix).

    full:          2 sqrt(dn) + d + 4 sqrt(p)(sqrt(d)+sqrt(n)) + 2p
    off_diagonal:  2 sqrt(dn) + d + C sqrt(p)(sqrt(d)+sqrt(n)) + C'p
    """
    cfg = cfg or BoundConfig()
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    leading = 2 * math.sqrt(d * n) + d
    c1, c2 = (cfg.C_universal, cfg.C_prime) if off_diagonal else (4.0, 2.0)
    errors = (("sqrt_p", c1 * math.sqrt(p) * (math.sqrt(d) + math.sqrt(n))), ("p", c2 * p))
    name = "standard_gaussian_offdiag_bound" if off_diagonal else "standard_gaussian_bound"
    return BoundReport(
        bound_name=name, case_taken="not_applicable", leading_term=leading, error_terms=errors,
        total=leading + sum(value for _, value in errors), constants_used=cfg,
    )
