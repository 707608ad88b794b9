"""Exact Gaussian trace moments at desk scale, by direct expansion.

This module is the ground truth the shape engine and the Monte Carlo
estimates are tested against.  Everything reduces to joint moments of a
standard Gaussian g:

    a_{n,m} = E g^n (g^2 - 1)^m
            = sum_{k=0}^m binom(m, k) (-1)^{m-k} mu_{n+2k},

with mu_r = (r-1)!! for even r and 0 for odd r.  The three trace moments of
M = X X^T - E X X^T expand over index tuples, the expectation of each term
factorizing over matrix cells by independence.  Exact profiles are computed
in integer arithmetic over the common denominator of the entries (every term
has homogeneous degree 2p in the entries).

Work is capped by the number of expanded terms, not by time, so resource
errors are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Union

from .profile import ResourceLimitError, VarianceProfile

DEFAULT_TERM_CAP = 10**7

MomentValue = Union[Fraction, float]


@dataclass(frozen=True)
class ExactMoment:
    value: MomentValue
    p: int
    kind: str  # "full" | "offdiag" | "diag"

    def __float__(self) -> float:
        return float(self.value)


@lru_cache(maxsize=None)
def _mu(r: int) -> int:
    """E g^r: (r-1)!! for even r, 0 for odd r."""
    if r % 2:
        return 0
    out = 1
    for j in range(r - 1, 0, -2):
        out *= j
    return out


@lru_cache(maxsize=None)
def joint_moment(n: int, m: int) -> int:
    """a_{n,m} = E g^n (g^2-1)^m, an exact integer.

    Nonnegative, and zero exactly when n is odd or (n, m) = (0, 1).
    """
    if n < 0 or m < 0:
        raise ValueError("moment orders must be nonnegative")
    total = 0
    for k in range(m + 1):
        total += math.comb(m, k) * (-1) ** (m - k) * _mu(n + 2 * k)
    return total


def joint_moment_table(max_n: int, max_m: int) -> dict[tuple[int, int], int]:
    """The a_{n,m} values for 0 <= n <= max_n, 0 <= m <= max_m."""
    return {(n, m): joint_moment(n, m) for n in range(max_n + 1) for m in range(max_m + 1)}


def _check_cap(d: int, n: int, p: int, cap: int) -> None:
    if (d**p) * (n**p) > cap:
        raise ResourceLimitError(
            f"direct expansion needs {(d ** p) * (n ** p)} terms, cap is {cap}"
        )


def _entry_matrix(B: VarianceProfile):
    """(matrix, denominator): integers over a common denominator in exact mode,
    floats with denominator None otherwise."""
    if B.exact:
        return B.integerized()
    return B.as_array().tolist(), None


def offdiag_trace_moment(B: VarianceProfile, p: int, cap: int = DEFAULT_TERM_CAP) -> ExactMoment:
    """E Tr(offdiag(X X^T))^p by expanding over closed index paths.

    Sums over u in [d]^p with u_k != u_{k+1} (cyclically) and v in [n]^p; the
    expectation of each term is the product over cells of mu(multiplicity).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    d, n = B.d, B.n
    _check_cap(d, n, p, cap)
    ent, den = _entry_matrix(B)
    total = 0 if den is not None else 0.0
    for u in product(range(d), repeat=p):
        if any(u[k] == u[(k + 1) % p] for k in range(p)):
            continue
        for v in product(range(n), repeat=p):
            cells: dict[tuple[int, int], int] = {}
            for k in range(p):
                for cell in ((u[k], v[k]), (u[(k + 1) % p], v[k])):
                    cells[cell] = cells.get(cell, 0) + 1
            if any(c % 2 for c in cells.values()):
                continue
            term = 1
            for (i, j), c in cells.items():
                b = ent[i][j]
                if b == 0:
                    term = 0
                    break
                term *= b**c * _mu(c)
            total += term
    if den is not None:
        total = Fraction(total, den ** (2 * p))
    return ExactMoment(value=total, p=p, kind="offdiag")


def _compositions_skip_one(total: int, parts: int):
    """Weak compositions of `total` into `parts` parts, no part equal to 1.

    Parts of size 1 would carry the factor E(g^2-1) = 0, so they are skipped
    at generation time.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total != 1:
            yield (total,)
        return
    for first in range(total + 1):
        if first == 1:
            continue
        for rest in _compositions_skip_one(total - first, parts - 1):
            yield (first,) + rest


def diag_trace_moment(B: VarianceProfile, p: int, cap: int = DEFAULT_TERM_CAP) -> ExactMoment:
    """E Tr(Diag(X X^T) - E X X^T)^p = sum_i E (sum_j b_ij^2 (g_ij^2 - 1))^p.

    Expanded per row with the multinomial theorem over column exponent
    vectors; the per-column factor is the central moment a_{0,r}.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    d, n = B.d, B.n
    n_comps = math.comb(p + n - 1, n - 1)
    if d * n_comps > cap:
        raise ResourceLimitError(f"diagonal expansion needs {d * n_comps} terms, cap is {cap}")
    ent, den = _entry_matrix(B)
    fact_p = math.factorial(p)
    total = 0 if den is not None else 0.0
    for i in range(d):
        row = ent[i]
        for comp in _compositions_skip_one(p, n):
            coef = fact_p
            term = 1
            for r in comp:
                if r == 0:
                    continue
                coef //= math.factorial(r)
            for j, r in enumerate(comp):
                if r == 0:
                    continue
                b = row[j]
                if b == 0:
                    term = 0
                    break
                term *= b ** (2 * r) * joint_moment(0, r)
            total += coef * term
    if den is not None:
        total = Fraction(total, den ** (2 * p))
    return ExactMoment(value=total, p=p, kind="diag")


def full_trace_moment(B: VarianceProfile, p: int, cap: int = DEFAULT_TERM_CAP) -> ExactMoment:
    """E Tr(X X^T - E X X^T)^p by expanding every factor into entry monomials.

    Off-diagonal factors contribute plain g's, diagonal factors contribute
    (g^2 - 1)'s; each cell's expectation is then a_{cells g count, cells
    centered count} via joint_moment, independent across cells.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    d, n = B.d, B.n
    _check_cap(d, n, p, cap)
    ent, den = _entry_matrix(B)
    total = 0 if den is not None else 0.0
    for u in product(range(d), repeat=p):
        for v in product(range(n), repeat=p):
            plain: dict[tuple[int, int], int] = {}
            centered: dict[tuple[int, int], int] = {}
            bexp: dict[tuple[int, int], int] = {}
            for k in range(p):
                i, i2, j = u[k], u[(k + 1) % p], v[k]
                if i != i2:
                    for cell in ((i, j), (i2, j)):
                        plain[cell] = plain.get(cell, 0) + 1
                        bexp[cell] = bexp.get(cell, 0) + 1
                else:
                    cell = (i, j)
                    centered[cell] = centered.get(cell, 0) + 1
                    bexp[cell] = bexp.get(cell, 0) + 2
            term = 1
            for cell, e in bexp.items():
                b = ent[cell[0]][cell[1]]
                if b == 0:
                    term = 0
                    break
                a = joint_moment(plain.get(cell, 0), centered.get(cell, 0))
                if a == 0:
                    term = 0
                    break
                term *= b**e * a
            total += term
    if den is not None:
        total = Fraction(total, den ** (2 * p))
    return ExactMoment(value=total, p=p, kind="full")
