"""Exact Gaussian trace moments at desk scale, by direct expansion.

This module is the ground truth the shape engine and the Monte Carlo
estimates are tested against.  Everything reduces to joint moments of a
standard Gaussian g:

    a_{n,m} = E g^n (g^2 - 1)^m
            = sum_{k=0}^m binom(m, k) (-1)^{m-k} E g^{n+2k},

with E g^r = (r-1)!! for even r and 0 for odd r, so E g^r = a_{r,0}.  The
three trace moments of M = X X^T - E X X^T expand over index tuples, the
expectation of each term factorizing over matrix cells by independence.
Every moment has homogeneous degree 2p in the entries, so it is computed in
integers over the common denominator D of the entries (the profile's
`numerators`) and divided by D^{2p} once.  A float profile uses the exact
value of each float64 cell (D is a power of two), so every moment is an
exact Fraction for either kind of profile; only the CLI rounds, once.

The off-diagonal and full moments sum over the closed paths u_1 -> v_1 ->
u_2 -> ... -> v_p -> u_1, the off-diagonal one over those with no diagonal
step u_{k+1} = u_k, so one walk per order gives both.  The p rotations of a
path traverse the same cells as often, so they have one term: only the paths
with u_1 = min_k u_k are walked, each weighted by p/c, c = #{k : u_k = u_1}.
The walk goes depth first over concrete labels, keeping the plain and
centered traversal counts of each cell.  A cell is unfinished while its
expectation a_{plain, centered} is zero as it stands.  A branch is pruned at
a zero cell, when more cells are unfinished than half-steps remain, or when
the forced return to u_1 does not finish exactly the unfinished cells.  Work
is capped by a count, not by time, so resource errors are deterministic:
walk nodes (one per cell traversal added), and multiply-adds for the
diagonal moment, whose row moments are convolved one column at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .profile import ResourceLimitError, VarianceProfile

DEFAULT_TERM_CAP = 10**7  # walk nodes (off-diagonal and full) or multiply-adds (diagonal)


@lru_cache(maxsize=None)
def joint_moment(n: int, m: int) -> int:
    """a_{n,m} = E g^n (g^2-1)^m, an exact integer.

    Nonnegative, and zero exactly when n is odd or (n, m) = (0, 1);
    a_{n,0} = E g^n = (n-1)!! for even n.
    """
    if n < 0 or m < 0:
        raise ValueError("moment orders must be nonnegative")
    if n % 2:
        return 0
    return sum(math.comb(m, k) * (-1) ** (m - k) * math.prod(range(n + 2 * k - 1, 0, -2)) for k in range(m + 1))


def joint_moment_table(max_n: int, max_m: int) -> dict[tuple[int, int], int]:
    """The a_{n,m} values for 0 <= n <= max_n, 0 <= m <= max_m."""
    return {(n, m): joint_moment(n, m) for n in range(max_n + 1) for m in range(max_m + 1)}


def _moment(B: VarianceProfile, p: int, total: int) -> Fraction:
    """The integer sum over D^{2p}."""
    return Fraction(total, B.numerators[1] ** (2 * p))


def _path_sum(B: VarianceProfile, p: int, diagonal: bool, cap: int) -> tuple[int, int]:
    """D^{2p} times the sum over closed paths of the expectation of their entry
    product, over the paths with no centered step and over all.  A step u_k ->
    v_k -> u_{k+1} is two half-steps, each a plain traversal (a factor b g) of a
    cell; with diagonal steps on, u_{k+1} = u_k is one centered traversal of
    (u_k, v_k), a factor b^2 (g^2 - 1).  The walk counts those steps in z.

    Only paths with every u_k >= u_1 are walked, their terms summed into T_c
    by c = #{k : u_k = u_1}, and the sum is sum_c p T_c / c.  Pairing a path
    with each shift that brings a minimal row to the front is a bijection
    onto (walked path, any of p shifts), periodic paths included, so each c
    class sums to p T_c / c, an integer."""
    if p < 1 or cap < 1:
        raise ValueError(f"p must be >= 1, got {p}" if p < 1 else f"cap must be >= 1, got {cap}")
    n = B.n
    N = B.numerators[0].ravel().tolist()  # cell a = (a // n, a % n)
    plain, cent = [0] * len(N), [0] * len(N)
    unfinished: set[int] = set()
    path: list[int] = []  # the cells traversed, once per traversal
    off, full = [0] * (p + 1), [0] * (p + 1)  # T_c: the canonical paths' sums, by c = #{k : u_k = u_1}
    nodes = first = 0  # nodes: cell traversals added; first: u_1 = min_k u_k of the paths being walked

    def mark(a: int) -> None:
        """Keep cell a in `unfinished` while a_{plain, centered} is zero as it stands."""
        x = plain[a]
        if x & 1 or (x == 0 and cent[a] == 1):
            unfinished.add(a)
        else:
            unfinished.discard(a)

    def leaf(c: int, z: int, dp: tuple[int, ...], dc: tuple[int, ...]) -> None:
        """Add the term of the path closed by one more plain (dp) or centered (dc) traversal of each cell."""
        term = 1
        for a in set(path):
            x, y = plain[a] + (a in dp), cent[a] + (a in dc)
            term *= N[a] ** (x + 2 * y) * joint_moment(x, y)
        full[c] += term
        if z == 0:
            off[c] += term

    def walk(k: int, u: int, c: int, z: int) -> None:
        """Extend the path u_1 .. u_k = u, c of whose rows are u_1; each unfinished cell needs a half-step."""
        nonlocal nodes
        if nodes > cap:
            raise ResourceLimitError(f"direct expansion visits more than {cap} walk nodes")
        left = 2 * (p - k)  # half-steps left after the step u_k -> v_k -> u_{k+1}
        if k == p:  # the return to u_1 must finish every unfinished cell
            if u != first and len(unfinished) == 2:  # so v_p is their column; both return cells must be odd
                v = next(iter(unfinished)) % n
                a, b = u * n + v, first * n + v
                nodes += 2
                if plain[a] & plain[b] & 1:
                    leaf(c, z, (a, b), ())
            elif u == first and diagonal and len(unfinished) <= 1:  # a centered cell of row u
                for a in list(unfinished) or range(u * n, u * n + n):
                    if a // n == u:
                        nodes += 1
                        if plain[a] % 2 == 0 < plain[a] + cent[a]:
                            leaf(c, z + 1, (), (a,))
            return
        for a in range(u * n, u * n + n):
            if not N[a]:
                continue
            plain[a] += 1
            mark(a)
            path.append(a)
            nodes += 1
            if len(unfinished) <= left + 1:
                for b in range(first * n + a % n, len(N), n):  # rows u_{k+1} >= u_1
                    if b != a and N[b]:
                        plain[b] += 1
                        mark(b)
                        path.append(b)
                        nodes += 1
                        if len(unfinished) <= left:
                            walk(k + 1, b // n, c + (b // n == first), z)
                        plain[b] -= 1
                        mark(b)
                        path.pop()
            plain[a] -= 1
            if diagonal:
                cent[a] += 1
                mark(a)
                nodes += 1
                if len(unfinished) <= left:
                    walk(k + 1, u, c + (u == first), z + 1)
                cent[a] -= 1
            mark(a)
            path.pop()

    for first in range(B.d):
        walk(1, first, 1, 0)
    if nodes > cap:
        raise ResourceLimitError(f"direct expansion visits more than {cap} walk nodes")
    for totals in (off, full):
        assert all(p * t % c == 0 for c, t in enumerate(totals) if c), "a rotation class was not walked whole"
    return sum(p * t // c for c, t in enumerate(off) if c), sum(p * t // c for c, t in enumerate(full) if c)


def offdiag_trace_moment(B: VarianceProfile, p: int, cap: int = DEFAULT_TERM_CAP) -> Fraction:
    """E Tr(offdiag(X X^T))^p: the closed paths with u_k != u_{k+1} (cyclically),
    whose expectation is the product over cells of b^c mu(c): a walk with no diagonal step."""
    return _moment(B, p, _path_sum(B, p, False, cap)[0])


def trace_moments(B: VarianceProfile, p: int, cap: int = DEFAULT_TERM_CAP) -> tuple[Fraction, Fraction]:
    """(E Tr(offdiag(X X^T))^p, E Tr(X X^T - E X X^T)^p) from one walk with diagonal steps, whose
    expectation is the product over cells of b^e a_{plain, centered}; `cap` bounds that walk's nodes."""
    off, full = _path_sum(B, p, True, cap)
    return _moment(B, p, off), _moment(B, p, full)


def diag_trace_moment(B: VarianceProfile, p: int, cap: int = DEFAULT_TERM_CAP) -> Fraction:
    """E Tr(Diag(X X^T) - E X X^T)^p = sum_i E S_i^p, S_i = sum_j b_ij^2 (g_ij^2 - 1).

    Each row's moments E S^q, q <= p, are built one column at a time: adding
    the independent term b^2 (g^2 - 1) convolves them with its moments,
    E (S + b^2 (g^2 - 1))^q = sum_r binom(q, r) E S^{q-r} b^{2r} a_{0,r},
    which is (p+1)(p+2)/2 multiply-adds per cell.
    """
    if p < 1 or cap < 1:
        raise ValueError(f"p must be >= 1, got {p}" if p < 1 else f"cap must be >= 1, got {cap}")
    terms = B.d * B.n * (p + 1) * (p + 2) // 2
    if terms > cap:
        raise ResourceLimitError(f"diagonal expansion needs {terms} multiply-adds, cap is {cap}")
    coef = [[math.comb(q, r) * joint_moment(0, r) for r in range(q + 1)] for q in range(p + 1)]
    total = 0
    for row in B.numerators[0].tolist():
        moments = [1] + [0] * p  # E S^q of the empty sum
        for x in row:
            if x:
                y = [x ** (2 * r) for r in range(p + 1)]
                moments = [sum(c * moments[q - r] * y[r] for r, c in enumerate(cs)) for q, cs in enumerate(coef)]
        total += moments[p]
    return _moment(B, p, total)
