"""Canonical even shapes of closed paths in a complete bipartite graph.

The trace expansion of the off-diagonal deviation matrix runs over closed
paths u_1 -> v_1 -> u_2 -> ... -> v_p -> u_1 with left labels u in [d] and
right labels v in [n].  The *shape* of a path relabels each side by order of
first appearance; the set S collects the shapes with u_k != u_{k+1} for all k
(cyclically, u_{p+1} = u_1) in which every edge is traversed at least twice.
enumerate_shapes lists S by one depth-first walk over the 2p half-steps, each
side's labels a restricted-growth string (Knuth, TAOCP 4A, 7.2.1.5).  Each
shape carries

    L(s) = prod_e mu(k_e)   with mu(k) = (k-1)!! for even k, else 0,
    W(s) = sum over injective label assignments of prod_e b_{w(i) t(j)}^{k_e},

and the off-diagonal trace moment factorizes as sum_{s in S} L(s) W(s),
which the oracle module recomputes independently by direct expansion.

W is computed without visiting the injective maps.  Writing b_ij = N_ij / D
with integers N_ij, Moebius inversion over the partitions pi of the left
labels and sigma of the right labels gives

    D^{2p} W(s) = sum_{pi, sigma} mu(pi) mu(sigma) hom(s / (pi, sigma), N),
    mu(pi) = prod_{blocks b of pi} (-1)^{|b|-1} (|b|-1)!,

where s / (pi, sigma) merges the labels of each block (multiplicities add)
and hom sums prod_e N^{k_e} over all maps of its blocks into rows and
columns (L. Lovasz, Large Networks and Graph Limits, AMS 2012, ch. 5).  L, W,
m1, m2 and both ceilings depend on a shape only through its edge_class, its
edge multigraph up to relabelling each side, and hom on a quotient only
through the same.  _canonical is that one form (on canonical labelling see
McKay and Piperno, J. Symbolic Comput. 2014), for classes and quotients alike.
So W is kept per class from one table of integer coefficients over quotient
classes, the CLI census builds its fields once per class, and the shape sum
and verify's ceilings run once per class of shape_classes(p).  Each hom runs a
variable elimination plan cached per (quotient edges, d, n): a step sums out
the block whose factors span the fewest cells by one object-dtype einsum, so
no product wraps, and the result is asserted to be a Python int.  Each hom
and W is kept on the profile.  A float profile runs the same integer engine
on the exact values of its float64 cells (D is a power of two), so W and the
shape sum sum_s L(s) W(s) are exact Fractions for either kind of profile,
exactly invariant under row and column permutations; only the CLI rounds, once.

The two per-shape ceilings, taken at sigma_* = 1, share one form,
W(s) <= d a^{2 m1} c^{2(m2-1)} with c = sigma_C / sigma_*, and differ only in
the scale-free ratio a; the operator-norm one also has an n side.
"""

from __future__ import annotations

import math
import string
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np

from .oracle import _check_order, joint_moment
from .params import CASE_LE, CASE_NA, _once, beta_case, normalized_params, normalized_schatten_params
from .profile import ResourceLimitError, VarianceProfile, _float

DEFAULT_SHAPE_CAP = 8
_CLASSES: dict[tuple, Shape] = {}  # canonical form of an edge multigraph -> the first shape met with it


@dataclass(frozen=True)
class Shape:
    """A canonically labelled closed path, stored as its two label sequences."""

    left_seq: tuple[int, ...]
    right_seq: tuple[int, ...]

    def __post_init__(self):
        if len(self.left_seq) != len(self.right_seq):
            raise ValueError("left and right sequences must have equal length")
        if not self.left_seq:
            raise ValueError("empty shape")

    @property
    def p(self) -> int:
        return len(self.left_seq)

    @property
    def m1(self) -> int:
        """Distinct right labels."""
        return len(set(self.right_seq))

    @property
    def m2(self) -> int:
        """Distinct left labels."""
        return len(set(self.left_seq))

    @cached_property
    def edge_mult(self) -> dict[tuple[int, int], int]:
        """Traversal count k_e per bipartite edge (left label, right label)."""
        mult: dict[tuple[int, int], int] = {}
        u, v, p = self.left_seq, self.right_seq, self.p
        for k in range(p):
            for e in ((u[k], v[k]), (u[(k + 1) % p], v[k])):
                mult[e] = mult.get(e, 0) + 1
        return mult

    @property
    @lru_cache(maxsize=None)
    def edge_class(self) -> Shape:
        """The first shape met with the same _canonical edge multigraph; cached per shape."""
        return _CLASSES.setdefault(_canonical(tuple(sorted(self.edge_mult.items()))), self)


@lru_cache(maxsize=None)
def _canonical(edges: tuple) -> tuple:
    """Sorted ((left, right), multiplicity) edges relabelled from 0 on each side
    by the least, over each order of the side with fewer labels, sorted list of
    the other side's vectors of multiplicities: equal iff the multigraphs are."""
    mult, lefts, rights = dict(edges), sorted({a for (a, _), _ in edges}), sorted({b for (_, b), _ in edges})
    flip = len(rights) < len(lefts)  # then the rights are ordered and the lefts' vectors sorted
    small, big = (rights, lefts) if flip else (lefts, rights)
    vecs = [[mult.get((b, a) if flip else (a, b), 0) for a in small] for b in big]
    form = min(sorted(tuple(map(v.__getitem__, o)) for v in vecs) for o in permutations(range(len(small))))
    return tuple(sorted((((j, i) if flip else (i, j)), k) for j, v in enumerate(form) for i, k in enumerate(v) if k))


def enumerate_shapes(p: int, cap: int = DEFAULT_SHAPE_CAP) -> list[Shape]:
    """All shapes of S at half-length p, in deterministic DFS order.

    One recursive walk over the 2p half-steps: half-step 2k picks v_k, then
    2k+1 picks u_{k+1} != u_k, each in increasing order from the labels
    already used on its side and the next fresh one; the last u is forced
    back to u_1 = 1.  A branch is pruned as soon as more edges are traversed
    exactly once than half-steps are left, so a walk that reaches 2p has
    every edge at least twice.  p above the cap raises ResourceLimitError (a cap below 1, ValueError).
    """
    return _walk(p, cap)


@lru_cache(maxsize=None)
def shape_classes(p: int) -> tuple[tuple[Shape, int], ...]:
    """(edge_class, number of shapes in it) over S at half-length p, in enumeration order; cached per p.  It
    calls _walk, not enumerate_shapes, so that a call of enumerate_shapes is always one walk."""
    return tuple(Counter(s.edge_class for s in _walk(p, DEFAULT_SHAPE_CAP)).items())


def _walk(p: int, cap: int) -> list[Shape]:
    _check_order(p, cap)
    if p > cap:
        raise ResourceLimitError(f"shape order {p} above cap {cap}")
    shapes: list[Shape] = []
    u, v = [1], []
    mult: dict[tuple[int, int], int] = {}  # traversals so far per edge (left label, right label)

    def walk(h: int, once: int) -> None:
        """Take half-step h of a path whose edges so far include `once` traversed exactly once."""
        if h == 2 * p:
            shapes.append(Shape(tuple(u[:p]), tuple(v)))
            return
        k, odd = divmod(h, 2)
        seq = u if odd else v
        for label in (1,) if h == 2 * p - 1 else range(1, max(seq, default=0) + 2):
            if odd and label == u[k]:
                continue
            e = (label, v[k]) if odd else (u[k], label)
            c = mult.get(e, 0)
            mult[e] = c + 1
            if (after := once + (c == 0) - (c == 1)) < 2 * p - h:
                seq.append(label)
                walk(h + 1, after)
                seq.pop()
            mult[e] = c

    walk(0, 0)
    return shapes


def L_value(s: Shape) -> int:
    """Gaussian expectation attached to the shape: prod_e E g^{k_e}, which is
    prod_e (k_e - 1)!! if every multiplicity is even, else 0."""
    return math.prod(joint_moment(k, 0) for k in s.edge_mult.values())


def W_value(s: Shape, B: VarianceProfile) -> Fraction:
    """Profile weight: sum over injective maps of left labels into rows and
    right labels into columns of prod_e b^{k_e}, by Moebius inversion (see
    the module docstring), exact and computed once per profile and class.
    Zero when the shape needs more labels than the profile has rows or columns.
    """
    if s.m2 > B.d or s.m1 > B.n:
        return Fraction(0)
    c = s.edge_class
    return _once(B, ("W", c), lambda B: Fraction(sum(
        coef * _once(B, ("hom", q), _hom, q) for q, coef in _quotient_table(c)), B.numerators[1] ** (2 * s.p)))


@lru_cache(maxsize=None)
def _set_partitions(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every partition of m labels as (block of each label, blocks numbered
    from 0 by first appearance; its Moebius value mu)."""
    blocks = [()]
    for _ in range(m):
        blocks = [r + (b,) for r in blocks for b in range(max(r, default=-1) + 2)]
    return tuple(
        (r, math.prod((-1) ** (c - 1) * math.factorial(c - 1) for c in Counter(r).values())) for r in blocks
    )


@lru_cache(maxsize=None)
def _quotient_table(s: Shape) -> tuple[tuple[tuple, int], ...]:
    """(_canonical quotient, sum of mu(pi) mu(sigma) over the label partitions
    giving one of its class) pairs, zero sums dropped; one per edge class."""
    edges = list(s.edge_mult.items())
    rights = _set_partitions(s.m1)
    table: dict[tuple, int] = defaultdict(int)
    for left, mu_left in _set_partitions(s.m2):
        for right, mu_right in rights:
            merged: dict[tuple[int, int], int] = defaultdict(int)
            for (i, j), k in edges:
                merged[left[i - 1], right[j - 1]] += k
            table[_canonical(tuple(sorted(merged.items())))] += mu_left * mu_right
    return tuple((q, coef) for q, coef in table.items() if coef)


@lru_cache(maxsize=None)
def _plan(edges: tuple[tuple[int, int], ...], d: int, n: int) -> tuple[tuple, ...]:
    """Variable elimination steps for hom over a quotient with these (left
    block, right block) edges on a d x n profile.  Factors are the edges, then
    each step's result.  A step sums out the block whose factors span the fewest
    cells: (its factors, their einsum subscripts).  A quotient of a closed path
    is connected, so only the last step sums out every block left: hom."""
    scopes, steps = [((0, a), (1, b)) for a, b in edges], []

    def span(v):
        inputs = tuple(i for i, scope in enumerate(scopes) if v in scope)
        union = tuple(dict.fromkeys(sum((scopes[i] for i in inputs), ())))
        return math.prod((d, n)[side] for side, _ in union), v, inputs, union

    while blocks := set(sum(scopes, ())):
        _, v, inputs, union = min(map(span, blocks))
        letter = dict(zip(union, string.ascii_letters))
        out = tuple(u for u in union if u != v)
        terms = ",".join("".join(letter[u] for u in scopes[i]) for i in inputs)
        steps.append((inputs, terms + "->" + "".join(letter[u] for u in out)))
        scopes = [() if i in inputs else scope for i, scope in enumerate(scopes)] + [out]
    return tuple(steps)


def _hom(B: VarianceProfile, quotient: tuple) -> int:
    """sum over all maps of left blocks into rows and right blocks into
    columns of prod_e N^{k_e}, along the plan for the quotient's edges."""
    edges, ks = zip(*quotient)
    factors = [_once(B, ("power", k), lambda B, k: B.numerators[0] ** k, k) for k in ks]
    for inputs, subscripts in _plan(edges, B.d, B.n):
        factors.append(np.einsum(subscripts, *(factors[i] for i in inputs), dtype=object))
    assert type(factors[-1]) is int, type(factors[-1])
    return factors[-1]


def trace_moment_via_shapes(B: VarianceProfile, p: int) -> Fraction:
    """sum_{s in S} L(s) W(s), exact, summed per edge class; equals oracle.offdiag_trace_moment."""
    return sum((n * ell * W_value(s, B) for s, n in shape_classes(p) if (ell := L_value(s))), Fraction(0))


@dataclass(frozen=True)
class CeilingWitness:
    """One per-shape inequality check: the weight W(s) against its ceiling."""

    applicable: bool
    case: str
    w_value: float
    ceiling: float

    @property
    def holds(self) -> bool:
        if not self.applicable:
            return True
        return self.w_value <= self.ceiling * (1 + 1e-9) + 1e-12


_NOT_APPLICABLE = CeilingWitness(applicable=False, case=CASE_NA, w_value=0.0, ceiling=0.0)


def _witness(s: Shape, B: VarianceProfile, beta: float, a_le: float, a_gt: float, n_side: bool) -> CeilingWitness:
    """W(s) at sigma_* = 1 against d a^{2 m1} c^{2(m2-1)}, c = sigma_C / sigma_*,
    and with n_side also against n a^{2(m1-1)} c^{2 m2}; a is a_le or a_gt by beta_case(beta).

    W(s) / sigma_*^{2p} is divided exactly, sigma_* the exact largest cell,
    and rounded once.  a and c are ratios of the parameters of 2^-e B (see
    params), so no side depends on the profile's scale.
    """
    case = beta_case(beta)
    a = a_le if case == CASE_LE else a_gt
    P = normalized_params(B)[1]
    c = P.sigma_C / P.sigma_star
    ceiling = B.d * a ** (2 * s.m1) * c ** (2 * (s.m2 - 1))
    if n_side:
        ceiling = min(ceiling, B.n * a ** (2 * (s.m1 - 1)) * c ** (2 * s.m2))
    nums, den = B.numerators
    w = W_value(s, B) / Fraction(nums.max(), den) ** (2 * s.p)
    return CeilingWitness(applicable=True, case=case, w_value=_float(w), ceiling=ceiling)


def check_opnorm_ceiling(s: Shape, B: VarianceProfile) -> CeilingWitness:
    """Per-shape weight ceiling behind the operator-norm bound, at sigma_* = 1
    (weights are homogeneous of degree 2p, so this loses nothing):

      W(s) <= min( d a^{2 m1} c^{2(m2-1)}, n a^{2(m1-1)} c^{2 m2} ),  c = sigma_C/sigma_*,
      a = sigma_inf/(sigma_C sigma_*) if beta_inf <= 1, else sigma_tilde/sigma_*^2.

    The zero profile yields a not-applicable witness.
    """
    if B.is_zero:
        return _NOT_APPLICABLE
    P = normalized_params(B)[1]
    return _witness(s, B, P.beta_inf, P.sigma_inf / P.sigma_C / P.sigma_star, P.sigma_tilde_inf / P.sigma_star**2,
                    n_side=True)


def check_schatten_ceiling(s: Shape, B: VarianceProfile) -> CeilingWitness:
    """Per-shape weight ceiling behind the Schatten bound, at sigma_* = 1:

      W(s) <= d a^{2 m1} c^{2(m2-1)},  c = sigma_C/sigma_*,
      a = sigma_p/(sigma_C sigma_*) if beta_p <= 1, else sigma_bar_p/sigma_*^2,

    at the Schatten order p = s.p: a shape of half-length p traverses 2p
    edges.  The zero profile yields a not-applicable witness.
    """
    if B.is_zero:
        return _NOT_APPLICABLE
    P = normalized_params(B)[1]
    Q = normalized_schatten_params(B, s.p)[1]
    return _witness(s, B, Q.beta_p, Q.sigma_p / P.sigma_C / P.sigma_star, Q.sigma_bar_p / P.sigma_star**2,
                    n_side=False)
