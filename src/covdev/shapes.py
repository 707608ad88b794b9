"""Canonical even shapes of closed paths in a complete bipartite graph.

The trace expansion of the off-diagonal deviation matrix runs over closed
paths u_1 -> v_1 -> u_2 -> ... -> v_p -> u_1 with left labels u in [d] and
right labels v in [n].  The *shape* of a path relabels each side by order of
first appearance; the set S collects the shapes with u_k != u_{k+1} for all k
(cyclically, u_{p+1} = u_1) in which every edge is traversed at least twice.
Each shape carries

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
columns (L. Lovasz, Large Networks and Graph Limits, AMS 2012, ch. 5).  The
(pi, sigma) sum folds into a per-shape table of integer coefficients over
distinct quotients; each hom is one einsum over integer power matrices,
computed once per profile.  A float profile runs the same integer engine on
the exact values of its float64 cells (D is a power of two), so its W is the
correctly rounded exact value, and is exactly invariant under row and column
permutations.
"""

from __future__ import annotations

import math
import string
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .oracle import _mu, _numerators
from .params import _once, compute_params, compute_schatten_params
from .profile import ResourceLimitError, VarianceProfile, _float

DEFAULT_SHAPE_CAP = 8


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
    def is_canonical(self) -> bool:
        return _is_restricted_growth(self.left_seq) and _is_restricted_growth(self.right_seq)

    @property
    def has_distinct_consecutive_left(self) -> bool:
        u, p = self.left_seq, self.p
        return all(u[k] != u[(k + 1) % p] for k in range(p))

    @property
    def is_even(self) -> bool:
        """Every edge traversed at least twice."""
        return all(k >= 2 for k in self.edge_mult.values())

    @property
    def in_shape_set(self) -> bool:
        """Membership in S: even plus the cyclic left-distinctness constraint."""
        return self.is_even and self.has_distinct_consecutive_left

    @property
    def two_left_neighbors_per_right(self) -> bool:
        """Every right label touches at least two distinct left labels."""
        neighbors: dict[int, set[int]] = {}
        for (i, j) in self.edge_mult:
            neighbors.setdefault(j, set()).add(i)
        return all(len(s) >= 2 for s in neighbors.values())


def _is_restricted_growth(seq: Sequence[int]) -> bool:
    top = 0
    for x in seq:
        if x > top + 1 or x < 1:
            return False
        top = max(top, x)
    return True


def shape_of(left: Sequence[int], right: Sequence[int]) -> Shape:
    """Canonical relabeling of a path: each side renumbered by first appearance.

    Idempotent on canonical shapes.
    """
    if len(left) != len(right):
        raise ValueError(f"sequence lengths differ: {len(left)} vs {len(right)}")
    out = []
    for seq in (left, right):
        seen: dict[int, int] = {}
        canon = []
        for x in seq:
            if x not in seen:
                seen[x] = len(seen) + 1
            canon.append(seen[x])
        out.append(tuple(canon))
    return Shape(out[0], out[1])


def enumerate_shapes(p: int, cap: int = DEFAULT_SHAPE_CAP) -> list[Shape]:
    """All shapes of S at half-length p, in deterministic DFS order.

    Builds canonical sequences directly (the next label is one of the labels
    already used or the next fresh one) and prunes a branch as soon as the
    number of edges still traversed only once exceeds the remaining traversal
    slots.  p above the cap raises ResourceLimitError.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p > cap:
        raise ResourceLimitError(f"shape order {p} above cap {cap}")

    shapes: list[Shape] = []
    u_seq = [1]
    v_seq: list[int] = []
    mult: dict[tuple[int, int], int] = {}
    state = {"deficit": 0}

    def add(e):
        c = mult.get(e, 0)
        if c == 0:
            state["deficit"] += 1
        elif c == 1:
            state["deficit"] -= 1
        mult[e] = c + 1

    def remove(e):
        c = mult[e]
        if c == 1:
            state["deficit"] -= 1
            del mult[e]
        else:
            if c == 2:
                state["deficit"] += 1
            mult[e] = c - 1

    def choose_right(k: int):
        top = max(v_seq, default=0)
        for t in range(1, top + 2):
            v_seq.append(t)
            e = (u_seq[k], t)
            add(e)
            if state["deficit"] <= 2 * p - (2 * k + 1):
                choose_left(k)
            remove(e)
            v_seq.pop()

    def choose_left(k: int):
        if k == p - 1:
            # u_{p+1} = u_1 is forced; the cyclic constraint needs u_p != u_1
            if u_seq[k] != 1:
                e = (1, v_seq[k])
                add(e)
                if state["deficit"] == 0:
                    shapes.append(Shape(tuple(u_seq), tuple(v_seq)))
                remove(e)
            return
        top = max(u_seq)
        for w in range(1, top + 2):
            if w == u_seq[k]:
                continue
            u_seq.append(w)
            e = (w, v_seq[k])
            add(e)
            if state["deficit"] <= 2 * p - (2 * k + 2):
                choose_right(k + 1)
            remove(e)
            u_seq.pop()

    choose_right(0)
    return shapes


def L_value(s: Shape) -> int:
    """Gaussian expectation attached to the shape: prod_e E g^{k_e}, which is
    prod_e (k_e - 1)!! if every multiplicity is even, else 0."""
    return math.prod(_mu(k) for k in s.edge_mult.values())


def W_value(s: Shape, B: VarianceProfile):
    """Profile weight: sum over injective maps of left labels into rows and
    right labels into columns of prod_e b^{k_e}, by Moebius inversion (see
    the module docstring).

    Exact (Fraction) when the profile is exact, else the correctly rounded
    float of the exact value.  Zero when the shape needs more labels than the
    profile has rows or columns.
    """
    if s.m2 > B.d or s.m1 > B.n:
        return Fraction(0) if B.exact else 0.0
    total = sum(coef * _once(B, ("hom", q), _hom, q) for q, coef in _quotient_table(s).items())
    w = Fraction(total, _once(B, "numerators", _numerators)[1] ** (2 * s.p))
    return w if B.exact else _float(w)


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


def _quotient_table(s: Shape) -> dict[tuple, int]:
    """{quotient: sum of mu(pi) mu(sigma) over the label partitions giving it},
    zero coefficients dropped.  A quotient is its sorted ((left block, right
    block), multiplicity) edges.  Depends on the shape only."""
    edges = list(s.edge_mult.items())
    rights = _set_partitions(s.m1)
    table: dict[tuple, int] = defaultdict(int)
    for left, mu_left in _set_partitions(s.m2):
        for right, mu_right in rights:
            merged: dict[tuple[int, int], int] = defaultdict(int)
            for (i, j), k in edges:
                merged[left[i - 1], right[j - 1]] += k
            table[tuple(sorted(merged.items()))] += mu_left * mu_right
    return {q: coef for q, coef in table.items() if coef}


def _power(B: VarianceProfile, k: int) -> np.ndarray:
    return _once(B, "numerators", _numerators)[0] ** k


def _hom(B: VarianceProfile, quotient: tuple) -> int:
    """sum over all maps of left blocks into rows and right blocks into
    columns of prod_e N^{k_e}: one einsum, left blocks first in the letters."""
    left = 1 + max(a for (a, _), _ in quotient)
    letters = string.ascii_letters
    subscripts = ",".join(letters[a] + letters[left + b] for (a, b), _ in quotient)
    return int(np.einsum(subscripts + "->", *(_once(B, ("power", k), _power, k) for _, k in quotient), optimize=True))


def trace_moment_via_shapes(B: VarianceProfile, p: int, cap: int = DEFAULT_SHAPE_CAP):
    """sum_{s in S} L(s) W(s); must agree with oracle.offdiag_trace_moment.

    Exact rational in exact mode.  The reduction order is the deterministic
    enumeration order, so float results are reproducible.
    """
    shapes = enumerate_shapes(p, cap=cap)
    if B.exact:
        total = Fraction(0)
    else:
        total = 0.0
    for s in shapes:
        ell = L_value(s)
        if ell == 0:
            continue
        total += ell * W_value(s, B)
    return total


@dataclass(frozen=True)
class ShapeGraph:
    """The bipartite multigraph of a shape plus an optional spanning tree."""

    left_count: int
    right_count: int
    edges: tuple[tuple[tuple[int, int], int], ...]  # ((left, right), multiplicity)
    tree_edges: tuple[tuple[int, int], ...] | None = None

    def tree_is_spanning(self) -> bool:
        if self.tree_edges is None:
            return False
        if len(self.tree_edges) != self.left_count + self.right_count - 1:
            return False
        # union-find over left vertices 0..m2-1 and right vertices m2..m2+m1-1
        parent = list(range(self.left_count + self.right_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, j) in self.tree_edges:
            a, b = find(i - 1), find(self.left_count + j - 1)
            if a == b:
                return False  # cycle
            parent[a] = b
        roots = {find(x) for x in range(self.left_count + self.right_count)}
        return len(roots) == 1


def spanning_tree(s: Shape, root_side: str = "left") -> ShapeGraph:
    """First-arrival spanning tree of the shape graph.

    Rooted on the left, the walk is u_1 -> v_1 -> u_2 -> ... -> v_p -> u_1:
    left label k (k >= 2) is entered along (u_{i1(k)}, v_{i1(k)-1}) where
    i1(k) is its first index, and right label k along (u_{i2(k)}, v_{i2(k)}).
    Rooted on the right the walk is v_1 -> u_2 -> ... -> v_p -> u_1, so
    arrival indices are taken along that order: the root-side left label
    (always label 1) is entered at its first reappearance after the start,
    or along the closing edge (u_1, v_p) if it never reappears.  Either way
    the m1 + m2 - 1 edges form a spanning tree, which is asserted.
    """
    if root_side not in ("left", "right"):
        raise ValueError(f"root_side must be 'left' or 'right', got {root_side!r}")
    u, v, p = s.left_seq, s.right_seq, s.p
    m1, m2 = s.m1, s.m2

    def first_left(k, start):
        return next((l for l in range(start, p) if u[l] == k), None)

    def first_right(k, start):
        return next(l for l in range(start, p) if v[l] == k)

    tree: list[tuple[int, int]] = []
    if root_side == "left":
        for k in range(2, m2 + 1):
            i1 = first_left(k, 1)
            tree.append((u[i1], v[i1 - 1]))
        for k in range(1, m1 + 1):
            i2 = first_right(k, 0)
            tree.append((u[i2], v[i2]))
    else:
        for k in range(1, m2 + 1):
            i1 = first_left(k, 1)  # walk order: u_2 is the first left vertex seen
            if i1 is None:
                tree.append((u[0], v[p - 1]))  # label 1 only at the start: closing edge
            else:
                tree.append((u[i1], v[i1 - 1]))
        for k in range(2, m1 + 1):
            i2 = first_right(k, 1)
            tree.append((u[i2], v[i2]))

    graph = ShapeGraph(
        left_count=m2,
        right_count=m1,
        edges=tuple(sorted(s.edge_mult.items())),
        tree_edges=tuple(tree),
    )
    assert len(set(tree)) == m1 + m2 - 1, "first-arrival edges are not distinct"
    assert graph.tree_is_spanning(), "first-arrival edges do not span"
    return graph


@dataclass(frozen=True)
class CeilingWitness:
    """One per-shape inequality check: the weight W(s) against its ceiling."""

    applicable: bool
    case: str
    w_value: float
    ceiling: float
    ceiling_d_side: float | None = None
    ceiling_n_side: float | None = None

    @property
    def holds(self) -> bool:
        if not self.applicable:
            return True
        return self.w_value <= self.ceiling * (1 + 1e-9) + 1e-12


def check_opnorm_ceiling(s: Shape, B: VarianceProfile) -> CeilingWitness:
    """Per-shape weight ceiling behind the operator-norm bound.

    After normalizing the profile to sigma_* = 1 (weights are homogeneous of
    degree 2p, so this loses nothing), the claim is

      beta_inf <= 1:  W(s) <= min( d (sigma_inf/sigma_C)^{2 m1} sigma_C^{2(m2-1)},
                                   n (sigma_inf/sigma_C)^{2(m1-1)} sigma_C^{2 m2} )
      beta_inf > 1 :  the ratio sigma_inf/sigma_C is replaced by sigma_tilde.

    Profiles with sigma_* = 0 yield a not-applicable witness; sigma_* is
    exact for an exact profile, while a float one's can underflow to 0.
    """
    star, NP = _once(B, "normalized_params", _normalized_params)
    if not star:
        return CeilingWitness(applicable=False, case="not_applicable", w_value=0.0, ceiling=0.0)
    w_norm = float(W_value(s, B) / star ** (2 * s.p))  # exact division when the profile is exact
    m1, m2 = s.m1, s.m2
    if NP.beta_inf <= 1:
        case = "beta_le_1"
        a = NP.sigma_inf / NP.sigma_C if NP.sigma_C > 0 else 0.0
    else:
        case = "beta_gt_1"
        a = NP.sigma_tilde_inf
    c = NP.sigma_C
    d_side = B.d * a ** (2 * m1) * c ** (2 * (m2 - 1))
    n_side = B.n * a ** (2 * (m1 - 1)) * c ** (2 * m2)
    return CeilingWitness(
        applicable=True, case=case, w_value=w_norm,
        ceiling=min(d_side, n_side), ceiling_d_side=d_side, ceiling_n_side=n_side,
    )


def _normalized_params(B: VarianceProfile) -> tuple:
    """(sigma_*, the parameters of B / sigma_*, or None when sigma_* is 0).
    sigma_* is exact for an exact profile, so it is 0 only for the zero profile."""
    if B.exact:
        nums, den = B.integerized()
        star = Fraction(max(map(max, nums)), den)
    else:
        star = compute_params(B).sigma_star
    return star, compute_params(B.scaled(1 / star)) if star else None


def check_schatten_ceiling(s: Shape, B: VarianceProfile, p_schatten: int) -> CeilingWitness:
    """Per-shape weight ceiling behind the Schatten bound.

      beta_p <= 1:  W(s) <= d sigma_*^{2p} (sigma_p/(sigma_* sigma_C))^{2 m1}
                                 (sigma_C/sigma_*)^{2(m2-1)}
      beta_p > 1 :  sigma_p/(sigma_* sigma_C) is replaced by sigma_bar_p/sigma_*^2.

    Requires sum_e k_e = 2 p_schatten (the shape and the Schatten order must
    match).  The statement is scale-invariant, so no normalization is needed.
    Only the zero profile passes trivially; a nonzero profile whose float
    sigma_* underflows to 0 yields a not-applicable witness.
    """
    if sum(s.edge_mult.values()) != 2 * p_schatten:
        raise ValueError(
            f"shape traverses {sum(s.edge_mult.values())} edges, expected {2 * p_schatten}"
        )
    if B.is_zero:
        return CeilingWitness(applicable=True, case="beta_le_1", w_value=0.0, ceiling=0.0)
    P = compute_params(B)
    if P.sigma_star == 0:
        return CeilingWitness(applicable=False, case="not_applicable", w_value=0.0, ceiling=0.0)
    Q = compute_schatten_params(B, p_schatten)
    star, c = P.sigma_star, P.sigma_C
    m1, m2 = s.m1, s.m2
    if Q.beta_p <= 1:
        case = "beta_le_1"
        ratio = Q.sigma_p / (star * c) if c > 0 else 0.0
    else:
        case = "beta_gt_1"
        ratio = Q.sigma_bar_p / star**2
    ceiling = B.d * star ** (2 * p_schatten) * ratio ** (2 * m1) * (c / star) ** (2 * (m2 - 1))
    return CeilingWitness(applicable=True, case=case, w_value=float(W_value(s, B)), ceiling=ceiling)
