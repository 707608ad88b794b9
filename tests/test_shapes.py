import hashlib
import math
import string
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covdev import (
    ResourceLimitError,
    Shape,
    VarianceProfile,
    W_value,
    L_value,
    check_opnorm_ceiling,
    check_schatten_ceiling,
    enumerate_shapes,
    joint_moment,
    load_profile,
    main_upper_bound,
    offdiag_trace_moment,
    rank_one,
    schatten_upper_bound,
    trace_moment_via_shapes,
)
from covdev import shapes

from conftest import cli_payload, entries, float_profile, rational_profile, scaled

B2212 = load_profile("1,2\n3,4")


def _is_restricted_growth(seq) -> bool:
    top = 0
    for x in seq:
        if x > top + 1 or x < 1:
            return False
        top = max(top, x)
    return True


def is_canonical(s: Shape) -> bool:
    return _is_restricted_growth(s.left_seq) and _is_restricted_growth(s.right_seq)


def has_distinct_consecutive_left(s: Shape) -> bool:
    u, p = s.left_seq, s.p
    return all(u[k] != u[(k + 1) % p] for k in range(p))


def is_even(s: Shape) -> bool:
    """Every edge traversed at least twice."""
    return all(k >= 2 for k in s.edge_mult.values())


def in_shape_set(s: Shape) -> bool:
    """Membership in S: even plus the cyclic left-distinctness constraint."""
    return is_even(s) and has_distinct_consecutive_left(s)


def two_left_neighbors_per_right(s: Shape) -> bool:
    """Every right label touches at least two distinct left labels."""
    neighbors: dict[int, set[int]] = {}
    for (i, j) in s.edge_mult:
        neighbors.setdefault(j, set()).add(i)
    return all(len(n) >= 2 for n in neighbors.values())


def shape_of(left, right) -> Shape:
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


def brute_force_shape_set(p):
    """Independent enumeration: every path (u, v) in [p]^p x [p]^p with the
    cyclic left-distinctness constraint, canonicalized, filtered to the even
    ones, deduplicated."""
    found = set()
    labels = range(1, p + 1)
    for u in product(labels, repeat=p):
        if any(u[k] == u[(k + 1) % p] for k in range(p)):
            continue
        for v in product(labels, repeat=p):
            s = shape_of(u, v)
            if is_even(s):
                found.add((s.left_seq, s.right_seq))
    return found


def restricted_growth_shape_set(p):
    """Independent enumeration over canonical labellings only: every pair of
    restricted-growth strings of length p (Bell(p)^2 candidates), filtered to
    the cyclically left-distinct, even ones."""
    strings = [()]
    for _ in range(p):
        strings = [r + (x,) for r in strings for x in range(1, max(r, default=0) + 2)]
    lefts = [u for u in strings if all(u[k] != u[(k + 1) % p] for k in range(p))]
    return {(u, v) for u in lefts for v in strings if is_even(Shape(u, v))}


class TestShapeOf:
    def test_worked_example(self):
        s = shape_of((3, 4, 3, 4), (2, 1, 1, 5))
        assert s.left_seq == (1, 2, 1, 2)
        assert s.right_seq == (1, 2, 2, 3)

    def test_already_canonical(self):
        s = shape_of((1, 2), (1, 1))
        assert (s.left_seq, s.right_seq) == ((1, 2), (1, 1))

    def test_plain_relabel(self):
        s = shape_of((7, 7), (4, 4))
        assert (s.left_seq, s.right_seq) == ((1, 1), (1, 1))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(1, 7))
            u = tuple(int(x) for x in rng.integers(1, 9, size=p))
            v = tuple(int(x) for x in rng.integers(1, 9, size=p))
            s = shape_of(u, v)
            assert is_canonical(s)
            t = shape_of(s.left_seq, s.right_seq)
            assert (t.left_seq, t.right_seq) == (s.left_seq, s.right_seq)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shape_of((1, 2), (1,))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_hypothesis_canonical(self, p, data):
        u = data.draw(st.lists(st.integers(1, 8), min_size=p, max_size=p))
        v = data.draw(st.lists(st.integers(1, 8), min_size=p, max_size=p))
        s = shape_of(u, v)
        assert is_canonical(s)
        assert sum(s.edge_mult.values()) == 2 * p


ORDER_SHA256 = {
    7: "fcadea381742a225f96be449b852d9615e88c996af605d1f9d7c41fb2a2f0dc3",
    8: "68136636400688812eb6d846d0ab8418d42cd827a68c062c16302fc4525a59b5",
}


class TestEnumerate:
    def test_p1_empty(self):
        assert enumerate_shapes(1) == []

    def test_p2_single_shape(self):
        shapes = enumerate_shapes(2)
        assert len(shapes) == 1
        s = shapes[0]
        assert (s.left_seq, s.right_seq) == ((1, 2), (1, 1))
        assert (s.m1, s.m2) == (1, 2)
        assert set(s.edge_mult.values()) == {2}

    def test_p3_single_shape(self):
        shapes = enumerate_shapes(3)
        assert len(shapes) == 1
        s = shapes[0]
        assert (s.left_seq, s.right_seq) == ((1, 2, 3), (1, 1, 1))
        assert (s.m1, s.m2) == (1, 3)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_brute_force(self, p):
        got = {(s.left_seq, s.right_seq) for s in enumerate_shapes(p)}
        assert got == brute_force_shape_set(p) == restricted_growth_shape_set(p)

    def test_matches_brute_force_p5(self):
        """Against the restricted-growth reference, which the test above checks
        against the brute force over all of [p]^p x [p]^p."""
        got = {(s.left_seq, s.right_seq) for s in enumerate_shapes(5)}
        assert got == restricted_growth_shape_set(5)

    @pytest.mark.parametrize("p", [6, 7])
    def test_matches_restricted_growth_reference(self, p):
        got = {(s.left_seq, s.right_seq) for s in enumerate_shapes(p)}
        assert got == restricted_growth_shape_set(p)

    def test_structural_invariants_up_to_p6(self):
        for p in range(2, 7):
            shapes = enumerate_shapes(p)
            assert len({(s.left_seq, s.right_seq) for s in shapes}) == len(shapes)
            for s in shapes:
                assert is_canonical(s)
                assert in_shape_set(s)
                assert two_left_neighbors_per_right(s)
                assert sum(s.edge_mult.values()) == 2 * p

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_shapes(3, cap=2)
        assert len(enumerate_shapes(3, cap=3)) == 1
        for cap in (0, -1):
            with pytest.raises(ValueError) as info:
                enumerate_shapes(2, cap=cap)
            assert str(info.value) == f"cap must be >= 1, got {cap}"

    @pytest.mark.parametrize("make, message", [
        (lambda: Shape((1,), (1, 2)), "left and right sequences must have equal length"),
        (lambda: Shape((), ()), "empty shape"),
        (lambda: enumerate_shapes(0), "p must be >= 1, got 0"),
    ], ids=["unequal_lengths", "empty", "order_0"])
    def test_invalid_shape_or_order_rejected(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_deterministic_order(self):
        a = [(s.left_seq, s.right_seq) for s in enumerate_shapes(5)]
        b = [(s.left_seq, s.right_seq) for s in enumerate_shapes(5)]
        assert a == b

    @pytest.mark.parametrize("p", sorted(ORDER_SHA256))
    def test_order_pinned(self, p):
        """The census order, which the CLI's shape listings follow, as the
        SHA-256 of the repr of its (left_seq, right_seq) list."""
        order = [(s.left_seq, s.right_seq) for s in enumerate_shapes(p)]
        assert hashlib.sha256(repr(order).encode()).hexdigest() == ORDER_SHA256[p]


class TestCensusWalk:
    def test_each_census_call_walks_once(self, monkeypatch):
        walks = []

        def spy(p, cap):
            walks.append(p)
            return walk(p, cap)

        walk = shapes._walk
        monkeypatch.setattr(shapes, "_walk", spy)
        shapes.shape_classes.cache_clear()
        first = enumerate_shapes(6)
        assert enumerate_shapes(6) == first and len(first) == 247
        assert walks == [6, 6]  # no census is kept across calls
        assert shapes.shape_classes(6) == shapes.shape_classes(6)
        assert sum(n for _, n in shapes.shape_classes(6)) == 247
        assert walks == [6, 6, 6]  # shape_classes walks once per order

    def test_a_returned_list_is_the_callers(self):
        first = enumerate_shapes(5)
        expected = list(first)
        first.reverse()
        first.append(first[0])
        assert enumerate_shapes(5) == expected

    @pytest.mark.parametrize("make, kind, message", [
        (lambda: enumerate_shapes(9), ResourceLimitError, "shape order 9 above cap 8"),
        (lambda: enumerate_shapes(3, cap=2), ResourceLimitError, "shape order 3 above cap 2"),
        (lambda: enumerate_shapes(2, cap=0), ValueError, "cap must be >= 1, got 0"),
        (lambda: enumerate_shapes(0), ValueError, "p must be >= 1, got 0"),
        (lambda: shapes.shape_classes(9), ResourceLimitError, "shape order 9 above cap 8"),
    ], ids=["above_default_cap", "above_cap", "cap_0", "order_0", "classes_above_cap"])
    def test_checks_keep_their_messages(self, make, kind, message):
        enumerate_shapes(2), enumerate_shapes(3)
        for _ in range(2):
            with pytest.raises(kind) as info:
                make()
            assert type(info.value) is kind and str(info.value) == message


class TestLValue:
    def test_p2_shape(self):
        assert L_value(enumerate_shapes(2)[0]) == 1

    def test_multiplicity_4_2(self):
        # not in S (cyclic constraint fails) but L is still defined
        s = Shape((1, 2, 1), (1, 1, 1))
        assert sorted(s.edge_mult.values()) == [2, 4]
        assert L_value(s) == 3

    def test_odd_multiplicity_vanishes(self):
        s = Shape((1, 2), (1, 2))
        assert set(s.edge_mult.values()) == {1}
        assert L_value(s) == 0

    def test_matches_gaussian_moment_oracle(self):
        # independence across edges: L = prod_e E g^{k_e} = prod_e a_{k_e, 0}
        for p in (2, 3, 4, 5):
            for s in enumerate_shapes(p):
                expect = 1
                for k in s.edge_mult.values():
                    expect *= joint_moment(k, 0)
                assert L_value(s) == expect

    def test_positive_iff_all_even(self):
        for p in range(2, 7):
            for s in enumerate_shapes(p):
                if all(k % 2 == 0 for k in s.edge_mult.values()):
                    assert L_value(s) > 0
                else:
                    assert L_value(s) == 0


class TestWValue:
    def test_direct_enumeration_2x2(self):
        s = enumerate_shapes(2)[0]
        # independent oracle: explicit sum over ordered pairs of distinct rows
        ent = [[1, 2], [3, 4]]
        expect = sum(
            ent[w1][t] ** 2 * ent[w2][t] ** 2
            for w1 in range(2)
            for w2 in range(2)
            if w1 != w2
            for t in range(2)
        )
        assert expect == 146
        assert W_value(s, B2212) == Fraction(146)

    def test_zero_profile(self):
        s = enumerate_shapes(2)[0]
        Z = load_profile("[[0,0],[0,0]]")
        assert W_value(s, Z) == 0

    def test_empty_when_labels_exceed_dims(self):
        s = enumerate_shapes(3)[0]  # m2 = 3
        assert W_value(s, B2212) == 0

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        for p in (2, 4):
            for s in enumerate_shapes(p):
                B = rational_profile(rng, 3, 3)
                t = Fraction(3, 2)
                assert W_value(s, scaled(B, t)) == t ** (2 * p) * W_value(s, B)

    def test_monotone_entrywise(self):
        rng = np.random.default_rng(2)
        s = enumerate_shapes(4)[0]
        for _ in range(10):
            B = rational_profile(rng, 3, 3)
            rows = [list(r) for r in entries(B)]
            rows[1][1] += 1
            B2 = VarianceProfile(tuple(tuple(r) for r in rows))
            assert W_value(s, B2) >= W_value(s, B)

    def test_float_mode_close_to_exact(self):
        rng = np.random.default_rng(3)
        B = rational_profile(rng, 3, 3)
        Bf = VarianceProfile(tuple(tuple(float(x) for x in row) for row in entries(B)))
        for s in enumerate_shapes(3):
            exact = W_value(s, B)
            approx = W_value(s, Bf)
            assert abs(approx - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))


def w_injective_maps(s, B):
    """W(s) by its definition: a loop over injective label maps, exact."""
    ent = entries(B)
    return sum(
        (
            math.prod(Fraction(ent[w[i - 1]][t[j - 1]]) ** k for (i, j), k in s.edge_mult.items())
            for w in permutations(range(B.d), s.m2)
            for t in permutations(range(B.n), s.m1)
        ),
        Fraction(0),
    )


def rational_profile_with_zero(rng, d, n) -> VarianceProfile:
    rows = [list(r) for r in entries(rational_profile(rng, d, n))]
    rows[int(rng.integers(d))][int(rng.integers(n))] = Fraction(0)
    return VarianceProfile(rows)


SHAPES_UP_TO_5 = [s for p in range(1, 6) for s in enumerate_shapes(p)]
# Numerators 3, 16 and 72 over 12: numpy multiplies two reduced hom factors
# that each fit int64 as int64, where their product does not.
THIN = [[Fraction(1, 4)], [Fraction(4, 3)], [Fraction(6)]]


class TestWAgainstInjectiveMaps:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_shape_up_to_p5(self, d, n):
        rng = np.random.default_rng(100 + 10 * d + n)
        B = rational_profile_with_zero(rng, d, n)
        for s in SHAPES_UP_TO_5:
            assert W_value(s, B) == w_injective_maps(s, B), (s, entries(B))

    def test_labels_beyond_dims_give_zero(self):
        B = rational_profile(np.random.default_rng(6), 2, 3)
        wide = [s for s in SHAPES_UP_TO_5 if s.m2 > 2 or s.m1 > 3]
        assert wide
        assert all(W_value(s, B) == 0 for s in wide)

    @pytest.mark.parametrize("rows", [THIN, [[x[0] for x in THIN]]], ids=["3x1", "1x3"])
    def test_thin_profile_up_to_p6(self, rows):
        B = VarianceProfile(rows)
        for p in range(1, 7):
            for s in enumerate_shapes(p):
                assert W_value(s, B) == w_injective_maps(s, B), s

    def test_hom_beyond_int64_is_exact(self):
        # two left blocks on the one column: (sum_i N_i^6)^2, N = (3, 16, 72)
        got = shapes._hom(VarianceProfile(THIN), (((0, 0), 6), ((1, 0), 6)))
        want = (3**6 + 16**6 + 72**6) ** 2
        assert want >= 2**63
        assert type(got) is int and got == want


def hom_reference(B, quotient):
    """hom by one unoptimised einsum over every block at once, in Python ints."""
    left = 1 + max(a for (a, _), _ in quotient)
    subscripts = ",".join(string.ascii_letters[a] + string.ascii_letters[left + b] for (a, b), _ in quotient)
    return np.einsum(subscripts + "->", *(B.numerators[0] ** k for _, k in quotient), dtype=object)


@lru_cache(maxsize=None)
def set_partitions(m):
    """Every partition of labels 1..m as (block of each label, numbered from 0
    by first appearance; its Moebius value)."""
    blocks = [()]
    for _ in range(m):
        blocks = [r + (b,) for r in blocks for b in range(max(r, default=-1) + 2)]
    return [(r, math.prod((-1) ** (c - 1) * math.factorial(c - 1) for c in Counter(r).values())) for r in blocks]


@lru_cache(maxsize=None)
def shape_quotient_table(s: Shape):
    """The Moebius table of one shape over its own labels: (quotient, sum of
    mu(pi) mu(sigma) over the partitions of its left and right labels giving
    it), zero coefficients dropped.  A reference for the per-class tables."""
    table = defaultdict(int)
    for left, mu_left in set_partitions(s.m2):
        for right, mu_right in set_partitions(s.m1):
            merged = defaultdict(int)
            for (i, j), k in s.edge_mult.items():
                merged[left[i - 1], right[j - 1]] += k
            table[tuple(sorted(merged.items()))] += mu_left * mu_right
    return tuple((q, coef) for q, coef in table.items() if coef)


def w_by_shape_table(s, B, homs):
    """W(s) from the shape's own Moebius table; `homs` keeps B's hom per quotient."""
    total = sum(coef * (homs[q] if q in homs else homs.setdefault(q, shapes._hom(B, q)))
                for q, coef in shape_quotient_table(s))
    return Fraction(total, B.numerators[1] ** (2 * s.p))


QUOTIENTS_UP_TO_6 = sorted({q for p in range(1, 7) for s in enumerate_shapes(p) for q, _ in shape_quotient_table(s)})


def _near_int64_limit(rng):
    return VarianceProfile([[Fraction(2**63 - int(rng.integers(1, 2**20))) for _ in range(5)] for _ in range(5)])


def _zero_row_and_column(rng):
    rows = [list(r) for r in entries(rational_profile(rng, 4, 4, max_num=9))]
    rows[1] = [Fraction(0)] * 4
    for row in rows:
        row[2] = Fraction(0)
    return VarianceProfile(rows)


class TestHomContraction:
    """The planned contraction against one unoptimised einsum, on every
    quotient of every shape up to p = 6."""

    @pytest.mark.parametrize("make", [
        lambda rng: VarianceProfile(THIN),
        lambda rng: VarianceProfile([[x[0] for x in THIN]]),
        _near_int64_limit,
        _zero_row_and_column,
        lambda rng: float_profile(rng, 4, 3),
    ], ids=["3x1", "1x3", "5x5-near-2^63", "zero-row-and-column", "4x3-float"])
    def test_every_quotient_up_to_p6(self, make):
        B = make(np.random.default_rng(14))
        for q in QUOTIENTS_UP_TO_6:
            got = shapes._hom(B, q)
            assert type(got) is int and got == hom_reference(B, q), q

    def test_plans_depend_on_the_size_only(self):
        rng = np.random.default_rng(15)
        A, B = rational_profile(rng, 3, 4), rational_profile(rng, 3, 4, max_num=50)
        assert A != B
        for q in QUOTIENTS_UP_TO_6:
            shapes._hom(A, q)
        before = shapes._plan.cache_info()
        for q in QUOTIENTS_UP_TO_6:
            shapes._hom(B, q)
        after = shapes._plan.cache_info()
        assert after.misses == before.misses
        assert after.hits - before.hits == len(QUOTIENTS_UP_TO_6)


shapes_of = lru_cache(maxsize=None)(enumerate_shapes)


def brute_force_class(edges):
    """The least sorted list of ((left, right), k) edges over every relabelling of both sides."""
    lefts, rights = sorted({a for (a, _), _ in edges}), sorted({b for (_, b), _ in edges})
    return min(tuple(sorted(((w[lefts.index(a)], t[rights.index(b)]), k) for (a, b), k in edges))
               for w in permutations(range(len(lefts))) for t in permutations(range(len(rights))))


def relabelled(s, left, right):
    """The path of s with left label i renamed left[i - 1] and right label j renamed right[j - 1]."""
    return Shape(tuple(left[i - 1] for i in s.left_seq), tuple(right[j - 1] for j in s.right_seq))


class TestEdgeClass:
    @pytest.mark.parametrize("p, count", [(2, 1), (3, 1), (4, 5), (5, 5), (6, 24), (7, 38)])
    def test_class_counts(self, p, count):
        first, sizes = {}, Counter()
        for s in shapes_of(p):
            first.setdefault(s.edge_class, s)
            sizes[s.edge_class] += 1
        assert len(first) == count
        assert shapes.shape_classes(p) == tuple((c, sizes[c]) for c in first)
        assert all(c.edge_class is c for c in first)

    def test_classes_are_the_isomorphism_classes_up_to_p6(self):
        for p in range(2, 7):
            by_class = {}
            for s in shapes_of(p):
                by_class.setdefault(s.edge_class, set()).add(brute_force_class(tuple(s.edge_mult.items())))
            assert all(len(forms) == 1 for forms in by_class.values()), p
            assert len(set.union(*by_class.values())) == len(by_class), p

    def test_canonical_is_the_brute_force_class(self):
        # every shape up to p = 6 and every quotient of them: one form iff one brute-force class
        graphs = [tuple(sorted(s.edge_mult.items())) for p in range(2, 7) for s in shapes_of(p)] + QUOTIENTS_UP_TO_6
        assert len(QUOTIENTS_UP_TO_6) == 291
        by_form = {}
        for g in graphs:
            form = shapes._canonical(g)
            assert brute_force_class(form) == brute_force_class(g), g  # a relabelling of g, so hom is kept
            by_form.setdefault(form, set()).add(brute_force_class(g))
        assert all(len(classes) == 1 for classes in by_form.values())
        assert len(set.union(*by_form.values())) == len(by_form)

    @pytest.mark.parametrize("p, count", [(2, 2), (3, 3), (4, 9), (5, 17), (6, 57), (7, 136)])
    def test_distinct_quotients_over_the_class_tables(self, p, count):
        assert len({q for c, _ in shapes.shape_classes(p) for q, _ in shapes._quotient_table(c)}) == count

    def test_rotations_and_reversal_keep_the_class(self):
        for p in range(2, 7):
            for s in shapes_of(p):
                u, v = s.left_seq, s.right_seq
                for k in range(p):
                    assert shape_of(u[k:] + u[:k], v[k:] + v[:k]).edge_class is s.edge_class
                assert shape_of(u[:1] + u[:0:-1], v[::-1]).edge_class is s.edge_class

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(2, 7), st.data())
    def test_invariant_under_relabelling_both_sides(self, p, data):
        s = data.draw(st.sampled_from(shapes_of(p)))
        left = data.draw(st.permutations(range(1, s.m2 + 1)))
        right = data.draw(st.permutations(range(1, s.m1 + 1)))
        t = relabelled(s, left, right)
        assert t.edge_class is s.edge_class
        assert (t.m1, t.m2, L_value(t)) == (s.m1, s.m2, L_value(s))

    @pytest.mark.parametrize("make", [
        lambda rng: VarianceProfile(THIN),
        _zero_row_and_column,
        lambda rng: float_profile(rng, 4, 3),
    ], ids=["3x1", "zero-row-and-column", "4x3-float"])
    def test_class_weight_equals_shape_weight_up_to_p7(self, make):
        B, homs = make(np.random.default_rng(16)), {}
        for p in range(1, 8):
            for s in shapes_of(p):
                assert W_value(s, B) == w_by_shape_table(s, B, homs), s


class TestWFloat:
    """A float profile's W is the correctly rounded exact weight of its cells."""

    def test_equals_rounded_exact_weight(self):
        rng = np.random.default_rng(7)
        for d, n in ((2, 3), (3, 3), (4, 2)):
            Bf = float_profile(rng, d, n)
            B = VarianceProfile([[Fraction(x) for x in row] for row in entries(Bf)])
            for s in SHAPES_UP_TO_5:
                assert W_value(s, Bf) == W_value(s, B) and type(W_value(s, Bf)) is Fraction

    def test_bitwise_invariant_under_row_and_column_permutations(self):
        rng = np.random.default_rng(8)
        arr = float_profile(rng, 4, 3).as_array()
        B = VarianceProfile(arr)
        for _ in range(4):
            permuted = VarianceProfile(arr[rng.permutation(4)][:, rng.permutation(3)])
            for s in SHAPES_UP_TO_5:
                assert W_value(s, permuted) == W_value(s, B)

    def test_bitwise_homogeneous_under_powers_of_two(self):
        rng = np.random.default_rng(9)
        B = float_profile(rng, 3, 3)
        checked = 0
        for k in range(-160, 161, 8):
            Bk = scaled(B, 2.0**k)
            assert np.array_equal(np.ldexp(Bk.as_array(), -k), B.as_array())  # the scaling itself is exact
            for s in SHAPES_UP_TO_5:
                w = W_value(s, B)
                if w:  # exact, so every scale is checked, beyond the float range too
                    assert W_value(s, Bk) == w * Fraction(2) ** (2 * s.p * k), (k, s)
                    checked += 1
        assert checked > 100

    def test_overflow_is_inf(self, capsys, tmp_path):
        # W is exact beyond the float range; the CLI rounds it once, to inf
        rows = [[1e300, 2e300], [3e-300, 1.5]]
        assert W_value(enumerate_shapes(2)[0], VarianceProfile(rows)) > 2**1024
        path = tmp_path / "huge.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        assert cli_payload(capsys, ["shapes", "--p", "2", "--profile", str(path)])["shapes"][0]["W"] == "inf"


class TestTraceMomentViaShapes:
    def test_p1_zero(self):
        assert trace_moment_via_shapes(B2212, 1) == 0

    def test_anchor_146(self):
        assert trace_moment_via_shapes(B2212, 2) == Fraction(146)

    def test_constant_2x2(self):
        B = rank_one([1] * 2, [1] * 2)
        assert trace_moment_via_shapes(B, 2) == 4

    def test_equals_oracle_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            B = rational_profile(rng, d, n)
            for p in (1, 2, 3, 4):
                assert trace_moment_via_shapes(B, p) == offdiag_trace_moment(B, p)

    def test_float_mode_matches_oracle_to_1e10(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            arr = rng.uniform(0.0, 2.0, size=(3, 3))
            B = VarianceProfile(tuple(tuple(float(x) for x in row) for row in arr))
            for p in (2, 3, 4):
                assert trace_moment_via_shapes(B, p) == offdiag_trace_moment(B, p)


class TestSpanningTree:
    def test_p2_tree_is_whole_graph(self):
        g = spanning_tree(enumerate_shapes(2)[0], "left")
        assert sorted(g.tree_edges) == [(1, 1), (2, 1)]

    def test_p3_star(self):
        g = spanning_tree(enumerate_shapes(3)[0], "left")
        assert sorted(g.tree_edges) == [(1, 1), (2, 1), (3, 1)]

    def test_worked_shape_four_edges(self):
        s = shape_of((1, 2, 1, 2), (1, 2, 2, 3))
        g = spanning_tree(s, "left")
        assert len(g.tree_edges) == 4
        assert g.tree_is_spanning()

    def test_both_rootings_span_all_shapes(self):
        for p in range(2, 6):
            for s in enumerate_shapes(p):
                for side in ("left", "right"):
                    g = spanning_tree(s, side)
                    assert len(g.tree_edges) == s.m1 + s.m2 - 1
                    assert g.tree_is_spanning()

    def test_bad_side(self):
        with pytest.raises(ValueError):
            spanning_tree(enumerate_shapes(2)[0], "top")


class TestCeilingChecks:
    def test_constant_2x2_p2(self):
        s = enumerate_shapes(2)[0]
        B = rank_one([1] * 2, [1] * 2)
        w = check_opnorm_ceiling(s, B)
        assert w.applicable and w.case == "beta_gt_1"
        assert w.w_value == 4.0
        assert abs(w.ceiling - 8.0) < 1e-9
        assert w.holds
        w = check_schatten_ceiling(s, B)
        assert w.applicable and w.w_value == 4.0 and w.holds

    def test_zero_profile_not_applicable(self):
        s = enumerate_shapes(2)[0]
        Z = load_profile("[[0,0],[0,0]]")
        w = check_opnorm_ceiling(s, Z)
        assert not w.applicable and w.holds

    def test_underflowing_exact_profile_is_applicable(self):
        # the float sigma_* of this profile underflows to 0, its exact weight does not
        s = enumerate_shapes(2)[0]
        tiny = 10**200
        B = load_profile(f"1/{tiny},1/{tiny}\n1/{tiny},2/{tiny}")
        assert W_value(s, B) > 0
        w = check_opnorm_ceiling(s, B)
        assert w.applicable and w.w_value > 0 and w.holds

    def test_underflowing_float_profile_does_not_raise(self):
        s = enumerate_shapes(2)[0]
        B = VarianceProfile([[1e-200, 1e-200], [1e-200, 2e-200]])
        assert check_opnorm_ceiling(s, B).holds

    def test_single_entry_profile(self):
        s = enumerate_shapes(2)[0]
        B = load_profile("0,0\n0,2")
        w = check_opnorm_ceiling(s, B)
        assert w.applicable and w.w_value == 0.0 and w.holds

    def test_random_profiles_small_sweep(self):
        rng = np.random.default_rng(5)
        shape_lists = {p: enumerate_shapes(p) for p in (2, 3, 4)}
        for _ in range(20):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            B = rational_profile(rng, d, n)
            for p, shapes in shape_lists.items():
                for s in shapes:
                    assert check_opnorm_ceiling(s, B).holds
                    if p % 2 == 0:
                        assert check_schatten_ceiling(s, B).holds

    def test_ceiling_case_is_the_bound_case(self):
        # one branch rule: on a nonzero profile each ceiling takes the branch its bound takes
        rng = np.random.default_rng(23)
        seen = set()
        for k in range(40):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            B = rational_profile(rng, d, n) if k % 2 else float_profile(rng, d, n)
            if B.is_zero:
                continue
            main = main_upper_bound(B).case_taken
            for p in (2, 4):
                s = enumerate_shapes(p)[0]
                schatten = schatten_upper_bound(B, p).case_taken
                assert check_opnorm_ceiling(s, B).case == main
                assert check_schatten_ceiling(s, B).case == schatten
                seen |= {main, schatten}
        assert seen == {"beta_le_1", "beta_gt_1"}

    def test_schatten_zero_profile_trivial(self):
        s = enumerate_shapes(2)[0]
        Z = load_profile("[[0,0],[0,0]]")
        w = check_schatten_ceiling(s, Z)
        assert not w.applicable and w.w_value == 0.0 and w.ceiling == 0.0 and w.holds

    @staticmethod
    def _tiny_profiles(exponent: int):
        """The 2x2 profile [[t, t], [t, 2t]] at t = 10^-exponent, exact and float."""
        tiny = 10**exponent
        exact = load_profile(f"1/{tiny},1/{tiny}\n1/{tiny},2/{tiny}")
        floats = VarianceProfile([[1 / tiny, 1 / tiny], [1 / tiny, 2 / tiny]])
        return exact, floats

    def test_tiny_profiles_checked_by_both_ceilings(self):
        # W(s) > 0 exactly, while float W and sigma_*^4 underflow at full scale
        s = enumerate_shapes(2)[0]
        exact, floats = self._tiny_profiles(100)
        assert W_value(s, exact) > 0 and W_value(s, floats) > 0 and float(W_value(s, floats)) == 0.0
        for B in (exact, floats):
            for w in (check_opnorm_ceiling(s, B), check_schatten_ceiling(s, B)):
                assert w.applicable and w.w_value > 0 and w.ceiling > 0 and w.holds

    @pytest.mark.parametrize("exponent", [310, 400])
    def test_exact_profile_below_the_float_range_checked_by_both_ceilings(self, exponent):
        # every float cell is subnormal or 0, so only the exact cells carry the profile
        s = enumerate_shapes(2)[0]
        exact, _ = self._tiny_profiles(exponent)
        assert exact.as_array().max() < 2.0**-1022
        for w in (check_opnorm_ceiling(s, exact), check_schatten_ceiling(s, exact)):
            assert w.applicable and w.w_value > 0 and w.ceiling > 0 and w.holds

    def test_schatten_underflowing_profiles_applicable(self):
        # W(s) > 0 exactly, and the squares of the cells underflow at full scale
        s = enumerate_shapes(2)[0]
        for B in self._tiny_profiles(200):
            w = check_schatten_ceiling(s, B)
            assert w.applicable and w.w_value > 0 and w.ceiling > 0 and w.holds

    def test_ceilings_do_not_move_with_the_scale(self):
        # both witnesses are taken at sigma_* = 1
        rng = np.random.default_rng(12)
        B = float_profile(rng, 3, 3)
        for p in (2, 3, 4):
            for s in enumerate_shapes(p):
                for k in (-400, -3, 5, 400):
                    Bk = scaled(B, 2.0**k)
                    assert check_opnorm_ceiling(s, Bk) == check_opnorm_ceiling(s, B), (p, s, k)
                    if p % 2 == 0:
                        assert check_schatten_ceiling(s, Bk) == check_schatten_ceiling(s, B), (p, s, k)
