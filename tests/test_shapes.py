import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covdev import (
    ProfileFamily,
    ResourceLimitError,
    Shape,
    VarianceProfile,
    W_value,
    L_value,
    check_opnorm_ceiling,
    check_schatten_ceiling,
    enumerate_shapes,
    generate,
    joint_moment,
    load_profile,
    offdiag_trace_moment,
    shape_of,
    spanning_tree,
    trace_moment_via_shapes,
)

from conftest import float_profile, rational_profile

B2212 = load_profile("1,2\n3,4", format="csv")


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
            if s.is_even:
                found.add((s.left_seq, s.right_seq))
    return found


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
            assert s.is_canonical
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
        assert s.is_canonical
        assert sum(s.edge_mult.values()) == 2 * p


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
        assert got == brute_force_shape_set(p)

    def test_matches_brute_force_p5(self):
        got = {(s.left_seq, s.right_seq) for s in enumerate_shapes(5)}
        assert got == brute_force_shape_set(5)

    def test_structural_invariants_up_to_p6(self):
        for p in range(2, 7):
            shapes = enumerate_shapes(p)
            assert len({(s.left_seq, s.right_seq) for s in shapes}) == len(shapes)
            for s in shapes:
                assert s.is_canonical
                assert s.in_shape_set
                assert s.two_left_neighbors_per_right
                assert sum(s.edge_mult.values()) == 2 * p

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_shapes(3, cap=2)
        assert len(enumerate_shapes(3, cap=3)) == 1

    def test_deterministic_order(self):
        a = [(s.left_seq, s.right_seq) for s in enumerate_shapes(5)]
        b = [(s.left_seq, s.right_seq) for s in enumerate_shapes(5)]
        assert a == b


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
        Z = load_profile("[[0,0],[0,0]]", format="json")
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
                assert W_value(s, B.scaled(t)) == t ** (2 * p) * W_value(s, B)

    def test_monotone_entrywise(self):
        rng = np.random.default_rng(2)
        s = enumerate_shapes(4)[0]
        for _ in range(10):
            B = rational_profile(rng, 3, 3)
            rows = [list(r) for r in B.entries]
            rows[1][1] += 1
            B2 = VarianceProfile(tuple(tuple(r) for r in rows), exact=True)
            assert W_value(s, B2) >= W_value(s, B)

    def test_float_mode_close_to_exact(self):
        rng = np.random.default_rng(3)
        B = rational_profile(rng, 3, 3)
        Bf = VarianceProfile(tuple(tuple(float(x) for x in row) for row in B.entries), exact=False)
        for s in enumerate_shapes(3):
            exact = W_value(s, B)
            approx = W_value(s, Bf)
            assert abs(approx - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))


def w_injective_maps(s, B):
    """W(s) by its definition: a loop over injective label maps, exact."""
    ent = B.entries
    return sum(
        (
            math.prod(Fraction(ent[w[i - 1]][t[j - 1]]) ** k for (i, j), k in s.edge_mult.items())
            for w in permutations(range(B.d), s.m2)
            for t in permutations(range(B.n), s.m1)
        ),
        Fraction(0),
    )


def rational_profile_with_zero(rng, d, n) -> VarianceProfile:
    rows = [list(r) for r in rational_profile(rng, d, n).entries]
    rows[int(rng.integers(d))][int(rng.integers(n))] = Fraction(0)
    return VarianceProfile(rows, exact=True)


SHAPES_UP_TO_5 = [s for p in range(1, 6) for s in enumerate_shapes(p)]


class TestWAgainstInjectiveMaps:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_shape_up_to_p5(self, d, n):
        rng = np.random.default_rng(100 + 10 * d + n)
        B = rational_profile_with_zero(rng, d, n)
        for s in SHAPES_UP_TO_5:
            assert W_value(s, B) == w_injective_maps(s, B), (s, B.entries)

    def test_labels_beyond_dims_give_zero(self):
        B = rational_profile(np.random.default_rng(6), 2, 3)
        wide = [s for s in SHAPES_UP_TO_5 if s.m2 > 2 or s.m1 > 3]
        assert wide
        assert all(W_value(s, B) == 0 for s in wide)


class TestWFloat:
    """A float profile's W is the correctly rounded exact weight of its cells."""

    def test_equals_rounded_exact_weight(self):
        rng = np.random.default_rng(7)
        for d, n in ((2, 3), (3, 3), (4, 2)):
            Bf = float_profile(rng, d, n)
            B = VarianceProfile([[Fraction(x) for x in row] for row in Bf.entries], exact=True)
            for s in SHAPES_UP_TO_5:
                assert W_value(s, Bf) == float(W_value(s, B))

    def test_bitwise_invariant_under_row_and_column_permutations(self):
        rng = np.random.default_rng(8)
        arr = float_profile(rng, 4, 3).as_array()
        B = VarianceProfile(arr, exact=False)
        for _ in range(4):
            permuted = VarianceProfile(arr[rng.permutation(4)][:, rng.permutation(3)], exact=False)
            for s in SHAPES_UP_TO_5:
                assert W_value(s, permuted).hex() == W_value(s, B).hex()

    def test_bitwise_homogeneous_under_powers_of_two(self):
        rng = np.random.default_rng(9)
        B = float_profile(rng, 3, 3)
        checked = 0
        for k in range(-160, 161, 8):
            Bk = B.scaled(2.0**k)
            assert np.array_equal(np.ldexp(Bk.as_array(), -k), B.as_array())  # the scaling itself is exact
            for s in SHAPES_UP_TO_5:
                w = W_value(s, B)
                if w and -1021 <= math.frexp(w)[1] + 2 * s.p * k <= 1024:  # 2^(2pk) w finite and normal
                    assert W_value(s, Bk).hex() == math.ldexp(w, 2 * s.p * k).hex(), (k, s)
                    checked += 1
        assert checked > 100

    def test_overflow_is_inf(self):
        B = VarianceProfile([[1e300, 2e300], [3e-300, 1.5]], exact=False)
        assert W_value(enumerate_shapes(2)[0], B) == math.inf


class TestTraceMomentViaShapes:
    def test_p1_zero(self):
        assert trace_moment_via_shapes(B2212, 1) == 0

    def test_anchor_146(self):
        assert trace_moment_via_shapes(B2212, 2) == Fraction(146)

    def test_constant_2x2(self):
        B = generate(ProfileFamily.constant(), 2, 2)
        assert trace_moment_via_shapes(B, 2) == 4

    def test_equals_oracle_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            B = rational_profile(rng, d, n)
            for p in (1, 2, 3, 4):
                assert trace_moment_via_shapes(B, p) == offdiag_trace_moment(B, p).value

    def test_float_mode_matches_oracle_to_1e10(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            arr = rng.uniform(0.0, 2.0, size=(3, 3))
            B = VarianceProfile(tuple(tuple(float(x) for x in row) for row in arr), exact=False)
            for p in (2, 3, 4):
                a = trace_moment_via_shapes(B, p)
                b = offdiag_trace_moment(B, p).value
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


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
        B = generate(ProfileFamily.constant(), 2, 2)
        w = check_opnorm_ceiling(s, B)
        assert w.applicable and w.case == "beta_gt_1"
        assert w.w_value == 4.0
        assert abs(w.ceiling - 8.0) < 1e-9
        assert w.holds

    def test_zero_profile_not_applicable(self):
        s = enumerate_shapes(2)[0]
        Z = load_profile("[[0,0],[0,0]]", format="json")
        w = check_opnorm_ceiling(s, Z)
        assert not w.applicable and w.holds

    def test_underflowing_exact_profile_is_applicable(self):
        # the float sigma_* of this profile underflows to 0, its exact weight does not
        s = enumerate_shapes(2)[0]
        tiny = 10**200
        B = load_profile(f"1/{tiny},1/{tiny}\n1/{tiny},2/{tiny}", format="csv")
        assert W_value(s, B) > 0
        w = check_opnorm_ceiling(s, B)
        assert w.applicable and w.w_value > 0 and w.holds

    def test_underflowing_float_profile_does_not_raise(self):
        s = enumerate_shapes(2)[0]
        B = VarianceProfile([[1e-200, 1e-200], [1e-200, 2e-200]], exact=False)
        assert check_opnorm_ceiling(s, B).holds

    def test_single_entry_profile(self):
        s = enumerate_shapes(2)[0]
        B = load_profile("0,0\n0,2", format="csv")
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
                        assert check_schatten_ceiling(s, B, p).holds

    def test_schatten_order_mismatch(self):
        s = enumerate_shapes(2)[0]
        with pytest.raises(ValueError):
            check_schatten_ceiling(s, B2212, 4)

    def test_schatten_zero_profile_trivial(self):
        s = enumerate_shapes(2)[0]
        Z = load_profile("[[0,0],[0,0]]", format="json")
        w = check_schatten_ceiling(s, Z, 2)
        assert w.w_value == 0.0 and w.ceiling == 0.0 and w.holds

    @staticmethod
    def _tiny_profiles(exponent: int):
        """The 2x2 profile [[t, t], [t, 2t]] at t = 10^-exponent, exact and float."""
        tiny = 10**exponent
        exact = load_profile(f"1/{tiny},1/{tiny}\n1/{tiny},2/{tiny}", format="csv")
        floats = VarianceProfile([[1 / tiny, 1 / tiny], [1 / tiny, 2 / tiny]], exact=False)
        return exact, floats

    def test_tiny_profiles_checked_by_both_ceilings(self):
        # W(s) > 0 exactly, while float W and sigma_*^4 underflow at full scale
        s = enumerate_shapes(2)[0]
        exact, floats = self._tiny_profiles(100)
        assert W_value(s, exact) > 0 and W_value(s, floats) == 0.0
        for B in (exact, floats):
            for w in (check_opnorm_ceiling(s, B), check_schatten_ceiling(s, B, 2)):
                assert w.applicable and w.w_value > 0 and w.ceiling > 0 and w.holds

    @pytest.mark.parametrize("exponent", [310, 400])
    def test_exact_profile_below_the_float_range_checked_by_both_ceilings(self, exponent):
        # every float cell is subnormal or 0, so only the exact cells carry the profile
        s = enumerate_shapes(2)[0]
        exact, _ = self._tiny_profiles(exponent)
        assert exact.as_array().max() < 2.0**-1022
        for w in (check_opnorm_ceiling(s, exact), check_schatten_ceiling(s, exact, 2)):
            assert w.applicable and w.w_value > 0 and w.ceiling > 0 and w.holds

    def test_schatten_underflowing_profiles_applicable(self):
        # W(s) > 0 exactly, and the squares of the cells underflow at full scale
        s = enumerate_shapes(2)[0]
        for B in self._tiny_profiles(200):
            w = check_schatten_ceiling(s, B, 2)
            assert w.applicable and w.w_value > 0 and w.ceiling > 0 and w.holds

    def test_ceilings_do_not_move_with_the_scale(self):
        # the opnorm witness is taken at sigma_* = 1; the Schatten one on 2^-e B
        # with e even, so under an odd power of two both of its sides move by 2^(2p)
        rng = np.random.default_rng(12)
        B = float_profile(rng, 3, 3)
        for p in (2, 3, 4):
            for s in enumerate_shapes(p):
                for k in (-400, -3, 5, 400):
                    Bk = B.scaled(2.0**k)
                    assert check_opnorm_ceiling(s, Bk) == check_opnorm_ceiling(s, B), (p, s, k)
                    if p % 2 == 0:
                        w, base = check_schatten_ceiling(s, Bk, p), check_schatten_ceiling(s, B, p)
                        assert w.case == base.case and w.holds and base.holds
                        assert math.isclose(w.w_value / w.ceiling, base.w_value / base.ceiling, rel_tol=1e-12)
