import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from covdev import (
    ResourceLimitError,
    VarianceProfile,
    W_value,
    diag_trace_moment,
    enumerate_shapes,
    joint_moment,
    load_profile,
    offdiag_trace_moment,
    rank_one,
    trace_moment_via_shapes,
    trace_moments,
)

from conftest import (
    entries, float_profile, full_trace_moment, naive_diag_p2, naive_offdiag_p2, rational_profile, scaled,
)

B2212 = load_profile("1,2\n3,4")


def hermite_joint_moment(n, m):
    """Independent quadrature oracle: E g^n (g^2-1)^m via Gauss-Hermite nodes
    for the standard normal weight (exact for polynomial integrands)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    vals = nodes**n * (nodes**2 - 1) ** m
    return float(weights @ vals) / math.sqrt(2 * math.pi)


class TestJointMoment:
    def test_known_values(self):
        assert joint_moment(0, 1) == 0
        assert joint_moment(0, 2) == 2
        assert joint_moment(2, 1) == 2
        assert joint_moment(0, 3) == 8
        assert joint_moment(4, 0) == 3
        assert joint_moment(0, 0) == 1

    def test_zero_set_up_to_8(self):
        for n in range(9):
            for m in range(9):
                a = joint_moment(n, m)
                assert a >= 0
                assert (a == 0) == (n % 2 == 1 or (n, m) == (0, 1))

    def test_against_quadrature(self):
        for n in range(7):
            for m in range(7):
                a = joint_moment(n, m)
                q = hermite_joint_moment(n, m)
                assert abs(a - q) <= 1e-8 * max(1.0, abs(q))

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError):
            joint_moment(-1, 0)


class TestOffdiagMoment:
    def test_p1_zero(self):
        assert offdiag_trace_moment(B2212, 1) == 0

    def test_anchor_146(self):
        m = offdiag_trace_moment(B2212, 2)
        assert m == Fraction(146) and type(m) is Fraction

    def test_constant_3x2(self):
        B = rank_one([1] * 3, [1] * 2)
        assert offdiag_trace_moment(B, 2) == 12

    def test_p2_closed_form_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            B = rational_profile(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            assert offdiag_trace_moment(B, 2) == naive_offdiag_p2(B)

    def test_float_mode(self):
        Bf = VarianceProfile(((1.0, 2.0), (3.0, 4.0)))
        assert offdiag_trace_moment(Bf, 2) == 146

    def test_work_cap(self):
        B = rank_one([1] * 4, [1] * 4)
        with pytest.raises(ResourceLimitError):
            offdiag_trace_moment(B, 6, cap=10**5)

    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("moment", [offdiag_trace_moment, trace_moments, diag_trace_moment],
                             ids=["offdiag", "one_walk", "diag"])
    def test_cap_below_1_is_bad_input(self, moment, cap):
        with pytest.raises(ValueError) as info:
            moment(B2212, 2, cap=cap)
        assert str(info.value) == f"cap must be >= 1, got {cap}"


class TestDiagMoment:
    def test_p1_zero(self):
        assert diag_trace_moment(B2212, 1) == 0

    def test_anchor_708(self):
        assert diag_trace_moment(B2212, 2) == Fraction(708)

    def test_single_entry_p3(self):
        B = load_profile("1")
        assert diag_trace_moment(B, 3) == 8  # E (g^2-1)^3

    def test_p2_closed_form_random(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            B = rational_profile(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            assert diag_trace_moment(B, 2) == naive_diag_p2(B)

    def test_p3_closed_form_random(self):
        # third central moment: only the pure cubes survive, coefficient a_{0,3} = 8
        rng = np.random.default_rng(23)
        for _ in range(20):
            B = rational_profile(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            expect = 8 * sum(x**6 for row in entries(B) for x in row)
            assert diag_trace_moment(B, 3) == expect

    def test_wide_row(self):
        # E (sum_j (g_j^2 - 1))^2 = 2 n; one row of 1500 columns
        B = rank_one([1], [1] * 1500)
        assert diag_trace_moment(B, 2) == 3000

    def test_cap_counts_multiply_adds(self):
        # (p+1)(p+2)/2 multiply-adds per cell
        B = rational_profile(np.random.default_rng(25), 3, 4)
        terms = 3 * 4 * 6 * 7 // 2
        with pytest.raises(ResourceLimitError):
            diag_trace_moment(B, 5, cap=terms - 1)
        assert diag_trace_moment(B, 5, cap=terms) == diag_trace_moment(B, 5)

    def test_matches_brute_force_cell_expansion(self):
        # independent route: expand (sum_j c_j Y_j)^p over all index tuples
        # with Y = g^2 - 1 and per-cell joint moments
        from itertools import product as iproduct

        rng = np.random.default_rng(24)
        for _ in range(10):
            d, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            B = rational_profile(rng, d, n)
            for p in (2, 3, 4):
                expect = Fraction(0)
                for i in range(d):
                    row = entries(B)[i]
                    for tup in iproduct(range(n), repeat=p):
                        coef = Fraction(1)
                        counts = {}
                        for j in tup:
                            coef *= row[j] ** 2
                            counts[j] = counts.get(j, 0) + 1
                        term = Fraction(1)
                        for j, c in counts.items():
                            term *= joint_moment(0, c)
                        expect += coef * term
                assert diag_trace_moment(B, p) == expect


class TestFullMoment:
    def test_p1_zero(self):
        assert full_trace_moment(B2212, 1) == 0

    def test_anchor_854(self):
        assert full_trace_moment(B2212, 2) == Fraction(854)

    def test_p2_decomposition_random(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            B = rational_profile(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            assert (
                full_trace_moment(B, 2)
                == offdiag_trace_moment(B, 2) + diag_trace_moment(B, 2)
            )

    def test_even_p_nonnegative(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            B = rational_profile(rng, 2, 2)
            assert full_trace_moment(B, 2) >= 0
            assert full_trace_moment(B, 4) >= 0

    def test_1x1_matches_central_moments(self):
        B = load_profile("1")
        for p in (1, 2, 3, 4, 5):
            assert full_trace_moment(B, p) == joint_moment(0, p)


class TestMomentProperties:
    @pytest.mark.parametrize("moment", [offdiag_trace_moment, diag_trace_moment])
    def test_order_below_1_rejected(self, moment):
        with pytest.raises(ValueError, match="p must be >= 1"):
            moment(load_profile("1,2"), 0)

    def test_homogeneity(self):
        rng = np.random.default_rng(27)
        t = Fraction(5, 3)
        for _ in range(10):
            B = rational_profile(rng, 2, 3)
            Bt = scaled(B, t)
            for p in (1, 2, 3):
                for fn in (offdiag_trace_moment, diag_trace_moment, full_trace_moment):
                    assert fn(Bt, p) == t ** (2 * p) * fn(B, p)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            d, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            B = rational_profile(rng, d, n)
            rp = list(rng.permutation(d))
            cp = list(rng.permutation(n))
            BP = VarianceProfile(tuple(tuple(entries(B)[i][j] for j in cp) for i in rp))
            for p in (2, 3):
                for fn in (offdiag_trace_moment, diag_trace_moment, full_trace_moment):
                    assert fn(B, p) == fn(BP, p)

    def test_diag_two_sided_window(self):
        from covdev import compute_schatten_params

        rng = np.random.default_rng(29)
        for _ in range(15):
            B = rational_profile(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            if B.is_zero:
                continue
            for p in (2, 4):
                Q = compute_schatten_params(B, p)
                denom = math.sqrt(p) * Q.sigma_bar_p + p * Q.b_p**2
                if denom == 0:
                    continue
                ratio = float(diag_trace_moment(B, p)) ** (1 / p) / denom
                assert 0.1 <= ratio <= 10.0

    def test_shape_sum_equivalence(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            B = rational_profile(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            for p in (1, 2, 3, 4):
                assert trace_moment_via_shapes(B, p) == offdiag_trace_moment(B, p)


# --- the walk against the direct product expansion -------------------------


def integer_cells(B):
    """(N, D) with b_ij = N_ij / D exactly, from the exact value of every cell."""
    cells = [[Fraction(x) for x in row] for row in entries(B)]
    den = math.lcm(*(x.denominator for row in cells for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in cells], den


def offdiag_by_product(B, p):
    """E Tr(offdiag(X X^T))^p over all d^p n^p index tuples, exact."""
    ent, den = integer_cells(B)
    d, n = B.d, B.n
    total = 0
    for u in product(range(d), repeat=p):
        if any(u[k] == u[(k + 1) % p] for k in range(p)):
            continue
        for v in product(range(n), repeat=p):
            cells = {}
            for k in range(p):
                for cell in ((u[k], v[k]), (u[(k + 1) % p], v[k])):
                    cells[cell] = cells.get(cell, 0) + 1
            if any(c % 2 for c in cells.values()):
                continue
            term = 1
            for (i, j), c in cells.items():
                term *= ent[i][j] ** c * joint_moment(c, 0)
            total += term
    return Fraction(total, den ** (2 * p))


def full_by_product(B, p):
    """E Tr(X X^T - E X X^T)^p over all d^p n^p index tuples, exact."""
    ent, den = integer_cells(B)
    d, n = B.d, B.n
    total = 0
    for u in product(range(d), repeat=p):
        for v in product(range(n), repeat=p):
            plain, centered, bexp = {}, {}, {}
            for k in range(p):
                i, i2, j = u[k], u[(k + 1) % p], v[k]
                if i != i2:
                    for cell in ((i, j), (i2, j)):
                        plain[cell] = plain.get(cell, 0) + 1
                        bexp[cell] = bexp.get(cell, 0) + 1
                else:
                    centered[(i, j)] = centered.get((i, j), 0) + 1
                    bexp[(i, j)] = bexp.get((i, j), 0) + 2
            term = 1
            for (i, j), e in bexp.items():
                a = joint_moment(plain.get((i, j), 0), centered.get((i, j), 0))
                if a == 0:
                    term = 0
                    break
                term *= ent[i][j] ** e * a
            total += term
    return Fraction(total, den ** (2 * p))


def reference_profiles(d, n, seed):
    """An exact and a float profile without zero cells, then each with one."""
    rng = np.random.default_rng(seed)
    exact = rational_profile(rng, d, n, max_num=6)
    exact = VarianceProfile([[x or Fraction(1, 3) for x in row] for row in entries(exact)])
    floats = float_profile(rng, d, n, zero_frac=0.0)
    out = [exact, floats]
    for B in (exact, floats):
        rows = [list(row) for row in entries(B)]
        rows[int(rng.integers(d))][int(rng.integers(n))] = Fraction(0) if B.exact else 0.0
        out.append(VarianceProfile(rows))
    return out


SIZES = [(d, n, 6) for d in (1, 2, 3) for n in (1, 2, 3)] + [(4, 4, 4)]


class TestWalkAgainstProductExpansion:
    @pytest.mark.parametrize("d,n,pmax", SIZES)
    def test_offdiag_and_full(self, d, n, pmax):
        for B in reference_profiles(d, n, seed=40 + 10 * d + n):
            for p in range(1, pmax + 1):
                off = offdiag_by_product(B, p)
                for name, got, want in (
                    ("offdiag", offdiag_trace_moment(B, p), off),
                    ("shape sum", trace_moment_via_shapes(B, p), off),
                    ("full", full_trace_moment(B, p), full_by_product(B, p)),
                ):  # a float profile's moment is the exact moment of its float cells
                    assert got == want and isinstance(got, Fraction), (name, p, entries(B))

    @pytest.mark.parametrize("d,n,pmax", SIZES)
    def test_one_walk_offdiag_is_the_walk_without_diagonal_steps(self, d, n, pmax):
        # the walk with diagonal steps keeps its paths with no centered step apart
        for B in reference_profiles(d, n, seed=40 + 10 * d + n):
            for p in range(1, pmax + 1):
                off, full = trace_moments(B, p)
                assert off == offdiag_trace_moment(B, p), (p, entries(B))
                assert isinstance(off, Fraction) and isinstance(full, Fraction), (p, entries(B))

    def test_float_moments_bitwise_invariant_under_permutations(self):
        rng = np.random.default_rng(41)
        arr = float_profile(rng, 3, 4).as_array()
        B = VarianceProfile(arr)
        for _ in range(3):
            permuted = VarianceProfile(arr[rng.permutation(3)][:, rng.permutation(4)])
            for p in (2, 3, 4):
                for fn in (offdiag_trace_moment, diag_trace_moment, full_trace_moment):
                    assert fn(permuted, p) == fn(B, p)

    def test_float_diag_is_rounded_exact_moment(self):
        rng = np.random.default_rng(42)
        Bf = float_profile(rng, 3, 4)
        B = VarianceProfile([[Fraction(x) for x in row] for row in entries(Bf)])
        for p in range(1, 7):
            assert diag_trace_moment(Bf, p) == diag_trace_moment(B, p)

    @pytest.mark.parametrize("d,n,pmax", SIZES)
    def test_float_profile_equals_its_exact_twin(self, d, n, pmax):
        # the exact profile of the same dyadic cells gives the same rationals, not merely the same floats
        for Bf in reference_profiles(d, n, seed=40 + 10 * d + n)[1::2]:
            nums, den = Bf.numerators
            B = VarianceProfile([[Fraction(x, den) for x in row] for row in nums.tolist()])
            assert B.exact and not Bf.exact and B.as_array().tobytes() == Bf.as_array().tobytes()
            for p in range(1, pmax + 1):
                assert trace_moments(Bf, p) == trace_moments(B, p), p
                assert offdiag_trace_moment(Bf, p) == offdiag_trace_moment(B, p), p
                assert diag_trace_moment(Bf, p) == diag_trace_moment(B, p), p
                assert trace_moment_via_shapes(Bf, p) == trace_moment_via_shapes(B, p), p
                for s in enumerate_shapes(p):
                    assert W_value(s, Bf) == W_value(s, B), (p, s)


class TestWalkCap:
    def test_8x8_p4_under_default_cap(self):
        # 8^8 index tuples are over the default cap; the walk's nodes are not
        B = rank_one([1] * 8, [1] * 8)
        assert offdiag_trace_moment(B, 4) == trace_moment_via_shapes(B, 4)

    def test_cap_error_is_deterministic(self):
        B = rank_one([1] * 3, [1] * 3)
        messages = set()
        for _ in range(2):
            with pytest.raises(ResourceLimitError) as info:
                full_trace_moment(B, 4, cap=100)
            messages.add(str(info.value))
        assert messages == {"direct expansion visits more than 100 walk nodes"}
        assert full_trace_moment(B, 4, cap=10**4) == full_by_product(B, 4)

    @pytest.mark.parametrize("moment, nodes", [(offdiag_trace_moment, 3472), (full_trace_moment, 9480)])
    def test_walk_visits_one_rotation_per_path(self, moment, nodes):
        # walking all p rotations of each path takes 9,280 and 21,808 nodes here
        B = rank_one([1] * 4, [1] * 4)
        with pytest.raises(ResourceLimitError, match=f"more than {nodes - 1} walk nodes"):
            moment(B, 4, cap=nodes - 1)
        assert moment(B, 4, cap=nodes) == moment(B, 4)
