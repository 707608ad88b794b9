import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covdev import (
    VarianceProfile,
    compute_params,
    compute_schatten_params,
    load_profile,
    rank_one,
)

from conftest import close, closed_form_params, entries, float_profile, naive_squared_params, rational_profile, scaled

SIGMA_FIELDS = ("sigma_C", "sigma_R", "sigma_star", "sigma_tilde_inf", "sigma_bar_inf", "sigma_inf")


class TestComputeParams:
    def test_constant_2x2(self):
        B = rank_one([1] * 2, [1] * 2)
        P = compute_params(B)
        rt2 = math.sqrt(2)
        assert close(P.sigma_C, rt2) and close(P.sigma_R, rt2)
        assert P.sigma_star == 1.0
        assert close(P.sigma_tilde_inf, rt2)
        assert close(P.sigma_bar_inf, rt2)
        assert close(P.sigma_inf, rt2)
        assert close(P.beta_inf, rt2)
        assert close(P.eff_rank, 2.0)

    def test_zero_profile(self):
        B = load_profile("[[0,0],[0,0]]")
        P = compute_params(B)
        for f in SIGMA_FIELDS:
            assert getattr(P, f) == 0.0
        assert P.beta_inf == 0.0 and P.eff_rank == 0.0

    def test_iid_rows_closed_expressions(self):
        # b_ij = b_j: sigma_C = sqrt(d) max b, sigma_inf = sqrt(d-1) ||b||_4^2,
        # sigma_tilde = sigma_bar = ||b||_4^2
        b = (1.0, 2.0, 3.0)
        d = 4
        B = rank_one([1] * d, b)
        P = compute_params(B)
        l4sq = math.sqrt(sum(x**4 for x in b))
        assert close(P.sigma_C, math.sqrt(d) * 3.0)
        assert close(P.sigma_R, math.sqrt(sum(x**2 for x in b)))
        assert close(P.sigma_inf, math.sqrt(d - 1) * l4sq)
        assert close(P.sigma_tilde_inf, l4sq)
        assert close(P.sigma_bar_inf, l4sq)
        assert close(P.beta_inf, math.sqrt(d / (d - 1)))

    def test_matches_naive_definitions(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            d, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            B = rational_profile(rng, d, n)
            P = compute_params(B)
            nv = naive_squared_params(B)
            assert close(P.sigma_C, math.sqrt(float(nv["sigma_C2"])))
            assert close(P.sigma_R, math.sqrt(float(nv["sigma_R2"])))
            assert close(P.sigma_star, math.sqrt(float(nv["sigma_star2"])))
            assert close(P.sigma_tilde_inf, math.sqrt(float(nv["sigma_tilde2"])))
            assert close(P.sigma_bar_inf, math.sqrt(float(nv["sigma_bar2"])))
            assert close(P.sigma_inf, math.sqrt(float(nv["sigma_inf2"])))
            if nv["sigma_R2"] > 0:
                assert close(P.eff_rank, float(nv["total"]) / float(nv["sigma_R2"]))

    def test_d1_empty_maxima(self):
        B = load_profile("1,2,3")
        P = compute_params(B)
        assert P.sigma_tilde_inf == 0.0 and P.sigma_inf == 0.0
        assert P.beta_inf == 0.0

    def test_single_nonzero_entry(self):
        B = load_profile("0,0\n0,3")
        P = compute_params(B)
        assert P.sigma_inf == 0.0 and P.sigma_tilde_inf == 0.0
        assert P.beta_inf == 0.0  # 0/0 convention


class TestSchattenParams:
    def test_constant_2x2_p2(self):
        Q = compute_schatten_params(rank_one([1] * 2, [1] * 2), 2)
        assert close(Q.sigma_p, math.sqrt(8))
        assert close(Q.sigma_p_prime, 2.0)
        assert close(Q.sigma_bar_p, 2.0)
        assert close(Q.b_p, 2**0.25)
        assert close(Q.beta_p, 2**-0.25)

    def test_iid_rows_p2(self):
        # sigma_bar_p = d^{1/p} ||b||_4^2
        b = (1.0, 2.0)
        d, p = 3, 2
        Q = compute_schatten_params(rank_one([1] * d, b), p)
        assert close(Q.sigma_bar_p, d ** (1 / p) * math.sqrt(sum(x**4 for x in b)))

    def test_zero_profile(self):
        Q = compute_schatten_params(load_profile("[[0,0],[0,0]]"), 4)
        assert Q.sigma_p == Q.sigma_p_prime == Q.sigma_bar_p == Q.b_p == 0.0
        assert Q.beta_p == 0.0

    @pytest.mark.parametrize("p", [1, 3, 0, -2, 5])
    def test_odd_or_small_p_rejected(self, p):
        B = rank_one([1] * 2, [1] * 2)
        with pytest.raises(ValueError):
            compute_schatten_params(B, p)

    def test_matches_naive_definitions(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            B = rational_profile(rng, d, n)
            ent = entries(B)
            for p in (2, 4):
                Q = compute_schatten_params(B, p)
                sp = sum(
                    sum(ent[i][j] ** 2 * ent[l][j] ** 2 for j in range(n) for l in range(d)) ** (p // 2)
                    for i in range(d)
                )
                spp = sum(
                    sum(ent[i][j] ** 2 * ent[l][j] ** 2 for j in range(n) for l in range(d) if l != i)
                    ** (p // 2)
                    for i in range(d)
                )
                sbp = sum(sum(ent[i][j] ** 4 for j in range(n)) ** (p // 2) for i in range(d))
                b2p = sum(max(ent[i][j] ** (2 * p) for j in range(n)) for i in range(d))
                assert close(Q.sigma_p, float(sp) ** (1 / p))
                assert close(Q.sigma_p_prime, float(spp) ** (1 / p))
                assert close(Q.sigma_bar_p, float(sbp) ** (1 / p))
                assert close(Q.b_p, float(b2p) ** (1 / (2 * p)))

    def test_d1_sigma_p_equals_bar(self):
        B = load_profile("1,2,3")
        for p in (2, 4, 6):
            Q = compute_schatten_params(B, p)
            assert close(Q.sigma_p, Q.sigma_bar_p)


class TestParameterInequalities:
    def test_inequality_chain(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            d, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            B = float_profile(rng, d, n)
            P = compute_params(B)
            tol = 1 + 1e-12
            assert P.sigma_tilde_inf <= P.sigma_bar_inf * tol + 1e-300
            assert P.sigma_inf <= P.sigma_C * P.sigma_R * tol + 1e-300
            assert P.sigma_star <= min(P.sigma_C, P.sigma_R) * tol
            assert P.sigma_tilde_inf <= P.sigma_inf * tol + 1e-300
            assert P.sigma_tilde_inf <= P.sigma_R * P.sigma_star * tol + 1e-300
            for p in (2, 4):
                Q = compute_schatten_params(B, p)
                assert Q.sigma_p_prime <= Q.sigma_p * tol
                assert Q.sigma_p_prime >= P.sigma_inf / tol
                assert Q.b_p <= B.d ** (1 / (2 * p)) * P.sigma_star * tol

    def test_homogeneity_exact_power_of_two(self):
        rng = np.random.default_rng(1)
        B = float_profile(rng, 4, 5)
        P1 = compute_params(B)
        P2 = compute_params(scaled(B, 2.0))
        for f in SIGMA_FIELDS:
            expect = getattr(P1, f) * (2.0 if f in ("sigma_C", "sigma_R", "sigma_star") else 4.0)
            assert getattr(P2, f) == expect
        assert P2.beta_inf == P1.beta_inf
        assert P2.eff_rank == P1.eff_rank

    def test_homogeneity_random_scale(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            B = float_profile(rng, 3, 4)
            t = float(rng.uniform(0.3, 2.5))
            P1, P2 = compute_params(B), compute_params(scaled(B, t))
            for f, deg in (("sigma_C", 1), ("sigma_R", 1), ("sigma_star", 1),
                           ("sigma_tilde_inf", 2), ("sigma_bar_inf", 2), ("sigma_inf", 2)):
                assert close(getattr(P2, f), getattr(P1, f) * t**deg)
            if math.isfinite(P1.beta_inf):
                assert close(P2.beta_inf, P1.beta_inf, rel=1e-10, abs_=1e-12)
            for p in (2, 4):
                Q1, Q2 = compute_schatten_params(B, p), compute_schatten_params(scaled(B, t), p)
                assert close(Q2.sigma_p, Q1.sigma_p * t**2)
                assert close(Q2.b_p, Q1.b_p * t)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            B = float_profile(rng, d, n)
            arr = B.as_array()
            perm = arr[rng.permutation(d)][:, rng.permutation(n)]
            BP = VarianceProfile(tuple(tuple(float(x) for x in row) for row in perm))
            P1, P2 = compute_params(B), compute_params(BP)
            for f in SIGMA_FIELDS + ("beta_inf", "eff_rank"):
                assert close(getattr(P1, f), getattr(P2, f))

    def test_monotonicity_in_single_entry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            B = float_profile(rng, d, n)
            i, j = int(rng.integers(0, d)), int(rng.integers(0, n))
            rows = [list(r) for r in entries(B)]
            rows[i][j] += float(rng.uniform(0.1, 1.0))
            B2 = VarianceProfile(tuple(tuple(r) for r in rows))
            P1, P2 = compute_params(B), compute_params(B2)
            tol = 1 + 1e-12
            for f in SIGMA_FIELDS:
                assert getattr(P2, f) * tol >= getattr(P1, f)
            for p in (2, 4):
                Q1, Q2 = compute_schatten_params(B, p), compute_schatten_params(B2, p)
                assert Q2.sigma_p * tol >= Q1.sigma_p
                assert Q2.sigma_bar_p * tol >= Q1.sigma_bar_p
                assert Q2.b_p * tol >= Q1.b_p

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.floats(0, 4, allow_nan=False), min_size=1, max_size=5), min_size=1, max_size=5).filter(
            lambda rows: len({len(r) for r in rows}) == 1
        )
    )
    def test_hypothesis_invariants(self, rows):
        B = VarianceProfile(tuple(tuple(r) for r in rows))
        P = compute_params(B)
        tol = 1 + 1e-12
        assert P.sigma_tilde_inf <= P.sigma_bar_inf * tol + 1e-300
        assert P.sigma_inf <= P.sigma_C * P.sigma_R * tol + 1e-300
        assert 0 <= P.eff_rank <= B.d * tol


class TestClosedForms:
    def test_iid_columns_equalities(self):
        b = (1.0, 2.0, 0.5)
        d, n = 3, 4
        cf = closed_form_params("iid_columns", d, n, a=b)
        assert close(cf.sigma_C, math.sqrt(sum(x**2 for x in b)))
        assert close(cf.sigma_R, math.sqrt(n) * 2.0)
        assert close(cf.sigma_star, 2.0)
        assert close(cf.sigma_bar_inf, math.sqrt(n) * 4.0)
        assert "sigma_inf" in cf.upper_bound_fields

    def test_iid_rows_beta_case_quantity(self):
        # sigma_tilde * sigma_C / sigma_star = sqrt(d) ||b||_4^2
        b = (1.0, 2.0)
        d = 3
        cf = closed_form_params("iid_rows", d, 2, b=b)
        lhs = cf.sigma_tilde_inf * cf.sigma_C / cf.sigma_star
        assert close(lhs, math.sqrt(d) * math.sqrt(sum(x**4 for x in b)))

    def test_rank_one_upper_bounds(self):
        a, b = (1.0, 2.0), (3.0, 1.0, 2.0)
        cf = closed_form_params("rank_one", 2, 3, a, b)
        l4sq = math.sqrt(sum(x**4 for x in b))
        assert close(cf.sigma_bar_inf, l4sq * 4.0)
        assert close(cf.sigma_inf, l4sq * math.sqrt(5) * 2.0)
        assert cf.upper_bound_fields == frozenset({"sigma_tilde_inf", "sigma_inf", "beta_inf"})

    def test_no_closed_form_families(self):
        with pytest.raises(ValueError):
            closed_form_params("bounded_ratio", 2, 2)

    def test_consistency_with_computed(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            d, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            kind = rng.choice(["constant", "iid_columns", "iid_rows", "rank_one"])
            a = rng.uniform(0, 2, size=d) if kind in ("iid_columns", "rank_one") else None
            b = rng.uniform(0, 2, size=n) if kind in ("iid_rows", "rank_one") else None
            P = compute_params(rank_one([1] * d if a is None else a, [1] * n if b is None else b))
            cf = closed_form_params(kind, d, n, a, b)
            for f in SIGMA_FIELDS + ("eff_rank", "beta_inf"):
                got, want = getattr(P, f), getattr(cf, f)
                if f in cf.upper_bound_fields:
                    if f != "beta_inf":
                        assert got <= want * (1 + 1e-12) + 1e-300
                else:
                    if f == "beta_inf" and not math.isfinite(want):
                        assert not math.isfinite(got)
                    else:
                        assert close(got, want)
