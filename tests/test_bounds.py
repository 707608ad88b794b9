import math

import numpy as np
import pytest

from covdev import (
    BoundConfig,
    VarianceProfile,
    chz_bound,
    compute_params,
    diagonal_bound,
    free_probability_bound,
    kl_comparator,
    load_profile,
    lower_bound_opnorm,
    lower_bound_schatten,
    main_upper_bound,
    rank_one,
    schatten_upper_bound,
)

from conftest import cli_payload, close, float_profile, scaled, standard_gaussian_bound

ZERO = load_profile("[[0,0],[0,0]]")
CONST22 = rank_one([1] * 2, [1] * 2)


def all_reports(B, p=2, cfg=None):
    cfg = cfg or BoundConfig()
    return [
        main_upper_bound(B, cfg),
        schatten_upper_bound(B, p, cfg),
        diagonal_bound(B, p, cfg),
        chz_bound(B, cfg),
        free_probability_bound(B, cfg),
        lower_bound_schatten(B, p),
        lower_bound_opnorm(B),
        kl_comparator(B),
    ]


class TestMainUpperBound:
    def test_zero_profile(self):
        r = main_upper_bound(ZERO)
        assert r.total == 0.0
        assert r.case_taken == "beta_le_1"
        assert r.warnings

    def test_constant_2x2_leading(self):
        r = main_upper_bound(CONST22, BoundConfig(epsilon=0.5, C_universal=1.0))
        assert r.case_taken == "beta_gt_1"
        assert close(r.leading_term, 9.0)

    def test_constant_2x2_total_formula(self):
        cfg = BoundConfig(epsilon=0.5, C_universal=1.0)
        r = main_upper_bound(CONST22, cfg)
        ce = 1.5 / math.sqrt(math.log(1.5))
        L = math.log(2)
        rt2 = math.sqrt(2)
        expect = 1.5 * (2 * rt2 * rt2 / 1 + 2 + ce * (rt2 * 1 + rt2) * math.sqrt(L) + ce**2 * 1 * L)
        assert close(r.total, expect)

    def test_iid_rows_leading_closed_form(self):
        b = (1.0, 2.0, 1.5)
        d = 4
        B = rank_one([1] * d, b)
        r = main_upper_bound(B)
        assert r.case_taken == "beta_gt_1"  # beta = sqrt(d/(d-1)) > 1
        l4sq = math.sqrt(sum(x**4 for x in b))
        expect = 1.5 * (2 * math.sqrt(d) * l4sq + d * 4.0)
        assert close(r.leading_term, expect)

    def test_total_is_leading_plus_errors(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            B = float_profile(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            for r in all_reports(B):
                assert close(r.total, r.leading_term + sum(v for _, v in r.error_terms), rel=1e-13, abs_=1e-12)
                assert all(v >= 0 for _, v in r.error_terms)
                assert r.leading_term >= 0

    def test_forced_branch(self):
        r = main_upper_bound(CONST22)
        assert set(r.branch_totals) == {"beta_le_1", "beta_gt_1"}
        assert r.branch_totals["beta_le_1"] != r.branch_totals["beta_gt_1"]
        assert r.total == r.branch_totals[r.case_taken]


class TestSchattenUpperBound:
    def test_zero(self):
        assert schatten_upper_bound(ZERO, 2).total == 0.0

    @staticmethod
    def _constant_2x2_branch_and_total(p):
        r = schatten_upper_bound(CONST22, p, BoundConfig())
        assert r.case_taken == "beta_le_1"  # beta_p = 2^{-1/(2p)}
        sp, sc, star, bp = 2 * 2 ** (1 / p), math.sqrt(2), 1.0, 2 ** (1 / (2 * p))
        expect = 2 ** (1 / p) * (2 * sp + 2 + math.sqrt(p) * (sc * star + sp * star / sc) + p * bp**2)
        assert close(r.total, expect)

    def test_constant_2x2_p2_branch_and_total(self):
        self._constant_2x2_branch_and_total(2)

    @pytest.mark.parametrize("p", [268, 270])
    def test_constant_2x2_large_p_branch_and_total(self, p):
        # from p = 270 the plain power sum behind b_p, and so the p b_p^2 tail,
        # passes below the float range
        self._constant_2x2_branch_and_total(p)

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            schatten_upper_bound(CONST22, 3)

    def test_d1_branches_share_leading(self):
        # for a single row sigma_p = sigma_bar_p and sigma_C = sigma_star,
        # so the two branches' terms, and so their totals, coincide
        B = load_profile("1,2,3")
        totals = schatten_upper_bound(B, 2).branch_totals
        assert close(totals["beta_le_1"], totals["beta_gt_1"])


class TestDiagonalBound:
    def test_zero(self):
        assert diagonal_bound(ZERO, 2).total == 0.0

    def test_constant_2x2(self):
        r = diagonal_bound(CONST22, 2)
        assert close(r.total, 4 * math.sqrt(2))

    def test_single_entry(self):
        B = load_profile("1")
        r = diagonal_bound(B, 2)
        assert close(r.total, math.sqrt(2) * 1 + 2 * 1)

    def test_two_sided_flag(self):
        assert any("two-sided" in w for w in diagonal_bound(CONST22, 2).warnings)


class TestStandardGaussian:
    def test_4x9_p2(self):
        r = standard_gaussian_bound(4, 9, 2)
        assert close(r.total, 20 + 20 * math.sqrt(2))

    def test_1x1_p2(self):
        r = standard_gaussian_bound(1, 1, 2)
        assert close(r.total, 2 + 1 + 8 * math.sqrt(2) + 4)

    def test_offdiag_matches_full_at_literal_constants(self):
        cfg = BoundConfig(C_universal=4.0, C_prime=2.0)
        full = standard_gaussian_bound(5, 7, 4)
        off = standard_gaussian_bound(5, 7, 4, off_diagonal=True, cfg=cfg)
        assert close(full.total, off.total)


class TestComparators:
    def test_chz_zero(self):
        assert chz_bound(ZERO).total == 0.0

    def test_chz_constant_leading(self):
        r = chz_bound(CONST22, BoundConfig(epsilon=0.5, C_universal=1.0))
        assert close(r.leading_term, 9.0)

    def test_chz_dominates_main_leading(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            B = float_profile(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            m, c = main_upper_bound(B), chz_bound(B)
            if m.case_taken == "beta_le_1":
                assert m.leading_term <= c.leading_term * (1 + 1e-12) + 1e-300
            else:
                # reduces to sigma_tilde <= sigma_R sigma_star
                P = compute_params(B)
                assert P.sigma_tilde_inf <= P.sigma_R * P.sigma_star * (1 + 1e-12) + 1e-300

    def test_free_zero_and_1x1(self):
        assert free_probability_bound(ZERO).total == 0.0
        B = load_profile("1")
        assert close(free_probability_bound(B).total, 1.0)  # log(nd) = 0 kills errors

    def test_free_constant_formula(self):
        r = free_probability_bound(CONST22)
        rt2 = math.sqrt(2)
        L = math.log(4)
        expect = 2 * rt2 + 2 + (2**0.75 + 2**0.75) * L**0.75 + (rt2 + rt2) * L**1.5
        assert close(r.total, expect)


class TestLowerBounds:
    def test_zero(self):
        assert lower_bound_schatten(ZERO, 2).total == 0.0
        assert lower_bound_opnorm(ZERO).total == 0.0

    def test_constant_schatten_p2(self):
        r = lower_bound_schatten(CONST22, 2)
        assert close(r.total, math.sqrt(8) + 2 + math.sqrt(2) * 2 + 2 * math.sqrt(2))

    def test_tail_terms_match_diagonal_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            B = float_profile(rng, 3, 4)
            low = dict(lower_bound_schatten(B, 4).error_terms)
            diag = diagonal_bound(B, 4, BoundConfig(C_universal=1.0))
            assert close(low["sqrt_p"], diag.leading_term)
            assert close(low["schatten_tail"], dict(diag.error_terms)["schatten_tail"])

    def test_opnorm_constant(self):
        d, n = 3, 5
        B = rank_one([1] * d, [1] * n)
        assert close(lower_bound_opnorm(B).total, math.sqrt(n * (d - 1)) + d)

    def test_opnorm_iid_rows(self):
        b = (1.0, 2.0)
        d = 5
        B = rank_one([1] * d, b)
        l4sq = math.sqrt(sum(x**4 for x in b))
        assert close(lower_bound_opnorm(B).total, math.sqrt(d - 1) * l4sq + d * 4.0)

    def test_lower_below_upper(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            B = float_profile(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            assert lower_bound_opnorm(B).total <= main_upper_bound(B).total * (1 + 1e-12) + 1e-300


class TestKlComparator:
    def test_zero(self):
        assert kl_comparator(ZERO).total == 0.0

    def test_constant(self):
        d, n = 3, 5
        B = rank_one([1] * d, [1] * n)
        assert close(kl_comparator(B).total, n * max(math.sqrt(n * d), d))

    def test_iid_columns_rank(self):
        b = (1.0, 2.0, 2.0)
        B = rank_one(b, [1] * 4)
        P = compute_params(B)
        assert close(P.eff_rank, sum(x**2 for x in b) / 4.0)

    def test_max_interpretation_flagged(self):
        assert any("maximum" in w for w in kl_comparator(CONST22).warnings)


class TestAlgebraicProperties:
    def test_two_homogeneous_exact_power_of_two(self):
        rng = np.random.default_rng(14)
        B = float_profile(rng, 4, 3)
        for r1, r2 in zip(all_reports(B), all_reports(scaled(B, 2.0))):
            assert r2.leading_term == 4 * r1.leading_term

    def test_two_homogeneous_random_scale(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            B = float_profile(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            t = float(rng.uniform(0.2, 3.0))
            for r1, r2 in zip(all_reports(B), all_reports(scaled(B, t))):
                assert close(r2.total, t**2 * r1.total, rel=1e-12, abs_=1e-12)
                assert r1.case_taken == r2.case_taken

    def test_permutation_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            d, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            B = float_profile(rng, d, n)
            arr = B.as_array()[rng.permutation(d)][:, rng.permutation(n)]
            BP = VarianceProfile(tuple(tuple(float(x) for x in row) for row in arr))
            for r1, r2 in zip(all_reports(B), all_reports(BP)):
                assert close(r1.total, r2.total)

    def test_branch_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            B = float_profile(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            P = compute_params(B)
            r = main_upper_bound(B)
            assert (r.case_taken == "beta_le_1") == (P.beta_inf <= 1)
            from covdev import compute_schatten_params

            Q = compute_schatten_params(B, 2)
            rs = schatten_upper_bound(B, 2)
            assert (rs.case_taken == "beta_le_1") == (Q.beta_p <= 1)
            for report in (r, rs):
                assert report.total == report.branch_totals[report.case_taken]


class TestBoundConfig:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            BoundConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            BoundConfig(epsilon=0.6)
        BoundConfig(epsilon=0.5)

    @pytest.mark.parametrize("field", ["C_universal", "C_prime"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_constants_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match="universal constants must be positive"):
            BoundConfig(**{field: value})

    @pytest.mark.parametrize("make, message", [
        (lambda: BoundConfig(log_floor="x"), "log_floor must be 'literal' or 'floored', got 'x'"),
    ], ids=["log_floor"])
    def test_unknown_choice_rejected(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_c_eps_formula(self):
        cfg = BoundConfig(epsilon=0.25, C_universal=2.0)
        assert close(cfg.c_eps(), 2.0 * 1.25 / math.sqrt(math.log(1.25)))

    def test_log_floor_mode(self):
        B = load_profile("1,1")  # n^d = 1, log = 0
        lit = main_upper_bound(B, BoundConfig(log_floor="literal"))
        flo = main_upper_bound(B, BoundConfig(log_floor="floored"))
        assert dict(lit.error_terms)["log"] == 0.0
        assert dict(flo.error_terms)["log"] > 0.0

    def test_constants_echoed(self, capsys):
        cfg = BoundConfig(epsilon=0.3, C_universal=2.5, C_prime=0.5)
        r = main_upper_bound(CONST22, cfg)
        assert r.constants_used == cfg
        argv = ["bounds", "--family", "constant", "--d", "2", "--n", "2",
                "--epsilon", "0.3", "--const", "2.5", "--const-prime", "0.5"]
        report = cli_payload(capsys, argv)["reports"][0]
        assert report["bound_name"] == "main_upper_bound"
        assert report["constants_used"] == {"epsilon": 0.3, "C_universal": 2.5, "C_prime": 0.5, "log_floor": "literal"}

    def test_reports_name_only_the_constants_they_read(self, capsys):
        # the lower bounds and the KL comparator read no constant, so they echo none
        argv = ["bounds", "--family", "constant", "--d", "2", "--n", "2", "--const", "2.5"]
        reports = cli_payload(capsys, argv)["reports"]
        echoed = {r["bound_name"]: r["constants_used"]["C_universal"] for r in reports if "constants_used" in r}
        assert echoed == dict.fromkeys(
            ["main_upper_bound", "schatten_upper_bound", "diagonal_bound", "chz_bound", "free_probability_bound"], 2.5
        )
        assert {r["bound_name"] for r in reports} - set(echoed) == {
            "lower_bound_schatten", "lower_bound_opnorm", "kl_comparator",
        }
