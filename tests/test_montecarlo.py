import math

import numpy as np
import pytest

from covdev import (
    BoundConfig,
    ProfileFamily,
    SimConfig,
    VarianceProfile,
    diag_trace_moment,
    estimate_deviation,
    estimate_opnorm_deviation,
    estimate_schatten_trace,
    full_trace_moment,
    generate,
    load_profile,
    lower_bound_opnorm,
    main_upper_bound,
    sample_deviation,
    sample_stream,
    tightness_report,
)
from covdev import montecarlo

B2212 = load_profile("1,2\n3,4", format="csv")
ZERO = load_profile("[[0,0],[0,0]]", format="json")


class TestSampleDeviation:
    def test_zero_profile(self):
        M = sample_deviation(ZERO, sample_stream(0, 0))
        assert (M == 0).all()

    def test_1x1_is_gsq_minus_one(self):
        M = sample_deviation(load_profile("1", format="csv"), sample_stream(42, 0))
        g = sample_stream(42, 0).standard_normal(size=(1, 1))[0, 0]
        assert M[0, 0] == g * g - 1

    def test_same_stream_same_matrix(self):
        a = sample_deviation(B2212, sample_stream(9, 3))
        b = sample_deviation(B2212, sample_stream(9, 3))
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = sample_deviation(B2212, sample_stream(9, 0))
        b = sample_deviation(B2212, sample_stream(9, 1))
        assert not (a == b).all()

    def test_exactly_symmetric(self):
        rng_idx = 0
        B = generate(ProfileFamily.constant(), 7, 5)
        M = sample_deviation(B, sample_stream(1, rng_idx))
        assert (M == M.T).all()

    def test_centering_matches_expectation(self):
        # mean over many draws of the diagonal should be near zero
        B = B2212
        acc = np.zeros((2, 2))
        n_draws = 3000
        for i in range(n_draws):
            acc += sample_deviation(B, sample_stream(5, i))
        acc /= n_draws
        assert np.abs(np.diag(acc)).max() < 1.0  # diag entries have O(sqrt(var/n)) noise


class TestEstimates:
    def test_determinism(self):
        cfg = SimConfig(seed=3, samples=40)
        assert estimate_opnorm_deviation(B2212, cfg) == estimate_opnorm_deviation(B2212, cfg)
        assert estimate_schatten_trace(B2212, 2, cfg) == estimate_schatten_trace(B2212, 2, cfg)

    def test_zero_profile(self):
        est = estimate_opnorm_deviation(ZERO, SimConfig(seed=0, samples=5))
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_scaling_exact_power_of_two(self):
        cfg = SimConfig(seed=5, samples=20)
        a = estimate_opnorm_deviation(B2212, cfg)
        b = estimate_opnorm_deviation(B2212.scaled(2.0), cfg)
        assert b.mean == 4 * a.mean

    def test_schatten_vs_oracle_anchor(self):
        cfg = SimConfig(seed=11, samples=4000)
        est = estimate_schatten_trace(B2212, 2, cfg)
        target = float(full_trace_moment(B2212, 2).value)
        assert abs(est.mean - target) <= 5 * est.stderr
        assert est.mean_root == pytest.approx(est.mean ** 0.5)

    def test_schatten_p4_vs_oracle(self):
        est = estimate_schatten_trace(B2212, 4, SimConfig(seed=123, samples=6000))
        target = float(full_trace_moment(B2212, 4).value)
        assert abs(est.mean - target) <= 5 * est.stderr

    def test_1x1_variance_of_chisq(self):
        B = load_profile("1", format="csv")
        est = estimate_schatten_trace(B, 2, SimConfig(seed=2, samples=4000))
        assert abs(est.mean - 2.0) <= 5 * est.stderr

    def test_single_row_second_moment_cap(self):
        # E |sum (g^2-1)| <= sqrt(E (sum)^2) = sqrt(2n)
        n = 100
        B = generate(ProfileFamily.constant(), 1, n)
        est = estimate_opnorm_deviation(B, SimConfig(seed=8, samples=400))
        cap = math.sqrt(float(diag_trace_moment(B, 2).value))
        assert cap == pytest.approx(math.sqrt(2 * n))
        assert est.mean <= cap + 5 * est.stderr

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            estimate_schatten_trace(B2212, 3, SimConfig(seed=0, samples=5))


def _reference_estimates(B, seed, samples, p_list):
    """Per-sample draw, dense eigensolve and reduction, written out in full."""
    opnorms, traces = [], {p: [] for p in p_list}
    for i in range(samples):
        vals = np.linalg.eigvalsh(sample_deviation(B, sample_stream(seed, i)))
        opnorms.append(float(max(abs(vals[0]), abs(vals[-1]))))
        for p in p_list:
            traces[p].append(float(np.sum(vals**p)))
    return [montecarlo._mean_stderr(opnorms)] + [montecarlo._mean_stderr(traces[p]) for p in p_list]


class TestOnePass:
    @pytest.mark.parametrize("B, samples", [
        (B2212, 300),
        (generate(ProfileFamily.constant(), 20, 40), 30),
    ], ids=["2x2", "constant-20x40"])
    def test_bit_identical_to_reference_loop(self, B, samples):
        cfg = SimConfig(seed=17, samples=samples, p_list=(2, 4))
        ests = estimate_deviation(B, cfg)
        assert [e.target for e in ests] == ["opnorm", "schatten_trace(2)", "schatten_trace(4)"]
        assert [(e.mean, e.stderr) for e in ests] == _reference_estimates(B, 17, samples, (2, 4))

    def test_single_target_entry_points_select(self):
        cfg = SimConfig(seed=4, samples=25, p_list=(2, 4))
        opnorm, tr2, tr4 = estimate_deviation(B2212, cfg)
        assert estimate_opnorm_deviation(B2212, cfg) == opnorm
        assert estimate_schatten_trace(B2212, 2, cfg) == tr2
        assert estimate_schatten_trace(B2212, 4, cfg) == tr4
        assert tr4.mean_root == tr4.mean ** 0.25

    def test_one_draw_and_one_eigensolve_per_sample(self, monkeypatch):
        calls = {"draw": 0, "eig": 0}
        draw, eig = montecarlo.sample_deviation, np.linalg.eigvalsh

        def counted_draw(*a):
            calls["draw"] += 1
            return draw(*a)

        def counted_eig(*a):
            calls["eig"] += 1
            return eig(*a)

        monkeypatch.setattr(montecarlo, "sample_deviation", counted_draw)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eig)
        estimate_deviation(B2212, SimConfig(seed=0, samples=12, p_list=(2, 4, 6)))
        assert calls == {"draw": 12, "eig": 12}

    def test_eigensolver_failure_names_the_sample(self, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(montecarlo.EigenConvergenceError) as info:
            estimate_schatten_trace(B2212, 2, SimConfig(seed=0, samples=3))
        assert info.value.sample_index == 0


class TestSimConfig:
    def test_samples_floor(self):
        with pytest.raises(ValueError):
            SimConfig(seed=0, samples=1)

    @pytest.mark.parametrize("p_list", [(3,), (0,), (2, 5), (2.0,)])
    def test_p_list_must_be_even_ints_from_2(self, p_list):
        with pytest.raises(ValueError, match="even integer"):
            SimConfig(seed=0, samples=10, p_list=p_list)

    def test_to_dict_keys(self):
        assert SimConfig(seed=1, samples=5, p_list=(2, 4)).to_dict() == {"seed": 1, "samples": 5, "p_list": [2, 4]}

    def test_seed_range(self):
        with pytest.raises(ValueError):
            SimConfig(seed=-1, samples=10)


class TestTightnessReport:
    def test_zero_profile_ratios_na(self):
        rep = tightness_report(ZERO, SimConfig(seed=0, samples=5))
        assert rep["ratios"]["empirical_over_lower"] is None
        assert rep["ratios"]["upper_over_empirical"] is None

    def test_sandwich_on_wishart(self):
        B = generate(ProfileFamily.constant(), 10, 40)
        rep = tightness_report(B, SimConfig(seed=7, samples=100), BoundConfig())
        est = rep["estimate"]
        assert rep["bounds"]["lower_bound_opnorm"]["total"] <= est["mean"] + 5 * est["stderr"]
        assert est["mean"] <= rep["bounds"]["main_upper_bound"]["total"]
        assert rep["ratios"]["empirical_over_lower"] > 0

    def test_iid_rows_ratio_bounded_across_d(self):
        # empirical / (sigma_inf + sigma_C^2) stays within a fixed window
        b = tuple(1.0 + 0.1 * j for j in range(8))
        for d in (5, 10, 20):
            B = generate(ProfileFamily.iid_rows(b), d, 8)
            est = estimate_opnorm_deviation(B, SimConfig(seed=13, samples=100))
            lower = lower_bound_opnorm(B).total
            assert 0.2 <= est.mean / lower <= 5.0
