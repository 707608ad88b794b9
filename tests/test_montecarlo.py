import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from covdev import (
    SimConfig,
    VarianceProfile,
    diag_trace_moment,
    estimate_deviation,
    load_profile,
    lower_bound_opnorm,
    rank_one,
)
from covdev import montecarlo

from conftest import cli_payload, full_trace_moment, scaled

B2212 = load_profile("1,2\n3,4")
ZERO = load_profile("[[0,0],[0,0]]")


def sample_deviation(B, rng):
    """Reference: one draw of X X^T - E X X^T with X_ij = b_ij g_ij, assembled
    from one computed triangle so it is exactly symmetric."""
    arr = B.as_array()
    g = rng.standard_normal(size=arr.shape)
    X = arr * g
    C = X @ X.T
    upper = np.triu(C, 1)
    return upper + upper.T + np.diag(np.diagonal(C) - (arr * arr).sum(axis=1))


def sample_stream(seed, index):
    """Independent per-sample stream: Philox keyed by seed, index in the counter."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


def jumped_stream(seed, index):
    """Reference stream: Philox keyed by seed, jumped index times."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(index))


def chunk_budget(B, samples):
    """A chunk budget that holds exactly `samples` samples of B."""
    return 8 * B.d * max(B.d, B.n) * samples


class TestSampleDeviation:
    def test_zero_profile(self):
        M = sample_deviation(ZERO, sample_stream(0, 0))
        assert (M == 0).all()

    def test_1x1_is_gsq_minus_one(self):
        M = sample_deviation(load_profile("1"), sample_stream(42, 0))
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
        B = rank_one([1] * 7, [1] * 5)
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
        assert estimate_deviation(B2212, cfg)[0] == estimate_deviation(B2212, cfg)[0]
        cfg = SimConfig(seed=3, samples=40, p_list=(2,))
        assert estimate_deviation(B2212, cfg)[1] == estimate_deviation(B2212, cfg)[1]

    def test_zero_profile(self):
        est = estimate_deviation(ZERO, SimConfig(seed=0, samples=5))[0]
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_scaling_exact_power_of_two(self):
        cfg = SimConfig(seed=5, samples=20)
        a = estimate_deviation(B2212, cfg)[0]
        b = estimate_deviation(scaled(B2212, 2.0), cfg)[0]
        assert b.mean == 4 * a.mean

    def test_schatten_vs_oracle_anchor(self):
        cfg = SimConfig(seed=11, samples=4000, p_list=(2,))
        est = estimate_deviation(B2212, cfg)[1]
        target = float(full_trace_moment(B2212, 2))
        assert abs(est.mean - target) <= 5 * est.stderr
        assert est.mean_root == pytest.approx(est.mean ** 0.5)

    def test_schatten_p4_vs_oracle(self):
        est = estimate_deviation(B2212, SimConfig(seed=123, samples=6000, p_list=(4,)))[1]
        target = float(full_trace_moment(B2212, 4))
        assert abs(est.mean - target) <= 5 * est.stderr

    def test_1x1_variance_of_chisq(self):
        B = load_profile("1")
        est = estimate_deviation(B, SimConfig(seed=2, samples=4000, p_list=(2,)))[1]
        assert abs(est.mean - 2.0) <= 5 * est.stderr

    def test_single_row_second_moment_cap(self):
        # E |sum (g^2-1)| <= sqrt(E (sum)^2) = sqrt(2n)
        n = 100
        B = rank_one([1], [1] * n)
        est = estimate_deviation(B, SimConfig(seed=8, samples=400))[0]
        cap = math.sqrt(float(diag_trace_moment(B, 2)))
        assert cap == pytest.approx(math.sqrt(2 * n))
        assert est.mean <= cap + 5 * est.stderr

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            estimate_deviation(B2212, SimConfig(seed=0, samples=5, p_list=(3,)))


def _reference_estimates(B, seed, samples, p_list):
    """Per-sample jumped stream, draw, dense eigensolve and reduction, written
    out in full."""
    opnorms, traces = [], {p: [] for p in p_list}
    for i in range(samples):
        vals = np.linalg.eigvalsh(sample_deviation(B, jumped_stream(seed, i)))
        opnorms.append(float(max(abs(vals[0]), abs(vals[-1]))))
        for p in p_list:
            traces[p].append(float(np.sum(vals**p)))
    return [montecarlo._mean_stderr(opnorms)] + [montecarlo._mean_stderr(traces[p]) for p in p_list]


def _float_profile(seed, d, n):
    """Seeded float profile with about 20% zero cells."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0, size=(d, n))
    a[rng.random((d, n)) < 0.2] = 0.0
    return VarianceProfile(a.tolist())


# With the default chunk budget: 2x2 fits in one chunk, 20x400 takes 16
# samples a chunk, 150x300 takes 2 and 60x20 (d > n) takes 36.
PROFILES = [
    (B2212, 300),
    (rank_one([1] * 20, [1] * 40), 30),
    (rank_one([1] * 20, [1] * 400), 37),
    (_float_profile(3, 150, 300), 5),
    (_float_profile(4, 60, 20), 41),
]
PROFILE_IDS = ["2x2", "constant-20x40", "constant-20x400", "float-150x300", "float-60x20"]
# A 1x1 and a 1x3 profile draw an odd count of normals a sample.
WORKER_PROFILES = PROFILES + [(load_profile("1.5"), 23), (load_profile("1,0,2"), 19)]
WORKER_PROFILE_IDS = PROFILE_IDS + ["1x1", "1x3"]


def _state(rng):
    """A generator's bit-generator state, with its arrays as lists."""
    st = rng.bit_generator.state
    return {**st, "state": {k: v.tolist() for k, v in st["state"].items()}, "buffer": st["buffer"].tolist()}


class TestOnePass:
    @pytest.mark.parametrize("B, samples", PROFILES, ids=PROFILE_IDS)
    def test_bit_identical_to_reference_loop(self, B, samples):
        cfg = SimConfig(seed=17, samples=samples, p_list=(2, 4))
        ests = estimate_deviation(B, cfg)
        assert [e.target for e in ests] == ["opnorm", "schatten_trace(2)", "schatten_trace(4)"]
        assert [(e.mean, e.stderr) for e in ests] == _reference_estimates(B, 17, samples, (2, 4))

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("B, samples", PROFILES, ids=PROFILE_IDS)
    def test_chunk_size_does_not_change_results(self, monkeypatch, B, samples, chunk):
        cfg = SimConfig(seed=2**63 + 1, samples=samples, p_list=(2, 6))
        default = estimate_deviation(B, cfg)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B, chunk))
        assert estimate_deviation(B, cfg) == default
        assert [(e.mean, e.stderr) for e in default] == _reference_estimates(B, 2**63 + 1, samples, (2, 6))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("B, samples", WORKER_PROFILES, ids=WORKER_PROFILE_IDS)
    def test_worker_count_does_not_change_results(self, monkeypatch, B, samples, chunk, workers):
        cfg = SimConfig(seed=5, samples=samples, p_list=(2, 4))
        default = estimate_deviation(B, cfg)
        monkeypatch.setattr(montecarlo, "_workers", lambda d, n: workers)
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B, chunk))
        assert estimate_deviation(B, cfg) == default
        assert [(e.mean, e.stderr) for e in default] == _reference_estimates(B, 5, samples, (2, 4))

    def test_more_workers_than_cpus_with_frequent_switches(self, monkeypatch):
        cfg = SimConfig(seed=8, samples=300, p_list=(2,))
        reference = _reference_estimates(B2212, 8, 300, (2,))
        monkeypatch.setattr(montecarlo, "_workers", lambda d, n: 8)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B2212, 8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert [(e.mean, e.stderr) for e in estimate_deviation(B2212, cfg)] == reference
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_restarted_stream_equals_sample_stream(self, seed):
        restart = montecarlo._restartable_stream(seed)
        # Out of order, each visit leaving a part-used buffer and, after an
        # odd count of 32-bit draws, a buffered half word behind.
        for index, size in [(5, 1), (2, 3), (2**20, 5), (0, 1), (5, 3), (2, 5)]:
            rng, ref = restart(index), sample_stream(seed, index)
            assert _state(rng) == _state(ref)
            assert (rng.standard_normal(size) == ref.standard_normal(size)).all()
            words = [r.integers(2**32, size=size, dtype=np.uint32) for r in (rng, ref)]
            assert (words[0] == words[1]).all()
            assert rng.bit_generator.state["has_uint32"] == 1 == size % 2

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 1, 5, 2**20])
    def test_counter_stream_equals_jumped_stream(self, seed, index):
        a = sample_stream(seed, index).standard_normal(size=1000)
        b = jumped_stream(seed, index).standard_normal(size=1000)
        assert (a == b).all()

    def test_single_target_entry_points_select(self):
        cfg = SimConfig(seed=4, samples=25, p_list=(2, 4))
        opnorm, tr2, tr4 = estimate_deviation(B2212, cfg)
        assert estimate_deviation(B2212, replace(cfg, p_list=()))[0] == opnorm
        assert estimate_deviation(B2212, replace(cfg, p_list=(2,)))[1] == tr2
        assert estimate_deviation(B2212, replace(cfg, p_list=(4,)))[1] == tr4
        assert tr4.mean_root == tr4.mean ** 0.25

    def test_one_draw_per_sample_and_one_eigensolve_per_chunk(self, monkeypatch):
        draws, solved = [], []
        restartable, eig = montecarlo._restartable_stream, np.linalg.eigvalsh

        class CountedStream:
            """One worker's stream; records the sample index of every draw."""

            def __init__(self, seed):
                self.restart = restartable(seed)

            def __call__(self, index):
                self.rng, self.index = self.restart(index), index
                return self

            def standard_normal(self, **kw):
                draws.append(self.index)
                return self.rng.standard_normal(**kw)

        def counted_eig(M):
            solved.append(len(M))
            return eig(M)

        monkeypatch.setattr(montecarlo, "_restartable_stream", CountedStream)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eig)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B2212, 4))
        # The budget is split between workers, and chunks are even: 13
        # samples at 4 a chunk make chunks of 3, 3, 3 and 4.
        for workers, samples, stacks in [(1, 12, [4] * 3), (2, 12, [2] * 6), (3, 12, [1] * 12), (1, 13, [3, 3, 3, 4])]:
            draws.clear()
            solved.clear()
            monkeypatch.setattr(montecarlo, "_workers", lambda d, n, w=workers: w)
            estimate_deviation(B2212, SimConfig(seed=0, samples=samples, p_list=(2, 4, 6)))
            assert sorted(draws) == list(range(samples)), workers
            assert sorted(solved) == stacks, workers

    def test_eigensolver_failure_names_the_sample(self, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(montecarlo.EigenConvergenceError) as info:
            estimate_deviation(B2212, SimConfig(seed=0, samples=3, p_list=(2,)))
        assert info.value.sample_index == 0

    def test_failure_in_a_later_chunk_names_that_sample(self, monkeypatch):
        eig, seed, bad = np.linalg.eigvalsh, 9, 7
        target = sample_deviation(B2212, jumped_stream(seed, bad))

        def fail_on_target(M):
            if (M == target).all(axis=(-2, -1)).any():
                raise np.linalg.LinAlgError("no convergence")
            return eig(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_target)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B2212, 3))
        with pytest.raises(montecarlo.EigenConvergenceError) as info:
            estimate_deviation(B2212, SimConfig(seed=seed, samples=12, p_list=(2,)))
        assert info.value.sample_index == bad
        assert "sample 7" in str(info.value)

    @pytest.mark.parametrize("bad", [(4, 7), (7, 10), (1, 5)])
    def test_two_failures_in_different_chunks_name_the_lower(self, monkeypatch, bad):
        # Chunks of 3 on 2 workers: worker 0 solves samples 0-2 and 6-8, worker 1 3-5 and 9-11.
        eig, seed = np.linalg.eigvalsh, 9
        targets = [sample_deviation(B2212, jumped_stream(seed, i)) for i in bad]

        def fail_on_targets(M):
            if any((M == t).all(axis=(-2, -1)).any() for t in targets):
                raise np.linalg.LinAlgError("no convergence")
            return eig(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_targets)
        monkeypatch.setattr(montecarlo, "_workers", lambda d, n: 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B2212, 6))
        with pytest.raises(montecarlo.EigenConvergenceError) as info:
            estimate_deviation(B2212, SimConfig(seed=seed, samples=12, p_list=(2,)))
        assert info.value.sample_index == min(bad)


    def test_no_chunk_starts_past_a_failed_one(self, monkeypatch):
        eig, failed, solved = np.linalg.eigvalsh, threading.Event(), []

        def fail_off_main_thread(M):
            if threading.current_thread() is not threading.main_thread():
                failed.set()
                raise MemoryError("cannot allocate workspace")
            assert failed.wait(10)
            time.sleep(0.05)  # let worker 1 record its failed chunk 1
            solved.append(len(M))
            return eig(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_off_main_thread)
        monkeypatch.setattr(montecarlo, "_workers", lambda d, n: 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B2212, 2))
        with pytest.raises(MemoryError):
            estimate_deviation(B2212, SimConfig(seed=0, samples=12, p_list=(2,)))
        assert solved == [1]  # chunk 0 only; chunks 2, 4, ... 10 were never started

    def test_interrupt_in_calling_thread_joins_the_workers(self, monkeypatch):
        eig, interrupted, solved = np.linalg.eigvalsh, threading.Event(), []
        begun = threading.Barrier(3, timeout=10)  # chunks 0, 1 and 2 have all reached eigvalsh

        def interrupt_main_thread(M):
            if threading.current_thread() is threading.main_thread():
                begun.wait()
                interrupted.set()
                raise KeyboardInterrupt
            if not interrupted.is_set():
                begun.wait()
            assert interrupted.wait(10)
            time.sleep(0.05)  # let the calling thread record its failed chunk 0
            solved.append(len(M))
            return eig(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", interrupt_main_thread)
        monkeypatch.setattr(montecarlo, "_workers", lambda d, n: 3)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_budget(B2212, 3))
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            estimate_deviation(B2212, SimConfig(seed=0, samples=300, p_list=(2,)))
        assert threading.active_count() == threads
        assert solved == [1, 1]  # chunks 1 and 2, begun before the interrupt; 3 to 299 never

    @pytest.mark.parametrize("cpus, expected", [(1, [1] * 9), (16, [1, 1, 2, 2, 2, 2, 1, 1, 1])])
    def test_two_threads_at_most_and_only_in_the_measured_band(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        shapes = [(2, 2), (4, 4), (8, 8), (20, 400), (64, 128), (60, 20), (40, 300), (90, 90), (150, 300)]
        assert [montecarlo._workers(d, n) for d, n in shapes] == expected


class TestSimConfig:
    def test_samples_floor(self):
        with pytest.raises(ValueError):
            SimConfig(seed=0, samples=1)

    @pytest.mark.parametrize("p_list", [(3,), (0,), (2, 5), (2.0,)])
    def test_p_list_must_be_even_ints_from_2(self, p_list):
        with pytest.raises(ValueError, match="even integer"):
            SimConfig(seed=0, samples=10, p_list=p_list)

    def test_to_dict_keys(self, capsys):
        # the config as the simulate payload writes it
        argv = ["simulate", "--family", "constant", "--d", "2", "--n", "2",
                "--seed", "1", "--samples", "5", "--p", "2,4"]
        assert cli_payload(capsys, argv)["config"] == {"seed": 1, "samples": 5, "p_list": [2, 4]}

    def test_seed_range(self):
        with pytest.raises(ValueError):
            SimConfig(seed=-1, samples=10)


class TestTightnessReport:
    """The compare payload."""

    def test_zero_profile_ratios_na(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text("[[0,0],[0,0]]")
        rep = cli_payload(capsys, ["compare", "--profile", str(path), "--seed", "0", "--samples", "5"])
        assert rep["ratios"]["empirical_over_lower"] is None
        assert rep["ratios"]["upper_over_empirical"] is None

    def test_sandwich_on_wishart(self, capsys):
        # the constant profile rank_one([1] * 10, [1] * 40), at the default bound constants
        argv = ["compare", "--family", "constant", "--d", "10", "--n", "40", "--seed", "7", "--samples", "100"]
        rep = cli_payload(capsys, argv)
        est = rep["estimate"]
        assert rep["bounds"]["lower_bound_opnorm"]["total"] <= est["mean"] + 5 * est["stderr"]
        assert est["mean"] <= rep["bounds"]["main_upper_bound"]["total"]
        assert rep["ratios"]["empirical_over_lower"] > 0

    def test_iid_rows_ratio_bounded_across_d(self):
        # empirical / (sigma_inf + sigma_C^2) stays within a fixed window
        b = tuple(1.0 + 0.1 * j for j in range(8))
        for d in (5, 10, 20):
            B = rank_one([1] * d, b)
            est = estimate_deviation(B, SimConfig(seed=13, samples=100))[0]
            lower = lower_bound_opnorm(B).total
            assert 0.2 <= est.mean / lower <= 5.0
