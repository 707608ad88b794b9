"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here; nothing is calibrated at runtime except
the sandwich constant of criterion 9, whose calibration procedure is itself
part of the criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from covdev import (
    BoundConfig,
    SimConfig,
    VarianceProfile,
    bounded_ratio,
    check_opnorm_ceiling,
    check_schatten_ceiling,
    chz_bound,
    compute_params,
    compute_schatten_params,
    diag_trace_moment,
    diagonal_bound,
    enumerate_shapes,
    estimate_deviation,
    free_probability_bound,
    joint_moment,
    kl_comparator,
    load_profile,
    lower_bound_opnorm,
    lower_bound_schatten,
    main_upper_bound,
    offdiag_trace_moment,
    rank_one,
    schatten_upper_bound,
    trace_moment_via_shapes,
)
from covdev.cli import dumps_canonical, cmd_bounds, cmd_simulate, build_parser

from conftest import (
    close,
    closed_form_params,
    entries,
    float_profile,
    full_trace_moment,
    naive_diag_p2,
    naive_offdiag_p2,
    rational_profile,
    scaled,
    standard_gaussian_bound,
)

SIGMA_FIELDS = ("sigma_C", "sigma_R", "sigma_star", "sigma_tilde_inf", "sigma_bar_inf", "sigma_inf")


def _report(name, detail, t0):
    print(f"PASS  {name}: {detail} [{time.time() - t0:.1f}s]")


def small_family_profiles():
    """The structured families at small exact parameterizations."""
    profs = []
    for d, n in ((2, 3), (3, 2)):
        profs.append(rank_one([1] * d, [1] * n))
        profs.append(rank_one(tuple(range(1, d + 1)), [1] * n))
        profs.append(rank_one([1] * d, tuple(range(1, n + 1))))
        profs.append(rank_one(tuple(range(1, d + 1)), (2,) + (1,) * (n - 1)))
    # a column-ratio-compliant exact base passes through bounded_ratio() unchanged
    base = load_profile("1,2,1\n2,1,1", format="csv")
    profs.append(bounded_ratio(base, 2.0))
    return profs


def test_criterion_01_oracle_shape_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    profiles = []
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            for _ in range(6):
                profiles.append(rational_profile(rng, d, n))
    assert len(profiles) >= 50
    profiles += small_family_profiles()
    cases = 0
    for B in profiles:
        for p in (1, 2, 3, 4):
            assert trace_moment_via_shapes(B, p) == offdiag_trace_moment(B, p)
            cases += 1
    assert time.time() - t0 < 60
    _report("oracle-shape equivalence", f"{cases} exact equalities over {len(profiles)} profiles", t0)


def test_criterion_02_closed_form_anchors():
    t0 = time.time()
    anchor = load_profile("1,2\n3,4", format="csv")
    assert offdiag_trace_moment(anchor, 2) == Fraction(146)
    assert diag_trace_moment(anchor, 2) == Fraction(708)
    rng = np.random.default_rng(102)
    for _ in range(100):
        B = rational_profile(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        assert offdiag_trace_moment(B, 2) == naive_offdiag_p2(B)
        assert diag_trace_moment(B, 2) == naive_diag_p2(B)
    assert time.time() - t0 < 5
    _report("closed-form anchors", "146/708 plus 100 random rational profiles, exact", t0)


def test_criterion_03_joint_moment_table():
    t0 = time.time()
    for n in range(9):
        for m in range(9):
            a = joint_moment(n, m)
            assert a >= 0
            assert (a == 0) == (n % 2 == 1 or (n, m) == (0, 1))
    assert time.time() - t0 < 1
    _report("joint moment table", "a_{n,m} signs and zero set for n, m <= 8", t0)


def test_criterion_04_per_shape_ceilings():
    t0 = time.time()
    rng = np.random.default_rng(104)
    shape_lists = {p: enumerate_shapes(p) for p in (2, 3, 4, 5, 6)}
    n26 = n28 = 0
    for _ in range(100):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        B = rational_profile(rng, d, n)
        for p, shapes in shape_lists.items():
            for s in shapes:
                w = check_opnorm_ceiling(s, B)
                assert w.holds, (d, n, p, s.left_seq, s.right_seq, w)
                n26 += 1
                if p in (2, 4):
                    w2 = check_schatten_ceiling(s, B, p)
                    assert w2.holds, (d, n, p, s.left_seq, s.right_seq, w2)
                    n28 += 1
    assert time.time() - t0 < 600
    _report("per-shape ceilings", f"{n26} opnorm + {n28} Schatten witnesses", t0)


def test_criterion_05_diag_two_sided_window():
    t0 = time.time()
    rng = np.random.default_rng(105)
    count = 0
    while count < 100:
        B = rational_profile(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        if B.is_zero:
            continue
        count += 1
        for p in (2, 4, 6, 8):
            Q = compute_schatten_params(B, p)
            denom = math.sqrt(p) * Q.sigma_bar_p + p * Q.b_p**2
            ratio = float(diag_trace_moment(B, p)) ** (1 / p) / denom
            assert 0.1 <= ratio <= 10.0, (entries(B), p, ratio)
    assert time.time() - t0 < 120
    _report("diagonal two-sided order", "ratio in [1/10, 10] for p in {2,4,6,8}, 100 profiles", t0)


def _all_bound_totals(B, cfg=None):
    cfg = cfg or BoundConfig()
    out = [
        main_upper_bound(B, cfg),
        chz_bound(B, cfg),
        free_probability_bound(B, cfg),
        lower_bound_opnorm(B),
        kl_comparator(B),
    ]
    for p in (2, 4):
        out += [schatten_upper_bound(B, p, cfg), diagonal_bound(B, p, cfg), lower_bound_schatten(B, p)]
    return out


def test_criterion_06_algebraic_properties():
    t0 = time.time()
    rng = np.random.default_rng(106)
    for trial in range(1000):
        d, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        B = float_profile(rng, d, n)
        P = compute_params(B)
        tol = 1 + 1e-12
        assert P.sigma_tilde_inf <= P.sigma_bar_inf * tol + 1e-300
        assert P.sigma_inf <= P.sigma_C * P.sigma_R * tol + 1e-300
        for p in (2, 4):
            Q = compute_schatten_params(B, p)
            assert Q.sigma_p_prime * tol >= P.sigma_inf
        # branch selection
        assert (main_upper_bound(B).case_taken == "beta_le_1") == (P.beta_inf <= 1)
        Q2 = compute_schatten_params(B, 2)
        assert (schatten_upper_bound(B, 2).case_taken == "beta_le_1") == (Q2.beta_p <= 1)
        # 2-homogeneity at relative 1e-12 and permutation invariance,
        # subsampled for runtime
        if trial % 5 == 0:
            t = float(rng.uniform(0.25, 3.0))
            for r1, r2 in zip(_all_bound_totals(B), _all_bound_totals(scaled(B, t))):
                assert close(r2.total, t**2 * r1.total, rel=1e-12, abs_=1e-12)
                assert r1.case_taken == r2.case_taken
            arr = B.as_array()[rng.permutation(d)][:, rng.permutation(n)]
            BP = VarianceProfile(tuple(tuple(float(x) for x in row) for row in arr), exact=False)
            for r1, r2 in zip(_all_bound_totals(B), _all_bound_totals(BP)):
                assert close(r1.total, r2.total, rel=1e-12, abs_=1e-12)
    assert time.time() - t0 < 30
    _report("algebraic properties", "1000 profiles: homogeneity, permutation, inequalities, branches", t0)


def test_criterion_07_closed_form_cross_check():
    t0 = time.time()
    rng = np.random.default_rng(107)
    for kind in ("constant", "iid_columns", "iid_rows", "rank_one"):
        for _ in range(100):
            d, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            a = rng.uniform(0, 2, size=d) if kind in ("iid_columns", "rank_one") else None
            b = rng.uniform(0, 2, size=n) if kind in ("iid_rows", "rank_one") else None
            P = compute_params(rank_one([1] * d if a is None else a, [1] * n if b is None else b))
            cf = closed_form_params(kind, d, n, a, b)
            for f in SIGMA_FIELDS + ("eff_rank",):
                got, want = getattr(P, f), getattr(cf, f)
                if f in cf.upper_bound_fields:
                    assert got <= want * (1 + 1e-12) + 1e-300, (kind, f, got, want)
                else:
                    assert close(got, want), (kind, f, got, want)
            if "beta_inf" not in cf.upper_bound_fields:
                assert close(P.beta_inf, cf.beta_inf) or (
                    not math.isfinite(P.beta_inf) and not math.isfinite(cf.beta_inf)
                )
    assert time.time() - t0 < 10
    _report("closed-form cross-check", "4 families x 100 parameterizations", t0)


@pytest.fixture(scope="module")
def wishart_anchor():
    B = rank_one([1] * 20, [1] * 400)
    est = estimate_deviation(B, SimConfig(seed=2024, samples=400))[0]
    return B, est


def test_criterion_08_wishart_anchor(wishart_anchor):
    t0 = time.time()
    B, est = wishart_anchor
    pred = 2 * math.sqrt(20 * 400) + 20
    assert abs(est.mean - pred) <= 0.15 * pred, (est.mean, pred)
    cap = standard_gaussian_bound(20, 400, 2).total
    assert est.mean < cap, (est.mean, cap)
    assert time.time() - t0 < 120
    _report(
        "Wishart anchor",
        f"mean {est.mean:.1f} within 15% of {pred:.1f} and below {cap:.1f}", t0,
    )


def _calibrate_c(anchor_profile, anchor_mean) -> float:
    """Smallest C_universal whose main upper bound clears the constant-profile
    empirical mean with 20% slack, by bisection on [1e-9, 8]."""

    def total(c):
        return main_upper_bound(anchor_profile, BoundConfig(epsilon=0.5, C_universal=c)).total

    target = 1.2 * anchor_mean
    lo, hi = 1e-9, 8.0
    if total(lo) >= target:
        return lo
    assert total(hi) >= target, "calibration bracket too small"
    for _ in range(60):
        mid = (lo + hi) / 2
        if total(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _sandwich_profiles():
    """Family profiles for the sandwich: mildly heterogeneous deterministic
    vectors.  At stronger heterogeneity the constant-1 evaluation of the
    lower bound exceeds the finite-size mean in the d >> n corner."""
    out = {}
    for d, n in ((10, 50), (50, 10), (30, 30)):
        va = np.linspace(0.9, 1.1, d)
        vb = np.linspace(0.9, 1.1, n)
        base_rows = tuple(
            tuple(0.9 + 0.2 * ((3 * i + 5 * j) % 11) / 10.0 for j in range(n)) for i in range(d)
        )
        base = VarianceProfile(base_rows, exact=False)
        out[("constant", d, n)] = rank_one([1] * d, [1] * n)
        out[("iid_columns", d, n)] = rank_one(va, [1] * n)
        out[("iid_rows", d, n)] = rank_one([1] * d, vb)
        out[("rank_one", d, n)] = rank_one(va, vb)
        out[("bounded_ratio", d, n)] = bounded_ratio(base, 1.25)
    return out


def test_criterion_09_sandwich(wishart_anchor):
    t0 = time.time()
    anchor_profile, anchor_est = wishart_anchor
    c_cal = _calibrate_c(anchor_profile, anchor_est.mean)
    worst = math.inf
    for key, B in _sandwich_profiles().items():
        est = estimate_deviation(B, SimConfig(seed=2024, samples=200))[0]
        hi = est.mean + 5 * est.stderr
        lower = lower_bound_opnorm(B).total
        upper = main_upper_bound(B, BoundConfig(epsilon=0.5, C_universal=c_cal)).total
        assert lower <= hi, (key, lower, hi)
        assert hi <= upper, (key, hi, upper)
        worst = min(worst, hi / lower)
    assert time.time() - t0 < 600
    _report("sandwich", f"C_cal={c_cal:.3g}, 15 profiles, worst lower margin {worst:.3f}", t0)


def test_criterion_10_monte_carlo_vs_oracle():
    t0 = time.time()
    B = load_profile("1,2\n3,4", format="csv")
    target = float(full_trace_moment(B, 2))
    assert target == 854.0
    est = estimate_deviation(B, SimConfig(seed=1010, samples=100_000, p_list=(2,)))[1]
    assert abs(est.mean - target) <= 5 * est.stderr, (est.mean, est.stderr)
    assert time.time() - t0 < 60
    _report("Monte Carlo vs oracle", f"mean {est.mean:.1f} within 5 stderr of 854", t0)


def test_criterion_11_determinism(tmp_path, capsys):
    t0 = time.time()
    path = tmp_path / "prof.csv"
    path.write_text("1,2\n3,4\n")
    parser = build_parser()

    def payload_bytes(argv):
        args = parser.parse_args(argv)
        payload, _, status = args.fn(args)
        assert status == 0
        return dumps_canonical(payload).encode()

    bounds_argv = ["bounds", "--profile", str(path), "--p", "2,4"]
    sim_argv = ["simulate", "--profile", str(path), "--seed", "17", "--samples", "25", "--p", "2"]
    assert payload_bytes(bounds_argv) == payload_bytes(bounds_argv)
    assert payload_bytes(sim_argv) == payload_bytes(sim_argv)
    assert time.time() - t0 < 60
    _report("determinism", "byte-identical bounds and simulate payloads", t0)
