"""Workloads of the covdev benchmark: seeded inputs, CLI jobs and output checks.

Each workload is three jobs, each one `covdev.cli.main(argv)` call.  All inputs
(profile files, CLI seeds, epsilon) are drawn from the workload seed, so one
seed always gives the same argv lists and the same file bytes.  Every job has
a check that recomputes something about its output independently of covdev;
a check returns a list of problems, empty when the output is right.

Why these workloads: the paper's results are used in three ways, and each
workload is one of them.

- desk-bounds: closed-form bounds at the scale users evaluate them (profile
  ingest and generation, parameters, bound assembly).  Never touches shapes,
  oracle or montecarlo.
- exact-certify: exact certification of the shape combinatorics at desk scale.
  The only workload that runs shapes and oracle; the oracle engine and the
  W(s) engine each dominate a different job.
- mc-sampling: seeded Monte Carlo, once with many tiny samples (per-sample
  overhead dominates) and once with few wide samples (BLAS/LAPACK dominate),
  so a batching gain for one that costs the other shows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable

import numpy as np

# Monte Carlo estimates must lie within this many standard errors of the
# exact value; at 5 a correct sampler fails about once in 1.7 million runs.
MC_Z = 5.0


@dataclass(frozen=True)
class Job:
    """One CLI call; `check` validates the parsed envelope and returns a list
    of problems."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _rational_profile(rng: np.random.Generator, d: int, n: int) -> list[list[Fraction]]:
    # Nonzero cells: the engines skip zero cells early, so zeros would make
    # the work depend on the seed.
    return [
        [Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5))) for _ in range(n)]
        for _ in range(d)
    ]


def _rational_csv(rows: list[list[Fraction]]) -> str:
    return "\n".join(",".join(f"{x.numerator}/{x.denominator}" for x in row) for row in rows) + "\n"


def _order2_closed_forms(rows) -> tuple[Fraction, Fraction]:
    """(sum_{i != l, j} b_ij^2 b_lj^2, 2 sum_ij b_ij^4): the exact order-2
    off-diagonal and diagonal trace moments."""
    sq = [[x * x for x in row] for row in rows]
    col = [sum(c) for c in zip(*sq)]
    same = sum(x * x for row in sq for x in row)
    offdiag = sum(c * c for c in col) - same
    return offdiag, 2 * same


def _edge_multiplicities(left: list[int], right: list[int]) -> dict[tuple[int, int], int]:
    """Traversals of each edge by the closed path u1 v1 u2 v2 ... vp u1."""
    p = len(left)
    mult: dict[tuple[int, int], int] = {}
    for k in range(p):
        for e in ((left[k], right[k]), (left[(k + 1) % p], right[k])):
            mult[e] = mult.get(e, 0) + 1
    return mult


def _double_factorial(k: int) -> int:
    """k!! for odd k >= -1; 0 for even k (odd multiplicities carry L = 0)."""
    return 0 if k % 2 == 0 else math.prod(range(k, 0, -2))


def _w_brute_force(rows, m2: int, m1: int, mult) -> Fraction:
    """W(s) by its definition: sum over injective label maps of prod b^k."""
    d, n = len(rows), len(rows[0])
    total = Fraction(0)
    for w in permutations(range(d), m2):
        for t in permutations(range(n), m1):
            total += math.prod(rows[w[i - 1]][t[j - 1]] ** k for (i, j), k in mult.items())
    return total


def _estimate(payload: dict, target: str) -> dict:
    return next(e for e in payload["estimates"] if e["target"] == target)


def _within_stderr(est: dict, exact: float, label: str) -> list[str]:
    if abs(est["mean"] - exact) <= MC_Z * est["stderr"]:
        return []
    return [f"{label}: {est['mean']} +- {est['stderr']} is more than {MC_Z} stderr from {exact}"]


# --- desk-bounds -----------------------------------------------------------

PARAMS_SIZE = 400           # float CSV is PARAMS_SIZE x PARAMS_SIZE
PARAMS_ZERO_SHARE = 0.15
BOUNDS_SIZE = 500           # constant family, BOUNDS_SIZE x BOUNDS_SIZE
EXAMPLES_GRID = "200x800,800x200,500x500"


def _desk_bounds(rng: np.random.Generator, workdir: Path) -> list[Job]:
    m = PARAMS_SIZE
    arr = rng.uniform(0.1, 2.0, size=(m, m))
    arr[rng.random((m, m)) < PARAMS_ZERO_SHARE] = 0.0
    csv = "\n".join(",".join(repr(float(x)) for x in row) for row in arr) + "\n"
    params_file = _write(workdir / "params.csv", csv)
    sq = arr * arr

    def check_params(env: dict) -> list[str]:
        pl = env["payload"]
        got = pl["params"]
        want = {
            "sigma_C": math.sqrt(sq.sum(axis=0).max()),
            "sigma_R": math.sqrt(sq.sum(axis=1).max()),
            "sigma_star": float(arr.max()),
        }
        out = [f"params {k}={got[k]}, expected {v}" for k, v in want.items() if not _close(got[k], v)]
        if pl["profile"] != {"d": m, "n": m, "exact": False}:
            out.append(f"params profile {pl['profile']}")
        if [s["p"] for s in pl["schatten"]] != [2, 4, 6]:
            out.append("params schatten orders")
        return out

    D = BOUNDS_SIZE
    epsilon = float(rng.uniform(0.1, 0.5))
    digest = hashlib.sha256(((",".join(["1"] * D) + "\n") * D).encode()).hexdigest()

    def check_bounds(env: dict) -> list[str]:
        pl = env["payload"]
        out = []
        P = pl["params"]
        # constant profile: sigma_tilde = sqrt(n) and sigma_inf = sqrt(n(d-1))
        beta = math.sqrt(D / (D - 1))
        for k, v in (("sigma_C", math.sqrt(D)), ("sigma_R", math.sqrt(D)), ("sigma_star", 1.0), ("beta_inf", beta)):
            if not _close(P[k], v):
                out.append(f"bounds {k}={P[k]}, expected {v}")
        reports = {r["bound_name"]: r for r in pl["reports"] if "p" not in r}
        main, lower = reports["main_upper_bound"], reports["lower_bound_opnorm"]
        if not main["total"] >= lower["total"]:
            out.append(f"main {main['total']} below lower {lower['total']}")
        want_case = "beta_le_1" if P["beta_inf"] <= 1 else "beta_gt_1"
        if main["case_taken"] != want_case:
            out.append(f"case_taken {main['case_taken']} with beta_inf {P['beta_inf']}")
        if main["constants_used"]["epsilon"] != epsilon:
            out.append("epsilon not echoed")
        if env["profile_digest"] != digest:
            out.append("profile digest differs from the constant profile's CSV")
        return out

    grid = [tuple(int(x) for x in g.split("x")) for g in EXAMPLES_GRID.split(",")]
    examples_seed = int(rng.integers(0, 2**31))

    def check_examples(env: dict) -> list[str]:
        rows = env["payload"]["grid"]
        out = []
        if [(r["d"], r["n"]) for r in rows] != grid:
            out.append("examples grid")
        for r in rows:
            lead = r["leading"]
            if not all(isinstance(v, float) and 0 < v < math.inf for v in lead.values()):
                out.append(f"examples leading terms {lead}")
                continue
            if r["case"] != ("beta_le_1" if r["beta_inf"] <= 1 else "beta_gt_1"):
                out.append(f"examples case {r['case']} with beta_inf {r['beta_inf']}")
            if not _close(r["ratios"]["main_over_chz"], lead["main_upper_bound"] / lead["chz_bound"], 1e-12):
                out.append("examples main_over_chz")
        return out

    return [
        Job("params", ("params", "--profile", params_file, "--p", "2,4,6"), check_params),
        Job("bounds", ("bounds", "--family", "constant", "--d", str(D), "--n", str(D),
                       "--p", "2,4", "--epsilon", repr(epsilon)), check_bounds),
        Job("examples", ("examples", "--family", "rank_one", "--grid", EXAMPLES_GRID,
                         "--seed", str(examples_seed)), check_examples),
    ]


# --- exact-certify ---------------------------------------------------------

VERIFY_ARGS = ("--d", "4", "--n", "4", "--pmax", "4", "--profiles", "6")
ORACLE_SIZE = 4
SHAPES_SIZE = 5
SHAPES_P6_COUNT = 247  # canonical even shapes at half-length 6
SMALL_SHAPE_LABELS = 2  # W is recomputed by brute force up to this many labels a side


def _exact_certify(rng: np.random.Generator, workdir: Path) -> list[Job]:
    verify_seed = int(rng.integers(0, 2**31))

    def check_verify(env: dict) -> list[str]:
        pl = env["payload"]
        return [] if pl["all_pass"] is True else [f"verify checks failed: {pl['checks']}"]

    oracle_rows = _rational_profile(rng, ORACLE_SIZE, ORACLE_SIZE)
    oracle_file = _write(workdir / "oracle.csv", _rational_csv(oracle_rows))
    off2, diag2 = _order2_closed_forms(oracle_rows)

    def check_oracle(env: dict) -> list[str]:
        pl = env["payload"]
        out = [f"shape sum mismatch at p={s['p']}" for s in pl["shape_sums"] if s["matches"] is not True]
        if [s["p"] for s in pl["shape_sums"]] != [2, 4]:
            out.append("oracle shape_sums orders")
        order2 = {m["kind"]: Fraction(m["exact"]) for m in pl["moments"] if m["p"] == 2}
        order2["shape_sum"] = Fraction(pl["shape_sums"][0]["exact"])
        for kind, want in (("offdiag", off2), ("diag", diag2), ("full", off2 + diag2), ("shape_sum", off2)):
            if order2.get(kind) != want:
                out.append(f"oracle {kind} p=2 is {order2.get(kind)}, expected {want}")
        return out

    shapes_rows = _rational_profile(rng, SHAPES_SIZE, SHAPES_SIZE)
    shapes_file = _write(workdir / "shapes.csv", _rational_csv(shapes_rows))

    def check_shapes(env: dict) -> list[str]:
        pl = env["payload"]
        out = []
        if pl["count"] != SHAPES_P6_COUNT or len(pl["shapes"]) != SHAPES_P6_COUNT:
            out.append(f"shape census has {pl['count']} shapes, expected {SHAPES_P6_COUNT}")
        for s in pl["shapes"]:
            mult = _edge_multiplicities(s["left_seq"], s["right_seq"])
            if s["L"] != math.prod(_double_factorial(k - 1) for k in mult.values()):
                out.append(f"L of shape {s['left_seq']}/{s['right_seq']} is {s['L']}")
            if s["m1"] <= SMALL_SHAPE_LABELS and s["m2"] <= SMALL_SHAPE_LABELS:
                want = _w_brute_force(shapes_rows, s["m2"], s["m1"], mult)
                if Fraction(s["W_exact"]) != want:
                    out.append(f"W of shape {s['left_seq']}/{s['right_seq']} is {s['W_exact']}, expected {want}")
        return out

    return [
        Job("verify", ("verify", *VERIFY_ARGS, "--seed", str(verify_seed)), check_verify),
        Job("oracle", ("oracle", "--profile", oracle_file, "--p", "2,4", "--shape-sum"), check_oracle),
        Job("shapes", ("shapes", "--p", "6", "--profile", shapes_file), check_shapes),
    ]


# --- mc-sampling -----------------------------------------------------------

TINY_PROFILE = "1,2\n3,4\n"
TINY_SCHATTEN2 = 854        # E Tr M^2 = offdiag 146 + diag 708 for [[1,2],[3,4]]
TINY_SAMPLES = 2000
WIDE_D, WIDE_N, WIDE_SAMPLES = 150, 300, 50
ANCHOR_D, ANCHOR_N, ANCHOR_SAMPLES = 20, 400, 1000


def _mc_sampling(rng: np.random.Generator, workdir: Path) -> list[Job]:
    tiny_file = _write(workdir / "tiny.csv", TINY_PROFILE)
    seeds = [str(int(s)) for s in rng.integers(0, 2**31, size=3)]

    def check_simulate(env: dict) -> list[str]:
        pl = env["payload"]
        out = _within_stderr(_estimate(pl, "schatten_trace(2)"), TINY_SCHATTEN2, "simulate")
        if not _estimate(pl, "opnorm")["mean"] > 0:
            out.append("simulate opnorm mean not positive")
        return out

    def check_wide(env: dict) -> list[str]:
        # constant profile: E Tr M^2 = d(d-1)n + 2dn
        exact = WIDE_D * WIDE_N * (WIDE_D + 1)
        return _within_stderr(_estimate(env["payload"], "schatten_trace(2)"), exact, "simulate_wide")

    anchor = 2 * math.sqrt(ANCHOR_D * ANCHOR_N) + ANCHOR_D

    def check_compare(env: dict) -> list[str]:
        mean = env["payload"]["estimate"]["mean"]
        if abs(mean - anchor) <= 0.15 * anchor:
            return []
        return [f"compare mean {mean} not within 15% of 2 sqrt(dn) + d = {anchor}"]

    return [
        Job("simulate", ("simulate", "--profile", tiny_file, "--samples", str(TINY_SAMPLES),
                         "--p", "2,4", "--seed", seeds[0]), check_simulate),
        Job("simulate_wide", ("simulate", "--family", "constant", "--d", str(WIDE_D), "--n", str(WIDE_N),
                              "--samples", str(WIDE_SAMPLES), "--p", "2,4", "--seed", seeds[1]), check_wide),
        Job("compare", ("compare", "--family", "constant", "--d", str(ANCHOR_D), "--n", str(ANCHOR_N),
                        "--samples", str(ANCHOR_SAMPLES), "--seed", seeds[2]), check_compare),
    ]


WORKLOADS = {
    "desk-bounds": _desk_bounds,
    "exact-certify": _exact_certify,
    "mc-sampling": _mc_sampling,
}


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's three jobs, with input files written under `workdir`."""
    return WORKLOADS[workload](np.random.default_rng(seed), workdir)
