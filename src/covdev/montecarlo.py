"""Seeded simulation of X = B * G and its deviation matrix X X^T - E X X^T.

Each sample is one draw and one dense eigensolve: the operator norm and every
requested Schatten trace come from the same eigenvalues.  Reproducibility
contract: sample i draws from an independent Philox stream obtained by
jumping the keyed generator i times, so results do not depend on scheduling
and are identical for identical (seed, samples) on one build.  Aggregation
over samples is a fixed-order compensated sum.  Normal variates come from
numpy's ziggurat implementation; bit-equality across numpy versions or other
libraries is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundConfig, chz_bound, free_probability_bound, lower_bound_opnorm, main_upper_bound
from .profile import VarianceProfile


class EigenConvergenceError(RuntimeError):
    def __init__(self, sample_index: int, detail: str):
        super().__init__(f"eigensolver failed on sample {sample_index}: {detail}")
        self.sample_index = sample_index


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; p_list holds the even Schatten orders to estimate."""

    seed: int = 0
    samples: int = 200
    p_list: tuple[int, ...] = ()

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be >= 2 for a standard error")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        for p in self.p_list:
            if not isinstance(p, int) or p < 2 or p % 2:
                raise ValueError(f"p must be an even integer >= 2, got {p!r}")

    def to_dict(self) -> dict:
        return {"seed": self.seed, "samples": self.samples, "p_list": list(self.p_list)}


@dataclass(frozen=True)
class MomentEstimate:
    target: str  # "opnorm" | "schatten_trace(p)"
    mean: float
    stderr: float
    samples: int
    seed: int
    mean_root: float | None = None  # mean**(1/p) for Schatten targets

    def to_dict(self) -> dict:
        out = {
            "target": self.target,
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.mean_root is not None:
            out["mean_root"] = self.mean_root
        return out


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-sample stream: Philox keyed by seed, jumped index times."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(index))


def sample_deviation(B: VarianceProfile, rng: np.random.Generator) -> np.ndarray:
    """One draw of X X^T - E X X^T with X_ij = b_ij g_ij.

    E X X^T = diag(sum_j b_ij^2).  The output is assembled from one computed
    triangle, so it is exactly symmetric.
    """
    arr = B.as_array()
    g = rng.standard_normal(size=arr.shape)
    X = arr * g
    C = X @ X.T
    upper = np.triu(C, 1)
    M = upper + upper.T + np.diag(np.diagonal(C) - (arr * arr).sum(axis=1))
    return M


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    s = len(values)
    mean = math.fsum(values) / s
    var = math.fsum((x - mean) ** 2 for x in values) / (s - 1)
    return mean, math.sqrt(var) / math.sqrt(s)


def estimate_deviation(B: VarianceProfile, cfg: SimConfig) -> list[MomentEstimate]:
    """Mean and standard error of ||M|| and of Tr(M^p) for each p in
    cfg.p_list, M = X X^T - E X X^T, over cfg.samples draws.

    Each sample is drawn and decomposed once.  Returns the opnorm estimate
    followed by one schatten_trace(p) estimate per entry of cfg.p_list; those
    also report mean**(1/p).  For even p the trace is nonnegative.
    """
    rows = []
    for i in range(cfg.samples):
        M = sample_deviation(B, sample_stream(cfg.seed, i))
        try:
            vals = np.linalg.eigvalsh(M)
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(i, str(exc)) from exc
        rows.append([float(max(abs(vals[0]), abs(vals[-1])))] + [float(np.sum(vals**p)) for p in cfg.p_list])
    (mean, stderr), *traces = (_mean_stderr(col) for col in zip(*rows))
    out = [MomentEstimate(target="opnorm", mean=mean, stderr=stderr, samples=cfg.samples, seed=cfg.seed)]
    for p, (mean, stderr) in zip(cfg.p_list, traces):
        out.append(MomentEstimate(
            target=f"schatten_trace({p})", mean=mean, stderr=stderr, samples=cfg.samples,
            seed=cfg.seed, mean_root=mean ** (1.0 / p) if mean >= 0 else None,
        ))
    return out


def estimate_opnorm_deviation(B: VarianceProfile, cfg: SimConfig) -> MomentEstimate:
    """Mean and standard error of ||X X^T - E X X^T|| over cfg.samples draws."""
    return estimate_deviation(B, replace(cfg, p_list=()))[0]


def estimate_schatten_trace(B: VarianceProfile, p: int, cfg: SimConfig) -> MomentEstimate:
    """Mean of Tr(M^p) over samples, M the deviation matrix; see estimate_deviation."""
    return estimate_deviation(B, replace(cfg, p_list=(p,)))[1]


def tightness_report(B: VarianceProfile, cfg: SimConfig, bcfg: BoundConfig | None = None) -> dict:
    """Empirical deviation norm next to the lower bound and the three upper
    bounds, with the sandwich ratios.  Ratios are None when a denominator
    vanishes (all-zero profile)."""
    bcfg = bcfg or BoundConfig()
    est = estimate_opnorm_deviation(B, cfg)
    lower = lower_bound_opnorm(B)
    upper = main_upper_bound(B, bcfg)
    chz = chz_bound(B, bcfg)
    free = free_probability_bound(B, bcfg)
    emp_over_lower = est.mean / lower.total if lower.total > 0 else None
    upper_over_emp = upper.total / est.mean if est.mean > 0 else None
    return {
        "estimate": est.to_dict(),
        "bounds": {
            "lower_bound_opnorm": lower.to_dict(),
            "main_upper_bound": upper.to_dict(),
            "chz_bound": chz.to_dict(),
            "free_probability_bound": free.to_dict(),
        },
        "ratios": {
            "empirical_over_lower": emp_over_lower,
            "upper_over_empirical": upper_over_emp,
        },
    }
