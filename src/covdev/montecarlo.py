"""Seeded simulation of X = B * G and its deviation matrix X X^T - E X X^T.

Each sample is one draw and one dense eigensolve: the operator norm and every
requested Schatten trace come from the same eigenvalues.  Reproducibility
contract: sample i draws from Philox keyed by the seed with i in its counter,
the same stream as the keyed generator jumped i times.  Chunks of samples are
multiplied, assembled and solved as stacks, on up to two threads, each sample
into its own slot, and aggregated by a fixed-order compensated sum: results
do not depend on the chunk size or the thread count, and are identical for
identical (seed, samples) on one build.  Normal variates come from numpy's
ziggurat; bit-equality across numpy versions or other libraries is out of scope.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .params import _check_schatten_order
from .profile import VarianceProfile

# Chunk budget, split between the threads: the bytes of the draws in flight,
# or of their d x d matrices when d > n.
_CHUNK_BYTES = 1 << 20


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
            _check_schatten_order(p)


@dataclass(frozen=True)
class MomentEstimate:
    target: str  # "opnorm" | "schatten_trace(p)"
    mean: float
    stderr: float
    samples: int
    seed: int
    mean_root: float | None = None  # mean**(1/p) for Schatten targets


def _restartable_stream(seed: int):
    """index -> the per-sample stream Philox(key=seed, counter=[0, 0, index, 0]),
    made by re-keying one generator."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = rng.bit_generator.state  # counter 0 and an empty buffer: buffer_pos 4, has_uint32 0

    def restart(index: int) -> np.random.Generator:
        state["state"]["counter"][2] = index
        rng.bit_generator.state = state
        return rng

    return restart


def _workers(d: int, n: int) -> int:
    """Threads for a d x n profile: two, CPUs allowing, in the band where that
    paid in every measured case (OpenBLAS, 2 CPUs).  Below it the GIL-held
    re-key dominates; above it BLAS threads the product or eigensolve itself."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, 2) if d <= 64 and 64 <= d * n <= 8192 else 1


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    s = len(values)
    mean = math.fsum(values) / s
    var = math.fsum((x - mean) ** 2 for x in values) / (s - 1)
    return mean, math.sqrt(var) / math.sqrt(s)


def _eigvalsh(M: np.ndarray, first: int) -> np.ndarray:
    """Eigenvalues of a stack of matrices, the first being sample `first`; a
    failed stack is re-solved one matrix at a time to name the failing sample."""
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        if M.ndim == 2:
            raise EigenConvergenceError(first, str(exc)) from exc
    return np.stack([_eigvalsh(m, first + t) for t, m in enumerate(M)])


def estimate_deviation(B: VarianceProfile, cfg: SimConfig) -> list[MomentEstimate]:
    """Mean and standard error of ||M|| and of Tr(M^p) for each p in
    cfg.p_list, M = X X^T - E X X^T, over cfg.samples draws.

    E X X^T = diag(sum_j b_ij^2).  M is the transposed product with that
    diagonal subtracted, and the eigensolver reads only its lower triangle, so
    M is taken from one computed triangle.  Returns the opnorm estimate followed
    by one schatten_trace(p) estimate per entry of cfg.p_list; those also
    report mean**(1/p).  For even p the trace is nonnegative.
    """
    arr = B.as_array()
    d, n = arr.shape
    sample_bytes = arr.itemsize * d * max(d, n)
    workers = min(_workers(d, n), math.ceil(cfg.samples / max(1, _CHUNK_BYTES // sample_bytes)))
    chunks = math.ceil(cfg.samples / max(1, _CHUNK_BYTES // workers // sample_bytes))
    expected_diag = (arr * arr).sum(axis=1)
    cols = np.empty((1 + len(cfg.p_list), cfg.samples))
    failures, lock = {}, threading.Lock()  # chunk -> its error; no worker starts a chunk past the lowest

    def solve(c: int) -> None:
        """Solve chunk c and every workers-th chunk after it into cols."""
        try:
            G = np.empty((math.ceil(cfg.samples / chunks), d, n))
            stream = _restartable_stream(cfg.seed)
            for c in range(c, chunks, workers):
                with lock:
                    if c > min(failures, default=c):
                        return
                start, stop = c * cfg.samples // chunks, (c + 1) * cfg.samples // chunks
                X = G[: stop - start]
                for t, g in enumerate(X):
                    stream(start + t).standard_normal(out=g)
                X *= arr
                M = (X @ X.transpose(0, 2, 1)).transpose(0, 2, 1)
                M[:, range(d), range(d)] -= expected_diag
                vals = _eigvalsh(M, start)
                cols[0, start:stop] = np.maximum(np.abs(vals[:, 0]), np.abs(vals[:, -1]))
                with np.errstate(over="ignore"):  # per thread: a trace past the float range is inf, unwarned
                    for row, p in zip(cols[1:], cfg.p_list):
                        row[start:stop] = np.sum(vals**p, axis=1)
        except BaseException as exc:
            with lock:
                failures[c] = exc

    threads = [threading.Thread(target=solve, args=(w,)) for w in range(1, workers)]
    for th in threads:
        th.start()
    solve(0)  # the calling thread is worker 0, and the only one for a single chunk
    for th in threads:
        th.join()
    if failures:
        raise failures[min(failures)]
    (mean, stderr), *traces = (_mean_stderr(col.tolist()) for col in cols)
    out = [MomentEstimate(target="opnorm", mean=mean, stderr=stderr, samples=cfg.samples, seed=cfg.seed)]
    for p, (mean, stderr) in zip(cfg.p_list, traces):
        out.append(MomentEstimate(
            target=f"schatten_trace({p})", mean=mean, stderr=stderr, samples=cfg.samples,
            seed=cfg.seed, mean_root=mean ** (1.0 / p) if mean >= 0 else None,
        ))
    return out
