"""covdev benchmark: end-to-end job times, or a traced per-layer split.

Usage, from the repository root:

    python3 bench/run.py --workload desk-bounds --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process per workload drives `covdev.cli.main(argv)` in-process, one job
after another (a closed loop with one client), with OpenBLAS pinned to one
thread.  Each job gets one untimed warm-up call; then rounds of one call per
job run until `--seconds` have passed.  Every call's output is checked (see
jobs.py) and its envelope, minus the timestamp, is hashed: a call fails when
it raises, exits nonzero, fails its check, or its digest differs from the
first call of the same job.

--trace 0 reports the end-to-end metrics: setup_s (median, over fresh
processes, of importing covdev and building the CLI parser), job1_s..job3_s
(median wall time of each job; jobs.py names them), peak_rss_mb and ok_frac
(share of calls that passed).  --trace 1 alternates untraced and traced calls
and reports, per job slot, the per-layer metrics of tracer.py (medians over
traced calls) and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# OpenBLAS reads its thread count when numpy loads, so set it before the import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import jobs as bench_jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(bench_jobs.WORKLOADS)
JOB_SLOTS = ("job1", "job2", "job3")
SETUP_PROCESSES = 7
TIMESTAMP_LINE = re.compile(r'^  "timestamp": "[^"\n]*",\n', re.M)
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import covdev.cli
covdev.cli.build_parser()
print(time.perf_counter() - t)
"""


@dataclass
class Record:
    """Every call of one job in this run."""

    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str | None = None


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """(q, value): the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def measure_setup() -> list[float]:
    """Import-and-parser time in fresh processes; the first one warms caches
    and is dropped."""
    times = []
    for _ in range(SETUP_PROCESSES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times[1:]


def call(cli, job) -> tuple[float, list[str], str | None, int]:
    """One CLI call: (seconds, problems, digest, payload bytes)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(job.argv))
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, [f"raised {exc!r}"], None, 0
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    problems = [] if status == 0 else [f"exit {status}: {err.getvalue().strip()}"]
    try:
        problems += job.check(json.loads(text))
    except Exception as exc:  # a payload of another shape fails the check
        problems.append(f"output check raised {exc!r}")
    digest = hashlib.sha256(TIMESTAMP_LINE.sub("", text, count=1).encode()).hexdigest()
    return seconds, problems, digest, len(text.encode())


def run_jobs(cli, jobs, seconds: float, tracer) -> dict[str, Record]:
    records = {job.name: Record() for job in jobs}

    def attempt(job, traced: bool) -> float:
        rec = records[job.name]
        if traced:
            tracer.reset()
        with tracer if traced else contextlib.nullcontext():
            dt, problems, digest, size = call(cli, job)
        if digest is not None and rec.digest is None:
            rec.digest = digest
        elif digest != rec.digest:
            problems.append(f"digest {digest} differs from the first call's {rec.digest}")
        rec.attempted += 1
        if problems:
            rec.failed += 1
            print(f"FAILED {job.name}: {'; '.join(problems)}", file=sys.stderr)
        if traced:
            rec.layers.append(tracer.layer_metrics(size))
        return dt

    for job in jobs:
        attempt(job, False)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for job in jobs:
            records[job.name].times.append(attempt(job, False))
            if tracer is not None:
                records[job.name].traced_times.append(attempt(job, True))
    return records


def machine_facts() -> str:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (
        f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')} ({blas_threads()} threads), "
        f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}"
    )


def blas_threads() -> str:
    """OpenBLAS's own thread count when its library can be asked, else the
    setting this benchmark exported."""
    import ctypes

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"OPENBLAS_NUM_THREADS={BLAS_THREADS}"


def run_workload(args) -> int:
    if not (SRC / "covdev" / "__init__.py").is_file():
        print(f"bench: no covdev sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # covdev loads only now, once its sources are known to be in the checkout
    import covdev.cli as cli
    import tracer as bench_tracer

    if Path(cli.__file__).resolve().parent != SRC / "covdev":
        print(f"bench: covdev imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"covdev bench: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"machine: {machine_facts()}")
    setup = [] if args.trace else measure_setup()
    workdir = ROOT / ".bench_build" / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = bench_jobs.build_jobs(args.workload, args.seed, workdir)
        tracer = bench_tracer.Tracer() if args.trace else None
        records = run_jobs(cli, jobs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for slot, job in zip(JOB_SLOTS, jobs):
        rec = records[job.name]
        med = statistics.median(rec.times)
        tail = tail_percentile(rec.times)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
        print(f"{job.name + '_s':<16} {med:.4f} s  ({slot}_s; n={len(rec.times)}, {tail_text})")
        print(f"  digest {rec.digest}  ({rec.attempted} calls, {rec.failed} failed)")
        if not args.trace:
            metrics[f"{slot}_s"] = {"value": med, "unit": "s"}
            continue
        traced = statistics.median(rec.traced_times)
        print(f"  traced median {traced:.4f} s (n={len(rec.traced_times)}), overhead {traced - med:.4f} s")
        metrics[f"{slot}.trace_overhead_s"] = {"value": traced - med, "unit": "s"}
        for name in bench_tracer.LAYER_METRICS:
            value = statistics.median(layer[name] for layer in rec.layers)
            unit = bench_tracer.metric_unit(name)
            print(f"  {slot}.{name:<40} {value:.6g} {unit}")
            metrics[f"{slot}.{name}"] = {"value": value, "unit": unit}

    attempted = sum(r.attempted for r in records.values())
    failed = sum(r.failed for r in records.values())
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        metrics["ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "frac"}
        print(f"{'setup_s':<16} {statistics.median(setup):.4f} s  (median of {len(setup)} fresh processes)")
        print(f"{'peak_rss_mb':<16} {peak_mb:.1f} MB")
        print(f"{'failed_frac':<16} {failed / attempted:g}  ({failed} of {attempted} calls; ok_frac is 1 - this)")
    print(result_line(attempted, failed, metrics))
    return 0


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    metrics, attempted, failed = {}, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(result_line(attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
