"""Tests of the benchmark itself: tracer coverage, traced call counts, and the
workload checks on real outputs.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import cProfile
import inspect
import io
import json
import pkgutil
import pstats
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import covdev  # noqa: E402
import covdev.cli as cli  # noqa: E402
import jobs as bench_jobs  # noqa: E402
import tracer as bench_tracer  # noqa: E402
from covdev.profile import VarianceProfile  # noqa: E402


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    assert status == 0, out.getvalue()
    return out.getvalue()


def _public_covdev_callables():
    """(owner, name, value) for every public callable covdev defines, found by
    scanning every covdev module namespace."""
    for info in pkgutil.iter_modules(covdev.__path__):
        __import__(f"covdev.{info.name}")
    for modname, mod in sorted(sys.modules.items()):
        if modname != "covdev" and not modname.startswith("covdev."):
            continue
        for name, value in vars(mod).items():
            if (
                not name.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", "").startswith("covdev")
            ):
                yield mod, name, value


def test_no_covdev_module_keeps_an_unwrapped_original():
    before = {(mod.__name__, name): value for mod, name, value in _public_covdev_callables()}
    assert before, "found no covdev functions"
    tr = bench_tracer.Tracer()
    with tr:
        unwrapped = [
            f"{mod.__name__}.{name}" for mod, name, value in _public_covdev_callables() if id(value) not in tr.wrappers
        ]
        methods = [
            name for name, value in vars(VarianceProfile).items()
            if inspect.isfunction(value) and (not name.startswith("_") or name == "__post_init__")
            and id(value) not in tr.wrappers
        ]
        assert id(np.linalg.eigvalsh) in tr.wrappers
    assert unwrapped == []
    assert methods == []
    after = {(mod.__name__, name): value for mod, name, value in _public_covdev_callables()}
    assert after == before
    assert id(np.linalg.eigvalsh) not in tr.wrappers


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture
def small_jobs(tmp_path) -> dict[str, list[str]]:
    exact = _write(tmp_path / "exact.csv", "1,2/3,3\n1/2,2,0\n4,1,1/3\n")
    floats = _write(tmp_path / "floats.csv", "0.5,1.5,0.0\n2.25,0.75,1.0\n")
    tiny = _write(tmp_path / "tiny.csv", "1,2\n3,4\n")
    return {
        "params": ["params", "--profile", floats, "--p", "2,4"],
        "bounds": ["bounds", "--family", "constant", "--d", "30", "--n", "40", "--p", "2,4"],
        "examples": ["examples", "--family", "rank_one", "--grid", "10x20,20x10"],
        "verify": ["verify", "--d", "2", "--n", "3", "--pmax", "4", "--profiles", "2"],
        "oracle": ["oracle", "--profile", exact, "--p", "2,3", "--shape-sum"],
        "shapes": ["shapes", "--p", "4", "--profile", exact],
        "simulate": ["simulate", "--profile", tiny, "--samples", "30", "--p", "2,4"],
        "compare": ["compare", "--family", "constant", "--d", "5", "--n", "20", "--samples", "20"],
    }


def _cprofile_counts(argv: list[str]) -> dict[tuple, int]:
    prof = cProfile.Profile()
    prof.enable()
    try:
        _run(argv)
    finally:
        prof.disable()
    return {key[:3]: row[1] for key, row in pstats.Stats(prof).stats.items()}


@pytest.mark.parametrize("job", ["params", "bounds", "examples", "verify", "oracle", "shapes", "simulate", "compare"])
def test_traced_call_counts_equal_cprofile(small_jobs, job):
    argv = small_jobs[job]
    profiled = _cprofile_counts(argv)
    tr = bench_tracer.Tracer()
    with tr:
        tr.reset()
        _run(argv)
    compared = 0
    for key, fn in tr.originals.items():
        if isinstance(fn, bench_tracer._LRU_TYPE):
            continue  # cProfile sees an lru_cache function only on cache misses
        code = inspect.unwrap(fn).__code__
        want = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert tr.stats[key][0] == want, key
        compared += want > 0
    assert compared >= 3


def test_shape_census_counts(tmp_path):
    argv = ["shapes", "--p", "6", "--profile", _write(tmp_path / "two.csv", "1,2\n3,4\n")]
    with bench_tracer.Tracer() as tr:
        tr.reset()
        size = len(_run(argv).encode())
    layers = tr.layer_metrics(size)
    assert layers["shapes.enumerated"] == 247
    assert layers["cli.payload_bytes"] == size


@pytest.mark.parametrize("workload", sorted(bench_jobs.WORKLOADS))
def test_workload_outputs_pass_their_checks(workload, tmp_path):
    for job in bench_jobs.build_jobs(workload, 3, tmp_path):
        assert job.check(json.loads(_run(list(job.argv)))) == [], job.name
