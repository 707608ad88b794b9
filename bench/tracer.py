"""Per-layer tracing of covdev from outside the package.

`Tracer.install()` replaces every public function of every covdev module, in
every module namespace that bound it (including names bound with
`from ... import`), plus the `VarianceProfile` methods and
`numpy.linalg.eigvalsh`, with a wrapper that records a span: calls and self
time (the span's duration minus the time covered by its child spans).  Some
wrappers also count work from their arguments or results (cells parsed,
shapes enumerated, injective maps, oracle terms, distinct evaluations).
`uninstall()` puts the originals back.

Spans are aggregated per function as they close; `layer_metrics()` turns the
aggregates of one CLI call into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
import types

import numpy as np

import covdev
from covdev.profile import VarianceProfile

_LRU_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))
EIGVALSH = "numpy.linalg.eigvalsh"


def covdev_modules() -> list[types.ModuleType]:
    """The covdev package and every module in it."""
    mods = [covdev]
    for info in pkgutil.iter_modules(covdev.__path__):
        mods.append(importlib.import_module(f"covdev.{info.name}"))
    return mods


def is_traceable(name: str, value) -> bool:
    """A public covdev function, as bound under `name` in some namespace."""
    return (
        not name.startswith("_")
        and isinstance(value, (types.FunctionType, _LRU_TYPE))
        and getattr(value, "__module__", "").startswith("covdev")
    )


def span_key(fn) -> str:
    """'module.qualname' of a covdev function, e.g. 'params.compute_params'."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span key -> [calls, self seconds]
        self.wrappers: set[int] = set()   # ids of installed wrappers
        self.originals: dict[str, object] = {}  # span key -> wrapped function
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = [[0.0]]  # child seconds per open span
        self.reset()

    # --- counters kept from arguments and results ---------------------------

    def reset(self) -> None:
        """Zero every aggregate; call before each traced CLI call."""
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = 0.0
        self.cells_parsed = 0
        self.enumerated = 0
        self.injective_maps = 0
        self.oracle_terms = 0
        # distinct-evaluation keys; the objects are kept so ids stay unique
        self._integerized: dict[int, object] = {}
        self._param_keys: set = set()
        self._param_objs: list = []
        self._stream_keys: dict[int, tuple] = {}
        self._draws: set = set()

    def _after_load(self, a, B):
        self.cells_parsed += B.d * B.n

    def _before_integerized(self, a):
        self._integerized[id(a["self"])] = a["self"]

    def _before_params(self, a):
        self._param_objs.append(a["B"])
        self._param_keys.add((id(a["B"]), a.get("p")))

    def _after_enumerate(self, a, shapes):
        self.enumerated += len(shapes)

    def _before_w(self, a):
        s, B = a["s"], a["B"]
        if s.m2 <= B.d and s.m1 <= B.n:
            self.injective_maps += math.perm(B.d, s.m2) * math.perm(B.n, s.m1)

    def _before_path_expansion(self, a):
        B, p = a["B"], a["p"]
        self.oracle_terms += B.d**p * B.n**p

    def _before_diag(self, a):
        B, p = a["B"], a["p"]
        self.oracle_terms += B.d * math.comb(p + B.n - 1, B.n - 1)

    def _stream_made(self, a, rng):
        self._stream_keys[id(rng)] = (a["seed"], a["index"])

    def _before_draw(self, a):
        self._draws.add(self._stream_keys.get(id(a["rng"])))

    def _hooks(self) -> dict:
        """span key -> (before(bound_args), after(bound_args, result))."""
        return {
            "profile.load_profile": (None, self._after_load),
            "profile.VarianceProfile.integerized": (self._before_integerized, None),
            "params.compute_params": (self._before_params, None),
            "params.compute_schatten_params": (self._before_params, None),
            "shapes.enumerate_shapes": (None, self._after_enumerate),
            "shapes.W_value": (self._before_w, None),
            "oracle.offdiag_trace_moment": (self._before_path_expansion, None),
            "oracle.full_trace_moment": (self._before_path_expansion, None),
            "oracle.diag_trace_moment": (self._before_diag, None),
            "montecarlo.sample_stream": (None, self._stream_made),
            "montecarlo.sample_deviation": (self._before_draw, None),
        }

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0])
        self.originals[key] = fn
        stack = self._stack
        clock = time.perf_counter
        before, after = self._hooks().get(key, (None, None))
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if before is not None:
                    before(a)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
            if after is not None:
                after(a, result)
            return result

        self.wrappers.add(id(wrapper))
        return wrapper

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        made: dict[int, object] = {}
        for mod in covdev_modules():
            for name, value in list(vars(mod).items()):
                if is_traceable(name, value):
                    if id(value) not in made:
                        made[id(value)] = self._wrap(span_key(value), value)
                    self._patch(mod, name, made[id(value)])
        for name, fn in list(vars(VarianceProfile).items()):
            if isinstance(fn, types.FunctionType) and (not name.startswith("_") or name == "__post_init__"):
                self._patch(VarianceProfile, name, self._wrap(span_key(fn), fn))
        self._patch(np.linalg, "eigvalsh", self._wrap(EIGVALSH, np.linalg.eigvalsh))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- per-layer metrics --------------------------------------------------

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k][0] for k in keys if k in self.stats)

    def self_s(self, *keys: str) -> float:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def _prefixed(self, prefix: str, exclude: tuple[str, ...] = ()) -> list[str]:
        return [k for k in self.stats if k.startswith(prefix) and k not in exclude]

    def layer_metrics(self, payload_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the CLI call traced since the last reset().

        Ratios read 0 when their denominator is 0 (the layer did not run).
        """
        def ratio(num, den):
            return num / den if den else 0.0

        cp, sp = "params.compute_params", "params.compute_schatten_params"
        ceilings = ("shapes.check_opnorm_ceiling", "shapes.check_schatten_ceiling")
        oracle = ("oracle.offdiag_trace_moment", "oracle.full_trace_moment", "oracle.diag_trace_moment")
        integerized = "profile.VarianceProfile.integerized"
        return {
            "cli.self_s": self.self_s(*self._prefixed("cli.", ("cli.dumps_canonical",))),
            "cli.dumps_canonical.self_s": self.self_s("cli.dumps_canonical"),
            "cli.payload_bytes": payload_bytes,
            "profile.load_profile.self_s": self.self_s("profile.load_profile"),
            "profile.cells_parsed": self.cells_parsed,
            "profile.validate.self_s": self.self_s("profile.VarianceProfile.__post_init__"),
            "profile.generate.self_s": self.self_s("profile.generate"),
            "profile.as_array.self_s": self.self_s("profile.VarianceProfile.as_array"),
            "profile.to_csv.self_s": self.self_s("profile.VarianceProfile.to_csv"),
            "profile.integerized.calls": self.calls(integerized),
            "profile.integerized.self_s": self.self_s(integerized),
            "profile.integerized.useful_ratio": ratio(len(self._integerized), self.calls(integerized)),
            "params.compute_params.calls": self.calls(cp),
            "params.compute_params.self_s": self.self_s(cp),
            "params.compute_schatten_params.calls": self.calls(sp),
            "params.compute_schatten_params.self_s": self.self_s(sp),
            "params.useful_ratio": ratio(len(self._param_keys), self.calls(cp, sp)),
            "bounds.calls": self.calls(*self._prefixed("bounds.")),
            "bounds.self_s": self.self_s(*self._prefixed("bounds.")),
            "shapes.enumerate_shapes.self_s": self.self_s("shapes.enumerate_shapes"),
            "shapes.enumerated": self.enumerated,
            "shapes.W_value.calls": self.calls("shapes.W_value"),
            "shapes.W_value.self_s": self.self_s("shapes.W_value"),
            "shapes.W.injective_maps": self.injective_maps,
            "shapes.W.ns_per_map": 1e9 * ratio(self.self_s("shapes.W_value"), self.injective_maps),
            "shapes.ceiling.self_s": self.self_s(*ceilings),
            "oracle.offdiag.self_s": self.self_s(oracle[0]),
            "oracle.full.self_s": self.self_s(oracle[1]),
            "oracle.diag.self_s": self.self_s(oracle[2]),
            "oracle.terms": self.oracle_terms,
            "oracle.ns_per_term": 1e9 * ratio(self.self_s(*oracle), self.oracle_terms),
            "montecarlo.sample_stream.calls": self.calls("montecarlo.sample_stream"),
            "montecarlo.sample_stream.self_s": self.self_s("montecarlo.sample_stream"),
            "montecarlo.sample_deviation.self_s": self.self_s("montecarlo.sample_deviation"),
            "montecarlo.eigvalsh.calls": self.calls(EIGVALSH),
            "montecarlo.eigvalsh.self_s": self.self_s(EIGVALSH),
            "montecarlo.reduce.self_s": self.self_s(*self._prefixed("montecarlo.estimate_")),
            "montecarlo.draw_useful_ratio": ratio(len(self._draws), self.calls("montecarlo.sample_deviation")),
        }


LAYER_METRICS = tuple(Tracer().layer_metrics(0))


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ns_per_map", "ns_per_term")):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"
