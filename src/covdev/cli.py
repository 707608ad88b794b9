"""Command-line front end.

Every subcommand prints one JSON report envelope on stdout; diagnostics go
to stderr.  Exit status: 0 success, 1 verification failure, 2 input or
resource error (including a command line the parser rejects, an eigensolver
failure, running out of memory or out of recursion depth, or a size or order
past the index range), always with a JSON error envelope, or a stdout closed
before the envelope is written.
Floats are serialized with 17 significant digits so reports round-trip and
repeated runs with identical inputs produce byte-identical payloads (the
envelope timestamp is the only varying field).  The exact engines (oracle,
shape weights and sums) return Fractions for every profile; this module
rounds each once for its report, and compares them before rounding.

Subcommands: params, bounds, simulate, oracle, shapes, examples, verify,
compare.  Profiles come from --profile FILE (JSON if its first non-blank
character is "[" or "{", else CSV, whatever its name; exact iff every cell is
an integer or "p/q") or from --family NAME --d D --n N with family parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import numpy as np

from . import __version__, bounds, montecarlo, oracle, shapes
from .params import compute_params, compute_schatten_params
from .profile import (
    ProfileDomainError,
    ResourceLimitError,
    VarianceProfile,
    _as_entry_vector,
    _float,
    _parse_cell,
    bounded_ratio,
    load_profile,
    rank_one,
)

# --- canonical JSON ------------------------------------------------------


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _fields(obj) -> dict:
    """A dataclass's fields in declaration order, a field whose value is None left out."""
    return {f.name: v for f in dataclasses.fields(obj) if (v := getattr(obj, f.name)) is not None}


_CONTROL = {c: f"\\u{c:04x}" for c in range(0x20)} | {ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}


def _string(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    if not out.isprintable():
        out = out.translate(_CONTROL).encode("utf-8", "backslashreplace").decode()
    return f'"{out}"'


def _fraction(q: Fraction) -> str:
    text = str(Decimal(q.numerator))  # through Decimal, which prints ints of any length
    if q.denominator != 1:
        text += "/" + str(Decimal(q.denominator))
    return f'"{text}"'


# exact type -> the writer of a scalar of that type, in the isinstance order of _written_as
_SCALARS = {type(None): lambda _: "null", bool: lambda b: "true" if b else "false", int: str, float: _float_repr,
            str: _string, Fraction: _fraction}
_CONTAINERS = (dict, list, tuple)


def _written_as(value) -> tuple:
    """(value, its scalar writer) for a value of no exact written type: a subclass is written as its first
    written type in isinstance order (None for a container), a dataclass as the dict of its _fields."""
    for kind in (*_SCALARS, *_CONTAINERS):
        if isinstance(value, kind):
            return value, _SCALARS.get(kind)
    if dataclasses.is_dataclass(value):
        return _fields(value), None
    raise TypeError(f"cannot serialize {type(value).__name__}")


@lru_cache(maxsize=None)
def _separators(depth: int) -> tuple[str, str, str]:
    """(before the first item, between items, before the closing bracket) in a container at this depth."""
    pad = "\n" + "  " * depth
    return pad + "  ", "," + pad + "  ", pad


def dumps_canonical(obj) -> str:
    """JSON with 17-significant-digit floats and insertion-ordered keys; a
    dataclass is written as the object of its fields, a subclass as its first
    written type, and any other type raises TypeError (see _written_as).

    Non-finite floats become the strings "inf"/"-inf"/"nan" (from the beta
    conventions, or a parameter or bound beyond the float64 range).  Strings
    escape control characters and lone surrogates (undecodable argv bytes
    become those) as \\uXXXX, so the output is JSON in strict UTF-8; every
    other character is written as is.  One loop over a stack of the open
    containers appends the text to one list, a list of exact ints as one piece.
    """
    parts = []
    stack = []  # (items, inner, close) of each open container above the current one
    items = iter([("", obj)])  # (key text, value) pairs of the current container
    sep = inner = close = ""  # before the next item, between items, and closing the current container
    while True:
        for key, value in items:
            write = _SCALARS.get(type(value))
            if write is None and type(value) not in _CONTAINERS:
                value, write = _written_as(value)
            if write is not None:
                parts.append(sep + key + write(value))
            elif not value:
                parts.append(sep + key + ("{}" if isinstance(value, dict) else "[]"))
            elif not isinstance(value, dict) and set(map(type, value)) == {int}:
                first, between, end = _separators(len(stack))
                parts.append(f"{sep}{key}[{first}{between.join(map(str, value))}{end}]")
            else:  # open the container; its items are written next
                keyed = isinstance(value, dict)
                first, between, end = _separators(len(stack))
                stack.append((items, inner, close))
                parts.append(sep + key + ("{" if keyed else "["))
                if keyed:
                    items = ((_string(str(k)) + ": ", v) for k, v in value.items())
                else:
                    items = zip(repeat(""), value)
                sep, inner, close = first, between, end + ("}" if keyed else "]")
                break
            sep = inner
        else:  # the current container is done
            if not stack:
                return "".join(parts)
            parts.append(close)
            items, inner, close = stack.pop()
            sep = inner


def _envelope(command: str, payload: dict, profile_bytes: bytes | None) -> dict:
    digest = hashlib.sha256(profile_bytes).hexdigest() if profile_bytes is not None else None
    return {
        "tool_version": __version__,
        "command": command,
        "profile_digest": digest,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
    }


# --- argument plumbing ----------------------------------------------------


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_vector(text: str) -> list:
    return [_parse_cell(tok) for tok in text.split(",") if tok.strip()]


def _add_profile_args(sub):
    sub.add_argument("--profile", help='profile file: JSON if its first non-blank character is "[" or "{", else CSV')
    sub.add_argument("--family", choices=list(_FAMILIES))
    sub.add_argument("--d", type=int, help="row count for --family")
    sub.add_argument("--n", type=int, help="column count for --family")
    sub.add_argument("--a", help="comma list, left vector for rank_one")
    sub.add_argument("--b", help="comma list, family vector (iid_columns / iid_rows / rank_one)")
    sub.add_argument("--K", type=float, help="column-norm ratio cap for bounded_ratio")


def _add_bound_args(sub):
    sub.add_argument("--epsilon", type=float, default=0.5)
    sub.add_argument("--const", type=float, default=1.0, help="stand-in for the universal constant C")
    sub.add_argument("--const-prime", type=float, default=1.0, help="stand-in for C'")
    sub.add_argument("--log-floor", action="store_true", help="floor log(n^d) at 1")


def _bound_config(args) -> bounds.BoundConfig:
    return bounds.BoundConfig(
        epsilon=args.epsilon,
        C_universal=args.const,
        C_prime=args.const_prime,
        log_floor="floored" if args.log_floor else "literal",
    )


def _read_profile(args) -> tuple[VarianceProfile, bytes]:
    with open(args.profile, "rb") as fh:
        raw = fh.read()
    return load_profile(raw), raw


# the options each --family reads besides --d and --n; a rank-one family's are (a, b), None meaning ones
_FAMILIES = {
    "constant": (None, None),
    "iid_columns": ("b", None),
    "iid_rows": (None, "b"),
    "rank_one": ("a", "b"),
    "bounded_ratio": ("K", "profile"),
}


def _check_size(d: int, n: int) -> None:
    if d < 1 or n < 1:
        raise ProfileDomainError("d and n must be positive")


def _profile_from_args(args) -> tuple[VarianceProfile, bytes]:
    """Build the profile and the bytes its digest is computed from.  A --family
    checks which options are given, then their values (vector cells parse and are
    nonnegative; K >= 1), then d and n, then the vector lengths or base size."""
    if args.profile and not args.family:
        return _read_profile(args)
    if not args.family:
        raise ValueError("a profile is required: --profile FILE or --family NAME --d D --n N")
    family, d, n = args.family, args.d, args.n
    reads = [k for k in _FAMILIES[family] if k]
    if args.profile and "profile" not in reads:
        raise ValueError(f"--profile is only read as the base of --family bounded_ratio, not {family}")
    unread = [f"--{k}" for k in ("a", "b", "K") if getattr(args, k) is not None and k not in reads]
    if unread:
        raise ValueError(f"--family {family} does not read {', '.join(unread)}")
    if d is None or n is None:
        raise ValueError("--family requires --d and --n")
    if any(getattr(args, k) in (None, "") for k in reads):
        needs = " and ".join("a base --profile" if k == "profile" else f"--{k}" for k in reads)
        raise ValueError(f"{family} requires {needs}")
    if family == "bounded_ratio":
        B = bounded_ratio(_read_profile(args)[0], args.K)
        _check_size(d, n)
        if (B.d, B.n) != (d, n):
            raise ValueError("bounded_ratio needs a base profile of matching dimensions")
    else:
        a, b = [None if k is None else _parse_vector(getattr(args, k)) for k in _FAMILIES[family]]
        a, b = [None if v is None else _as_entry_vector(v) for v in (a, b)]
        _check_size(d, n)
        a, b = (1,) * d if a is None else a, (1,) * n if b is None else b
        if (len(a), len(b)) != (d, n):
            needs = {"iid_columns": f"a length-{d} vector", "iid_rows": f"a length-{n} vector"}
            raise ValueError(f"{family} needs {needs.get(family, f'vectors of lengths {d} and {n}')}")
        B = rank_one(a, b)
    return B, B.to_csv().encode()


# --- subcommands ----------------------------------------------------------


def cmd_params(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)
    payload = {
        "profile": {"d": B.d, "n": B.n, "exact": B.exact},
        "params": compute_params(B),
        "schatten": [compute_schatten_params(B, p) for p in args.p],
    }
    return payload, raw, 0


def cmd_bounds(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)
    cfg = _bound_config(args)
    reports = [
        bounds.main_upper_bound(B, cfg),
        bounds.chz_bound(B, cfg),
        bounds.free_probability_bound(B, cfg),
        bounds.lower_bound_opnorm(B),
        bounds.kl_comparator(B),
    ]
    for p in args.p:
        reports += [bounds.schatten_upper_bound(B, p, cfg), bounds.diagonal_bound(B, p, cfg),
                    bounds.lower_bound_schatten(B, p)]
    payload = {
        "profile": {"d": B.d, "n": B.n, "exact": B.exact},
        "params": compute_params(B),
        "reports": reports,
    }
    return payload, raw, 0


def cmd_simulate(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)
    cfg = montecarlo.SimConfig(seed=args.seed, samples=args.samples, p_list=tuple(args.p))
    estimates = montecarlo.estimate_deviation(B, cfg)
    payload = {"config": cfg, "estimates": estimates}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("target,mean,stderr,samples,seed\n")
            for e in estimates:
                fh.write(f"{e.target},{e.mean!r},{e.stderr!r},{e.samples},{e.seed}\n")
    return payload, raw, 0


def cmd_oracle(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)

    def moment_dict(kind: str, p: int, value: Fraction) -> dict:
        out = {"kind": kind, "p": p, "value": _float(value)}
        if B.exact:
            out["exact"] = value
        return out

    payload = {"profile": {"d": B.d, "n": B.n, "exact": B.exact}, "moments": [], "shape_sums": []}
    for p in args.p:
        off, full = oracle.trace_moments(B, p, cap=args.cap)
        payload["moments"] += [
            moment_dict("offdiag", p, off),
            moment_dict("diag", p, oracle.diag_trace_moment(B, p, cap=args.cap)),
            moment_dict("full", p, full),
        ]
        if args.shape_sum:  # compared exactly, so a mismatch below the float resolution is caught
            sv = shapes.trace_moment_via_shapes(B, p)
            diff = sv - off
            entry = {"p": p, "value": _float(sv), "difference": _float(diff), "matches": diff == 0}
            if diff:  # its float can round to 0
                entry["difference_exact"] = diff
            if B.exact:
                entry["exact"] = sv
            payload["shape_sums"].append(entry)
    if not args.shape_sum:
        del payload["shape_sums"]
    return payload, raw, 0


def cmd_shapes(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args) if args.profile or args.family else (None, None)
    census = []
    fields = {}  # edge class -> its m1, m2, multiplicities, L and W, built at its first shape
    for p in args.p:
        for s in shapes.enumerate_shapes(p, cap=args.cap):
            c = s.edge_class
            if c not in fields:
                row = {"m1": c.m1, "m2": c.m2, "multiplicities": sorted(c.edge_mult.values(), reverse=True),
                       "L": shapes.L_value(c)}
                if B is not None:
                    w = shapes.W_value(c, B)
                    row["W"] = _float(w)
                    if B.exact:
                        row["W_exact"] = w
                fields[c] = row
            census.append({"p": p, "left_seq": list(s.left_seq), "right_seq": list(s.right_seq), **fields[c]})
    payload = {"count": len(census), "shapes": census}
    return payload, raw, 0


def _example_profile(family: str, d: int, n: int, rng: np.random.Generator) -> VarianceProfile:
    _check_size(d, n)
    if family == "bounded_ratio":
        return bounded_ratio(VarianceProfile(rng.uniform(0.5, 1.5, size=(d, n))), 1.0)
    left, right = _FAMILIES[family]
    a = rng.uniform(0.5, 1.5, size=d) if left else (1,) * d
    b = rng.uniform(0.5, 1.5, size=n) if right else (1,) * n
    return rank_one(a, b)


def cmd_examples(args) -> tuple[dict, bytes, int]:
    cfg = _bound_config(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for d, n in args.grid:
        B = _example_profile(args.family, d, n, rng)
        P = compute_params(B)
        main = bounds.main_upper_bound(B, cfg)
        chz = bounds.chz_bound(B, cfg)
        free = bounds.free_probability_bound(B, cfg)

        def ratio(x, y):
            return x / y if y > 0 else None

        rows.append({
            "d": d,
            "n": n,
            "beta_inf": P.beta_inf,
            "case": main.case_taken,
            "leading": {
                "main_upper_bound": main.leading_term,
                "chz_bound": chz.leading_term,
                "free_probability_bound": free.leading_term,
            },
            "ratios": {
                "main_over_chz": ratio(main.leading_term, chz.leading_term),
                "main_over_free": ratio(main.leading_term, free.leading_term),
                "chz_over_free": ratio(chz.leading_term, free.leading_term),
            },
        })
    payload = {"family": args.family, "seed": args.seed, "grid": rows}
    return payload, None, 0


def _random_rational_profile(rng: np.random.Generator, d: int, n: int) -> VarianceProfile:
    rows = tuple(
        tuple(Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 5))) for _ in range(n))
        for _ in range(d)
    )
    return VarianceProfile(rows)


def cmd_verify(args) -> tuple[dict, bytes, int]:
    if args.profiles < 1 or args.pmax < 1:  # a run that checks nothing must not pass
        raise ValueError("verify needs --profiles >= 1 and --pmax >= 1")
    _check_size(args.d, args.n)
    rng = np.random.default_rng(args.seed)
    profiles = [_random_rational_profile(rng, args.d, args.n) for _ in range(args.profiles)]
    checks = []

    # joint moment table: nonnegative, zero exactly at odd n or (0, 1)
    table_ok = True
    for (nn, mm), a in oracle.joint_moment_table(8, 8).items():
        expect_zero = (nn % 2 == 1) or (nn, mm) == (0, 1)
        if a < 0 or (a == 0) != expect_zero:
            table_ok = False
    checks.append({"name": "joint_moment_table", "pass": table_ok})

    # shape sum against the direct oracle, exact arithmetic
    mism = 0
    for B in profiles:
        for p in range(1, args.pmax + 1):
            if shapes.trace_moment_via_shapes(B, p) != oracle.offdiag_trace_moment(B, p):
                mism += 1
    checks.append({"name": "shape_sum_vs_oracle", "pass": mism == 0, "mismatches": mism})

    # per-shape ceilings, checked once per edge class and counted once per shape
    fails26 = 0
    fails28 = 0
    for B in profiles:
        for p in range(2, args.pmax + 1):
            for s, count in shapes.shape_classes(p):
                if not shapes.check_opnorm_ceiling(s, B).holds:
                    fails26 += count
                if p % 2 == 0 and not shapes.check_schatten_ceiling(s, B).holds:
                    fails28 += count
    checks.append({"name": "opnorm_shape_ceiling", "pass": fails26 == 0, "violations": fails26})
    checks.append({"name": "schatten_shape_ceiling", "pass": fails28 == 0, "violations": fails28})

    # two-sided order of the diagonal part
    out_of_window = 0
    for B in profiles:
        if B.is_zero:
            continue
        for p in (2, 4, 6, 8):
            Q = compute_schatten_params(B, p)
            denom = math.sqrt(p) * Q.sigma_bar_p + p * Q.b_p**2
            if denom == 0:
                continue
            ratio = float(oracle.diag_trace_moment(B, p)) ** (1.0 / p) / denom
            if not (0.1 <= ratio <= 10.0):
                out_of_window += 1
    checks.append({"name": "diag_ratio_window", "pass": out_of_window == 0, "violations": out_of_window})

    all_pass = all(c["pass"] for c in checks)
    payload = {
        "d": args.d, "n": args.n, "pmax": args.pmax, "profiles": args.profiles,
        "seed": args.seed, "checks": checks, "all_pass": all_pass,
    }
    return payload, None, 0 if all_pass else 1


def cmd_compare(args) -> tuple[dict, bytes, int]:
    """Empirical deviation norm next to the lower bound and the three upper
    bounds, with the sandwich ratios.  Ratios are None when a denominator
    vanishes (all-zero profile)."""
    B, raw = _profile_from_args(args)
    cfg = montecarlo.SimConfig(seed=args.seed, samples=args.samples)
    bcfg = _bound_config(args)
    est = montecarlo.estimate_deviation(B, cfg)[0]
    lower, upper = bounds.lower_bound_opnorm(B), bounds.main_upper_bound(B, bcfg)
    reports = (lower, upper, bounds.chz_bound(B, bcfg), bounds.free_probability_bound(B, bcfg))
    payload = {
        "estimate": est,
        "bounds": {report.bound_name: report for report in reports},
        "ratios": {
            "empirical_over_lower": est.mean / lower.total if lower.total > 0 else None,
            "upper_over_empirical": upper.total / est.mean if est.mean > 0 else None,
        },
    }
    return payload, raw, 0


# --- parser ----------------------------------------------------------------


class UsageError(ValueError):
    """A command line the parser rejects; `command` is the subcommand it named, if any."""

    def __init__(self, message: str, command: str | None):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would exit, so main can print the envelope."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message, self.get_default("command"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covdev",
        description="Deviation bounds for Gaussian sample covariance with a variance profile.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("params", help="profile parameters")
    _add_profile_args(sp)
    sp.add_argument("--p", type=_parse_int_list, default=[2], help="comma list of even Schatten orders")
    sp.set_defaults(fn=cmd_params)

    sb = subs.add_parser("bounds", help="all bound evaluators")
    _add_profile_args(sb)
    _add_bound_args(sb)
    sb.add_argument("--p", type=_parse_int_list, default=[2])
    sb.set_defaults(fn=cmd_bounds)

    sm = subs.add_parser("simulate", help="Monte Carlo deviation estimates")
    _add_profile_args(sm)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--samples", type=int, default=200)
    sm.add_argument("--p", type=_parse_int_list, default=[], help="even Schatten orders to estimate")
    sm.add_argument("--csv", help="also write estimates to this CSV file")
    sm.set_defaults(fn=cmd_simulate)

    so = subs.add_parser("oracle", help="exact trace moments")
    _add_profile_args(so)
    so.add_argument("--p", type=_parse_int_list, default=[2])
    so.add_argument("--cap", type=int, default=oracle.DEFAULT_TERM_CAP,
                    help="work cap: walk nodes per order (one walk gives the off-diagonal and full moments), "
                    "multiply-adds per diagonal moment")
    so.add_argument("--shape-sum", action="store_true", help="also print the shape-sum value and difference")
    so.set_defaults(fn=cmd_oracle)

    ss = subs.add_parser("shapes", help="census of canonical even shapes")
    _add_profile_args(ss)
    ss.add_argument("--p", type=_parse_int_list, default=[2])
    ss.add_argument("--cap", type=int, default=shapes.DEFAULT_SHAPE_CAP)
    ss.set_defaults(fn=cmd_shapes)

    se = subs.add_parser("examples", help="leading-term comparison over a size grid")
    se.add_argument("--family", choices=list(_FAMILIES), required=True)
    se.add_argument("--grid", type=_parse_grid, default=[(10, 50), (50, 10), (30, 30)],
                    help="comma list of DxN sizes, e.g. 10x50,30x30")
    se.add_argument("--seed", type=int, default=0)
    _add_bound_args(se)
    se.set_defaults(fn=cmd_examples)

    sv = subs.add_parser("verify", help="cross-check the combinatorial engine against the oracle")
    sv.add_argument("--d", type=int, default=3)
    sv.add_argument("--n", type=int, default=3)
    sv.add_argument("--pmax", type=int, default=4)
    sv.add_argument("--profiles", type=int, default=20)
    sv.add_argument("--seed", type=int, default=0)
    sv.set_defaults(fn=cmd_verify)

    sc = subs.add_parser("compare", help="simulation against the bounds (tightness table)")
    _add_profile_args(sc)
    _add_bound_args(sc)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--samples", type=int, default=200)
    sc.set_defaults(fn=cmd_compare)

    for name, sub in subs.choices.items():  # read back by _Parser.error
        sub.set_defaults(command=name)
    return parser


def _parse_grid(text: str) -> list[tuple[int, int]]:
    grid = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        d, _, n = tok.partition("x")
        grid.append((int(d), int(n)))
    return grid


def main(argv=None) -> int:
    command = None
    try:
        args, unread = build_parser().parse_known_args(argv)
        command = args.command
        if unread:
            raise UsageError(f"unrecognized arguments: {' '.join(unread)}", command)
        payload, raw, status = args.fn(args)
    except (ValueError, ResourceLimitError, OSError, montecarlo.EigenConvergenceError, MemoryError,
            RecursionError, OverflowError) as exc:
        message = str(exc) or type(exc).__name__  # a bare MemoryError() has no message
        payload, raw, status = {"error": {"type": type(exc).__name__, "message": message}}, None, 2
        if getattr(exc, "line", None) is not None:
            payload["error"]["line"] = exc.line
        command = getattr(exc, "command", command)
        print(f"covdev: {message}", file=sys.stderr)
    try:
        print(dumps_canonical(_envelope(command, payload, raw)), flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("covdev: stdout was closed before the report was written", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
