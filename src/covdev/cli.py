"""Command-line front end.

Every subcommand prints one JSON report envelope on stdout; diagnostics go
to stderr.  Exit status: 0 success, 1 verification failure, 2 input or
resource error (including an eigensolver failure or running out of memory).
Floats are serialized with 17 significant digits so reports round-trip and
repeated runs with identical inputs produce byte-identical payloads (the
envelope timestamp is the only varying field).

Subcommands: params, bounds, simulate, oracle, shapes, examples, verify,
compare.  Profiles come from --profile FILE (CSV or JSON) or from
--family NAME --d D --n N with family parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__, bounds, montecarlo, oracle, shapes
from .params import compute_params, compute_schatten_params
from .profile import (
    ProfileFamily,
    ResourceLimitError,
    VarianceProfile,
    _parse_cell,
    generate,
    load_profile,
)

# --- canonical JSON ------------------------------------------------------


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """JSON with 17-significant-digit floats and insertion-ordered keys.

    Non-finite floats become the strings "inf"/"-inf"/"nan" (from the beta
    conventions, or a parameter or bound beyond the float64 range).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_repr(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, Fraction):
        return dumps_canonical(str(obj.numerator) if obj.denominator == 1 else f"{obj}")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{dumps_canonical(str(k))}: {dumps_canonical(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_canonical(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
    sub.add_argument("--profile", help="profile file (CSV, or JSON with a .json suffix)")
    sub.add_argument("--profile-format", choices=["csv", "json"], help="override format detection")
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
    fmt = args.profile_format or ("json" if args.profile.endswith(".json") else "csv")
    return load_profile(raw, format=fmt), raw


# each --family: the options it reads besides --d and --n, and its family built from them
_FAMILIES = {
    "constant": ((), lambda args: ProfileFamily.constant()),
    "iid_columns": (("b",), lambda args: ProfileFamily.iid_columns(_parse_vector(args.b))),
    "iid_rows": (("b",), lambda args: ProfileFamily.iid_rows(_parse_vector(args.b))),
    "rank_one": (("a", "b"), lambda args: ProfileFamily.rank_one(_parse_vector(args.a), _parse_vector(args.b))),
    "bounded_ratio": (("K", "profile"), lambda args: ProfileFamily.bounded_ratio(args.K, _read_profile(args)[0])),
}


def _profile_from_args(args) -> tuple[VarianceProfile, bytes]:
    """Build the profile and the bytes its digest is computed from."""
    if args.profile and not args.family:
        return _read_profile(args)
    if args.family:
        reads, build = _FAMILIES[args.family]
        if args.profile and "profile" not in reads:
            raise ValueError(f"--profile is only read as the base of --family bounded_ratio, not {args.family}")
        unread = [f"--{k}" for k in ("a", "b", "K") if getattr(args, k) is not None and k not in reads]
        if unread:
            raise ValueError(f"--family {args.family} does not read {', '.join(unread)}")
        if args.d is None or args.n is None:
            raise ValueError("--family requires --d and --n")
        if any(getattr(args, k) in (None, "") for k in reads):
            needs = " and ".join("a base --profile" if k == "profile" else f"--{k}" for k in reads)
            raise ValueError(f"{args.family} requires {needs}")
        prof = generate(build(args), args.d, args.n)
        return prof, prof.to_csv().encode()
    raise ValueError("a profile is required: --profile FILE or --family NAME --d D --n N")


# --- subcommands ----------------------------------------------------------


def cmd_params(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)
    payload = {
        "profile": {"d": B.d, "n": B.n, "exact": B.exact},
        "params": compute_params(B).to_dict(),
        "schatten": [compute_schatten_params(B, p).to_dict() for p in args.p],
    }
    return payload, raw, 0


def _branch_totals(fn, *fargs) -> dict:
    return {
        case: fn(*fargs, force_case=case).total
        for case in (bounds.CASE_LE, bounds.CASE_GT)
    }


def cmd_bounds(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)
    cfg = _bound_config(args)
    main = bounds.main_upper_bound(B, cfg)
    reports = [
        dict(main.to_dict(), branch_totals=_branch_totals(bounds.main_upper_bound, B, cfg)),
        bounds.chz_bound(B, cfg).to_dict(),
        bounds.free_probability_bound(B, cfg).to_dict(),
        bounds.lower_bound_opnorm(B).to_dict(),
        bounds.kl_comparator(B).to_dict(),
    ]
    for p in args.p:
        sch = bounds.schatten_upper_bound(B, p, cfg)
        reports.append(
            dict(sch.to_dict(), p=p, branch_totals=_branch_totals(bounds.schatten_upper_bound, B, p, cfg))
        )
        reports.append(dict(bounds.diagonal_bound(B, p, cfg).to_dict(), p=p))
        reports.append(dict(bounds.lower_bound_schatten(B, p).to_dict(), p=p))
    payload = {
        "profile": {"d": B.d, "n": B.n, "exact": B.exact},
        "params": compute_params(B).to_dict(),
        "reports": reports,
    }
    return payload, raw, 0


def cmd_simulate(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)
    cfg = montecarlo.SimConfig(seed=args.seed, samples=args.samples, p_list=tuple(args.p))
    estimates = montecarlo.estimate_deviation(B, cfg)
    payload = {"config": cfg.to_dict(), "estimates": [e.to_dict() for e in estimates]}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("target,mean,stderr,samples,seed\n")
            for e in estimates:
                fh.write(f"{e.target},{e.mean!r},{e.stderr!r},{e.samples},{e.seed}\n")
    return payload, raw, 0


def cmd_oracle(args) -> tuple[dict, bytes, int]:
    B, raw = _profile_from_args(args)

    def moment_dict(m: oracle.ExactMoment) -> dict:
        out = {"kind": m.kind, "p": m.p, "value": float(m.value)}
        if B.exact:
            out["exact"] = str(m.value)
        return out

    payload = {"profile": {"d": B.d, "n": B.n, "exact": B.exact}, "moments": [], "shape_sums": []}
    for p in args.p or [2]:
        off = oracle.offdiag_trace_moment(B, p, cap=args.cap)
        payload["moments"] += [
            moment_dict(off),
            moment_dict(oracle.diag_trace_moment(B, p, cap=args.cap)),
            moment_dict(oracle.full_trace_moment(B, p, cap=args.cap)),
        ]
        if args.shape_sum:
            sv = shapes.trace_moment_via_shapes(B, p, cap=max(p, shapes.DEFAULT_SHAPE_CAP))
            diff = sv - off.value
            entry = {
                "p": p,
                "value": float(sv),
                "difference": float(diff),
                "matches": diff == 0
                if B.exact
                else bool(abs(float(diff)) <= 1e-10 * max(1.0, abs(float(off.value)))),
            }
            if B.exact:
                entry["exact"] = str(sv)
            payload["shape_sums"].append(entry)
    if not args.shape_sum:
        del payload["shape_sums"]
    return payload, raw, 0


def cmd_shapes(args) -> tuple[dict, bytes, int]:
    B = None
    raw = None
    if args.profile or args.family:
        B, raw = _profile_from_args(args)
    census = []
    for p in args.p or [2]:
        for s in shapes.enumerate_shapes(p, cap=args.cap):
            entry = {
                "p": p,
                "left_seq": list(s.left_seq),
                "right_seq": list(s.right_seq),
                "m1": s.m1,
                "m2": s.m2,
                "multiplicities": sorted(s.edge_mult.values(), reverse=True),
                "L": shapes.L_value(s),
            }
            if B is not None:
                w = shapes.W_value(s, B)
                entry["W"] = float(w)
                if B.exact:
                    entry["W_exact"] = str(w)
            census.append(entry)
    payload = {"count": len(census), "shapes": census}
    return payload, raw, 0


def _example_profile(family: str, d: int, n: int, rng: np.random.Generator) -> VarianceProfile:
    if family == "constant":
        return generate(ProfileFamily.constant(), d, n)
    if family == "iid_columns":
        return generate(ProfileFamily.iid_columns(rng.uniform(0.5, 1.5, size=d)), d, n)
    if family == "iid_rows":
        return generate(ProfileFamily.iid_rows(rng.uniform(0.5, 1.5, size=n)), d, n)
    if family == "rank_one":
        a = rng.uniform(0.5, 1.5, size=d)
        b = rng.uniform(0.5, 1.5, size=n)
        return generate(ProfileFamily.rank_one(a, b), d, n)
    base = VarianceProfile(rng.uniform(0.5, 1.5, size=(d, n)), exact=False)
    return generate(ProfileFamily.bounded_ratio(1.0, base), d, n)


def cmd_examples(args) -> tuple[dict, bytes, int]:
    if args.family not in _FAMILIES:
        raise ValueError(f"unknown family {args.family!r}")
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
    return VarianceProfile(rows, exact=True)


def cmd_verify(args) -> tuple[dict, bytes, int]:
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
            if shapes.trace_moment_via_shapes(B, p) != oracle.offdiag_trace_moment(B, p).value:
                mism += 1
    checks.append({"name": "shape_sum_vs_oracle", "pass": mism == 0, "mismatches": mism})

    # per-shape ceilings
    fails26 = 0
    fails28 = 0
    shape_lists = {p: shapes.enumerate_shapes(p) for p in range(2, args.pmax + 1)}
    for B in profiles:
        for p, slist in shape_lists.items():
            for s in slist:
                if not shapes.check_opnorm_ceiling(s, B).holds:
                    fails26 += 1
                if p % 2 == 0 and not shapes.check_schatten_ceiling(s, B, p).holds:
                    fails28 += 1
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
            ratio = float(oracle.diag_trace_moment(B, p).value) ** (1.0 / p) / denom
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
    B, raw = _profile_from_args(args)
    cfg = montecarlo.SimConfig(seed=args.seed, samples=args.samples)
    payload = montecarlo.tightness_report(B, cfg, _bound_config(args))
    return payload, raw, 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                    help="work cap: walk nodes per off-diagonal or full moment, compositions per diagonal one")
    so.add_argument("--shape-sum", action="store_true", help="also print the shape-sum value and difference")
    so.set_defaults(fn=cmd_oracle)

    ss = subs.add_parser("shapes", help="census of canonical even shapes")
    _add_profile_args(ss)
    ss.add_argument("--p", type=_parse_int_list, default=[2])
    ss.add_argument("--cap", type=int, default=shapes.DEFAULT_SHAPE_CAP)
    ss.set_defaults(fn=cmd_shapes)

    se = subs.add_parser("examples", help="leading-term comparison over a size grid")
    se.add_argument("--family", required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, raw, status = args.fn(args)
    except (ValueError, ResourceLimitError, OSError, montecarlo.EigenConvergenceError, MemoryError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if getattr(exc, "line", None) is not None:
            err["error"]["line"] = exc.line
        print(dumps_canonical(_envelope(args.command, err, None)))
        print(f"covdev: {exc}", file=sys.stderr)
        return 2
    print(dumps_canonical(_envelope(args.command, payload, raw)))
    return status


if __name__ == "__main__":
    sys.exit(main())
