"""Command-line front door: expand series, query r_k, run congruence sweeps.

Output is UTF-8 JSON lines on stdout (one object per line, flushed as written);
diagnostics go to stderr.  Exit codes: 0 success, 1 mathematical counterexample
or cross-check failure, 2 usage error.  Identical invocations produce
byte-identical output except for the elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .checks import REGISTRY, all_check_ids, coverage_manifest, iter_check_reports
from .reporting import Budget, summary_counts
from .series import EXACT, mod_ring
from .squares import (
    RkMethod,
    RkRequest,
    r4_formula,
    r8_formula,
    rk_bruteforce,
    rk_recursion_route,
    rk_series,
)
from .theta import SERIES_NAMES, build_named_series

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2

# --mod runs are spot-checked against an exact rebuild on indices inside this
# window; rebuilding the full exact series would defeat the flag's purpose.
_SPOT_CHECK_WINDOW = 512
_SPOT_CHECK_COUNT = 16

# The largest value each size flag accepts, by argparse dest.  max_arg, terms
# and n set a series order.  At 10^5 the slowest command, `expand hs43-rhs`,
# takes about a minute and a half on a 2-core VM with Python 3.11, and
# `verify --all` about 40 s; larger values would run on for many minutes
# instead of failing fast.  max_prime and max_alpha size the prime-power grids,
# and with them the minimal arguments p^e of skipped points, which str()
# refuses past 4,300 digits: at both caps the longest has 1,131 digits, and
# `verify --all --max-arg 100000` takes about 70 s.
SIZE_LIMITS = {
    "max_arg": 100_000,
    "terms": 100_001,
    "n": 100_000,
    "max_prime": 1_000,
    "max_alpha": 20,
}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.terms < 1:
        return _fail_usage("--terms must be >= 1")
    if args.mod is not None and args.mod < 2:
        return _fail_usage("--mod must be >= 2")
    order = args.terms - 1
    ring = mod_ring(args.mod) if args.mod is not None else EXACT
    series = build_named_series(args.series, order, ring)
    if args.mod is not None:
        # seeded sampling keeps identical invocations byte-identical
        window = min(order, _SPOT_CHECK_WINDOW)
        rng = random.Random(0x5EED)
        indices = sorted({rng.randint(0, window) for _ in range(_SPOT_CHECK_COUNT)})
        exact = build_named_series(args.series, window, EXACT)
        for i in indices:
            if exact.coeffs[i] % args.mod != series.coeffs[i]:
                print(
                    f"cross-check failure: coefficient {i} of {args.series}: "
                    f"exact {exact.coeffs[i]} !== {series.coeffs[i]} (mod {args.mod})",
                    file=sys.stderr,
                )
                return EXIT_COUNTEREXAMPLE
    for n, c in enumerate(series.coeffs):
        _emit({"n": n, "coeff": str(c)})
    return EXIT_OK


def _compute_rk(method: RkMethod, k: int, n: int) -> int:
    if method is RkMethod.SERIES:
        return rk_series(k, n).coeffs[n]
    if method is RkMethod.FORMULA:
        return r4_formula(n) if k == 4 else r8_formula(n)
    if method is RkMethod.BRUTE_FORCE:
        return rk_bruteforce(k, n)
    if method is RkMethod.RECURSION:
        return rk_recursion_route(k, n, lambda base: rk_series(k, base).coeffs[base])
    raise AssertionError(f"unhandled method {method}")


def _applicable_methods(k: int, n: int) -> list[RkMethod]:
    """Every method whose RkRequest validates for r_k(n)."""
    methods = []
    for method in RkMethod:
        try:
            RkRequest(k, n, method)
        except ValueError:
            continue
        methods.append(method)
    return methods


def _cmd_rk(args: argparse.Namespace) -> int:
    try:
        method = RkMethod(args.method)
        RkRequest(args.k, args.n, method)
    except ValueError as exc:
        return _fail_usage(str(exc))
    value = _compute_rk(method, args.k, args.n)
    if args.cross_check:
        for other in _applicable_methods(args.k, args.n):
            if other is method:
                continue
            got = _compute_rk(other, args.k, args.n)
            if got != value:
                _emit(str(value))
                print(
                    f"cross-check failure: r_{args.k}({args.n}) = {value} via {method.value} "
                    f"but {got} via {other.value}",
                    file=sys.stderr,
                )
                return EXIT_COUNTEREXAMPLE
    _emit(str(value))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all and args.checks:
        return _fail_usage("--all and --checks are mutually exclusive")
    if not args.all and not args.checks:
        return _fail_usage("select checks with --all or --checks a,b,c (see list-checks)")
    if args.all:
        ids = all_check_ids()
    else:
        ids = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in ids if c not in REGISTRY]
        if unknown:
            return _fail_usage(f"unknown checks: {', '.join(unknown)} (see list-checks)")
        if not ids:
            return _fail_usage("--checks got an empty list")
    try:
        budget = Budget(args.max_arg, args.max_prime, args.max_alpha)
    except ValueError as exc:
        return _fail_usage(str(exc))
    manifest = coverage_manifest()
    _emit({"manifest": {cid: manifest[cid] for cid in ids}})
    reports = []
    for report in iter_check_reports(ids, budget, stop_on_first=args.stop_on_first):
        reports.append(report)
        _emit(report.to_json_dict())
    counts = summary_counts(reports)
    _emit(counts)
    return EXIT_COUNTEREXAMPLE if counts["fail"] else EXIT_OK


def _cmd_list_checks(args: argparse.Namespace) -> int:
    for cid, statement in coverage_manifest().items():
        _emit({"check_id": cid, "verifies": statement})
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overq",
        description="Overpartition congruence lab: series expansion, r_k queries, theorem sweeps.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_expand = sub.add_parser("expand", help="print coefficients of a named series as JSON lines")
    p_expand.add_argument("series", choices=SERIES_NAMES)
    p_expand.add_argument("--terms", type=int, required=True, help="number of coefficients, from q^0")
    p_expand.add_argument("--mod", type=int, help="residue coefficients mod m (default: exact)")
    p_expand.set_defaults(handler=_cmd_expand)

    p_rk = sub.add_parser("rk", help="print r_k(n) computed by the requested route")
    p_rk.add_argument("--k", type=int, required=True)
    p_rk.add_argument("--n", type=int, required=True)
    p_rk.add_argument(
        "--method", required=True, choices=[m.value for m in RkMethod]
    )
    p_rk.add_argument(
        "--cross-check",
        action="store_true",
        help="also run every other applicable route; exit 1 on disagreement",
    )
    p_rk.set_defaults(handler=_cmd_rk)

    p_verify = sub.add_parser("verify", help="run congruence checks, one JSON report line each")
    p_verify.add_argument("--all", action="store_true", help="run every registered check")
    p_verify.add_argument("--checks", help="comma-separated check ids")
    p_verify.add_argument("--max-arg", type=int, default=10_000, help="budget: largest series index")
    p_verify.add_argument("--max-prime", type=int, default=23, help="budget: largest prime in grids")
    p_verify.add_argument("--max-alpha", type=int, default=3, help="budget: largest exponent parameter")
    p_verify.add_argument(
        "--stop-on-first", action="store_true", help="stop after the first failing check"
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_list = sub.add_parser("list-checks", help="enumerate check ids and what they verify")
    p_list.set_defaults(handler=_cmd_list_checks)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors on stderr itself
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for dest, limit in SIZE_LIMITS.items():
        value = getattr(args, dest, None)
        if value is not None and value > limit:
            return _fail_usage(f"--{dest.replace('_', '-')} must be <= {limit}, got {value}")
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
