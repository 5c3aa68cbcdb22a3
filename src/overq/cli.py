"""Command-line front door: expand series, query r_k, run congruence sweeps.

Output is UTF-8 JSON lines on stdout, one object per line; diagnostics go to
stderr.  `verify` and `rk` flush each line as written, `expand` flushes once at
the end.  Exit codes: 0 success, 1 mathematical counterexample or cross-check
failure, 2 usage error, 141 (128 + SIGPIPE) when the reader of stdout went away.
Identical invocations produce byte-identical output except for the elapsed_ms
fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections import Counter

from .checks import REGISTRY, all_check_ids, coverage_manifest, iter_check_reports
from .reporting import Budget, summary_counts
from .series import EXACT, mod_ring
from .squares import ROUTES, rk_by_route, route_error
from .theta import SERIES_NAMES, build_named_series

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

# --mod runs are spot-checked against an exact rebuild on indices inside this
# window; rebuilding the full exact series would defeat the flag's purpose.
_SPOT_CHECK_WINDOW = 512
_SPOT_CHECK_COUNT = 16

# The largest value each size flag accepts, by argparse dest.  max_arg, terms
# and n set a series order.  At 10^5 the slowest command, `expand hs43-rhs`,
# takes 21–23 s on a 2-core VM with Python 3.11 (6.5 s with --mod 8, which
# builds in the residue ring), and `verify --all` 6–7 s; larger values would
# run on for many minutes instead of failing fast.
# max_prime and max_alpha size the prime-power grids, and with them the
# minimal arguments p^e of skipped points, which str() refuses past 4,300
# digits: at both caps the longest has 1,131 digits, and
# `verify --all --max-arg 100000` takes about 15 s.  Series products check
# their decimal slot width against the same limit; at 10^5 the widest slot
# has 13 digits.
# mod sets the slot width of a residue product, about twice its digits, and a
# modulus past about 2,150 digits is refused by the product itself.  At the
# cap, `expand hs43-rhs --terms 20001` takes 1.5–1.6 s, and 1.5–1.9 s exact.
SIZE_LIMITS = {
    "max_arg": 100_000,
    "terms": 100_001,
    "n": 100_000,
    "max_prime": 1_000,
    "max_alpha": 20,
    "mod": 10**18,
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
    # the bytes of json.dumps({"n": n, "coeff": str(c)}): str(int) is digits and "-"
    sys.stdout.writelines(f'{{"n": {n}, "coeff": "{c}"}}\n' for n, c in enumerate(series.coeffs))
    sys.stdout.flush()
    return EXIT_OK


def _cmd_rk(args: argparse.Namespace) -> int:
    k, n, route = args.k, args.n, args.method
    reason = route_error(route, k, n)
    if reason is not None:
        return _fail_usage(reason)
    value = rk_by_route(route, k, n)
    _emit(str(value))
    if args.cross_check:
        for other in ROUTES:
            if other == route or route_error(other, k, n) is not None:
                continue
            got = rk_by_route(other, k, n)
            if got != value:
                print(
                    f"cross-check failure: r_{k}({n}) = {value} via {route} but {got} via {other}",
                    file=sys.stderr,
                )
                return EXIT_COUNTEREXAMPLE
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
        duplicates = [c for c, count in Counter(ids).items() if count > 1]
        if duplicates:
            return _fail_usage(f"duplicate checks: {', '.join(duplicates)}")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="overq",
        description="Overpartition congruence lab: series expansion, r_k queries, theorem sweeps.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_expand = sub.add_parser("expand", help="print coefficients of a named series as JSON lines")
    p_expand.add_argument("series", choices=SERIES_NAMES)
    p_expand.add_argument(
        "--terms", type=int, required=True, help="number of coefficients, from q^0"
    )
    p_expand.add_argument("--mod", type=int, help="residue coefficients mod m (default: exact)")
    p_expand.set_defaults(handler=_cmd_expand)

    p_rk = sub.add_parser("rk", help="print r_k(n) computed by the requested route")
    p_rk.add_argument("--k", type=int, required=True)
    p_rk.add_argument("--n", type=int, required=True)
    p_rk.add_argument("--method", required=True, choices=ROUTES)
    p_rk.add_argument(
        "--cross-check",
        action="store_true",
        help="also run every other applicable route; exit 1 on disagreement",
    )
    p_rk.set_defaults(handler=_cmd_rk)

    p_verify = sub.add_parser("verify", help="run congruence checks, one JSON report line each")
    p_verify.add_argument("--all", action="store_true", help="run every registered check")
    p_verify.add_argument("--checks", help="comma-separated check ids")
    for flag, default, bound in (
        ("--max-arg", 10_000, "largest series index"),
        ("--max-prime", 23, "largest prime in grids"),
        ("--max-alpha", 3, "largest exponent parameter"),
    ):
        p_verify.add_argument(flag, type=int, default=default, help=f"budget: {bound}")
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
    try:
        return args.handler(args)
    except BrokenPipeError:
        # stdout's reader is gone; aim the interpreter's final flush at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
