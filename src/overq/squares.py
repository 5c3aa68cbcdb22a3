"""Representation counts r_k(n): ordered integer k-tuples with squares summing to n.

Four independent routes, kept deliberately redundant so each formula stays
falsifiable against the others:

  * series: coefficient n of phi(q)^k, the canonical route;
  * closed divisor-sum formulas for k = 4 and k = 8, per n by trial division
    or for every n up to a limit by one sieve (r4_table, r8_table);
  * prime-power recursions for k = 3 and k = 5, evaluated with exact integer
    geometric sums (never by dividing powers), computed once per (p, alpha);
  * a descending-tuple lattice enumerator for oracle duty on small arguments.

ROUTES names them; route_error alone decides whether a route applies to r_k(n),
and rk_by_route computes r_k(n) by any route it admits.

Conventions: r_k(0) = 1 (the zero tuple); signs and zeros count, so r_1(4) = 2
and r_2(1) = 4.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .arith import divisor_sums, divisors, factor, is_prime
from .series import TruncatedSeries
from .theta import phi

MAX_K = 8

# Lattice-enumerator budgets; beyond these the oracle refuses rather than stall.
BRUTEFORCE_MAX_N = {1: 10_000, 2: 10_000, 3: 10_000, 4: 10_000, 5: 500, 6: 500, 7: 500, 8: 500}

# The r_k routes, in the order the CLI offers and cross-checks them.
ROUTES = ("series", "formula", "recursion", "bruteforce")


def _odd_square_factor(n: int) -> tuple[int, int] | None:
    """(p, e) for the smallest odd prime p whose square divides n >= 1, p^e || n; else None."""
    return next(((p, e) for p, e in factor(n) if p != 2 and e >= 2), None)


def route_error(route: str, k: int, n: int) -> str | None:
    """Why the route cannot compute r_k(n), or None when it can."""
    if route not in ROUTES:
        return f"unknown route {route!r}; expected one of {ROUTES}"
    if not 1 <= k <= MAX_K:
        return f"k must be in 1..{MAX_K}, got {k}"
    if n < 0:
        return f"n must be >= 0, got {n}"
    if route == "formula" and k not in (4, 8):
        return "divisor-sum formulas exist for k = 4 and k = 8 only"
    if route == "recursion" and k not in (3, 5):
        return "prime-power recursions exist for k = 3 and k = 5 only"
    if route in ("formula", "recursion") and n < 1:
        return f"the {route} route needs n >= 1, got {n}"
    if route == "recursion" and _odd_square_factor(n) is None:
        return f"the recursion route needs an odd prime square dividing n; none divides {n}"
    if route == "bruteforce" and n > BRUTEFORCE_MAX_N[k]:
        return f"n = {n} exceeds the k = {k} enumeration budget {BRUTEFORCE_MAX_N[k]}"
    return None


def _require(route: str, k: int, n: int) -> None:
    reason = route_error(route, k, n)
    if reason is not None:
        raise ValueError(reason)


def rk_by_route(route: str, k: int, n: int) -> int:
    """r_k(n) by the named route; ValueError with route_error's reason when it does not apply."""
    # each route is called by its module-level name, so a wrapper installed there sees the call
    _require(route, k, n)
    if route == "series":
        return rk_series(k, n).coeffs[n]
    if route == "formula":
        return r4_formula(n) if k == 4 else r8_formula(n)
    if route == "recursion":
        return rk_recursion_route(k, n)
    return rk_bruteforce(k, n)


def rk_series(k: int, order: int) -> TruncatedSeries:
    """phi(q)^k truncated at the given order; coefficient n is r_k(n)."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    return phi(order) ** k


# The two closed formulas, r_k(n) = scale_k(n, sum of w_k(d) over d | n):
#   r_4(n) = 8 * sum of w_4(d), with w_4(d) = d when 4 does not divide d, else 0;
#   r_8(n) = 16 * (-1)^n * sum of w_8(d), with w_8(d) = (-1)^d * d^3.
# Stated once here and shared by the per-n route and the tables.


def _r4_weight(d: int) -> int:
    return d if d % 4 != 0 else 0


def _r8_weight(d: int) -> int:
    return d**3 if d % 2 == 0 else -(d**3)


def _r4_scale(n: int, s: int) -> int:
    return 8 * s


def _r8_scale(n: int, s: int) -> int:
    return 16 * s if n % 2 == 0 else -16 * s


def r4_formula(n: int) -> int:
    """r_4(n) = 8 * sum of divisors of n not divisible by 4."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _r4_scale(n, sum(map(_r4_weight, divisors(n))))


def r8_formula(n: int) -> int:
    """r_8(n) = 16 * (-1)^n * sum over d | n of (-1)^d d^3."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _r8_scale(n, sum(map(_r8_weight, divisors(n))))


class FormulaTable:
    """r_k(n) for every 1 <= n <= limit, read from one divisor-sum sieve.

    The raw sums are stored as 64-bit integers and scaled on each read, since
    r_8 itself outgrows 64 bits sooner than its divisor sum.  Entry 0 is 0:
    like the per-n route, the table is stated for n >= 1 only.
    """

    __slots__ = ("_sums", "_scale")

    def __init__(self, limit: int, weight: Callable[[int], int], scale: Callable[[int, int], int]):
        self._sums = divisor_sums(limit, weight)
        self._scale = scale

    def __getitem__(self, n: int) -> int:
        return self._scale(n, self._sums[n])


def r4_table(limit: int) -> FormulaTable:
    """r_4(n) for 1 <= n <= limit by the sieve; entry n equals r4_formula(n)."""
    return FormulaTable(limit, _r4_weight, _r4_scale)


def r8_table(limit: int) -> FormulaTable:
    """r_8(n) for 1 <= n <= limit by the sieve; entry n equals r8_formula(n)."""
    return FormulaTable(limit, _r8_weight, _r8_scale)


@lru_cache(maxsize=64)
def _recursion_constants(k: int, p: int, alpha: int) -> tuple[Mapping[int, int], int, int]:
    """The part of an r_k recursion step (k = 3 or 5) that depends on (p, alpha) alone.

    Returns (multiplier, tail, half).  half = (p - 1) / 2 is the exponent of
    Euler's criterion: a^half mod p is 0, 1 or p - 1 as the Legendre symbol
    (a/p) is 0, 1 or -1, and multiplier maps that residue to
    G(alpha+1) - c * (a/p) * G(alpha), the factor of r_k(n).  tail = p * G(alpha)
    is the factor of r_3(n / p^2).  G(t) = 1 + x + ... + x^(t-1) is summed
    exactly by Horner's rule, with x = p, c = 1 for k = 3 and x = p^3, c = p
    for k = 5.  p is checked here, once per pair: the sweeps ask for one pair
    at many n in a row.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    x, c = (p, 1) if k == 3 else (p**3, p)
    g_lo = 0
    for _ in range(alpha):
        g_lo = g_lo * x + 1
    g_hi = g_lo * x + 1
    # read-only: the cache hands this same mapping to every caller
    multiplier = MappingProxyType({0: g_hi, 1: g_hi - c * g_lo, p - 1: g_hi + c * g_lo})
    return multiplier, p * g_lo, (p - 1) // 2


def _lookup(base: Mapping[int, int] | Sequence[int], key: int, what: str) -> int:
    try:
        return base[key]
    except (KeyError, IndexError):
        raise ValueError(f"missing base value {what}({key})") from None


def r3_recursion(p: int, alpha: int, n: int, r3_base: Mapping[int, int] | Sequence[int]) -> int:
    """r_3(p^(2*alpha) * n) from r_3(n) and r_3(n / p^2), for odd prime p.

    r_3(p^(2a) n) = (S(a+1) - (-n/p) * S(a)) * r_3(n) - p * S(a) * r_3(n/p^2)
    with S(t) = 1 + p + ... + p^(t-1), and r_3(n/p^2) taken as 0 unless p^2 | n.
    The Legendre symbol is 0 when p | n, which keeps the formula total.
    r3_base is indexed by n: a mapping, or the coefficients of the r_3 series.
    """
    multiplier, tail, half = _recursion_constants(3, p, alpha)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    r3_n = _lookup(r3_base, n, "r3")
    # the r_3(n/p^2) term only participates when its multiplier p*S(alpha) is nonzero
    r3_quot = 0
    if alpha >= 1 and n % (p * p) == 0:
        r3_quot = _lookup(r3_base, n // (p * p), "r3")
    return multiplier[pow(-n % p, half, p)] * r3_n - tail * r3_quot


def r5_recursion(p: int, alpha: int, n: int, r5_base: Mapping[int, int] | Sequence[int]) -> int:
    """r_5(p^(2*alpha) * n) from r_5(n), for odd prime p with p^2 not dividing n.

    r_5(p^(2a) n) = (T(a+1) - p * (n/p) * T(a)) * r_5(n)
    with T(t) = 1 + p^3 + ... + p^(3(t-1)); r5_base is indexed by n, as in r3_recursion.
    """
    multiplier, _, half = _recursion_constants(5, p, alpha)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n % (p * p) == 0:
        raise ValueError(f"p^2 = {p * p} divides n = {n}; outside the recursion's hypothesis")
    return multiplier[pow(n % p, half, p)] * _lookup(r5_base, n, "r5")


def rk_bruteforce(k: int, n: int) -> int:
    """Count lattice points by enumerating descending nonnegative value tuples.

    Each multiset of positive values v_1 >= ... >= v_j (j <= k slots, rest
    zeros) contributes (positions for the values) * 2^j sign patterns, so the
    enumeration touches partitions into squares rather than all of Z^k.
    Refuses what route_error rejects, including n beyond the enumeration budget.
    """
    _require("bruteforce", k, n)
    return _lattice_count(n, isqrt(n), k, {})


def rk_bruteforce_table(k: int, limit: int) -> list[int]:
    """rk_bruteforce(k, n) for 0 <= n <= limit, one enumeration memo for the whole range.

    A sweep over n meets the same (remainder, largest value, free slots)
    subproblems again and again; sharing the memo counts each of them once.
    """
    _require("bruteforce", k, limit)
    memo: dict[tuple[int, int, int], int] = {}
    return [_lattice_count(n, isqrt(n), k, memo) for n in range(limit + 1)]


def _lattice_count(rem: int, vmax: int, slots: int, memo: dict) -> int:
    """Integer vectors of length `slots` with entries in [-vmax, vmax] whose squares sum to rem."""
    if rem == 0:
        return 1
    if slots == 0 or vmax == 0:
        return 0
    if vmax * vmax * slots < rem:
        return 0
    key = (rem, vmax, slots)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = _lattice_count(rem, vmax - 1, slots, memo)
    sq = vmax * vmax
    for j in range(1, slots + 1):
        if j * sq > rem:
            break
        total += comb(slots, j) * (1 << j) * _lattice_count(rem - j * sq, vmax - 1, slots - j, memo)
    memo[key] = total
    return total


def rk_recursion_route(k: int, n: int) -> int:
    """Evaluate r_k(n) through the prime-power recursion (k = 3 or 5).

    Picks the smallest odd prime p whose square divides n, strips p^(2*alpha)
    maximally, reads the base value r_k(n0) from the series, and applies the
    recursion.  Raises ValueError when route_error rejects the route (no odd
    prime square divides n, so there is nothing to recurse on).
    """
    _require("recursion", k, n)
    p, e = _odd_square_factor(n)
    alpha = e // 2
    n0 = n // p ** (2 * alpha)
    recursion = r3_recursion if k == 3 else r5_recursion
    return recursion(p, alpha, n0, rk_series(k, n0).coeffs)
