"""Representation counts r_k(n): ordered integer k-tuples with squares summing to n.

Four independent routes, kept deliberately redundant so each formula stays
falsifiable against the others:

  * series: coefficient n of phi(q)^k, the canonical route;
  * closed divisor-sum formulas for k = 4 and k = 8;
  * prime-power recursions for k = 3 and k = 5, evaluated with exact integer
    geometric sums (never by dividing powers);
  * a descending-tuple lattice enumerator for oracle duty on small arguments.

Conventions: r_k(0) = 1 (the zero tuple); signs and zeros count, so r_1(4) = 2
and r_2(1) = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb, isqrt
from typing import Callable, Mapping

from .arith import divisors, divisors_filtered, factor, is_prime, legendre
from .series import EXACT, RingSpec, TruncatedSeries
from .theta import phi

MAX_K = 8

# Lattice-enumerator budgets; beyond these the oracle refuses rather than stall.
BRUTEFORCE_MAX_N = {1: 10_000, 2: 10_000, 3: 10_000, 4: 10_000, 5: 500, 6: 500, 7: 500, 8: 500}


class RkMethod(Enum):
    SERIES = "series"
    FORMULA = "formula"
    RECURSION = "recursion"
    BRUTE_FORCE = "bruteforce"


def _odd_square_factor(n: int) -> tuple[int, int] | None:
    """(p, e) for the smallest odd prime p whose square divides n >= 1, p^e || n; else None."""
    return next(((p, e) for p, e in factor(n).entries if p != 2 and e >= 2), None)


@dataclass(frozen=True)
class RkRequest:
    """One r_k(n) query; validation is the single place deciding whether a route applies."""

    k: int
    n: int
    method: RkMethod

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be in 1..{MAX_K}, got {self.k}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.method is RkMethod.FORMULA and self.k not in (4, 8):
            raise ValueError("divisor-sum formulas exist for k = 4 and k = 8 only")
        if self.method is RkMethod.RECURSION and self.k not in (3, 5):
            raise ValueError("prime-power recursions exist for k = 3 and k = 5 only")
        if self.method in (RkMethod.FORMULA, RkMethod.RECURSION) and self.n < 1:
            raise ValueError(f"the {self.method.value} route needs n >= 1, got {self.n}")
        if self.method is RkMethod.RECURSION and _odd_square_factor(self.n) is None:
            raise ValueError(
                f"the recursion route needs an odd prime square dividing n; none divides {self.n}"
            )
        if self.method is RkMethod.BRUTE_FORCE and self.n > BRUTEFORCE_MAX_N[self.k]:
            raise ValueError(
                f"n = {self.n} exceeds the k = {self.k} enumeration budget {BRUTEFORCE_MAX_N[self.k]}"
            )


def rk_series(k: int, order: int, ring: RingSpec = EXACT) -> TruncatedSeries:
    """phi(q)^k truncated at the given order; coefficient n is r_k(n)."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    return phi(order, ring) ** k


def r4_formula(n: int) -> int:
    """r_4(n) = 8 * sum of divisors of n not divisible by 4."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 8 * sum(divisors_filtered(n, 4))


def r8_formula(n: int) -> int:
    """r_8(n) = 16 * (-1)^n * sum over d | n of (-1)^d d^3."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s = sum(d**3 if d % 2 == 0 else -(d**3) for d in divisors(n))
    return 16 * s if n % 2 == 0 else -16 * s


@lru_cache(maxsize=1024)
def _geometric_sum(base: int, terms: int) -> int:
    """1 + base + ... + base^(terms-1), exactly; 0 for terms <= 0.

    Cached: the family sweeps ask for the same few (base, terms) pairs at
    every grid point.
    """
    out = 0
    power = 1
    for _ in range(terms):
        out += power
        power *= base
    return out


def _lookup(base: Mapping[int, int], key: int, what: str) -> int:
    try:
        return base[key]
    except KeyError:
        raise ValueError(f"missing base value {what}({key})") from None


def r3_recursion(p: int, alpha: int, n: int, r3_base: Mapping[int, int]) -> int:
    """r_3(p^(2*alpha) * n) from r_3(n) and r_3(n / p^2), for odd prime p.

    r_3(p^(2a) n) = (S(a+1) - (-n/p) * S(a)) * r_3(n) - p * S(a) * r_3(n/p^2)
    with S(t) = 1 + p + ... + p^(t-1), and r_3(n/p^2) taken as 0 unless p^2 | n.
    The Legendre symbol is 0 when p | n, which keeps the formula total.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s_hi = _geometric_sum(p, alpha + 1)
    s_lo = _geometric_sum(p, alpha)
    chi = legendre(-n, p)
    r3_n = _lookup(r3_base, n, "r3")
    # the r_3(n/p^2) term only participates when its multiplier p*S(alpha) is nonzero
    r3_quot = 0
    if alpha >= 1 and n % (p * p) == 0:
        r3_quot = _lookup(r3_base, n // (p * p), "r3")
    return (s_hi - chi * s_lo) * r3_n - p * s_lo * r3_quot


def r5_recursion(p: int, alpha: int, n: int, r5_base: Mapping[int, int]) -> int:
    """r_5(p^(2*alpha) * n) from r_5(n), for odd prime p with p^2 not dividing n.

    r_5(p^(2a) n) = (T(a+1) - p * (n/p) * T(a)) * r_5(n)
    with T(t) = 1 + p^3 + ... + p^(3(t-1)).
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n % (p * p) == 0:
        raise ValueError(f"p^2 = {p * p} divides n = {n}; outside the recursion's hypothesis")
    t_hi = _geometric_sum(p**3, alpha + 1)
    t_lo = _geometric_sum(p**3, alpha)
    chi = legendre(n, p)
    return (t_hi - p * chi * t_lo) * _lookup(r5_base, n, "r5")


def rk_bruteforce(k: int, n: int) -> int:
    """Count lattice points by enumerating descending nonnegative value tuples.

    Each multiset of positive values v_1 >= ... >= v_j (j <= k slots, rest
    zeros) contributes (positions for the values) * 2^j sign patterns, so the
    enumeration touches partitions into squares rather than all of Z^k.
    Refuses what RkRequest rejects, including n beyond the enumeration budget.
    """
    RkRequest(k, n, RkMethod.BRUTE_FORCE)
    if n == 0:
        return 1
    memo: dict[tuple[int, int, int], int] = {}

    def count(rem: int, vmax: int, slots: int) -> int:
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
        total = count(rem, vmax - 1, slots)
        sq = vmax * vmax
        for j in range(1, slots + 1):
            if j * sq > rem:
                break
            total += comb(slots, j) * (1 << j) * count(rem - j * sq, vmax - 1, slots - j)
        memo[key] = total
        return total

    return count(n, isqrt(n), k)


def rk_recursion_route(k: int, n: int, rk_of: Callable[[int], int]) -> int:
    """Evaluate r_k(n) through the prime-power recursion (k = 3 or 5).

    Picks the smallest odd prime p whose square divides n, strips p^(2*alpha)
    maximally, reads the base value from rk_of, and applies the recursion.
    Raises ValueError when RkRequest rejects the route (no odd prime square
    divides n, so there is nothing to recurse on).
    """
    RkRequest(k, n, RkMethod.RECURSION)
    p, e = _odd_square_factor(n)
    alpha = e // 2
    n0 = n // p ** (2 * alpha)
    base = {n0: rk_of(n0)}
    if k == 3:
        return r3_recursion(p, alpha, n0, base)
    return r5_recursion(p, alpha, n0, base)
