"""Independent oracles for the test suite.

Nothing in this module touches the series machinery: overpartitions are
counted combinatorially, lattice points by literal nested loops, convolution
and division by the naive definition, the r3 / r5 recursion steps with every
constant recomputed per call.  These are the references the fast routes are
measured against.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def partitions(n: int, max_part: int | None = None):
    """Yield all partitions of n as nonincreasing tuples (literal enumeration)."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def overpartitions_enumerated(n: int) -> int:
    """Count overpartitions by enumerating partitions and their markings.

    Each partition contributes 2^(number of distinct part sizes): every size's
    first occurrence is independently overlined or not.  Only sensible for
    small n; the counting recursion below covers the larger sweeps.
    """
    return sum(2 ** len(set(p)) for p in partitions(n))


@lru_cache(maxsize=None)
def _overpartition_count(remaining: int, max_part: int) -> int:
    if remaining == 0:
        return 1
    if max_part == 0:
        return 0
    total = _overpartition_count(remaining, max_part - 1)
    used = max_part
    while used <= remaining:
        total += 2 * _overpartition_count(remaining - used, max_part - 1)
        used += max_part
    return total


def overpartitions_counted(n: int) -> int:
    """Overpartition count via recursion on (remaining, largest part).

    Using part size k a total of j >= 1 times contributes a factor 2 for the
    choice of overlining its first occurrence.  Same combinatorial model as
    the enumeration above, memoized instead of materialized.
    """
    return _overpartition_count(n, n)


def distinct_partitions_enumerated(n: int) -> int:
    """Partitions of n into distinct parts, by literal enumeration."""
    return sum(1 for p in partitions(n) if len(set(p)) == len(p))


def rk_lattice_naive(k: int, n: int) -> int:
    """Count integer k-tuples with squares summing to n by nested loops.

    Exponential in k; meant for validating the smarter enumerator on small
    arguments only.
    """
    if n == 0:
        return 1
    bound = isqrt(n)
    values = range(-bound, bound + 1)

    def count(slots: int, rem: int) -> int:
        if slots == 0:
            return 1 if rem == 0 else 0
        return sum(count(slots - 1, rem - x * x) for x in values if x * x <= rem)

    return count(k, n)


def naive_convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """Textbook truncated Cauchy product, the reference for series multiplication."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def naive_divide(a: list[int], s: list[int], n: int, m: int | None = None) -> list[int]:
    """Truncated quotient a / s by the textbook recurrence over every j, O(n^2).

    b_k = s_0^-1 (a_k - s_1 b_(k-1) - ... - s_k b_0), over Z when m is None
    (s_0 must then be +-1, its own inverse) and reduced mod m otherwise.
    """
    inv0 = s[0] if m is None else pow(s[0], -1, m)
    b: list[int] = []
    for k in range(n + 1):
        acc = inv0 * (a[k] - sum(s[j] * b[k - j] for j in range(1, k + 1)))
        b.append(acc if m is None else acc % m)
    return b


def euler_product_binomial(order: int, negated: bool) -> list[int]:
    """Product of (1 - q^k), or (1 + q^k) when negated, for k = 1..order.

    Multiplies in one binomial at a time, each step a shifted add or subtract,
    O(order^2) operations: the definition, not the pentagonal theorem.
    """
    c = [0] * (order + 1)
    c[0] = 1
    sign = 1 if negated else -1
    for k in range(1, order + 1):
        c[k:] = [x + sign * y for x, y in zip(c[k:], c[: order + 1 - k])]
    return c


def _odd_prime_or_raise(p: int) -> None:
    if p == 2 or p < 2 or any(p % f == 0 for f in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be an odd prime, got {p}")


def _legendre_euler(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def _geometric(base: int, terms: int) -> int:
    return sum(base**i for i in range(terms))


def r3_recursion_per_call(p: int, alpha: int, n: int, r3_base) -> int:
    """The r3 prime-power recursion step, every quantity recomputed on each call.

    r_3(p^(2a) n) = (S(a+1) - (-n/p) S(a)) r_3(n) - p S(a) r_3(n/p^2), with
    S(t) = 1 + p + ... + p^(t-1) and r_3(n/p^2) = 0 unless p^2 | n; the same
    checks, in the same order and with the same messages, as overq's.
    """
    _odd_prime_or_raise(p)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s_hi, s_lo = _geometric(p, alpha + 1), _geometric(p, alpha)
    if n not in r3_base:
        raise ValueError(f"missing base value r3({n})")
    quot = 0
    if alpha >= 1 and n % (p * p) == 0:
        if n // (p * p) not in r3_base:
            raise ValueError(f"missing base value r3({n // (p * p)})")
        quot = r3_base[n // (p * p)]
    return (s_hi - _legendre_euler(-n, p) * s_lo) * r3_base[n] - p * s_lo * quot


def r5_recursion_per_call(p: int, alpha: int, n: int, r5_base) -> int:
    """The r5 recursion step r_5(p^(2a) n) = (T(a+1) - p (n/p) T(a)) r_5(n), p^2 not dividing n.

    T(t) = 1 + p^3 + ... + p^(3(t-1)); recomputed on each call, checks as in overq.
    """
    _odd_prime_or_raise(p)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n % (p * p) == 0:
        raise ValueError(f"p^2 = {p * p} divides n = {n}; outside the recursion's hypothesis")
    t_hi, t_lo = _geometric(p**3, alpha + 1), _geometric(p**3, alpha)
    if n not in r5_base:
        raise ValueError(f"missing base value r5({n})")
    return (t_hi - p * _legendre_euler(n, p) * t_lo) * r5_base[n]
