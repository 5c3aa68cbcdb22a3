"""Independent oracles for the test suite.

Nothing in this module touches the series machinery: overpartitions are
counted combinatorially, lattice points by literal nested loops, convolution
by the naive definition.  These are the references the fast routes are
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
    """Textbook truncated Cauchy product, the reference for every mul backend."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


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
