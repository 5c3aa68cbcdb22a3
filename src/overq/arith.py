"""Exact integer utilities: factorization, divisors, square tests.

Everything here is deterministic trial-division arithmetic sized for desk-scale
arguments (up to ~1e8), in one place: is_prime is factor's answer.  One sieve
tabulates divisor sums for every n up to a limit at once.  No floating point.
"""

from __future__ import annotations

from array import array
from math import isqrt
from typing import Callable


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by a bytearray sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


# Wheel of precomputed small primes; trial division continues past it on demand.
_SMALL_PRIME_LIMIT = 1000
_SMALL_PRIMES: tuple[int, ...] = tuple(primes_up_to(_SMALL_PRIME_LIMIT))


def is_prime(n: int) -> bool:
    """Deterministic primality: n is prime iff factor(n) is n itself."""
    return n >= 2 and factor(n) == ((n, 1),)


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The ascending (prime, exponent) pairs of n >= 1, by trial division; () for 1."""
    if n <= 0:
        raise ValueError(f"cannot factor {n}; need n >= 1")
    entries = []
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            entries.append((p, e))
    else:
        # small primes exhausted; continue with odd candidates
        f = _SMALL_PRIME_LIMIT + 1
        while f * f <= m:
            if m % f == 0:
                e = 0
                while m % f == 0:
                    m //= f
                    e += 1
                entries.append((f, e))
            f += 2
    if m > 1:
        entries.append((m, 1))
    return tuple(entries)


def divisors(n: int) -> list[int]:
    """Ascending list of all divisors of n >= 1."""
    ds = [1]
    for p, e in factor(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def divisors_filtered(n: int, exclude_multiples_of: int = 0) -> list[int]:
    """Ascending divisors of n, dropping multiples of the filter.

    A filter of 0 means no filtering; otherwise the filter must be >= 2.
    """
    if exclude_multiples_of != 0 and exclude_multiples_of < 2:
        raise ValueError("filter must be 0 (none) or >= 2")
    ds = divisors(n)
    if exclude_multiples_of == 0:
        return ds
    return [d for d in ds if d % exclude_multiples_of != 0]


def divisor_sums(limit: int, weight: Callable[[int], int]) -> array:
    """out[n] = sum of weight(d) over the divisors d of n, for 0 <= n <= limit.

    A sieve: each d adds its weight to its multiples d, 2d, 3d, ..., about
    limit * ln(limit) additions in all; out[0] is 0.  The sums accumulate in a
    list of Python ints, which adds faster than an array that boxes every
    entry it reads, and become signed 64-bit entries at the end, so a sum
    outside that range raises OverflowError instead of wrapping.  Near 10^6
    entries the list's int objects no longer fit in cache: it then adds more
    slowly than an array would, and holds about three times the memory.
    """
    if limit < 0:
        raise ValueError(f"need limit >= 0, got {limit}")
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        w = weight(d)
        if w:
            for m in range(d, limit + 1, d):
                out[m] += w
    return array("q", out)


def is_square(n: int) -> bool:
    """True iff n = k*k for some integer k >= 0 (0 counts)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    r = isqrt(n)
    return r * r == n


def is_twice_square(n: int) -> bool:
    """True iff n = 2*k*k for some integer k >= 0 (0 counts)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n % 2 != 0:
        return False
    return is_square(n // 2)
