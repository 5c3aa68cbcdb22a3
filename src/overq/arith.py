"""Exact integer utilities: factorization, divisors, Legendre symbol, square tests.

Everything here is deterministic trial-division arithmetic sized for desk-scale
arguments (up to ~1e8).  No probabilistic primality, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


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
    """Deterministic primality by trial division."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    f = _SMALL_PRIME_LIMIT + 1  # odd, since the limit is even-adjacent; 1001 is fine
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ascending (prime, exponent) pairs; empty for 1."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.entries:
            if p <= last:
                raise ValueError(f"primes must be strictly ascending, got {p} after {last}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            last = p


def factor(n: int) -> Factorization:
    """Factor n >= 1 by trial division; factor(1) has no entries."""
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
    return Factorization(tuple(entries))


def divisors(n: int) -> list[int]:
    """Ascending list of all divisors of n >= 1."""
    ds = [1]
    for p, e in factor(n).entries:
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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion.

    Returns 0 iff p | a, else +1 for quadratic residues and -1 otherwise.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


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
