from math import prod

import pytest

from overq.arith import (
    divisor_sums,
    divisors,
    divisors_filtered,
    factor,
    is_prime,
    is_square,
    is_twice_square,
    primes_up_to,
)


def test_factor_one_is_empty_product():
    assert factor(1) == ()


def test_factor_12():
    assert factor(12) == ((2, 2), (3, 1))


def test_factor_9999():
    # cross-checked by hand trial division: 9999 = 3^2 * 11 * 101
    assert factor(9999) == ((3, 2), (11, 1), (101, 1))


def test_factor_large_prime_tail():
    # the cofactor after small-prime stripping is prime and must be kept
    n = 2 * 1_000_003
    assert factor(n) == ((2, 1), (1_000_003, 1))


@pytest.mark.parametrize("bad", [0, -1, -12])
def test_factor_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        factor(bad)


def test_factor_reconstructs_everything_up_to_10000():
    for n in range(1, 10_001):
        entries = factor(n)
        assert prod(p**e for p, e in entries) == n
        primes = [p for p, _ in entries]
        assert primes == sorted(set(primes))  # strictly ascending
        assert all(is_prime(p) and e >= 1 for p, e in entries)
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == prod(e + 1 for _, e in entries)


def test_divisors_filtered_examples():
    assert divisors_filtered(12, 4) == [1, 2, 3, 6]
    assert divisors_filtered(1, 4) == [1]
    assert divisors_filtered(60, 4) == [1, 2, 3, 5, 6, 10, 15, 30]
    assert divisors_filtered(12, 0) == [1, 2, 3, 4, 6, 12]


def test_divisors_filtered_rejects_bad_inputs():
    with pytest.raises(ValueError):
        divisors_filtered(0, 4)
    with pytest.raises(ValueError):
        divisors_filtered(12, 1)


def test_divisor_sums_against_trial_division():
    weights = (lambda d: 1, lambda d: d, lambda d: -(d**3) if d % 2 else d**3, lambda d: d % 3)
    for weight in weights:
        out = divisor_sums(2000, weight)
        assert len(out) == 2001 and out[0] == 0
        for n in range(1, 2001):
            assert out[n] == sum(weight(d) for d in divisors(n)), n


def test_divisor_sums_small_limits_and_bad_input():
    assert list(divisor_sums(0, lambda d: d)) == [0]
    assert list(divisor_sums(6, lambda d: d)) == [0, 1, 3, 4, 7, 6, 12]
    with pytest.raises(ValueError):
        divisor_sums(-1, lambda d: d)


def test_divisor_sums_refuse_to_wrap_past_64_bits():
    # out[4] = 3 * 2^62 does not fit in a signed 64-bit entry
    with pytest.raises(OverflowError):
        divisor_sums(4, lambda d: 2**62)


def test_square_detection_examples():
    assert (is_square(49), is_twice_square(49)) == (True, False)
    assert (is_square(50), is_twice_square(50)) == (False, True)
    # 35 = 5 * 7 is odd and not a square, the smallest 40n+35 instance
    assert (is_square(35), is_twice_square(35)) == (False, False)
    assert (is_square(0), is_twice_square(0)) == (True, True)


def test_square_detection_rejects_negative():
    with pytest.raises(ValueError):
        is_square(-1)
    with pytest.raises(ValueError):
        is_twice_square(-4)


@pytest.mark.parametrize("limit", [0, 1, 2, 10, 99, 100, 10_000])
def test_square_counts_in_range(limit):
    from math import isqrt

    squares = sum(1 for n in range(limit + 1) if is_square(n))
    twice = sum(1 for n in range(limit + 1) if is_twice_square(n))
    assert squares == isqrt(limit) + 1
    assert twice == isqrt(limit // 2) + 1


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_up_to(5_000))
    for n in range(5_001):
        assert is_prime(n) == (n in sieve)


def test_is_prime_beyond_small_prime_wheel():
    assert is_prime(1_000_003)
    assert not is_prime(1_000_001)  # 101 * 9901
    assert not is_prime(1_018_081)  # 1009^2, just past the wheel
    assert not is_prime(1019**2)


# Past the wheel trial division steps over the odd numbers from 1001.  A step
# of 4 still visits 1009 and 1013 (1001 + 8, 1001 + 12) but skips 1019.
def test_factor_beyond_small_prime_wheel():
    assert factor(1019**2) == ((1019, 2),)
    assert factor(1013 * 1019) == ((1013, 1), (1019, 1))
    assert factor(2 * 1019**2) == ((2, 1), (1019, 2))
