import subprocess
import sys
from math import gcd

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from overq import series
from overq.series import (
    EXACT,
    NonInvertibleError,
    RingSpec,
    TruncatedSeries,
    _convolve_packed,
    _digits,
    mod_ring,
)

from oracles import naive_convolve, naive_divide, overpartitions_enumerated


def S(coeffs, ring=EXACT):
    return TruncatedSeries.make(ring, coeffs)


# -- ring spec ---------------------------------------------------------------


def test_ringspec_validation():
    assert EXACT.modulus is None and mod_ring(40).modulus == 40
    assert repr(S([1, 2], mod_ring(5))) == "TruncatedSeries(RingSpec(mod 5), order=1, [1, 2])"
    with pytest.raises(ValueError):
        RingSpec(1)


def test_modular_coefficients_must_be_canonical():
    for bad in ((1, 7), (1, -1), (-1, 1), (1, 5), (5, 0)):
        with pytest.raises(ValueError, match=r"canonical residues in \[0, 5\)"):
            TruncatedSeries(mod_ring(5), 1, bad)
    assert TruncatedSeries(mod_ring(5), 1, (0, 4)).coeffs == (0, 4)
    # make() normalizes instead
    assert TruncatedSeries.make(mod_ring(5), [1, 7]).coeffs == (1, 2)


def test_make_with_explicit_order_pads_or_cuts():
    assert TruncatedSeries.make(EXACT, [1, 2], order=4).coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries.make(EXACT, [1, 2, 3, 4], order=1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        TruncatedSeries.make(EXACT, [])
    with pytest.raises(ValueError):
        TruncatedSeries.make(EXACT, [1], order=-1)


def test_mul_rejects_ring_mismatch():
    with pytest.raises(ValueError):
        S([1]) * S([1], mod_ring(5))
    with pytest.raises(ValueError):
        S([1], mod_ring(5)) * S([1], mod_ring(7))


def test_order_zero_series_degenerate_to_scalars():
    three, four = S([3]), S([4])
    assert (three * four).coeffs == (12,)
    assert (three**3).coeffs == (27,)
    assert S([1]).inverse().coeffs == (1,)
    assert three.extract_progression(1, 0) == three
    assert three.alternate_signs() == three


# -- mul ---------------------------------------------------------------------


def test_mul_examples():
    assert (S([1, 1, 0]) * S([1, -1, 0])).coeffs == (1, 0, -1)
    s = S([2, 7, 1, 8])
    assert (s * TruncatedSeries.one(EXACT, 3)).coeffs == s.coeffs
    # (1 + q + q^2)^2 = 1 + 2q + 3q^2 + ... by hand
    assert (S([1, 1, 1]) * S([1, 1, 1])).coeffs == (1, 2, 3)


def test_mul_truncates_to_shorter_order():
    assert (S([1, 1, 1, 1]) * S([1, 1])).order == 1


def test_mul_modular_matches_exact_reduction():
    a = S(range(1, 30))
    b = S(range(5, 34))
    m = 7
    exact = (a * b).reduce_mod(m)
    modular = a.reduce_mod(m) * b.reduce_mod(m)
    assert exact == modular


def test_convolve_packed_agrees_with_naive():
    import random

    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(0, 60)
        a = [rng.randint(-(10**30), 10**30) if rng.random() < 0.6 else 0 for _ in range(n + 1)]
        b = [rng.randint(-(10**30), 10**30) if rng.random() < 0.6 else 0 for _ in range(n + 1)]
        want = naive_convolve(a, b, n)
        assert _convolve_packed(a, b, n) == want
    # every slot at its bound: n + 1 products of the largest magnitude, of either sign
    top = 2**63 - 1
    for n in (0, 1, 60, 300):
        for a, b in (([top] * (n + 1), [top] * (n + 1)), ([top] * (n + 1), [-top] * (n + 1))):
            assert _convolve_packed(a, b, n) == naive_convolve(a, b, n), n


def test_convolve_packed_slots_exactly_at_the_l1_linf_bound():
    # c_k reaches min(|a|_1 max|b|, max|a| |b|_1) when every term of it has one sign.
    # Magnitudes of all nines put that bound just under a power of ten, where a
    # slot without its margin digit overflows half its width.
    for n in (0, 1, 7, 40):
        for top in (9, 99, 5, 10**20 - 1, 3 * 10**40):
            flat = [top] * (n + 1)
            alternating = [(-1) ** i * top for i in range(n + 1)]
            ones = [1] * (n + 1)
            lone = [top] + [0] * n  # |a|_1 = max|a|: the l1 side of the bound is the smaller
            for a, b in (
                (flat, flat),
                (flat, [-x for x in flat]),
                (alternating, alternating),
                (alternating, [-x for x in alternating]),
                (flat, [-1] * (n + 1)),
                (lone, ones),
                (lone, [-1] * (n + 1)),
                ([-top] + [0] * n, ones),
            ):
                want = naive_convolve(a, b, n)
                assert max(map(abs, want)) == min(
                    sum(map(abs, a)) * max(map(abs, b)), max(map(abs, a)) * sum(map(abs, b))
                )
                assert _convolve_packed(a, b, n) == want, (n, top)
                assert _convolve_packed(b, a, n) == want, (n, top)


def test_convolve_packed_nonnegative_and_mixed_sign_paths():
    import random

    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice((0, 0, 1, 2, rng.randint(3, 80)))
        # widths that differ a lot: 1-digit against 60-digit coefficients
        wide = [rng.randint(0, 10**60) for _ in range(n + 1)]
        narrow = [rng.randint(0, 9) for _ in range(n + 1)]
        signed = [rng.randint(-(10**6), 10**6) for _ in range(n + 1)]
        for a, b in ((wide, narrow), (narrow, wide), (narrow, narrow), (wide, signed), (signed, narrow)):
            assert _convolve_packed(a, b, n) == naive_convolve(a, b, n), n
    # n = 0 is one multiply of scalars, zero and either sign included
    for x in (0, 1, -1, 7, -(10**50)):
        for y in (0, 3, -3, 10**50):
            assert _convolve_packed([x], [y], 0) == [x * y]
    # a square packs once; an equal copy gives the same as the same list
    a = [rng.randint(-(10**9), 10**9) for _ in range(30)]
    assert _convolve_packed(a, a, 29) == _convolve_packed(a, list(a), 29) == naive_convolve(a, a, 29)


def test_digit_count_from_bit_length():
    for k in range(1, 400):
        for x in (10 ** (k - 1), 10**k - 1, 2**k, 2**k - 1, 5 * 10 ** (k - 1)):
            assert _digits(x) == len(str(x)), x


def test_product_slots_past_the_int_str_limit_raise_a_clear_error():
    # a 641-digit coefficient needs 642-digit slots, which a 640-digit limit
    # refuses with overq's own message; 602-digit slots still work there
    code = (
        "from overq.series import _convolve_packed\n"
        "assert _convolve_packed([10**600], [7], 0) == [7 * 10**600]\n"
        "try:\n"
        "    _convolve_packed([10**640], [1], 0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "642-digit slots" in proc.stdout and "limit of 640 digits" in proc.stdout


def test_decimal_is_backed_by_libmpdec():
    # the pure-Python fallback (_pydecimal) would make every product quadratic
    import decimal

    assert decimal.__libmpdec_version__
    assert series.Decimal is decimal.Decimal


# -- pow ---------------------------------------------------------------------


def test_pow_examples():
    assert (S([1, 1]) ** 2).coeffs == (1, 2)
    assert (S([1, 1, 0]) ** 2).coeffs == (1, 2, 1)
    s = S([9, 2, 5])
    assert (s**0).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        s ** (-1)


def test_pow_phi_prefix_fourth_power_counts_lattice_points():
    from overq.theta import phi
    from oracles import rk_lattice_naive

    assert (phi(4) ** 4).coeffs[4] == rk_lattice_naive(4, 4) == 24


# -- inverse -----------------------------------------------------------------


def test_inverse_geometric_series():
    assert S([1, -1, 0, 0]).inverse().coeffs == (1, 1, 1, 1)
    assert TruncatedSeries.one(EXACT, 3).inverse().coeffs == (1, 0, 0, 0)


def test_inverse_of_negated_theta_counts_overpartitions():
    from overq.theta import phi

    inv = phi(4).alternate_signs().inverse()
    assert inv.coeffs == tuple(overpartitions_enumerated(n) for n in range(5))


def test_inverse_rejects_non_units():
    with pytest.raises(NonInvertibleError):
        S([2, 1]).inverse()
    with pytest.raises(NonInvertibleError):
        S([2, 1], mod_ring(40)).inverse()  # gcd(2, 40) != 1
    # but 3 is a unit mod 40
    s = S([3, 1], mod_ring(40))
    assert (s * s.inverse()).coeffs == (1, 0)


def test_division_examples():
    # (1 + q) / (1 - q) = 1 + 2q + 2q^2 + ..., through the shorter order
    assert (S([1, 1, 0, 0, 0]) / S([1, -1, 0, 0])).coeffs == (1, 2, 2, 2)
    assert (S([3, 1], mod_ring(5)) / S([2, 0, 0], mod_ring(5))).coeffs == (4, 3)


# -- substitute_power --------------------------------------------------------


def test_substitute_power_examples():
    s = TruncatedSeries.make(EXACT, [1, 1], order=10)
    out = s.substitute_power(5)
    assert out.order == 10
    assert out.coeffs == (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)
    assert s.substitute_power(1) == s
    with pytest.raises(ValueError):
        s.substitute_power(0)


def test_phi_fifth_power_is_phi_of_q5_mod_5():
    from overq.theta import phi

    ph = phi(200, mod_ring(5))
    assert ph**5 == ph.substitute_power(5)


# -- alternate_signs ---------------------------------------------------------


def test_alternate_signs_examples():
    assert S([1, 1, 1]).alternate_signs().coeffs == (1, -1, 1)
    s = S([3, 1, 4, 1, 5, 9, 2, 6])
    assert s.alternate_signs().alternate_signs() == s


def test_alternate_signs_on_overpartition_series():
    from overq.theta import overpartition_gf

    alt = overpartition_gf(3).alternate_signs()
    assert alt.coeffs == (1, -2, 4, -8)


def test_alternate_signs_modular_uses_negated_residue():
    s = S([1, 1, 1], mod_ring(9))
    assert s.alternate_signs().coeffs == (1, 8, 1)


# -- extract_progression -----------------------------------------------------


def test_extract_progression_examples():
    s = S([1, 2, 3, 4])
    assert s.extract_progression(2, 1).coeffs == (2, 4)
    assert s.extract_progression(1, 0) == s
    with pytest.raises(ValueError):
        s.extract_progression(2, 2)
    with pytest.raises(ValueError):
        S([1]).extract_progression(3, 2)  # progression starts beyond the order


def test_extract_of_theta_cube_vanishes_on_8n_plus_7():
    # three squares never sum to 7 mod 8
    from overq.theta import phi

    cube = phi(400) ** 3
    assert set(cube.extract_progression(8, 7).coeffs) == {0}
    # the 4n+3 progression does NOT vanish: r3(3) = 8
    assert cube.extract_progression(4, 3).coeffs[0] == 8


# -- reduce_mod --------------------------------------------------------------


def test_reduce_mod_examples():
    assert S([1, 8]).reduce_mod(8).coeffs == (1, 0)
    from overq.theta import phi, overpartition_gf

    assert set(phi(100).reduce_mod(2).coeffs[1:]) == {0}
    assert overpartition_gf(35).reduce_mod(40).coeffs[35] == 0


def test_reduce_mod_rejects_bad_inputs():
    with pytest.raises(ValueError):
        S([1], mod_ring(5)).reduce_mod(5)
    with pytest.raises(ValueError):
        S([1], mod_ring(360)).reduce_mod(7)
    with pytest.raises(ValueError):
        S([1]).reduce_mod(1)


# -- property tests ----------------------------------------------------------

_coeffs = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=65)
_moduli = st.sampled_from([5, 8, 9, 40])


@settings(max_examples=60)
@given(_coeffs, _coeffs, _moduli)
def test_reduce_mod_commutes_with_mul(xs, ys, m):
    a, b = S(xs), S(ys)
    assert (a * b).reduce_mod(m) == a.reduce_mod(m) * b.reduce_mod(m)


@settings(max_examples=30)
@given(_coeffs, st.integers(0, 6), _moduli)
def test_reduce_mod_commutes_with_pow(xs, e, m):
    a = S(xs)
    assert (a**e).reduce_mod(m) == a.reduce_mod(m) ** e


@settings(max_examples=60)
@given(_coeffs, _moduli)
def test_reduce_mod_through_360_equals_direct_reduction(xs, m):
    s = S(xs)
    assert s.reduce_mod(360).reduce_mod(m) == s.reduce_mod(m)


@settings(max_examples=60)
@given(_coeffs, _coeffs, _coeffs)
def test_mul_associative_and_commutative(xs, ys, zs):
    a, b, c = S(xs), S(ys), S(zs)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(st.sampled_from([1, -1]), st.lists(st.integers(-(10**6), 10**6), max_size=23))
def test_inverse_is_an_involution(c0, rest):
    a = S([c0] + rest)
    assert a.inverse().inverse() == a
    n = a.order
    assert (a * a.inverse()).coeffs == TruncatedSeries.one(EXACT, n).coeffs


# Divisors are often sparse, like the theta and pentagonal series they model.
_sparse_tail = st.lists(st.one_of(st.just(0), st.integers(-(10**6), 10**6)), max_size=40)


_DIVISION_MODULI = [None, 5, 8, 9, 40, 360]


def _ring_and_constant(unit: bool):
    """A ring drawn from EXACT and mod 5/8/9/40/360, with a constant term that is a unit or not."""

    def constants(m):
        ring = EXACT if m is None else mod_ring(m)
        pool = [c for c in range(-80, 81) if (abs(c) == 1 if m is None else gcd(c, m) == 1) == unit]
        return st.tuples(st.just(ring), st.sampled_from(pool))

    return st.sampled_from(_DIVISION_MODULI).flatmap(constants)


@settings(max_examples=60)
@given(_coeffs, _ring_and_constant(unit=True), _sparse_tail)
def test_division_times_divisor_is_dividend(xs, ring_s0, rest):
    ring, s0 = ring_s0
    a, s = S(xs, ring), S([s0] + rest, ring)
    n = min(a.order, s.order)
    quotient = a / s
    assert quotient.order == n
    product = naive_convolve(list(quotient.coeffs), list(s.coeffs), n)
    assert [ring.normalize(c) for c in product] == list(a.coeffs[: n + 1])


@settings(max_examples=40)
@given(_coeffs, _ring_and_constant(unit=False), _sparse_tail)
def test_division_by_non_unit_is_refused(xs, ring_s0, rest):
    ring, s0 = ring_s0
    with pytest.raises(NonInvertibleError):
        S(xs, ring) / S([s0] + rest, ring)


def _assert_division_matches_oracle(xs, s_coeffs, m):
    ring = EXACT if m is None else mod_ring(m)
    a, s = S(xs, ring), S(s_coeffs, ring)
    n = min(a.order, s.order)
    quotient = a / s
    assert quotient.order == n
    assert list(quotient.coeffs) == naive_divide(list(a.coeffs), list(s.coeffs), n, m)


# No shrink phase: shrinking a seeded Random against the O(n^2) oracle took
# minutes per ring on a broken division and did not make the case smaller.
@pytest.mark.parametrize("m", _DIVISION_MODULI)
@settings(max_examples=15, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    st.integers(0, 700),
    st.integers(0, 300),
    st.sampled_from([1, 2]),
    st.randoms(use_true_random=False),
)
def test_division_by_theta_shaped_series_matches_naive(m, order, terms, weight, rnd):
    # like E(q) (weight 1) and phi(-q) (weight 2): +-weight at up to 300 sparse
    # positions, so each value's gather holds many offsets
    s = [rnd.choice([1, -1])] + [0] * order
    for j in rnd.sample(range(1, order + 1), min(terms, order)):
        s[j] = rnd.choice([weight, -weight])
    xs = [rnd.randint(-(10**6), 10**6) for _ in range(max(1, order + 1 + rnd.randint(-2, 2)))]
    _assert_division_matches_oracle(xs, s, m)


@settings(max_examples=60)
@given(_coeffs, _ring_and_constant(unit=True), st.lists(st.integers(-(10**6), 10**6), max_size=80))
def test_division_by_dense_series_matches_naive(xs, ring_s0, rest):
    # dense divisors with many distinct values, one gather per value
    ring, s0 = ring_s0
    _assert_division_matches_oracle(xs, [s0] + rest, ring.modulus)


@pytest.mark.parametrize("m", _DIVISION_MODULI)
def test_division_edge_cases(m):
    ring = EXACT if m is None else mod_ring(m)
    norm = ring.normalize
    # order 0
    assert (S([7], ring) / S([-1], ring)).coeffs == (norm(-7),)
    # a divisor that is only its constant term scales the dividend
    xs = [3, 1, 4, 1, 5, 9, 2, 6]
    only_constant = TruncatedSeries.make(ring, [-1], order=7)
    assert (S(xs, ring) / only_constant).coeffs == tuple(norm(-x) for x in xs)
    # a divisor shorter than the dividend cuts the quotient at its own order
    _assert_division_matches_oracle(xs, [1, -1, 0, 2], m)


def test_division_rejects_ring_mismatch():
    with pytest.raises(ValueError):
        S([1, 2]) / S([1, 1], mod_ring(5))
    with pytest.raises(ValueError):
        S([1, 2], mod_ring(5)) / S([1, 1], mod_ring(7))
    with pytest.raises(ValueError):
        S([1, 2], mod_ring(5)) / S([1, 1])


@settings(max_examples=40)
@given(_sparse_tail, _sparse_tail, st.sampled_from([None, 5, 8, 9, 40]))
def test_mul_agrees_with_naive(xs, ys, m):
    ring = EXACT if m is None else mod_ring(m)
    a, b = S([1] + xs, ring), S([1] + ys, ring)
    n = min(a.order, b.order)
    want = naive_convolve(list(a.coeffs[: n + 1]), list(b.coeffs[: n + 1]), n)
    if m is not None:
        want = [c % m for c in want]
    assert list((a * b).coeffs) == want


@settings(max_examples=60)
@given(_coeffs, st.integers(1, 5))
def test_extracted_progressions_reassemble(xs, m):
    a = S(xs)
    rebuilt = [None] * (a.order + 1)
    for r in range(min(m, a.order + 1)):
        part = a.extract_progression(m, r)
        for j, c in enumerate(part.coeffs):
            rebuilt[m * j + r] = c
    assert tuple(rebuilt) == a.coeffs


@settings(max_examples=60)
@given(_coeffs, _coeffs, st.data())
def test_truncation_stability_of_mul(xs, ys, data):
    a, b = S(xs), S(ys)
    n = min(a.order, b.order)
    k = data.draw(st.integers(0, n))
    t = data.draw(st.integers(k, n))
    full = (a * b).coeffs[k]
    cut = (S(xs[: t + 1]) * S(ys[: t + 1])).coeffs[k]
    assert full == cut


@settings(max_examples=40)
@given(_coeffs, st.integers(1, 6))
def test_pow_matches_iterated_multiplication(xs, e):
    a = S(xs)
    by_mul = a
    for _ in range(e - 1):
        by_mul = by_mul * a
    assert a**e == by_mul
