from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overq import series
from overq.series import (
    EXACT,
    NonInvertibleError,
    RingSpec,
    TruncatedSeries,
    _convolve_packed,
    _convolve_support,
    mod_ring,
)

from oracles import naive_convolve, overpartitions_enumerated


def S(coeffs, ring=EXACT):
    return TruncatedSeries.make(ring, coeffs)


# -- ring spec ---------------------------------------------------------------


def test_ringspec_validation():
    assert EXACT.kind == "exact"
    assert mod_ring(40).kind == "mod"
    with pytest.raises(ValueError):
        RingSpec(1)


def test_modular_coefficients_must_be_canonical():
    with pytest.raises(ValueError):
        TruncatedSeries(mod_ring(5), 1, (1, 7))
    # make() normalizes instead
    assert TruncatedSeries.make(mod_ring(5), [1, 7]).coeffs == (1, 2)


def test_make_with_explicit_order_pads_or_cuts():
    assert TruncatedSeries.make(EXACT, [1, 2], order=4).coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries.make(EXACT, [1, 2, 3, 4], order=1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        TruncatedSeries.make(EXACT, [])
    with pytest.raises(ValueError):
        TruncatedSeries.make(EXACT, [1], order=-1)


# -- add ---------------------------------------------------------------------


def test_add_examples():
    assert (S([1, 1]) + S([1, -1])).coeffs == (2, 0)
    s = S([3, 1, 4, 1, 5])
    assert (TruncatedSeries.make(EXACT, [0], order=2) + s).coeffs == (3, 1, 4)
    m5 = mod_ring(5)
    assert (S([3, 4], m5) + S([4, 4], m5)).coeffs == (2, 3)


def test_add_rejects_ring_mismatch():
    with pytest.raises(ValueError):
        S([1]) + S([1], mod_ring(5))
    with pytest.raises(ValueError):
        S([1]) * S([1], mod_ring(5))
    with pytest.raises(ValueError):
        S([1], mod_ring(5)) * S([1], mod_ring(7))


def test_order_zero_series_degenerate_to_scalars():
    three, four = S([3]), S([4])
    assert (three * four).coeffs == (12,)
    assert (three + four).coeffs == (7,)
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


def test_convolve_backends_agree_with_naive():
    import random

    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(0, 60)
        a = [rng.randint(-(10**30), 10**30) if rng.random() < 0.6 else 0 for _ in range(n + 1)]
        b = [rng.randint(-(10**30), 10**30) if rng.random() < 0.6 else 0 for _ in range(n + 1)]
        want = naive_convolve(a, b, n)
        assert _convolve_support(a, b, n) == want
        assert _convolve_packed(a, b, n) == want


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
        S([1]).reduce_mod(1)


# -- property tests ----------------------------------------------------------

_coeffs = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=65)
_moduli = st.sampled_from([5, 8, 9, 40])


@settings(max_examples=60)
@given(_coeffs, _coeffs, _moduli)
def test_reduce_mod_commutes_with_add_and_mul(xs, ys, m):
    a, b = S(xs), S(ys)
    assert (a + b).reduce_mod(m) == a.reduce_mod(m) + b.reduce_mod(m)
    assert (a * b).reduce_mod(m) == a.reduce_mod(m) * b.reduce_mod(m)


@settings(max_examples=30)
@given(_coeffs, st.integers(0, 6), _moduli)
def test_reduce_mod_commutes_with_pow(xs, e, m):
    a = S(xs)
    assert (a**e).reduce_mod(m) == a.reduce_mod(m) ** e


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


def _ring_and_constant(unit: bool):
    """A ring drawn from EXACT and mod 5/8/9/40, with a constant term that is a unit or not."""

    def constants(m):
        ring = EXACT if m is None else mod_ring(m)
        pool = [c for c in range(-80, 81) if (abs(c) == 1 if m is None else gcd(c, m) == 1) == unit]
        return st.tuples(st.just(ring), st.sampled_from(pool))

    return st.sampled_from([None, 5, 8, 9, 40]).flatmap(constants)


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


def test_division_rejects_ring_mismatch():
    with pytest.raises(ValueError):
        S([1, 2]) / S([1, 1], mod_ring(5))
    with pytest.raises(ValueError):
        S([1, 2], mod_ring(5)) / S([1, 1], mod_ring(7))
    with pytest.raises(ValueError):
        S([1, 2], mod_ring(5)) / S([1, 1])


@settings(max_examples=40)
@given(_sparse_tail, _sparse_tail, st.sampled_from([None, 5, 8, 9, 40]))
def test_mul_agrees_with_naive_on_both_sides_of_the_backend_boundary(xs, ys, m):
    ring = EXACT if m is None else mod_ring(m)
    a, b = S([1] + xs, ring), S([1] + ys, ring)
    n = min(a.order, b.order)
    ca, cb = list(a.coeffs[: n + 1]), list(b.coeffs[: n + 1])
    want = naive_convolve(ca, cb, n)
    if m is not None:
        want = [c % m for c in want]
    pairs = sum(1 for c in ca if c) * sum(1 for c in cb if c)
    packed_calls = []

    def recording_packed(*args):
        packed_calls.append(args)
        return _convolve_packed(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_convolve_packed", recording_packed)
        for limit, packed in ((pairs, False), (pairs - 1, True)):
            mp.setattr(series, "_SCHOOLBOOK_PAIR_LIMIT", limit)
            packed_calls.clear()
            assert list((a * b).coeffs) == want, limit
            assert bool(packed_calls) == packed, limit


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
