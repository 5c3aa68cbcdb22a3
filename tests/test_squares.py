from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overq.squares import (
    BRUTEFORCE_MAX_N,
    ROUTES,
    r3_recursion,
    r4_formula,
    r4_table,
    r5_recursion,
    r8_formula,
    r8_table,
    rk_bruteforce,
    rk_bruteforce_table,
    rk_by_route,
    rk_recursion_route,
    rk_series,
    route_error,
)

from oracles import r3_recursion_per_call, r5_recursion_per_call, rk_lattice_naive


# -- route table ---------------------------------------------------------------


def test_route_error_validation():
    assert route_error("formula", 4, 10) is None
    assert route_error("recursion", 3, 45) is None
    assert rk_by_route("formula", 4, 10) == 144
    assert rk_by_route("recursion", 3, 45) == rk_series(3, 45).coeffs[45]
    rejected = [
        ("recursion", 3, 10),  # no odd prime square divides 10
        ("formula", 4, 0),
        ("bruteforce", 8, BRUTEFORCE_MAX_N[8] + 1),
        ("formula", 3, 10),
        ("recursion", 4, 10),
        ("series", 9, 10),
        ("series", 4, -1),
    ]
    for route, k, n in rejected:
        reason = route_error(route, k, n)
        assert reason, (route, k, n)
        with pytest.raises(ValueError) as exc:
            rk_by_route(route, k, n)
        assert str(exc.value) == reason
    with pytest.raises(ValueError) as exc:
        rk_by_route("bogus", 4, 1)
    assert all(route in str(exc.value) for route in ROUTES)


def test_route_error_messages_and_budget_bounds():
    assert route_error("series", 0, 1) == "k must be in 1..8, got 0"
    assert route_error("series", 1, -1) == "n must be >= 0, got -1"
    assert route_error("formula", 5, 1) == "divisor-sum formulas exist for k = 4 and k = 8 only"
    assert route_error("recursion", 4, 9) == "prime-power recursions exist for k = 3 and k = 5 only"
    assert route_error("formula", 8, 0) == "the formula route needs n >= 1, got 0"
    assert route_error("recursion", 5, 0) == "the recursion route needs n >= 1, got 0"
    assert route_error("recursion", 3, 4) == (
        "the recursion route needs an odd prime square dividing n; none divides 4"
    )
    assert route_error("bruteforce", 5, 501) == "n = 501 exceeds the k = 5 enumeration budget 500"
    assert route_error("bruteforce", 5, 500) is None
    assert route_error("bruteforce", 4, 10_000) is None
    assert route_error("bruteforce", 4, 10_001) == (
        "n = 10001 exceeds the k = 4 enumeration budget 10000"
    )


# -- series route ----------------------------------------------------------------


def test_rk_series_k1_marks_squares():
    s = rk_series(1, 50)
    for n in range(51):
        expected = 1 if n == 0 else (2 if int(n**0.5) ** 2 == n else 0)
        assert s.coeffs[n] == expected


def test_rk_series_r3_vanishes_at_7():
    assert rk_series(3, 7).coeffs[7] == 0


def test_rk_series_r4_at_2():
    # (+-1, +-1, 0, 0) in some order: 4 sign patterns x 6 position pairs
    assert rk_series(4, 2).coeffs[2] == 24 == rk_lattice_naive(4, 2)


def test_rk_series_rejects_bad_k():
    with pytest.raises(ValueError):
        rk_series(0, 10)
    with pytest.raises(ValueError):
        rk_series(9, 10)


# -- closed formulas -------------------------------------------------------------


def test_r4_formula_examples():
    assert r4_formula(1) == 8 == rk_lattice_naive(4, 1)
    assert r4_formula(4) == 24 == rk_lattice_naive(4, 4)
    assert r4_formula(12) == 96 == rk_lattice_naive(4, 12)


def test_r8_formula_examples():
    assert r8_formula(1) == 16
    assert r8_formula(2) == 112
    assert r8_formula(2) == rk_bruteforce(8, 2)


def test_r8_scaling_mod_27_at_5():
    assert (r8_formula(15) - r8_formula(5)) % 27 == 0


def test_formulas_reject_nonpositive():
    with pytest.raises(ValueError):
        r4_formula(0)
    with pytest.raises(ValueError):
        r8_formula(-3)


# -- sieve tables ------------------------------------------------------------------

# lemma-r48-scaling at the default budget reads the tables up to 1000 * 23
TABLE_LIMIT = 23_000


@lru_cache(maxsize=None)
def _per_n_formulas() -> tuple[list[int], list[int]]:
    """r4_formula(n) and r8_formula(n) for 1 <= n <= TABLE_LIMIT, index n (entry 0 unused)."""
    r4 = [0] + [r4_formula(n) for n in range(1, TABLE_LIMIT + 1)]
    r8 = [0] + [r8_formula(n) for n in range(1, TABLE_LIMIT + 1)]
    return r4, r8


def test_tables_equal_the_per_n_formulas_through_23000():
    r4, r8 = _per_n_formulas()
    t4, t8 = r4_table(TABLE_LIMIT), r8_table(TABLE_LIMIT)
    for n in range(1, TABLE_LIMIT + 1):
        assert t4[n] == r4[n], n
        assert t8[n] == r8[n], n


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3000))
def test_tables_equal_the_per_n_formulas_at_any_limit(limit):
    r4, r8 = _per_n_formulas()
    t4, t8 = r4_table(limit), r8_table(limit)
    assert [t4[n] for n in range(1, limit + 1)] == r4[1 : limit + 1]
    assert [t8[n] for n in range(1, limit + 1)] == r8[1 : limit + 1]
    for table in (t4, t8):
        with pytest.raises(IndexError):
            table[limit + 1]  # sized to the limit, not beyond


# -- prime-power recursions -------------------------------------------------------


def test_r3_recursion_alpha_zero_is_identity():
    assert r3_recursion(5, 0, 7, {7: 0}) == 0
    assert r3_recursion(3, 0, 2, {2: 12}) == 12


def test_r3_recursion_at_25():
    # (6 - (-1/5)) * r3(1) with (-1/5) = +1: 5 * 6 = 30
    assert r3_recursion(5, 1, 1, {1: 6}) == 30 == rk_series(3, 25).coeffs[25]
    assert rk_bruteforce(3, 25) == 30


def test_r3_recursion_at_150_divisible_by_5():
    r3 = rk_series(3, 150)
    value = r3_recursion(5, 1, 6, {6: r3.coeffs[6]})
    assert value == r3.coeffs[150]
    assert value % 5 == 0


def test_r3_recursion_with_quotient_term():
    # n divisible by p^2 exercises the r3(n/p^2) branch: r3(9 * 9) from r3(9), r3(1)
    r3 = rk_series(3, 81)
    got = r3_recursion(3, 1, 9, {9: r3.coeffs[9], 1: r3.coeffs[1]})
    assert got == r3.coeffs[81]
    # and the quotient base value must actually be present
    with pytest.raises(ValueError):
        r3_recursion(3, 1, 9, {9: r3.coeffs[9]})


def test_r3_recursion_missing_base_raises():
    with pytest.raises(ValueError):
        r3_recursion(5, 1, 7, {})


def test_recursions_read_a_coefficient_sequence():
    r3, r5 = rk_series(3, 450).coeffs, rk_series(5, 450).coeffs
    for p in (3, 5, 7):
        for n in range(1, 450 // p**2 + 1):
            assert r3_recursion(p, 1, n, r3) == r3[p * p * n], (p, n)
            if n % (p * p):
                assert r5_recursion(p, 1, n, r5) == r5[p * p * n], (p, n)
    # an index past the sequence is a missing base value, as a missing key is
    with pytest.raises(ValueError, match=r"missing base value r3\(7\)"):
        r3_recursion(5, 1, 7, r3[:7])
    with pytest.raises(ValueError, match=r"missing base value r5\(7\)"):
        r5_recursion(5, 1, 7, r5[:7])


def test_r3_recursion_rejects_bad_p():
    with pytest.raises(ValueError):
        r3_recursion(2, 1, 3, {3: 8})
    with pytest.raises(ValueError):
        r3_recursion(9, 1, 3, {3: 8})


def test_r5_recursion_alpha_zero_is_identity():
    assert r5_recursion(3, 0, 2, {2: 40}) == 40


def test_r5_recursion_values():
    assert r5_recursion(3, 1, 1, {1: 10}) == 250 == rk_series(5, 9).coeffs[9]
    assert r5_recursion(3, 1, 2, {2: 40}) == 1240 == rk_series(5, 18).coeffs[18]


def test_r5_recursion_rejects_p_squared_dividing_n():
    with pytest.raises(ValueError):
        r5_recursion(3, 1, 9, {9: 0})


_ODD_PRIMES_TO_50 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _outcome(fn, *args):
    """fn's value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_recursions_equal_the_per_call_oracle():
    # arbitrary base values: both sides must apply the same step to any input
    base = {n: 7 * n - 3 * (n % 11) for n in range(1, 501)}
    for p in _ODD_PRIMES_TO_50:
        for alpha in range(5):
            for n in range(1, 501):
                args = (p, alpha, n, base)
                assert _outcome(r3_recursion, *args) == _outcome(r3_recursion_per_call, *args)
                assert _outcome(r5_recursion, *args) == _outcome(r5_recursion_per_call, *args)


@pytest.mark.parametrize(
    "p, alpha, n",
    [
        (2, 1, 3),  # even p
        (9, 1, 3),  # not prime
        (1, 1, 3),
        (15, 0, 4),
        (5, -1, 3),  # alpha < 0
        (5, 1, 0),  # n < 1
        (5, 1, -7),
        (5, 1, 25),  # p^2 | n: r5 only
        (3, 2, 18),
    ],
)
def test_recursions_raise_the_oracles_errors(p, alpha, n):
    base = {m: 1 for m in range(1, 30)}
    pairs = ((r3_recursion, r3_recursion_per_call), (r5_recursion, r5_recursion_per_call))
    for fast, oracle in pairs:
        want = _outcome(oracle, p, alpha, n, base)
        assert _outcome(fast, p, alpha, n, base) == want, (fast.__name__, p, alpha, n)
    assert _outcome(r5_recursion, p, alpha, n, base).startswith("ValueError")


# -- brute force -------------------------------------------------------------------


def test_bruteforce_examples():
    assert rk_bruteforce(3, 0) == 1
    assert rk_bruteforce(4, 1) == 8
    # four-invariance of r3 at the smallest instance
    assert rk_bruteforce(3, 4) == 6 == rk_bruteforce(3, 1)


def test_bruteforce_budget_enforced():
    with pytest.raises(ValueError):
        rk_bruteforce(8, BRUTEFORCE_MAX_N[8] + 1)
    with pytest.raises(ValueError):
        rk_bruteforce(4, BRUTEFORCE_MAX_N[4] + 1)


def test_bruteforce_table_equals_the_per_n_enumeration():
    for k, limit in ((1, 60), (2, 60), (3, 300), (4, 300), (5, 100), (8, 100)):
        assert rk_bruteforce_table(k, limit) == [rk_bruteforce(k, n) for n in range(limit + 1)], k
    with pytest.raises(ValueError):
        rk_bruteforce_table(8, BRUTEFORCE_MAX_N[8] + 1)


def test_bruteforce_against_naive_lattice():
    for k in (1, 2, 3):
        for n in range(0, 40):
            assert rk_bruteforce(k, n) == rk_lattice_naive(k, n), (k, n)
    for n in range(0, 20):
        assert rk_bruteforce(4, n) == rk_lattice_naive(4, n), n
    for n in range(0, 10):
        assert rk_bruteforce(5, n) == rk_lattice_naive(5, n), n


# -- cross-route sweeps (small; the acceptance suite runs the stated grids) --------


def test_routes_agree_through_200():
    s4 = rk_series(4, 200)
    s8 = rk_series(8, 200)
    for n in range(1, 201):
        assert s4.coeffs[n] == r4_formula(n)
        assert s8.coeffs[n] == r8_formula(n)


def test_series_matches_bruteforce_small():
    s3 = rk_series(3, 60)
    s5 = rk_series(5, 40)
    for n in range(61):
        assert s3.coeffs[n] == rk_bruteforce(3, n)
    for n in range(41):
        assert s5.coeffs[n] == rk_bruteforce(5, n)


def test_r3_recursion_consistency_grid():
    order = 1600
    r3 = rk_series(3, order)
    for p in (3, 5, 7):
        for alpha in (1, 2):
            step = p ** (2 * alpha)
            for n in range(1, order // step + 1):
                base = {n: r3.coeffs[n]}
                if n % (p * p) == 0:
                    base[n // (p * p)] = r3.coeffs[n // (p * p)]
                assert r3_recursion(p, alpha, n, base) == r3.coeffs[step * n], (p, alpha, n)


def test_r5_recursion_consistency_grid():
    order = 1600
    r5 = rk_series(5, order)
    for p in (3, 5):
        for alpha in (1, 2):
            step = p ** (2 * alpha)
            for n in range(1, order // step + 1):
                if n % (p * p) == 0:
                    continue
                assert r5_recursion(p, alpha, n, {n: r5.coeffs[n]}) == r5.coeffs[step * n]


# -- recursion route dispatch -------------------------------------------------------


def test_recursion_route_decomposes_and_matches_series():
    r3_600 = rk_series(3, 600)
    for n in (9, 18, 25, 45, 50, 75, 99, 100, 147, 242, 225, 600):
        got = rk_recursion_route(3, n)
        assert got == r3_600.coeffs[n], n


def test_recursion_route_r5():
    r5_200 = rk_series(5, 200)
    for n in (9, 18, 45, 50, 98, 153, 200):
        got = rk_recursion_route(5, n)
        assert got == r5_200.coeffs[n], n


def test_recursion_route_rejects_squarefree_odd_part():
    with pytest.raises(ValueError):
        rk_recursion_route(3, 30)  # 2*3*5, no odd square divisor
    with pytest.raises(ValueError):
        rk_recursion_route(3, 4)  # only 2^2; the recursion needs odd p
    with pytest.raises(ValueError):
        rk_recursion_route(4, 9)
