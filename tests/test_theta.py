import pytest

from overq.series import EXACT, TruncatedSeries, mod_ring
from overq.theta import (
    RouteMismatchError,
    build_named_series,
    euler_product,
    overpartition_gf,
    p4n3_product_form,
    phi,
)

from oracles import (
    distinct_partitions_enumerated,
    euler_product_binomial,
    overpartitions_counted,
    overpartitions_enumerated,
)


# -- phi ----------------------------------------------------------------------


def test_phi_small():
    assert phi(4).coeffs == (1, 2, 0, 0, 2)
    assert phi(2).coeffs[2] == 0


def test_phi_coefficient_sum_counts_squares():
    # ten positive squares up to 100, each weighing 2, plus the constant 1
    assert sum(phi(100).coeffs) == 21


def test_phi_modular_wraps_coefficients():
    assert phi(4, mod_ring(2)).coeffs == (1, 0, 0, 0, 0)


# -- euler products -----------------------------------------------------------


def test_euler_product_by_hand():
    # (1-q)(1-q^2)(1-q^3)(1-q^4)(1-q^5) truncated at q^5
    assert euler_product(5).coeffs == (1, -1, -1, 0, 0, 1)


def test_euler_product_order_zero_is_empty_product():
    assert euler_product(0).coeffs == (1,)
    assert build_named_series("neg-euler", 0).coeffs == (1,)


def test_negated_euler_counts_distinct_partitions():
    s = build_named_series("neg-euler", 12)
    assert s.coeffs[6] == 4  # {6}, {5,1}, {4,2}, {3,2,1}
    for n in range(13):
        assert s.coeffs[n] == distinct_partitions_enumerated(n)


def test_euler_product_has_pentagonal_support():
    n = 300
    s = euler_product(n)
    pentagonal = {}
    j = 1
    while j * (3 * j - 1) // 2 <= n or j * (3 * j + 1) // 2 <= n:
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= n:
                pentagonal[e] = (-1) ** j
        j += 1
    for k, c in enumerate(s.coeffs):
        if k == 0:
            assert c == 1
        else:
            assert c == pentagonal.get(k, 0)


def test_euler_product_matches_binomial_assembly():
    rings = (EXACT, *(mod_ring(m) for m in (5, 8, 9, 40)))
    for order in range(201):
        for negated, name in ((False, "euler"), (True, "neg-euler")):
            want = euler_product_binomial(order, negated)
            for ring in rings:
                got = build_named_series(name, order, ring)
                assert got == TruncatedSeries.make(ring, want), (order, negated, ring)


def test_euler_product_modular_matches_exact_reduction():
    for m in (5, 8, 40):
        for name in ("euler", "neg-euler"):
            exact = build_named_series(name, 80).reduce_mod(m)
            modular = build_named_series(name, 80, mod_ring(m))
            assert exact == modular


# -- overpartition generating function -----------------------------------------


def test_overpartition_counts_match_enumeration():
    gf = overpartition_gf(25)
    assert gf.coeffs[:5] == (1, 2, 4, 8, 14)
    for n in range(26):
        assert gf.coeffs[n] == overpartitions_enumerated(n)


def test_overpartition_congruence_spot_values():
    gf = overpartition_gf(40)
    assert gf.coeffs[3] % 8 == 0
    assert gf.coeffs[35] % 40 == 0


def test_overpartition_modular_construction_agrees():
    for m in (5, 8, 9, 40):
        assert overpartition_gf(300, mod_ring(m)) == overpartition_gf(300).reduce_mod(m)


def test_overpartition_counts_positive_and_nondecreasing():
    gf = overpartition_gf(512)
    for n in range(1, 512):
        assert gf.coeffs[n] > 0
        assert gf.coeffs[n] <= gf.coeffs[n + 1]


def test_times_negated_theta_is_one():
    for ring in (EXACT, mod_ring(8)):
        gf = overpartition_gf(512, ring)
        prod = gf * phi(512, ring).alternate_signs()
        assert prod == TruncatedSeries.one(ring, 512)


def test_times_euler_product_gives_negated_euler_product():
    gf = overpartition_gf(256)
    assert gf * euler_product(256) == build_named_series("neg-euler", 256)


def test_route_mismatch_aborts_the_construction(monkeypatch):
    # corrupt one route and the constructor must refuse to return anything
    import overq.theta as theta

    real = theta.euler_product

    def corrupted(order, ring=EXACT):
        bumped = list(real(order, ring).coeffs)
        bumped[-1] += 1
        return TruncatedSeries.make(ring, bumped)

    monkeypatch.setattr(theta, "euler_product", corrupted)
    with pytest.raises(RouteMismatchError):
        theta.overpartition_gf(16)


# -- product form of the 4n+3 subsequence --------------------------------------


def test_p4n3_constant_term_is_eight():
    rhs = p4n3_product_form(10)
    assert rhs.coeffs[0] == 8 == overpartitions_enumerated(3)


def test_p4n3_next_term_is_pbar7():
    assert p4n3_product_form(5).coeffs[1] == overpartitions_enumerated(7) == 64


def test_p4n3_matches_extracted_progression():
    gf = overpartition_gf(123)
    lhs = gf.extract_progression(4, 3)
    rhs = p4n3_product_form(lhs.order)
    assert lhs == rhs
    for j in range(lhs.order + 1):
        assert lhs.coeffs[j] == overpartitions_counted(4 * j + 3)


# -- named-series dispatch ------------------------------------------------------


def test_build_named_series_names():
    assert build_named_series("phi", 4).coeffs == (1, 2, 0, 0, 2)
    assert build_named_series("euler", 2).coeffs == (1, -1, -1)
    assert build_named_series("neg-euler", 2).coeffs == (1, 1, 1)
    assert build_named_series("overpartition", 2).coeffs == (1, 2, 4)
    assert build_named_series("hs43-rhs", 1).coeffs == (8, 64)
    with pytest.raises(ValueError):
        build_named_series("psi", 4)


def test_build_named_series_modular_product_form_reduces():
    # the residue build equals the exact one reduced, at the moduli of the paper's congruences
    exact = build_named_series("hs43-rhs", 20)
    for m in (5, 8, 9, 40):
        modular = build_named_series("hs43-rhs", 20, mod_ring(m))
        assert modular == exact.reduce_mod(m), m
    assert set(build_named_series("hs43-rhs", 20, mod_ring(8)).coeffs) == {0}  # 8 | pbar(4n+3)
