"""Acceptance suite: one test per criterion, each at its stated size and bound.

Every comparison is exact integer or residue equality.  Run with -s to see the
one-line PASS/FAIL verdicts; timings are wall-clock for the whole criterion,
including construction of whatever series it needs.
"""

import functools
import json
import re
import subprocess
import sys
import time

import pytest

from overq.checks import SeriesBank, run_checks
from overq.reporting import Budget
from overq.series import mod_ring
from overq.squares import (
    r3_recursion,
    r4_formula,
    r5_recursion,
    r8_formula,
    rk_bruteforce,
    rk_series,
)
from overq.theta import euler_product, overpartition_gf, p4n3_product_form

from oracles import overpartitions_counted, overpartitions_enumerated

DEFAULT = Budget()  # max_argument 10^4, max_prime 23, max_alpha 3


@pytest.fixture(scope="module")
def bank():
    return SeriesBank(DEFAULT)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL ({time.perf_counter() - t0:.1f}s)")
                raise
            print(f"\nACCEPTANCE {label}: PASS ({time.perf_counter() - t0:.1f}s)")

        return wrapper

    return decorate


@criterion("1 generating-function correctness")
def test_criterion_1_overpartition_counts():
    t0 = time.perf_counter()
    gf = overpartition_gf(60)
    expected = [overpartitions_counted(n) for n in range(61)]
    assert list(gf.coeffs) == expected
    # the counting oracle itself is backed by literal enumeration on a prefix
    for n in range(26):
        assert overpartitions_enumerated(n) == expected[n]
    assert time.perf_counter() - t0 < 5.0


@criterion("2 product-form identity, 100 exact terms")
def test_criterion_2_identity_4n3():
    t0 = time.perf_counter()
    gf = overpartition_gf(403)
    lhs = gf.extract_progression(4, 3)  # order (403 - 3) / 4 = 100
    rhs = p4n3_product_form(lhs.order)
    assert lhs.coeffs[:100] == rhs.coeffs[:100]
    assert lhs == rhs
    assert time.perf_counter() - t0 < 5.0


@criterion("3 r_k route agreement")
def test_criterion_3_rk_routes():
    t0 = time.perf_counter()
    s4 = rk_series(4, 2000)
    s8 = rk_series(8, 2000)
    for n in range(1, 2001):
        assert s4.coeffs[n] == r4_formula(n), n
        assert s8.coeffs[n] == r8_formula(n), n
    s3 = rk_series(3, 300)
    for n in range(301):
        assert s3.coeffs[n] == rk_bruteforce(3, n), n
        assert s4.coeffs[n] == rk_bruteforce(4, n), n
    s5 = rk_series(5, 100)
    for n in range(101):
        assert s5.coeffs[n] == rk_bruteforce(5, n), n
        assert s8.coeffs[n] == rk_bruteforce(8, n), n
    assert time.perf_counter() - t0 < 30.0


@criterion("4 lemma sweeps")
def test_criterion_4_lemma_sweeps(bank):
    # power congruence of Euler products: seven (p, alpha) pairs, 500 terms
    for p, a in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)):
        m = p**a
        e = euler_product(500, mod_ring(m))
        assert e ** (p**a) == e.substitute_power(p) ** (p ** (a - 1)), (p, a)

    # divisor-sum scaling: r4 mod p and r8 mod p^3 for p in {3, 5, 7}, n <= 1000
    for p in (3, 5, 7):
        p3 = p**3
        for n in range(1, 1001):
            assert (r4_formula(p * n) - r4_formula(n)) % p == 0, (p, n)
            assert (r8_formula(p * n) - r8_formula(n)) % p3 == 0, (p, n)

    # r3 vanishing and four-invariance, alpha <= 2, over the full series range
    r3 = bank.rk(3, None)
    M = DEFAULT.max_argument
    for alpha in (0, 1, 2):
        base = 4**alpha
        n = 0
        while base * (8 * n + 7) <= M:
            assert r3.coeffs[base * (8 * n + 7)] == 0, (alpha, n)
            n += 1
        if alpha >= 1:
            for n in range(1, M // base + 1):
                assert r3.coeffs[base * n] == r3.coeffs[n], (alpha, n)

    # recursion vs series on the stated grids, zero counterexamples
    for p in (3, 5, 7):
        for alpha in (1, 2):
            step = p ** (2 * alpha)
            for n in range(1, M // step + 1):
                lookup = {n: r3.coeffs[n]}
                if n % (p * p) == 0:
                    lookup[n // (p * p)] = r3.coeffs[n // (p * p)]
                assert r3_recursion(p, alpha, n, lookup) == r3.coeffs[step * n], (p, alpha, n)
    r5 = bank.rk(5, None)
    for p in (3, 5):
        for alpha in (1, 2):
            step = p ** (2 * alpha)
            for n in range(1, M // step + 1):
                if n % (p * p) == 0:
                    continue
                assert r5_recursion(p, alpha, n, {n: r5.coeffs[n]}) == r5.coeffs[step * n]


@criterion("5 congruence sweeps mod 5 and mod 9, n <= 2000")
def test_criterion_5_theorem_sweeps():
    t0 = time.perf_counter()
    # fresh bank so the timing covers the modular series construction at 10^4
    fresh = SeriesBank(DEFAULT)
    reports, summary = run_checks(["thm-main", "thm-mod9"], DEFAULT, bank=fresh)
    assert summary == {"pass": 2, "fail": 0, "skipped": 0}
    by_id = {r.check_id: r for r in reports}
    assert by_id["thm-main"].range_tested == (1, 2000)
    assert by_id["thm-main"].counterexamples == []
    assert by_id["thm-mod9"].range_tested[1] >= 2000
    assert by_id["thm-mod9"].counterexamples == []
    assert time.perf_counter() - t0 < 60.0


@criterion("6 mod-40 family with CRT consistency")
def test_criterion_6_conjecture_40(bank):
    reports, _ = run_checks(["conj-40"], DEFAULT, bank=bank)
    rep = reports[0]
    assert rep.status == "pass"
    assert rep.counterexamples == []
    assert rep.parameters["instances"] > 250
    assert rep.parameters["alpha_max"] == 4
    # the checker compares the mod-40 residue's reductions with the mod-8 and
    # mod-5 residues per instance; spot-check the raw residues here as well
    gf40 = bank.overpartition(40)
    gf8 = bank.overpartition(8)
    gf5 = bank.overpartition(5)
    for arg in (35, 75, 140, 560, 2240, 8960):
        assert gf40.coeffs[arg] == 0
        assert gf8.coeffs[arg] == 0
        assert gf5.coeffs[arg] == 0


@criterion("7 odd-power-of-5 family")
def test_criterion_7_fam_5power(bank):
    reports, _ = run_checks(["fam-5power"], DEFAULT, bank=bank)
    rep = reports[0]
    assert rep.status == "pass"
    assert rep.counterexamples == []
    # alpha = 1: 125 * (5n + r) <= 10^4 gives 16 instances per residue class
    gf5 = bank.overpartition(5)
    count_alpha1 = 0
    for r in (1, 4):
        n = 0
        while 125 * (5 * n + r) <= 10_000:
            assert gf5.coeffs[125 * (5 * n + r)] == 0
            count_alpha1 += 1
            n += 1
    assert count_alpha1 == 32
    # larger alpha beyond reach is bookkept, never silently dropped
    assert {(int(p["alpha"]), int(p["residue"])) for p in rep.skipped_points} == {
        (2, 4),
        (3, 1),
        (3, 4),
    }


@criterion("8 high prime-power families via recursion fallback")
def test_criterion_8_high_power_families(bank):
    reports, summary = run_checks(["fam-5p3", "fam-5p-high", "fam-3p-high"], DEFAULT, bank=bank)
    assert summary == {"pass": 3, "fail": 0, "skipped": 0}
    by_id = {r.check_id: r for r in reports}

    fam5p3 = by_id["fam-5p3"]
    assert fam5p3.skipped_points == [
        {"p": 19, "family": "direct", "minimal_argument": str(5 * 19**3)}
    ]

    high5 = by_id["fam-5p-high"]
    # every direct instance exceeds 10^4 (the smallest is 5 * 3^7 = 10935)
    assert all(s["family"] == "direct" for s in high5.skipped_points)
    assert min(int(s["minimal_argument"]) for s in high5.skipped_points) == 5 * 3**7

    # the driving divisibility at the smallest in-budget composite heights,
    # recomputed here against the exact series: r3(3^7 N) == 0 (mod 5)
    r3 = bank.rk(3, None)
    for N in (1, 2, 4):
        direct = r3.coeffs[3**7 * N]
        via_recursion = r3_recursion(3, 3, 3 * N, {3 * N: r3.coeffs[3 * N]})
        assert direct == via_recursion
        assert direct % 5 == 0

    high3 = by_id["fam-3p-high"]
    # p = 5 == 2 (mod 3), alpha = 0: direct instances 3 * 125 * N fit the budget
    skipped_keys = {(s["p"], s["alpha"], s["modulus"]) for s in high3.skipped_points}
    assert (5, 0, 9) not in skipped_keys
    gf9 = bank.overpartition(9)
    for N in (1, 2, 26):
        assert gf9.coeffs[375 * N] == 0
    # r5(5^3 N) == 0 (mod 9) through the recursion, checked against the series
    r5 = bank.rk(5, None)
    for N in (1, 2, 3):
        got = r5_recursion(5, 1, 5 * N, {5 * N: r5.coeffs[5 * N]})
        assert got == r5.coeffs[5**3 * N]
        assert got % 9 == 0


@criterion("9 byte-identical verify runs")
def test_criterion_9_determinism():
    cmd = [
        sys.executable,
        "-m",
        "overq",
        "verify",
        "--all",
        "--max-arg",
        "2000",
        "--max-prime",
        "23",
        "--max-alpha",
        "3",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0 and second.returncode == 0

    def canonical(raw: bytes) -> bytes:
        return re.sub(rb'"elapsed_ms": \d+', b'"elapsed_ms": 0', raw)

    assert canonical(first.stdout) == canonical(second.stdout)
    assert first.stdout != b""
    # and the stream is valid JSON lines with a terminating summary
    rows = [json.loads(line) for line in first.stdout.splitlines()]
    assert rows[-1]["fail"] == 0
