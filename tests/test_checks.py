import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overq import checks, theta
from overq.checks import (
    REGISTRY,
    SeriesBank,
    all_check_ids,
    coverage_manifest,
    run_checks,
)
from overq.reporting import Budget, CheckReport, summary_counts
from overq.series import EXACT, TruncatedSeries, mod_ring
from overq.theta import RouteMismatchError, overpartition_gf

from oracles import overpartitions_counted, rk_lattice_naive

SMALL = Budget(max_argument=700, max_prime=23, max_alpha=3)


@pytest.fixture(scope="module")
def bank():
    return SeriesBank(SMALL)


# -- budget and report plumbing -------------------------------------------------


def test_budget_defaults_and_validation():
    b = Budget()
    assert (b.max_argument, b.max_prime, b.max_alpha) == (10_000, 23, 3)
    with pytest.raises(ValueError):
        Budget(max_argument=0)
    with pytest.raises(ValueError):
        Budget(max_prime=-1)


def _report(check_id, tested, failures=0, **fields):
    """A report that tested `tested` points, the first `failures` of them failing."""
    rep = CheckReport(check_id, **fields)
    for n in range(tested):
        rep.expect(n >= failures, {"n": n}, {}, "holds")
    return rep


def test_finalize_report_status_rules():
    fail = _report("x", 10, failures=1)
    assert fail.status == "fail"
    ok = _report("x", 10)
    assert ok.status == "pass" and ok.reason is None
    skipped = _report("x", 0)
    assert skipped.status == "skipped"
    assert skipped.reason == "no grid points within budget"


def test_report_json_shape():
    rep = _report("x", 3, parameters={"m": 5}, range_tested=(1, 3), elapsed_ms=7)
    d = rep.to_json_dict()
    assert list(d) == [
        "check_id",
        "status",
        "parameters",
        "range_tested",
        "counterexamples",
        "skipped_points",
        "elapsed_ms",
    ]
    json.dumps(d)  # must be serializable as-is


def test_summary_counts():
    reports = [_report("a", 1), _report("b", 1, failures=1), _report("c", 0)]
    assert summary_counts(reports) == {"pass": 1, "fail": 1, "skipped": 1}


# -- registry ---------------------------------------------------------------------


def test_registry_covers_every_statement():
    ids = all_check_ids()
    assert len(ids) == len(set(ids)) == 19
    manifest = coverage_manifest()
    assert set(manifest) == set(ids)
    assert all(manifest[c] for c in ids)


# -- single checkers at a small budget ---------------------------------------------


def test_thm_main_passes_and_counts(bank):
    (rep,), _ = run_checks(["thm-main"], SMALL, bank=bank)
    assert rep.status == "pass"
    assert rep.range_tested == (1, 700 // 5)
    assert rep.counterexamples == []


def test_thm_main_example_values(bank):
    # pbar(5) = 24 and r3(1) = 6: 24 == -6 == 4 (mod 5)
    gf5 = bank.overpartition(5)
    assert gf5.coeffs[5] == 24 % 5 == 4
    assert (-rk_lattice_naive(3, 1)) % 5 == 4
    # r3(7) = 0 forces pbar(35) == 0 (mod 5)
    assert rk_lattice_naive(3, 7) == 0
    assert gf5.coeffs[35] == 0


def test_thm_mod9_passes(bank):
    (rep,), _ = run_checks(["thm-mod9"], SMALL, bank=bank)
    assert rep.status == "pass"
    # pbar(3) = 8 and r5(1) = 10: 8 == -10 (mod 9)
    gf9 = bank.overpartition(9)
    assert gf9.coeffs[3] == 8 and (-10) % 9 == 8
    # pbar(6) = 40 and r5(2) = 40, even index: equal residues directly
    assert gf9.coeffs[6] == 40 % 9


def test_conj40_crt_consistency(bank):
    (rep,), _ = run_checks(["conj-40"], SMALL, bank=bank)
    assert rep.status == "pass"
    assert rep.parameters["instances"] >= 17  # 35..675 step 40, plus 140, 560
    assert rep.parameters["alpha_max"] == 2  # 16 * 35 = 560 <= 700 < 4^3 * 35


def _divide_out(arg, q):
    """(e, m) with arg = q^e m and q not dividing m."""
    e = 0
    while arg % q == 0:
        arg, e = arg // q, e + 1
    return e, arg


def _instances_40n35_naive(limit):
    """(alpha, n, argument) for every argument 4^alpha (40n+35) <= limit, found by
    dividing out 4 from each integer, alpha first."""
    out = []
    for arg in range(1, limit + 1):
        alpha, odd = _divide_out(arg, 4)
        if odd % 40 == 35:
            out.append((alpha, (odd - 35) // 40, arg))
    return sorted(out)


def test_qualifying_40n35_against_brute_force():
    # 35 * 4^alpha is the first instance of each alpha: those budgets hold an
    # instance exactly at the budget, and one below each loses it
    edges = (35, 140, 560, 2240, 8960, 35840)
    every = _instances_40n35_naive(edges[-1])
    for M in [*range(700), *edges, *(e - 1 for e in edges)]:
        assert checks._qualifying_40n35(M) == [x for x in every if x[2] <= M], M


def _is_prime_naive(n):
    return n >= 2 and all(n % d for d in range(2, n))


# The arguments up to M at which each statement says a series vanishes, found by
# dividing the power of 5, p or 4 out of each integer.
_VANISHING_ARGUMENTS = {
    # pbar(5^(2a+1)(5n+r)), r in {1, 4}, 1 <= a <= max_alpha: 5n+r is prime to 5
    "fam-5power": lambda b: [
        arg for arg in range(1, b.max_argument + 1)
        for e, rest in [_divide_out(arg, 5)]
        if e in range(3, 2 * b.max_alpha + 2, 2) and rest % 5 in (1, 4)
    ],
    # pbar(5 p^3 n) for primes p == 4 (mod 5) up to max_prime, p not dividing n
    "fam-5p3": lambda b: [
        arg for p in range(b.max_prime + 1) if _is_prime_naive(p) and p % 5 == 4
        for arg in range(1, b.max_argument + 1)
        if arg % 5 == 0 and _divide_out(arg, p)[0] == 3
    ],
    # part 1: pbar(4^a (40n+35)) for every a
    "cor-5-4alpha": lambda b: [arg for _, _, arg in _instances_40n35_naive(b.max_argument)],
    # r3(4^a (8n+7)), 0 <= a <= max_alpha: 8n+7 is odd
    "lemma-r3-four": lambda b: [
        arg for arg in range(1, b.max_argument + 1)
        for e, rest in [_divide_out(arg, 4)]
        if e <= b.max_alpha and rest % 8 == 7
    ],
}


def _zero_bank(budget):
    """A bank whose overpartition mod 5 and exact r3 series are all zeros: cheap
    at any budget, for tests of where a check reads rather than what it finds."""
    bank, M = SeriesBank(budget), budget.max_argument
    bank._cache[("gf", 5, M)] = TruncatedSeries.make(mod_ring(5), [0] * (M + 1))
    bank._cache[("rk", 3, None, M)] = TruncatedSeries.make(EXACT, [0] * (M + 1))
    return bank


# Each budget holds a last grid point exactly at max_argument: 125 * 24 and
# 5^5 (fam-5power), 5 * 19^3 (fam-5p3), 4^3 * 35 (cor-5-4alpha), 4 * 175
# (lemma-r3-four); one below each loses it.
@pytest.mark.parametrize(
    "check_id, budget",
    [
        (cid, Budget(M + below, max_prime, 3))
        for cid, M, max_prime in [
            ("fam-5power", 3000, 23),
            ("fam-5power", 3125, 23),
            ("fam-5p3", 34295, 29),
            ("cor-5-4alpha", 2240, 23),
            ("lemma-r3-four", 700, 23),
        ]
        for below in (0, -1)
    ],
    ids=lambda v: str(v.max_argument) if isinstance(v, Budget) else v,
)
def test_vanishing_grids_against_their_statements(check_id, budget, monkeypatch):
    seen, real = [], checks._vanishing

    def recording(t, coeffs, key, relation, points):
        points = list(points)
        seen.extend(arg for _, arg in points)
        real(t, coeffs, key, relation, points)

    monkeypatch.setattr(checks, "_vanishing", recording)
    (rep,), _ = run_checks([check_id], budget, bank=_zero_bank(budget))
    assert rep.status == "pass"
    assert sorted(seen) == sorted(_VANISHING_ARGUMENTS[check_id](budget))


def test_mod8_criterion_and_exemptions(bank):
    (rep,), _ = run_checks(["mod8-criterion"], SMALL, bank=bank)
    assert rep.status == "pass"
    # the exemptions are necessary: squares and twice-squares break the pattern
    gf = bank.overpartition(8)
    assert gf.coeffs[4] != 0  # pbar(4) = 14
    assert gf.coeffs[50] != 0  # pbar(50) is not divisible by 8 either
    assert overpartitions_counted(4) == 14


def test_id_4n3_exact_terms(bank):
    (rep,), _ = run_checks(["id-4n3"], SMALL, bank=bank)
    assert rep.status == "pass"
    assert rep.parameters["terms"] == (700 - 3) // 4 + 1


def test_families_statuses(bank):
    family_ids = ["fam-5power", "fam-5p3", "fam-5p-high", "fam-3p-high", "cor-5-4alpha"]
    reports = {r.check_id: r for r in run_checks(family_ids, SMALL, bank=bank)[0]}
    assert set(reports) == set(family_ids)
    fam5 = reports["fam-5power"]
    assert fam5.status == "pass"  # alpha = 1 has instances 125 and 500 within 700
    assert any(p["residue"] == 4 for p in fam5.skipped_points)  # alpha >= 2 is out of reach
    fam5p3 = reports["fam-5p3"]
    assert fam5p3.status == "pass"  # recursion route tested; direct instances skipped
    assert fam5p3.skipped_points[0]["minimal_argument"] == str(5 * 19**3)
    high5 = reports["fam-5p-high"]
    assert high5.status == "pass"
    assert all(s["family"] == "direct" for s in high5.skipped_points)
    assert reports["fam-3p-high"].status == "pass"
    assert reports["cor-5-4alpha"].status == "pass"


def test_cor_5_4alpha_spot_value(bank):
    # pbar(5 * 4 * 5) == -pbar(5 * 5) (mod 5): pbar(100) against pbar(25), n = 5 odd
    gf5 = bank.overpartition(5)
    assert gf5.coeffs[100] == (5 - gf5.coeffs[25]) % 5
    # and an even-index instance compares directly: pbar(40) == pbar(10) (mod 5)
    assert gf5.coeffs[40] == gf5.coeffs[10]


def test_fam_5p3_skipped_when_no_prime_in_budget():
    tight = Budget(max_argument=700, max_prime=17, max_alpha=2)
    (rep,), _ = run_checks(["fam-5p3"], tight)
    assert rep.status == "skipped"
    assert "19" not in json.dumps(rep.parameters)
    assert rep.reason.startswith("no primes")


def test_replay_and_final_step(bank):
    replay_ids = ["replay-phi5", "replay-phi9", "lemma-euler-power"]
    reports, _ = run_checks(replay_ids, SMALL, bank=bank)
    assert [r.check_id for r in reports] == replay_ids
    assert all(r.status == "pass" for r in reports)
    (final,), _ = run_checks(["final-step"], SMALL, bank=bank)
    assert final.status == "pass"
    assert final.parameters["terms_mod_5"] == 700 // 5 + 1


def test_lemma_euler_power_respects_budget_caps():
    capped = Budget(max_argument=120, max_prime=3, max_alpha=2)
    (rep,), _ = run_checks(["lemma-euler-power"], capped)
    assert rep.status == "pass"
    assert rep.parameters["pairs"] == 4  # (2,1), (2,2), (3,1), (3,2) survive the caps
    assert len(rep.skipped_points) == 3  # (2,3) exceeds max_alpha; (5,1), (5,2) exceed max_prime


# -- runner ------------------------------------------------------------------------


def test_run_checks_summary_and_order():
    ids = ["replay-phi5", "thm-main", "lemma-r48-scaling"]
    small = Budget(max_argument=300, max_prime=7, max_alpha=2)
    reports, summary = run_checks(ids, small)
    assert [r.check_id for r in reports] == ids
    assert summary == {"pass": 3, "fail": 0, "skipped": 0}


def test_run_checks_unknown_id_raises_before_work():
    with pytest.raises(KeyError):
        run_checks(["definitely-not-a-check"], SMALL)


def test_runs_are_deterministic_apart_from_timing():
    ids = all_check_ids()
    small = Budget(max_argument=500, max_prime=11, max_alpha=2)
    first, _ = run_checks(ids, small)
    second, _ = run_checks(ids, small)
    strip = lambda r: {**r.to_json_dict(), "elapsed_ms": 0}
    assert [strip(r) for r in first] == [strip(r) for r in second]


# Points each check tests, pinned because the stream does not carry the count:
# a grid that loses a point prints the same reports.
_TESTED_AT_700 = {
    "thm-main": 140, "thm-mod9": 233, "conj-40": 22, "mod8-criterion": 656, "id-4n3": 175,
    "fam-5power": 2, "fam-5p3": 35, "fam-5p-high": 1808, "fam-3p-high": 2313,
    "cor-5-4alpha": 71, "replay-phi5": 501, "replay-phi9": 501, "lemma-euler-power": 3507,
    "final-step": 375, "rk-route-agreement": 2204, "lemma-r48-scaling": 11200,
    "lemma-r3-four": 343, "lemma-r3-recursion": 141, "lemma-r5-recursion": 132,
}
_TESTED_AT_TINY = {
    "thm-mod9": 1, "mod8-criterion": 1, "id-4n3": 1, "cor-5-4alpha": 2, "replay-phi5": 5,
    "replay-phi9": 5, "lemma-euler-power": 5, "rk-route-agreement": 28, "lemma-r3-four": 1,
}


@pytest.mark.parametrize(
    "budget, expected",
    [(SMALL, _TESTED_AT_700), (Budget(max_argument=4, max_prime=2, max_alpha=1), _TESTED_AT_TINY)],
    ids=["700", "tiny"],
)
def test_tested_counts_are_pinned(budget, expected):
    reports, _ = run_checks(all_check_ids(), budget)
    assert {r.check_id: r.tested for r in reports} == {
        cid: expected.get(cid, 0) for cid in all_check_ids()
    }


@settings(max_examples=300, deadline=None)
@given(
    max_argument=st.integers(0, 300),
    step=st.integers(1, 40),
    offset=st.integers(0, 60),
    start=st.sampled_from([0, 1]),
    without=st.sampled_from([0, 2, 3, 4, 9]),
)
def test_grid_against_brute_force(max_argument, step, offset, start, without):
    allowed = lambda n: without == 0 or n % without != 0
    candidates = [n for n in range(start, max_argument + 1) if allowed(n)]
    expected = [n for n in candidates if offset + step * n <= max_argument]
    t = CheckReport("grid")
    grid = checks._grid(t, max_argument, step, offset, start, without, a=1, b=2)
    assert list(grid) == expected
    # skipped exactly when nothing is in budget, at the first allowed n's argument
    first = next(n for n in itertools.count(start) if allowed(n))
    skipped = [{"a": 1, "b": 2, "minimal_argument": str(offset + step * first)}]
    assert t.skipped_points == ([] if expected else skipped)
    assert t.tested == 0 and t.counterexamples == []
    # without a report nothing is recorded, and the grid is the same
    assert list(checks._grid(None, max_argument, step, offset, start, without)) == expected


def test_skipped_never_silently_passes():
    # a budget too small for any qualifying 40n+35 instance must report skipped
    (rep,), _ = run_checks(["conj-40"], Budget(max_argument=30, max_prime=3, max_alpha=1))
    assert rep.status == "skipped"
    assert rep.reason


def _poisoned_bank(budget, key=None):
    """A bank whose entry `key` (default: the r3 mod-5 series) is all ones, to exercise failures."""
    key = key or ("rk", 3, 5, budget.max_argument)
    modulus, order = key[-2:]
    bank = SeriesBank(budget)
    ring = EXACT if modulus is None else mod_ring(modulus)
    bank._cache[key] = TruncatedSeries.make(ring, [1] * (order + 1))
    return bank


POISON_BUDGET = Budget(max_argument=300, max_prime=19, max_alpha=1)

# Checks that read the bank fail when one of their bank entries is all ones.
_POISONED_ENTRY = {
    "thm-main": ("rk", 3, 5, 300),
    "thm-mod9": ("gf", 9, 300),
    "conj-40": ("gf", 40, 300),
    "mod8-criterion": ("gf", 8, 300),
    "id-4n3": ("gf", None, 300),
    "fam-5power": ("gf", 5, 300),
    "cor-5-4alpha": ("gf", 5, 300),
    "final-step": ("rk", 3, 5, 300),
    "rk-route-agreement": ("rk", 4, None, 300),
    "lemma-r3-four": ("rk", 3, None, 300),
    "lemma-r3-recursion": ("rk", 3, None, 300),
    "lemma-r5-recursion": ("rk", 5, None, 300),
}

# The rest pass for any bank: the recursion route is == 0 for every r3 / r5
# input, and the replayed congruences hold for every integer series
# (Frobenius), so these checks are poisoned by patching a computation instead.
_POISONED_CALL = {
    "fam-5p3": (checks, "r3_recursion", lambda *args: 1),
    "fam-5p-high": (checks, "r3_recursion", lambda *args: 1),
    "fam-3p-high": (checks, "r5_recursion", lambda *args: 1),
    "replay-phi5": (TruncatedSeries, "substitute_power", lambda self, k: self),
    "replay-phi9": (TruncatedSeries, "substitute_power", lambda self, k: self),
    "lemma-euler-power": (TruncatedSeries, "substitute_power", lambda self, k: self),
    "lemma-r48-scaling": (checks, "r4_table", lambda limit: list(range(limit + 1))),
}

# sha256 of each poisoned report with elapsed_ms removed: any change to what a
# failing report records shows here.
_POISONED_DIGESTS = {
    "thm-main": "119b6707c1b3be56f2284de5d6536001567cc05da4e5994aebbf90c47de7844a",
    "thm-mod9": "984cd827cc99b5f53f3849c7527e8dc44ac3e6611a3c0550ee8adaca12d38887",
    "conj-40": "f217abe4b8058ed2f5bbf5eaee11b2b0b6a53e0b5279e33b06c16ef4644650c7",
    "mod8-criterion": "3f86a107ebfb4fda703999cadea34e48fe1b2973d47d44e6ffdb7382fac5c9d2",
    "id-4n3": "e62a913399fab58c8b67a6a733958a11cb5d5a9119d27e852ed0359d4c8ce5f4",
    "fam-5power": "00ddca866deef64661ea1d3b2a32aec69bc82aefc097ad82bc9bb36aaa4897fb",
    "fam-5p3": "cedd9e048b5017f8ffcd1a569ad86eef5e8cb273d8fa3f917b909ad15db73704",
    "fam-5p-high": "ed8a9757f272971fcecabf41051db135aa09b93befe461a15c9d589b9e5c02f4",
    "fam-3p-high": "f2c37c2b7ca10b2fb64d46f4ef8faf77eb3dc724e7a7b6099b594f3b41727d0d",
    "cor-5-4alpha": "23bdd09af5c839d5a98d943e6387e5d65669ff559526610ebe6c0fb14c5103c6",
    "replay-phi5": "24018fe9c460f7c2f5910ee3bd426a394186bca0b61c39371aee20abc979ffca",
    "replay-phi9": "19cf693f79b37f3d78a1923eed3a77343a0b4d1921c414e9e9aa5b73ccf3a815",
    "lemma-euler-power": "e737f7bb4e204b74ef43d5f4a298697dd180440c05f1b14237d261fe90c60c51",
    "final-step": "2c586ef1fa27be73e4abfeff57d1535f4fd198c48fb4a1a717cd0553960ffbdd",
    "rk-route-agreement": "8b9ebd3458c6e405972db0b037074385f0a40f380be88658a0694a8afeae3447",
    "lemma-r48-scaling": "8f400f2b427982dd4de56925a624bd637eff18cca7d3ca332fb5ae9daa90c53a",
    "lemma-r3-four": "5c4bdc378d57d9a0a50d27dd0a25a7e913801767308b335d13c81b0c3b76d85e",
    "lemma-r3-recursion": "5e4167e4b0dbc1382b6a7b5b5432569eaec6c63ab86cfb31e5dac11bd35744cf",
    "lemma-r5-recursion": "348446eb1690cb80f326af8f1a845fd18d09a51b53aaa4fec6fe2fc2e5d2e911",
}


def _poisoned_report(check_id, monkeypatch):
    if check_id in _POISONED_ENTRY:
        bank = _poisoned_bank(POISON_BUDGET, _POISONED_ENTRY[check_id])
    else:
        bank = SeriesBank(POISON_BUDGET)
        monkeypatch.setattr(*_POISONED_CALL[check_id])
    (rep,), _ = run_checks([check_id], POISON_BUDGET, bank=bank)
    return rep


def _report_digest(rep):
    d = rep.to_json_dict()
    del d["elapsed_ms"]
    return hashlib.sha256(json.dumps(d).encode()).hexdigest()


def test_counterexamples_are_reproducible_from_the_report(monkeypatch):
    assert set(_POISONED_ENTRY) | set(_POISONED_CALL) == set(all_check_ids())
    for check_id in all_check_ids():
        with monkeypatch.context() as patch:
            rep = _poisoned_report(check_id, patch)
        assert rep.status == "fail", check_id
        assert 1 <= len(rep.counterexamples) <= 100, check_id
        assert _report_digest(rep) == _POISONED_DIGESTS[check_id], check_id
        if check_id == "thm-main":
            ce = rep.counterexamples[0]
            # argument tuple plus both observed residues: enough to replay the mismatch
            assert "n" in ce["args"]
            assert set(ce["observed"]) == {"pbar_5n_mod_5", "signed_r3_mod_5"}
            assert ce["expected"]


# The poison budget lies below every family's first direct instance, so the
# direct halves are poisoned here, each at a budget that reaches exactly one:
# 3 * 5^3 (fam-3p-high, mod 9), 5 * 3^7 (fam-5p-high) and 5 * 19^3 (fam-5p3).
@pytest.mark.parametrize(
    "check_id, key, budget, first",
    [
        ("fam-3p-high", ("gf", 9, 375), Budget(375, 5, 1), {
            "args": {"p": 5, "alpha": 0, "N": 1, "exponent": 3, "modulus": 9},
            "observed": {"pbar_residue": "1"},
            "expected": "pbar(3 p^e N) == 0 (mod m)",
        }),
        ("fam-5p-high", ("gf", 5, 10935), Budget(10935, 3, 1), {
            "args": {"p": 3, "alpha": 0, "N": 1, "exponent": 7},
            "observed": {"pbar_mod_5": "1"},
            "expected": "pbar(5 p^e N) == 0 (mod 5)",
        }),
        ("fam-5p3", ("gf", 5, 34295), Budget(34295, 19, 1), {
            "args": {"p": 19, "n": 1, "argument": 34295},
            "observed": {"pbar_mod_5": "1"},
            "expected": "pbar(5 p^3 n) == 0 (mod 5)",
        }),
    ],
    ids=["fam-3p-high", "fam-5p-high", "fam-5p3"],
)
def test_direct_halves_fail_on_a_poisoned_series(check_id, key, budget, first):
    (rep,), _ = run_checks([check_id], budget, bank=_poisoned_bank(budget, key))
    assert rep.status == "fail"
    assert rep.counterexamples[0] == first


def _ones(key):
    return lambda monkeypatch: _poisoned_bank(POISON_BUDGET, key)


def _r3_with_coefficient_4_raised(monkeypatch):
    # r3(4) = 6 becomes 7: r3(4n) == r3(n) fails at n = 1, and r3 still vanishes on 4^a(8n+7)
    bank = SeriesBank(POISON_BUDGET)
    cs = list(bank.rk(3, None).coeffs)
    cs[4] += 1
    bank._cache[("rk", 3, None, 300)] = TruncatedSeries.make(EXACT, cs)
    return bank


def _r8_table_of_identity(monkeypatch):
    monkeypatch.setattr(checks, "r8_table", lambda limit: list(range(limit + 1)))
    return SeriesBank(POISON_BUDGET)


# _POISONED_DIGESTS pins the first half of each check to fail; each case here
# poisons a later half alone and pins the first counterexample it records.
@pytest.mark.parametrize(
    "check_id, poisoned_bank, first",
    [
        ("rk-route-agreement", _ones(("rk", 3, None, 300)), {
            "args": {"k": 3, "n": 1},
            "observed": {"bruteforce": "6", "series": "1"},
            "expected": "lattice enumeration agrees with the series",
        }),
        ("rk-route-agreement", _ones(("rk", 8, None, 300)), {
            "args": {"k": 8, "n": 1},
            "observed": {"formula": "16", "series": "1"},
            "expected": "r8 routes agree",
        }),
        ("lemma-r3-four", _r3_with_coefficient_4_raised, {
            "args": {"alpha": 1, "n": 1},
            "observed": {"r3_4an": "7", "r3_n": "6"},
            "expected": "r3(4^a n) == r3(n)",
        }),
        ("lemma-r48-scaling", _r8_table_of_identity, {
            "args": {"k": 8, "p": 3, "n": 1},
            "observed": {"r8_pn": "3", "r8_n": "1"},
            "expected": "r8(pn) == r8(n) (mod p^3)",
        }),
    ],
    ids=["rk-route-lattice", "rk-route-r8-formula", "lemma-r3-four-invariance", "lemma-r48-r8"],
)
def test_each_later_half_fails_alone(check_id, poisoned_bank, first, monkeypatch):
    (rep,), _ = run_checks([check_id], POISON_BUDGET, bank=poisoned_bank(monkeypatch))
    assert rep.status == "fail"
    assert rep.counterexamples[0] == first


# v40 is 0 at every instance, so a poisoned mod-8 or mod-5 series fails conj-40
# only through the reduction that reads it.
@pytest.mark.parametrize("modulus", [8, 5], ids=["mod-8", "mod-5"])
def test_conj40_fails_through_each_reduction_alone(modulus):
    bank = _poisoned_bank(POISON_BUDGET, ("gf", modulus, 300))
    (rep,), _ = run_checks(["conj-40"], POISON_BUDGET, bank=bank)
    assert rep.status == "fail"
    assert len(rep.counterexamples) == rep.parameters["instances"] == 9
    first = rep.counterexamples[0]
    assert first["args"] == {"alpha": 0, "n": 0, "argument": 35}
    assert first["observed"] == {"mod_40": "0", "mod_8": "0", "mod_5": "0", f"mod_{modulus}": "1"}


def test_final_step_fails_through_its_mod_9_row():
    # the pinned poisoned digest covers the mod-5 row; this poisons the other one
    bank = _poisoned_bank(POISON_BUDGET, ("rk", 5, 9, 300))
    (rep,), _ = run_checks(["final-step"], POISON_BUDGET, bank=bank)
    assert rep.status == "fail"
    assert rep.counterexamples[0] == {
        "args": {"modulus": 9, "coefficient": 2},
        "observed": {"signed_pbar_3n": "4", "r5": "1"},  # pbar(6) = 40 == 4 (mod 9)
        "expected": "sum pbar(3n)(-q)^n == phi^5 (mod 9)",
    }


def test_stop_on_first_halts_the_stream():
    from overq.checks import iter_check_reports

    budget = Budget(max_argument=100, max_prime=3, max_alpha=1)
    bank = _poisoned_bank(budget)
    reports = list(
        iter_check_reports(["thm-main", "replay-phi5"], budget, stop_on_first=True, bank=bank)
    )
    assert len(reports) == 1
    assert reports[0].status == "fail"
    # without the flag both run
    bank2 = _poisoned_bank(budget)
    reports = list(iter_check_reports(["thm-main", "replay-phi5"], budget, bank=bank2))
    assert [r.status for r in reports] == ["fail", "pass"]


# -- series bank --------------------------------------------------------------------


def test_bank_builds_each_series_once_per_budget(monkeypatch):
    gf_calls, rk_calls = [], []

    def counted(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(checks, "overpartition_gf", counted(gf_calls, checks.overpartition_gf))
    monkeypatch.setattr(checks, "rk_series", counted(rk_calls, checks.rk_series))
    run_checks(all_check_ids(), POISON_BUDGET)
    # both routes over Z/360 only: mod 5, 8, 9 are reductions, mod 40 and exact are theta-only
    assert gf_calls == [(300, mod_ring(360))]
    assert sorted(rk_calls) == [(3, 300), (4, 300), (5, 300), (8, 300)]


def test_bank_residue_series_are_reductions_of_the_exact_ones(bank):
    exact = bank.overpartition(None)
    z360 = bank.overpartition(360)
    assert z360 == exact.reduce_mod(360)
    for m in (5, 8, 9):
        assert bank.overpartition(m) == z360.reduce_mod(m) == exact.reduce_mod(m)
    assert bank.rk(3, 5) == bank.rk(3, None).reduce_mod(5)
    assert bank.rk(5, 9) == bank.rk(5, None).reduce_mod(9)


def test_bank_mod_40_series_does_not_read_the_mod_360_one():
    bank = _poisoned_bank(POISON_BUDGET, ("gf", 360, 300))
    assert bank.overpartition(40) == overpartition_gf(300, mod_ring(40))
    assert bank.overpartition(5) != overpartition_gf(300, mod_ring(5))  # a reduction does
    # so a corrupt Z/360 series shows in conj-40 as a broken cross-check of its reductions
    (rep,), _ = run_checks(["conj-40"], POISON_BUDGET, bank=bank)
    assert rep.status == "fail"


def test_bank_modular_sweep_never_builds_the_exact_overpartition_series():
    modular_ids = [cid for cid in all_check_ids() if cid != "id-4n3"]
    bank = SeriesBank(POISON_BUDGET)
    _, summary = run_checks(modular_ids, POISON_BUDGET, bank=bank)
    assert summary == {"pass": 18, "fail": 0, "skipped": 0}
    assert ("gf", 360, 300) in bank._cache
    assert ("gf", None, 300) not in bank._cache


def test_bank_raises_when_the_z360_routes_disagree(monkeypatch):
    real = theta.euler_product

    def corrupted(order, ring=EXACT):
        e = real(order, ring)
        return e.scale(7) if ring == mod_ring(360) else e  # 7 is a unit mod 360

    monkeypatch.setattr(theta, "euler_product", corrupted)
    with pytest.raises(RouteMismatchError):
        SeriesBank(POISON_BUDGET).overpartition(5)


# -- arithmetic tables ----------------------------------------------------------------


def test_lemma_r48_builds_each_table_once_per_sweep(monkeypatch):
    calls = {"r4_table": [], "r8_table": []}
    for name, log in calls.items():
        build = getattr(checks, name)
        logged = lambda limit, build=build, log=log: log.append(limit) or build(limit)
        monkeypatch.setattr(checks, name, logged)
    (rep,), _ = run_checks(["lemma-r48-scaling"], POISON_BUDGET)
    assert rep.status == "pass"
    # one table per formula, sized to the largest argument p * n = 19 * 300
    assert calls == {"r4_table": [19 * 300], "r8_table": [19 * 300]}
