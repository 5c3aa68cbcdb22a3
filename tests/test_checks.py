import hashlib
import json

import pytest

from overq import checks
from overq.checks import (
    REGISTRY,
    SeriesBank,
    all_check_ids,
    coverage_manifest,
    run_checks,
)
from overq.reporting import Budget, finalize_report, summary_counts
from overq.series import EXACT, TruncatedSeries, mod_ring
from overq.theta import overpartition_gf

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


def test_finalize_report_status_rules():
    fail = finalize_report("x", {}, (1, 10), [{"args": {}}], 10, 1)
    assert fail.status == "fail"
    ok = finalize_report("x", {}, (1, 10), [], 10, 1)
    assert ok.status == "pass" and ok.reason is None
    skipped = finalize_report("x", {}, (1, 0), [], 0, 1)
    assert skipped.status == "skipped"
    assert skipped.reason == "no grid points within budget"


def test_report_json_shape():
    rep = finalize_report("x", {"m": 5}, (1, 3), [], 3, 7)
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
    reports = [
        finalize_report("a", {}, (1, 1), [], 1, 0),
        finalize_report("b", {}, (1, 1), [{"args": {}}], 1, 0),
        finalize_report("c", {}, (0, 0), [], 0, 0),
    ]
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


def test_crt_recombines_every_residue_pair():
    # conj-40 only ever recombines (0, 0), so the other 39 pairs are pinned here
    for r1 in range(8):
        for r2 in range(5):
            x = checks._crt(r1, 8, r2, 5)
            assert 0 <= x < 40 and (x % 8, x % 5) == (r1, r2), (r1, r2)


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
    "lemma-r48-scaling": (checks, "r4_formula", lambda n: n),
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
    assert gf_calls == [(300,)]  # exact only: residues are reductions, mod 40 is theta-only
    assert sorted(rk_calls) == [(3, 300), (4, 300), (5, 300), (8, 300)]


def test_bank_residue_series_are_reductions_of_the_exact_ones(bank):
    exact = bank.overpartition(None)
    for m in (5, 8, 9):
        assert bank.overpartition(m) == exact.reduce_mod(m)
    assert bank.rk(3, 5) == bank.rk(3, None).reduce_mod(5)
    assert bank.rk(5, 9) == bank.rk(5, None).reduce_mod(9)


def test_bank_mod_40_series_does_not_read_the_exact_one():
    bank = _poisoned_bank(POISON_BUDGET, ("gf", None, 300))
    assert bank.overpartition(40) == overpartition_gf(300, mod_ring(40))
    assert bank.overpartition(5) != overpartition_gf(300, mod_ring(5))  # a reduction does
    # so a corrupt exact series shows in conj-40 as a broken CRT cross-check
    (rep,), _ = run_checks(["conj-40"], POISON_BUDGET, bank=bank)
    assert rep.status == "fail"
