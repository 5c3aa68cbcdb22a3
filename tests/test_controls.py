"""Near-miss controls: the sweep shapes given the nearest false statement fail
on real data, so a shape that ignored one of its numbers would show here.

Each row runs a shape with its check's numbers changed and pins the number of
points tested, the number of counterexamples recorded (capped at 100) and the
first one in full.  The controls stay out of the registry and the CLI: they
test the checkers, not the paper.
"""

import pytest

from overq import checks
from overq.checks import SeriesBank, _grid, _prime_power_family, _signed_progression
from overq.reporting import Budget, CheckReport

BUDGET = Budget(2000)


class AnyModulusBank(SeriesBank):
    """A bank that also serves the overpartition series mod 25 or 27, as a
    reduction of the exact one; the real bank serves the divisors of 360, 40
    and the exact series only."""

    def overpartition(self, modulus=None):
        if modulus in (None, 40) or 360 % modulus == 0:
            return super().overpartition(modulus)
        exact = super().overpartition(None)
        key = ("gf", modulus, self.budget.max_argument)
        return self._get(key, lambda: exact.reduce_mod(modulus))


@pytest.fixture(scope="module")
def bank():
    return AnyModulusBank(BUDGET)


def _fam_5power_grid(residue):
    """fam-5power's sweep along 5^(2a+1)(5n + residue) through checks._vanishing."""

    def sweep(budget, bank, t):
        gf5 = bank.overpartition(5).coeffs
        for alpha in range(1, budget.max_alpha + 1):
            base = 5 ** (2 * alpha + 1)
            grid = _grid(t, budget.max_argument, 5 * base, base * residue, start=0)
            points = (({"alpha": alpha, "residue": residue, "n": n}, base * (5 * n + residue))
                      for n in grid)
            checks._vanishing(t, gf5, "pbar_mod_5", "pbar(5^(2a+1)(5n+r)) == 0 (mod 5)", points)

    return sweep


# The statements themselves pass on the same bank: the registered checks, and
# the control's fam-5power grid at the statement's residues.
_TRUE = {
    **{cid: checks.REGISTRY[cid].fn for cid in ("thm-main", "thm-mod9", "fam-5p-high",
                                                "fam-3p-high")},
    "fam-5power-residue-1": _fam_5power_grid(1),
    "fam-5power-residue-4": _fam_5power_grid(4),
}

# (near-miss sweep, tested, recorded, first counterexample)
_NEAR_MISSES = {
    "thm-main-mod-25": (_signed_progression(5, 3, 25), 400, 100, {
        "args": {"n": 1},
        "observed": {"pbar_5n_mod_25": "24", "signed_r3_mod_25": "19"},
        "expected": "pbar(5n) == (-1)^n r3(n) (mod 25)",
    }),
    "thm-mod9-mod-27": (_signed_progression(3, 5, 27), 666, 100, {
        "args": {"n": 1},
        "observed": {"pbar_3n_mod_27": "8", "signed_r5_mod_27": "17"},
        "expected": "pbar(3n) == (-1)^n r5(n) (mod 27)",
    }),
    "fam-5p-high-exponents-10a+7-8a+5": (
        _prime_power_family(5, 3, {1: [(5, 10, 7)], 2: [(5, 8, 5)], 3: [(5, 8, 5)],
                                   4: [(5, 8, 5)]}),
        5161, 100, {
            "args": {"p": 3, "alpha": 0, "N": 1, "exponent": 5},
            "observed": {"pbar_mod_5": "1"},
            "expected": "pbar(5 p^e N) == 0 (mod 5)",
        },
    ),
    "fam-3p-high-exponents-6a+3-18a+15-4a+1": (
        _prime_power_family(3, 5, {1: [(3, 6, 3), (9, 18, 15)], 2: [(9, 4, 1)]}),
        6839, 100, {
            "args": {"p": 5, "alpha": 0, "N": 1, "exponent": 1, "modulus": 9},
            "observed": {"pbar_residue": "5"},
            "expected": "pbar(3 p^e N) == 0 (mod m)",
        },
    ),
    "fam-5power-residue-2": (_fam_5power_grid(2), 3, 2, {
        "args": {"alpha": 1, "residue": 2, "n": 0, "argument": 250},
        "observed": {"pbar_mod_5": "4"},
        "expected": "pbar(5^(2a+1)(5n+r)) == 0 (mod 5)",
    }),
    "fam-5power-residue-3": (_fam_5power_grid(3), 3, 3, {
        "args": {"alpha": 1, "residue": 3, "n": 0, "argument": 375},
        "observed": {"pbar_mod_5": "4"},
        "expected": "pbar(5^(2a+1)(5n+r)) == 0 (mod 5)",
    }),
}


def _run(sweep, bank):
    t = CheckReport("control")
    sweep(BUDGET, bank, t)
    return t


@pytest.mark.parametrize("name", list(_TRUE))
def test_the_registered_numbers_pass(name, bank):
    t = _run(_TRUE[name], bank)
    assert t.tested and t.counterexamples == []


@pytest.mark.parametrize("name", list(_NEAR_MISSES))
def test_a_near_miss_fails(name, bank):
    sweep, tested, recorded, first = _NEAR_MISSES[name]
    t = _run(sweep, bank)
    assert (t.tested, len(t.counterexamples)) == (tested, recorded)
    assert t.counterexamples[0] == first


def test_the_bank_serves_mod_25_and_27_as_reductions_of_the_exact_series(bank):
    exact = bank.overpartition(None)
    for m in (25, 27):
        assert bank.overpartition(m) == exact.reduce_mod(m)
    # the real bank refuses them
    with pytest.raises(ValueError):
        SeriesBank(BUDGET).overpartition(25)
