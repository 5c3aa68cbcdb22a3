"""Congruence sweeps: one checker per statement, machine-readable reports.

Every checker derives its grid deterministically from a Budget, reads shared
base series out of a SeriesBank, and feeds each grid point to a Tally.  The
runner turns the tally into a CheckReport whose status is derived strictly
from what was tested: fail iff counterexamples were found, skipped iff the
budget left nothing to test.  Grid points whose smallest instance exceeds the
budget are recorded in skipped_points with that minimal argument, so coverage
accounting stays honest for the prime-power families whose first direct
instances sit far beyond any series truncation.

For those out-of-reach families the sweeps fall back to the quantity that
drives them: the r3 / r5 divisibilities are evaluated through the prime-power
recursions with in-budget base values, which is the same reduction that
produces the overpartition statements in the first place.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Iterator

from .arith import is_square, is_twice_square, primes_up_to
from .reporting import STATUS_FAIL, Budget, CheckReport, finalize_report, summary_counts
from .series import TruncatedSeries, mod_ring
from .squares import r3_recursion, r4_formula, r5_recursion, r8_formula, rk_bruteforce, rk_series
from .theta import euler_product, overpartition_gf, p4n3_product_form, phi

_MAX_RECORDED_COUNTEREXAMPLES = 100


class SeriesBank:
    """Memoized construction of the shared base series for one budget.

    Each series is built once, by the first checker that asks for it, and
    shared by every later one.  A residue series is a reduction: the series
    mod m is reduce_mod(m) of the exact series of the same kind and order,
    which is built first when it is missing.  The one exception is the
    overpartition series mod 40, built on its own by the theta route (see
    overpartition).
    """

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self._cache: dict = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # The modular accessors reach the exact entry through _get rather than the
    # public methods, so that a modular request is one bank access, not two
    # nested ones.

    def overpartition(self, modulus: int | None = None) -> TruncatedSeries:
        order = self.budget.max_argument
        exact = lambda: overpartition_gf(order)
        if modulus is None:
            build = exact
        elif modulus == 40:
            # conj-40 compares this series with the CRT of the mod-8 and mod-5
            # reductions of the exact series.  Were it a reduction too, that
            # comparison would be a tautology, so it is built on its own by the
            # theta route, 1/phi(-q) over Z/40.
            build = lambda: phi(order, mod_ring(40)).alternate_signs().inverse()
        else:
            build = lambda: self._get(("gf", None, order), exact).reduce_mod(modulus)
        return self._get(("gf", modulus, order), build)

    def rk(self, k: int, modulus: int | None = None, order: int | None = None) -> TruncatedSeries:
        if order is None:
            order = self.budget.max_argument
        exact = lambda: rk_series(k, order)
        if modulus is None:
            build = exact
        else:
            build = lambda: self._get(("rk", k, None, order), exact).reduce_mod(modulus)
        return self._get(("rk", k, modulus, order), build)

    def p4n3(self, order: int) -> TruncatedSeries:
        return self._get(("p4n3", order), lambda: p4n3_product_form(order))


def _coefficient(k: int) -> dict:
    return {"coefficient": k}


class Tally:
    """What one sweep saw: points tested, counterexamples, skipped points.

    Only the first 100 counterexamples are recorded, with observed values as
    decimal strings.  skip_reason explains a sweep that tested nothing; None
    lets the report say "no grid points within budget".
    """

    def __init__(self, skip_reason: str | None = None) -> None:
        self.tested = 0
        self.counterexamples: list[dict] = []
        self.skipped_points: list[dict] = []
        self.skip_reason = skip_reason

    def record(self, args: dict, observed: dict, relation: str) -> None:
        """Add a counterexample without counting a tested point."""
        if len(self.counterexamples) < _MAX_RECORDED_COUNTEREXAMPLES:
            observed = {name: str(value) for name, value in observed.items()}
            self.counterexamples.append({"args": args, "observed": observed, "expected": relation})

    def expect(self, holds: bool, args: dict, observed: dict, relation: str) -> None:
        """Count one tested point; it is a counterexample unless the relation holds."""
        self.tested += 1
        if not holds:
            self.record(args, observed, relation)

    def series(
        self,
        lhs: TruncatedSeries,
        rhs: TruncatedSeries,
        relation: str,
        names: tuple[str, str] = ("lhs", "rhs"),
        args: Callable[[int], dict] = _coefficient,
    ) -> int:
        """Compare coefficient-wise through the shorter order, which is returned."""
        through = min(lhs.order, rhs.order)
        for k in range(through + 1):
            if lhs.coeffs[k] != rhs.coeffs[k]:
                self.record(args(k), {names[0]: lhs.coeffs[k], names[1]: rhs.coeffs[k]}, relation)
        self.tested += through + 1
        return through

    def skip(self, minimal_argument: int, **point) -> None:
        """Note a grid point whose smallest instance exceeds the budget."""
        self.skipped_points.append({**point, "minimal_argument": str(minimal_argument)})


# A checker sweeps its grid into the tally and returns (parameters, range_tested).
Sweep = tuple[dict, tuple[int, int]]


@dataclass(frozen=True)
class CheckDef:
    """One registered sweep; skip_reason explains a run that tested nothing."""

    check_id: str
    statement: str
    fn: Callable[[Budget, SeriesBank, Tally], Sweep]
    skip_reason: str | None = None


REGISTRY: dict[str, CheckDef] = {}


def _check(check_id: str, statement: str, skip_reason: str | None = None):
    """Register the decorated checker; registration order is report order."""

    def register(fn):
        REGISTRY[check_id] = CheckDef(check_id, statement, fn, skip_reason)
        return fn

    return register


def _signed(value: int, n: int, m: int) -> int:
    """(-1)^n * value as a canonical residue mod m."""
    return value if n % 2 == 0 else (m - value) % m


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 matching r1 mod m1 and r2 mod m2 (coprime moduli)."""
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)


def _odd_primes(limit: int) -> list[int]:
    return [p for p in primes_up_to(limit) if p >= 3]


def _coprime_to(d: int, limit: int) -> list[int]:
    """1 <= n <= limit with d not dividing n."""
    return [n for n in range(1, limit + 1) if n % d != 0]


def _qualifying_40n35(max_argument: int) -> list[tuple[int, int, int]]:
    """All (alpha, n, 4^alpha * (40n + 35)) with the argument within budget."""
    out = []
    alpha = 0
    while 4**alpha * 35 <= max_argument:
        for n in range((max_argument // 4**alpha - 35) // 40 + 1):
            out.append((alpha, n, 4**alpha * (40 * n + 35)))
        alpha += 1
    return out


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


@_check("thm-main", "pbar(5n) == (-1)^n r3(n) (mod 5) for n >= 1", "needs max_argument >= 5")
def _check_thm_main(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    hi = budget.max_argument // 5
    if hi >= 1:
        gf5 = bank.overpartition(5)
        r3 = bank.rk(3, 5)
        for n in range(1, hi + 1):
            left = gf5.coeffs[5 * n]
            right = _signed(r3.coeffs[n], n, 5)
            t.expect(
                left == right,
                {"n": n},
                {"pbar_5n_mod_5": left, "signed_r3_mod_5": right},
                "pbar(5n) == (-1)^n r3(n) (mod 5)",
            )
    return {"modulus": 5, "max_argument": budget.max_argument}, (1, max(hi, 0))


@_check(
    "thm-mod9",
    "pbar(3n) == (-1)^n r5(n) (mod 9) for n >= 1, plus the weaker mod-3 form",
    "needs max_argument >= 3",
)
def _check_thm_mod9(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    hi = budget.max_argument // 3
    if hi >= 1:
        gf9 = bank.overpartition(9)
        r5 = bank.rk(5, 9)
        for n in range(1, hi + 1):
            left = gf9.coeffs[3 * n]
            right = _signed(r5.coeffs[n], n, 9)
            t.expect(
                left == right,
                {"n": n, "modulus": 9},
                {"pbar_3n_mod_9": left, "signed_r5_mod_9": right},
                "pbar(3n) == (-1)^n r5(n) (mod 9)",
            )
            # mod-3 subset: same comparison pushed down to residues mod 3
            if left % 3 != right % 3:
                t.record(
                    {"n": n, "modulus": 3},
                    {"pbar_3n_mod_3": left % 3, "signed_r5_mod_3": right % 3},
                    "pbar(3n) == (-1)^n r5(n) (mod 3)",
                )
    parameters = {"modulus": 9, "subset_modulus": 3, "max_argument": budget.max_argument}
    return parameters, (1, max(hi, 0))


@_check(
    "conj-40",
    "pbar(4^a (40n+35)) == 0 (mod 40), cross-checked against the mod-8 x mod-5 CRT recombination",
    "needs max_argument >= 35",
)
def _check_conj40(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    instances = _qualifying_40n35(budget.max_argument)
    if instances:
        gf40 = bank.overpartition(40)
        gf8 = bank.overpartition(8)
        gf5 = bank.overpartition(5)
        for alpha, n, arg in instances:
            v40 = gf40.coeffs[arg]
            v8 = gf8.coeffs[arg]
            v5 = gf5.coeffs[arg]
            consistent = v40 % 8 == v8 and v40 % 5 == v5 and _crt(v8, 8, v5, 5) == v40
            t.expect(
                v40 == 0 and consistent,
                {"alpha": alpha, "n": n, "argument": arg},
                {"mod_40": v40, "mod_8": v8, "mod_5": v5},
                "pbar == 0 (mod 40) and the three residue routes agree",
            )
    parameters = {
        "modulus": 40,
        "max_argument": budget.max_argument,
        "instances": len(instances),
        "alpha_max": max((a for a, _, _ in instances), default=-1),
    }
    return parameters, (35, max((arg for _, _, arg in instances), default=0))


@_check("mod8-criterion", "pbar(n) == 0 (mod 8) whenever n is neither a square nor twice a square")
def _check_mod8(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    gf8 = bank.overpartition(8)
    for n in range(1, M + 1):
        if is_square(n) or is_twice_square(n):
            continue
        v = gf8.coeffs[n]
        t.expect(v == 0, {"n": n}, {"pbar_mod_8": v}, "pbar(n) == 0 (mod 8)")
    return {"modulus": 8, "max_argument": M}, (1, M)


@_check(
    "id-4n3",
    "sum_n pbar(4n+3) q^n == 8 (q^2;q^2)(q^4;q^4)^6 / (q;q)^8, exact term-by-term",
    "needs max_argument >= 3",
)
def _check_id_4n3(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    if M < 3:
        return {"max_argument": M}, (0, 0)
    lhs = bank.overpartition(None).extract_progression(4, 3)
    t.series(
        lhs,
        bank.p4n3(lhs.order),
        "exact term-by-term equality",
        ("pbar_4n3", "product_form"),
        lambda j: {"term": j, "argument": 4 * j + 3},
    )
    return {"terms": lhs.order + 1, "max_argument": M}, (0, lhs.order)


@_check(
    "fam-5power",
    "pbar(5^(2a+1)(5n+1)) == pbar(5^(2a+1)(5n+4)) == 0 (mod 5) for a >= 1",
    "smallest instance 125 exceeds max_argument",
)
def _check_fam_5power(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    gf5 = bank.overpartition(5) if M >= 125 else None
    for alpha in range(1, budget.max_alpha + 1):
        base = 5 ** (2 * alpha + 1)
        for r in (1, 4):
            if base * r > M:
                t.skip(base * r, alpha=alpha, residue=r)
                continue
            for n in range((M // base - r) // 5 + 1):
                arg = base * (5 * n + r)
                v = gf5.coeffs[arg]
                t.expect(
                    v == 0,
                    {"alpha": alpha, "residue": r, "n": n, "argument": arg},
                    {"pbar_mod_5": v},
                    "pbar(5^(2a+1)(5n+r)) == 0 (mod 5)",
                )
    return {"modulus": 5, "max_argument": M, "max_alpha": budget.max_alpha}, (125, M)


@_check(
    "fam-5p3",
    "pbar(5 p^3 n) == 0 (mod 5) for primes p == 4 (mod 5), n coprime to p; "
    "out-of-budget instances verified through r3(p^3 n) == (p+1) r3(pn) == 0 (mod 5)",
)
def _check_fam_5p3(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    """Direct instances start at 5 * 19^3 = 34295; beyond the budget they are
    recorded as skipped and the driving divisibility is verified through the
    recursion with in-budget bases.
    """
    M = budget.max_argument
    parameters = {"modulus": 5, "max_argument": M, "max_prime": budget.max_prime}
    ps = [p for p in primes_up_to(budget.max_prime) if p % 5 == 4]
    if not ps:
        t.skip_reason = "no primes == 4 (mod 5) within max_prime"
        return parameters, (0, 0)
    r3x = bank.rk(3, None)
    gf5 = bank.overpartition(5)
    for p in ps:
        step = 5 * p**3
        for n in _coprime_to(p, M // step):
            v = gf5.coeffs[step * n]
            t.expect(
                v == 0,
                {"p": p, "n": n, "argument": step * n},
                {"pbar_mod_5": v},
                "pbar(5 p^3 n) == 0 (mod 5)",
            )
        if step > M:
            t.skip(step, p=p, family="direct")
        for n0 in _coprime_to(p, M // p):
            val = r3_recursion(p, 1, p * n0, {p * n0: r3x.coeffs[p * n0]})
            t.expect(
                val % 5 == 0,
                {"p": p, "n": n0, "argument_exponent": 3},
                {"r3_recursion_mod_5": val % 5},
                "r3(p^3 n) == 0 (mod 5)",
            )
    return parameters, (1, M)


@_check(
    "fam-5p-high",
    "pbar(5 p^(10a+9) N) == 0 (mod 5) for p == 1 (mod 5); pbar(5 p^(8a+7) N) == 0 (mod 5) "
    "for p == 2,3,4 (mod 5); N coprime to p; driven by the r3 recursion divisibility",
)
def _check_fam_5p_high(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    """Direct instances (5 * 11^9 at the smallest) sit far beyond any series
    budget and are recorded as skipped; the underlying divisibility
    r3(p^(2b+1) N) == 0 (mod 5) is verified through the recursion with
    in-budget bases r3(pN).
    """
    M = budget.max_argument
    gf5 = bank.overpartition(5)
    r3x = bank.rk(3, None)
    for p in _odd_primes(budget.max_prime):
        if p == 5:
            continue
        for alpha in range(budget.max_alpha + 1):
            e = 10 * alpha + 9 if p % 5 == 1 else 8 * alpha + 7
            step = 5 * p**e
            for n in _coprime_to(p, M // step):
                v = gf5.coeffs[step * n]
                t.expect(
                    v == 0,
                    {"p": p, "alpha": alpha, "N": n, "exponent": e},
                    {"pbar_mod_5": v},
                    "pbar(5 p^e N) == 0 (mod 5)",
                )
            if step > M:
                t.skip(step, p=p, alpha=alpha, exponent=e, family="direct")
            for n0 in _coprime_to(p, M // p):
                val = r3_recursion(p, (e - 1) // 2, p * n0, {p * n0: r3x.coeffs[p * n0]})
                t.expect(
                    val % 5 == 0,
                    {"p": p, "alpha": alpha, "N": n0, "exponent": e},
                    {"r3_recursion_mod_5": val % 5},
                    "r3(p^e N) == 0 (mod 5)",
                )
    return {"modulus": 5, **asdict(budget)}, (1, M)


@_check(
    "fam-3p-high",
    "pbar(3 p^(6a+5) N) == 0 (mod 3) and pbar(3 p^(18a+17) N) == 0 (mod 9) for p == 1 (mod 3); "
    "pbar(3 p^(4a+3) N) == 0 (mod 9) for p == 2 (mod 3); N coprime to p; driven by the r5 recursion",
)
def _check_fam_3p_high(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    """Same scheme as the quintic families: direct instances within budget are
    read from the overpartition series mod 9; the rest is verified through the
    r5 recursion with in-budget bases r5(pN).
    """
    M = budget.max_argument
    gf9 = bank.overpartition(9)
    r5x = bank.rk(5, None)
    for p in _odd_primes(budget.max_prime):
        if p == 3:
            continue
        # (modulus, e = slope * alpha + offset) per residue class of p mod 3
        branches = [(3, 6, 5), (9, 18, 17)] if p % 3 == 1 else [(9, 4, 3)]
        for modulus, slope, offset in branches:
            for alpha in range(budget.max_alpha + 1):
                e = slope * alpha + offset
                step = 3 * p**e
                for n in _coprime_to(p, M // step):
                    v = gf9.coeffs[step * n] % modulus
                    t.expect(
                        v == 0,
                        {"p": p, "alpha": alpha, "N": n, "exponent": e, "modulus": modulus},
                        {"pbar_residue": v},
                        "pbar(3 p^e N) == 0 (mod m)",
                    )
                if step > M:
                    t.skip(step, p=p, alpha=alpha, exponent=e, modulus=modulus, family="direct")
                for n0 in _coprime_to(p, M // p):
                    val = r5_recursion(p, (e - 1) // 2, p * n0, {p * n0: r5x.coeffs[p * n0]})
                    t.expect(
                        val % modulus == 0,
                        {"p": p, "alpha": alpha, "N": n0, "exponent": e, "modulus": modulus},
                        {"r5_recursion_residue": val % modulus},
                        "r5(p^e N) == 0 (mod m)",
                    )
    return asdict(budget), (1, M)


@_check(
    "cor-5-4alpha",
    "pbar(4^a (40n+35)) == 0 (mod 5), and pbar(5 * 4^(a+1) n) == (-1)^n pbar(5n) (mod 5)",
)
def _check_cor_5_4alpha(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    gf5 = bank.overpartition(5)
    for alpha, n, arg in _qualifying_40n35(M):
        v = gf5.coeffs[arg]
        t.expect(
            v == 0,
            {"part": 1, "alpha": alpha, "n": n, "argument": arg},
            {"pbar_mod_5": v},
            "pbar(4^a (40n+35)) == 0 (mod 5)",
        )
    for alpha in range(budget.max_alpha + 1):
        step = 5 * 4 ** (alpha + 1)
        for n in range(M // step + 1):
            left = gf5.coeffs[step * n]
            right = _signed(gf5.coeffs[5 * n], n, 5)
            t.expect(
                left == right,
                {"part": 2, "alpha": alpha, "n": n},
                {"pbar_5_4a1_n_mod_5": left, "signed_pbar_5n_mod_5": right},
                "pbar(5 * 4^(a+1) n) == (-1)^n pbar(5n) (mod 5)",
            )
    return {"modulus": 5, "max_argument": M, "max_alpha": budget.max_alpha}, (0, M)


@_check("replay-phi5", "phi(q)^5 == phi(q^5) (mod 5) coefficient-wise")
def _check_replay_phi5(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    L = min(budget.max_argument, 500)
    ph = phi(L, mod_ring(5))
    through = t.series(ph**5, ph.substitute_power(5), "phi^5 == phi(q^5) (mod 5)")
    return {"modulus": 5, "order": L}, (0, through)


@_check("replay-phi9", "phi(q)^9 == phi(q^3)^3 (mod 9) coefficient-wise")
def _check_replay_phi9(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    L = min(budget.max_argument, 500)
    ph = phi(L, mod_ring(9))
    through = t.series(ph**9, ph.substitute_power(3) ** 3, "phi^9 == phi(q^3)^3 (mod 9)")
    return {"modulus": 9, "order": L}, (0, through)


_EULER_POWER_PAIRS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2))


@_check(
    "lemma-euler-power",
    "(q;q)^(p^a) == (q^p;q^p)^(p^(a-1)) (mod p^a) for the seven (p, a) pairs up to (5, 2)",
)
def _check_lemma_euler_power(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    L = min(budget.max_argument, 500)
    for p, a in _EULER_POWER_PAIRS:
        if p > budget.max_prime or a > budget.max_alpha:
            t.skip(p, p=p, alpha=a)
            continue
        e = euler_product(L, mod_ring(p**a))
        t.series(
            e ** (p**a),
            e.substitute_power(p) ** (p ** (a - 1)),
            "(q;q)^(p^a) == (q^p;q^p)^(p^(a-1)) (mod p^a)",
            args=lambda k: {"p": p, "alpha": a, "coefficient": k},
        )
    return {"order": L, "pairs": len(_EULER_POWER_PAIRS) - len(t.skipped_points)}, (0, L)


@_check(
    "final-step",
    "sum_n pbar(5n)(-q)^n == phi(q)^3 (mod 5), and sum_n pbar(3n)(-q)^n == phi(q)^5 (mod 9)",
    "needs max_argument >= 5",
)
def _check_final_step(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    if M < 5:
        return {"max_argument": M}, (0, 0)
    lhs5 = bank.overpartition(5).extract_progression(5, 0).alternate_signs()
    t.series(
        lhs5,
        bank.rk(3, 5),
        "sum pbar(5n)(-q)^n == phi^3 (mod 5)",
        ("signed_pbar_5n", "r3"),
        lambda k: {"modulus": 5, "coefficient": k},
    )
    lhs9 = bank.overpartition(9).extract_progression(3, 0).alternate_signs()
    t.series(
        lhs9,
        bank.rk(5, 9),
        "sum pbar(3n)(-q)^n == phi^5 (mod 9)",
        ("signed_pbar_3n", "r5"),
        lambda k: {"modulus": 9, "coefficient": k},
    )
    parameters = {"max_argument": M, "terms_mod_5": lhs5.order + 1, "terms_mod_9": lhs9.order + 1}
    return parameters, (0, max(lhs5.order, lhs9.order))


@_check(
    "rk-route-agreement",
    "r4/r8 divisor-sum formulas and the lattice enumerator agree with the phi-power series",
)
def _check_rk_routes(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    lim_formula = min(M, 2000)
    r4s = bank.rk(4, None, order=lim_formula)
    r8s = bank.rk(8, None, order=lim_formula)
    for n in range(1, lim_formula + 1):
        f4, s4 = r4_formula(n), r4s.coeffs[n]
        t.expect(f4 == s4, {"k": 4, "n": n}, {"formula": f4, "series": s4}, "r4 routes agree")
        f8, s8 = r8_formula(n), r8s.coeffs[n]
        t.expect(f8 == s8, {"k": 8, "n": n}, {"formula": f8, "series": s8}, "r8 routes agree")
    brute_grid = ((3, min(M, 300)), (4, min(M, 300)), (5, min(M, 100)), (8, min(M, 100)))
    for k, lim in brute_grid:
        series = bank.rk(k, None) if k in (3, 5) else bank.rk(k, None, order=lim_formula)
        for n in range(0, lim + 1):
            b = rk_bruteforce(k, n)
            s = series.coeffs[n]
            t.expect(
                b == s,
                {"k": k, "n": n},
                {"bruteforce": b, "series": s},
                "lattice enumeration agrees with the series",
            )
    parameters = {
        "formula_limit": lim_formula,
        "brute_limit_k34": min(M, 300),
        "brute_limit_k58": min(M, 100),
    }
    return parameters, (0, lim_formula)


@_check(
    "lemma-r48-scaling", "r4(pn) == r4(n) (mod p) and r8(pn) == r8(n) (mod p^3) for odd primes p"
)
def _check_r48_scaling(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    lim = min(budget.max_argument, 1000)
    r4 = [0] + [r4_formula(n) for n in range(1, lim + 1)]
    r8 = [0] + [r8_formula(n) for n in range(1, lim + 1)]
    for p in _odd_primes(budget.max_prime):
        p3 = p**3
        for n in range(1, lim + 1):
            r4_pn = r4_formula(p * n) % p
            r4_n = r4[n] % p
            t.expect(
                r4_pn == r4_n,
                {"k": 4, "p": p, "n": n},
                {"r4_pn_mod_p": r4_pn, "r4_n_mod_p": r4_n},
                "r4(pn) == r4(n) (mod p)",
            )
            r8_pn = r8_formula(p * n) % p3
            r8_n = r8[n] % p3
            t.expect(
                r8_pn == r8_n,
                {"k": 8, "p": p, "n": n},
                {"r8_pn": r8_pn, "r8_n": r8_n},
                "r8(pn) == r8(n) (mod p^3)",
            )
    return {"n_limit": lim, "max_prime": budget.max_prime}, (1, lim)


@_check("lemma-r3-four", "r3(4^a (8n+7)) == 0 and r3(4^a n) == r3(n)")
def _check_r3_four(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    r3x = bank.rk(3, None)
    for alpha in range(budget.max_alpha + 1):
        base = 4**alpha
        if base * 7 > M:
            t.skip(base * 7, alpha=alpha, family="vanishing")
        for n in range((M // base + 1) // 8):  # base * (8n + 7) <= M
            arg = base * (8 * n + 7)
            t.expect(
                r3x.coeffs[arg] == 0,
                {"alpha": alpha, "n": n, "argument": arg},
                {"r3": r3x.coeffs[arg]},
                "r3(4^a (8n+7)) == 0",
            )
        if alpha == 0:
            continue
        if base > M:
            t.skip(base, alpha=alpha, family="invariance")
        for n in range(1, M // base + 1):
            t.expect(
                r3x.coeffs[base * n] == r3x.coeffs[n],
                {"alpha": alpha, "n": n},
                {"r3_4an": r3x.coeffs[base * n], "r3_n": r3x.coeffs[n]},
                "r3(4^a n) == r3(n)",
            )
    return {"max_argument": M, "max_alpha": budget.max_alpha}, (1, M)


@_check(
    "lemma-r3-recursion",
    "the r3 prime-power recursion reproduces the series coefficients at p^(2a) n, all n",
)
def _check_r3_recursion(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    r3x = bank.rk(3, None)
    for p in _odd_primes(budget.max_prime):
        psq = p * p
        for alpha in range(1, budget.max_alpha + 1):
            p2a = p ** (2 * alpha)
            if p2a > M:
                t.skip(p2a, p=p, alpha=alpha)
            for n in range(1, M // p2a + 1):
                base = {n: r3x.coeffs[n]}
                if n % psq == 0:
                    base[n // psq] = r3x.coeffs[n // psq]
                got = r3_recursion(p, alpha, n, base)
                want = r3x.coeffs[p2a * n]
                t.expect(
                    got == want,
                    {"p": p, "alpha": alpha, "n": n},
                    {"recursion": got, "series": want},
                    "r3 recursion matches the series",
                )
    return asdict(budget), (1, M)


@_check(
    "lemma-r5-recursion",
    "the r5 prime-power recursion reproduces the series coefficients at p^(2a) n, p^2 not dividing n",
)
def _check_r5_recursion(budget: Budget, bank: SeriesBank, t: Tally) -> Sweep:
    M = budget.max_argument
    r5x = bank.rk(5, None)
    for p in _odd_primes(budget.max_prime):
        for alpha in range(1, budget.max_alpha + 1):
            p2a = p ** (2 * alpha)
            if p2a > M:
                t.skip(p2a, p=p, alpha=alpha)
            for n in _coprime_to(p * p, M // p2a):
                got = r5_recursion(p, alpha, n, {n: r5x.coeffs[n]})
                want = r5x.coeffs[p2a * n]
                t.expect(
                    got == want,
                    {"p": p, "alpha": alpha, "n": n},
                    {"recursion": got, "series": want},
                    "r5 recursion matches the series",
                )
    return asdict(budget), (1, M)


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

def all_check_ids() -> list[str]:
    return list(REGISTRY)


def coverage_manifest() -> dict[str, str]:
    """check_id -> the congruence or identity it sweeps."""
    return {cid: c.statement for cid, c in REGISTRY.items()}


def iter_check_reports(
    check_ids,
    budget: Budget,
    *,
    stop_on_first: bool = False,
    bank: SeriesBank | None = None,
) -> Iterator[CheckReport]:
    """Run the named checks one after another, yielding reports in the requested order.

    Unknown ids raise KeyError before any computation.  A report's elapsed_ms
    includes building the shared series its check is the first to use.
    """
    defs = [REGISTRY[cid] for cid in check_ids]
    if bank is None:
        bank = SeriesBank(budget)
    for d in defs:
        t0 = perf_counter()
        tally = Tally(d.skip_reason)
        parameters, range_tested = d.fn(budget, bank, tally)
        report = finalize_report(
            d.check_id,
            parameters,
            range_tested,
            tally.counterexamples,
            tally.tested,
            int((perf_counter() - t0) * 1000),
            tally.skipped_points,
            tally.skip_reason,
        )
        yield report
        if stop_on_first and report.status == STATUS_FAIL:
            return


def run_checks(
    check_ids,
    budget: Budget,
    *,
    stop_on_first: bool = False,
    bank: SeriesBank | None = None,
) -> tuple[list[CheckReport], dict]:
    reports = list(iter_check_reports(check_ids, budget, stop_on_first=stop_on_first, bank=bank))
    return reports, summary_counts(reports)
