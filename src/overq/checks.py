"""Congruence sweeps: one registered checker per statement, machine-readable reports.

A checker derives its grid deterministically from a Budget, reads shared base
series out of a SeriesBank, and feeds each grid point to its CheckReport, whose
status follows from what was tested: fail iff counterexamples were found,
skipped iff the budget left nothing to test.  Progression grids come from
_grid, the one place that decides what lies beyond the budget: it records a
grid point with no instance within it in skipped_points at its minimal
argument.  It decides the 40n+35 grids of conj-40 and cor-5-4alpha too.
Three sweep shapes each serve two checks, take only the numbers of their
statements and derive the rest: _signed_progression (thm-main, thm-mod9),
_prime_power_family (fam-5p-high, fam-3p-high) and _recursion_against_series
(the two recursion lemmas).  _vanishing expects a series to vanish on the grid
points of fam-5power, fam-5p3's direct half, cor-5-4alpha's part 1 and
lemma-r3-four's vanishing half; the other checkers keep their own loops.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Iterator

from .arith import is_square, is_twice_square, primes_up_to
from .reporting import STATUS_FAIL, Budget, CheckReport, summary_counts
from .series import EXACT, RingSpec, TruncatedSeries, mod_ring
from .squares import (
    r3_recursion,
    r4_formula,
    r4_table,
    r5_recursion,
    r8_formula,
    r8_table,
    rk_bruteforce_table,
    rk_series,
)
from .theta import euler_product, overpartition_by_theta, overpartition_gf, p4n3_product_form, phi


class SeriesBank:
    """Memoized construction of the shared base series for one budget.

    Each series is built once, by the first checker that asks for it, and
    shared by every later one.  Overpartition series are residue-first: both
    routes of overpartition_gf are compared over Z/360 = lcm(5, 8, 9), and the
    series mod 5, 8 and 9 are reductions of that one.  The series mod 40 and
    the exact series are builds of their own by overpartition_by_theta (see
    overpartition); id-4n3 checks the exact one against the independent
    product form.  An r_k series mod m is reduce_mod(m) of the exact one.
    """

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self._cache: dict = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # A reduced series reaches its source through _get rather than the public
    # methods, so that a request is one bank access, not two nested ones.

    def overpartition(self, modulus: int | None = None) -> TruncatedSeries:
        order = self.budget.max_argument
        dual = lambda: overpartition_gf(order, mod_ring(360))
        if modulus in (None, 40):
            # conj-40 compares the series mod 40 with the series mod 8 and 5.
            # Were it a reduction of the same source, that comparison would be
            # a tautology, so it is built on its own over Z/40.
            build = lambda: overpartition_by_theta(order, RingSpec(modulus))
        elif modulus == 360:
            build = dual
        else:
            build = lambda: self._get(("gf", 360, order), dual).reduce_mod(modulus)
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


# A checker sweeps its grid into the report and returns (parameters, range_tested).
Sweep = tuple[dict, tuple[int, int]]


@dataclass(frozen=True)
class CheckDef:
    """One registered sweep; skip_reason explains a run that tested nothing."""

    check_id: str
    statement: str
    fn: Callable[[Budget, SeriesBank, CheckReport], Sweep]
    skip_reason: str | None = None


REGISTRY: dict[str, CheckDef] = {}


def _check(check_id: str, statement: str, skip_reason: str | None = None):
    """Register the decorated checker; registration order is report order."""

    def register(fn):
        REGISTRY[check_id] = CheckDef(check_id, statement, fn, skip_reason)
        return fn

    return register


def _odd_primes(limit: int) -> list[int]:
    return [p for p in primes_up_to(limit) if p >= 3]


def _grid(
    t: CheckReport | None, max_argument: int, step: int, offset=0, start=1, without=0, **point
) -> range | list[int]:
    """The n >= start with offset + step * n <= max_argument, leaving out the
    multiples of `without` unless it is 0.  This decides every skip: with no
    such n, a report t records the grid point `point` at its minimal argument.
    """
    hi = (max_argument - offset) // step
    if not without:
        grid = range(start, hi + 1)
    else:
        grid = [n for n in range(start, hi + 1) if n % without]
    if not grid and t is not None:
        first = start + 1 if without and start % without == 0 else start
        t.skip(offset + step * first, **point)
    return grid


def _qualifying_40n35(max_argument: int) -> list[tuple[int, int, int]]:
    """All (alpha, n, 4^alpha * (40n + 35)) with the argument within budget,
    alpha first; every alpha with 4^alpha <= max_argument is below its bit length.
    """
    return [
        (alpha, n, 4**alpha * (40 * n + 35))
        for alpha in range(max_argument.bit_length())
        for n in _grid(None, max_argument, 40 * 4**alpha, 35 * 4**alpha, start=0)
    ]


def _vanishing(t: CheckReport, coeffs, key: str, relation: str, points) -> None:
    """Expect coeffs[argument] == 0, a residue of 0 for a modular series, at each
    (args, argument) point; a failure records args with its argument.
    """
    for args, arg in points:
        t.tested += 1
        if v := coeffs[arg]:
            t.record({**args, "argument": arg}, {key: v}, relation)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _signed_progression(q: int, k: int, m: int, subset: int | None = None):
    """The sweep of pbar(q n) == (-1)^n r_k(n) (mod m) for n >= 1, each failure also
    compared mod subset, if given.  Keys, relations and parameters follow from
    q, k and m; a point names its modulus only when a subset makes two of them.
    """
    moduli = (m, subset) if subset else (m,)
    labels = {
        mod: (f"pbar_{q}n_mod_{mod}", f"signed_r{k}_mod_{mod}",
              f"pbar({q}n) == (-1)^n r{k}(n) (mod {mod})")
        for mod in moduli
    }
    parameters = {"modulus": m, "subset_modulus": subset} if subset else {"modulus": m}

    def sweep(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
        hi = budget.max_argument // q
        if hi >= 1:
            gf = bank.overpartition(m).coeffs
            signed = bank.rk(k, m).alternate_signs().coeffs
            for n, left, right in zip(range(1, hi + 1), gf[q::q], signed[1:]):
                if left == right:
                    continue
                for mod in moduli:
                    if (left - right) % mod:
                        left_key, right_key, relation = labels[mod]
                        point = {"n": n, "modulus": mod} if subset else {"n": n}
                        t.record(point, {left_key: left % mod, right_key: right % mod}, relation)
            t.tested += hi
        return {**parameters, "max_argument": budget.max_argument}, (1, hi)

    return sweep


_check("thm-main", "pbar(5n) == (-1)^n r3(n) (mod 5) for n >= 1", "needs max_argument >= 5")(
    _signed_progression(5, 3, 5)
)
_check(
    "thm-mod9",
    "pbar(3n) == (-1)^n r5(n) (mod 9) for n >= 1, plus the weaker mod-3 form",
    "needs max_argument >= 3",
)(_signed_progression(3, 5, 9, subset=3))


@_check(
    "conj-40",
    "pbar(4^a (40n+35)) == 0 (mod 40), cross-checked against the mod-8 x mod-5 CRT recombination",
    "needs max_argument >= 35",
)
def _check_conj40(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    instances = _qualifying_40n35(budget.max_argument)
    if instances:
        gf40 = bank.overpartition(40)
        gf8 = bank.overpartition(8)
        gf5 = bank.overpartition(5)
        for alpha, n, arg in instances:
            v40, v8, v5 = gf40.coeffs[arg], gf8.coeffs[arg], gf5.coeffs[arg]
            # residues mod 40 lie in [0, 40), so both reductions agreeing makes v40 their CRT
            consistent = v40 % 8 == v8 and v40 % 5 == v5
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
def _check_mod8(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
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
def _check_id_4n3(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
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
def _check_fam_5power(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    M = budget.max_argument
    gf5 = bank.overpartition(5).coeffs if M >= 125 else None
    for alpha in range(1, budget.max_alpha + 1):
        base = 5 ** (2 * alpha + 1)
        for r in (1, 4):
            grid = _grid(t, M, 5 * base, base * r, start=0, alpha=alpha, residue=r)
            points = (({"alpha": alpha, "residue": r, "n": n}, base * (5 * n + r)) for n in grid)
            _vanishing(t, gf5, "pbar_mod_5", "pbar(5^(2a+1)(5n+r)) == 0 (mod 5)", points)
    return {"modulus": 5, "max_argument": M, "max_alpha": budget.max_alpha}, (125, M)


@_check(
    "fam-5p3",
    "pbar(5 p^3 n) == 0 (mod 5) for primes p == 4 (mod 5), n coprime to p; "
    "out-of-budget instances verified through r3(p^3 n) == (p+1) r3(pn) == 0 (mod 5)",
)
def _check_fam_5p3(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
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
    r3 = bank.rk(3, None).coeffs
    gf5 = bank.overpartition(5).coeffs
    for p in ps:
        step = 5 * p**3
        direct = _grid(t, M, step, without=p, p=p, family="direct")
        points = (({"p": p, "n": n}, step * n) for n in direct)
        _vanishing(t, gf5, "pbar_mod_5", "pbar(5 p^3 n) == 0 (mod 5)", points)
        for n0 in _grid(None, M, p, without=p):
            val = r3_recursion(p, 1, p * n0, r3)
            t.expect(
                val % 5 == 0,
                {"p": p, "n": n0, "argument_exponent": 3},
                {"r3_recursion_mod_5": val % 5},
                "r3(p^3 n) == 0 (mod 5)",
            )
    return parameters, (1, M)


def _prime_power_family(q: int, k: int, branches: dict[int, list[tuple[int, int, int]]]):
    """The sweep of pbar(q p^e N) == 0 (mod m) for odd primes p != q, N coprime
    to p and e = slope * alpha + offset, for each (m, slope, offset) in
    branches[p % q].

    Direct instances are read from the overpartition series mod the largest m,
    which every m divides; the first ones, q p^e at the smallest p, are 375 for
    q = 3 and 10,935 for q = 5.  The divisibility r_k(p^e N) == 0 (mod m) that
    drives the family is checked through the r_k recursion from every in-budget
    base r_k(pN).  m is named with each point if it varies by branch, else in
    the parameters, and the labels of a failing point follow suit.
    """
    moduli = {m for rows in branches.values() for m, _, _ in rows}
    gf_modulus = max(moduli)
    varies = len(moduli) > 1
    value, mod = ("residue", "m") if varies else (f"mod_{gf_modulus}", gf_modulus)
    pbar_value, pbar_relation = f"pbar_{value}", f"pbar({q} p^e N) == 0 (mod {mod})"
    rk_value, rk_relation = f"r{k}_recursion_{value}", f"r{k}(p^e N) == 0 (mod {mod})"

    def sweep(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
        M = budget.max_argument
        gf = bank.overpartition(gf_modulus)
        rk = bank.rk(k, None).coeffs
        recursion = r3_recursion if k == 3 else r5_recursion
        for p in _odd_primes(budget.max_prime):
            if p == q:
                continue
            bases = _grid(None, M, p, without=p)
            for m, slope, offset in branches[p % q]:
                named = {"modulus": m} if varies else {}
                for alpha in range(budget.max_alpha + 1):
                    e = slope * alpha + offset
                    step = q * p**e
                    half = (e - 1) // 2  # p^e N = p^(2 half) * pN
                    args = lambda N: {"p": p, "alpha": alpha, "N": N, "exponent": e, **named}
                    point = {"p": p, "alpha": alpha, "exponent": e, **named, "family": "direct"}
                    direct = _grid(t, M, step, without=p, **point)
                    for n in direct:
                        if v := gf.coeffs[step * n] % m:
                            t.record(args(n), {pbar_value: v}, pbar_relation)
                    for n0 in bases:
                        val = recursion(p, half, p * n0, rk)
                        if val % m:
                            t.record(args(n0), {rk_value: val % m}, rk_relation)
                    t.tested += len(direct) + len(bases)
        parameters = {} if varies else {"modulus": gf_modulus}
        return {**parameters, **asdict(budget)}, (1, M)

    return sweep


_check(
    "fam-5p-high",
    "pbar(5 p^(10a+9) N) == 0 (mod 5) for p == 1 (mod 5); pbar(5 p^(8a+7) N) == 0 (mod 5) "
    "for p == 2,3,4 (mod 5); N coprime to p; driven by the r3 recursion divisibility",
)(_prime_power_family(5, 3, {1: [(5, 10, 9)], 2: [(5, 8, 7)], 3: [(5, 8, 7)], 4: [(5, 8, 7)]}))
_check(
    "fam-3p-high",
    "pbar(3 p^(6a+5) N) == 0 (mod 3) and pbar(3 p^(18a+17) N) == 0 (mod 9) for p == 1 (mod 3); "
    "pbar(3 p^(4a+3) N) == 0 (mod 9) for p == 2 (mod 3); N coprime to p; "
    "driven by the r5 recursion",
)(_prime_power_family(3, 5, {1: [(3, 6, 5), (9, 18, 17)], 2: [(9, 4, 3)]}))


@_check(
    "cor-5-4alpha",
    "pbar(4^a (40n+35)) == 0 (mod 5), and pbar(5 * 4^(a+1) n) == (-1)^n pbar(5n) (mod 5)",
)
def _check_cor_5_4alpha(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    M = budget.max_argument
    gf5 = bank.overpartition(5)
    points = (({"part": 1, "alpha": a, "n": n}, arg) for a, n, arg in _qualifying_40n35(M))
    _vanishing(t, gf5.coeffs, "pbar_mod_5", "pbar(4^a (40n+35)) == 0 (mod 5)", points)
    signed = gf5.extract_progression(5, 0).alternate_signs()
    for alpha in range(budget.max_alpha + 1):
        t.series(
            gf5.extract_progression(5 * 4 ** (alpha + 1), 0),
            signed,
            "pbar(5 * 4^(a+1) n) == (-1)^n pbar(5n) (mod 5)",
            ("pbar_5_4a1_n_mod_5", "signed_pbar_5n_mod_5"),
            lambda n: {"part": 2, "alpha": alpha, "n": n},
        )
    return {"modulus": 5, "max_argument": M, "max_alpha": budget.max_alpha}, (0, M)


@_check("replay-phi5", "phi(q)^5 == phi(q^5) (mod 5) coefficient-wise")
def _check_replay_phi5(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    L = min(budget.max_argument, 500)
    ph = phi(L, mod_ring(5))
    through = t.series(ph**5, ph.substitute_power(5), "phi^5 == phi(q^5) (mod 5)")
    return {"modulus": 5, "order": L}, (0, through)


@_check("replay-phi9", "phi(q)^9 == phi(q^3)^3 (mod 9) coefficient-wise")
def _check_replay_phi9(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    L = min(budget.max_argument, 500)
    ph = phi(L, mod_ring(9))
    through = t.series(ph**9, ph.substitute_power(3) ** 3, "phi^9 == phi(q^3)^3 (mod 9)")
    return {"modulus": 9, "order": L}, (0, through)


_EULER_POWER_PAIRS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2))


@_check(
    "lemma-euler-power",
    "(q;q)^(p^a) == (q^p;q^p)^(p^(a-1)) (mod p^a) for the seven (p, a) pairs up to (5, 2)",
)
def _check_lemma_euler_power(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
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
def _check_final_step(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    M = budget.max_argument
    if M < 5:
        return {"max_argument": M}, (0, 0)
    parameters, through = {"max_argument": M}, 0
    for q, k, m in ((5, 3, 5), (3, 5, 9)):
        lhs = bank.overpartition(m).extract_progression(q, 0).alternate_signs()
        t.series(
            lhs,
            bank.rk(k, m),
            f"sum pbar({q}n)(-q)^n == phi^{k} (mod {m})",
            (f"signed_pbar_{q}n", f"r{k}"),
            lambda j: {"modulus": m, "coefficient": j},
        )
        parameters[f"terms_mod_{m}"] = lhs.order + 1
        through = max(through, lhs.order)
    return parameters, (0, through)


@_check(
    "rk-route-agreement",
    "r4/r8 divisor-sum formulas and the lattice enumerator agree with the phi-power series",
)
def _check_rk_routes(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
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
        t.series(
            TruncatedSeries.make(EXACT, rk_bruteforce_table(k, lim)),
            series,
            "lattice enumeration agrees with the series",
            ("bruteforce", "series"),
            lambda n: {"k": k, "n": n},
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
def _check_r48_scaling(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    lim = min(budget.max_argument, 1000)
    primes = _odd_primes(budget.max_prime)
    # one sieve per formula covers every pn; each side is read from the table,
    # so r(pn) is not derived from r(n) and the congruence stays a test
    size = lim * max(primes, default=1)
    r4 = r4_table(size)
    r8 = r8_table(size)
    for p in primes:
        p3 = p**3
        for n in range(1, lim + 1):
            r4_pn = r4[p * n] % p
            r4_n = r4[n] % p
            t.expect(
                r4_pn == r4_n,
                {"k": 4, "p": p, "n": n},
                {"r4_pn_mod_p": r4_pn, "r4_n_mod_p": r4_n},
                "r4(pn) == r4(n) (mod p)",
            )
            r8_pn = r8[p * n] % p3
            r8_n = r8[n] % p3
            t.expect(
                r8_pn == r8_n,
                {"k": 8, "p": p, "n": n},
                {"r8_pn": r8_pn, "r8_n": r8_n},
                "r8(pn) == r8(n) (mod p^3)",
            )
    return {"n_limit": lim, "max_prime": budget.max_prime}, (1, lim)


@_check("lemma-r3-four", "r3(4^a (8n+7)) == 0 and r3(4^a n) == r3(n)")
def _check_r3_four(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
    M = budget.max_argument
    r3x = bank.rk(3, None)
    for alpha in range(budget.max_alpha + 1):
        base = 4**alpha
        grid = _grid(t, M, 8 * base, 7 * base, start=0, alpha=alpha, family="vanishing")
        points = (({"alpha": alpha, "n": n}, base * (8 * n + 7)) for n in grid)
        _vanishing(t, r3x.coeffs, "r3", "r3(4^a (8n+7)) == 0", points)
        if alpha == 0:
            continue
        for n in _grid(t, M, base, alpha=alpha, family="invariance"):
            t.expect(
                r3x.coeffs[base * n] == r3x.coeffs[n],
                {"alpha": alpha, "n": n},
                {"r3_4an": r3x.coeffs[base * n], "r3_n": r3x.coeffs[n]},
                "r3(4^a n) == r3(n)",
            )
    return {"max_argument": M, "max_alpha": budget.max_alpha}, (1, M)


def _recursion_against_series(k: int):
    """The sweep of the r_k prime-power recursion against the series at p^(2a) n,
    from r_k(n) and, if p^2 | n, r_k(n / p^2).  The grid follows the
    recursion's hypothesis: r5's holds only where p^2 does not divide n.
    """

    def sweep(budget: Budget, bank: SeriesBank, t: CheckReport) -> Sweep:
        M = budget.max_argument
        rk = bank.rk(k, None).coeffs
        recursion = r3_recursion if k == 3 else r5_recursion
        relation = f"r{k} recursion matches the series"
        for p in _odd_primes(budget.max_prime):
            without = p * p if k == 5 else 0
            for alpha in range(1, budget.max_alpha + 1):
                p2a = p ** (2 * alpha)
                for n in _grid(t, M, p2a, without=without, p=p, alpha=alpha):
                    got = recursion(p, alpha, n, rk)
                    want = rk[p2a * n]
                    t.expect(
                        got == want,
                        {"p": p, "alpha": alpha, "n": n},
                        {"recursion": got, "series": want},
                        relation,
                    )
        return asdict(budget), (1, M)

    return sweep


_check(
    "lemma-r3-recursion",
    "the r3 prime-power recursion reproduces the series coefficients at p^(2a) n, all n",
)(_recursion_against_series(3))
_check(
    "lemma-r5-recursion",
    "the r5 prime-power recursion reproduces the series coefficients at p^(2a) n, "
    "p^2 not dividing n",
)(_recursion_against_series(5))


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
        report = CheckReport(d.check_id, skip_reason=d.skip_reason)
        report.parameters, report.range_tested = d.fn(budget, bank, report)
        report.elapsed_ms = int((perf_counter() - t0) * 1000)
        yield report
        if stop_on_first and report.status == STATUS_FAIL:
            return


def run_checks(
    check_ids, budget: Budget, *, bank: SeriesBank | None = None
) -> tuple[list[CheckReport], dict]:
    reports = list(iter_check_reports(check_ids, budget, bank=bank))
    return reports, summary_counts(reports)
