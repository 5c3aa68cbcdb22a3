"""The `queries` workload: a seeded mix of `rk` and `expand` calls, with references.

One client sends the calls of a batch one after another, each only after the
previous one returned (a closed loop), through ``overq.cli.main(argv)``.  The
batch is a fixed set of query classes; the seed draws each parameter inside
its class and shuffles the order.  Fixing the classes keeps the load on each
layer alike across seeds, so seeds differ in inputs, not in how much work of
each kind a run holds.  Small orders dominate the count; a few calls per
batch expand a few thousand terms.

Every expected output is computed here, outside the timed region and without
overq, by routes independent of the library's own:

* r_k(n): lattice counts, r_1 (the one-dimensional count) convolved k times;
* (q;q)_inf: Euler's pentagonal number theorem;
* (-q;q)_inf: distinct-part counts from E(q^2) times the partition numbers,
  which come from the pentagonal recurrence;
* overpartitions: the naive recurrence for 1/phi(-q);
* hs43-rhs: the overpartition counts at 4n+3.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

# Largest n of any rk query: keeps the lattice-count table small.
RK_MAX_N = 5000
MODULI = (5, 8, 9, 40)
SERIES = ("phi", "euler", "neg-euler", "overpartition", "hs43-rhs")
# Terms of the largest expansion of each series in a batch.
LARGE_TERMS = {"phi": 2000, "euler": 2000, "neg-euler": 2000, "overpartition": 1000, "hs43-rhs": 500}
_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@dataclass(frozen=True)
class Query:
    verb: str  # "rk" or "expand"
    k: int = 0
    n: int = 0
    method: str = ""
    cross_check: bool = False
    series: str = ""
    terms: int = 0
    mod: int | None = None

    def argv(self) -> list[str]:
        if self.verb == "rk":
            out = ["rk", "--k", str(self.k), "--n", str(self.n), "--method", self.method]
            return out + ["--cross-check"] if self.cross_check else out
        out = ["expand", self.series, "--terms", str(self.terms)]
        return out + ["--mod", str(self.mod)] if self.mod is not None else out


def _squareful(rng: random.Random, lo: int, hi: int) -> int:
    """An n in [lo, hi] divisible by the square of an odd prime (recursion applies)."""
    while True:
        p = rng.choice([p for p in _ODD_PRIMES if p * p <= hi])
        n = p * p * rng.randint(max(1, -(-lo // (p * p))), hi // (p * p))
        if lo <= n <= hi:
            return n


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of `count` equal slices of [lo, hi].

    Stratified draws keep the summed cost of a class nearly the same for every
    seed while each seed still gets its own values.
    """
    width = (hi - lo + 1) / count
    return [lo + int(i * width + rng.random() * width) for i in range(count)]


def make_batch(seed: int) -> list[Query]:
    """The batch of one seed: ~200 calls in a seeded order."""
    rng = random.Random(seed)
    batch: list[Query] = []
    for k in (4, 8):
        batch += [Query("rk", k, n, "formula") for n in _strata(rng, 1, RK_MAX_N, 25)]
        batch += [Query("rk", k, n, "formula", True) for n in _strata(rng, 50, 500, 5)]
    for k in range(1, 9):
        batch += [Query("rk", k, n, "series") for n in _strata(rng, 100, 600, 4)]
        batch += [Query("rk", k, n, "bruteforce") for n in _strata(rng, 1, 300, 2)]
    for k in (1, 2, 6, 7):
        batch += [Query("rk", k, n, "series", True) for n in _strata(rng, 100, 500, 1)]
    for k in (3, 5):
        batch += [Query("rk", k, _squareful(rng, 9, RK_MAX_N), "recursion") for _ in range(10)]
        batch += [Query("rk", k, _squareful(rng, 50, 500), "recursion", True) for _ in range(5)]
    for name in SERIES:
        big = LARGE_TERMS[name]
        for modular in (False, True):
            sizes = _strata(rng, 8, 64, 3) + _strata(rng, 100, 200, 2) + _strata(rng, big, big + big // 50, 1)
            batch += [Query("expand", series=name, terms=t, mod=rng.choice(MODULI) if modular else None)
                      for t in sizes]
    rng.shuffle(batch)
    return batch


# -- independent references -------------------------------------------------


def _pentagonal(limit: int):
    """(exponent, sign) of Euler's pentagonal series sum (-1)^k q^(k(3k-1)/2), k in Z."""
    k = 0
    while True:
        for j in ((k,) if k == 0 else (k, -k)):
            g = j * (3 * j - 1) // 2
            if g <= limit:
                yield g, -1 if j % 2 else 1
        if k * (3 * k - 1) // 2 > limit:
            return
        k += 1


class Reference:
    """Expected CLI output for any query of a batch, built without overq."""

    def __init__(self, batch: list[Query]) -> None:
        rk_n = max((q.n for q in batch if q.verb == "rk"), default=0)
        terms = {name: max((q.terms for q in batch if q.series == name), default=1) for name in SERIES}
        op_terms = max(terms["overpartition"], 4 * (terms["hs43-rhs"] - 1) + 4)
        self.rk = self._lattice_counts(rk_n)
        self.euler = [0] * terms["euler"]
        for g, s in _pentagonal(terms["euler"] - 1):
            self.euler[g] = s
        self.partitions = self._partitions(terms["neg-euler"])
        self.distinct = self._distinct(self.partitions)
        self.overpartitions = self._overpartitions(op_terms)

    @staticmethod
    def _lattice_counts(limit: int) -> list[list[int]]:
        """rk[k][n] for 1 <= k <= 8: r_1 lattice counts convolved k times."""
        r1 = np.zeros(limit + 1, dtype=np.int64)
        r1[0] = 1
        r1[[j * j for j in range(1, isqrt(limit) + 1)]] = 2
        rows = [[], r1.tolist()]
        acc = r1
        for _ in range(2, 9):
            # every term is nonnegative, so no partial sum exceeds the result
            acc = np.convolve(acc, r1)[: limit + 1]
            if int(acc.max()) >= 2**62:
                raise OverflowError("lattice-count table outgrew int64")
            rows.append(acc.tolist())
        return rows

    @staticmethod
    def _partitions(count: int) -> list[int]:
        p = [1] + [0] * (count - 1)
        for n in range(1, count):
            p[n] = -sum(s * p[n - g] for g, s in _pentagonal(n) if g)
        return p

    @staticmethod
    def _distinct(p: list[int]) -> list[int]:
        # (-q;q) = E(q^2) / E(q): E(q^2) has exponents 2g at pentagonal g
        return [sum(s * p[n - 2 * g] for g, s in _pentagonal(n // 2)) for n in range(len(p))]

    @staticmethod
    def _overpartitions(count: int) -> list[int]:
        # 1 / phi(-q) with phi(-q) = 1 + 2 sum_{j>=1} (-1)^j q^(j^2)
        pb = [1] + [0] * (count - 1)
        for n in range(1, count):
            s = 0
            j = 1
            while j * j <= n:
                s += pb[n - j * j] if j % 2 else -pb[n - j * j]
                j += 1
            pb[n] = 2 * s
        return pb

    def coefficients(self, name: str, terms: int) -> list[int]:
        if name == "phi":
            return [1] + [2 if isqrt(n) ** 2 == n else 0 for n in range(1, terms)]
        if name == "euler":
            return self.euler[:terms]
        if name == "neg-euler":
            return self.distinct[:terms]
        if name == "overpartition":
            return self.overpartitions[:terms]
        return [self.overpartitions[4 * n + 3] for n in range(terms)]

    def expected(self, q: Query) -> str:
        if q.verb == "rk":
            return json.dumps(str(self.rk[q.k][q.n])) + "\n"
        cs = self.coefficients(q.series, q.terms)
        if q.mod is not None:
            cs = [c % q.mod for c in cs]
        return "".join(json.dumps({"n": n, "coeff": str(c)}) + "\n" for n, c in enumerate(cs))
