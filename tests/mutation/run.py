"""Mutation check: the tier-1 suite must fail on every mutant listed here.

    python tests/mutation/run.py

A mutant is a source file, an exact text that occurs in it once, and the text
that replaces it.  For each mutant the runner copies src/, tests/,
pyproject.toml and README.md into a temporary directory, applies the mutant
there and runs the tier-1 command with -x.  A mutant is killed when the suite fails.  The
unmutated copy is run first and must pass.  The run exits 1 if a mutant
survives or if an old text no longer occurs exactly once (the source moved on
and the mutant must be rewritten), else 0.  A surviving mutant means a test is
missing; it is never a reason to drop the mutant.

Only the standard library is used, and the file sits outside pytest's
collection (pytest collects test_*.py only).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = [
    Mutant(
        "pentagonal-sign",
        "src/overq/theta.py",
        "cs[g] = (-1) ** k",
        "cs[g] = (-1) ** (k + 1)",
    ),
    Mutant(
        "division-support-truncated",
        "src/overq/series.py",
        "            if k and sk:",
        "            if 0 < k <= n // 2 and sk:",
    ),
    Mutant(
        "division-gather-offset-off-by-one",
        "src/overq/series.py",
        "+ (-k,)",
        "+ (-k + 1,)",
    ),
    Mutant(
        "division-term-joins-gather-late",
        "src/overq/series.py",
        "                gathers[sk] = itemgetter(*offsets[sk])\n"
        "            acc = ak\n"
        "            for c, gather in gathers.items():\n"
        "                acc -= c * sum(gather(b))\n",
        "            acc = ak\n"
        "            for c, gather in gathers.items():\n"
        "                acc -= c * sum(gather(b))\n"
        "            if k and sk:\n"
        "                gathers[sk] = itemgetter(*offsets[sk])\n",
    ),
    Mutant(
        "packed-slot-drops-margin-digit",
        "src/overq/series.py",
        "w = _digits(bound) + 1",
        "w = _digits(bound)",
    ),
    Mutant(
        "packed-width-bound-ignores-length",
        "src/overq/series.py",
        "bound = min(sum(map(abs, a)) * bmax, amax * sum(map(abs, b)))",
        "bound = amax * bmax",
    ),
    Mutant(
        "signed-unpack-drops-half-offset",
        "src/overq/series.py",
        "half = 10**w // 2",
        "half = 0",
    ),
    Mutant(
        "packing-drops-negative-part",
        "src/overq/series.py",
        "return _CTX.subtract(pos, neg)",
        "return pos",
    ),
    Mutant(
        "square-shortcut-ignores-operand",
        "src/overq/series.py",
        "pa if a == b else",
        "pa if len(a) == len(b) else",
    ),
    Mutant(
        "division-skips-unit-check",
        "src/overq/series.py",
        "inv0 = self.ring.invert_unit(other.coeffs[0])",
        "inv0 = 1",
    ),
    Mutant(
        "division-skips-ring-check",
        "src/overq/series.py",
        "self._require_same_ring(other)\n        inv0 =",
        "inv0 =",
    ),
    Mutant(
        "bank-mod-40-by-reduction",
        "src/overq/checks.py",
        "if modulus in (None, 40):",
        "if modulus is None:",
    ),
    Mutant(
        "bank-reduces-by-wrong-modulus",
        "src/overq/checks.py",
        '("gf", 360, order), dual).reduce_mod(modulus)',
        '("gf", 360, order), dual).reduce_mod(2 * modulus)',
    ),
    Mutant(
        "theta-route-drops-sign-change",
        "src/overq/theta.py",
        "return phi(order, ring).alternate_signs().inverse()",
        "return phi(order, ring).inverse()",
    ),
    Mutant(
        "modular-division-negates-inverse",
        "src/overq/series.py",
        "else inv0 * acc % m",
        "else -inv0 * acc % m",
    ),
    Mutant(
        "r3-four-grid-drops-last-point",
        "src/overq/checks.py",
        "_grid(t, M, 8 * base, 7 * base",
        "_grid(t, M - 1, 8 * base, 7 * base",
    ),
    Mutant(
        "mod8-grid-drops-last-point",
        "src/overq/checks.py",
        "range(1, M + 1)",
        "range(1, M)",
    ),
    Mutant(
        "grid-keeps-multiples",
        "src/overq/checks.py",
        "if n % without]",
        "if n % without or True]",
    ),
    Mutant(
        "grid-skips-at-a-multiple",
        "src/overq/checks.py",
        "first = start + 1 if without and start % without == 0 else start",
        "first = start",
    ),
    Mutant(
        "signed-progression-drops-subset",
        "src/overq/checks.py",
        "moduli = (m, subset) if subset else (m,)",
        "moduli = (m,)",
    ),
    Mutant(
        "family-point-drops-its-modulus",
        "src/overq/checks.py",
        'named = {"modulus": m} if varies else {}',
        "named = {}",
    ),
    Mutant(
        "family-direct-half-never-fails",
        "src/overq/checks.py",
        "if v := gf.coeffs[step * n] % m:",
        "if v := 0:",
    ),
    Mutant(
        "vanishing-always-holds",
        "src/overq/checks.py",
        "if v := coeffs[arg]:",
        "if v := 0:",
    ),
    Mutant(
        "vanishing-record-drops-argument",
        "src/overq/checks.py",
        't.record({**args, "argument": arg}, {key: v}, relation)',
        "t.record(args, {key: v}, relation)",
    ),
    Mutant(
        "vanishing-observed-key-fixed",
        "src/overq/checks.py",
        "{key: v}, relation)",
        '{"pbar_mod_5": v}, relation)',
    ),
    Mutant(
        "vanishing-records-a-fixed-value",
        "src/overq/checks.py",
        "{key: v}, relation)",
        "{key: 1}, relation)",
    ),
    Mutant(
        "fam-5power-grid-drops-last-point",
        "src/overq/checks.py",
        "_grid(t, M, 5 * base, base * r",
        "_grid(t, M - 1, 5 * base, base * r",
    ),
    Mutant(
        "cor-5-4alpha-part-2-step-drops-a-4",
        "src/overq/checks.py",
        "gf5.extract_progression(5 * 4 ** (alpha + 1), 0)",
        "gf5.extract_progression(5 * 4 ** alpha, 0)",
    ),
    Mutant(
        "signed-progression-ignores-its-modulus",
        "src/overq/checks.py",
        "    moduli = (m, subset) if subset else (m,)\n",
        "    m = q * q if subset else q\n    moduli = (m, subset) if subset else (m,)\n",
    ),
    Mutant(
        "family-exponent-ignores-its-offset",
        "src/overq/checks.py",
        "e = slope * alpha + offset\n",
        "e = slope * alpha + slope - 1\n",
    ),
    Mutant(
        "family-series-modulus-smallest",
        "src/overq/checks.py",
        "gf_modulus = max(moduli)",
        "gf_modulus = min(moduli)",
    ),
    Mutant(
        "conj-40-drops-mod-8-reduction",
        "src/overq/checks.py",
        "consistent = v40 % 8 == v8 and v40 % 5 == v5",
        "consistent = v40 % 5 == v5",
    ),
    Mutant(
        "conj-40-drops-mod-5-reduction",
        "src/overq/checks.py",
        "consistent = v40 % 8 == v8 and v40 % 5 == v5",
        "consistent = v40 % 8 == v8",
    ),
    Mutant(
        "conj-40-grid-starts-at-1",
        "src/overq/checks.py",
        "35 * 4**alpha, start=0)",
        "35 * 4**alpha, start=1)",
    ),
    Mutant(
        "fam-5p3-relation-drops-modulus",
        "src/overq/checks.py",
        '"pbar(5 p^3 n) == 0 (mod 5)",',
        '"pbar(5 p^3 n) == 0",',
    ),
    Mutant(
        "rk-route-lattice-point-drops-k",
        "src/overq/checks.py",
        'lambda n: {"k": k, "n": n},',
        'lambda n: {"n": n},',
    ),
    Mutant(
        "rk-route-r8-relation-text",
        "src/overq/checks.py",
        '"r8 routes agree"',
        '"r8 route agrees"',
    ),
    Mutant(
        "r48-r8-observed-drops-r8-n",
        "src/overq/checks.py",
        '{"r8_pn": r8_pn, "r8_n": r8_n},',
        '{"r8_pn": r8_pn},',
    ),
    Mutant(
        "r3-four-observed-drops-r3-n",
        "src/overq/checks.py",
        '{"r3_4an": r3x.coeffs[base * n], "r3_n": r3x.coeffs[n]},',
        '{"r3_4an": r3x.coeffs[base * n]},',
    ),
    Mutant(
        "final-step-point-names-q-for-its-modulus",
        "src/overq/checks.py",
        'lambda j: {"modulus": m, "coefficient": j}',
        'lambda j: {"modulus": q, "coefficient": j}',
    ),
    Mutant(
        "alternate-signs-negates-even-terms",
        "src/overq/series.py",
        "cs[1::2] = [-c % m if m else -c for c in cs[1::2]]",
        "cs[0::2] = [-c % m if m else -c for c in cs[0::2]]",
    ),
    Mutant(
        "r3-legendre-sign",
        "src/overq/squares.py",
        "pow(-n % p, half, p)",
        "pow(n % p, half, p)",
    ),
    Mutant(
        "recursion-base-index-error-escapes",
        "src/overq/squares.py",
        "except (KeyError, IndexError):",
        "except KeyError:",
    ),
    Mutant(
        "formula-route-accepts-k6",
        "src/overq/squares.py",
        'route == "formula" and k not in (4, 8)',
        'route == "formula" and k not in (4, 6, 8)',
    ),
    Mutant(
        "bruteforce-budget-off-by-one",
        "src/overq/squares.py",
        "n > BRUTEFORCE_MAX_N[k]",
        "n >= BRUTEFORCE_MAX_N[k]",
    ),
    Mutant(
        "recursion-constant-drops-top-term",
        "src/overq/squares.py",
        "g_hi = g_lo * x + 1",
        "g_hi = g_lo",
    ),
    Mutant(
        "trial-division-steps-by-4-past-the-wheel",
        "src/overq/arith.py",
        "f += 2",
        "f += 4",
    ),
    Mutant(
        "is-prime-takes-a-prime-power",
        "src/overq/arith.py",
        "factor(n) == ((n, 1),)",
        "len(factor(n)) == 1",
    ),
    Mutant(
        "sieve-starts-at-2d",
        "src/overq/arith.py",
        "for m in range(d, limit + 1, d):",
        "for m in range(2 * d, limit + 1, d):",
    ),
    Mutant(
        "r4-weight-keeps-multiples-of-4",
        "src/overq/squares.py",
        "return d if d % 4 != 0 else 0",
        "return d",
    ),
    Mutant(
        "r8-weight-sign",
        "src/overq/squares.py",
        "return d**3 if d % 2 == 0 else -(d**3)",
        "return -(d**3) if d % 2 == 0 else d**3",
    ),
    Mutant(
        "report-cap-off-by-one",
        "src/overq/reporting.py",
        "if len(self.counterexamples) < _MAX_RECORDED_COUNTEREXAMPLES:",
        "if len(self.counterexamples) <= _MAX_RECORDED_COUNTEREXAMPLES:",
    ),
    Mutant(
        "untested-sweep-passes",
        "src/overq/reporting.py",
        "return STATUS_SKIPPED if self.tested == 0 else STATUS_PASS",
        "return STATUS_PASS",
    ),
    Mutant(
        "default-skip-reason-lost",
        "src/overq/reporting.py",
        'return self.skip_reason or "no grid points within budget"',
        "return self.skip_reason",
    ),
    Mutant(
        "invert-unit-skips-gcd",
        "src/overq/series.py",
        "if g != 1:",
        "if g == 0:",
    ),
    Mutant(
        "product-form-sixth-power-stays-exact",
        "src/overq/theta.py",
        "e6 = TruncatedSeries.make(ring,",
        "e6 = TruncatedSeries.make(EXACT,",
    ),
    Mutant(
        "expand-line-format",
        "src/overq/cli.py",
        '"coeff": "{c}"',
        '"coeff":"{c}"',
    ),
    Mutant(
        "broken-pipe-exit-code",
        "src/overq/cli.py",
        "return EXIT_BROKEN_PIPE",
        "return EXIT_COUNTEREXAMPLE",
    ),
    Mutant(
        "cross-check-compares-no-route",
        "src/overq/cli.py",
        "if other == route or",
        "if other != route or",
    ),
    Mutant(
        "verify-exit-reads-wrong-count",
        "src/overq/cli.py",
        'counts["fail"]',
        'counts["skipped"]',
    ),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors"]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):  # tests/test_readme.py runs the README
        shutil.copy2(ROOT / name, dest / name)


def stale(mutant: Mutant) -> bool:
    """True when the old text does not occur exactly once in the current source."""
    return (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) != 1


def run_suite(mutant: Mutant | None) -> int | None:
    """Exit code of the tier-1 suite on a temporary copy, mutated unless None; None on timeout."""
    with tempfile.TemporaryDirectory(prefix="overq-mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        pythonpath = filter(None, [str(work / "src"), os.environ.get("PYTHONPATH")])
        try:
            return subprocess.run(
                TIER1,
                cwd=work,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            return None


def main() -> int:
    bad = []
    for mutant in MUTANTS:
        if stale(mutant):
            print(f"STALE     {mutant.name}: old text no longer occurs exactly once")
            bad.append(mutant.name)
    # Without a passing baseline every mutant would look killed.
    baseline = run_suite(None)
    if baseline != 0:
        print(f"the unmutated suite does not pass (exit code {baseline}); nothing to measure")
        return 1
    for mutant in MUTANTS:
        if mutant.name in bad:
            continue
        code = run_suite(mutant)
        # pytest exits 1 when tests fail; a hang counts as caught too
        verdict = "killed" if code in (1, None) else "SURVIVED" if code == 0 else f"ERROR {code}"
        print(f"{verdict:9} {mutant.name}", flush=True)
        if verdict != "killed":
            bad.append(mutant.name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
