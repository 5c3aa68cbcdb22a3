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
        "enumerate(other.coeffs[: n + 1]) if j and cj]",
        "enumerate(other.coeffs[: n // 2 + 1]) if j and cj]",
    ),
    Mutant(
        "backend-limit-strict",
        "src/overq/series.py",
        "if na * nb <= _SCHOOLBOOK_PAIR_LIMIT:",
        "if na * nb < _SCHOOLBOOK_PAIR_LIMIT:",
    ),
    Mutant(
        "packing-drops-negative-part",
        "src/overq/series.py",
        "pos = ap * bp + an * bn",
        "pos = ap * bp",
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
        "build = lambda: phi(order, mod_ring(40)).alternate_signs().inverse()",
        'build = lambda: self._get(("gf", None, order), exact).reduce_mod(40)',
    ),
    Mutant(
        "bank-reduces-by-wrong-modulus",
        "src/overq/checks.py",
        '("gf", None, order), exact).reduce_mod(modulus)',
        '("gf", None, order), exact).reduce_mod(2 * modulus)',
    ),
    Mutant(
        "crt-sign",
        "src/overq/checks.py",
        "(r2 - r1)",
        "(r2 + r1)",
    ),
    Mutant(
        "alternate-signs-parity",
        "src/overq/series.py",
        "k % 2 == 0",
        "k % 2 == 1",
    ),
    Mutant(
        "r3-legendre-sign",
        "src/overq/squares.py",
        "legendre(-n, p)",
        "legendre(n, p)",
    ),
    Mutant(
        "tally-cap-off-by-one",
        "src/overq/checks.py",
        "if len(self.counterexamples) < _MAX_RECORDED_COUNTEREXAMPLES:",
        "if len(self.counterexamples) <= _MAX_RECORDED_COUNTEREXAMPLES:",
    ),
    Mutant(
        "invert-unit-skips-gcd",
        "src/overq/series.py",
        "if g != 1:",
        "if g == 0:",
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
