"""Report types for congruence sweeps: budgets, per-check reports, summaries.

Reports are designed to round-trip through JSON lines with deterministic key
order, so two runs with the same budget differ only in elapsed_ms.  Coefficient
values inside counterexamples are serialized as decimal strings; they can
exceed 64 bits well inside the default budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .series import TruncatedSeries

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"

_MAX_RECORDED_COUNTEREXAMPLES = 100


@dataclass(frozen=True)
class Budget:
    """Work bounds every checker derives its grid from, deterministically.

    max_argument is the largest index of an overpartition count or r_k value
    any sweep may evaluate; max_prime and max_alpha bound the (p, alpha) grids
    of the prime-power families.
    """

    max_argument: int = 10_000
    max_prime: int = 23
    max_alpha: int = 3

    def __post_init__(self) -> None:
        for name in ("max_argument", "max_prime", "max_alpha"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def _coefficient(k: int) -> dict:
    return {"coefficient": k}


@dataclass
class CheckReport:
    """Outcome of one theorem sweep, written into by its checker.

    The checker writes into it through expect and series (tested points),
    record (a counterexample alone) and skip (a point beyond the budget); the
    runner then sets parameters, range_tested and elapsed_ms.
    status is "fail" exactly when counterexamples is nonempty; a run that
    tested nothing is "skipped" with a reason (skip_reason, else "no grid
    points within budget"), never a silent pass.  Only the first 100
    counterexamples are recorded, with observed values as decimal strings.
    skipped_points records grid points whose smallest instance exceeds the
    budget, each with that minimal argument (as a decimal string; these get
    astronomically large for high prime powers).
    """

    check_id: str
    parameters: dict = field(default_factory=dict)
    range_tested: tuple[int, int] = (0, 0)
    counterexamples: list[dict] = field(default_factory=list)
    elapsed_ms: int = 0
    skip_reason: str | None = None
    skipped_points: list[dict] = field(default_factory=list)
    tested: int = 0

    @property
    def status(self) -> str:
        if self.counterexamples:
            return STATUS_FAIL
        return STATUS_SKIPPED if self.tested == 0 else STATUS_PASS

    @property
    def reason(self) -> str | None:
        if self.status != STATUS_SKIPPED:
            return None
        return self.skip_reason or "no grid points within budget"

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

    def to_json_dict(self) -> dict:
        d: dict = {
            "check_id": self.check_id,
            "status": self.status,
            "parameters": self.parameters,
            "range_tested": list(self.range_tested),
            "counterexamples": self.counterexamples,
            "skipped_points": self.skipped_points,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.reason is not None:
            d["reason"] = self.reason
        return d


def summary_counts(reports) -> dict:
    """Terminating summary object for a JSON-lines report stream."""
    counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_SKIPPED: 0}
    for r in reports:
        counts[r.status] += 1
    return counts
