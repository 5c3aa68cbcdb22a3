"""Report types for congruence sweeps: budgets, per-check reports, summaries.

Reports are designed to round-trip through JSON lines with deterministic key
order, so two runs with the same budget differ only in elapsed_ms.  Coefficient
values inside counterexamples are serialized as decimal strings; they can
exceed 64 bits well inside the default budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"


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


@dataclass
class CheckReport:
    """Outcome of one theorem sweep.

    status is "fail" exactly when counterexamples is nonempty; a run whose grid
    contains no testable point is "skipped" (with a reason), never a silent
    pass.  skipped_points records grid points whose smallest instance exceeds
    the budget, each with that minimal argument (as a decimal string; these
    get astronomically large for high prime powers).
    """

    check_id: str
    parameters: dict
    range_tested: tuple[int, int]
    counterexamples: list[dict]
    elapsed_ms: int
    status: str
    reason: str | None = None
    skipped_points: list[dict] = field(default_factory=list)

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


def finalize_report(
    check_id: str,
    parameters: dict,
    range_tested: tuple[int, int],
    counterexamples: list[dict],
    tested_count: int,
    elapsed_ms: int,
    skipped_points: list[dict] | None = None,
    skip_reason: str | None = None,
) -> CheckReport:
    """Derive the status from what was actually tested.

    Fail iff counterexamples exist; skipped iff nothing was tested (the reason
    defaults to an honest "no grid points within budget").
    """
    skipped_points = skipped_points or []
    if counterexamples:
        status, reason = STATUS_FAIL, None
    elif tested_count == 0:
        status = STATUS_SKIPPED
        reason = skip_reason or "no grid points within budget"
    else:
        status, reason = STATUS_PASS, None
    return CheckReport(
        check_id=check_id,
        parameters=parameters,
        range_tested=range_tested,
        counterexamples=counterexamples,
        elapsed_ms=elapsed_ms,
        status=status,
        reason=reason,
        skipped_points=skipped_points,
    )


def summary_counts(reports) -> dict:
    """Terminating summary object for a JSON-lines report stream."""
    counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_SKIPPED: 0}
    for r in reports:
        counts[r.status] += 1
    return counts
