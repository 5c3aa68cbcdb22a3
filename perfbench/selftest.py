#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Checks that the references agree with second routes, that every end-to-end
and per-layer metric is emitted, that a traced sweep's bank builds, checkers
and CLI self time cover its wall time, that a deliberately wrong reference
makes the gate count failures, and that the benchmark refuses to run without
the overq sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys

from queries import Reference, make_batch
from run import (
    END_TO_END_UNITS,
    MODULAR_IDS,
    OUT,
    HERE,
    reference_digests,
    run_queries,
    run_sweep,
)
from tracer import LAYER_UNITS

TINY_SWEEPS = {
    "tiny-default": (["verify", "--all", "--max-arg", "300"], 19),
    "tiny-modular": (["verify", "--checks", ",".join(MODULAR_IDS), "--max-arg", "300"], 18),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"ok   {what}")


def tiny_batch(seed: int) -> list:
    small = [q for q in make_batch(seed) if q.n <= 300 and q.terms <= 64]
    return small[:40]


def check_references() -> None:
    batch = make_batch(7)
    ref = Reference(batch)
    p, d, pb = ref.partitions, ref.distinct, ref.overpartitions
    n = min(len(p), len(pb), 300)
    expect(all(pb[i] == sum(d[j] * p[i - j] for j in range(i + 1)) for i in range(n)),
           "overpartitions equal distinct-part counts convolved with partition numbers")
    for k in (1, 2, 3, 4):
        lattice = [0] * 31
        for v in itertools.product(range(-5, 6), repeat=k):
            s = sum(x * x for x in v)
            if s <= 30:
                lattice[s] += 1
        expect(ref.rk[k][:31] == lattice, f"r_{k} table equals enumerated lattice points to 30")
    e = [1] + [0] * 60
    for j in range(1, 61):
        e = [e[i] - (e[i - j] if i >= j else 0) for i in range(61)]
    expect(ref.euler[:61] == e, "pentagonal euler coefficients equal the expanded product")


def check_metrics_and_gates() -> None:
    digests = reference_digests()
    for name, (argv, n_checks) in TINY_SWEEPS.items():
        attempted, failed, (metrics, _) = run_sweep(argv, digests[name], n_checks, 0.1, None)
        expect(set(END_TO_END_UNITS) == {*metrics, "setup_s"}, f"{name}: every end-to-end metric")
        expect(failed == 0 and attempted >= 1, f"{name}: untraced sweep passes its gate")
        attempted, failed, _ = run_sweep(argv, "0" * 64, n_checks, 0.1, None)
        expect(failed == attempted, f"{name}: a wrong reference digest counts every sweep as failed")

    OUT.mkdir(exist_ok=True)
    argv, n_checks = TINY_SWEEPS["tiny-default"]
    attempted, failed, (layers, info) = run_sweep(
        argv, digests["tiny-default"], n_checks, 0, OUT / "spans-selftest.jsonl")
    expect(set(LAYER_UNITS) == set(layers), "traced sweep emits every per-layer metric")
    expect(failed == 0 and attempted == 2, "traced sweep passes its gate")
    for name in ("checks.bank_misses", "series.mul.calls", "theta.euler_product.calls",
                 "arith.factor.calls", "checks.id-4n3_s", "checks.lemma-r48-scaling_s"):
        expect(layers[name] > 0, f"traced sweep records {name}")
    expect(abs(info["unaccounted_s"]) <= 0.01 * info["traced_wall_s"] + 0.005,
           "bank builds, checkers and CLI self time cover the traced wall time")

    batch = tiny_batch(3)
    ref = Reference(batch)
    attempted, failed, (metrics, _) = run_queries(batch, ref, 0.5, None)
    expect(set(END_TO_END_UNITS) == {*metrics, "setup_s"}, "queries: every end-to-end metric")
    expect(failed == 0 and attempted >= len(batch), "queries pass their gate")
    attempted, failed, (layers, _) = run_queries(batch, ref, 0, OUT / "spans-selftest.jsonl")
    expect(set(LAYER_UNITS) == set(layers), "traced queries emit every per-layer metric")
    expect(failed == 0 and layers["squares.formula_s"] > 0, "traced queries pass their gate")

    before = [ref.expected(q) for q in batch]
    rk = next(q for q in batch if q.verb == "rk")
    ref.rk[rk.k][rk.n] += 1
    ref.overpartitions[3] += 1
    wrong = sum(ref.expected(q) != b for q, b in zip(batch, before))
    attempted, failed, _ = run_queries(batch, ref, 0, None)
    expect(failed == wrong >= 2, f"poisoned rk and overpartition references count {wrong} failures")


def check_refuses_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "queries", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout, "exits nonzero, printing no result, without sources")


def main() -> int:
    check_references()
    check_metrics_and_gates()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
