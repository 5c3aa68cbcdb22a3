#!/usr/bin/env python3
"""overq benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

  sweep-default      overq verify --all at the default budget, one sweep per process
  sweep-modular-20k  overq verify of the 18 checks other than id-4n3 at --max-arg 20000
  queries            a seeded closed loop of rk and expand calls through overq.cli.main

Every operation's output is checked: sweeps against a digest of the report
stream captured when the benchmark was defined, queries against values this
benchmark computes itself.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run makes one untraced and one traced
pass and reports the per-layer metrics; the spans of the traced pass go
to perfbench/out/spans-<workload>.jsonl, replacing those of the previous run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from queries import Reference, make_batch  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from worker import stream_digest  # noqa: E402

# All checks except id-4n3, the only consumer of the exact overpartition series.
MODULAR_IDS = (
    "thm-main", "thm-mod9", "conj-40", "mod8-criterion", "fam-5power", "fam-5p3",
    "fam-5p-high", "fam-3p-high", "cor-5-4alpha", "replay-phi5", "replay-phi9",
    "lemma-euler-power", "final-step", "rk-route-agreement", "lemma-r48-scaling",
    "lemma-r3-four", "lemma-r3-recursion", "lemma-r5-recursion",
)
SWEEPS = {
    "sweep-default": (["verify", "--all"], 19),
    "sweep-modular-20k": (["verify", "--checks", ",".join(MODULAR_IDS), "--max-arg", "20000"], 18),
}
WORKLOADS = (*SWEEPS, "queries")
END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
}
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong program output)."""


def reference_digests() -> dict[str, str]:
    return json.loads((HERE / "reference.json").read_text())


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_worker(calls: list[list[str]], seconds: float, trace_out: Path | None = None) -> dict:
    job = {"src": str(SRC), "calls": calls, "seconds": seconds,
           "trace_out": str(trace_out) if trace_out else None}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(probes: int = SETUP_PROBES) -> float:
    """Median time from starting a fresh interpreter until `import overq` completes."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); import overq; print(time.monotonic_ns())"
    times = []
    for _ in range(probes):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE,
                              text=True, timeout=60, check=True)
        times.append((int(proc.stdout) - t0) / 1e9)
    return statistics.median(times)


# -- correctness gates --------------------------------------------------------


def sweep_ok(result: dict, digest: str, n_checks: int) -> bool:
    """Exit 0, every check passed, and the stream matches the reference digest."""
    if result["codes"][0] != 0 or result["digests"][0] != digest:
        return False
    try:
        return json.loads(result["last_lines"][0]) == {"pass": n_checks, "fail": 0, "skipped": 0}
    except json.JSONDecodeError:
        return False


def query_failures(result: dict, expected: list[str]) -> int:
    """Calls with a nonzero exit or an output differing from the reference."""
    return sum(
        code != 0 or digest != expected[i % len(expected)]
        for i, (code, digest) in enumerate(zip(result["codes"], result["digests"]))
    )


# -- workloads ----------------------------------------------------------------


def run_sweep(argv: list[str], digest: str, n_checks: int, seconds: float, trace_out: Path | None):
    """One sweep per fresh worker process, repeated until the sweeps took `seconds`."""
    if trace_out:
        plain = run_worker([argv], 0)
        traced = run_worker([argv], 0, trace_out)
        failed = (not sweep_ok(plain, digest, n_checks)) + (not sweep_ok(traced, digest, n_checks))
        layers, info = _layer_report(plain, traced)
        # bank builds, checkers and CLI self time partition a sweep
        parts = layers["checks.bank_build_s"] + layers["checks.checkers_s"] + layers["cli.self_s"]
        info["unaccounted_s"] = info["traced_wall_s"] - parts
        return 2, failed, (layers, info)
    walls: list[float] = []
    rss: list[float] = []
    failed = 0
    while True:
        res = run_worker([argv], 0)
        walls.append(res["latencies"][0])
        rss.append(res["peak_rss_kb"] / 1024)
        failed += not sweep_ok(res, digest, n_checks)
        if sum(walls) >= seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "queries_per_s": len(walls) / sum(walls),
        "query_p50_ms": 1000 * statistics.median(walls),
        "query_p99_ms": 1000 * percentile(walls, 0.99),
    }
    info = {"samples": len(walls), "unit_of_work": "one sweep"}
    return len(walls), failed, (metrics, info)


def run_queries(batch, reference: Reference, seconds: float, trace_out: Path | None):
    """The seeded batch in a closed loop with one client, repeated for `seconds`."""
    calls = [q.argv() for q in batch]
    expected = [stream_digest(reference.expected(q)) for q in batch]
    if trace_out:
        plain = run_worker(calls, 0)
        traced = run_worker(calls, 0, trace_out)
        failed = query_failures(plain, expected) + query_failures(traced, expected)
        return 2 * len(calls), failed, _layer_report(plain, traced)
    res = run_worker(calls, seconds)
    lat = res["latencies"]
    batch_walls = [sum(lat[i : i + len(calls)]) for i in range(0, len(lat), len(calls))]
    metrics = {
        "wall_s": statistics.median(batch_walls),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p99_ms": 1000 * percentile(lat, 0.99),
    }
    info = {"samples": len(lat), "batches": len(batch_walls), "batch_size": len(calls),
            "unit_of_work": "one batch"}
    return len(lat), query_failures(res, expected), (metrics, info)


def _layer_report(plain: dict, traced: dict):
    metrics = dict(traced["layers"])
    untraced_wall = sum(plain["latencies"])
    traced_wall = sum(traced["latencies"])
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    return metrics, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "spans": traced["spans"]}


# -- environment and entry point ----------------------------------------------


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    budget = SWEEPS[workload][0][1:] if workload in SWEEPS else "seeded query batch"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if sha else None,
        "src_sha256": src_digest.hexdigest(),
        "workload": workload,
        "budget": budget,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "overq" / "__init__.py").is_file():
        print(f"error: no overq sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    trace_out = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_out = OUT / f"spans-{args.workload}.jsonl"
    try:
        if args.workload in SWEEPS:
            argv_, n_checks = SWEEPS[args.workload]
            attempted, failed, (metrics, info) = run_sweep(
                argv_, reference_digests()[args.workload], n_checks, args.seconds, trace_out)
        else:
            batch = make_batch(args.seed)
            attempted, failed, (metrics, info) = run_queries(
                batch, Reference(batch), args.seconds, trace_out)
        if not args.trace:
            metrics["setup_s"] = setup_seconds()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark could not run: {exc}", file=sys.stderr)
        return 1

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    print(json.dumps({"run": info, "ops_failed_ratio": {
        "value": failed / attempted, "failed": failed, "attempted": attempted}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
