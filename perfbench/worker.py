"""Child process of the benchmark: runs overq CLI calls in-process, one at a time.

Reads a job as JSON on stdin:

    {"src": "<dir holding the overq package>", "calls": [[argv...], ...],
     "seconds": <repeat the call list until its calls took this long; 0 = once>,
     "trace_out": <path for the span dump, or null for an untraced run>}

and prints one JSON object on stdout with, per call made, its latency, exit
code and output digest, plus the process's peak RSS and, when traced, the
per-layer metrics.  The CLI's own stdout is captured per call; its stderr
passes through.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import resource
import sys
import traceback
from time import perf_counter

_ELAPSED = re.compile(r', "elapsed_ms": \d+')


def stream_digest(text: str) -> str:
    """sha256 of a CLI stream with its elapsed_ms fields removed."""
    return hashlib.sha256(_ELAPSED.sub("", text).encode()).hexdigest()


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])  # this file's directory stays on the path, after src
    from overq import cli

    tracer = None
    if job["trace_out"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    calls = job["calls"]
    latencies: list[float] = []
    codes: list[int] = []
    digests: list[str] = []
    last_lines: list[str] = []
    spent = 0.0
    while True:
        for argv in calls:
            out = io.StringIO()
            sys.stdout = out
            t0 = perf_counter()
            try:
                code = tracer.call(tracing.ROOT, cli.main, argv) if tracer else cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = -1
            dt = perf_counter() - t0
            sys.stdout = sys.__stdout__
            spent += dt
            latencies.append(dt)
            codes.append(code)
            text = out.getvalue()
            digests.append(stream_digest(text))
            last_lines.append(text.rstrip("\n").rpartition("\n")[2][:200])
        if spent >= job["seconds"]:
            break

    result = {
        "latencies": latencies,
        "codes": codes,
        "digests": digests,
        "last_lines": last_lines,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracer.dump(job["trace_out"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
