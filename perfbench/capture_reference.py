#!/usr/bin/env python3
"""Capture the sweep reference digests into perfbench/reference.json.

The sweep gate compares each report stream, elapsed_ms removed, with these
digests.  Run this only when a change alters the stream on purpose, and say so
in the change:

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json

from run import HERE, SWEEPS, run_worker
from selftest import TINY_SWEEPS


def main() -> int:
    digests = {}
    for name, (argv, n_checks) in {**SWEEPS, **TINY_SWEEPS}.items():
        res = run_worker([argv], 0)
        summary = json.loads(res["last_lines"][0])
        if res["codes"][0] != 0 or summary != {"pass": n_checks, "fail": 0, "skipped": 0}:
            raise SystemExit(f"{name}: not every check passed ({summary}); nothing captured")
        digests[name] = res["digests"][0]
        print(name, digests[name])
    (HERE / "reference.json").write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
