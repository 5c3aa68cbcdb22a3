"""Layer spans for overq, recorded from outside the package.

Tracing wraps the public functions of the layers ``series``, ``theta``,
``squares``, ``arith``, ``checks`` and ``cli`` and installs each wrapper under
every module-level name that refers to the wrapped function, because every
module looks names up in its own namespace: ``checks.overpartition_gf`` and
``theta.overpartition_gf`` are separate bindings of one function.  Methods are
patched on their class, and each checker is wrapped by swapping its
``CheckDef`` in the check registry.  Nothing under ``src/`` is edited; the
patches live in the memory of the worker process that installs them.

Spans are kept in memory (name, start, end, parent) and written out when the
run ends.  Self time is a span's duration minus the time its direct children
cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from time import perf_counter

# Check ids at the commit that defined the benchmark; one self-time metric each.
CHECK_IDS = (
    "thm-main", "thm-mod9", "conj-40", "mod8-criterion", "id-4n3", "fam-5power",
    "fam-5p3", "fam-5p-high", "fam-3p-high", "cor-5-4alpha", "replay-phi5",
    "replay-phi9", "lemma-euler-power", "final-step", "rk-route-agreement",
    "lemma-r48-scaling", "lemma-r3-four", "lemma-r3-recursion", "lemma-r5-recursion",
)

ROOT = "cli"
_BANK = "checks.bank"
_CHECK_PREFIX = "checks.check."


class Tracer:
    """Span recorder.  Each span is [name, start, end, parent, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, counts: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, counts])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def dump(self, path) -> None:
        """Write one JSON object per span; ``request`` is the id of its root span."""
        roots: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "request": roots[i]}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


# -- what each wrapper records ----------------------------------------------


def _kind(ring) -> str:
    return "exact" if ring is None or ring.modulus is None else "mod"


def _ring_arg(args, kwargs, pos: int):
    return kwargs["ring"] if "ring" in kwargs else (args[pos] if len(args) > pos else None)


def _nonzero(cs) -> int:
    return len(cs) - cs.count(0)


def _mul_counts(a, b) -> dict:
    n = min(a.order, b.order)
    ca, cb = a.coeffs[: n + 1], b.coeffs[: n + 1]
    if a.ring.modulus is None:
        # exact operands move their big integers; residues travel as int64
        nbytes = sum((c.bit_length() + 7) // 8 for c in ca) + sum((c.bit_length() + 7) // 8 for c in cb)
    else:
        nbytes = 8 * (len(ca) + len(cb))
    return {"pairs": _nonzero(ca) * _nonzero(cb), "bytes": nbytes}


def _inverse_counts(s) -> dict:
    return {"terms": s.order * _nonzero(s.coeffs[1:])}


def _traced(tracer: Tracer, fn, name_of, counts_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = name_of(args, kwargs) if callable(name_of) else name_of
        idx = tracer.open(name, counts_of(*args) if counts_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def install(tracer: Tracer) -> None:
    """Route every call of the traced functions through spans for the rest of the process."""
    from overq import arith, checks, cli, series, squares, theta

    modules = (arith, series, theta, squares, checks, cli)
    functions = {
        arith.factor: "arith.factor",
        arith.divisors: "arith.divisors",
        arith.divisors_filtered: "arith.divisors",
        squares.r4_formula: "squares.formula",
        squares.r8_formula: "squares.formula",
        squares.rk_recursion_route: "squares.recursion",
        squares.r3_recursion: "squares.recursion",
        squares.r5_recursion: "squares.recursion",
        squares.rk_bruteforce: "squares.bruteforce",
        squares.rk_series: "squares.rk_series",
        theta.p4n3_product_form: "theta.p4n3_product_form",
        theta.euler_product: lambda a, kw: "theta.euler_product." + _kind(_ring_arg(a, kw, 1)),
        theta.overpartition_gf: lambda a, kw: "theta.overpartition_gf." + _kind(_ring_arg(a, kw, 1)),
    }
    wrappers = {id(fn): _traced(tracer, fn, name) for fn, name in functions.items()}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])

    ts = series.TruncatedSeries
    ts.__mul__ = _traced(tracer, ts.__mul__, lambda a, kw: "series.mul." + _kind(a[0].ring), _mul_counts)
    ts.inverse = _traced(
        tracer, ts.inverse, lambda a, kw: "series.inverse." + _kind(a[0].ring), _inverse_counts)
    ts.reduce_mod = _traced(tracer, ts.reduce_mod, "series.reduce_mod")
    for attr in ("overpartition", "rk", "p4n3"):
        setattr(checks.SeriesBank, attr, _traced(tracer, getattr(checks.SeriesBank, attr), _BANK))
    for cid, d in list(checks.REGISTRY.items()):
        checks.REGISTRY[cid] = dataclasses.replace(d, fn=_traced(tracer, d.fn, _CHECK_PREFIX + cid))


# -- per-layer metrics ------------------------------------------------------

# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "theta.euler_product.exact_s": "s",
    "theta.euler_product.mod_s": "s",
    "theta.euler_product.calls": "count",
    "theta.overpartition_gf.exact_s": "s",
    "theta.overpartition_gf.mod_s": "s",
    "theta.p4n3_product_form_s": "s",
    "series.mul.exact_s": "s",
    "series.mul.mod_s": "s",
    "series.mul.calls": "count",
    "series.mul.pairs": "count",
    "series.mul.operand_bytes": "B",
    "series.inverse.exact_s": "s",
    "series.inverse.mod_s": "s",
    "series.inverse.terms": "count",
    "series.reduce_mod_s": "s",
    "squares.rk_series_s": "s",
    "squares.formula_s": "s",
    "squares.recursion_s": "s",
    "squares.bruteforce_s": "s",
    "arith.factor_s": "s",
    "arith.factor.calls": "count",
    "arith.divisors_s": "s",
    "checks.bank_build_s": "s",
    "checks.bank_misses": "count",
    "checks.bank_hit_ratio": "ratio",
    "checks.checkers_s": "s",
    **{f"checks.{cid}_s": "s" for cid in CHECK_IDS},
    "cli.self_s": "s",
    "tracing_overhead_s": "s",
}

def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate spans into every metric of LAYER_UNITS except the overhead.

    A span named X feeds the self time X_s; the root span feeds cli.self_s.
    ``checks.bank_build_s`` and ``checks.<id>_s`` are inclusive times: a bank
    access that had child spans built its series (a miss), and a checker's time
    excludes the bank builds it triggered, so bank builds, checkers and the
    CLI's self time partition each sweep.
    """
    out = {name: 0 for name in LAYER_UNITS if name != "tracing_overhead_s"}
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
    bank_hits = 0
    miss_time_under = [0.0] * len(spans)
    for i, (name, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        self_key = "cli.self_s" if name == ROOT else name + "_s"
        if self_key in out:
            out[self_key] += dur - child_time[i]
        if name.startswith("theta.euler_product."):
            out["theta.euler_product.calls"] += 1
        elif name.startswith("series.mul."):
            out["series.mul.calls"] += 1
            out["series.mul.pairs"] += counts["pairs"]
            out["series.mul.operand_bytes"] += counts["bytes"]
        elif name.startswith("series.inverse."):
            out["series.inverse.terms"] += counts["terms"]
        elif name == "arith.factor":
            out["arith.factor.calls"] += 1
        elif name == _BANK:
            if has_child[i]:
                out["checks.bank_misses"] += 1
                out["checks.bank_build_s"] += dur
                if parent >= 0:
                    miss_time_under[parent] += dur
            else:
                bank_hits += 1
    for i, (name, start, end, _, _) in enumerate(spans):
        if name.startswith(_CHECK_PREFIX):
            own = end - start - miss_time_under[i]
            key = f"checks.{name[len(_CHECK_PREFIX):]}_s"
            if key in out:  # a check added after the benchmark has no metric of its own
                out[key] += own
            out["checks.checkers_s"] += own
    accesses = bank_hits + out["checks.bank_misses"]
    out["checks.bank_hit_ratio"] = bank_hits / accesses if accesses else 0.0
    return out
