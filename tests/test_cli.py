import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from overq import cli
from overq.cli import main
from overq.series import EXACT, mod_ring
from overq.squares import ROUTES, route_error
from overq.theta import SERIES_NAMES, build_named_series

from oracles import overpartitions_enumerated


# sha256 of `overq verify --all` at the default budget with its elapsed_ms fields removed
DEFAULT_BUDGET_STREAM_SHA256 = "e81e567a1f4d06bde68a1d0dbdb490376880fcc8276aeb6f0d3c4a2aba2b5ccb"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.splitlines() if line]


# -- expand -----------------------------------------------------------------------


def test_expand_overpartition_first_five(capsys):
    code, out, _ = run_cli(capsys, "expand", "overpartition", "--terms", "5")
    assert code == 0
    rows = jsonl(out)
    assert [r["coeff"] for r in rows] == ["1", "2", "4", "8", "14"]
    assert [r["n"] for r in rows] == list(range(5))


def test_expand_phi(capsys):
    code, out, _ = run_cli(capsys, "expand", "phi", "--terms", "3")
    assert code == 0
    assert [r["coeff"] for r in jsonl(out)] == ["1", "2", "0"]


def test_expand_overpartition_mod_40_hits_zero_at_35(capsys):
    code, out, _ = run_cli(capsys, "expand", "overpartition", "--terms", "36", "--mod", "40")
    assert code == 0
    rows = jsonl(out)
    assert rows[-1] == {"n": 35, "coeff": "0"}


def test_expand_agrees_with_enumeration(capsys):
    code, out, _ = run_cli(capsys, "expand", "overpartition", "--terms", "21")
    assert code == 0
    got = [int(r["coeff"]) for r in jsonl(out)]
    assert got == [overpartitions_enumerated(n) for n in range(21)]


def test_expand_rejects_bad_flags(capsys):
    code, _, _ = run_cli(capsys, "expand", "overpartition", "--terms", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "expand", "overpartition", "--terms", "5", "--mod", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "expand", "nonsense", "--terms", "5")
    assert code == 2
    code, _, _ = run_cli(capsys, "expand", "phi", "--terms", "5", "--frobnicate")
    assert code == 2


def test_expand_every_series_name(capsys):
    for name in ("phi", "euler", "neg-euler", "overpartition", "hs43-rhs"):
        code, out, _ = run_cli(capsys, "expand", name, "--terms", "4")
        assert code == 0
        assert len(jsonl(out)) == 4


def test_expand_hs43_mod8_is_zero(capsys):
    code, out, _ = run_cli(capsys, "expand", "hs43-rhs", "--terms", "12", "--mod", "8")
    assert code == 0
    assert all(r["coeff"] == "0" for r in jsonl(out))


@pytest.mark.parametrize("mod", [None, 40])
@pytest.mark.parametrize("name", SERIES_NAMES)
def test_expand_writes_the_bytes_of_json_dumps(capsys, name, mod):
    # euler's coefficients are negative, overpartition's reach 21 digits at 300 terms
    argv = ["expand", name, "--terms", "300"] + (["--mod", str(mod)] if mod else [])
    code, out, _ = run_cli(capsys, *argv)
    series = build_named_series(name, 299, mod_ring(mod) if mod else EXACT)
    assert code == 0
    assert out == "".join(json.dumps({"n": n, "coeff": str(c)}) + "\n" for n, c in enumerate(series.coeffs))


def test_reused_parser_leaks_no_state(capsys):
    # one process, one parser: no flag or default of a call reaches the next
    def coeffs(out):
        return [r["coeff"] for r in jsonl(out)]

    code, out, _ = run_cli(capsys, "expand", "overpartition", "--terms", "6", "--mod", "5")
    assert (code, coeffs(out)) == (0, ["1", "2", "4", "3", "4", "4"])
    code, out, _ = run_cli(capsys, "expand", "overpartition", "--terms", "6")
    assert (code, coeffs(out)) == (0, ["1", "2", "4", "8", "14", "24"])
    code, out, _ = run_cli(capsys, "rk", "--k", "8", "--n", "2", "--method", "formula", "--cross-check")
    assert (code, jsonl(out)) == (0, ["112"])
    code, out, _ = run_cli(capsys, "rk", "--k", "4", "--n", "12", "--method", "formula")
    assert (code, jsonl(out)) == (0, ["96"])
    code, out, err = run_cli(capsys, "rk", "--k", "4", "--n", "12")
    assert (code, out) == (2, "") and "--method" in err
    code, out, _ = run_cli(capsys, "expand", "phi", "--terms", "3")
    assert (code, coeffs(out)) == (0, ["1", "2", "0"])
    assert cli._build_parser() is cli._build_parser()


# -- rk ----------------------------------------------------------------------------


def test_rk_formula(capsys):
    code, out, _ = run_cli(capsys, "rk", "--k", "4", "--n", "1", "--method", "formula")
    assert code == 0
    assert jsonl(out) == ["8"]


def test_rk_series_vanishing(capsys):
    code, out, _ = run_cli(capsys, "rk", "--k", "3", "--n", "7", "--method", "series")
    assert code == 0
    assert jsonl(out) == ["0"]


def test_rk_cross_check_agreement(capsys):
    code, out, _ = run_cli(capsys, "rk", "--k", "8", "--n", "2", "--method", "formula", "--cross-check")
    assert code == 0
    assert jsonl(out) == ["112"]


def test_rk_recursion_route(capsys):
    code, out, _ = run_cli(capsys, "rk", "--k", "3", "--n", "25", "--method", "recursion", "--cross-check")
    assert code == 0
    assert jsonl(out) == ["30"]


def test_rk_invalid_combinations(capsys):
    code, _, _ = run_cli(capsys, "rk", "--k", "3", "--n", "7", "--method", "formula")
    assert code == 2
    code, _, _ = run_cli(capsys, "rk", "--k", "4", "--n", "7", "--method", "recursion")
    assert code == 2
    code, _, _ = run_cli(capsys, "rk", "--k", "9", "--n", "7", "--method", "series")
    assert code == 2
    code, _, _ = run_cli(capsys, "rk", "--k", "3", "--n", "30", "--method", "recursion")
    assert code == 2  # no odd prime square divides 30
    code, _, _ = run_cli(capsys, "rk", "--k", "8", "--n", "501", "--method", "bruteforce")
    assert code == 2  # enumeration budget


class _WorkStarted(Exception):
    pass


@pytest.mark.parametrize(
    "argv, dest, expensive",
    [
        (["verify", "--all", "--max-arg"], "max_arg", "iter_check_reports"),
        (["expand", "hs43-rhs", "--terms"], "terms", "build_named_series"),
        (["rk", "--k", "8", "--method", "series", "--n"], "n", "rk_by_route"),
        (["verify", "--all", "--max-prime"], "max_prime", "iter_check_reports"),
        (["verify", "--all", "--max-alpha"], "max_alpha", "iter_check_reports"),
        (["expand", "hs43-rhs", "--terms", "50", "--mod"], "mod", "build_named_series"),
    ],
)
def test_size_flags_are_capped_before_any_work(capsys, monkeypatch, argv, dest, expensive):
    def start(*args, **kwargs):
        raise _WorkStarted

    monkeypatch.setattr(cli, expensive, start)
    limit = cli.SIZE_LIMITS[dest]
    code, out, err = run_cli(capsys, *argv, str(limit + 1))
    assert (code, out) == (2, "")
    assert f"must be <= {limit}, got {limit + 1}" in err
    with pytest.raises(_WorkStarted):  # the limit itself is accepted
        main(argv + [str(limit)])


def test_rk_route_requirements_are_stated(capsys):
    code, _, err = run_cli(capsys, "rk", "--k", "4", "--n", "0", "--method", "formula")
    assert code == 2
    assert "formula route needs n >= 1" in err
    code, _, err = run_cli(capsys, "rk", "--k", "3", "--n", "7", "--method", "recursion")
    assert code == 2
    assert "needs an odd prime square dividing n" in err


def test_applicable_methods_are_exactly_the_routes_that_succeed(capsys):
    for k in range(1, 9):
        for n in range(61):
            for route in ROUTES:
                code, out, _ = run_cli(
                    capsys, "rk", "--k", str(k), "--n", str(n), "--method", route, "--cross-check"
                )
                assert code in (0, 2), (k, n, route)
                assert (route_error(route, k, n) is None) == (code == 0), (k, n, route)


# -- verify ------------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "thm-main", "--max-arg", "1000")
    assert code == 0
    rows = jsonl(out)
    assert "manifest" in rows[0]
    report = rows[1]
    assert report["check_id"] == "thm-main" and report["status"] == "pass"
    assert rows[-1] == {"pass": 1, "fail": 0, "skipped": 0}


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "no-such")
    assert code == 2
    assert "unknown" in err


def test_verify_duplicate_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--checks", "thm-main,mod8-criterion,thm-main")
    assert code == 2
    assert out == ""
    assert "duplicate checks: thm-main" in err


def test_verify_requires_selection(capsys):
    code, _, _ = run_cli(capsys, "verify")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--all", "--checks", "thm-main")
    assert code == 2


def test_verify_all_small_budget_is_valid_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--max-arg", "450", "--max-prime", "7", "--max-alpha", "2"
    )
    assert code == 0
    rows = jsonl(out)  # every line parses
    assert "manifest" in rows[0]
    summary = rows[-1]
    assert summary["fail"] == 0
    assert summary["pass"] + summary["skipped"] == len(rows) - 2


# Streams of `verify --all` with their elapsed_ms fields removed, one at the
# default prime and alpha bounds and one at a budget where most checks skip.
GOLDEN = {
    "verify_all_700.jsonl": ["--max-arg", "700"],
    "verify_all_tiny.jsonl": ["--max-arg", "4", "--max-prime", "2", "--max-alpha", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_all_matches_golden_stream(capsys, name):
    code, out, _ = run_cli(capsys, "verify", "--all", *GOLDEN[name])
    assert code == 0
    golden = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    assert re.sub(r', "elapsed_ms": \d+', "", out) == golden


def test_list_checks(capsys):
    code, out, _ = run_cli(capsys, "list-checks")
    assert code == 0
    rows = jsonl(out)
    ids = [r["check_id"] for r in rows]
    assert "thm-main" in ids and "conj-40" in ids and len(ids) == 19
    assert all(r["verifies"] for r in rows)


def test_rk_cross_check_exit_code_1_on_disagreement(capsys, monkeypatch):
    import overq.squares as squares

    monkeypatch.setattr(squares, "rk_bruteforce", lambda k, n: 999)
    code, out, err = run_cli(capsys, "rk", "--k", "4", "--n", "2", "--method", "formula", "--cross-check")
    assert code == 1
    assert json.loads(out.splitlines()[0]) == "24"  # the primary route's value is still printed
    assert "cross-check failure" in err


def test_verify_exit_code_1_on_failure(capsys, monkeypatch):
    # wire-level contract: a failing report must flip the exit code to 1
    import overq.cli as cli
    from overq.reporting import CheckReport

    fake = CheckReport("thm-main", range_tested=(1, 1))
    fake.expect(False, {"n": 1}, {}, "holds")
    monkeypatch.setattr(cli, "iter_check_reports", lambda *a, **k: iter([fake]))
    code, out, _ = run_cli(capsys, "verify", "--checks", "thm-main")
    assert code == 1
    assert json.loads(out.splitlines()[-1]) == {"pass": 0, "fail": 1, "skipped": 0}


def test_verify_all_default_budget_subprocess():
    # the flagship invocation: every check at the default budget, exit 0
    proc = subprocess.run(
        [sys.executable, "-m", "overq", "verify", "--all"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert "manifest" in rows[0]
    assert rows[-1] == {"pass": 19, "fail": 0, "skipped": 0}
    statuses = {r["check_id"]: r["status"] for r in rows[1:-1]}
    assert statuses["conj-40"] == "pass"
    assert statuses["id-4n3"] == "pass"
    # the whole stream, elapsed_ms removed, is pinned: perfbench's sweep-default digest
    stream = re.sub(r', "elapsed_ms": \d+', "", proc.stdout)
    assert hashlib.sha256(stream.encode()).hexdigest() == DEFAULT_BUDGET_STREAM_SHA256


# -- process-level smoke test ---------------------------------------------------------


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "overq", "expand", "overpartition", "--terms", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert [json.loads(l)["coeff"] for l in proc.stdout.splitlines()] == ["1", "2", "4", "8"]

    proc = subprocess.run(
        [sys.executable, "-m", "overq", "rk", "--k", "4", "--n", "12", "--method", "formula"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '"96"'


def test_closed_stdout_exits_141_quietly():
    # 2.4 MB of output, more than a pipe holds, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "overq", "expand", "phi", "--terms", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b'{"n": 0, "coeff": "1"}\n'
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")  # 128 + SIGPIPE, as a shell reports it


def test_import_builds_no_parser():
    code = "import overq.cli; print(overq.cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_runs_without_numpy():
    # overq is pure Python; importing the package and its entry points loads no numpy
    code = "import sys, overq, overq.cli, overq.checks; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
