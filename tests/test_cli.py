import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kprime.cli import main
from kprime.selftest import ALL_SUITES

EXAMPLE = Path(__file__).resolve().parent.parent / "example.k"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prove_unsat_exits_one(capsys):
    code, out, _ = run_cli(capsys, "prove", "p & ~p")
    assert code == 1
    assert out.strip() == "UNSAT"


def test_prove_sat_prints_model(capsys):
    code, out, _ = run_cli(capsys, "prove", "<>p & []q")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "SAT"
    model = json.loads(lines[1])
    assert set(model) == {"worlds", "rel", "val", "root"}


def test_compile_json(capsys):
    code, out, _ = run_cli(capsys, "compile", str(EXAMPLE), "--json")
    assert code == 0
    result = json.loads(out)
    assert result["converged"] is True
    assert len(result["prime_implicates"]) == 3
    assert result["iterations"] <= 10


def test_compile_text_lists_clauses(capsys):
    code, out, _ = run_cli(capsys, "compile", str(EXAMPLE))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# 3 prime implicates")
    assert "[][](~p | r)" in lines


def test_compile_trace_emits_step_lines(capsys):
    code, out, _ = run_cli(capsys, "compile", str(EXAMPLE), "--json", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    steps = []
    while lines and lines[0].startswith('{"'):
        candidate = json.loads(lines[0])
        if "rule" not in candidate:
            break
        steps.append(lines.pop(0))
    assert steps
    json.loads("\n".join(lines))  # the result object remains parseable


def test_compile_json_is_the_same_with_and_without_trace(capsys):
    _, plain, _ = run_cli(capsys, "compile", str(EXAMPLE), "--json")
    _, traced, _ = run_cli(capsys, "compile", str(EXAMPLE), "--json", "--trace")
    lines = traced.splitlines(keepends=True)
    while lines and lines[0].startswith('{"conclusion"'):
        lines.pop(0)
    assert len(lines) < len(traced.splitlines())
    assert "".join(lines) == plain


def test_query_true_and_false(tmp_path, capsys):
    compiled = tmp_path / "compiled.json"
    code, out, _ = run_cli(capsys, "compile", str(EXAMPLE), "--json")
    compiled.write_text(out)
    code, out, _ = run_cli(capsys, "query", str(compiled), "--clause", "[][](~p | r)")
    assert code == 0
    assert out.splitlines()[0] == "true"
    code, out, _ = run_cli(capsys, "query", str(compiled), "--clause", "[]p")
    assert code == 1
    assert out.strip() == "false"


def test_oracle_subcommand(tmp_path, capsys):
    kb = tmp_path / "kb.k"
    kb.write_text("p\n~p | q\n")
    code, out, _ = run_cli(capsys, "oracle", str(kb), "--vars", "p,q", "--depth", "0", "--width", "2")
    assert code == 0
    clauses = json.loads(out)
    assert sorted(c["lits"] for c in clauses) == [["p"], ["q"]]


def test_formula_mode(tmp_path, capsys):
    kb = tmp_path / "g.k"
    kb.write_text("p & (q | r)  # one formula\n")
    code, out, _ = run_cli(capsys, "compile", str(kb), "--formula")
    assert code == 0
    assert "p" in out


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "compile", "no-such-file.k")
    assert code == 2
    assert "no-such-file.k" in err


def test_bad_clause_line_exits_two(tmp_path, capsys):
    kb = tmp_path / "bad.k"
    kb.write_text("p & q\n")
    code, _, err = run_cli(capsys, "compile", str(kb))
    assert code == 2
    assert "not a single clause" in err


def test_syntax_error_exits_two(tmp_path, capsys):
    kb = tmp_path / "bad.k"
    kb.write_text("p |\n")
    code, _, err = run_cli(capsys, "compile", str(kb))
    assert code == 2
    assert "line" in err


def test_selftest_quick_passes_every_suite(capsys):
    code, out, err = run_cli(capsys, "selftest", "--quick")
    assert code == 0, out
    assert out.count("PASS ") == len(ALL_SUITES) and "FAIL" not in out
    assert err == ""


def test_unknown_flag_exits_two(capsys):
    for flag in ("--frobnicate", "--text"):
        with pytest.raises(SystemExit) as exc:
            main(["compile", str(EXAMPLE), flag])
        assert exc.value.code == 2


def test_budget_error_exits_three(tmp_path, capsys):
    kb = tmp_path / "kb.k"
    kb.write_text("p | q\n~p | q\n")
    code, _, err = run_cli(capsys, "compile", str(kb), "--clause-budget", "1")
    assert code == 3
    assert "budget" in err.lower() or "Budget" in err


def test_deep_negation_in_prove_exits_three(capsys):
    code, out, err = run_cli(capsys, "prove", "~" * 1000 + "p")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_deep_box_in_compile_exits_three(tmp_path, capsys):
    kb = tmp_path / "deep.k"
    kb.write_text("[]" * 500 + "p\n")
    code, out, err = run_cli(capsys, "compile", str(kb))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


class _ClosedPipe:
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_two(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["compile", str(EXAMPLE), "--json", "--trace"])
    finally:
        os.close(fd)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_query_on_non_compiled_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "query", str(bad), "--clause", "p")
    assert code == 2


def test_compile_output_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "kprime", "compile", str(EXAMPLE), "--json", "--trace"]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
