import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kprime import selftest
from kprime.cli import main
from kprime.generators import random_clause, random_formula, random_kb
from kprime.parser import render
from kprime.syntax import clause_from_json, clause_to_json

EXAMPLE = Path(__file__).resolve().parent.parent / "example.k"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code
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


@pytest.mark.parametrize(
    "bounds",
    [
        ("--vars", "bot,q", "--depth", "0", "--width", "2"),
        ("--vars", "9x"),
        ("--vars", "p", "--depth", "-3", "--width", "-2"),
    ],
    ids=["bot", "bad-name", "negative"],
)
def test_oracle_rejects_bad_bounds(tmp_path, capsys, bounds):
    kb = tmp_path / "kb.k"
    kb.write_text("p\n")
    code, out, err = run_cli(capsys, "oracle", str(kb), *bounds)
    assert code == 2 and out == ""
    assert err.startswith("kprime: ") and "Traceback" not in err


def test_oracle_output_reads_back_as_clauses(capsys):
    code, out, _ = run_cli(capsys, "oracle", str(EXAMPLE), "--vars", "p,q", "--depth", "1", "--width", "2")
    assert code == 0
    clauses = json.loads(out)
    assert clauses and [clause_to_json(clause_from_json(c)) for c in clauses] == clauses


def test_oracle_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "oracle", str(EXAMPLE), "--vars", "p,q", "--depth", "1", "--width", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_EXAMPLE_SHA256


# sha256 of `oracle example.k --vars p,q --depth 1 --width 2` stdout
ORACLE_EXAMPLE_SHA256 = "3fffda67ea6a2ce6f9810982fc36f4870c7e71f981aa4eb1c790bd15f38013fe"

# sha256 of `compile example.k` stdout with these flags, under any hash seed
COMPILE_EXAMPLE_SHA256 = {
    "--json --trace": "f77eb55fd01b536fba8497b6f9faedf1d642537c15d5f3ece0198a31fc2cae2d",
    "--json": "7f3824179d3a5f0f1d8def104c21ac1e66b30fe180b6761608e10c2fb35f2956",
}


@pytest.mark.parametrize("hash_seed", ["0", "1", "77"])
@pytest.mark.parametrize("flags", sorted(COMPILE_EXAMPLE_SHA256))
def test_compile_output_is_unchanged(flags, hash_seed):
    cmd = [sys.executable, "-m", "kprime", "compile", str(EXAMPLE), *flags.split()]
    proc = subprocess.run(cmd, capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == COMPILE_EXAMPLE_SHA256[flags]


def test_oracle_over_the_clause_space_cap_exits_three(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", str(EXAMPLE), "--vars", "p,q", "--depth", "2", "--width", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("kprime: ClauseBudgetExceeded: ") and "Traceback" not in err
    assert "100000" in err


@pytest.mark.parametrize("depth", ["1", "5000"])
def test_oracle_width_zero_at_any_depth(tmp_path, capsys, depth):
    kb = tmp_path / "kb.k"
    kb.write_text("p\n")
    code, out, err = run_cli(capsys, "oracle", str(kb), "--vars", "p", "--depth", depth, "--width", "0")
    assert (code, out, err) == (0, "[]\n", "")


def test_formula_mode(tmp_path, capsys):
    kb = tmp_path / "g.k"
    kb.write_text("p & (q | r)  # one formula\n")
    code, out, _ = run_cli(capsys, "compile", str(kb), "--formula")
    assert code == 0
    assert "p" in out


@pytest.mark.parametrize("command", [["compile"], ["oracle", "--vars", "p,q,r"]],
                         ids=["compile", "oracle"])
def test_formula_syntax_error_gives_file_line_and_column(tmp_path, capsys, command):
    kb = tmp_path / "g.k"
    kb.write_text("# a formula over three lines\np &\n  (q | ) & r\n")
    code, out, err = run_cli(capsys, command[0], str(kb), "--formula", *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"kprime: {kb}: syntax error at line 3, column 8")


@pytest.mark.parametrize("command", [["compile"], ["oracle", "--vars", "p,q"]],
                         ids=["compile", "oracle"])
def test_clause_line_syntax_error_gives_one_line_number(tmp_path, capsys, command):
    kb = tmp_path / "bad.k"
    kb.write_text("p  # first\n\n  (q | ) \n")
    code, out, err = run_cli(capsys, command[0], str(kb), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"kprime: {kb}: syntax error at line 3, column 8 (found ')'); ")


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
    assert out.count("PASS ") == len(selftest.SUITES) and "FAIL" not in out
    assert err == ""


def test_selftest_seeds_only_seeded_suites_in_table_order(monkeypatch, capsys):
    # the k-th seeded suite draws from seed + k; fixed suites do not count
    def draw(rng, size):
        return rng.randrange(10**9), [], ()

    def fixed():
        return 0, [], ()

    monkeypatch.setattr(selftest, "SUITES", (
        selftest.Suite("a", fixed),
        selftest.Suite("b", draw, full=1, quick=1),
        selftest.Suite("c", fixed),
        selftest.Suite("d", draw, full=1, quick=1),
    ))
    code, out, _ = run_cli(capsys, "selftest", "--seed", "7")
    draws = [int(line.split()[2]) for line in out.splitlines()]
    assert code == 0
    assert draws == [0, random.Random(7).randrange(10**9), 0, random.Random(8).randrange(10**9)]


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


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2, 3]",
        '{"prime_implicates": [{"lits": [1]}]}',
        '{"prime_implicates": [5]}',
        '{"prime_implicates": [{"boxes": [{"lits": "q"}]}]}',
        '{"prime_implicates": [{"lits": [""]}]}',
        '{"prime_implicates": [{"lits": ["~bot"]}]}',
    ],
    ids=["list", "number-literal", "number-clause", "string-lits", "empty-literal",
         "bot-literal"],
)
def test_query_on_non_compiled_file_exits_two(tmp_path, capsys, text):
    bad = tmp_path / "junk.json"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "query", str(bad), "--clause", "p")
    assert code == 2
    assert "Traceback" not in err


_EDIT_CHARS = "pqr~&|()[]<>-bot{}\":,0 \n"


def _edit(rng, text):
    """The text with 1-3 random character insertions, deletions or replacements."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.choice(("insert", "delete", "replace")) if pos < len(chars) else "insert"
        if op == "insert":
            chars.insert(pos, rng.choice(_EDIT_CHARS))
        elif op == "delete":
            del chars[pos]
        else:
            chars[pos] = rng.choice(_EDIT_CHARS)
    return "".join(chars)


def test_fuzzed_cli_exits_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(2024)
    runs = []  # (argv, file text or None)
    for _ in range(100):
        formula = render(random_formula(rng, "pqr", depth=2, size=rng.randint(1, 10)))
        runs += [(["prove", formula], None), (["prove", _edit(rng, formula)], None)]
    for i in range(90):
        kb = random_kb(rng, "pqr", clauses=rng.randint(1, 4), depth=rng.randint(0, 2),
                       width=rng.randint(1, 3))
        flag = ("--formula", "--json", None)[i % 3]
        clauses = sorted(str(c) for c in kb)
        text = " & ".join(f"({c})" for c in clauses) if flag == "--formula" else "\n".join(clauses)
        argv = ["compile", "KB", "--clause-budget", "30", "--max-iter", "8"] + ([flag] if flag else [])
        runs += [(argv, text), (argv, _edit(rng, text))]
    compiled = run_cli(capsys, "compile", str(EXAMPLE), "--json")[1]
    for _ in range(50):
        query = str(random_clause(rng, "pqr", depth=1, width=2))
        runs += [(["query", "KB", "--clause", query], compiled),
                 (["query", "KB", "--clause", query], _edit(rng, compiled))]
    path = tmp_path / "input"
    for argv, text in runs:
        if text is not None:
            path.write_text(text)
            argv = [str(path) if a == "KB" else a for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, text, code)
        assert "Traceback" not in err, (argv, text, err)


def test_compile_output_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "kprime", "compile", str(EXAMPLE), "--json", "--trace"]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
