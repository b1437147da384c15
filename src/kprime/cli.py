"""Command-line interface.

Exit codes: 0 success (or a true/SAT answer), 1 a false/UNSAT answer from a
decision subcommand, 2 usage, file or syntax problems (or a closed output
pipe), 3 a resource budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .brute import prime_implicates_brute
from .cnf import single_clause, to_cnf
from .errors import BudgetExceeded, ParseError
from .normalization import make_cnf
from .parser import parse
from .pic import PicConfig, clause_order, covering_implicate, prime_implicates
from .selftest import DEFAULT_SEED, run_all
from .semantics import Tableau
from .syntax import clause_from_json, clause_to_json, is_variable_name

USAGE_ERROR, BUDGET_ERROR = 2, 3


class CliError(Exception):
    def __init__(self, message, code=USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}") from e


def load_kb(path: str, whole_formula: bool = False):
    """Knowledge base from a file: one clause per line, '#' comments.

    With whole_formula the file holds a single formula that is converted
    to clauses first.
    """
    text = _read_file(path)
    stripped_lines = [line.split("#", 1)[0] for line in text.splitlines()]
    if whole_formula:
        body = "\n".join(stripped_lines)
        if not body.strip():
            raise CliError(f"{path}: no formula found")
        try:
            return to_cnf(parse(body))
        except ParseError as e:
            raise CliError(f"{path}: {e}") from e
    clauses = []
    for lineno, line in enumerate(stripped_lines, start=1):
        if not line.strip():
            continue
        try:
            clauses.append(single_clause(parse(line)))
        except ParseError as e:
            # the parser saw one line; place the error at the file's line
            at = ParseError(e.message, lineno, e.column, e.expected, e.found)
            raise CliError(f"{path}: {at}") from e
        except ValueError as e:
            raise CliError(
                f"{path}:{lineno}: not a single clause ({e}); "
                "use --formula for arbitrary formulas"
            ) from e
    if not clauses:
        raise CliError(f"{path}: no clauses found")
    return make_cnf(clauses)


def cmd_compile(args) -> int:
    kb = load_kb(args.kb_file, whole_formula=args.formula)
    config = PicConfig(
        max_iterations=args.max_iter,
        clause_budget=args.clause_budget,
    )
    result = prime_implicates(kb, config, trace=args.trace)
    for step in result.steps:
        print(json.dumps(step.to_json(), sort_keys=True))
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=False))
    else:
        for c in result.sorted_implicates():
            print(c)
        status = "converged" if result.converged else "iteration cap reached"
        print(f"# {len(result.prime_implicates)} prime implicates, "
              f"{result.iterations} iterations, {status}")
    return 0


def cmd_query(args) -> int:
    try:
        compiled = json.loads(_read_file(args.compiled_file))
        pi = [clause_from_json(obj) for obj in compiled["prime_implicates"]]
    except (KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise CliError(f"{args.compiled_file}: not a compiled result ({e})") from e
    try:
        q = single_clause(parse(args.clause))
    except ValueError as e:
        raise CliError(f"--clause: {e}") from e
    cover = covering_implicate(pi, q)
    if cover is None:
        print("false")
        return 1
    print("true")
    print(cover)
    return 0


def cmd_prove(args) -> int:
    verdict = Tableau().satisfiable(parse(args.formula))
    if not verdict.satisfiable:
        print("UNSAT")
        return 1
    print("SAT")
    print(json.dumps(verdict.model.to_json(), sort_keys=True))
    return 0


def cmd_oracle(args) -> int:
    vocab = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not vocab:
        raise CliError("--vars needs at least one variable name")
    for v in vocab:
        if not is_variable_name(v):
            raise CliError(f"--vars: not a variable name: {v!r}")
    kb = load_kb(args.kb_file, whole_formula=args.formula)
    out = prime_implicates_brute(kb, vocab, args.depth, args.width)
    print(json.dumps([clause_to_json(c) for c in sorted(out, key=clause_order)], indent=2))
    return 0


def cmd_selftest(args) -> int:
    ok = True
    for result in run_all(seed=args.seed, quick=args.quick):
        print(result.line())
        sys.stdout.flush()
        ok = ok and result.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kprime",
        description="Compile modal-K knowledge bases to prime implicates and query them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a KB file to its prime implicates")
    p.add_argument("kb_file")
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.add_argument("--trace", action="store_true",
                   help="emit resolution derivations as JSON lines before the result")
    p.add_argument("--max-iter", type=int, default=PicConfig.max_iterations, metavar="N")
    p.add_argument("--clause-budget", type=int, default=PicConfig.clause_budget, metavar="N")
    p.add_argument("--formula", action="store_true",
                   help="treat the file as one formula and convert it first")
    p.set_defaults(run=cmd_compile)

    p = sub.add_parser("query", help="answer a clause query from a compiled file")
    p.add_argument("compiled_file")
    p.add_argument("--clause", required=True, metavar="TEXT")
    p.set_defaults(run=cmd_query)

    p = sub.add_parser("prove", help="decide satisfiability of a formula")
    p.add_argument("formula")
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("oracle", help="brute-force prime implicates within bounds")
    p.add_argument("kb_file")
    p.add_argument("--vars", required=True, metavar="p,q")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--formula", action="store_true",
                   help="treat the file as one formula and convert it first")
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); send what is left to
        # devnull so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    except CliError as e:
        print(f"kprime: {e}", file=sys.stderr)
        return e.code
    except ParseError as e:
        print(f"kprime: {e}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceeded as e:
        print(f"kprime: {type(e).__name__}: {e}", file=sys.stderr)
        return BUDGET_ERROR
    except RecursionError:
        # input nested deeper than the interpreter's stack allows
        print("kprime: RecursionDepthExceeded: input nested too deep", file=sys.stderr)
        return BUDGET_ERROR
    except ValueError as e:
        print(f"kprime: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
