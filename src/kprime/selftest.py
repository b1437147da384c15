"""Invariant suites: seeded random checks behind `kprime selftest` and the
acceptance tests.

SUITES is the one table of suites: each row names a check and, for a
seeded check, its full and quick sizes.  run_suite is the one runner: it
seeds, times and wraps a check as a SuiteResult.  `kprime selftest` and the
acceptance tests both run every row through it, with the same default seed
and at full size, so they run exactly the same checks.  Zero failures is
the bar everywhere.  Each check builds one EntailmentOracle (or one
Tableau) and passes it to every compile, brute-force run and check it
makes, so verdicts are reused within a suite and never across suites.  The
raw-clause rewriter here applies the four simplification rules one redex
at a time in random order, independently of the production simplifier, to
check that every order lands on the same normal form.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .brute import enumerate_clauses, prime_implicates_brute, within_bounds
from .cnf import single_clause, to_cnf
from .errors import (
    ClauseBudgetExceeded,
    RecursionDepthExceeded,
    TableauBudgetExceeded,
)
from .generators import random_clause, random_formula, random_kb, random_raw_clause
from .normalization import make_cnf, simplify
from .parser import parse
from .pic import (
    EntailmentOracle,
    PicConfig,
    covering_implicate,
    prime_implicates,
    residue_detailed,
)
from .resolution import DEFAULT_MAX_DEPTH, closure_step_traced, sigma_resolvents
from .semantics import (
    Tableau,
    diamond_subformulas,
    enumerate_tree_models,
    model_check,
)
from .syntax import (
    EMPTY,
    Clause,
    Literal,
    clause_to_formula,
    clause_key,
    modal_depth,
    variables,
)

MAX_REPORTED_FAILURES = 8


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    seconds: float
    failures: tuple = ()
    info: tuple = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name}: {self.checked} checks in {self.seconds:.1f}s"
        for msg in self.failures[:MAX_REPORTED_FAILURES]:
            out += f"\n     failure: {msg}"
        for msg in self.info:
            out += f"\n     note: {msg}"
        return out


# ---------------------------------------------------------------------------
# Randomized single-step rewriter over raw clause trees


def _is_bottom_raw(clause) -> bool:
    return all(part == ("bot",) for part in clause[1])


def _raw_redexes(clause, path=()):
    """All (path, rule, detail) triples where one simplification rule fires."""
    out = []
    parts = clause[1]
    for i, part in enumerate(parts):
        if part == ("bot",) and len(parts) > 1:
            out.append((path, "drop-bot", i))
        for j in range(i + 1, len(parts)):
            if parts[j] == part:
                out.append((path, "dedup-disjunct", (i, j)))
                break
    for i, part in enumerate(parts):
        if part[0] == "box":
            out.extend(_raw_redexes(part[1], path + (("box", i),)))
        elif part[0] == "dia":
            members = part[1]
            if len(members) == 1 and _is_bottom_raw(members[0]):
                out.append((path, "dia-bot", i))
            for m, member in enumerate(members):
                if _is_bottom_raw(member) and len(members) > 1:
                    out.append((path, "cnf-bot", (i, m)))
                for m2 in range(m + 1, len(members)):
                    if members[m2] == member:
                        out.append((path, "dedup-cnf", (i, m, m2)))
                        break
                out.extend(_raw_redexes(member, path + (("dia", i, m),)))
    return out


def _raw_apply(clause, path, rule, detail):
    if path:
        head, rest = path[0], path[1:]
        parts = list(clause[1])
        if head[0] == "box":
            _, i = head
            parts[i] = ("box", _raw_apply(parts[i][1], rest, rule, detail))
        else:
            _, i, m = head
            members = list(parts[i][1])
            members[m] = _raw_apply(members[m], rest, rule, detail)
            parts[i] = ("dia", tuple(members))
        return ("cl", tuple(parts))

    parts = list(clause[1])
    if rule == "drop-bot":
        del parts[detail]
    elif rule == "dedup-disjunct":
        del parts[detail[1]]
    elif rule == "dia-bot":
        parts[detail] = ("bot",)
    elif rule == "cnf-bot":
        i, m = detail
        parts[i] = ("dia", (parts[i][1][m],))
    elif rule == "dedup-cnf":
        i, _, m2 = detail
        members = list(parts[i][1])
        del members[m2]
        parts[i] = ("dia", tuple(members))
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return ("cl", tuple(parts))


def raw_exhaust(clause, rng: random.Random):
    """Apply rules one at a time in random order until none fires."""
    while True:
        redexes = _raw_redexes(clause)
        if not redexes:
            return clause
        path, rule, detail = rng.choice(redexes)
        clause = _raw_apply(clause, path, rule, detail)


def raw_to_clause(raw) -> Clause:
    """Read a raw tree as a Clause, quotienting order, multiplicity and bottoms."""
    lits, boxes, dias = set(), set(), set()
    for part in raw[1]:
        if part[0] == "lit":
            lits.add(Literal(part[1], part[2]))
        elif part[0] == "box":
            boxes.add(raw_to_clause(part[1]))
        elif part[0] == "dia":
            dias.add(frozenset(raw_to_clause(m) for m in part[1]) or EMPTY)
    return Clause(frozenset(lits), frozenset(boxes), frozenset(dias))


# ---------------------------------------------------------------------------
# The worked compilation example


EXAMPLE_KB_TEXT = (
    "<>(p & (~p | []r))",
    "[]<>(~r | q)",
    "[][](~p | r)",
)

EXAMPLE_EXPECTED_TEXT = (
    "[][](~p | r)",
    "[]<>((~r | q) & (~p | q))",
    "<>(p & (~p | []r) & []r & <>((~r | q) & q) & <>((~r | q) & (~p | q) & q))",
)


def example_kb():
    return make_cnf(single_clause(parse(t)) for t in EXAMPLE_KB_TEXT)


def example_expected():
    return make_cnf(single_clause(parse(t)) for t in EXAMPLE_EXPECTED_TEXT)


def check_worked_example():
    """Compile the three-clause example KB and check it against the published run.

    Hard requirements: convergence within ten stages and ten seconds, every
    published clause covered by the computed set, and every computed clause
    an oracle-verified implicate of the KB.  The published run was computed
    by hand with a weaker rule set, so computed clauses it fails to cover
    are reported as a diff once the oracle confirms they are implicates,
    rather than failing the suite.
    """
    start = time.perf_counter()
    failures, info = [], []
    oracle = EntailmentOracle()
    kb = example_kb()
    expected = example_expected()
    result = prime_implicates(kb, PicConfig(max_iterations=10), oracle)
    elapsed = time.perf_counter() - start
    checked = 0

    if not result.converged:
        failures.append(f"did not converge within 10 iterations ({result.iterations})")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget is 10s")
    got = result.prime_implicates
    for c in sorted(expected, key=clause_key):
        checked += 1
        if not any(oracle.clause_entails(d, c) for d in got):
            failures.append(f"published clause not covered: {c}")
    for d in sorted(got, key=clause_key):
        checked += 1
        if not oracle.is_implicate(kb, d):
            failures.append(f"computed clause is not an implicate: {d}")
        elif not any(oracle.clause_entails(c, d) for c in expected):
            info.append(f"implicate missing from the published set: {d}")
    textual_diff = {clause_key(c) for c in got} ^ {clause_key(c) for c in expected}
    if textual_diff:
        only_got = sorted(got - expected, key=clause_key)
        only_exp = sorted(expected - got, key=clause_key)
        for c in only_got:
            info.append(f"computed but not listed: {c}")
        for c in only_exp:
            info.append(f"listed but not computed: {c}")
        info.append("sets differ textually; the oracle above is the arbiter")
    return checked, failures, info


def check_soundness(rng: random.Random, kbs: int):
    """Every clause out of one closure step or a compiled run is an implicate."""
    failures = []
    checked = 0
    capped = 0
    config = PicConfig(max_iterations=8, clause_budget=400)
    oracle = EntailmentOracle()
    for i in range(kbs):
        vocab = ("p", "q", "r")[: rng.randint(1, 3)]
        kb = random_kb(
            rng,
            vocab,
            clauses=rng.randint(1, 4),
            depth=rng.randint(0, 2),
            width=rng.randint(1, 4),
        )
        closed, _ = closure_step_traced(kb)
        for c in closed:
            checked += 1
            if not oracle.is_implicate(kb, c):
                failures.append(f"KB {i}: closure clause not entailed: {c}")
        try:
            result = prime_implicates(kb, config, oracle)
        except (ClauseBudgetExceeded, TableauBudgetExceeded):
            capped += 1
            continue
        for c in result.prime_implicates:
            checked += 1
            if not oracle.is_implicate(kb, c):
                failures.append(f"KB {i}: compiled clause not entailed: {c}")
    info = [f"{capped} runs hit a resource cap (closure still checked)"] if capped else []
    return checked, failures, info


def check_covering_agreement(rng: random.Random, kbs: int):
    """Compiled sets and brute-force sets cover each other at desk scale."""
    failures = []
    checked = 0
    vocab = ("p", "q")
    depth, width = 1, 2
    config = PicConfig(max_iterations=15, clause_budget=600)
    oracle = EntailmentOracle()
    for i in range(kbs):
        kb = random_kb(rng, vocab, clauses=rng.randint(1, 3), depth=depth, width=width)
        result = prime_implicates(kb, config, oracle)
        if not result.converged:
            failures.append(f"KB {i}: compilation did not converge")
            continue
        pic_out = result.prime_implicates
        brute_out = prime_implicates_brute(kb, vocab, depth, width, oracle)
        for b in brute_out:
            checked += 1
            if not any(oracle.clause_entails(d, b) for d in pic_out):
                failures.append(f"KB {i}: brute prime implicate uncovered: {b}")
        for d in pic_out:
            if not within_bounds(d, vocab, depth, width):
                continue
            checked += 1
            if not any(oracle.clause_entails(b, d) for b in brute_out):
                failures.append(f"KB {i}: compiled clause uncovered by brute set: {d}")
    return checked, failures, ()


def check_residue_contract(rng: random.Random, sets: int):
    """Residue output is an antichain that covers its input, deterministically."""
    failures = []
    checked = 0
    oracle = EntailmentOracle()
    for i in range(sets):
        vocab = ("p", "q", "r")[: rng.randint(1, 2)]
        pool = {
            random_clause(rng, vocab, depth=rng.randint(0, 1), width=2)
            for _ in range(rng.randint(1, 6))
        }
        kept, dropped = residue_detailed(pool, oracle)
        again, _ = residue_detailed(pool, oracle)
        checked += 1
        if kept != again:
            failures.append(f"set {i}: residue not deterministic")
        if not set(kept) <= pool:
            failures.append(f"set {i}: residue not a subset of its input")
        for a in kept:
            for b in kept:
                if a is not b and oracle.clause_entails(a, b):
                    failures.append(f"set {i}: kept clause {a} entails kept clause {b}")
        for c in pool:
            if not any(oracle.clause_entails(d, c) for d in kept):
                failures.append(f"set {i}: input clause uncovered: {c}")
        for c, witness in dropped:
            if not oracle.clause_entails(witness, c):
                failures.append(f"set {i}: recorded witness does not entail {c}")
    return checked, failures, ()


def check_simplification(rng: random.Random, clauses: int):
    """Idempotence, rule exhaustion, order-independence, semantic equivalence."""
    failures = []
    checked = 0
    tableau = Tableau()
    for i in range(clauses):
        vocab = ("p", "q")[: rng.randint(1, 2)]
        raw = random_raw_clause(rng, vocab, depth=rng.randint(0, 2), width=2)
        as_clause = raw_to_clause(raw)
        nf = simplify(as_clause)
        checked += 1
        if simplify(nf) != nf:
            failures.append(f"clause {i}: simplify not idempotent")
        order_a = raw_to_clause(raw_exhaust(raw, random.Random(rng.random())))
        order_b = raw_to_clause(raw_exhaust(raw, random.Random(rng.random())))
        if simplify(order_a) != nf or simplify(order_b) != nf:
            # exhausted raw trees may differ only by set order; simplify is
            # the quotient map and must agree with the one-pass result
            failures.append(f"clause {i}: randomized rule order diverged")
        if order_a != simplify(order_a) or order_b != simplify(order_b):
            failures.append(f"clause {i}: rule-exhausted tree not in normal form")
        if modal_depth(clause_to_formula(as_clause)) <= 2:
            f_raw = clause_to_formula(as_clause)
            f_nf = clause_to_formula(nf)
            if not (tableau.entails(f_raw, f_nf) and tableau.entails(f_nf, f_raw)):
                failures.append(f"clause {i}: simplify changed the meaning")
    return checked, failures, ()


def check_oracle_cross_validation(rng: random.Random, formulas: int):
    """Tableau verdicts match the bounded tree-model enumeration; witnesses are re-checked."""
    failures = []
    checked = 0
    tableau = Tableau()
    for i in range(formulas):
        vocab = ("p", "q")[: rng.randint(1, 2)]
        f = random_formula(rng, vocab, depth=rng.randint(0, 2), size=rng.randint(3, 12))
        verdict = tableau.satisfiable(f)
        checked += 1
        if verdict.satisfiable and not model_check(verdict.model, verdict.world, f):
            failures.append(f"formula {i}: witness model fails its own formula")
        depth = modal_depth(f)
        branching = min(3, len(diamond_subformulas(f)))
        found = any(
            model_check(m, w, f)
            for m, w in enumerate_tree_models(variables(f), depth, branching)
        )
        if found != verdict.satisfiable:
            failures.append(
                f"formula {i}: tableau says {verdict.satisfiable}, enumeration says {found}"
            )
    return checked, failures, ()


def check_query_agreement(rng: random.Random, kbs: int):
    """Compiled answers equal direct entailment over the whole bounded query space."""
    failures = []
    checked = 0
    vocab = ("p", "q")
    depth, width = 1, 2
    queries = tuple(enumerate_clauses(vocab, depth, width))
    config = PicConfig(max_iterations=15, clause_budget=600)
    oracle = EntailmentOracle()
    for i in range(kbs):
        kb = random_kb(rng, vocab, clauses=rng.randint(1, 2), depth=depth, width=width)
        result = prime_implicates(kb, config, oracle)
        if not result.converged:
            failures.append(f"KB {i}: compilation did not converge")
            continue
        pi = result.prime_implicates
        for q in queries:
            checked += 1
            compiled = covering_implicate(pi, q, oracle) is not None
            direct = oracle.is_implicate(kb, q)
            if compiled != direct:
                failures.append(
                    f"KB {i}: query {q}: compiled={compiled} direct={direct}"
                )
                if len(failures) > MAX_REPORTED_FAILURES:
                    return checked, failures, ()
    return checked, failures, ()


def check_budget_mechanisms():
    """Every resource cap exists and fails loudly, never silently.

    The paper's exponential-growth claims are represented by these
    configurable caps; measuring the growth is out of scope at desk scale.
    """
    failures = []
    checked = 0

    big = parse(
        "(p1 | q1) & (p2 | q2) & (p3 | q3) & (p4 | q4) & (p5 | q5) & (p6 | q6)"
    )
    # 13 disjoined conjunctions distribute to 8,192 clauses, 14 past the 10,000 cap
    fits, past_cap = (
        parse(" | ".join(f"(p{i} & q{i})" for i in range(1, n + 1))) for n in (13, 14)
    )
    to_cnf(fits)
    try:
        to_cnf(past_cap)
        failures.append("CNF distribution ignored its clause budget")
    except ClauseBudgetExceeded:
        checked += 1
    try:
        Tableau(node_budget=3).satisfiable(big)
        failures.append("tableau ignored its node budget")
    except TableauBudgetExceeded:
        checked += 1
    # the resolvent depth cap is DEFAULT_MAX_DEPTH (64): clauses 64 boxes
    # deep resolve, 65 do not
    at_cap, past_cap = (
        [single_clause(parse("[]" * n + lit)) for lit in ("p", "~p")]
        for n in (DEFAULT_MAX_DEPTH, DEFAULT_MAX_DEPTH + 1)
    )
    sigma_resolvents(*at_cap)
    try:
        sigma_resolvents(*past_cap)
        failures.append("resolvent search ignored its depth cap")
    except RecursionDepthExceeded:
        checked += 1
    try:
        kb = make_cnf((single_clause(parse("p | q")), single_clause(parse("~p | q"))))
        prime_implicates(kb, PicConfig(clause_budget=1))
        failures.append("compiler ignored its clause budget")
    except ClauseBudgetExceeded as e:
        checked += 1
        if e.stage is None:
            failures.append("budget error does not report the stage reached")
    return checked, failures, ()


# ---------------------------------------------------------------------------
# The suite table and its runner


DEFAULT_SEED = 2024


class Suite(NamedTuple):
    """A row of SUITES.  A seeded check is called as check(rng, size), at
    `full` size or, under --quick, at `quick`; a fixed check has no sizes
    and is called as check().  Both return (checked, failures, info)."""

    name: str
    check: Callable
    full: int | None = None
    quick: int | None = None


SUITES = (
    Suite("worked-example", check_worked_example),
    Suite("soundness", check_soundness, full=200, quick=20),
    Suite("covering-agreement", check_covering_agreement, full=50, quick=5),
    Suite("residue-contract", check_residue_contract, full=500, quick=50),
    Suite("simplification", check_simplification, full=1000, quick=100),
    Suite("oracle-cross-validation", check_oracle_cross_validation, full=500, quick=50),
    Suite("query-agreement", check_query_agreement, full=20, quick=3),
    Suite("budget-mechanisms", check_budget_mechanisms),
)


def run_suite(suite: Suite, seed: int = DEFAULT_SEED, quick: bool = False) -> SuiteResult:
    """Run one row of SUITES.  The k-th seeded row in table order (k from 0)
    draws from random.Random(seed + k); fixed rows take no seed."""
    start = time.perf_counter()
    args = ()
    if suite.full is not None:
        k = [s for s in SUITES if s.full is not None].index(suite)
        args = (random.Random(seed + k), suite.quick if quick else suite.full)
    checked, failures, info = suite.check(*args)
    seconds = time.perf_counter() - start
    return SuiteResult(suite.name, not failures, checked, seconds, tuple(failures), tuple(info))


def run_all(seed: int = DEFAULT_SEED, quick: bool = False):
    """Run every row of SUITES in order; yields results as they finish."""
    for suite in SUITES:
        yield run_suite(suite, seed, quick)
