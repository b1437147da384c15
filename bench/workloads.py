"""The three benchmark workloads: inputs, the timed work per item, and checks.

Every workload is a closed loop: one item at a time, the next starts when
the previous one has finished.  Inputs come only from the seed.  Every item
gets a fresh EntailmentOracle(Tableau()); the module-global default oracle
and tableau are never used.  The library functions the timed code calls are
looked up in this module's namespace, so the tracer can wrap them here as
the benchmark calls them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

from kprime.brute import enumerate_clauses
from kprime.cnf import single_clause
from kprime.errors import BudgetExceeded
from kprime.generators import random_clause, random_kb
from kprime.normalization import make_cnf, simplify
from kprime.parser import parse, render
from kprime.pic import EntailmentOracle, PicConfig, covering_implicate, prime_implicates, subsumes
from kprime.semantics import Tableau, model_check
from kprime.syntax import And, clause_to_formula, cnf_to_formula, sorted_clauses


@dataclass
class Outcome:
    """What one item produced.

    value is the raw output; describe() renders it for the digest after the
    timed region.  check holds what the reference checks need besides the
    input.
    """

    verdict: str
    value: object = None
    check: object = None
    tableau_nodes: int = 0  # memo entries the item's tableau gained


def describe(outcome: Outcome) -> str:
    """One canonical line per output, for the run's digest."""
    v = outcome.value
    if outcome.verdict in ("converged", "iteration-cap"):
        return f"pi converged={v.converged} iterations={v.iterations} " + " ; ".join(
            str(c) for c in v.sorted_implicates())
    if outcome.verdict == "true":
        return f"true {v}"
    if outcome.verdict == "sat":
        return "SAT " + json.dumps(v.model.to_json(), sort_keys=True)
    return f"{outcome.verdict} {v}" if v is not None else outcome.verdict


# ---------------------------------------------------------------------------
# compile-mix


COMPILE_CONFIG = PicConfig(max_iterations=8, clause_budget=30)
# The soundness generator draws each of these uniformly and independently.
# Cycling through every combination once per block, in seeded order, keeps
# that distribution and removes mix-to-mix variation between seeds.
COMPILE_SHAPES = tuple(
    product(range(1, 4), range(1, 5), range(0, 3), range(1, 5))
)  # (vocabulary size, clauses, depth, width)
COMPILE_BLOCKS = 24


@dataclass(frozen=True)
class KbInput:
    kb: frozenset
    text: str


def kb_text(kb) -> str:
    """The KB as a file `kprime compile` reads: one clause per line."""
    return "\n".join(str(c) for c in sorted_clauses(kb))


def compile_mix_inputs(rng: random.Random) -> list:
    out = []
    for _ in range(COMPILE_BLOCKS):
        shapes = list(COMPILE_SHAPES)
        rng.shuffle(shapes)
        for vocab_size, clauses, depth, width in shapes:
            kb = random_kb(
                rng, ("p", "q", "r")[:vocab_size], clauses=clauses, depth=depth, width=width
            )
            out.append(KbInput(kb, kb_text(kb)))
    return out


def compile_kb(item: KbInput) -> Outcome:
    kb = make_cnf([single_clause(parse(line)) for line in item.text.splitlines()])
    oracle = EntailmentOracle(Tableau())
    try:
        result = prime_implicates(kb, COMPILE_CONFIG, oracle)
    except BudgetExceeded as e:
        return Outcome("capped", f"{type(e).__name__} stage={e.stage}", kb,
                       len(oracle.tableau._memo))
    return Outcome("converged" if result.converged else "iteration-cap", result, kb,
                   len(oracle.tableau._memo))


def check_compiled(item: KbInput, outcome: Outcome) -> list:
    problems = []
    if outcome.check != item.kb:
        problems.append("clause text does not parse back to the generated KB")
    if outcome.verdict != "capped":
        tableau = Tableau()
        premise = cnf_to_formula(item.kb)
        for c in outcome.value.sorted_implicates():
            if not tableau.entails(premise, clause_to_formula(c)):
                problems.append(f"compiled clause is not an implicate: {c}")
    return problems


# ---------------------------------------------------------------------------
# query-space


QUERY_VOCAB, QUERY_DEPTH, QUERY_WIDTH = ("p", "q"), 1, 2
QUERY_CONFIG = PicConfig(max_iterations=15, clause_budget=600)
QUERY_POOL = 600  # compiled KBs, cycled; a run makes about 950 KB visits
# KB i answers every QUERY_SLICES-th query starting at i % QUERY_SLICES, so
# each run of QUERY_SLICES consecutive KBs covers the whole query space.
QUERY_SLICES = 32
QUERY_CHECKS_PER_KB = 4


@dataclass(frozen=True)
class CompiledKb:
    kb: frozenset
    implicates: tuple


def query_space_inputs(rng: random.Random):
    """Compile the KB pool (part of set-up) and build the whole query space."""
    queries = tuple(enumerate_clauses(QUERY_VOCAB, QUERY_DEPTH, QUERY_WIDTH))
    pool = []
    while len(pool) < QUERY_POOL:
        # one or two clauses, alternating: the generator's uniform choice, stratified
        kb = random_kb(rng, QUERY_VOCAB, clauses=1 + len(pool) % 2,
                       depth=QUERY_DEPTH, width=QUERY_WIDTH)
        kb = make_cnf([single_clause(parse(line)) for line in kb_text(kb).splitlines()])
        try:
            result = prime_implicates(kb, QUERY_CONFIG, EntailmentOracle(Tableau()))
        except BudgetExceeded:
            continue
        # only a complete compiled set answers every query; draw another KB
        # in the rare case one does not converge within the caps
        if result.converged:
            pool.append(CompiledKb(kb, tuple(result.sorted_implicates())))
    return pool, queries


def query_items(pool, queries):
    """One work function per (KB, query), with one fresh oracle per KB."""
    while True:
        for index, entry in enumerate(pool):
            oracle = EntailmentOracle(Tableau())
            for q in queries[index % QUERY_SLICES :: QUERY_SLICES]:
                yield (index, q), _query_work(entry.implicates, q, oracle)


def _query_work(implicates, q, oracle):
    def work():
        before = len(oracle.tableau._memo)
        cover = covering_implicate(implicates, q, oracle)
        added = len(oracle.tableau._memo) - before
        return Outcome("false" if cover is None else "true", cover, None, added)

    return work


def check_queries(inputs, records, rng) -> list:
    """Compare a seeded sample of answers per KB with direct entailment."""
    pool, _ = inputs
    by_kb: dict = {}
    for i, ((kb_index, _), outcome, _) in enumerate(records):
        if outcome.verdict != "error":
            by_kb.setdefault(kb_index, []).append(i)
    problems = []
    for kb_index, indices in sorted(by_kb.items()):
        kb = pool[kb_index].kb
        oracle = EntailmentOracle(Tableau())
        for i in sorted(rng.sample(indices, min(QUERY_CHECKS_PER_KB, len(indices)))):
            (_, q), outcome, _ = records[i]
            if oracle.is_implicate(kb, q) != (outcome.verdict == "true"):
                problems.append((i, f"compiled answer differs from direct entailment: {q}"))
    return problems


def structural_true(records) -> int:
    """True answers that structural subsumption alone already decides."""
    return sum(1 for (_, q), out, _ in records
               if out.verdict == "true" and subsumes(out.value, simplify(q)))


# ---------------------------------------------------------------------------
# prove-cnf


PROVE_VOCAB = ("p", "q", "r", "s")
PROVE_CLAUSES, PROVE_DEPTH, PROVE_WIDTH = 8, 2, 3
PROVE_POOL = 2000  # formulas, cycled; a run reaches about 5,000 of them


def prove_inputs(rng: random.Random) -> list:
    out = []
    for _ in range(PROVE_POOL):
        clauses = [random_clause(rng, PROVE_VOCAB, PROVE_DEPTH, PROVE_WIDTH)
                   for _ in range(PROVE_CLAUSES)]
        formula = clause_to_formula(clauses[-1])
        for c in reversed(clauses[:-1]):
            formula = And(clause_to_formula(c), formula)
        out.append(render(formula))
    return out


def prove(text: str) -> Outcome:
    formula = parse(text)
    tableau = Tableau()
    try:
        verdict = tableau.satisfiable(formula)
    except BudgetExceeded as e:
        return Outcome("budget", type(e).__name__, None, len(tableau._memo))
    if not verdict.satisfiable:
        return Outcome("unsat", None, None, len(tableau._memo))
    return Outcome("sat", verdict, formula, len(tableau._memo))


def check_proved(text: str, outcome: Outcome) -> list:
    if outcome.verdict != "sat":
        return []
    verdict = outcome.value
    if not model_check(verdict.model, verdict.world, outcome.check):
        return ["SAT model fails its formula"]
    return []


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # rng -> inputs
    items: Callable  # inputs -> endless iterator of (key, work function)
    check: Callable  # (inputs, records, rng) -> (record index, problem) pairs; skips errors


def _cycle(pool, work):
    while True:
        for entry in pool:
            yield entry, partial(work, entry)


def _check_each(checker):
    def check(inputs, records, rng):
        return [(i, p) for i, (key, out, _) in enumerate(records)
                if out.verdict != "error" for p in checker(key, out)]

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compile-mix", compile_mix_inputs,
                 lambda pool: _cycle(pool, compile_kb), _check_each(check_compiled)),
        Workload("query-space", query_space_inputs,
                 lambda inputs: query_items(*inputs), check_queries),
        Workload("prove-cnf", prove_inputs,
                 lambda pool: _cycle(pool, prove), _check_each(check_proved)),
    )
}
