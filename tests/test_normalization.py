import random

from kprime import (
    BOTTOM_CLAUSE,
    Literal,
    clause_to_formula,
    make_clause,
    make_cnf,
    simplify,
    simplify_cnf,
)
from kprime.generators import random_clause, random_raw_clause
from kprime.selftest import _raw_apply, _raw_redexes, raw_exhaust, raw_to_clause
from kprime.syntax import Clause, clause_key

from conftest import cl


def test_diamond_over_bottom_collapses_to_bottom():
    c = Clause(diamonds=frozenset([frozenset([BOTTOM_CLAUSE])]))
    assert simplify(c) == BOTTOM_CLAUSE


def test_bottom_diamond_disjunct_drops_out():
    c = Clause(
        literals=frozenset([Literal("p")]),
        diamonds=frozenset([frozenset([BOTTOM_CLAUSE])]),
    )
    assert simplify(c) == cl("p")


def test_duplicate_disjuncts_merge():
    c = make_clause(literals=[Literal("p"), Literal("p"), Literal("q")])
    assert c == cl("p | q")


def test_cnf_with_bottom_collapses():
    s = simplify_cnf([BOTTOM_CLAUSE, cl("q")])
    assert s == frozenset([BOTTOM_CLAUSE])


def test_make_cnf_dedups():
    assert make_cnf([cl("p | q"), cl("q | p")]) == frozenset([cl("p | q")])


def test_simplify_idempotent_and_rule_exhausted(rng):
    for _ in range(300):
        raw = random_raw_clause(rng, ("p", "q"), depth=rng.randint(0, 2), width=2)
        c = raw_to_clause(raw)
        nf = simplify(c)
        assert simplify(nf) == nf


def test_randomized_rule_order_confluence(rng):
    for _ in range(300):
        raw = random_raw_clause(rng, ("p", "q"), depth=rng.randint(0, 2), width=2)
        base = simplify(raw_to_clause(raw))
        for seed in (rng.random(), rng.random()):
            exhausted = raw_exhaust(raw, random.Random(seed))
            assert not _raw_redexes(exhausted)
            out = raw_to_clause(exhausted)
            assert out == simplify(out) == base


def _raw_size(node):
    total = 1
    for part in node[1]:
        if part[0] == "box":
            total += 1 + _raw_size(part[1])
        elif part[0] == "dia":
            total += 1 + sum(_raw_size(m) for m in part[1])
        else:
            total += 1
    return total


def test_each_rewrite_strictly_shrinks(rng):
    for _ in range(200):
        raw = random_raw_clause(rng, ("p", "q"), depth=rng.randint(0, 2), width=2)
        steps = 0
        while True:
            redexes = _raw_redexes(raw)
            if not redexes:
                break
            path, rule, detail = rng.choice(redexes)
            smaller = _raw_apply(raw, path, rule, detail)
            assert _raw_size(smaller) < _raw_size(raw)
            raw = smaller
            steps += 1
            assert steps <= 200


def test_simplify_preserves_meaning(rng, tableau):
    for _ in range(150):
        raw = random_raw_clause(rng, ("p", "q"), depth=rng.randint(0, 2), width=2)
        c = raw_to_clause(raw)
        before = clause_to_formula(c)
        after = clause_to_formula(simplify(c))
        assert tableau.entails(before, after) and tableau.entails(after, before)


def test_canonical_key_total_order_examples():
    assert clause_key(cl("p | q")) == clause_key(cl("q | p"))
    assert clause_key(cl("p")) != clause_key(cl("q"))
    # two copies of the same diamond set built in different member orders
    a = cl("<>((~r | q) & (~p | q))")
    b = cl("<>((~p | q) & (~r | q))")
    assert clause_key(a) == clause_key(b)


def test_canonical_key_sorts_consistently(rng):
    clauses = [random_clause(rng, ("p", "q"), 1, 2) for _ in range(50)]
    once = sorted(clauses, key=clause_key)
    rng.shuffle(clauses)
    again = sorted(clauses, key=clause_key)
    assert once == again
