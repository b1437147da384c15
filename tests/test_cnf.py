import pytest

from kprime import (
    Box,
    ClauseBudgetExceeded,
    RecursionDepthExceeded,
    Var,
    parse,
    simplify,
    single_clause,
    to_cnf,
)
from kprime.generators import random_formula
from kprime.syntax import cnf_to_formula, length, modal_depth

from conftest import cl


def test_variable_is_already_clausal():
    assert to_cnf(parse("p")) == frozenset([cl("p")])


def test_conjunction_splits():
    assert to_cnf(parse("p & q")) == frozenset([cl("p"), cl("q")])


def test_distribution():
    assert to_cnf(parse("(p & q) | r")) == frozenset([cl("p | r"), cl("q | r")])


def test_box_distributes_over_conjunction():
    assert to_cnf(parse("[](p & q)")) == frozenset([cl("[]p"), cl("[]q")])


def test_verum_and_bottom_edges():
    assert to_cnf(parse("~bot")) == frozenset()
    assert to_cnf(parse("[]~bot")) == frozenset()
    assert to_cnf(parse("bot")) == frozenset([cl("bot")])
    assert to_cnf(parse("<>bot")) == frozenset([cl("bot")])
    # a diamond over verum stays: it asserts a successor exists
    dia_top = to_cnf(parse("<>~bot"))
    (c,) = dia_top
    assert c.diamonds == frozenset([frozenset()])


def test_clauses_are_normal_and_equivalent(rng, tableau):
    for _ in range(150):
        g = random_formula(rng, ("p", "q"), depth=rng.randint(0, 2),
                           size=rng.randint(1, 12))
        if length(g) > 30 or modal_depth(g) > 2:
            continue
        clauses = to_cnf(g)
        assert all(simplify(c) == c for c in clauses)
        back = cnf_to_formula(clauses)
        assert tableau.entails(g, back) and tableau.entails(back, g)


def test_budget_error_on_blowup():
    # 14 disjoined conjunctions distribute to 2**14 clauses, past the 10,000 cap
    wide = parse(" | ".join(f"(p{i} & q{i})" for i in range(14)))
    with pytest.raises(ClauseBudgetExceeded) as exc:
        to_cnf(wide)
    assert exc.value.limit == 10_000 and exc.value.reached > 10_000


def test_deep_nesting_is_a_budget_error():
    # nested deeper than the interpreter's stack: a budget error, never a
    # bare RecursionError
    deep = Var("p")
    for _ in range(5000):
        deep = Box(deep)
    for convert in (to_cnf, single_clause):
        with pytest.raises(RecursionDepthExceeded):
            convert(deep)


def test_single_clause_rejects_conjunctions():
    with pytest.raises(ValueError):
        single_clause(parse("p & q"))
