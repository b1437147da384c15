import pytest

from kprime import (
    And,
    Box,
    ClauseBudgetExceeded,
    Not,
    RecursionDepthExceeded,
    Var,
    nnf,
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


def _cnf_or_budget(f):
    try:
        return to_cnf(f)
    except ClauseBudgetExceeded as e:
        return ("over budget", e.reached)


def test_conversion_pushes_negation_as_nnf_does(rng):
    # to_cnf walks the formula once; converting its NNF first changes nothing
    cases = []
    for _ in range(300):
        g = random_formula(rng, ("p", "q", "r"), depth=rng.randint(0, 3),
                           size=rng.randint(1, 16))
        cases += [g, Not(g)]
    # 14 disjoined conjunctions exceed the clause budget; under ~ they do not
    wide = parse(" | ".join(f"(p{i} & q{i})" for i in range(14)))
    cases += [wide, Not(Not(wide)), Not(wide)]
    for g in cases:
        assert _cnf_or_budget(g) == _cnf_or_budget(nnf(g))
    assert _cnf_or_budget(wide) == ("over budget", 16384)


@pytest.mark.parametrize("bad", [Not("p"), And(Var("p"), 3), Box(Not(3)), "p"],
                         ids=["not-str", "and-int", "box-not-int", "str"])
def test_non_formula_is_a_type_error(bad):
    for convert in (to_cnf, single_clause):
        with pytest.raises(TypeError, match="not a formula"):
            convert(bad)
