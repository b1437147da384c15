import pytest

from kprime import (
    And,
    Box,
    Diamond,
    KripkeModel,
    Not,
    RecursionDepthExceeded,
    TableauBudgetExceeded,
    Tableau,
    Var,
    enumerate_tree_models,
    model_check,
    parse,
    variables,
)
from kprime.generators import random_formula
from kprime.semantics import diamond_subformulas
from kprime.syntax import modal_depth


def _single_world(p_true=True):
    return KripkeModel(
        worlds=frozenset([0]),
        relation=frozenset(),
        valuation={"p": frozenset([0]) if p_true else frozenset()},
        root=0,
    )


def test_model_check_variable():
    assert model_check(_single_world(), 0, Var("p"))
    assert not model_check(_single_world(False), 0, Var("p"))


def test_model_check_vacuous_box():
    assert model_check(_single_world(), 0, Box(Var("q")))


def test_model_check_diamond_needs_witness():
    assert not model_check(_single_world(), 0, Diamond(Var("q")))


def test_model_check_unknown_world():
    with pytest.raises(ValueError):
        model_check(_single_world(), 7, Var("p"))


def test_satisfiable_contradiction(tableau):
    assert not tableau.satisfiable(parse("p & ~p")).satisfiable


def test_satisfiable_box_kills_diamond(tableau):
    assert not tableau.satisfiable(parse("<>p & []~p")).satisfiable


def test_satisfiable_returns_checkable_model(tableau):
    g = parse("<>p & []q")
    verdict = tableau.satisfiable(g)
    assert verdict.satisfiable
    assert len(verdict.model.worlds) == 2
    assert model_check(verdict.model, verdict.world, g)


def test_local_entails_examples(tableau):
    assert tableau.entails(parse("p & q"), parse("p"))
    assert tableau.entails(parse("[](p & q)"), parse("[]p & []q"))
    assert not tableau.entails(parse("<>p"), parse("[]p"))


def test_local_entails_matches_satisfiability(rng, tableau):
    for _ in range(100):
        a = random_formula(rng, ("p", "q"), 1, rng.randint(1, 8))
        b = random_formula(rng, ("p", "q"), 1, rng.randint(1, 8))
        assert tableau.entails(a, b) == (not tableau.satisfiable(And(a, Not(b))).satisfiable)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_tree_models({"p"}, 0, 0)) == 2
    assert sum(1 for _ in enumerate_tree_models({"p"}, 1, 1)) == 6
    assert sum(1 for _ in enumerate_tree_models(set(), 0, 0)) == 1


def test_enumeration_all_models_valid():
    for model, world in enumerate_tree_models({"p"}, 1, 2):
        assert world == model.root
        assert model.root in model.worlds


def test_box_is_dual_of_diamond_under_the_oracle(rng, tableau):
    for _ in range(40):
        body = random_formula(rng, ("p", "q"), 1, rng.randint(1, 7))
        boxed, dual = Box(body), Not(Diamond(Not(body)))
        assert tableau.entails(boxed, dual) and tableau.entails(dual, boxed)


def test_box_diamond_duality_on_enumerated_models(rng):
    bodies = [random_formula(rng, ("p", "q"), 1, rng.randint(1, 6)) for _ in range(10)]
    for model, world in enumerate_tree_models({"p", "q"}, 1, 2):
        for body in bodies:
            boxed = model_check(model, world, Box(body))
            dual = model_check(model, world, Not(Diamond(Not(body))))
            assert boxed == dual


def test_tableau_agrees_with_enumeration(rng, tableau):
    for _ in range(120):
        g = random_formula(rng, ("p", "q"), rng.randint(0, 2), rng.randint(2, 10))
        verdict = tableau.satisfiable(g)
        if verdict.satisfiable:
            assert model_check(verdict.model, verdict.world, g)
        branching = min(3, len(diamond_subformulas(g)))
        found = any(
            model_check(m, w, g)
            for m, w in enumerate_tree_models(variables(g), modal_depth(g), branching)
        )
        assert found == verdict.satisfiable


def test_node_budget_is_loud():
    f = parse("(p1 | q1) & (p2 | q2) & (p3 | q3) & (p4 | q4)")
    with pytest.raises(TableauBudgetExceeded):
        Tableau(node_budget=2).satisfiable(f)


def test_deep_nesting_is_a_budget_error(tableau):
    # nested deeper than the interpreter's stack: a budget error, never a
    # bare RecursionError
    deep = Var("p")
    for _ in range(5000):
        deep = Box(deep)
    with pytest.raises(RecursionDepthExceeded):
        tableau.satisfiable(deep)


def test_model_json_roundtrip(tableau):
    verdict = tableau.satisfiable(parse("<>(p & q) & <>~p"))
    m = verdict.model
    assert KripkeModel.from_json(m.to_json()) == m


def test_model_validation():
    with pytest.raises(ValueError):
        KripkeModel(frozenset([0]), frozenset(), {}, root=1)
    with pytest.raises(ValueError):
        KripkeModel(frozenset([0]), frozenset([(0, 1)]), {}, root=0)
    with pytest.raises(ValueError):
        KripkeModel(frozenset([0]), frozenset(), {"p": frozenset([3])}, root=0)
