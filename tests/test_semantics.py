import random

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
from kprime import semantics, syntax
from kprime.generators import random_clause, random_formula
from kprime.semantics import diamond_subformulas
from kprime.syntax import clause_to_formula, modal_depth


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


def test_local_entails_matches_satisfiability(rng):
    # the same search from the same memo: same verdict, same memo, same nodes
    by_entails, by_satisfiable = Tableau(), Tableau()
    for _ in range(150):
        a = random_formula(rng, ("p", "q"), rng.randint(0, 2), rng.randint(1, 8))
        b = random_formula(rng, ("p", "q"), rng.randint(0, 2), rng.randint(1, 8))
        verdict = by_entails.entails(a, b)
        assert verdict == (not by_satisfiable.satisfiable(And(a, Not(b))).satisfiable)
        assert (len(by_entails._memo), by_entails._nodes) == (
            len(by_satisfiable._memo), by_satisfiable._nodes)


def test_refutes_takes_a_root_in_nnf(tableau):
    p, q = Var("p"), Var("q")
    assert tableau.refutes(And(p, Not(p)))
    assert not tableau.refutes(And(Diamond(p), Box(Not(q))))
    with pytest.raises(TypeError):
        tableau.refutes(Not(And(p, q)))


def test_a_search_computes_each_sort_key_once(monkeypatch):
    # the search's key table answers every node it has keyed, subformulas
    # the recursion reaches included
    computed = []  # ids of the nodes keyed afresh in the current search
    real = syntax.formula_sort_key

    def counting(f, keys):
        if id(f) not in keys:
            computed.append(id(f))
        return real(f, keys)

    monkeypatch.setattr(syntax, "formula_sort_key", counting)
    monkeypatch.setattr(semantics, "formula_sort_key", counting)
    rng = random.Random(7)
    searched = 0
    for _ in range(40):
        clauses = [random_clause(rng, ("p", "q", "r", "s"), 2, 3) for _ in range(8)]
        formula = clause_to_formula(clauses[-1])
        for c in reversed(clauses[:-1]):
            formula = And(clause_to_formula(c), formula)
        Tableau().satisfiable(formula)
        assert len(computed) == len(set(computed))
        searched += len(computed)
        computed.clear()
    assert searched > 1000
    f = parse("<>(p & q) | [](p & q) | ~r")
    warm = {}
    assert real(f, warm) == real(f, warm) == real(f, {})  # a warm table, then a cold one


def test_entails_builds_no_model(monkeypatch, tableau):
    def no_model(*args):
        raise AssertionError("entails built a model")

    monkeypatch.setattr(semantics, "_tree_to_model", no_model)
    assert not tableau.entails(parse("<>p"), parse("[]p"))
    assert tableau.entails(parse("[](p & q)"), parse("[]p"))


def test_entails_budget_error_rolls_back_and_repeats():
    tableau = Tableau(node_budget=12)
    tableau.satisfiable(parse("<>p & []q"))  # a warm memo to roll back to
    memo = dict(tableau._memo)
    a = parse("(p1 | q1) & (p2 | q2) & (p3 | q3) & (p4 | q4)")
    errors = []
    for _ in range(2):
        with pytest.raises(TableauBudgetExceeded) as exc:
            tableau.entails(a, parse("p1 & p2 & p3 & p4"))
        errors.append((str(exc.value), exc.value.reached, exc.value.limit))
        assert tableau._memo == memo
    assert errors[0] == errors[1] == (
        "tableau search expanded 13 nodes, over the budget of 12", 13, 12)


def test_model_too_deep_to_build_rolls_back_the_memo(monkeypatch, tableau):
    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(semantics, "_tree_to_model", too_deep)
    with pytest.raises(RecursionDepthExceeded):
        tableau.satisfiable(parse("<>p & []q"))
    assert tableau._memo == {}


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
    with pytest.raises(TableauBudgetExceeded) as exc:
        Tableau(node_budget=2).satisfiable(f)
    assert "budget of 2" in str(exc.value)


def test_node_budget_error_carries_its_counts():
    f = parse("(p1 | q1) & (p2 | q2) & (p3 | q3) & (p4 | q4)")
    with pytest.raises(TableauBudgetExceeded) as exc:
        Tableau(node_budget=2).satisfiable(f)
    assert (exc.value.reached, exc.value.limit) == (3, 2)
    assert str(exc.value) == "tableau search expanded 3 nodes, over the budget of 2"


@pytest.mark.parametrize("nodes", [0, -1, 2.5, "7", True])
def test_node_budget_must_be_positive(nodes):
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        Tableau(node_budget=nodes)


def test_deep_nesting_is_a_budget_error(tableau):
    # nested deeper than the interpreter's stack: a budget error, never a
    # bare RecursionError
    deep = Var("p")
    for _ in range(5000):
        deep = Box(deep)
    with pytest.raises(RecursionDepthExceeded):
        tableau.satisfiable(deep)
    with pytest.raises(RecursionDepthExceeded):
        tableau.entails(deep, Var("p"))
    with pytest.raises(RecursionDepthExceeded):
        tableau.refutes(deep)


# (formula, satisfiable, memo entries and nodes of a cold search, model as
# JSON): the search order, the memo keys and the models, pinned.  They cover
# the ~bot conjuncts and disjuncts the search drops, bot branches, and
# subformulas the parse shares.
PINNED_SEARCHES = [
    ("(p | ~bot) & ~bot & <>(~bot & q) & [](r | ~bot) & (~bot | ~p)", True, 10,
     {"rel": [[0, 1]], "root": 0, "val": {"p": [0], "q": [1], "r": [1]}, "worlds": [0, 1]}),
    ("(bot | p) & <>(bot | q) & [](~q | bot | r) & <>~r", True, 13,
     {"rel": [[0, 1], [0, 2]], "root": 0, "val": {"p": [0], "q": [2], "r": [2]},
      "worlds": [0, 1, 2]}),
    ("(bot | p) & <>(bot | q) & [](~q | bot)", False, 7, None),
    ("((p -> q) <-> <>(p -> q)) & []((p -> q) | <>(p -> q)) & <>~(p -> q)", True, 15,
     {"rel": [[0, 1], [1, 2]], "root": 0, "val": {"p": [0, 1], "q": []},
      "worlds": [0, 1, 2]}),
]


@pytest.mark.parametrize("text, sat, nodes, model", PINNED_SEARCHES)
def test_search_is_pinned(text, sat, nodes, model):
    tableau = Tableau()
    verdict = tableau.satisfiable(parse(text))
    assert verdict.satisfiable is sat
    assert (len(tableau._memo), tableau._nodes) == (nodes, nodes)
    assert (verdict.model.to_json() if verdict.model else None) == model


def test_warm_memo_searches_are_pinned():
    tableau = Tableau()
    texts = [text for text, *_ in PINNED_SEARCHES]
    seen = []
    for text in texts + texts[::-1]:
        tableau.satisfiable(parse(text))
        seen.append((len(tableau._memo), tableau._nodes))
    assert seen == [(10, 10), (22, 12), (27, 5), (42, 15)] + [(42, 0)] * 4


def test_model_validation():
    with pytest.raises(ValueError):
        KripkeModel(frozenset([0]), frozenset(), {}, root=1)
    with pytest.raises(ValueError):
        KripkeModel(frozenset([0]), frozenset([(0, 1)]), {}, root=0)
    with pytest.raises(ValueError):
        KripkeModel(frozenset([0]), frozenset(), {"p": frozenset([3])}, root=0)
