import itertools
import random

import pytest

from kprime import (
    BOT,
    And,
    Box,
    Diamond,
    KripkeModel,
    Literal,
    Not,
    PicResult,
    RecursionDepthExceeded,
    Var,
    clause_from_json,
    clause_length,
    clause_to_formula,
    clause_to_json,
    closure_step_traced,
    covering_implicate,
    length,
    modal_depth,
    model_check,
    nnf,
    parse,
    render,
    residue_detailed,
    simplify,
    subsumes,
    subsumption_reduce,
    variables,
    within_bounds,
)
from kprime.generators import random_clause, random_formula
from kprime.syntax import (
    BOTTOM_CLAUSE,
    TOP,
    Bottom,
    Clause,
    Or,
    clause_key,
    clause_negation,
    cnf_key,
    cnf_to_formula,
    formula_sort_key,
    sorted_clauses,
)

from conftest import cl

P = Var("p")


def test_length_examples():
    assert length(P) == 1
    assert length(And(P, Not(P))) == 4
    assert length(Diamond(Box(Var("r")))) == 3
    assert length(BOT) == 1


def test_length_additive_over_binary_connectives():
    rng = random.Random(3)
    for _ in range(100):
        a = random_formula(rng, ("p", "q"), 1, rng.randint(1, 8))
        b = random_formula(rng, ("p", "q"), 1, rng.randint(1, 8))
        assert length(And(a, b)) == length(a) + length(b) + 1
        assert length(a) >= 1


def test_modal_depth_and_variables():
    g = parse("<>(p & [](q | <>r))")
    assert modal_depth(g) == 3
    assert variables(g) == {"p", "q", "r"}


def test_clause_length_matches_formula_length():
    rng = random.Random(11)
    for _ in range(100):
        c = random_clause(rng, ("p", "q"), depth=2, width=3)
        assert clause_length(c) == length(clause_to_formula(c))


def test_empty_clause_is_bottom():
    assert Clause().is_bottom
    assert clause_length(Clause()) == 1
    assert clause_to_formula(Clause()) == BOT


def test_literal_negate_involution():
    lit = Literal("p", True)
    assert lit.negate().negate() == lit
    assert lit.negate() == Literal("p", False)


def test_clause_key_ignores_construction_order():
    a = Clause(literals=frozenset([Literal("p"), Literal("q")]))
    b = Clause(literals=frozenset([Literal("q"), Literal("p")]))
    assert clause_key(a) == clause_key(b)
    assert clause_key(cl("p")) != clause_key(cl("q"))


def test_clause_json_roundtrip():
    rng = random.Random(17)
    for _ in range(100):
        c = random_clause(rng, ("p", "q", "r"), depth=2, width=3)
        assert clause_from_json(clause_to_json(c)) == c


def test_clause_json_is_canonically_ordered():
    c = cl("q | p | ~q | []p | <>(p & q)")
    js = clause_to_json(c)
    assert js["lits"] == ["p", "q", "~q"]
    assert len(js["boxes"]) == 1 and len(js["diamonds"]) == 1


def _deep_formula():
    deep = Var("p")
    for _ in range(5000):
        deep = Box(deep)
    return deep


def _deep_clause():
    deep = Clause(literals=frozenset([Literal("p")]))
    for _ in range(5000):
        deep = Clause(boxes=frozenset([deep]))
    return deep


def _deep_diamond_clause():
    deep = Clause(literals=frozenset([Literal("p")]))
    for _ in range(5000):
        deep = Clause(diamonds=frozenset([frozenset([deep])]))
    return deep


def _deep_clause_json():
    deep = {"lits": ["p"]}
    for _ in range(5000):
        deep = {"boxes": [deep]}
    return deep


def _loop_model():
    # one world that sees itself, so every box is checked one level down
    return KripkeModel(frozenset([0]), frozenset([(0, 0)]), {}, 0)


# nested deeper than the interpreter's stack: a budget error, never a bare
# RecursionError (parse, to_cnf and Tableau.satisfiable are tested where
# they live; the walkers of other modules called directly are here)
DEEP_INPUT_CALLS = {
    "render": lambda: render(_deep_formula()),
    "modal_depth": lambda: modal_depth(_deep_formula()),
    "clause_key": lambda: clause_key(_deep_clause()),
    "clause_from_json": lambda: clause_from_json(_deep_clause_json()),
    "clause_to_json": lambda: clause_to_json(_deep_clause()),
    "clause_to_formula": lambda: clause_to_formula(_deep_clause()),
    "clause_negation": lambda: clause_negation(_deep_clause()),
    "clause_to_formula_diamonds": lambda: clause_to_formula(_deep_diamond_clause()),
    "clause_negation_diamonds": lambda: clause_negation(_deep_diamond_clause()),
    "cnf_to_formula_diamonds": lambda: cnf_to_formula(frozenset([_deep_diamond_clause()])),
    "closure_step_traced": lambda: closure_step_traced([_deep_clause()]),
    "str_clause": lambda: str(_deep_clause()),
    "model_check": lambda: model_check(_loop_model(), 0, _deep_formula()),
    "length": lambda: length(_deep_formula()),
    "variables": lambda: variables(_deep_formula()),
    "formula_sort_key": lambda: formula_sort_key(_deep_formula(), {}),
    "clause_length": lambda: clause_length(_deep_clause()),
    "nnf": lambda: nnf(_deep_formula()),
    "simplify": lambda: simplify(_deep_clause()),
    "subsumes": lambda: subsumes(_deep_clause(), _deep_clause()),
    "within_bounds": lambda: within_bounds(_deep_clause(), ("p",), 6000, 1),
    "eq_clause": lambda: _deep_clause() == _deep_clause(),
    "repr_clause": lambda: repr(_deep_clause()),
}


@pytest.mark.parametrize("call", sorted(DEEP_INPUT_CALLS))
def test_deep_input_is_a_budget_error(call):
    with pytest.raises(RecursionDepthExceeded):
        DEEP_INPUT_CALLS[call]()


_fresh_names = (f"w{i}" for i in itertools.count())


def _warm_chain(depth):
    """A box chain whose every level has its key and length cached.

    Each chain is over a fresh variable, so no cached clause equals it.
    """
    c = Clause(literals=frozenset([Literal(next(_fresh_names))]))
    for _ in range(depth):
        c = Clause(boxes=frozenset([c]))
        clause_key(c)
        clause_length(c)
    return c


def _warm_pair():
    # two 500-level chains fit in KEY_CACHE_SIZE; their keys nest 500 deep
    return frozenset([_warm_chain(500), _warm_chain(500)])


# calls whose keys are all cached, so no key computation meets the stack
# first: the sorts compare nested key tuples recursively (past the stack on
# Python 3.10 and 3.11; 3.12 and later may return)
WARM_DEEP_CALLS = {
    "clause_to_json": lambda: clause_to_json(_warm_chain(1000)),
    "sorted_clauses": lambda: sorted_clauses(_warm_pair()),
    "cnf_key": lambda: cnf_key(_warm_pair()),
    "cnf_to_formula": lambda: cnf_to_formula(_warm_pair()),
    "subsumption_reduce": lambda: subsumption_reduce(_warm_pair()),
    "residue_detailed": lambda: residue_detailed(_warm_pair()),
    "covering_implicate": lambda: covering_implicate(_warm_pair(), cl("p")),
    "sorted_implicates": lambda: PicResult(_warm_pair(), 0, (), True).sorted_implicates(),
}


@pytest.mark.parametrize("call", sorted(WARM_DEEP_CALLS))
def test_deep_input_with_cached_keys_is_never_a_bare_recursion_error(call):
    try:
        WARM_DEEP_CALLS[call]()
    except RecursionDepthExceeded:
        pass  # a bare RecursionError fails the test


# each connective nested deeper than the stack, on the left or the right
DEEP_CONNECTIVES = {
    "Not": Not,
    "And": lambda f: And(f, P),
    "Or": lambda f: Or(P, f),
    "Diamond": Diamond,
    "Box": Box,
}


@pytest.mark.parametrize("call", [hash, repr], ids=["hash", "repr"])
@pytest.mark.parametrize("connective", sorted(DEEP_CONNECTIVES))
def test_deep_hash_and_repr_are_budget_errors(connective, call):
    deep = P
    for _ in range(5000):
        deep = DEEP_CONNECTIVES[connective](deep)
    with pytest.raises(RecursionDepthExceeded):
        call(deep)


@pytest.mark.parametrize("connective", sorted(DEEP_CONNECTIVES))
def test_deep_equality_is_a_budget_error(connective):
    # two distinct but equal chains: == has to walk them both to the bottom
    chains = []
    for _ in range(2):
        deep = P
        for _ in range(5000):
            deep = DEEP_CONNECTIVES[connective](deep)
        chains.append(deep)
    with pytest.raises(RecursionDepthExceeded):
        chains[0] == chains[1]


def test_equality_follows_the_value(rng):
    assert Box(P) == Box(Var("p")) and Box(P) != Diamond(P) and Box(P) != Box(Var("q"))
    assert And(P, BOT) == And(Var("p"), Bottom()) and And(P, BOT) != Or(P, BOT)
    assert Not(Not(P)) != P and Not(BOT) == TOP
    for _ in range(200):
        g = random_formula(rng, ("p", "q"), 2, rng.randint(1, 12))
        h = random_formula(rng, ("p", "q"), 2, rng.randint(1, 12))
        assert parse(render(g)) == g
        assert (g == h) == (render(g) == render(h))


def test_hash_and_repr_follow_the_fields(rng):
    f = And(Not(P), Or(Box(BOT), Diamond(Var("q"))))
    assert repr(f) == (
        "And(left=Not(body=Var(name='p')), "
        "right=Or(left=Box(body=Bottom()), right=Diamond(body=Var(name='q'))))"
    )
    for _ in range(200):
        g = random_formula(rng, ("p", "q"), 2, rng.randint(1, 12))
        assert hash(parse(render(g))) == hash(g)


def test_clause_repr_follows_the_fields():
    one = frozenset
    c = Clause(
        one([Literal("p", False)]),
        one([Clause(one([Literal("q")]))]),
        one([one([Clause(diamonds=one([one([BOTTOM_CLAUSE])]))])]),
    )
    assert repr(c) == (
        "Clause(literals=frozenset({Literal(variable='p', positive=False)}), "
        "boxes=frozenset({Clause(literals=frozenset({Literal(variable='q', positive=True)}), "
        "boxes=frozenset(), diamonds=frozenset())}), "
        "diamonds=frozenset({frozenset({Clause(literals=frozenset(), boxes=frozenset(), "
        "diamonds=frozenset({frozenset({Clause(literals=frozenset(), boxes=frozenset(), "
        "diamonds=frozenset())})}))})}))"
    )


def test_repr_prints_a_formula_nested_below_the_stack():
    deep = P
    for _ in range(490):
        deep = Box(deep)
    assert repr(deep) == "Box(body=" * 490 + "Var(name='p')" + ")" * 490


def test_clause_equality_is_by_value_and_type():
    assert cl("p | []q") == cl("[]q | p") and cl("p") != cl("q")
    assert Clause() == BOTTOM_CLAUSE and Clause() != BOT
