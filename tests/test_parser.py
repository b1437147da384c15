import random

import pytest

from kprime import (
    And,
    BOT,
    Box,
    Diamond,
    Not,
    Or,
    ParseError,
    RecursionDepthExceeded,
    Var,
    parse,
    render,
)
from kprime.generators import random_formula

P, Q, R = Var("p"), Var("q"), Var("r")


def test_parse_conjunction_of_complement():
    assert parse("p & ~p") == And(P, Not(P))


def test_parse_example_diamond_clause():
    assert parse("<>(p & (~p | []r))") == Diamond(And(P, Or(Not(P), Box(R))))


def test_parse_implication_expands():
    assert parse("p -> q") == Or(Not(P), Q)


def test_parse_iff_expands():
    assert parse("p <-> q") == And(Or(Not(P), Q), Or(Not(Q), P))


def test_arrows_are_right_associative():
    assert parse("p -> q -> r") == Or(Not(P), Or(Not(Q), R))


def test_precedence_unary_and_or():
    # ~ binds tighter than &, & tighter than |
    assert parse("~p & q | r") == Or(And(Not(P), Q), R)
    assert parse("[]p & <>q") == And(Box(P), Diamond(Q))


def test_bot_keyword_and_variables():
    assert parse("bot") == BOT
    assert parse("botanical") == Var("botanical")
    assert parse("x_1") == Var("x_1")


def test_render_examples():
    assert render(And(P, Q)) == "(p & q)"
    assert render(Box(BOT)) == "[]bot"
    assert render(Diamond(And(P, Or(Not(P), Box(R))))) == "<>(p & (~p | []r))"


def test_roundtrip_random_formulas():
    rng = random.Random(5)
    for _ in range(300):
        g = random_formula(rng, ("p", "q", "r"), depth=2, size=rng.randint(1, 14),
                           max_diamonds=None)
        assert parse(render(g)) == g


@pytest.mark.parametrize(
    "text",
    ["", "p &", "(p | q", "p q", "& p", "p <- q", "[p]", "<p>", "p @ q"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert err.line >= 1 and err.column >= 1
    assert err.expected


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("p &\n& q")
    assert exc.value.line == 2
    assert exc.value.column == 1


def test_deep_nesting_is_a_budget_error():
    assert isinstance(parse("~" * 200 + "p"), Not)  # moderate nesting still parses
    for text in ("~" * 1000 + "p", "(" * 1000 + "p" + ")" * 1000):
        with pytest.raises(RecursionDepthExceeded):
            parse(text)
