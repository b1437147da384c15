import gc
import hashlib
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
from kprime.generators import _grow  # random_formula without its diamond filter

P, Q, R = Var("p"), Var("q"), Var("r")

# sha256 of the outcomes of test_parse_digest_of_seeded_texts
PARSE_DIGEST = "70a37c16fff5fcc9954cb6f6c2158e741e45bf972a1a949fc3a2892fa6700b01"


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
        g = _grow(rng, ("p", "q", "r"), depth=2, size=rng.randint(1, 14))
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
    # a character no token starts with is reported before any nesting limit
    with pytest.raises(ParseError, match="unexpected character"):
        parse("~" * 1000 + "p $")


def test_parse_leaves_no_garbage_cycles():
    # the descent's functions refer to one another; parse frees them itself,
    # so a parse's tokens and table go when it returns
    gc.collect()
    gc.disable()
    try:
        parse("(p -> q) & []~(p <-> q)")
        for text in ("p &", "p $", "~" * 1000 + "p"):
            with pytest.raises((ParseError, RecursionDepthExceeded)):
                parse(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Pieces the seeded texts below are drawn from: every token of the grammar,
# whitespace that spans lines, and characters no token starts with.
_VARS = ("p", "q", "r", "x_1", "bot", "botanical")
_JUNK = ("$", "é", "1", "_", "<", "-", ">", "[", "]", "@", "<-")
_TOKENS = _VARS + ("~", "&", "|", "->", "<->", "[]", "<>", "(", ")", " ", "\n", "\t")


def _piece(rng):
    return rng.choice(_JUNK if rng.random() < 0.04 else _TOKENS)


def _space(rng):
    return rng.choice(("", "", "", " ", " ", "\n", "\t ", " \n  "))


def _grammar_text(rng, depth):
    """A well-formed formula text, arrows included, with random whitespace."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_VARS)
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(("~", "[]", "<>")) + _space(rng) + _grammar_text(rng, depth - 1)
    op = rng.choice(("&", "|", "->", "<->", "&", "|"))
    text = (_grammar_text(rng, depth - 1) + _space(rng) + op + _space(rng)
            + _grammar_text(rng, depth - 1))
    return "(" + _space(rng) + text + _space(rng) + ")" if roll < 0.8 else text


def _mutate(rng, text):
    """One to three edits: drop a character, insert a piece, or put a piece
    in place of two characters."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        kind = rng.randrange(3)
        if kind == 0 and text:
            text = text[:i] + text[i + 1:]
        elif kind == 1:
            text = text[:i] + _piece(rng) + text[i:]
        else:
            text = text[:i] + _piece(rng) + text[i + 2:]
    return text


def _digest_texts():
    rng = random.Random(20181)
    for n in range(20000):
        kind = n % 3
        if kind == 0:
            yield _grammar_text(rng, rng.randint(0, 5))
        elif kind == 1:
            yield _mutate(rng, _grammar_text(rng, rng.randint(0, 5)))
        else:
            yield "".join(_piece(rng) for _ in range(rng.randint(0, 16)))


def _outcome(text) -> str:
    try:
        return "ok " + render(parse(text))
    except ParseError as e:
        return repr((str(e), e.line, e.column, sorted(e.expected), e.found))


def test_parse_digest_of_seeded_texts():
    # Every tree and every error field of 20,000 seeded texts, well-formed,
    # mutated and random, as one hash: a change to what parse returns or
    # raises for any of them moves it.
    digest = hashlib.sha256()
    malformed = 0
    for text in _digest_texts():
        out = _outcome(text)
        malformed += not out.startswith("ok ")
        digest.update(out.encode() + b"\0")
    assert malformed > 10000
    assert digest.hexdigest() == PARSE_DIGEST
