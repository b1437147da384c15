"""Text format for formulas: tokenizer, recursive-descent parser, printer.

Grammar (UTF-8):

    formula := iff
    iff     := imp ('<->' iff)?          right associative
    imp     := or ('->' imp)?            right associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | '[]' unary | '<>' unary | atom
    atom    := VAR | 'bot' | '(' formula ')'

Variables match [a-zA-Z][a-zA-Z0-9_]* ('bot' is reserved).  The arrows are
sugar: a -> b parses as ~a | b, and a <-> b as (~a | b) & (~b | a); the
resulting tree never contains arrow nodes.  Box and diamond are kept as
native operators.

Within one parse, equal subformulas are one node (hash-consing): a repeated
subterm, or the two copies of each side that <-> expands to, costs its nodes
once.  The table that shares them lives for that parse only, so two parses
share nothing and no table grows with the process.

render produces text that parses back to a structurally identical tree:
binary connectives are always parenthesized, unary operators bind their
argument directly.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError, RecursionDepthExceeded
from .syntax import BOT, VAR_NAME, And, Bottom, Box, Diamond, Formula, Not, Or, Var

_TOKEN_RE = re.compile(
    rf"""
      (?P<WS>\s+)
    | (?P<VAR>{VAR_NAME.pattern})
    | (?P<IFF><->)
    | (?P<IMP>->)
    | (?P<DIA><>)
    | (?P<BOX>\[\])
    | (?P<NOT>~)
    | (?P<AND>&)
    | (?P<OR>\|)
    | (?P<LP>\()
    | (?P<RP>\))
    | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        chunk = m.group()
        if kind == "WS":
            if "\n" in chunk:
                line += chunk.count("\n")
                line_start = m.start() + chunk.rindex("\n") + 1
            continue
        if kind == "BAD":
            raise ParseError(
                "unexpected character",
                line,
                m.start() - line_start + 1,
                expected=("variable", "bot", "~", "&", "|", "->", "<->", "[]", "<>", "(", ")"),
                found=chunk,
            )
        if kind == "VAR" and chunk == "bot":
            kind = "BOT"
        tokens.append(Token(kind, chunk, line, m.start() - line_start + 1))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


_KIND_LABEL = {
    "VAR": "variable",
    "BOT": "bot",
    "NOT": "~",
    "AND": "&",
    "OR": "|",
    "IMP": "->",
    "IFF": "<->",
    "BOX": "[]",
    "DIA": "<>",
    "LP": "(",
    "RP": ")",
    "EOF": "end of input",
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nodes: dict = {}  # this parse's node per distinct subformula

    # Shared children are equal exactly when they are identical, so their ids
    # key a node without hashing whole subtrees.

    def unary_node(self, cls, body: Formula) -> Formula:
        """This parse's one node cls(body), for a body already shared."""
        key = (cls, id(body))
        out = self.nodes.get(key)
        if out is None:
            out = self.nodes[key] = cls(body)
        return out

    def binary_node(self, cls, left: Formula, right: Formula) -> Formula:
        """This parse's one node cls(left, right), for children already shared."""
        key = (cls, id(left), id(right))
        out = self.nodes.get(key)
        if out is None:
            out = self.nodes[key] = cls(left, right)
        return out

    def var(self, name: str) -> Formula:
        out = self.nodes.get(name)
        if out is None:
            out = self.nodes[name] = Var(name)
        return out

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail((kind,))
        return self.take()

    def fail(self, expected_kinds):
        tok = self.peek()
        raise ParseError(
            "syntax error",
            tok.line,
            tok.column,
            expected=tuple(_KIND_LABEL[k] for k in expected_kinds),
            found=tok.text or "end of input",
        )

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek().kind == "IFF":
            self.take()
            right = self.iff()
            b, u = self.binary_node, self.unary_node
            return b(And, b(Or, u(Not, left), right), b(Or, u(Not, right), left))
        return left

    def imp(self) -> Formula:
        left = self.or_()
        if self.peek().kind == "IMP":
            self.take()
            right = self.imp()
            return self.binary_node(Or, self.unary_node(Not, left), right)
        return left

    def or_(self) -> Formula:
        out = self.and_()
        while self.peek().kind == "OR":
            self.take()
            out = self.binary_node(Or, out, self.and_())
        return out

    def and_(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "AND":
            self.take()
            out = self.binary_node(And, out, self.unary())
        return out

    def unary(self) -> Formula:
        kind = self.peek().kind
        if kind == "NOT":
            self.take()
            return self.unary_node(Not, self.unary())
        if kind == "BOX":
            self.take()
            return self.unary_node(Box, self.unary())
        if kind == "DIA":
            self.take()
            return self.unary_node(Diamond, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "VAR":
            self.take()
            return self.var(tok.text)
        if tok.kind == "BOT":
            self.take()
            return BOT
        if tok.kind == "LP":
            self.take()
            inner = self.formula()
            self.expect("RP")
            return inner
        self.fail(("VAR", "BOT", "NOT", "BOX", "DIA", "LP"))


def parse(text: str) -> Formula:
    """Parse a formula; arrows are expanded away during parsing.

    Equal subformulas of the result are one object; nothing is shared with
    the result of any other call.
    """
    parser = _Parser(tokenize(text))
    try:
        out = parser.formula()
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to parse") from None
    if parser.peek().kind != "EOF":
        parser.fail(("EOF", "AND", "OR", "IMP", "IFF"))
    return out


def render(f: Formula) -> str:
    """Print a formula so that parse(render(f)) == f.

    Raises RecursionDepthExceeded if f is nested deeper than the
    interpreter's stack allows.
    """
    try:
        if isinstance(f, Var):
            return f.name
        if isinstance(f, Bottom):
            return "bot"
        if isinstance(f, Not):
            return "~" + render(f.body)
        if isinstance(f, Box):
            return "[]" + render(f.body)
        if isinstance(f, Diamond):
            return "<>" + render(f.body)
        if isinstance(f, And):
            return f"({render(f.left)} & {render(f.right)})"
        if isinstance(f, Or):
            return f"({render(f.left)} | {render(f.right)})"
    except RecursionError:
        # as in syntax.modal_depth: the innermost level that can raise this does
        raise RecursionDepthExceeded("formula nested too deep to print") from None
    raise TypeError(f"not a formula: {f!r}")
