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

Tokens are plain strings: one regular-expression pass splits the text, and
the descent compares token strings.  A token's line and column are worked
out from the text only when a ParseError is raised.  A character no token
starts with is reported ("unexpected character") before any syntax error,
and before the nesting limit (RecursionDepthExceeded), wherever it stands.

render produces text that parses back to a structurally identical tree:
binary connectives are always parenthesized, unary operators bind their
argument directly.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError, RecursionDepthExceeded
from .syntax import BOT, VAR_NAME, And, Bottom, Box, Diamond, Formula, Not, Or, Var

# Leading whitespace, then one token: an arrow, a modality, a variable, a
# connective or parenthesis, or else one character no token starts with.
_TOKEN_RE = re.compile(rf"\s*(<->|->|<>|\[\]|{VAR_NAME.pattern}|[~&|()]|\S)")
_PREFIX = {"~": Not, "[]": Box, "<>": Diamond}
_SYMBOLS = frozenset(("~", "[]", "<>", "&", "|", "->", "<->", "(", ")"))
_ANY_TOKEN = ("variable", "bot", "~", "&", "|", "->", "<->", "[]", "<>", "(", ")")
_ATOM_START = ("variable", "bot", "~", "[]", "<>", "(")
_AFTER_FORMULA = ("end of input", "&", "|", "->", "<->")


def tokenize(text: str) -> list[str]:
    """The token strings of text, whitespace dropped; "" ends the list."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _is_bad(token: str) -> bool:
    """A one-character token that starts no token of the grammar."""
    return token != "" and token not in _SYMBOLS and not VAR_NAME.match(token)


def _error(text: str, tokens: list[str], index: int, expected) -> ParseError:
    """The error at tokens[index], or at the first bad character if there is one.

    The line and column are worked out here, from the text, as only a
    failed parse needs them.
    """
    message = "syntax error"
    bad = next((i for i, t in enumerate(tokens) if _is_bad(t)), None)
    if bad is not None:
        message, index, expected = "unexpected character", bad, _ANY_TOKEN
    if index < len(tokens) - 1:
        at = next(islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    else:
        at = len(text)
    line_start = text.rfind("\n", 0, at) + 1
    return ParseError(
        message,
        text.count("\n", 0, at) + 1,
        at - line_start + 1,
        expected=expected,
        found=tokens[index] or "end of input",
    )


def parse(text: str) -> Formula:
    """Parse a formula; arrows are expanded away during parsing.

    Equal subformulas of the result are one object; nothing is shared with
    the result of any other call.
    """
    tokens = tokenize(text)
    pos = 0
    # This parse's node per distinct subformula.  Shared children are equal
    # exactly when they are identical, so their ids key a node without
    # hashing whole subtrees; a variable is keyed by its name, and a token
    # found here is one already checked to be a variable (or bot).
    nodes: dict = {"bot": BOT}

    def unary_node(cls, body: Formula) -> Formula:
        key = (cls, id(body))
        out = nodes.get(key)
        if out is None:
            out = nodes[key] = cls(body)
        return out

    def binary_node(cls, left: Formula, right: Formula) -> Formula:
        key = (cls, id(left), id(right))
        out = nodes.get(key)
        if out is None:
            out = nodes[key] = cls(left, right)
        return out

    def iff() -> Formula:
        nonlocal pos
        left = imp()
        if tokens[pos] == "<->":
            pos += 1
            right = iff()
            b, u = binary_node, unary_node
            return b(And, b(Or, u(Not, left), right), b(Or, u(Not, right), left))
        return left

    def imp() -> Formula:
        nonlocal pos
        left = or_()
        if tokens[pos] == "->":
            pos += 1
            return binary_node(Or, unary_node(Not, left), imp())
        return left

    def or_() -> Formula:
        nonlocal pos
        out = and_()
        while tokens[pos] == "|":
            pos += 1
            out = binary_node(Or, out, and_())
        return out

    def and_() -> Formula:
        nonlocal pos
        out = unary()
        while tokens[pos] == "&":
            pos += 1
            out = binary_node(And, out, unary())
        return out

    def unary() -> Formula:
        nonlocal pos
        tok = tokens[pos]
        cls = _PREFIX.get(tok)
        if cls is not None:
            pos += 1
            return unary_node(cls, unary())
        if tok == "(":
            pos += 1
            inner = iff()
            if tokens[pos] != ")":
                raise _error(text, tokens, pos, (")",))
            pos += 1
            return inner
        out = nodes.get(tok)
        if out is None:
            if not VAR_NAME.match(tok):
                raise _error(text, tokens, pos, _ATOM_START)
            out = nodes[tok] = Var(tok)
        pos += 1
        return out

    try:
        out = iff()
        if tokens[pos]:
            raise _error(text, tokens, pos, _AFTER_FORMULA)
        return out
    except RecursionError:
        if any(map(_is_bad, tokens)):  # _error reports the first in place of token 0
            raise _error(text, tokens, 0, ()) from None
        raise RecursionDepthExceeded("formula nested too deep to parse") from None
    finally:
        # The descent functions refer to one another, a reference cycle that
        # would keep this parse's tokens and table until the next cycle
        # collection; emptying their cells frees both on return.
        del iff, imp, or_, and_, unary


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
