"""Conversion of arbitrary formulas to sets of modal DNF clauses.

The converter pushes negation to the leaves, each connective and modality
becoming its syntax.DUAL on the way, then distributes directly:
disjunction multiplies clause sets, box distributes over the conjuncts of
its body, and a diamond wraps its body's clause set as a single component.
No renaming is performed: prime implicates are defined over the input
vocabulary, and fresh variables would change the implicate set.  The
distribution blowup is guarded by the constant cap DEFAULT_CLAUSE_BUDGET.
Clauses are built by the normalization constructors, units included, so
every result is normal; nnf and to_cnf raise RecursionDepthExceeded on
input nested deeper than the interpreter's stack allows.
"""

from __future__ import annotations

from .errors import ClauseBudgetExceeded, RecursionDepthExceeded
from .normalization import BOTTOM_CNF, box, conjoin, diamond, disjoin, literal
from .syntax import (
    DUAL,
    EMPTY,
    And,
    Bottom,
    Box,
    Clause,
    Cnf,
    Diamond,
    Formula,
    Literal,
    Not,
    Or,
    Var,
)

DEFAULT_CLAUSE_BUDGET = 10_000


def nnf(f: Formula) -> Formula:
    """Negation normal form; ~ survives only on variables and on bot.

    A node shared in f gives one shared node per polarity in the result.
    """
    try:
        return _nnf(f, False, {})
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to convert") from None


def _nnf(f: Formula, negated: bool, done: dict) -> Formula:
    # done maps (id, polarity) to the result; f's nodes outlive the call
    key = (id(f), negated)
    out = done.get(key)
    if out is not None:
        return out
    if isinstance(f, (Var, Bottom)):
        out = Not(f) if negated else f
    elif isinstance(f, Not):
        out = _nnf(f.body, not negated, done)
    elif isinstance(f, (And, Or)):
        op = DUAL[type(f)] if negated else type(f)
        out = op(_nnf(f.left, negated, done), _nnf(f.right, negated, done))
    elif isinstance(f, (Diamond, Box)):
        op = DUAL[type(f)] if negated else type(f)
        out = op(_nnf(f.body, negated, done))
    else:
        raise TypeError(f"not a formula: {f!r}")
    done[key] = out
    return out


def _check(clauses):
    if len(clauses) > DEFAULT_CLAUSE_BUDGET:
        raise ClauseBudgetExceeded(
            f"CNF conversion produced more than {DEFAULT_CLAUSE_BUDGET} clauses",
            reached=len(clauses),
            limit=DEFAULT_CLAUSE_BUDGET,
        )
    return clauses


def _convert(f: Formula) -> Cnf:
    # f is in NNF; the result is a normalized clause set of at most
    # DEFAULT_CLAUSE_BUDGET clauses, built by the normalization constructors
    if isinstance(f, Var):
        return frozenset((literal(Literal(f.name, True)),))
    if isinstance(f, Not):
        if isinstance(f.body, Bottom):
            return EMPTY  # verum: the empty conjunction
        return frozenset((literal(Literal(f.body.name, False)),))
    if isinstance(f, Bottom):
        return BOTTOM_CNF
    if isinstance(f, And):
        return _check(conjoin(_convert(f.left), _convert(f.right)))
    if isinstance(f, Or):
        left, right = _convert(f.left), _convert(f.right)
        if not left or not right:
            return EMPTY  # either side is verum
        if len(left) * len(right) > DEFAULT_CLAUSE_BUDGET:
            raise ClauseBudgetExceeded(
                f"CNF distribution would exceed {DEFAULT_CLAUSE_BUDGET} clauses",
                reached=len(left) * len(right),
                limit=DEFAULT_CLAUSE_BUDGET,
            )
        return conjoin([disjoin(a, b) for a in left for b in right])
    if isinstance(f, Box):
        # box distributes over the conjunction of the body's clauses
        body = _convert(f.body)
        return frozenset(box(c) for c in body) or EMPTY
    if isinstance(f, Diamond):
        return frozenset((diamond(_convert(f.body)),))
    raise TypeError(f"unexpected connective after NNF: {f!r}")


def to_cnf(f: Formula) -> Cnf:
    """Equivalent clause set for a formula.

    Raises ClauseBudgetExceeded if distribution grows past
    DEFAULT_CLAUSE_BUDGET, and RecursionDepthExceeded if f is nested deeper
    than the interpreter's stack allows.
    """
    try:
        return _convert(nnf(f))
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to convert") from None


def single_clause(f: Formula) -> Clause:
    """Convert a formula that denotes one clause; raises ValueError otherwise."""
    clauses = to_cnf(f)
    if len(clauses) != 1:
        raise ValueError(
            f"expected a single clause, got {len(clauses)} after conversion"
        )
    return next(iter(clauses))
