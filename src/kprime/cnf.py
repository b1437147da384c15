"""Conversion of arbitrary formulas to sets of modal DNF clauses.

The converter pushes negation to the leaves, then distributes directly:
disjunction multiplies clause sets, box distributes over the conjuncts of
its body, and a diamond wraps its body's clause set as a single component.
No renaming is performed: prime implicates are defined over the input
vocabulary, and fresh variables would change the implicate set.  The
distribution blowup is guarded by a clause-count budget.
"""

from __future__ import annotations

from .errors import ClauseBudgetExceeded, RecursionDepthExceeded
from .normalization import conjoin, diamond, disjoin
from .syntax import (
    BOTTOM_CLAUSE,
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


def nnf(f: Formula, negated: bool = False) -> Formula:
    """Negation normal form; ~ survives only on variables and on bot."""
    if isinstance(f, Var):
        return Not(f) if negated else f
    if isinstance(f, Bottom):
        return Not(f) if negated else f
    if isinstance(f, Not):
        return nnf(f.body, not negated)
    if isinstance(f, And):
        a, b = nnf(f.left, negated), nnf(f.right, negated)
        return Or(a, b) if negated else And(a, b)
    if isinstance(f, Or):
        a, b = nnf(f.left, negated), nnf(f.right, negated)
        return And(a, b) if negated else Or(a, b)
    if isinstance(f, Diamond):
        body = nnf(f.body, negated)
        return Box(body) if negated else Diamond(body)
    if isinstance(f, Box):
        body = nnf(f.body, negated)
        return Diamond(body) if negated else Box(body)
    raise TypeError(f"not a formula: {f!r}")


def _check(clauses, budget: int):
    if len(clauses) > budget:
        raise ClauseBudgetExceeded(
            f"CNF conversion produced more than {budget} clauses"
        )
    return clauses


def _convert(f: Formula, budget: int) -> Cnf:
    # f is in NNF; the result is a normalized clause set, assembled from
    # normal parts by the normalization constructors
    if isinstance(f, Var):
        return frozenset((Clause(literals=frozenset((Literal(f.name, True),))),))
    if isinstance(f, Not):
        if isinstance(f.body, Bottom):
            return frozenset()  # verum: the empty conjunction
        return frozenset((Clause(literals=frozenset((Literal(f.body.name, False),))),))
    if isinstance(f, Bottom):
        return frozenset((BOTTOM_CLAUSE,))
    if isinstance(f, And):
        return _check(conjoin(_convert(f.left, budget), _convert(f.right, budget)), budget)
    if isinstance(f, Or):
        left, right = _convert(f.left, budget), _convert(f.right, budget)
        if not left or not right:
            return frozenset()  # either side is verum
        if len(left) * len(right) > budget:
            raise ClauseBudgetExceeded(
                f"CNF distribution would exceed {budget} clauses"
            )
        return _check(conjoin([disjoin(a, b) for a in left for b in right]), budget)
    if isinstance(f, Box):
        # box distributes over the conjunction of the body's clauses
        body = _convert(f.body, budget)
        return _check(frozenset(Clause(boxes=frozenset((c,))) for c in body), budget)
    if isinstance(f, Diamond):
        return frozenset((diamond(_convert(f.body, budget)),))
    raise TypeError(f"unexpected connective after NNF: {f!r}")


def to_cnf(f: Formula, clause_budget: int = DEFAULT_CLAUSE_BUDGET) -> Cnf:
    """Equivalent clause set for a formula.

    Raises ClauseBudgetExceeded if distribution grows past clause_budget,
    and RecursionDepthExceeded if f is nested deeper than the interpreter's
    stack allows.
    """
    try:
        return _convert(nnf(f), clause_budget)
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to convert") from None


def single_clause(f: Formula, clause_budget: int = DEFAULT_CLAUSE_BUDGET) -> Clause:
    """Convert a formula that denotes one clause; raises ValueError otherwise."""
    clauses = to_cnf(f, clause_budget)
    if len(clauses) != 1:
        raise ValueError(
            f"expected a single clause, got {len(clauses)} after conversion"
        )
    return next(iter(clauses))
