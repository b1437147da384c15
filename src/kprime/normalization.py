"""Clause simplification.

The rewriter applies four rules as a congruence (at every nesting depth)
until none fires:

  * a diamond over bottom vanishes as a disjunct,
  * a bottom disjunct is dropped,
  * a clause set containing bottom collapses to the bottom singleton,
  * duplicate disjuncts and duplicate set members merge.

Rules run innermost-first: children are normalized before their parent, so
a diamond collapsed by a child rewrite is visible where it matters.  Each
rule strictly shrinks the clause, so one bottom-up pass reaches the unique
normal form; simplify is idempotent.
"""

from __future__ import annotations

from .syntax import BOTTOM_CLAUSE, Clause, Cnf


_BOTTOM_CNF = frozenset((BOTTOM_CLAUSE,))


def simplify(c: Clause) -> Clause:
    """Normal form of a clause under the simplification congruence."""
    literals = frozenset(c.literals)
    boxes = frozenset(simplify(b) for b in c.boxes)
    diamonds = set()
    for s in c.diamonds:
        body = simplify_cnf(s)
        if body == _BOTTOM_CNF:
            # diamond over bottom is bottom, and a bottom disjunct drops out
            continue
        diamonds.add(body)
    return Clause(literals, boxes, frozenset(diamonds))


def simplify_cnf(s) -> Cnf:
    """Normal form of a clause set: members normalized, bottom collapses the set."""
    members = frozenset(simplify(c) for c in s)
    if any(c.is_bottom for c in members):
        return frozenset((BOTTOM_CLAUSE,))
    return members


def make_clause(literals=(), boxes=(), diamonds=()) -> Clause:
    """Build a clause from parts and normalize it."""
    return simplify(
        Clause(
            frozenset(literals),
            frozenset(boxes),
            frozenset(frozenset(s) for s in diamonds),
        )
    )


def make_cnf(clauses=()) -> Cnf:
    """Build a normalized clause set (a knowledge base or a diamond body)."""
    return simplify_cnf(frozenset(clauses))
