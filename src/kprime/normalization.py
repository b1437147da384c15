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

Normal form is established once, where clauses enter from outside (parsed
input through make_clause/make_cnf, queries, raw knowledge bases).  Input
already in normal form comes back as the same object, so establishing it
again costs a walk and no copy.  After that, the converter and the
resolution rules build every clause from parts already in normal form, so
only the two rules that act on a node's own children can fire, and the
constructors below apply exactly those instead of running the rewriter
again: disjoin unions disjuncts (a bottom clause has no parts, so it drops
out by itself), conjoin collapses a clause set holding bottom, and diamond
drops a diamond over bottom; literal and box build the other unit clauses.
Duplicates merge because every part is a set, and every empty clause set
conjoin builds is syntax.EMPTY.
"""

from __future__ import annotations

from operator import is_

from .errors import RecursionDepthExceeded
from .syntax import BOTTOM_CLAUSE, EMPTY, Clause, Cnf, Literal


BOTTOM_CNF = frozenset((BOTTOM_CLAUSE,))


def simplify(c: Clause) -> Clause:
    """Normal form of a clause under the simplification congruence.

    A clause already in normal form is returned as it is, not copied: every
    part the rewriter rebuilds came back as the same objects.
    RecursionDepthExceeded if c is nested deeper than the stack allows.
    """
    literals = frozenset(c.literals)
    try:
        boxes = [simplify(b) for b in c.boxes]
        diamonds = []
        for s in c.diamonds:
            body = simplify_cnf(s)
            if body == BOTTOM_CNF:
                # diamond over bottom is bottom, and a bottom disjunct drops out
                continue
            diamonds.append(body)
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to simplify") from None
    if literals is c.literals and _same(boxes, c.boxes) and _same(diamonds, c.diamonds):
        return c
    return Clause(literals, frozenset(boxes), frozenset(diamonds))


def simplify_cnf(s) -> Cnf:
    """Normal form of a clause set: members normalized, bottom collapses the set.

    A normal clause set is returned as it is, like a normal clause.
    """
    members = [simplify(c) for c in s]
    if _same(members, s) and BOTTOM_CLAUSE not in s:
        return s or EMPTY
    return conjoin(frozenset(members))


def _same(rebuilt: list, part) -> bool:
    """True iff part is a frozenset and rebuilt holds its members, in order, as they are."""
    return type(part) is frozenset and len(rebuilt) == len(part) and all(map(is_, rebuilt, part))


def disjoin(*clauses: Clause) -> Clause:
    """Disjunction of clauses; normal when every argument is.

    A part only one argument contributes is that argument's own frozenset,
    not a copy of it.
    """
    lits = boxes = dias = EMPTY
    for c in clauses:
        part = c.literals
        if part:
            lits = lits | part if lits else part
        part = c.boxes
        if part:
            boxes = boxes | part if boxes else part
        part = c.diamonds
        if part:
            dias = dias | part if dias else part
    return Clause(lits, boxes, dias)


def conjoin(*sets) -> Cnf:
    """Conjunction of clause sets; normal when every member is."""
    members = EMPTY.union(*sets)
    if BOTTOM_CLAUSE in members:
        return BOTTOM_CNF
    return members or EMPTY


def literal(lit: Literal) -> Clause:
    """The unit clause of one literal."""
    return Clause(literals=frozenset((lit,)))


def box(c: Clause) -> Clause:
    """The clause []c for a normal clause c."""
    return Clause(boxes=frozenset((c,)))


def diamond(s: Cnf) -> Clause:
    """The clause <>s for a normal clause set s; <>bot is bottom."""
    if s == BOTTOM_CNF:
        return BOTTOM_CLAUSE
    return Clause(diamonds=frozenset((s,)))


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
