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
input through make_clause/make_cnf, queries, raw knowledge bases).  After
that, the converter and the resolution rules build every clause from parts
already in normal form, so only the two rules that act on a node's own
children can fire, and the constructors below apply exactly those instead
of running the rewriter again: disjoin unions disjuncts (a bottom clause
has no parts, so it drops out by itself), conjoin collapses a clause set
holding bottom, and diamond drops a diamond over bottom.  Duplicates merge
because every part is a set.
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
    return conjoin(frozenset(simplify(c) for c in s))


def disjoin(*clauses: Clause) -> Clause:
    """Disjunction of clauses; normal when every argument is."""
    lits, boxes, dias = frozenset(), frozenset(), frozenset()
    for c in clauses:
        lits |= c.literals
        boxes |= c.boxes
        dias |= c.diamonds
    return Clause(lits, boxes, dias)


def conjoin(*sets) -> Cnf:
    """Conjunction of clause sets; normal when every member is."""
    members = frozenset().union(*sets)
    if BOTTOM_CLAUSE in members:
        return _BOTTOM_CNF
    return members


def diamond(s: Cnf) -> Clause:
    """The clause <>s for a normal clause set s; <>bot is bottom."""
    if s == _BOTTOM_CNF:
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
