"""Formula and clause data model for modal logic K.

Formulas are immutable syntax trees over variables, bottom, negation,
conjunction, disjunction, diamond and box.  Clauses are the structured
disjunctions used by the resolution engine: a set of literals, a set of
boxed clauses and a set of diamonds, where each diamond wraps a CNF
(itself a set of clauses read conjunctively).  The empty clause is bottom.

Everything here is a pure value: safe to hash, share and use as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class for modal formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


BOT = Bottom()
TOP = Not(BOT)  # no primitive verum; ~bot plays that role


def length(f: Formula) -> int:
    """Symbol count: variables, connectives and modal operators.

    Bottom counts as one symbol so that every simplification step strictly
    shrinks its argument.
    """
    if isinstance(f, (Var, Bottom)):
        return 1
    if isinstance(f, (Not, Diamond, Box)):
        return 1 + length(f.body)
    if isinstance(f, (And, Or)):
        return 1 + length(f.left) + length(f.right)
    raise TypeError(f"not a formula: {f!r}")


def modal_depth(f: Formula) -> int:
    """Maximum nesting of modal operators."""
    if isinstance(f, (Var, Bottom)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.body)
    if isinstance(f, (And, Or)):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, (Diamond, Box)):
        return 1 + modal_depth(f.body)
    raise TypeError(f"not a formula: {f!r}")


def variables(f: Formula) -> frozenset[str]:
    """All variable names occurring in the formula."""
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, Bottom):
        return frozenset()
    if isinstance(f, (Not, Diamond, Box)):
        return variables(f.body)
    if isinstance(f, (And, Or)):
        return variables(f.left) | variables(f.right)
    raise TypeError(f"not a formula: {f!r}")


def formula_sort_key(f: Formula):
    """Total order over formulas, used for deterministic iteration."""
    if isinstance(f, Var):
        return (0, f.name)
    if isinstance(f, Bottom):
        return (1,)
    if isinstance(f, Not):
        return (2, formula_sort_key(f.body))
    if isinstance(f, And):
        return (3, formula_sort_key(f.left), formula_sort_key(f.right))
    if isinstance(f, Or):
        return (4, formula_sort_key(f.left), formula_sort_key(f.right))
    if isinstance(f, Diamond):
        return (5, formula_sort_key(f.body))
    if isinstance(f, Box):
        return (6, formula_sort_key(f.body))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Clauses


@dataclass(frozen=True)
class Literal:
    variable: str
    positive: bool = True

    def negate(self) -> Literal:
        return Literal(self.variable, not self.positive)

    def to_formula(self) -> Formula:
        v = Var(self.variable)
        return v if self.positive else Not(v)

    def __str__(self):
        return self.variable if self.positive else "~" + self.variable


# A CNF is a set of clauses read conjunctively; the empty set is verum.
Cnf = frozenset  # frozenset[Clause]


@dataclass(frozen=True)
class Clause:
    """A structured disjunction: literals, boxed clauses and diamonds of CNFs.

    The empty clause (all three parts empty) is bottom.  Construction does
    not normalize; use normalization.make_clause for that.
    """

    literals: frozenset = field(default_factory=frozenset)
    boxes: frozenset = field(default_factory=frozenset)
    diamonds: frozenset = field(default_factory=frozenset)

    @property
    def is_bottom(self) -> bool:
        return not self.literals and not self.boxes and not self.diamonds

    def component_count(self) -> int:
        return len(self.literals) + len(self.boxes) + len(self.diamonds)

    def __str__(self):
        from .parser import render  # deferred: parser imports this module

        return render(clause_to_formula(self))


BOTTOM_CLAUSE = Clause()


def literal_sort_key(lit: Literal):
    return (lit.variable, not lit.positive)


@lru_cache(maxsize=None)
def clause_key(c: Clause):
    """Canonical comparable key: equal iff structurally equal, totally ordered."""
    return (
        tuple(sorted(literal_sort_key(l) for l in c.literals)),
        tuple(sorted(clause_key(b) for b in c.boxes)),
        tuple(sorted(cnf_key(s) for s in c.diamonds)),
    )


@lru_cache(maxsize=None)
def cnf_key(s: Cnf):
    return tuple(sorted(clause_key(c) for c in s))


def clause_length(c: Clause) -> int:
    """Length of the clause read as a formula (bottom counts one symbol)."""
    if c.is_bottom:
        return 1
    parts = [1 if l.positive else 2 for l in c.literals]
    parts += [1 + clause_length(b) for b in c.boxes]
    parts += [1 + cnf_length(s) for s in c.diamonds]
    return sum(parts) + (len(parts) - 1)


def cnf_length(s: Cnf) -> int:
    """Length of a clause set read conjunctively; the empty set counts one."""
    if not s:
        return 1
    return sum(clause_length(c) for c in s) + (len(s) - 1)


def sorted_clauses(clauses) -> list:
    return sorted(clauses, key=clause_key)


def clause_to_formula(c: Clause) -> Formula:
    """Clause rendered back into the plain formula syntax (deterministic shape)."""
    if c.is_bottom:
        return BOT
    disjuncts = [l.to_formula() for l in sorted(c.literals, key=literal_sort_key)]
    disjuncts += [Box(clause_to_formula(b)) for b in sorted_clauses(c.boxes)]
    disjuncts += [Diamond(cnf_to_formula(s)) for s in sorted(c.diamonds, key=cnf_key)]
    out = disjuncts[-1]
    for d in reversed(disjuncts[:-1]):
        out = Or(d, out)
    return out


def cnf_to_formula(s: Cnf) -> Formula:
    """Conjunction of the member clauses; the empty set renders as ~bot."""
    if not s:
        return TOP
    members = [clause_to_formula(c) for c in sorted_clauses(s)]
    out = members[-1]
    for m in reversed(members[:-1]):
        out = And(m, out)
    return out


# ---------------------------------------------------------------------------
# JSON wire format


def clause_to_json(c: Clause) -> dict:
    """Clause as a JSON-ready dict; all arrays in canonical order."""
    return {
        "lits": [str(l) for l in sorted(c.literals, key=literal_sort_key)],
        "boxes": [clause_to_json(b) for b in sorted_clauses(c.boxes)],
        "diamonds": [
            [clause_to_json(m) for m in sorted_clauses(s)]
            for s in sorted(c.diamonds, key=cnf_key)
        ],
    }


def clause_from_json(obj: dict) -> Clause:
    lits = set()
    for s in obj.get("lits", ()):
        if s.startswith("~"):
            lits.add(Literal(s[1:], False))
        else:
            lits.add(Literal(s, True))
    boxes = {clause_from_json(b) for b in obj.get("boxes", ())}
    diamonds = {
        frozenset(clause_from_json(m) for m in arr) for arr in obj.get("diamonds", ())
    }
    return Clause(frozenset(lits), frozenset(boxes), frozenset(diamonds))
