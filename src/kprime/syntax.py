"""Formula and clause data model for modal logic K.

Formulas are immutable syntax trees over variables, bottom, negation,
conjunction, disjunction, diamond and box.  Clauses are the structured
disjunctions used by the resolution engine: a set of literals, a set of
boxed clauses and a set of diamonds, where each diamond wraps a CNF
(itself a set of clauses read conjunctively).  The empty clause is bottom.

Everything here is a pure value: safe to hash, share and use as dict keys.
Values are slotted dataclasses and take no attributes beyond their fields.
Every empty part of every clause is the one frozenset EMPTY (CPython does
not share empty frozensets), so a clause costs no more than its nonempty
parts: the Clause constructor stores any empty part it is given as EMPTY.
The recursive walkers raise RecursionDepthExceeded on input nested deeper
than the interpreter's stack allows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import RecursionDepthExceeded


def _repr(self) -> str:
    """Name(field=value!r, ...) as a dataclass prints it, guarded against depth.

    A plain loop, not a generator, and a direct __repr__ call, not repr()
    or !r (each a second counted level), keep one formula level to one.
    """
    try:
        fields = []
        for name in self.__slots__:
            fields.append(f"{name}={getattr(self, name).__repr__()}")
        return f"{type(self).__qualname__}({', '.join(fields)})"
    except RecursionError:
        raise RecursionDepthExceeded("value nested too deep to print") from None


# ---------------------------------------------------------------------------
# Formulas


def _eq_unary(self, other):
    # the generated dataclass __eq__, guarded: tuples compare members by
    # identity first, so shared subformulas are not walked
    if other.__class__ is not self.__class__:
        return NotImplemented
    try:
        return (self.body,) == (other.body,)
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to compare") from None


def _eq_binary(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    try:
        return (self.left, self.right) == (other.left, other.right)
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to compare") from None


class Formula:
    """Base class for modal formula nodes; all print through _repr.

    Each recursive node writes its own hash (the tableau's hottest call;
    every shared form measured slower), which raises RecursionDepthExceeded
    on a formula nested deeper than the stack and starts with the node's
    formula_sort_key tag, so that ~p, <>p and []p (or p & q and p | q) do
    not collide.  Their == is _eq_unary or _eq_binary, guarded the same way.
    """

    __slots__ = ()
    __repr__ = _repr


@dataclass(frozen=True, slots=True, repr=False)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True, repr=False)
class Not(Formula):
    body: Formula

    __eq__ = _eq_unary

    def __hash__(self):
        try:
            return hash((2, self.body))
        except RecursionError:
            raise RecursionDepthExceeded("formula nested too deep to hash") from None


@dataclass(frozen=True, slots=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula

    __eq__ = _eq_binary

    def __hash__(self):
        try:
            return hash((3, self.left, self.right))
        except RecursionError:
            raise RecursionDepthExceeded("formula nested too deep to hash") from None


@dataclass(frozen=True, slots=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula

    __eq__ = _eq_binary

    def __hash__(self):
        try:
            return hash((4, self.left, self.right))
        except RecursionError:
            raise RecursionDepthExceeded("formula nested too deep to hash") from None


@dataclass(frozen=True, slots=True, repr=False)
class Diamond(Formula):
    body: Formula

    __eq__ = _eq_unary

    def __hash__(self):
        try:
            return hash((5, self.body))
        except RecursionError:
            raise RecursionDepthExceeded("formula nested too deep to hash") from None


@dataclass(frozen=True, slots=True, repr=False)
class Box(Formula):
    body: Formula

    __eq__ = _eq_unary

    def __hash__(self):
        try:
            return hash((6, self.body))
        except RecursionError:
            raise RecursionDepthExceeded("formula nested too deep to hash") from None


BOT = Bottom()
TOP = Not(BOT)  # no primitive verum; ~bot plays that role
VAR_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")  # variable names; 'bot' is reserved


def length(f: Formula) -> int:
    """Symbol count: variables, connectives and modal operators.

    Bottom counts as one symbol so that every simplification step strictly
    shrinks its argument.
    """
    try:
        if isinstance(f, (Var, Bottom)):
            return 1
        if isinstance(f, (Not, Diamond, Box)):
            return 1 + length(f.body)
        if isinstance(f, (And, Or)):
            return 1 + length(f.left) + length(f.right)
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to measure") from None
    raise TypeError(f"not a formula: {f!r}")


def modal_depth(f: Formula) -> int:
    """Maximum nesting of modal operators.

    Raises RecursionDepthExceeded if f is nested deeper than the
    interpreter's stack allows.
    """
    try:
        if isinstance(f, (Var, Bottom)):
            return 0
        if isinstance(f, Not):
            return modal_depth(f.body)
        if isinstance(f, (And, Or)):
            return max(modal_depth(f.left), modal_depth(f.right))
        if isinstance(f, (Diamond, Box)):
            return 1 + modal_depth(f.body)
    except RecursionError:
        # the innermost level that can still raise this does; the error is
        # no RecursionError, so the levels above let it through
        raise RecursionDepthExceeded("formula nested too deep to measure") from None
    raise TypeError(f"not a formula: {f!r}")


def variables(f: Formula) -> frozenset[str]:
    """All variable names occurring in the formula."""
    try:
        if isinstance(f, Var):
            return frozenset((f.name,))
        if isinstance(f, Bottom):
            return frozenset()
        if isinstance(f, (Not, Diamond, Box)):
            return variables(f.body)
        if isinstance(f, (And, Or)):
            return variables(f.left) | variables(f.right)
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to search") from None
    raise TypeError(f"not a formula: {f!r}")


def formula_sort_key(f: Formula):
    """Total order over formulas, used for deterministic iteration."""
    try:
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
    except RecursionError:
        raise RecursionDepthExceeded("formula nested too deep to order") from None
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Clauses


@dataclass(frozen=True, slots=True)
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
EMPTY = frozenset()  # the empty part of every clause, and the empty CNF
_setattr = object.__setattr__  # sets a frozen field; one global lookup per call


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Clause:
    """A structured disjunction: literals, boxed clauses and diamonds of CNFs.

    The empty clause (all three parts empty) is bottom.  Construction does
    not normalize; use normalization.make_clause for that.  Every empty
    part is stored as EMPTY, whatever empty set the caller passed.  == and
    repr are guarded; the hash never recurses, as frozensets keep theirs.
    """

    literals: frozenset = EMPTY
    boxes: frozenset = EMPTY
    diamonds: frozenset = EMPTY

    # by hand: a __post_init__ hook would cost every construction a second call
    def __init__(self, literals=EMPTY, boxes=EMPTY, diamonds=EMPTY):
        _setattr(self, "literals", literals or EMPTY)
        _setattr(self, "boxes", boxes or EMPTY)
        _setattr(self, "diamonds", diamonds or EMPTY)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Clause:
            return NotImplemented
        try:
            return (self.literals == other.literals and self.boxes == other.boxes
                    and self.diamonds == other.diamonds)
        except RecursionError:
            raise RecursionDepthExceeded("clause nested too deep to compare") from None

    __repr__ = _repr

    @property
    def is_bottom(self) -> bool:
        return not self.literals and not self.boxes and not self.diamonds

    def component_count(self) -> int:
        return len(self.literals) + len(self.boxes) + len(self.diamonds)

    def __str__(self):
        from .parser import render  # deferred: parser imports this module

        try:
            return render(clause_to_formula(self))
        except RecursionError:
            raise RecursionDepthExceeded("clause nested too deep to print") from None


BOTTOM_CLAUSE = Clause()


def literal_sort_key(lit: Literal):
    return (lit.variable, not lit.positive)


# Entries each key cache (and the length cache) keeps, newest used first.
# One compile reuses its own keys (at most about 100 on the benchmark's
# compile mix); across compiles a key is rarely asked for again, so a bound
# loses no useful hit and the caches no longer keep every clause they ever
# keyed alive.
KEY_CACHE_SIZE = 1024


@lru_cache(maxsize=KEY_CACHE_SIZE)
def clause_key(c: Clause):
    """Canonical comparable key: equal iff structurally equal, totally ordered.

    Raises RecursionDepthExceeded if c is nested deeper than the
    interpreter's stack allows (the same way modal_depth does).
    """
    try:
        return (
            tuple(sorted(literal_sort_key(l) for l in c.literals)),
            tuple(sorted(clause_key(b) for b in c.boxes)),
            tuple(sorted(cnf_key(s) for s in c.diamonds)),
        )
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to order") from None


@lru_cache(maxsize=KEY_CACHE_SIZE)
def cnf_key(s: Cnf):
    return tuple(sorted(clause_key(c) for c in s))


@lru_cache(maxsize=KEY_CACHE_SIZE)
def clause_length(c: Clause) -> int:
    """Length of the clause read as a formula (bottom counts one symbol).

    Cached like clause_key, as every sort by clause_order asks for it.
    """
    if c.is_bottom:
        return 1
    try:
        parts = [1 if l.positive else 2 for l in c.literals]
        parts += [1 + clause_length(b) for b in c.boxes]
        parts += [1 + cnf_length(s) for s in c.diamonds]
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to measure") from None
    return sum(parts) + (len(parts) - 1)


def cnf_length(s: Cnf) -> int:
    """Length of a clause set read conjunctively; the empty set counts one."""
    if not s:
        return 1
    return sum(clause_length(c) for c in s) + (len(s) - 1)


def sorted_clauses(clauses) -> list:
    return sorted(clauses, key=clause_key)


def _in_order(part, key):
    """The members of part in key order; one member needs no key."""
    return sorted(part, key=key) if len(part) > 1 else part


def clause_to_formula(c: Clause) -> Formula:
    """Clause rendered back into the plain formula syntax (deterministic shape)."""
    if c.is_bottom:
        return BOT
    disjuncts = [l.to_formula() for l in _in_order(c.literals, literal_sort_key)]
    try:
        disjuncts += [Box(clause_to_formula(b)) for b in _in_order(c.boxes, clause_key)]
        disjuncts += [Diamond(cnf_to_formula(s)) for s in _in_order(c.diamonds, cnf_key)]
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to convert") from None
    out = disjuncts[-1]
    for d in reversed(disjuncts[:-1]):
        out = Or(d, out)
    return out


def cnf_to_formula(s: Cnf) -> Formula:
    """Conjunction of the member clauses; the empty set renders as ~bot."""
    if not s:
        return TOP
    members = [clause_to_formula(c) for c in _in_order(s, clause_key)]
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


def clause_from_json(obj) -> Clause:
    """Inverse of clause_to_json; ValueError on anything it cannot produce."""
    if not isinstance(obj, dict):
        raise ValueError(f"a clause must be an object, not {obj!r}")
    try:
        lits = frozenset(_literal_from_json(s) for s in _json_array(obj.get("lits", [])))
        boxes = frozenset(clause_from_json(b) for b in _json_array(obj.get("boxes", [])))
        diamonds = frozenset(
            frozenset(clause_from_json(m) for m in _json_array(arr)) or EMPTY
            for arr in _json_array(obj.get("diamonds", []))
        )
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to read") from None
    return Clause(lits, boxes, diamonds)


def _json_array(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected an array, not {value!r}")
    return value


def _literal_from_json(s) -> Literal:
    name = s[1:] if isinstance(s, str) and s.startswith("~") else s
    if not isinstance(name, str) or not VAR_NAME.fullmatch(name) or name == "bot":
        raise ValueError(f"not a literal: {s!r}")
    return Literal(name, not s.startswith("~"))
