"""Direct resolution on modal clauses.

Two-premise resolvents come from an axiom on complementary literals (or on
a bottom premise) lifted through three rules: remainders of both clauses
are threaded around the active pair, two boxes resolve into a boxed
resolvent, and a box against a diamond resolves the box body into one
member of the diamond's clause set, which keeps its premises and gains the
resolvent.  Single-premise resolvents act inside one clause: a resolvable
pair within a diamond's set grows that set, a member's own resolvent grows
it likewise, and boxes recurse.  Every conclusion is returned in normal
form; premises are normal, so conclusions are assembled with the
normalization constructors and never re-simplified.  Each rule routine
yields (conclusion, why) pairs: why is a witness derivation tree, with unit
clauses naming each active part, when traced and falsy when not.  Only the
axioms read the trace flag; a lifting rule builds `why and ResolutionStep`,
so untraced no derivation or premise unit clause is built.  The two modes
make the same conclusions in the same order.

Two extra rules back the covering guarantee.  A box body is absorbed into
every diamond of the partner premise outright (every successor satisfies
the body, so each diamond's witness does); without it, clause sets whose
box bodies share no complementary literals with any diamond member
produce no resolvents at all, yet still have uncovered implicates such as
a bare negated-variable diamond.  And a box component splits on whether a
successor exists at all, seeding a diamond with its body for absorption
to pack; without it, diamond-free clause sets cover none of their
no-successor-or-witness consequences.

The one-step closure of a clause set adds every resolvent of every pair
(including a clause with itself) and of every single clause; saturation
across steps is the compiler's job.  closure_step_traced computes it and
checks the caller's clause budget per distinct conclusion.  A layer is a
set, so the rules visit clause parts as stored and no output depends on
that order: the budget fires on whichever clause comes clause_budget +
1st, and a traced conclusion keeps its smallest derivation by (node
count, signature).  Derivations record which premise comes first, so only
premise order is sorted: the closure's pairs and gamma-diamond1's member
pairs.  No rule nests a resolvent deeper than its premises (absorption
puts a level-1 box body into a level-1 diamond), so one check of the
premises against DEFAULT_MAX_DEPTH bounds the whole search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClauseBudgetExceeded, RecursionDepthExceeded
from .normalization import box, conjoin, diamond, disjoin, literal
# unused here, kept importable: bench/run.py --trace 1 wraps these two names
# on this module to count simplification inside resolution
from .normalization import simplify, simplify_cnf  # noqa: F401
from .syntax import BOTTOM_CLAUSE, Clause, clause_key, sorted_clauses

DEFAULT_MAX_DEPTH = 64
_TOO_DEEP = f"resolvent search nested deeper than {DEFAULT_MAX_DEPTH} levels"


def _check_nesting(clauses, room: int = DEFAULT_MAX_DEPTH) -> None:
    """RecursionDepthExceeded if a clause nests box bodies or diamond members
    more than room levels deep; the walk stops at the cap, far inside the stack."""
    for c in clauses:
        if room < 0:
            raise RecursionDepthExceeded(_TOO_DEEP)
        _check_nesting(c.boxes, room - 1)
        for s in c.diamonds:
            _check_nesting(s, room - 1)


@dataclass(frozen=True, slots=True)
class ResolutionStep:
    """One rule application; sub holds the derivation it was lifted from."""

    rule: str
    premises: tuple
    conclusion: Clause
    sub: tuple = ()

    def node_count(self) -> int:
        return 1 + sum(s.node_count() for s in self.sub)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "premises": [str(p) for p in self.premises],
            "conclusion": str(self.conclusion),
            "sub": [s.to_json() for s in self.sub],
        }


def _wrap(rule: str, premises: tuple, core, *rems: Clause):
    """Thread the untouched disjuncts of the premises around a core resolvent.

    core and the result are (conclusion, why) pairs.
    """
    conclusion, why = core
    for rem in rems:
        if not rem.is_bottom:
            c = disjoin(*rems, conclusion)
            return c, why and ResolutionStep(rule, premises, c, (why,))
    return core


def _sigma(a: Clause, b: Clause, trace: bool):
    if a.is_bottom or b.is_bottom:
        # a bottom premise resolves the pair away entirely
        yield BOTTOM_CLAUSE, trace and ResolutionStep("A1'", (a, b), BOTTOM_CLAUSE)
        return

    for lit in a.literals:
        comp = lit.negate()
        if comp not in b.literals:
            continue
        why = trace and ResolutionStep("A1", (literal(lit), literal(comp)), BOTTOM_CLAUSE)
        rem_a = Clause(a.literals - {lit}, a.boxes, a.diamonds)
        rem_b = Clause(b.literals - {comp}, b.boxes, b.diamonds)
        yield _wrap("sigma-or", (a, b), (BOTTOM_CLAUSE, why), rem_a, rem_b)

    for da in a.boxes:
        for db in b.boxes:
            for inner, why in _sigma(da, db, trace):
                c = box(inner)
                core = c, why and ResolutionStep("sigma-boxbox", (box(da), box(db)), c, (why,))
                rem_a = Clause(a.literals, a.boxes - {da}, a.diamonds)
                rem_b = Clause(b.literals, b.boxes - {db}, b.diamonds)
                yield _wrap("sigma-or", (a, b), core, rem_a, rem_b)

    for x, y in ((a, b), (b, a)):
        if not y.diamonds:
            continue  # both rules below act on the partner's diamonds
        for d in x.boxes:
            rem_x = Clause(x.literals, x.boxes - {d}, x.diamonds)
            if not all(d in s for s in y.diamonds):
                # a box body holds at every successor, so each diamond's
                # witness satisfies it too: absorb the body into every
                # diamond of the partner at once.  Resolution alone cannot
                # reach these conclusions, and absorbing one diamond at a
                # time can stall on intermediates the residue removes.
                c = disjoin(*(diamond(conjoin(s, (d,))) for s in y.diamonds))
                core = c, trace and ResolutionStep(
                    "sigma-absorb", (box(d), Clause(diamonds=y.diamonds)), c
                )
                yield _wrap("sigma-or", (a, b), core, rem_x, Clause(y.literals, y.boxes))
            for s in y.diamonds:
                rem_y = Clause(y.literals, y.boxes, y.diamonds - {s})
                for e in s:
                    for inner, why in _sigma(d, e, trace):
                        c = diamond(conjoin(s, (inner,)))
                        core = c, why and ResolutionStep(
                            "sigma-boxdiamond", (box(d), diamond(s)), c, (why,)
                        )
                        yield _wrap("sigma-or", (a, b), core, rem_x, rem_y)


def _gamma(a: Clause, trace: bool):
    for d in a.boxes:
        rem = Clause(a.literals, a.boxes - {d}, a.diamonds)
        # successor dichotomy: a world either has no successors or has one
        # satisfying the box body.  This seeds a diamond that absorption can
        # pack with other box bodies; without it, diamond-free premises
        # cover none of their box-or-diamond consequences.
        c = disjoin(box(BOTTOM_CLAUSE), diamond(frozenset((d,))))
        core = c, trace and ResolutionStep("gamma-dichotomy", (box(d),), c)
        yield _wrap("gamma-or", (a,), core, rem)
        for inner, why in _gamma(d, trace):
            c = box(inner)
            core = c, why and ResolutionStep("gamma-box", (box(d),), c, (why,))
            yield _wrap("gamma-or", (a,), core, rem)

    for s in a.diamonds:
        rem = Clause(a.literals, a.boxes, a.diamonds - {s})
        members = sorted_clauses(s)  # the trace records e1 before e2
        for i, e1 in enumerate(members):
            for e2 in members[i + 1 :]:
                for inner, why in _sigma(e1, e2, trace):
                    c = diamond(conjoin(s, (inner,)))
                    core = c, why and ResolutionStep("gamma-diamond1", (diamond(s),), c, (why,))
                    yield _wrap("gamma-or", (a,), core, rem)
        for e in s:
            for inner, why in _gamma(e, trace):
                c = diamond(conjoin(s, (inner,)))
                core = c, why and ResolutionStep("gamma-diamond2", (diamond(s),), c, (why,))
                yield _wrap("gamma-or", (a,), core, rem)


def _step_signature(step: ResolutionStep):
    return (
        step.rule,
        tuple(clause_key(p) for p in step.premises),
        tuple(_step_signature(s) for s in step.sub),
    )


def _dedup(steps) -> tuple:
    """One witness per distinct conclusion: fewest nodes, then stable signature."""
    best = {}
    for step in steps:
        key = clause_key(step.conclusion)
        rank = (step.node_count(), _step_signature(step))
        kept = best.get(key)
        if kept is None or rank < kept[0]:
            best[key] = (rank, step)
    return tuple(best[key][1] for key in sorted(best))


def sigma_resolvents(a: Clause, b: Clause) -> tuple:
    """All resolvents of a clause pair, one derivation per conclusion."""
    _check_nesting((a, b))
    return _dedup(why for _, why in _sigma(a, b, True))


def gamma_resolvents(a: Clause) -> tuple:
    """All single-premise resolvents of a clause, one derivation per conclusion."""
    _check_nesting((a,))
    return _dedup(why for _, why in _gamma(a, True))


def _layer(base, trace: bool):
    """Every (conclusion, why) of one closure layer, pairs (a, b) in clause-key order."""
    for i, a in enumerate(base):
        for b in base[i:]:
            yield from _sigma(a, b, trace)
        yield from _gamma(a, trace)


def closure_step_traced(clauses, clause_budget: int | None = None, trace: bool = False):
    """One closure layer: the set plus every one-step resolvent.

    Returns (clause set, what is new): one entry per conclusion not already
    in the input.  With trace the entries are derivations: every derivation
    of a new conclusion is kept and the smallest is returned, ordered by
    conclusion key.  Without it they are the new conclusions themselves, in
    no particular order, and no derivation is built.  Each conclusion joins
    the set as the rules produce it, so the clause budget fires as soon as
    the set holds clause_budget + 1 clauses, before the rest of the layer is
    built.  A clause nested deeper than DEFAULT_MAX_DEPTH fails first.
    """
    clauses = set(clauses)
    _check_nesting(clauses)
    base = sorted_clauses(clauses)
    out = set(base)
    found = []  # every derivation, traced
    for conclusion, why in _layer(base, trace):
        if conclusion not in out:
            out.add(conclusion)
            if clause_budget is not None and len(out) > clause_budget:
                raise ClauseBudgetExceeded(
                    f"closure grew to {len(out)} clauses, over the budget of {clause_budget}",
                    reached=len(out),
                    limit=clause_budget,
                )
        if why:
            found.append(why)
    closure = frozenset(out)
    new = closure - clauses
    if trace:
        return closure, _dedup(s for s in found if s.conclusion in new)
    return closure, tuple(new)
