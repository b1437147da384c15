"""Direct resolution on modal clauses.

Two-premise resolvents come from an axiom on complementary literals (or on
a bottom premise) lifted through three rules: remainders of both clauses
are threaded around the active pair, two boxes resolve into a boxed
resolvent, and a box against a diamond resolves the box body into one
member of the diamond's clause set, which keeps its premises and gains the
resolvent.  Single-premise resolvents act inside one clause: a resolvable
pair within a diamond's set grows that set, a member's own resolvent grows
it likewise, and boxes recurse.  Every conclusion is returned in normal
form with a witness derivation tree; premises are normal, so conclusions
are assembled with the normalization constructors and never re-simplified.

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
across steps is the compiler's job, not this module's.  One routine,
closure_step_traced, computes it with or without a trace.  The rules yield
conclusions one at a time, and the closure checks its clause budget per
distinct conclusion, so a capped layer stops one clause past the cap.
Derivations are kept and ranked only when a trace is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClauseBudgetExceeded, RecursionDepthExceeded
from .normalization import conjoin, diamond, disjoin
# unused here, kept importable: bench/run.py --trace 1 wraps these two names
# on this module to count simplification inside resolution
from .normalization import simplify, simplify_cnf  # noqa: F401
from .syntax import (
    BOTTOM_CLAUSE,
    Clause,
    clause_key,
    cnf_key,
    sorted_clauses,
)

DEFAULT_MAX_DEPTH = 64


@dataclass(frozen=True)
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


def _unit_lit(lit) -> Clause:
    return Clause(literals=frozenset((lit,)))


def _unit_box(body: Clause) -> Clause:
    return Clause(boxes=frozenset((body,)))


def _unit_dia(body) -> Clause:
    return Clause(diamonds=frozenset((body,)))


def _wrap_sigma(a: Clause, b: Clause, core: ResolutionStep, rem_a: Clause, rem_b: Clause) -> ResolutionStep:
    """Thread the untouched disjuncts of both premises around a core resolvent."""
    if rem_a.is_bottom and rem_b.is_bottom:
        return core
    conclusion = disjoin(rem_a, rem_b, core.conclusion)
    return ResolutionStep("sigma-or", (a, b), conclusion, (core,))


def _wrap_gamma(a: Clause, core: ResolutionStep, rem: Clause) -> ResolutionStep:
    if rem.is_bottom:
        return core
    conclusion = disjoin(rem, core.conclusion)
    return ResolutionStep("gamma-or", (a,), conclusion, (core,))


def _sigma(a: Clause, b: Clause, depth: int):
    if depth < 0:
        raise RecursionDepthExceeded("resolvent search nested too deep")
    if a.is_bottom or b.is_bottom:
        # a bottom premise resolves the pair away entirely
        yield ResolutionStep("A1'", (a, b), BOTTOM_CLAUSE)
        return

    for lit in sorted(a.literals, key=lambda l: (l.variable, not l.positive)):
        comp = lit.negate()
        if comp not in b.literals:
            continue
        core = ResolutionStep("A1", (_unit_lit(lit), _unit_lit(comp)), BOTTOM_CLAUSE)
        rem_a = Clause(a.literals - {lit}, a.boxes, a.diamonds)
        rem_b = Clause(b.literals - {comp}, b.boxes, b.diamonds)
        yield _wrap_sigma(a, b, core, rem_a, rem_b)

    for da in sorted_clauses(a.boxes):
        for db in sorted_clauses(b.boxes):
            for inner in _sigma(da, db, depth - 1):
                conclusion = _unit_box(inner.conclusion)
                core = ResolutionStep(
                    "sigma-boxbox", (_unit_box(da), _unit_box(db)), conclusion, (inner,)
                )
                rem_a = Clause(a.literals, a.boxes - {da}, a.diamonds)
                rem_b = Clause(b.literals, b.boxes - {db}, b.diamonds)
                yield _wrap_sigma(a, b, core, rem_a, rem_b)

    for x, y in ((a, b), (b, a)):
        for d in sorted_clauses(x.boxes):
            if y.diamonds and not all(d in s for s in y.diamonds):
                # a box body holds at every successor, so each diamond's
                # witness satisfies it too: absorb the body into every
                # diamond of the partner at once.  Resolution alone cannot
                # reach these conclusions, and absorbing one diamond at a
                # time can stall on intermediates the residue removes.
                conclusion = disjoin(*(diamond(conjoin(s, (d,))) for s in y.diamonds))
                core = ResolutionStep(
                    "sigma-absorb",
                    (_unit_box(d), Clause(diamonds=y.diamonds)),
                    conclusion,
                )
                rem_x = Clause(x.literals, x.boxes - {d}, x.diamonds)
                rem_y = Clause(y.literals, y.boxes, frozenset())
                yield _wrap_sigma(a, b, core, rem_x, rem_y)
            for s in sorted(y.diamonds, key=cnf_key):
                rem_x = Clause(x.literals, x.boxes - {d}, x.diamonds)
                rem_y = Clause(y.literals, y.boxes, y.diamonds - {s})
                for e in sorted_clauses(s):
                    for inner in _sigma(d, e, depth - 1):
                        conclusion = diamond(conjoin(s, (inner.conclusion,)))
                        core = ResolutionStep(
                            "sigma-boxdiamond",
                            (_unit_box(d), _unit_dia(s)),
                            conclusion,
                            (inner,),
                        )
                        yield _wrap_sigma(a, b, core, rem_x, rem_y)


def _gamma(a: Clause, depth: int):
    if depth < 0:
        raise RecursionDepthExceeded("resolvent search nested too deep")

    for d in sorted_clauses(a.boxes):
        rem = Clause(a.literals, a.boxes - {d}, a.diamonds)
        # successor dichotomy: a world either has no successors or has one
        # satisfying the box body.  This seeds a diamond that absorption can
        # pack with other box bodies; without it, diamond-free premises
        # cover none of their box-or-diamond consequences.
        dichotomy = disjoin(_unit_box(BOTTOM_CLAUSE), diamond(frozenset((d,))))
        core = ResolutionStep("gamma-dichotomy", (_unit_box(d),), dichotomy)
        yield _wrap_gamma(a, core, rem)
        for inner in _gamma(d, depth - 1):
            conclusion = _unit_box(inner.conclusion)
            core = ResolutionStep("gamma-box", (_unit_box(d),), conclusion, (inner,))
            yield _wrap_gamma(a, core, rem)

    for s in sorted(a.diamonds, key=cnf_key):
        rem = Clause(a.literals, a.boxes, a.diamonds - {s})
        members = sorted_clauses(s)
        for i, e1 in enumerate(members):
            for e2 in members[i + 1 :]:
                for inner in _sigma(e1, e2, depth - 1):
                    conclusion = diamond(conjoin(s, (inner.conclusion,)))
                    core = ResolutionStep(
                        "gamma-diamond1", (_unit_dia(s),), conclusion, (inner,)
                    )
                    yield _wrap_gamma(a, core, rem)
        for e in members:
            for inner in _gamma(e, depth - 1):
                conclusion = diamond(conjoin(s, (inner.conclusion,)))
                core = ResolutionStep(
                    "gamma-diamond2", (_unit_dia(s),), conclusion, (inner,)
                )
                yield _wrap_gamma(a, core, rem)


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


def sigma_resolvents(a: Clause, b: Clause, max_depth: int = DEFAULT_MAX_DEPTH) -> tuple:
    """All resolvents of a clause pair, one derivation per conclusion."""
    return _dedup(_sigma(a, b, max_depth))


def gamma_resolvents(a: Clause, max_depth: int = DEFAULT_MAX_DEPTH) -> tuple:
    """All single-premise resolvents of a clause, one derivation per conclusion."""
    return _dedup(_gamma(a, max_depth))


def _layer(base, max_depth: int):
    """Every derivation of one closure layer, pairs first, in clause-key order."""
    for i, a in enumerate(base):
        for b in base[i:]:
            yield from _sigma(a, b, max_depth)
        yield from _gamma(a, max_depth)


def closure_step_traced(
    clauses,
    clause_budget: int | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    trace: bool = False,
):
    """One closure layer: the set plus every one-step resolvent.

    Returns (clause set, steps for conclusions not already in the input),
    one step per new conclusion.  Pairs are visited in clause-key order and
    each conclusion joins the set as the rules produce it, so the clause
    budget fires as soon as the set holds clause_budget + 1 clauses, before
    the rest of the layer is built.  With trace, every derivation of a new
    conclusion is kept and the smallest is returned, ordered by conclusion
    key; without it, the first derivation found stands and none is ranked.
    """
    base = sorted_clauses(set(clauses))
    out = set(base)
    steps = []  # with trace every derivation, without it the first per conclusion
    for step in _layer(base, max_depth):
        if step.conclusion not in out:
            out.add(step.conclusion)
            if clause_budget is not None and len(out) > clause_budget:
                raise ClauseBudgetExceeded(
                    f"closure grew to {len(out)} clauses, over the budget of {clause_budget}"
                )
        elif not trace:
            continue
        steps.append(step)
    if trace:
        new = out.difference(base)
        return frozenset(out), _dedup(s for s in steps if s.conclusion in new)
    return frozenset(out), tuple(steps)

