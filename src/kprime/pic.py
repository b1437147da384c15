"""Prime implicate compilation and query answering.

The compiler alternates one-step resolution closure with deletion of
subsumed clauses until the set stops changing (compared by value),
minimizes the fixpoint with an entailment-based residue, and answers
queries by scanning the compiled set for a covering clause.  One
antichain routine serves both reductions, parametrised by the dominance
relation (structural subsumption inside the loop, entailment for the
residue); it keeps, from each equivalence class of the strongest clauses,
the representative with the smallest (length, key) pair, so the whole
pipeline is deterministic for a given input.  Within one compile, equal
clauses are one object: the stages share a dict of every clause met so
far, a closure clause equal to one of them is replaced by it, and a new
one reuses the equal literal, box and diamond parts the dict holds.

Clause-to-clause entailment rides on the tableau; an EntailmentOracle
caches verdicts per clause pair, and only those, because the residue's
witness pass repeats checks (distinct queries share no pair; a repeated
KB-level question is answered by the tableau's memo).  Beside them it
keeps the formula of every clause it has compared and KB it has checked,
so each is converted once; that dict holds no verdict.  The clause of a
KB check, often a one-off candidate, is converted for that check alone.
The caller owns both and, through the oracle's Tableau(node_budget=N),
the node budget of every check.  Every entry point takes an oracle; one
called without builds a fresh oracle over a fresh Tableau for that call
alone, so no verdict or budget outcome carries over between calls the
caller did not tie together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceeded, RecursionDepthExceeded
from .normalization import simplify, simplify_cnf
from .resolution import closure_step_traced
from .semantics import Tableau
from .syntax import (
    EMPTY,
    Clause,
    Cnf,
    Formula,
    clause_key,
    clause_length,
    clause_to_formula,
    clause_to_json,
    cnf_to_formula,
)


@dataclass(frozen=True)
class PicConfig:
    """Resource caps for a compilation run; all counts must be positive."""

    max_iterations: int = 20
    clause_budget: int = 5000

    def __post_init__(self):
        for name in ("max_iterations", "clause_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class StageRecord:
    """What one closure-plus-reduction stage (or the final minimization) did."""

    stage: int
    closure_size: int
    kept_size: int
    dropped: tuple  # pairs (dropped clause, surviving clause that entails it)

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "closure_size": self.closure_size,
            "kept_size": self.kept_size,
            "dropped": [
                {"clause": str(c), "subsumed_by": str(w)} for c, w in self.dropped
            ],
        }


@dataclass(frozen=True, slots=True)
class PicResult:
    prime_implicates: frozenset
    iterations: int
    trace: tuple
    converged: bool
    # derivations of a traced compile; outside ==, so traced and plain results agree
    steps: tuple = field(default=(), compare=False, repr=False)

    def sorted_implicates(self) -> list:
        return sorted(self.prime_implicates, key=clause_order)

    def to_json(self) -> dict:
        return {
            "prime_implicates": [clause_to_json(c) for c in self.sorted_implicates()],
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": [r.to_json() for r in self.trace],
        }


class EntailmentOracle:
    """Clause- and KB-level entailment over a tableau, caching clause pairs.

    Without a tableau it builds its own; the pair cache lives as long as
    the oracle, and every check runs under that tableau's node budget.
    Each clause given to clause_entails, and each KB given to
    is_implicate, is converted to a formula once per oracle: the
    conversions live as long as the pair cache and hold no verdict.
    """

    def __init__(self, tableau: Tableau | None = None):
        self.tableau = tableau if tableau is not None else Tableau()
        self._pair_cache: dict = {}
        self._formulas: dict = {}  # clause or KB -> its formula

    def _formula(self, x, convert) -> Formula:
        f = self._formulas.get(x)
        if f is None:
            f = self._formulas[x] = convert(x)
        return f

    def clause_entails(self, d: Clause, c: Clause) -> bool:
        """True iff every pointed model of d satisfies c."""
        key = (d, c)  # clauses are equal exactly when their canonical keys are
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self.tableau.entails(
                self._formula(d, clause_to_formula), self._formula(c, clause_to_formula)
            )
            self._pair_cache[key] = hit
        return hit

    def is_implicate(self, u: Cnf, c: Clause) -> bool:
        """True iff the knowledge base entails the clause; the tableau's memo answers repeats."""
        f = self._formulas.get(c) or clause_to_formula(c)  # kept only by clause_entails
        return self.tableau.entails(self._formula(u, cnf_to_formula), f)


def clause_order(c: Clause):
    """Order of compiled sets: shorter clauses first, ties by canonical key."""
    return (clause_length(c), clause_key(c))


def _antichain(clauses, dominates):
    """Maximal clauses under a dominance preorder, one per equivalence class.

    Returns (kept, dropped): kept is the antichain, one smallest
    representative per class, ordered by (length, key); dropped pairs each
    removed clause with the first kept clause that dominates it.  Clauses
    are visited in (length, key) order against a front of survivors: a
    clause some front member dominates is dropped (strictly weaker, or a
    later equivalent), any other evicts the members it dominates and
    joins.  dominates must be transitive, so that every visited clause
    stays dominated by some front member and one pass suffices.

    The front member that drops a clause is its witness if it is kept: the
    front keeps visiting order, so every kept clause before it was in the
    front then and failed the check.  Only a clause that was evicted, or
    whose first witness was, scans the kept clauses again.
    """
    items = sorted(set(clauses), key=clause_order)
    front: list = []
    witness = {}  # dropped clause -> the front member that dropped it
    for c in items:
        for m in front:
            if dominates(m, c):
                witness[c] = m
                break
        else:
            front = [m for m in front if not dominates(c, m)]
            front.append(c)
    kept = tuple(front)  # appended in visiting order, so already sorted
    kept_set = set(kept)
    dropped = []
    for c in items:
        if c in kept_set:
            continue
        w = witness.get(c)
        if w not in kept_set:
            w = next(m for m in kept if dominates(m, c))
        dropped.append((c, w))
    return kept, tuple(dropped)


def residue_detailed(clauses, oracle: EntailmentOracle | None = None):
    """Entailment-minimal cover of a clause set.

    Returns (kept, dropped): kept is the antichain of strongest clauses,
    one smallest representative per equivalence class, ordered by
    (length, key); dropped pairs each removed clause with a kept clause
    that entails it.  Without an oracle, a fresh one serves this call.
    """
    oracle = oracle or EntailmentOracle()
    return _antichain(clauses, oracle.clause_entails)


def subsumes(d: Clause, c: Clause) -> bool:
    """Structural subsumption: a syntactic witness that d entails c.

    Every literal of d appears in c, every box body of d subsumes some box
    body of c, and every diamond of d has a counterpart in c whose members
    are all subsumed by members of d's set (the stronger conjunction).
    Unlike entailment this survives resolution: deleting only subsumed
    clauses inside the saturation loop never cuts off a derivation.  It is
    a preorder: literal sets nest by inclusion, and box and diamond bodies
    nest by induction, so it is transitive.  RecursionDepthExceeded if
    either clause is nested deeper than the stack allows.
    """
    if d.is_bottom:
        return True
    if not d.literals <= c.literals:
        return False
    try:
        for bd in d.boxes:
            if not any(subsumes(bd, bc) for bc in c.boxes):
                return False
        for sd in d.diamonds:
            if not any(_cnf_subsumes(sd, sc) for sc in c.diamonds):
                return False
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to compare") from None
    return True


def _cnf_subsumes(stronger, weaker) -> bool:
    return all(any(subsumes(m, w) for m in stronger) for w in weaker)


def subsumption_reduce(clauses):
    """Keep the subsumption-maximal clauses, one smallest representative per
    mutual-subsumption group.

    Returns (kept, dropped) like residue_detailed, with the subsumer as the
    witness for every dropped clause.
    """
    return _antichain(clauses, subsumes)


def _share(c: Clause, seen: dict) -> Clause:
    """The one object seen holds for c's value.

    The first time, that is c, with each part swapped for an equal part
    seen already holds; the clause and its parts then join seen.
    """
    hit = seen.get(c)
    if hit is not None:
        return hit
    lits, boxes, dias = c.literals, c.boxes, c.diamonds
    if lits:
        lits = seen.setdefault(lits, lits)
    if boxes:
        boxes = seen.setdefault(boxes, boxes)
    if dias:
        dias = seen.setdefault(dias, dias)
    if lits is not c.literals or boxes is not c.boxes or dias is not c.diamonds:
        c = Clause(lits, boxes, dias)
    seen[c] = c
    return c


def prime_implicates(
    u: Cnf,
    config: PicConfig | None = None,
    oracle: EntailmentOracle | None = None,
    trace: bool = False,
) -> PicResult:
    """Compile a knowledge base into its prime implicate set.

    Each stage closes the set one resolution layer and deletes clauses
    another clause subsumes; the loop stops when the set repeats.  Deleting
    by entailment inside the loop can cut off derivations (a clause a
    premise entails may still have resolvents nothing else reaches), so the
    entailment-based residue runs once, on the fixpoint, to minimize the
    answer; its removals appear as a final trace record.  With trace, the
    result's steps hold the ranked resolution derivations of every stage;
    without it they are () and no derivation is built.  Equal clauses in
    the input, the trace records and the result are one object, as the new
    conclusions of each closure are shared (_share) before it is reduced.
    Without an oracle, a fresh one serves this call, so the same input and
    config always give the same verdict.
    """
    config = config or PicConfig()
    oracle = oracle or EntailmentOracle()
    current = simplify_cnf(u)
    if not current:
        return PicResult(EMPTY, 0, (), True)
    seen = {c: c for c in current}  # one object per distinct clause of this call

    records = []
    steps = []
    converged = False
    iterations = 0
    try:
        for stage in range(1, config.max_iterations + 1):
            iterations = stage
            closure, stage_steps = closure_step_traced(
                current, clause_budget=config.clause_budget, trace=trace
            )
            # the inputs are seen's objects already; only new conclusions join it
            closure = current.union(_share(c, seen) for c in closure - current)
            kept, dropped = subsumption_reduce(closure)
            if trace:
                steps.extend(stage_steps)
            records.append(StageRecord(stage, len(closure), len(kept), dropped))
            new = frozenset(kept)
            if new == current:
                converged = True
                break
            current = new
        final_kept, final_dropped = residue_detailed(current, oracle)
    except BudgetExceeded as e:
        # the closure of stage `iterations`, or the residue after it
        raise type(e)(e.args[0], stage=iterations, reached=e.reached, limit=e.limit) from e
    if final_dropped:
        records.append(
            StageRecord(iterations + 1, len(current), len(final_kept), final_dropped)
        )
    return PicResult(
        frozenset(final_kept), iterations, tuple(records), converged, tuple(steps)
    )


def covering_implicate(
    pi, q: Clause, oracle: EntailmentOracle | None = None
) -> Clause | None:
    """Smallest compiled clause entailing the query, or None.

    The query is entailed by the compiled set iff the result is not None.
    Without an oracle, a fresh one serves this call.
    """
    oracle = oracle or EntailmentOracle()
    q = simplify(q)
    for d in sorted(pi, key=clause_order):
        if oracle.clause_entails(d, q):
            return d
    return None
