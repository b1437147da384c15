"""Prime implicate compilation and query answering.

The compiler alternates one-step resolution closure with deletion of
subsumed clauses until the set stops changing (compared by canonical key),
minimizes the fixpoint with an entailment-based residue, and answers
queries by scanning the compiled set for a covering clause.  One
antichain routine serves both reductions, parametrised by the dominance
relation (structural subsumption inside the loop, entailment for the
residue); it keeps, from each equivalence class of the strongest clauses,
the representative with the smallest (length, key) pair, so the whole
pipeline is deterministic for a given input.

Clause-to-clause entailment rides on the tableau; an EntailmentOracle
caches verdicts per clause pair because residue and query answering repeat
questions.  The caller owns that cache: every entry point takes an oracle,
and one called without builds a fresh oracle (over a fresh Tableau) for
that call alone, so no verdict or budget outcome carries over between
calls the caller did not tie together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceeded
from .normalization import simplify, simplify_cnf
from .resolution import DEFAULT_MAX_DEPTH, closure_step_traced
from .semantics import Tableau
from .syntax import (
    Clause,
    Cnf,
    clause_key,
    clause_length,
    clause_to_formula,
    clause_to_json,
    cnf_key,
    cnf_to_formula,
)


@dataclass(frozen=True)
class PicConfig:
    """Resource caps for a compilation run; all counts must be positive."""

    max_iterations: int = 20
    clause_budget: int = 5000
    tableau_node_budget: int = 100_000
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        for name in ("max_iterations", "clause_budget", "tableau_node_budget", "max_depth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PicResult:
    prime_implicates: frozenset
    iterations: int
    trace: tuple
    converged: bool
    # derivations of a traced compile; outside ==, so traced and plain results agree
    steps: tuple = field(default=(), compare=False, repr=False)

    def sorted_implicates(self) -> list:
        return sorted(self.prime_implicates, key=_residue_order)

    def to_json(self) -> dict:
        return {
            "prime_implicates": [clause_to_json(c) for c in self.sorted_implicates()],
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": [r.to_json() for r in self.trace],
        }


class EntailmentOracle:
    """Clause- and KB-level entailment over a tableau, with verdict caches.

    Without a tableau it builds its own; the caches live as long as the
    oracle.
    """

    def __init__(self, tableau: Tableau | None = None):
        self.tableau = tableau if tableau is not None else Tableau()
        self._pair_cache: dict = {}
        self._implicate_cache: dict = {}

    def clause_entails(self, d: Clause, c: Clause, node_budget: int | None = None) -> bool:
        """True iff every pointed model of d satisfies c."""
        key = (clause_key(d), clause_key(c))
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self.tableau.entails(
                clause_to_formula(d), clause_to_formula(c), node_budget
            )
            self._pair_cache[key] = hit
        return hit

    def is_implicate(self, u: Cnf, c: Clause, node_budget: int | None = None) -> bool:
        """True iff the knowledge base entails the clause."""
        key = (cnf_key(u), clause_key(c))
        hit = self._implicate_cache.get(key)
        if hit is None:
            hit = self.tableau.entails(
                cnf_to_formula(u), clause_to_formula(c), node_budget
            )
            self._implicate_cache[key] = hit
        return hit


def _residue_order(c: Clause):
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
    """
    items = sorted(set(clauses), key=_residue_order)
    front: list = []
    for c in items:
        if any(dominates(m, c) for m in front):
            continue
        front = [m for m in front if not dominates(c, m)]
        front.append(c)
    kept = tuple(front)  # appended in visiting order, so already sorted
    kept_set = set(kept)
    dropped = tuple(
        (c, next(m for m in kept if dominates(m, c))) for c in items if c not in kept_set
    )
    return kept, dropped


def residue_detailed(
    clauses,
    oracle: EntailmentOracle | None = None,
    node_budget: int | None = None,
):
    """Entailment-minimal cover of a clause set.

    Returns (kept, dropped): kept is the antichain of strongest clauses,
    one smallest representative per equivalence class, ordered by
    (length, key); dropped pairs each removed clause with a kept clause
    that entails it.  Without an oracle, a fresh one serves this call.
    """
    oracle = oracle or EntailmentOracle()
    return _antichain(clauses, lambda d, c: oracle.clause_entails(d, c, node_budget))


def subsumes(d: Clause, c: Clause) -> bool:
    """Structural subsumption: a syntactic witness that d entails c.

    Every literal of d appears in c, every box body of d subsumes some box
    body of c, and every diamond of d has a counterpart in c whose members
    are all subsumed by members of d's set (the stronger conjunction).
    Unlike entailment this survives resolution: deleting only subsumed
    clauses inside the saturation loop never cuts off a derivation.  It is
    a preorder: literal sets nest by inclusion, and box and diamond bodies
    nest by induction, so it is transitive.
    """
    if d.is_bottom:
        return True
    if not d.literals <= c.literals:
        return False
    for bd in d.boxes:
        if not any(subsumes(bd, bc) for bc in c.boxes):
            return False
    for sd in d.diamonds:
        if not any(_cnf_subsumes(sd, sc) for sc in c.diamonds):
            return False
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
    without it they are ().  Without an oracle, a fresh one serves this
    call, so the same input and config always give the same verdict.
    """
    config = config or PicConfig()
    oracle = oracle or EntailmentOracle()
    current = simplify_cnf(u)
    if not current:
        return PicResult(frozenset(), 0, (), True)

    records = []
    steps = []
    converged = False
    iterations = 0
    for stage in range(1, config.max_iterations + 1):
        iterations = stage
        try:
            closure, stage_steps = closure_step_traced(
                current,
                clause_budget=config.clause_budget,
                max_depth=config.max_depth,
                trace=trace,
            )
        except BudgetExceeded as e:
            raise type(e)(e.args[0], stage=stage) from e
        kept, dropped = subsumption_reduce(closure)
        if trace:
            steps.extend(stage_steps)
        records.append(StageRecord(stage, len(closure), len(kept), dropped))
        new = frozenset(kept)
        if new == current:
            converged = True
            break
        current = new

    try:
        final_kept, final_dropped = residue_detailed(
            current, oracle, node_budget=config.tableau_node_budget
        )
    except BudgetExceeded as e:
        raise type(e)(e.args[0], stage=iterations) from e
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
    for d in sorted(pi, key=_residue_order):
        if oracle.clause_entails(d, q):
            return d
    return None
