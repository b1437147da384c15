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

The residue reads entailment off the two clauses where it can
(entails_structurally).  Write c = L | []B1 | ... | []Bs | <>T1 | ... | <>Tr,
with L its literals and each Tm a clause set, and let E be T1 | ... | Tr
spread into a clause set: one member of each Tm, joined by disjoin, per
clause; bottom alone for r = 0, and no clause (verum) if some Tm is empty.
A K-model of ~c is a world that falsifies L and has one successor per
<>~Bj, where ~Bj holds, and every successor satisfies ~T1, ..., ~Tr, that
is ~E.  The successors are independent of each other and of the world's
literals, so ~c has a model iff L holds no complementary pair and each
~Bj & ~E has one:

  valid(c) iff L holds a complementary pair or some j has Bj | E valid.

A disjunction d entails c iff each disjunct of d does, and every disjunct
entails a valid c.  If c is not valid, a countermodel of c exists, and:

  * a literal l entails c iff l is in L, since ~c leaves the world's
    other literals free;
  * []D entails c iff some j has D |= Bj | E: D holds at every successor,
    so at the one for <>~Bj too, and with no j the successor-free world
    of ~c satisfies []D;
  * <>S entails c iff S |= E: the successor S asks for also bears ~E, and
    the successors of ~c are there already.

A clause entails a clause set iff it entails each member, and a clause set
S entails a clause e if one member does: exactly when S has one member,
and for the empty S (verum) iff e is valid.  With two or more members
their conjunction may entail e where no member does; in K that cannot
happen when S holds its own prime implicates (Bienvenu, JAIR 36, 2009),
but compiled diamond bodies need not, so the check answers None there.
It also answers None where spreading one clause's diamonds would give more
than MAX_OBLIGATIONS clauses, and where a part of the answer is None
unless the other parts settle it (a False conjunct, a True disjunct).  A
None is never read as False: a failed rule is False only once c is known
not to be valid.  The residue asks the oracle about exactly the pairs the
check leaves open, so its kept clauses, dropped pairs and witnesses are
the tableau's own.  Queries (covering_implicate) and KB checks
(is_implicate) still go to the tableau: routing queries through the check
measured 3.4x query-space throughput, but the benchmark keeps the record
of every item it completes, so that would read as a peak-RSS regression
past its bound until the benchmark stops keeping them (ROADMAP direction 2).

Every other entailment check rides on the tableau, whose memo is the one
verdict cache: a repeated check, clause pair or KB question alike, is
answered at the root of its search and spends no node.  An
EntailmentOracle keeps the formula of every clause it has compared as the
stronger side and KB it has checked, and the negation normal form of the
negation of every clause it has compared as the weaker side, so each is
converted once and a check starts its search from these without another
conversion; neither dict holds a verdict.  The clause of a KB check, often a one-off
candidate, is converted for that check alone.  The caller owns the oracle
and the tableau under it and, through Tableau(node_budget=N), the node
budget of every check.
Every entry point takes an oracle; one called without builds a fresh
oracle over a fresh Tableau for that call alone, so no verdict or budget
outcome carries over between calls the caller did not tie together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

from .errors import BudgetExceeded, RecursionDepthExceeded
from .normalization import BOTTOM_CNF, disjoin, simplify, simplify_cnf
from .resolution import closure_step_traced
from .semantics import Tableau
from .syntax import (
    EMPTY,
    And,
    Clause,
    Cnf,
    Formula,
    clause_key,
    clause_length,
    clause_negation,
    clause_to_formula,
    clause_to_json,
    cnf_to_formula,
    key_sorted,
)


@dataclass(frozen=True)
class PicConfig:
    """Resource caps for a compilation run; each a positive int (no bool)."""

    max_iterations: int = 20
    clause_budget: int = 5000

    def __post_init__(self):
        for name in ("max_iterations", "clause_budget"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"{name} must be a positive integer")


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
        return key_sorted(self.prime_implicates, clause_order)

    def to_json(self) -> dict:
        return {
            "prime_implicates": [clause_to_json(c) for c in self.sorted_implicates()],
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": [r.to_json() for r in self.trace],
        }


class EntailmentOracle:
    """Clause- and KB-level entailment over a tableau.

    Without a tableau it builds its own; every check runs under that
    tableau's node budget, and its memo answers a repeated check at the
    root, spending no node.  Each clause clause_entails tests as the
    stronger side, and each KB given to is_implicate, is converted to a
    formula once per oracle, and each clause clause_entails tests as the
    weaker side to the negation normal form of its negation.  Both are in
    negation normal form, so a check searches their conjunction as it
    stands.  The conversions live as long as the oracle and hold no
    verdict.
    """

    def __init__(self, tableau: Tableau | None = None):
        self.tableau = tableau if tableau is not None else Tableau()
        self._formulas: dict = {}  # clause or KB -> its formula
        self._negations: dict = {}  # clause -> clause_negation of it

    def clause_entails(self, d: Clause, c: Clause) -> bool:
        """True iff every pointed model of d satisfies c."""
        return self.tableau.refutes(And(_kept(self._formulas, d, clause_to_formula),
                                        _kept(self._negations, c, clause_negation)))

    def is_implicate(self, u: Cnf, c: Clause) -> bool:
        """True iff the knowledge base entails the clause; the tableau's memo answers repeats."""
        # kept only by clause_entails; a one-off candidate is converted for this check alone
        n = self._negations.get(c) or clause_negation(c)
        return self.tableau.refutes(And(_kept(self._formulas, u, cnf_to_formula), n))


def _kept(table: dict, x, convert) -> Formula:
    """convert(x), made once: table keeps it for every later call."""
    f = table.get(x)
    if f is None:
        f = table[x] = convert(x)
    return f


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
    items = key_sorted(set(clauses), clause_order)
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
    that entails it.  entails_structurally decides each pair it can, and
    the oracle the rest.  Without an oracle, a fresh one serves this call.
    """
    oracle = oracle or EntailmentOracle()

    def entails(d: Clause, c: Clause) -> bool:
        verdict = entails_structurally(d, c)
        return oracle.clause_entails(d, c) if verdict is None else verdict

    return _antichain(clauses, entails)


MAX_OBLIGATIONS = 64  # clauses entails_structurally may spread one clause's diamonds into


def entails_structurally(d: Clause, c: Clause) -> bool | None:
    """Whether d entails c, read off the two clauses; None where the rules cannot tell.

    True and False are exact; None is neither and leaves the pair to the
    tableau.  Stateless: nothing is kept between calls.  The rules are in
    the module docstring.  RecursionDepthExceeded if either clause is
    nested deeper than the stack allows.
    """
    try:
        return _entails(d, c)
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to compare") from None


# Three-valued connectives: None is unknown, and stays unknown unless a
# False conjunct or a True disjunct settles the answer without it.


def _all(verdicts) -> bool | None:
    out = True
    for v in verdicts:
        if v is False:
            return False
        if v is None:
            out = None
    return out


def _any(verdicts) -> bool | None:
    out = False
    for v in verdicts:
        if v:
            return True
        if v is None:
            out = None
    return out


def _entails(d: Clause, c: Clause) -> bool | None:
    obligations = _spread(c.diamonds)
    verdict = _rules(d, c, obligations)
    if verdict:
        return True
    # the rules are sound for every c, but complete only when c is not valid
    valid = _valid(c, obligations)
    if valid:
        return True
    return False if valid is False and verdict is False else None


def _spread(diamonds) -> Cnf | None:
    """T1 | ... | Tr for the bodies of <>T1 | ... | <>Tr, as a clause set.

    One member of each body, disjoined, per clause: bottom alone for no
    diamonds, no clause (verum) if some body is empty, and None past
    MAX_OBLIGATIONS clauses.
    """
    if len(diamonds) <= 1:
        return next(iter(diamonds)) if diamonds else BOTTOM_CNF
    size = 1
    for body in diamonds:
        size *= len(body)
    if size > MAX_OBLIGATIONS:
        return None
    return frozenset(disjoin(*members) for members in product(*diamonds))


def _valid(c: Clause, obligations) -> bool | None:
    """Whether c holds everywhere: its literals clash, or some []B has B | T1 | ... | Tr valid."""
    if len({lit.variable for lit in c.literals}) < len(c.literals):
        return True
    if not c.boxes:
        return False
    if obligations is None:
        return None
    return _any(_all(_valid(e, _spread(e.diamonds)) for e in _under(b, obligations))
                for b in c.boxes)


def _under(b: Clause, obligations) -> list:
    """The clauses of B | T1 | ... | Tr, for the spread T1 | ... | Tr."""
    return [disjoin(b, e) for e in obligations]


def _rules(d: Clause, c: Clause, obligations) -> bool | None:
    """Whether every disjunct of d entails c, exact when c is not valid."""
    if not d.literals <= c.literals:
        return False
    if not d.boxes and not d.diamonds:
        return True
    if obligations is None:
        return None
    return _all(chain(
        # []D: some []B of c has D |= B | T1 | ... | Tr
        (_any(_all(_entails(bd, e) for e in _under(b, obligations)) for b in c.boxes)
         for bd in d.boxes),
        # <>S: S |= T1 | ... | Tr, clause by clause
        (_all(_body_entails(s, e) for e in obligations) for s in d.diamonds),
    ))


def _body_entails(s, e: Clause) -> bool | None:
    """Whether the clause set s entails e: exact for at most one member.

    Some member entailing e is enough.  When none does, a set of two or
    more may still entail e by their conjunction, which the rules do not
    see, so the answer is None.
    """
    if not s:
        return _valid(e, _spread(e.diamonds))
    verdict = _any(_entails(m, e) for m in s)
    return None if verdict is False and len(s) > 1 else verdict


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
    for d in key_sorted(pi, clause_order):
        if oracle.clause_entails(d, q):
            return d
    return None
