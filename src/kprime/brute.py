"""Small-instance ground truth by exhaustive clause enumeration.

Builds every normal-form clause over a bounded vocabulary, modal nesting
and per-level component count, filters the ones a knowledge base entails,
and minimizes them by tableau entailment alone, so the reference shares
no entailment code with the compiler's residue.  This is a test
instrument: the bounds explode combinatorially, so keep them at desk scale.
MAX_CLAUSE_SPACE (100,000 clauses) enforces that: p, q at depth 1, width 2
(2,486 clauses) and p, q, r there (33,671) fit, while p, q at depth 2,
width 2 (about 4.8e12) raises ClauseBudgetExceeded before anything is built.
A negative depth or width raises ValueError in every function here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import comb

from .errors import ClauseBudgetExceeded, RecursionDepthExceeded
from .normalization import box, diamond, disjoin, literal, simplify_cnf
from .pic import EntailmentOracle, _antichain
from .syntax import BOTTOM_CLAUSE, Clause, Cnf, Literal, clause_key

MAX_CLAUSE_SPACE = 100_000  # clauses enumerate_clauses may build for one set of bounds


def _check_bounds(depth: int, width: int) -> None:
    if depth < 0 or width < 0:
        raise ValueError(f"depth and width must not be negative (got {depth} and {width})")


def _space_size(variables: int, depth: int, width: int) -> int:
    """Clauses _clause_space builds, counted without building them.

    Once a count passes MAX_CLAUSE_SPACE it stops growing there: the result
    is then a lower bound, still over the cap, since the space only grows
    with depth.  This keeps the arithmetic small however large the bounds.
    """

    def capped_sum(terms) -> int:
        total = 0
        for term in terms:
            total += term
            if total > MAX_CLAUSE_SPACE:
                break
        return total

    if width == 0:
        return 1  # only the empty clause, at every depth
    # with width >= 1 each level at least doubles the one below, so the loop
    # passes the cap within about twenty levels; comb(n, k) is 0 for k > n
    pool = 2 * variables  # the literal components
    for level in range(depth + 1):
        size = capped_sum(comb(pool, k) for k in range(min(width, pool) + 1))
        if level == depth or size > MAX_CLAUSE_SPACE:
            return size
        # the next level's components: literals, boxes over this level, and
        # diamonds over 1..width of its non-bottom clauses
        diamonds = (comb(size - 1, k) for k in range(1, min(width, size - 1) + 1))
        pool = capped_sum(chain((2 * variables, size), diamonds))


# a few spaces with the ones below them: enough for a suite that checks
# many knowledge bases over one space, without keeping every space ever built
@lru_cache(maxsize=4)
def _clause_space(vocab: tuple, depth: int, width: int) -> tuple:
    if width == 0:
        return (BOTTOM_CLAUSE,)  # the one clause at every depth: no recursion
    # every possible component at this nesting level, as a unit clause
    pool = [literal(Literal(v, pol)) for v in vocab for pol in (True, False)]
    if depth > 0:
        below = _clause_space(vocab, depth - 1, width)
        pool += (box(c) for c in below)
        nonbottom = [c for c in below if not c.is_bottom]
        # combinations(xs, k) for k past len(xs) yields nothing but still
        # allocates k indices, so bound k by the pool as _space_size does
        for k in range(1, min(width, len(nonbottom)) + 1):
            pool += (diamond(frozenset(combo)) for combo in combinations(nonbottom, k))
    out = [
        disjoin(*combo)
        for k in range(min(width, len(pool)) + 1)
        for combo in combinations(pool, k)
    ]
    out.sort(key=clause_key)
    return tuple(out)


def enumerate_clauses(vocab, depth: int, width: int):
    """Iterate over every normal-form clause within the bounds, in canonical order.

    Diamond bodies are nonempty sets of non-bottom clauses (a diamond over
    bottom would not be in normal form), box bodies are unrestricted, and
    the empty clause comes first.  Raises ClauseBudgetExceeded, before
    building any clause, when the space holds more than MAX_CLAUSE_SPACE.
    """
    _check_bounds(depth, width)
    vocab = tuple(sorted(set(vocab)))  # a repeated variable adds nothing
    size = _space_size(len(vocab), depth, width)
    if size > MAX_CLAUSE_SPACE:
        raise ClauseBudgetExceeded(
            f"clause space of at least {size} clauses, over the cap of {MAX_CLAUSE_SPACE}",
            reached=size,
            limit=MAX_CLAUSE_SPACE,
        )
    return iter(_clause_space(vocab, depth, width))


def within_bounds(c: Clause, vocab, depth: int, width: int) -> bool:
    """Whether a clause lies inside the enumerated space for these bounds."""
    _check_bounds(depth, width)
    vocab = frozenset(vocab)
    if c.component_count() > width:
        return False
    if any(l.variable not in vocab for l in c.literals):
        return False
    if (c.boxes or c.diamonds) and depth <= 0:
        return False
    try:
        for b in c.boxes:
            if not within_bounds(b, vocab, depth - 1, width):
                return False
        for s in c.diamonds:
            if not s or len(s) > width:
                return False
            if any(m.is_bottom or not within_bounds(m, vocab, depth - 1, width) for m in s):
                return False
    except RecursionError:
        raise RecursionDepthExceeded("clause nested too deep to bound") from None
    return True


def prime_implicates_brute(
    u: Cnf,
    vocab,
    depth: int,
    width: int,
    oracle: EntailmentOracle | None = None,
) -> frozenset:
    """Reference prime implicates inside the bounded clause space.

    The implicates are minimized by the oracle's tableau alone, never by
    the structural check the compiler's residue tries first.  Without an
    oracle, a fresh one serves this call.
    """
    oracle = oracle or EntailmentOracle()
    u = simplify_cnf(u)
    implicates = [
        c for c in enumerate_clauses(vocab, depth, width) if oracle.is_implicate(u, c)
    ]
    return frozenset(_antichain(implicates, oracle.clause_entails)[0])
