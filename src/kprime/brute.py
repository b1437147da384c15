"""Small-instance ground truth by exhaustive clause enumeration.

Builds every normal-form clause over a bounded vocabulary, modal nesting
and per-level component count, filters the ones a knowledge base entails,
and minimizes with the same residue as the compiler.  This is a test
instrument: the bounds explode combinatorially, so keep them at desk scale
(three variables, nesting two, width three at the outside).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .normalization import box, diamond, disjoin, literal, simplify_cnf
from .pic import EntailmentOracle, residue_detailed
from .syntax import Clause, Cnf, Literal, clause_key


@lru_cache(maxsize=None)
def _clause_space(vocab: tuple, depth: int, width: int) -> tuple:
    # every possible component at this nesting level, as a unit clause
    pool = [literal(Literal(v, pol)) for v in vocab for pol in (True, False)]
    if depth > 0:
        below = _clause_space(vocab, depth - 1, width)
        pool += (box(c) for c in below)
        nonbottom = [c for c in below if not c.is_bottom]
        for k in range(1, width + 1):
            pool += (diamond(frozenset(combo)) for combo in combinations(nonbottom, k))
    out = [disjoin(*combo) for k in range(width + 1) for combo in combinations(pool, k)]
    out.sort(key=clause_key)
    return tuple(out)


def enumerate_clauses(vocab, depth: int, width: int):
    """Yield every normal-form clause within the bounds, in canonical order.

    Diamond bodies are nonempty sets of non-bottom clauses (a diamond over
    bottom would not be in normal form), box bodies are unrestricted, and
    the empty clause comes first.
    """
    yield from _clause_space(tuple(sorted(vocab)), depth, width)


def within_bounds(c: Clause, vocab, depth: int, width: int) -> bool:
    """Whether a clause lies inside the enumerated space for these bounds."""
    vocab = frozenset(vocab)
    if c.component_count() > width:
        return False
    if any(l.variable not in vocab for l in c.literals):
        return False
    if (c.boxes or c.diamonds) and depth <= 0:
        return False
    for b in c.boxes:
        if not within_bounds(b, vocab, depth - 1, width):
            return False
    for s in c.diamonds:
        if not s or len(s) > width:
            return False
        if any(m.is_bottom or not within_bounds(m, vocab, depth - 1, width) for m in s):
            return False
    return True


def prime_implicates_brute(
    u: Cnf,
    vocab,
    depth: int,
    width: int,
    oracle: EntailmentOracle | None = None,
) -> frozenset:
    """Reference prime implicates inside the bounded clause space.

    Without an oracle, a fresh one serves this call.
    """
    oracle = oracle or EntailmentOracle()
    u = simplify_cnf(u)
    implicates = [
        c for c in enumerate_clauses(vocab, depth, width) if oracle.is_implicate(u, c)
    ]
    return frozenset(residue_detailed(implicates, oracle)[0])
