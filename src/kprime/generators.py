"""Seeded random instances for the property suites.

Formula sizes and modal operator frequencies are tuned so the bounded
enumeration oracle stays tractable: formulas keep at most two distinct
diamond subformulas after negation normal form, which caps the branching
the tree-model sweep has to cover.
"""

from __future__ import annotations

import random

from .normalization import make_clause, simplify_cnf
from .semantics import diamond_subformulas
from .syntax import BOT, And, Box, Clause, Diamond, Formula, Literal, Not, Or, Var

MAX_DIAMONDS = 2  # distinct diamond subformulas a random formula keeps after NNF


def random_formula(rng: random.Random, vocab, depth: int = 2, size: int = 8) -> Formula:
    """Random formula over the vocabulary with bounded modal depth."""
    vocab = tuple(vocab)
    for _ in range(50):
        f = _grow(rng, vocab, depth, size)
        if len(diamond_subformulas(f)) <= MAX_DIAMONDS:
            return f
    return Var(vocab[0]) if vocab else BOT


def _grow(rng: random.Random, vocab, depth: int, size: int) -> Formula:
    if size <= 1 or rng.random() < 0.12:
        if not vocab or rng.random() < 0.06:
            return BOT
        return Var(rng.choice(vocab))
    ops = ["not", "and", "and", "or", "or"]
    if depth > 0:
        ops += ["dia", "box"]
    op = rng.choice(ops)
    if op == "not":
        return Not(_grow(rng, vocab, depth, size - 1))
    if op == "and" or op == "or":
        left_size = rng.randint(1, max(1, size - 2))
        left = _grow(rng, vocab, depth, left_size)
        right = _grow(rng, vocab, depth, size - 1 - left_size)
        return And(left, right) if op == "and" else Or(left, right)
    body = _grow(rng, vocab, depth - 1, size - 1)
    return Diamond(body) if op == "dia" else Box(body)


def random_clause(
    rng: random.Random, vocab, depth: int = 1, width: int = 2
) -> Clause:
    """Random normal-form clause; the empty clause only by collapse (rare)."""
    vocab = tuple(vocab)
    count = rng.randint(1, width)
    lits, boxes, dias = set(), set(), set()
    for _ in range(count):
        kinds = ["lit", "lit", "lit"]
        if depth > 0:
            kinds += ["box", "dia"]
        kind = rng.choice(kinds)
        if kind == "lit" and vocab:
            lits.add(Literal(rng.choice(vocab), rng.random() < 0.5))
        elif kind == "box":
            boxes.add(random_clause(rng, vocab, depth - 1, width))
        elif kind == "dia":
            members = {
                random_clause(rng, vocab, depth - 1, width)
                for _ in range(rng.randint(1, width))
            }
            dias.add(frozenset(members))
    return make_clause(lits, boxes, dias)


def random_kb(
    rng: random.Random,
    vocab,
    clauses: int = 3,
    depth: int = 1,
    width: int = 2,
):
    """Random nonempty knowledge base as a normalized clause set."""
    out = set()
    for _ in range(clauses):
        c = random_clause(rng, vocab, depth, width)
        if not c.is_bottom:
            out.add(c)
    if not out:
        out.add(random_clause(rng, vocab, 0, max(1, width)))
    return simplify_cnf(out)


# Raw clause trees for exercising the rewriter one rule at a time.  A raw
# clause is ('cl', (disjunct, ...)); disjuncts are ('bot',), ('lit', var,
# positive), ('box', raw clause) or ('dia', (raw clause, ...)), with
# duplicates and bottoms allowed anywhere.


def random_raw_clause(rng: random.Random, vocab, depth: int = 1, width: int = 2):
    vocab = tuple(vocab)
    parts = []
    for _ in range(rng.randint(0, width)):
        parts.append(_random_raw_disjunct(rng, vocab, depth, width))
    # duplicated disjuncts and stray bottoms exercise the merge rules
    if parts and rng.random() < 0.5:
        parts.append(rng.choice(parts))
    if rng.random() < 0.3:
        parts.append(("bot",))
    rng.shuffle(parts)
    return ("cl", tuple(parts))


def _random_raw_disjunct(rng: random.Random, vocab, depth: int, width: int):
    kinds = ["lit", "lit", "bot"]
    if depth > 0:
        kinds += ["box", "dia", "dia"]
    kind = rng.choice(kinds)
    if kind == "bot" or (kind == "lit" and not vocab):
        return ("bot",)
    if kind == "lit":
        return ("lit", rng.choice(vocab), rng.random() < 0.5)
    if kind == "box":
        return ("box", random_raw_clause(rng, vocab, depth - 1, width))
    members = [
        random_raw_clause(rng, vocab, depth - 1, width)
        for _ in range(rng.randint(1, width))
    ]
    if members and rng.random() < 0.4:
        members.append(rng.choice(members))
    return ("dia", tuple(members))
