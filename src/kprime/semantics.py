"""Kripke semantics for K: model checking, satisfiability, local consequence.

Satisfiability is decided by a labeled tableau: conjunctions expand, all
of a node's at once, disjunctions branch, and once a world is
propositionally saturated each diamond spawns a successor seeded with
every box body.  K needs no frame conditions, so a dead-end world
satisfies every box.  Open tableaux yield finite tree models of depth at
most the modal depth of the query, which the caller can re-check with
model_check.  A model holds one frozenset per distinct valuation image:
variables true at the same worlds share it, a variable true nowhere holds
syntax.EMPTY, and one true everywhere holds the world set itself.

A Tableau owns its node budget and its memo of finished verdicts: every
search through it, an EntailmentOracle's included, runs under that budget,
and the Tableau counts each search's nodes itself.  A node is a set of
formulas, and one node expands every conjunction in its set at once,
nested ones included: the set of what is left when all of them are
replaced by their conjuncts is the next node, whatever way they nest, and
the split walks an explicit stack, not the interpreter's.  A formula does
not keep its own hash, so each member of that set is hashed once, in full,
recursively, as the set is built, and no conjunction's remainder is
hashed again.  What still re-hashes is the rest of the search: each Or
split hashes the disjunction it removes and the branch it adds, and each
modal step hashes every box body once and each diamond body it visits.
Only an interned tableau (ROADMAP direction 4) removes that, and it waits
on the benchmark's RSS fix (direction 2).  A search keeps the sort key of every
formula object it orders, and of every subformula formula_sort_key
recurses into, for that search only, and computes none where only one
formula is left to choose from.
A search that fails on the budget or the stack leaves the memo as it found
it, so the same query repeats its error; memo hits cost no nodes, so a
different query can still pass on a memo warmed by earlier ones.
satisfiable, entails and refutes run the same search, from a root in
negation normal form: satisfiable and entails convert their input, and
refutes takes a root its caller has already converted.  Only satisfiable
turns an open branch into a model; entails and refutes return the bare
verdict.  The memo is the only thing a Tableau keeps between searches, for
as long as it lives, and the only verdict cache: an EntailmentOracle over
it adds only the formulas it has converted, for as long as the oracle
lives.

A bounded enumeration of labeled tree models (duplicate-free up to
isomorphism) serves as an independent ground truth for the tableau on
small vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .cnf import nnf
from .errors import RecursionDepthExceeded, TableauBudgetExceeded
from .syntax import (
    BOT,
    EMPTY,
    TOP,
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    Not,
    Or,
    Var,
    formula_sort_key,
    variables,
)

DEFAULT_NODE_BUDGET = 100_000


@dataclass(frozen=True, slots=True)
class KripkeModel:
    """Finite pointed structure: worlds, accessibility relation, valuation."""

    worlds: frozenset
    relation: frozenset
    valuation: dict
    root: int

    def __post_init__(self):
        if self.root not in self.worlds:
            raise ValueError(f"root {self.root!r} is not a world")
        for u, v in self.relation:
            if u not in self.worlds or v not in self.worlds:
                raise ValueError(f"relation edge ({u!r}, {v!r}) leaves the world set")
        for var, image in self.valuation.items():
            if not set(image) <= self.worlds:
                raise ValueError(f"valuation of {var!r} leaves the world set")

    def successors(self, w) -> frozenset:
        return frozenset(v for (u, v) in self.relation if u == w)

    def to_json(self) -> dict:
        return {
            "worlds": sorted(self.worlds),
            "rel": sorted([u, v] for (u, v) in self.relation),
            "val": {p: sorted(ws) for p, ws in sorted(self.valuation.items())},
            "root": self.root,
        }


def model_check(m: KripkeModel, w, f: Formula) -> bool:
    """Truth of a formula at a world, by structural recursion.

    Raises RecursionDepthExceeded if f is nested deeper than the
    interpreter's stack allows.
    """
    if w not in m.worlds:
        raise ValueError(f"unknown world: {w!r}")
    try:
        if isinstance(f, Var):
            return w in m.valuation.get(f.name, ())
        if isinstance(f, Bottom):
            return False
        if isinstance(f, Not):
            return not model_check(m, w, f.body)
        if isinstance(f, And):
            return model_check(m, w, f.left) and model_check(m, w, f.right)
        if isinstance(f, Or):
            return model_check(m, w, f.left) or model_check(m, w, f.right)
        if isinstance(f, Diamond):
            return any(model_check(m, v, f.body) for v in m.successors(w))
        if isinstance(f, Box):
            return all(model_check(m, v, f.body) for v in m.successors(w))
    except RecursionError:
        # as in syntax.modal_depth: the innermost level that can raise this does
        raise RecursionDepthExceeded("formula nested too deep to check") from None
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True, slots=True)
class SatResult:
    satisfiable: bool
    model: KripkeModel | None = None
    world: int | None = None


@dataclass(frozen=True, slots=True)
class _Tree:
    """Open-branch witness: true variables at this world plus child worlds."""

    vals: frozenset
    children: tuple = ()


def _tree_to_model(tree: _Tree, vocab) -> KripkeModel:
    worlds, relation = [], []
    valuation = {p: [] for p in vocab}

    def walk(node: _Tree) -> int:
        wid = len(worlds)
        worlds.append(wid)
        for p in node.vals:
            valuation.setdefault(p, []).append(wid)
        for child in node.children:
            cid = walk(child)
            relation.append((wid, cid))
        return wid

    walk(tree)
    all_worlds = frozenset(worlds)
    images = {all_worlds: all_worlds, EMPTY: EMPTY}  # one set per distinct image
    for p, ws in valuation.items():
        image = frozenset(ws)
        valuation[p] = images.setdefault(image, image)
    return KripkeModel(
        worlds=all_worlds,
        relation=frozenset(relation) or EMPTY,
        valuation=valuation,
        root=0,
    )


def _sat_result(tree: _Tree | None, f: Formula) -> SatResult:
    if tree is None:
        return SatResult(False)
    model = _tree_to_model(tree, sorted(variables(f)))
    return SatResult(True, model, model.root)


def _closed(tree: _Tree | None) -> bool:
    """Every branch closed: the searched formula is unsatisfiable."""
    return tree is None


class Tableau:
    """Satisfiability procedure for K with a cross-query result cache.

    node_budget, the only tableau budget, caps the nodes of each search;
    the tableau counts the nodes of its current search itself, so it runs
    one search at a time.  A node splits every conjunction it holds in one
    step, so a conjunction costs no node of its own, however deep it
    nests: a search counts one node per formula set it expands.  The cache
    only stores finished verdicts for formula sets, one per node.  A search
    computes the sort key of each formula object it orders (the disjunctions
    it splits and the diamonds it visits), subformulas included, at most once.
    """

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET):
        if type(node_budget) is not int or node_budget <= 0:  # bool is no count
            raise ValueError("node_budget must be a positive integer")
        self.node_budget = node_budget
        self._nodes = 0  # nodes expanded by the current search
        self._sort_keys: dict = {}  # formula_sort_key by id, for the current search only
        self._memo: dict = {}

    def satisfiable(self, f: Formula) -> SatResult:
        """Decide satisfiability; a SAT verdict carries a verifying tree model.

        Raises TableauBudgetExceeded when the search expands more nodes than
        the budget, and RecursionDepthExceeded when f is nested deeper than
        the interpreter's stack allows; either way the memo is left as the
        search found it, also when building the model runs out of stack.
        """
        return self._search(nnf(f), lambda tree: _sat_result(tree, f))

    def entails(self, f: Formula, g: Formula) -> bool:
        """Local consequence: every pointed model of f satisfies g.

        The same search as satisfiable(And(f, Not(g))), with its errors,
        but it builds no model: only the verdict is returned.
        """
        return self.refutes(nnf(And(f, Not(g))))

    def refutes(self, root: Formula) -> bool:
        """True iff root, already in negation normal form, is unsatisfiable.

        The same search as satisfiable(root), with its errors, but with no
        conversion to negation normal form and no model.  A negation of
        anything but a variable or bot that the search meets raises
        TypeError.
        """
        return self._search(root, _closed)

    def _search(self, root: Formula, verdict):
        """verdict(tree) of one search from root, in negation normal form;
        tree is None when root is unsatisfiable.

        root keeps every formula the search orders, and so its id, alive.
        verdict runs inside the search, so a budget or depth error it raises
        rolls the memo back like one from the search itself.
        """
        memo_size = len(self._memo)
        self._nodes = 0
        try:
            return verdict(self._solve((root,)))
        except (TableauBudgetExceeded, RecursionDepthExceeded, RecursionError) as e:
            # dicts pop last-in first: this drops exactly the entries this call added
            while len(self._memo) > memo_size:
                self._memo.popitem()
            if isinstance(e, TableauBudgetExceeded):
                raise
            # too deep for the search itself or for hashing a formula in it
            raise RecursionDepthExceeded("formula nested too deep to decide") from None
        finally:
            self._sort_keys.clear()

    def _sort_key(self, f: Formula):
        return formula_sort_key(f, self._sort_keys)

    def _least(self, formulas: list) -> Formula:
        """The first of the formulas in formula_sort_key order; a lone one needs no key."""
        return formulas[0] if len(formulas) == 1 else min(formulas, key=self._sort_key)

    def _solve(self, formulas) -> _Tree | None:
        # a frozenset comes back as is, and a set's members keep their hashes
        formulas = frozenset(formulas)
        if TOP in formulas:
            formulas = formulas - {TOP}
        if BOT in formulas:
            return None
        cached = self._memo.get(formulas)
        if cached is not None or formulas in self._memo:
            return cached
        self._nodes += 1
        if self._nodes > self.node_budget:
            raise TableauBudgetExceeded(
                f"tableau search expanded {self._nodes} nodes, over the budget of {self.node_budget}",
                reached=self._nodes,
                limit=self.node_budget,
            )
        result = self._expand(formulas)
        self._memo[formulas] = result
        return result

    def _expand(self, formulas: frozenset) -> _Tree | None:
        ands = [f for f in formulas if isinstance(f, And)]
        if ands:
            # one node splits every conjunction, nested ones included; a
            # conjunct is hashed once as it joins the set, a remainder never
            split = {f for f in formulas if not isinstance(f, And)}
            while ands:
                f = ands.pop()
                if isinstance(f, And):
                    ands += f.left, f.right
                else:
                    split.add(f)
            return self._solve(split)

        ors = [f for f in formulas if isinstance(f, Or)]
        if ors:
            f = self._least(ors)
            rest = formulas - {f}
            for branch in (f.left, f.right):
                tree = self._solve(rest | {branch})
                if tree is not None:
                    return tree
            return None

        # propositionally saturated: literals plus modal formulas
        positive, negative = set(), set()
        diamonds, box_bodies = [], []
        for f in formulas:
            if isinstance(f, Var):
                positive.add(f.name)
            elif isinstance(f, Not) and isinstance(f.body, Var):
                negative.add(f.body.name)
            elif isinstance(f, Diamond):
                diamonds.append(f.body)
            elif isinstance(f, Box):
                box_bodies.append(f.body)
            else:
                raise TypeError(f"unexpected formula in saturated set: {f!r}")
        if positive & negative:
            return None

        children = []
        boxes = frozenset(box_bodies)
        for body in sorted(diamonds, key=self._sort_key):
            child = self._solve({body} | boxes)
            if child is None:
                return None
            children.append(child)
        return _Tree(frozenset(positive), tuple(children))


def diamond_subformulas(f: Formula) -> frozenset:
    """Distinct diamond subformulas of the negation normal form."""
    out = set()

    def walk(g: Formula):
        if isinstance(g, (Var, Bottom)):
            return
        if isinstance(g, Not):
            walk(g.body)
            return
        if isinstance(g, (And, Or)):
            walk(g.left)
            walk(g.right)
            return
        if isinstance(g, Diamond):
            out.add(g)
        walk(g.body)

    walk(nnf(f))
    return frozenset(out)


def _subsets(vocab: tuple) -> list:
    out = []
    for mask in range(1 << len(vocab)):
        out.append(frozenset(v for i, v in enumerate(vocab) if mask >> i & 1))
    return out


def enumerate_tree_models(vocab, depth: int, branching: int):
    """Yield every pointed tree model within the bounds, one per isomorphism class.

    Every world carries one of the 2^|vocab| valuations; each world has at
    most `branching` children, ordered as multisets so no two yielded trees
    are isomorphic as labeled trees.
    """
    vocab = tuple(sorted(set(vocab)))  # a repeated variable adds nothing
    for tree in _enumerate_trees(vocab, depth, branching):
        model = _tree_to_model(tree, vocab)
        yield model, model.root


def _enumerate_trees(vocab: tuple, depth: int, branching: int) -> list:
    roots = _subsets(vocab)
    if depth <= 0 or branching <= 0:
        return [_Tree(v) for v in roots]
    below = _enumerate_trees(vocab, depth - 1, branching)
    out = []
    for v in roots:
        for k in range(branching + 1):
            for combo in combinations_with_replacement(below, k):
                out.append(_Tree(v, combo))
    return out
