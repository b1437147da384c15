"""Kripke semantics for K: model checking, satisfiability, local consequence.

Satisfiability is decided by a labeled tableau: conjunctions expand,
disjunctions branch, and once a world is propositionally saturated each
diamond spawns a successor seeded with every box body.  K needs no frame
conditions, so a dead-end world satisfies every box.  Open tableaux yield
finite tree models of depth at most the modal depth of the query, which the
caller can re-check with model_check.

A Tableau owns its memo of finished verdicts and nothing else caches
them, so whoever creates one decides how long its verdicts are reused.
Memo hits cost no node budget, so a budget verdict depends on what that
Tableau decided before; a fresh Tableau asked the same queries in the same
order reaches the same verdicts.

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
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    Not,
    Or,
    TOP,
    Var,
    formula_sort_key,
    variables,
)

DEFAULT_NODE_BUDGET = 100_000


@dataclass(frozen=True)
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

    @classmethod
    def from_json(cls, obj: dict) -> "KripkeModel":
        return cls(
            worlds=frozenset(obj["worlds"]),
            relation=frozenset((u, v) for u, v in obj["rel"]),
            valuation={p: frozenset(ws) for p, ws in obj["val"].items()},
            root=obj["root"],
        )


def model_check(m: KripkeModel, w, f: Formula) -> bool:
    """Truth of a formula at a world, by structural recursion."""
    if w not in m.worlds:
        raise ValueError(f"unknown world: {w!r}")
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
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    model: KripkeModel | None = None
    world: int | None = None

    @classmethod
    def sat(cls, model: KripkeModel, world: int) -> "SatResult":
        return cls(True, model, world)

    @classmethod
    def unsat(cls) -> "SatResult":
        return cls(False)


@dataclass(frozen=True)
class _Tree:
    """Open-branch witness: true variables at this world plus child worlds."""

    vals: frozenset
    children: tuple = ()


def _tree_to_model(tree: _Tree, vocab) -> KripkeModel:
    worlds, relation = [], []
    valuation = {p: set() for p in vocab}

    def walk(node: _Tree) -> int:
        wid = len(worlds)
        worlds.append(wid)
        for p in node.vals:
            valuation.setdefault(p, set()).add(wid)
        for child in node.children:
            cid = walk(child)
            relation.append((wid, cid))
        return wid

    walk(tree)
    return KripkeModel(
        worlds=frozenset(worlds),
        relation=frozenset(relation),
        valuation={p: frozenset(ws) for p, ws in valuation.items()},
        root=0,
    )


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise TableauBudgetExceeded("tableau node budget exhausted")


def _strip_top(formulas) -> frozenset:
    return frozenset(f for f in formulas if f != TOP)


class Tableau:
    """Satisfiability procedure for K with a cross-query result cache.

    Queries are independent; the cache only stores finished verdicts for
    formula sets, so concurrent readers see consistent answers.
    """

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET):
        self.node_budget = node_budget
        self._memo: dict = {}

    def satisfiable(self, f: Formula, node_budget: int | None = None) -> SatResult:
        """Decide satisfiability; a SAT verdict carries a verifying tree model.

        Raises TableauBudgetExceeded when the search expands more nodes than
        the budget, and RecursionDepthExceeded when f is nested deeper than
        the interpreter's stack allows.
        """
        budget = _Budget(self.node_budget if node_budget is None else node_budget)
        try:
            tree = self._solve(_strip_top((nnf(f),)), budget)
            if tree is None:
                return SatResult.unsat()
            model = _tree_to_model(tree, sorted(variables(f)))
        except RecursionError:
            raise RecursionDepthExceeded("formula nested too deep to decide") from None
        return SatResult.sat(model, model.root)

    def entails(self, f: Formula, g: Formula, node_budget: int | None = None) -> bool:
        """Local consequence: every pointed model of f satisfies g."""
        return not self.satisfiable(And(f, Not(g)), node_budget).satisfiable

    def _solve(self, formulas: frozenset, budget: _Budget) -> _Tree | None:
        if Bottom() in formulas:
            return None
        cached = self._memo.get(formulas)
        if cached is not None or formulas in self._memo:
            return cached
        budget.spend()
        result = self._expand(formulas, budget)
        self._memo[formulas] = result
        return result

    def _expand(self, formulas: frozenset, budget: _Budget) -> _Tree | None:
        ands = [f for f in formulas if isinstance(f, And)]
        if ands:
            f = min(ands, key=formula_sort_key)
            rest = (formulas - {f}) | {f.left, f.right}
            return self._solve(_strip_top(rest), budget)

        ors = [f for f in formulas if isinstance(f, Or)]
        if ors:
            f = min(ors, key=formula_sort_key)
            rest = formulas - {f}
            for branch in (f.left, f.right):
                tree = self._solve(_strip_top(rest | {branch}), budget)
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
        for body in sorted(diamonds, key=formula_sort_key):
            child = self._solve(_strip_top({body} | boxes), budget)
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
    vocab = tuple(sorted(vocab))
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
