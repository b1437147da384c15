"""Value objects stay compact: slotted classes, shared parts, shared nodes.

A compile keeps many clauses and a parse many formula nodes, so what one
value costs sets what a long-running caller (the benchmark keeps every
result it makes) holds in memory.  Builders share equal sub-objects within
one call: a parse builds one node per distinct subformula, nnf keeps that
sharing, disjoin reuses a part only one argument contributes, a compile
holds one object per distinct clause, and a SAT model holds one set per
distinct valuation image.  No library cache grows
for the life of the process.
"""

import dataclasses
import gc
import random
import sys
import tracemalloc
from itertools import product

import pytest

from kprime import (
    BOTTOM_CLAUSE,
    And,
    BudgetExceeded,
    EntailmentOracle,
    PicConfig,
    Tableau,
    clause_from_json,
    clause_to_json,
    make_cnf,
    nnf,
    parse,
    prime_implicates,
    render,
    single_clause,
    to_cnf,
)
from kprime.brute import enumerate_clauses
# _grow is random_formula without its filter on diamond subformulas
from kprime.generators import _grow, random_clause, random_kb
from kprime.normalization import disjoin
from kprime.pic import PicResult, StageRecord
from kprime.resolution import ResolutionStep
from kprime.semantics import KripkeModel, SatResult, _Tree, model_check
from kprime.syntax import (
    EMPTY,
    KEY_CACHE_SIZE,
    Bottom,
    Box,
    Clause,
    Diamond,
    Literal,
    Not,
    Or,
    Var,
    clause_key,
    clause_length,
    clause_to_formula,
    cnf_key,
    sorted_clauses,
)

from conftest import cl

P = Var("p")

SLOTTED_VALUES = (
    P,
    Bottom(),
    Not(P),
    And(P, P),
    Or(P, P),
    Diamond(P),
    Box(P),
    Literal("p"),
    Clause(),
    KripkeModel(frozenset([0]), frozenset(), {}, 0),
    SatResult(False),
    _Tree(EMPTY),
    StageRecord(1, 1, 1, ()),
    PicResult(EMPTY, 0, (), True),
    ResolutionStep("A1", (), Clause()),
)


@pytest.mark.parametrize("value", SLOTTED_VALUES, ids=lambda v: type(v).__name__)
def test_values_are_slotted(value):
    assert not hasattr(value, "__dict__")


def test_config_defaults_stay_readable_on_the_class():
    # the CLI reads its option defaults from the class, so PicConfig has no slots
    assert (PicConfig.max_iterations, PicConfig.clause_budget) == (20, 5000)


# the benchmark's compile mix: (vocabulary size, clauses, depth, width), cap 30
COMPILE_SHAPES = tuple(product(range(1, 4), range(1, 5), range(0, 3), range(1, 5)))
COMPILE_CONFIG = PicConfig(max_iterations=8, clause_budget=30)


def _compile_mix_texts(rng, count):
    """KB files shaped like the benchmark's compile mix, one clause per line."""
    texts = []
    while len(texts) < count:
        shapes = list(COMPILE_SHAPES)
        rng.shuffle(shapes)
        for size, clauses, depth, width in shapes:
            kb = random_kb(rng, ("p", "q", "r")[:size], clauses=clauses, depth=depth, width=width)
            texts.append("\n".join(str(c) for c in sorted_clauses(kb)))
    return texts[:count]


def _prove_cnf_texts(rng, count):
    """Conjunctions of 8 random clauses, shaped like the benchmark's prove-cnf."""
    texts = []
    for _ in range(count):
        clauses = [random_clause(rng, ("p", "q", "r", "s"), 2, 3) for _ in range(8)]
        formula = clause_to_formula(clauses[-1])
        for c in reversed(clauses[:-1]):
            formula = And(clause_to_formula(c), formula)
        texts.append(render(formula))
    return texts


def _compile(text, trace=False):
    kb = make_cnf(single_clause(parse(line)) for line in text.splitlines())
    try:
        return kb, prime_implicates(kb, COMPILE_CONFIG, EntailmentOracle(Tableau()), trace=trace)
    except BudgetExceeded:
        return kb, None


def _unshared_empties(c: Clause):
    """Empty parts or empty diamond bodies, at any depth, that are not EMPTY."""
    for part in (c.literals, c.boxes, c.diamonds):
        if not part and part is not EMPTY:
            yield c
    for b in c.boxes:
        yield from _unshared_empties(b)
    for s in c.diamonds:
        if not s and s is not EMPTY:
            yield c
        for m in s:
            yield from _unshared_empties(m)


def test_clause_constructor_shares_the_empty_part():
    lit = Literal("p")
    leftover = frozenset({lit}) - {lit}
    assert not leftover and leftover is not EMPTY
    built = [
        Clause(),
        Clause(leftover, leftover, leftover),
        Clause(literals=leftover, boxes=leftover, diamonds=leftover),
        dataclasses.replace(Clause(frozenset({lit})), literals=leftover),
        clause_from_json({"lits": [], "boxes": [], "diamonds": []}),
    ]
    for c in built:
        assert c.literals is EMPTY and c.boxes is EMPTY and c.diamonds is EMPTY, repr(c)
    partial = Clause(boxes=frozenset({Clause(frozenset({lit}))}), diamonds=leftover)
    assert partial.literals is EMPTY and partial.diamonds is EMPTY


def _step_clauses(step):
    yield step.conclusion
    yield from step.premises
    for sub in step.sub:
        yield from _step_clauses(sub)


def test_every_empty_part_is_the_shared_empty():
    rng = random.Random(7)
    reached = []
    for text in _compile_mix_texts(rng, 60):
        kb, result = _compile(text, trace=True)
        reached += kb
        if result is None:
            continue
        reached += result.prime_implicates
        reached += (c for record in result.trace for pair in record.dropped for c in pair)
        reached += (c for step in result.steps for c in _step_clauses(step))
        reached += (clause_from_json(clause_to_json(c)) for c in result.prime_implicates)
    for _ in range(200):
        formula = _grow(rng, ("p", "q"), 2, rng.randint(1, 10))
        cnf = to_cnf(formula)
        assert cnf or cnf is EMPTY
        reached += cnf
    reached += enumerate_clauses(("p", "q"), 1, 2)
    assert len(reached) > 4_000
    assert [c for c in reached for _ in _unshared_empties(c)] == []


def _one_object_per_value(values) -> int:
    """Asserts that equal values are one object; returns how many repeats there were."""
    objects = {}
    for v in values:
        objects.setdefault(v, set()).add(id(v))
    assert [v for v, ids in objects.items() if len(ids) > 1] == []
    return len(values) - len(objects)


def test_a_compile_holds_one_object_per_distinct_clause():
    clauses = parts = 0
    for text in _compile_mix_texts(random.Random(17), 150):
        for trace in (False, True):
            kb, result = _compile(text, trace=trace)
            if result is None:
                continue
            reached = [*kb, *result.prime_implicates]
            reached += (c for record in result.trace for pair in record.dropped for c in pair)
            clauses += _one_object_per_value(reached)
            # the parts of the clauses the compile built, as against parsed
            built = {id(c): c for c in reached if c not in kb}.values()
            parts += _one_object_per_value(
                [p for c in built for p in (c.literals, c.boxes, c.diamonds) if p])
    assert clauses > 1_000 and parts > 500


def _nodes(f):
    """Every node of a formula tree, once per occurrence."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += [getattr(g, name) for name in ("body", "left", "right") if hasattr(g, name)]


def test_parse_shares_equal_subformulas():
    f = parse("(p & q) | (p & q)")
    assert f.left is f.right
    # a <-> b expands to (~a | b) & (~b | a): each side appears twice, built once
    g = parse("a <-> b")
    assert g.left.left.body is g.right.right
    assert g.left.right is g.right.left.body


def test_parses_share_nothing():
    assert parse("p & q").left is not parse("p & q").left


def test_parse_builds_one_node_per_distinct_subformula():
    rng = random.Random(11)
    for _ in range(500):
        f = _grow(rng, ("p", "q", "r"), rng.randint(0, 3), rng.randint(1, 16))
        g = parse(render(f))
        assert g == f
        nodes = list(_nodes(g))
        assert len({id(n) for n in nodes}) == len(set(nodes)), render(f)


def test_nnf_keeps_the_sharing_of_its_input():
    # ~p | q occurs under ~ once, and so at both polarities: one node each
    g = nnf(parse("~((p -> q) & []~(p -> q)) | ((p -> q) & []~(p -> q))"))
    assert g.right.left is g.left.right.body
    assert g.right.right.body is g.left.left
    # each <-> doubles its sides; a shared input keeps the result linear in
    # the chain (a tree copy would double with every link)
    text = "a"
    for v in "bcdefg":
        text = f"({text} <-> {v})"
    f = parse(text)
    distinct = len({id(n) for n in _nodes(f)})
    assert len({id(n) for n in _nodes(nnf(f))}) <= 2 * distinct


def test_disjoin_reuses_a_part_one_argument_contributes():
    a = cl("p | ~q | []r")
    assert disjoin(a, BOTTOM_CLAUSE).literals is a.literals
    assert disjoin(BOTTOM_CLAUSE, a).boxes is a.boxes
    b = cl("r | <>q")
    both = disjoin(a, b)
    assert both.boxes is a.boxes and both.diamonds is b.diamonds
    assert both.literals == a.literals | b.literals


def test_disjoin_is_the_union_of_the_parts():
    rng = random.Random(12)
    for _ in range(500):
        clauses = [random_clause(rng, ("p", "q"), 2, 3) for _ in range(rng.randint(0, 4))]
        expected = Clause(
            EMPTY.union(*(c.literals for c in clauses)),
            EMPTY.union(*(c.boxes for c in clauses)),
            EMPTY.union(*(c.diamonds for c in clauses)),
        )
        got = disjoin(*clauses)
        assert got == expected
        assert list(_unshared_empties(got)) == []


def test_sat_models_share_equal_valuation_images():
    images = empties = 0
    for text in _prove_cnf_texts(random.Random(13), 200):
        formula = parse(text)
        verdict = Tableau().satisfiable(formula)
        if not verdict.satisfiable:
            continue
        model = verdict.model
        assert model_check(model, verdict.world, formula)
        kept = [model.worlds, *model.valuation.values()]
        assert len({id(image) for image in kept}) == len(set(kept))
        for image in model.valuation.values():
            images += 1
            if not image:
                empties += 1
                assert image is EMPTY
        assert model.relation or model.relation is EMPTY
    assert images > 500 and empties > 50


def _clear_clause_caches():
    clause_key.cache_clear()
    cnf_key.cache_clear()
    clause_length.cache_clear()


def _retained_bytes_per_item(work, inputs):
    """Bytes the results of work still hold once the key and length caches are emptied."""
    _clear_clause_caches()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [work(x) for x in inputs]
        _clear_clause_caches()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == len(inputs)
    return retained / len(inputs)


# Measured with CPython 3.11 at seed 101 over 300 items each: a compile-mix
# item (the parsed KB and its PicResult) retains 4.5 KB, 5.6 KB before a
# compile shared its equal clauses and clause parts, and a parsed
# prove-cnf formula 2.8 KB.  Before disjoin reused parts and the parser
# shared equal subformulas they retained 6.2 KB and 5.2 KB; with
# dict-backed dataclasses and one empty frozenset per empty part, 10.6 KB
# and 9.8 KB.  The bounds are about 1.25 times the measured values.
COMPILE_RETAINED_BOUND = 7_000
PARSE_RETAINED_BOUND = 3_500


def test_retained_memory_per_item():
    compiled = _retained_bytes_per_item(_compile, _compile_mix_texts(random.Random(101), 300))
    parsed = _retained_bytes_per_item(parse, _prove_cnf_texts(random.Random(101), 300))
    assert compiled < COMPILE_RETAINED_BOUND, f"compile-mix item retains {compiled:.0f} B"
    assert parsed < PARSE_RETAINED_BOUND, f"parsed prove-cnf formula retains {parsed:.0f} B"


def _library_caches():
    for name, module in sorted(sys.modules.items()):
        if name == "kprime" or name.startswith("kprime."):
            for attr, obj in sorted(vars(module).items()):
                if callable(getattr(obj, "cache_info", None)):
                    yield f"{name}.{attr}", obj


def test_every_library_cache_is_bounded():
    caches = dict(_library_caches())
    assert "kprime.syntax.clause_key" in caches
    assert {name for name, cache in caches.items() if cache.cache_info().maxsize is None} == set()


def test_key_caches_stay_within_their_bound():
    _clear_clause_caches()
    for text in _compile_mix_texts(random.Random(101), 3456):
        _compile(text)
    # the compiles key and measure far more clauses than the caches keep
    for cache in (clause_key, clause_length):
        assert cache.cache_info().misses > KEY_CACHE_SIZE
        assert cache.cache_info().currsize <= KEY_CACHE_SIZE
    assert cnf_key.cache_info().currsize <= KEY_CACHE_SIZE


def test_rendering_leaves_a_bounded_working_set():
    _clear_clause_caches()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _prove_cnf_texts(random.Random(101), 2000)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # what stays is the two key caches at their bound, with the clauses they
    # key: 2.4 MB, measured with CPython 3.11; unbounded, they kept 20.7 MB
    assert left < 3_000_000, f"{left} B left after rendering 2,000 formulas"
