from itertools import permutations

import pytest

from kprime import (
    BOTTOM_CLAUSE,
    BudgetExceeded,
    ClauseBudgetExceeded,
    EntailmentOracle,
    PicConfig,
    PicResult,
    Tableau,
    closure_step_traced,
    covering_implicate,
    make_clause,
    make_cnf,
    prime_implicates,
    residue_detailed,
)
from kprime.brute import prime_implicates_brute
from kprime.generators import random_clause, random_kb
from kprime.pic import subsumes, subsumption_reduce
from kprime.selftest import example_expected, example_kb
from kprime.syntax import clause_key, clause_length, cnf_key, sorted_clauses

from conftest import cl


def residue(clauses):
    return frozenset(residue_detailed(clauses)[0])


def test_clause_entails_examples(oracle):
    assert oracle.clause_entails(cl("p"), cl("p | q"))
    assert not oracle.clause_entails(cl("[]p"), cl("<>p"))
    assert oracle.clause_entails(BOTTOM_CLAUSE, cl("q"))


def test_residue_examples():
    assert residue([cl("p"), cl("p | q")]) == {cl("p")}
    assert residue([cl("p")]) == {cl("p")}
    assert residue([cl("p"), cl("q")]) == {cl("p"), cl("q")}


def test_residue_keeps_stronger_longer_clause():
    # the longer clause strictly entails the shorter one
    assert residue([cl("<>p"), cl("<>(p & q)")]) == {cl("<>(p & q)")}


def test_residue_equivalence_class_keeps_smallest(oracle):
    a = cl("<>(p & (~p | q))")
    b = cl("<>(p & (~p | q) & q)")  # equivalent: p forces q via ~p | q
    assert oracle.clause_entails(a, b) and oracle.clause_entails(b, a)
    assert residue([a, b]) == {a}


def test_residue_bottom_covers_everything():
    assert residue([cl("p"), BOTTOM_CLAUSE, cl("[]q")]) == {BOTTOM_CLAUSE}


def test_residue_witnesses_entail_their_clauses(oracle):
    kept, dropped = residue_detailed([cl("p"), cl("p | q"), cl("p | r")])
    assert kept == (cl("p"),)
    assert all(oracle.clause_entails(w, c) for c, w in dropped)


def test_subsumes_basics():
    assert subsumes(cl("p"), cl("p | q"))
    assert not subsumes(cl("p | q"), cl("p"))
    assert subsumes(cl("[]p"), cl("[](p | q) | r"))
    assert subsumes(cl("<>(p & q)"), cl("<>p"))
    assert not subsumes(cl("<>p"), cl("<>(p & q)"))
    assert subsumes(BOTTOM_CLAUSE, cl("p"))


def _weaker(rng, c, vocab):
    """A clause c subsumes: one disjunct added at the top, in a box body or in a diamond member."""
    spot = rng.choice(["top"] + ["box"] * bool(c.boxes) + ["dia"] * bool(c.diamonds))
    if spot == "box":
        b = rng.choice(sorted_clauses(c.boxes))
        return make_clause(c.literals, (c.boxes - {b}) | {_weaker(rng, b, vocab)}, c.diamonds)
    if spot == "dia":
        s = rng.choice(sorted(c.diamonds, key=cnf_key))
        m = rng.choice(sorted_clauses(s))
        weaker_s = (s - {m}) | {_weaker(rng, m, vocab)}
        return make_clause(c.literals, c.boxes, (c.diamonds - {s}) | {weaker_s})
    e = random_clause(rng, vocab, 1, 1)
    return make_clause(c.literals | e.literals, c.boxes | e.boxes, c.diamonds | e.diamonds)


def _clause_family(rng, size):
    """Random clauses (depth <= 2) mixed with weakenings of them, so subsumption is common."""
    vocab = ("p", "q", "r")[: rng.randint(1, 3)]
    out = []
    while len(out) < size:
        if not out or rng.random() < 0.3:
            out.append(random_clause(rng, vocab, rng.randint(0, 2), rng.randint(1, 3)))
        else:
            out.append(_weaker(rng, rng.choice(out), vocab))
    return out


def test_subsumes_is_transitive(rng):
    # the antichain's single front pass relies on this
    chains = 0
    for _ in range(400):
        for x, y, z in permutations(dict.fromkeys(_clause_family(rng, 5)), 3):
            if subsumes(x, y) and subsumes(y, z):
                chains += 1
                assert subsumes(x, z)
    assert chains > 300


def _all_pairs_reduce(clauses):
    """Reference: keep c unless some d subsumes it and is earlier or strictly stronger."""
    items = sorted(set(clauses), key=lambda c: (clause_length(c), clause_key(c)))
    return [
        c
        for i, c in enumerate(items)
        if not any(
            j != i and subsumes(d, c) and (j < i or not subsumes(c, d))
            for j, d in enumerate(items)
        )
    ]


def test_subsumption_reduce_keeps_maximal(rng):
    kept, dropped = subsumption_reduce([cl("p"), cl("p | q"), cl("<>(p & q)"), cl("<>p")])
    assert set(kept) == {cl("p"), cl("<>(p & q)")}
    assert {c for c, _ in dropped} == {cl("p | q"), cl("<>p")}
    for _ in range(300):
        clauses = _clause_family(rng, rng.randint(1, 12))
        kept, dropped = subsumption_reduce(clauses)
        assert list(kept) == _all_pairs_reduce(clauses)
        assert {c for c, _ in dropped} == set(clauses) - set(kept)
        assert all(w in kept and subsumes(w, c) for c, w in dropped)


def test_prime_implicates_of_empty_kb():
    result = prime_implicates(frozenset())
    assert result.prime_implicates == frozenset()
    assert result.converged and result.iterations == 0


def test_prime_implicates_propositional():
    u = make_cnf([cl("p"), cl("~p | q")])
    result = prime_implicates(u)
    assert result.converged
    assert result.prime_implicates == {cl("p"), cl("q")}
    assert result.prime_implicates == prime_implicates_brute(u, ("p", "q"), 0, 2)


def test_prime_implicates_of_contradictory_kb():
    result = prime_implicates(make_cnf([cl("p"), cl("~p")]))
    assert result.prime_implicates == {BOTTOM_CLAUSE}


def test_worked_example_covers_published_set(oracle):
    result = prime_implicates(example_kb(), PicConfig(max_iterations=10))
    assert result.converged
    assert result.iterations <= 10
    got = result.prime_implicates
    assert len(got) == 3
    for c in example_expected():
        assert any(oracle.clause_entails(d, c) for d in got)
    for d in got:
        assert oracle.is_implicate(example_kb(), d)


def test_answer_query_examples():
    assert covering_implicate([cl("p")], cl("p | q")) is not None
    assert covering_implicate([cl("p")], cl("q")) is None
    pi = prime_implicates(example_kb()).prime_implicates
    assert covering_implicate(pi, cl("[][](~p | r)")) is not None


def test_covering_implicate_returns_the_cover():
    assert covering_implicate([cl("p")], cl("p | q")) == cl("p")
    assert covering_implicate([cl("p")], cl("q")) is None


def test_is_implicate_examples(oracle):
    assert oracle.is_implicate(make_cnf([cl("p"), cl("q")]), cl("p"))
    assert not oracle.is_implicate(make_cnf([cl("p")]), cl("q"))
    assert oracle.is_implicate(example_kb(), cl("<>(p & (~p | []r) & []r)"))


def test_fixpoint_stability():
    pi = prime_implicates(example_kb()).prime_implicates
    assert residue(closure_step_traced(pi)[0]) == pi


def test_fixpoint_stability_random(rng):
    for _ in range(8):
        kb = random_kb(rng, ("p", "q"), rng.randint(1, 3), 1, 2)
        result = prime_implicates(kb, PicConfig(max_iterations=15, clause_budget=600))
        if not result.converged:
            continue
        pi = result.prime_implicates
        assert residue(closure_step_traced(pi)[0]) == pi


def test_every_input_clause_is_covered(rng, oracle):
    for _ in range(10):
        kb = random_kb(rng, ("p", "q"), rng.randint(1, 3), 1, 2)
        result = prime_implicates(kb, PicConfig(max_iterations=15, clause_budget=600))
        if not result.converged:
            continue
        for c in kb:
            assert any(oracle.clause_entails(d, c) for d in result.prime_implicates)


def test_iteration_cap_reports_unconverged():
    u = make_cnf([cl("p"), cl("~p | q")])
    result = prime_implicates(u, PicConfig(max_iterations=1))
    assert not result.converged
    assert result.iterations == 1


def test_clause_budget_reports_stage():
    u = make_cnf([cl("p | q"), cl("~p | q")])
    with pytest.raises(ClauseBudgetExceeded) as exc:
        prime_implicates(u, PicConfig(clause_budget=1))
    assert exc.value.stage == 1


def _compile_outcome(kb, config, trace=False, oracle=None):
    try:
        return prime_implicates(kb, config, oracle, trace=trace)
    except BudgetExceeded as e:
        return type(e), e.stage


def _closure_outcome(kb, budget, trace):
    try:
        closure, steps = closure_step_traced(kb, clause_budget=budget, trace=trace)
    except ClauseBudgetExceeded as e:
        return str(e)
    fresh = {s.conclusion for s in steps}
    assert len(fresh) == len(steps) and fresh == closure - kb
    return closure, fresh


def test_untraced_compile_matches_traced(rng):
    # shapes and cap of the benchmark's compile mix
    config = PicConfig(max_iterations=8, clause_budget=30)
    capped = 0
    for _ in range(60):
        vocab = ("p", "q", "r")[: rng.randint(1, 3)]
        kb = random_kb(
            rng, vocab, clauses=rng.randint(1, 4), depth=rng.randint(0, 2), width=rng.randint(1, 4)
        )
        budget = config.clause_budget
        assert _closure_outcome(kb, budget, trace=False) == _closure_outcome(kb, budget, trace=True)
        traced = _compile_outcome(kb, config, trace=True)
        plain = _compile_outcome(kb, config, trace=False)
        if isinstance(traced, PicResult):
            assert (plain, plain.steps) == (traced, ())
        else:
            capped += 1
            assert plain == traced
    assert capped  # the mix reaches the cap


# needs more tableau nodes than 30 when its verdict caches are cold
BUDGET_KB = (
    "~p | [](~p | <>((p | ~p) & (~q & (r | ~r))))",
    "~q | []~p | [](r | [](p | r))",
    "r",
    "~q",
)


@pytest.mark.parametrize("nodes", [20, 30])
def test_budget_verdict_does_not_depend_on_earlier_calls(nodes):
    kb = make_cnf(cl(t) for t in BUDGET_KB)
    config = PicConfig(tableau_node_budget=nodes)
    outcomes = [_compile_outcome(kb, config) for _ in range(3)]
    cold = _compile_outcome(kb, config, oracle=EntailmentOracle(Tableau()))
    assert outcomes == [cold] * 3


def test_config_validation():
    with pytest.raises(ValueError):
        PicConfig(max_iterations=0)
    with pytest.raises(ValueError):
        PicConfig(clause_budget=-5)


def test_result_json_schema():
    result = prime_implicates(make_cnf([cl("p"), cl("~p | q")]), trace=True)
    steps = result.steps
    js = result.to_json()
    assert set(js) == {"prime_implicates", "iterations", "converged", "trace"}
    assert js["converged"] is True
    assert all(set(r) == {"stage", "closure_size", "kept_size", "dropped"} for r in js["trace"])
    assert steps  # at least the A1 resolution appears in the derivations


def test_trace_records_drops_with_subsumers(oracle):
    result = prime_implicates(make_cnf([cl("p"), cl("~p | q"), cl("p | q")]))
    dropped = [pair for record in result.trace for pair in record.dropped]
    assert dropped
    for c, w in dropped:
        assert oracle.clause_entails(w, c)
