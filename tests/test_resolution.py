import pytest

from kprime import (
    BOTTOM_CLAUSE,
    Literal,
    RecursionDepthExceeded,
    clause_to_formula,
    closure_step_traced,
    gamma_resolvents,
    make_cnf,
    parse,
    sigma_resolvents,
    simplify,
)
from kprime.generators import random_clause, random_kb
from kprime.syntax import Clause, clause_key

from conftest import cl


def conclusions(steps):
    return {s.conclusion for s in steps}


def test_complementary_units_resolve_to_bottom():
    steps = sigma_resolvents(cl("p"), cl("~p"))
    assert conclusions(steps) == {BOTTOM_CLAUSE}
    assert steps[0].rule == "A1"


def test_or_rule_threads_remainders():
    steps = sigma_resolvents(cl("p | q"), cl("~p | r"))
    assert conclusions(steps) == {cl("q | r")}
    (step,) = steps
    assert step.rule == "sigma-or"
    assert step.sub[0].rule == "A1"


def test_box_diamond_resolution(tableau):
    steps = sigma_resolvents(cl("[]p"), cl("<>(~p | q)"))
    assert cl("<>((~p | q) & q)") in conclusions(steps)
    assert tableau.entails(parse("[]p & <>(~p | q)"), parse("<>((~p | q) & q)"))


def test_box_box_resolution_yields_boxed_bottom():
    steps = sigma_resolvents(cl("[]p"), cl("[]~p"))
    assert conclusions(steps) == {cl("[]bot")}


def test_bottom_premise_resolves_to_bottom():
    steps = sigma_resolvents(BOTTOM_CLAUSE, cl("p | []q"))
    assert conclusions(steps) == {BOTTOM_CLAUSE}
    assert steps[0].rule == "A1'"


@pytest.mark.parametrize(
    "premises, expected",
    [
        (("[]bot", "<>p"), {"bot"}),
        (("[]~p", "<>p"), {"bot", "<>(p & ~p)"}),
        (("<>(p & ~p)",), {"bot"}),
        (("[]bot",), {"[]bot"}),
        (("q | <>(p & ~p)",), {"q"}),
        (("[]<>(p & ~p)",), {"[]bot", "[]bot | <><>(p & ~p)"}),
    ],
)
def test_bottom_collapses_in_conclusions(premises, expected):
    # a clause set gaining bottom collapses, and the diamond over it vanishes
    resolvents = sigma_resolvents if len(premises) == 2 else gamma_resolvents
    steps = resolvents(*(cl(t) for t in premises))
    assert conclusions(steps) == {cl(t) for t in expected}


def test_box_body_absorbed_into_every_diamond():
    steps = sigma_resolvents(cl("[]q"), cl("<>p | <>~p"))
    assert cl("<>(p & q) | <>(~p & q)") in conclusions(steps)


def test_sigma_symmetry(rng):
    for _ in range(60):
        a = random_clause(rng, ("p", "q"), rng.randint(0, 2), 2)
        b = random_clause(rng, ("p", "q"), rng.randint(0, 2), 2)
        assert conclusions(sigma_resolvents(a, b)) == conclusions(sigma_resolvents(b, a))


def test_gamma_grows_diamond_with_internal_resolvent():
    steps = gamma_resolvents(cl("<>(p & (~p | []r))"))
    assert cl("<>(p & (~p | []r) & []r)") in conclusions(steps)
    (step,) = [s for s in steps if s.conclusion == cl("<>(p & (~p | []r) & []r)")]
    assert step.rule == "gamma-diamond1"
    assert step.sub[0].rule == "sigma-or"


def test_gamma_box_rule_wraps_inner_resolvent():
    inner = cl("<>(p & (~p | q))")
    steps = gamma_resolvents(Clause(boxes=frozenset([inner])))
    assert cl("[]<>(p & (~p | q) & q)") in conclusions(steps)
    assert any(s.rule == "gamma-box" for s in steps)


def test_gamma_on_bare_literal_is_empty():
    assert gamma_resolvents(cl("p")) == ()


def test_gamma_conclusions_are_sound(rng, tableau):
    for _ in range(40):
        a = random_clause(rng, ("p", "q"), rng.randint(1, 2), 2)
        for s in gamma_resolvents(a):
            assert tableau.entails(clause_to_formula(a), clause_to_formula(s.conclusion))


def test_closure_contains_input_and_example_resolvent():
    u = make_cnf([cl("<>(p & (~p | []r))"), cl("[]<>(~r | q)"), cl("[][](~p | r)")])
    closed, _ = closure_step_traced(u)
    assert u <= closed
    assert cl("<>(p & (~p | []r) & []r)") in closed


def test_closure_of_singleton_unit_is_identity():
    u = make_cnf([cl("p")])
    assert closure_step_traced(u)[0] == u


def test_closure_adds_bottom_for_complementary_units():
    u = make_cnf([cl("p"), cl("~p")])
    assert closure_step_traced(u)[0] == u | {BOTTOM_CLAUSE}


def test_closure_soundness_on_random_kbs(rng, oracle):
    for _ in range(25):
        kb = random_kb(rng, ("p", "q"), rng.randint(1, 3), rng.randint(0, 2), 2)
        for c in closure_step_traced(kb)[0]:
            assert oracle.is_implicate(kb, c)


def test_closure_conclusions_are_normal(rng):
    for _ in range(25):
        kb = random_kb(rng, ("p", "q"), rng.randint(1, 3), rng.randint(0, 2), 3)
        assert all(simplify(c) == c for c in closure_step_traced(kb)[0])


def _propositional_resolvents(a, b):
    out = set()
    for lit in a.literals:
        if lit.negate() in b.literals:
            out.add(Clause(literals=(a.literals - {lit}) | (b.literals - {lit.negate()})))
    return out


def test_agrees_with_classical_resolution_on_modal_free_clauses(rng):
    lits = [Literal(v, pol) for v in ("p", "q", "r") for pol in (True, False)]
    for _ in range(200):
        a = Clause(literals=frozenset(rng.sample(lits, rng.randint(1, 4))))
        b = Clause(literals=frozenset(rng.sample(lits, rng.randint(1, 4))))
        assert conclusions(sigma_resolvents(a, b)) == _propositional_resolvents(a, b)


def test_trace_json_shape():
    _, steps = closure_step_traced(make_cnf([cl("[]p"), cl("<>(~p | q)")]), trace=True)
    assert steps
    for s in steps:
        js = s.to_json()
        assert set(js) == {"rule", "premises", "conclusion", "sub"}
        assert len(js["premises"]) in (1, 2)


def test_one_witness_per_conclusion():
    steps = sigma_resolvents(cl("p | q"), cl("~p | ~q"))
    seen = [clause_key(s.conclusion) for s in steps]
    assert len(seen) == len(set(seen))
    assert conclusions(steps) == {cl("q | ~q"), cl("p | ~p")}


def test_depth_cap_raises():
    # the cap is DEFAULT_MAX_DEPTH, 64 nested boxes, and the error names it
    a, b = cl("[]" * 65 + "p"), cl("[]" * 65 + "~p")
    with pytest.raises(RecursionDepthExceeded, match="64"):
        sigma_resolvents(a, b)
    with pytest.raises(RecursionDepthExceeded, match="64"):
        gamma_resolvents(a)
    # premises are checked before any rule runs, even a pair with no resolvent
    with pytest.raises(RecursionDepthExceeded, match="64"):
        sigma_resolvents(a, cl("q"))
    a, b = cl("[]" * 64 + "p"), cl("[]" * 64 + "~p")
    assert conclusions(sigma_resolvents(a, b)) == {cl("[]" * 64 + "bot")}
    assert sigma_resolvents(a, cl("q")) == ()
    assert gamma_resolvents(a)


def test_clause_budget_on_closure():
    from kprime import ClauseBudgetExceeded

    u = make_cnf([cl("p | q"), cl("~p | q"), cl("p | ~q"), cl("~p | ~q")])
    for budget in (4, 5, 6):
        with pytest.raises(ClauseBudgetExceeded) as exc:
            closure_step_traced(u, clause_budget=budget)
        # the cap fires on the first conclusion past it, not at the end of the layer
        assert str(exc.value).startswith(f"closure grew to {budget + 1} clauses,")
        assert (exc.value.reached, exc.value.limit) == (budget + 1, budget)
