from kprime import (
    BOTTOM_CLAUSE,
    PicConfig,
    enumerate_clauses,
    make_cnf,
    prime_implicates,
    prime_implicates_brute,
    within_bounds,
)
from kprime.generators import random_kb
from kprime.syntax import clause_key

from conftest import cl


def test_enumeration_one_variable_width_one():
    got = set(enumerate_clauses(("p",), 0, 1))
    assert got == {BOTTOM_CLAUSE, cl("p"), cl("~p")}


def test_enumeration_width_two_adds_tautology():
    got = set(enumerate_clauses(("p",), 0, 2))
    assert got == {BOTTOM_CLAUSE, cl("p"), cl("~p"), cl("p | ~p")}


def test_enumeration_no_variables_depth_one():
    got = set(enumerate_clauses((), 1, 1))
    assert got == {BOTTOM_CLAUSE, cl("[]bot")}


def test_enumeration_count_matches_hand_combinatorics():
    # depth 0 over {p,q}: subsets of the four literals up to size two
    assert len(list(enumerate_clauses(("p", "q"), 0, 2))) == 1 + 4 + 6
    # depth 1: components are 4 literals, 11 boxes, and C(10,1)+C(10,2) diamonds
    pool = 4 + 11 + (10 + 45)
    expected = 1 + pool + pool * (pool - 1) // 2
    assert len(list(enumerate_clauses(("p", "q"), 1, 2))) == expected


def test_enumeration_is_duplicate_free():
    keys = [clause_key(c) for c in enumerate_clauses(("p", "q"), 1, 2)]
    assert len(keys) == len(set(keys))


def test_enumerated_clauses_stay_in_bounds():
    for c in enumerate_clauses(("p", "q"), 1, 2):
        assert within_bounds(c, ("p", "q"), 1, 2)
    assert not within_bounds(cl("p | q | r"), ("p", "q", "r"), 0, 2)
    assert not within_bounds(cl("[]p"), ("p",), 0, 2)


def test_brute_prime_implicates_propositional():
    u = make_cnf([cl("p"), cl("~p | q")])
    assert prime_implicates_brute(u, ("p", "q"), 0, 2) == {cl("p"), cl("q")}


def test_brute_prime_implicates_unit():
    assert prime_implicates_brute(make_cnf([cl("p")]), ("p",), 0, 2) == {cl("p")}


def test_brute_prime_implicates_contradiction():
    u = make_cnf([cl("p"), cl("~p")])
    assert prime_implicates_brute(u, ("p",), 0, 2) == {BOTTOM_CLAUSE}


def test_pic_agrees_with_brute_on_random_kbs(rng, oracle):
    for _ in range(6):
        kb = random_kb(rng, ("p", "q"), rng.randint(1, 2), 1, 2)
        result = prime_implicates(kb, PicConfig(max_iterations=15, clause_budget=600))
        assert result.converged
        brute = prime_implicates_brute(kb, ("p", "q"), 1, 2)
        for b in brute:
            assert any(oracle.clause_entails(d, b) for d in result.prime_implicates)
        for d in result.prime_implicates:
            if within_bounds(d, ("p", "q"), 1, 2):
                assert any(oracle.clause_entails(b, d) for b in brute)
