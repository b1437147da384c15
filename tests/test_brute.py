from itertools import combinations

import pytest

from kprime import (
    BOTTOM_CLAUSE,
    ClauseBudgetExceeded,
    PicConfig,
    enumerate_clauses,
    enumerate_tree_models,
    make_cnf,
    prime_implicates,
    prime_implicates_brute,
    within_bounds,
)
from kprime.brute import MAX_CLAUSE_SPACE, _clause_space, _space_size
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


@pytest.mark.parametrize(
    "vocab, depth, width",
    [(("p",), 0, 1), (("p",), 1, 1), (("p", "q"), 0, 3), (("p", "q"), 1, 0),
     (("p", "q"), 1, 1), (("p", "q"), 1, 2), (("p", "q"), 2, 1), ((), 2, 2)],
)
def test_space_size_counts_the_enumerated_clauses(vocab, depth, width):
    assert _space_size(len(vocab), depth, width) == len(_clause_space(vocab, depth, width))


def test_space_size_at_the_documented_bounds():
    assert (_space_size(2, 1, 2), _space_size(3, 1, 2)) == (2_486, 33_671)
    # p, q at depth 2: 3,091,345 components (about 4.8e12 clauses); the count
    # stops just past the cap, so it reports the clauses of at most one component
    assert _space_size(2, 2, 2) == 1 + 3_091_345
    # bounds far past the cap count in a few small steps
    assert _space_size(1, 10**6, 10**6) > MAX_CLAUSE_SPACE
    assert _space_size(1_000, 10**6, 10**6) > MAX_CLAUSE_SPACE
    assert _space_size(1_000, 10**6, 0) == 1


def test_clause_space_over_the_cap_raises_before_building():
    assert MAX_CLAUSE_SPACE == 100_000
    with pytest.raises(ClauseBudgetExceeded) as info:
        enumerate_clauses(("p", "q"), 2, 2)
    assert info.value.limit == MAX_CLAUSE_SPACE
    assert info.value.reached > MAX_CLAUSE_SPACE
    assert str(MAX_CLAUSE_SPACE) in str(info.value)
    with pytest.raises(ClauseBudgetExceeded):
        prime_implicates_brute(make_cnf([cl("p")]), ("p", "q"), 2, 2)


@pytest.mark.parametrize("depth, width", [(-1, 2), (1, -1)])
def test_negative_bounds_raise_value_error(depth, width):
    with pytest.raises(ValueError, match="must not be negative"):
        enumerate_clauses(("p",), depth, width)
    with pytest.raises(ValueError, match="must not be negative"):
        within_bounds(cl("p"), ("p",), depth, width)
    with pytest.raises(ValueError, match="must not be negative"):
        prime_implicates_brute(make_cnf([cl("p")]), ("p",), depth, width)


def test_width_zero_space_is_the_empty_clause_at_any_depth():
    # no recursion down the depth: 900 levels would pass the stack
    for depth in (0, 1, 900):
        assert list(enumerate_clauses(("p",), depth, 0)) == [BOTTOM_CLAUSE]


def test_clause_space_never_asks_for_more_components_than_its_pool(monkeypatch):
    # combinations(xs, r) with r past len(xs) yields nothing but allocates r
    # indices, so a huge width would cost time quadratic in the width
    calls = []

    def bounded(pool, r):
        pool = list(pool)
        assert r <= len(pool)
        calls.append(r)
        return combinations(pool, r)

    monkeypatch.setattr("kprime.brute.combinations", bounded)
    # p at depth 1 has 13 components, so every width from 13 up is the same space
    assert len(list(enumerate_clauses(("p",), 1, 10**6))) == 2**13
    assert calls
    assert list(enumerate_clauses(("p",), 1, 10**6)) == list(enumerate_clauses(("p",), 1, 13))


@pytest.mark.parametrize(
    "enumerate_, repeated, once, bounds",
    [(enumerate_clauses, ("q", "p", "q", "p"), ("p", "q"), (1, 2)),
     # six names over three variables: the 33,671-clause space, not one over the cap
     (enumerate_clauses, ("p", "q", "r") * 2, ("p", "q", "r"), (1, 2)),
     (enumerate_tree_models, ("q", "p", "q", "p"), ("p", "q"), (1, 1))],
)
def test_a_repeated_variable_enumerates_once(enumerate_, repeated, once, bounds):
    assert list(enumerate_(repeated, *bounds)) == list(enumerate_(once, *bounds))


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
