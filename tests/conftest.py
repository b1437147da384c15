import random

import pytest

from kprime import EntailmentOracle, Tableau, parse, single_clause


@pytest.fixture
def rng():
    return random.Random(99)


@pytest.fixture
def oracle():
    """A fresh entailment oracle, over a fresh tableau, for one test."""
    return EntailmentOracle()


@pytest.fixture
def tableau():
    """A fresh tableau for one test."""
    return Tableau()


def cl(text):
    """Clause from grammar text."""
    return single_clause(parse(text))


def f(text):
    return parse(text)
