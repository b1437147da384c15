"""Acceptance gate: every criterion at its stated scale, with zero tolerance.

Criterion n is row n of the suite table, run through the same runner, at
full size and under the default seed, as `kprime selftest` runs it.  Each
test prints one pass/fail line (run with -s to see them live).
"""

import pytest

from kprime.selftest import SUITES, run_suite


@pytest.mark.parametrize(
    "suite", SUITES, ids=[f"{n}-{suite.name}" for n, suite in enumerate(SUITES, 1)]
)
def test_criterion(suite):
    result = run_suite(suite)
    print()
    print(result.line())
    assert result.passed, "\n".join(result.failures)
