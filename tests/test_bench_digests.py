"""The benchmark's seed-7 outputs stay fixed.

Each workload runs a fixed number of items in a fresh process; the run must
be correct with no failed item, and the digest of its outcomes must match.
A change that means to alter an output updates this table and says why.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = {
    "compile-mix": (800, "7903d651d6b8496eb4c94208141656d349196211d4c2a79e81e686f5c55120d7"),
    "query-space": (3000, "943950e6d55a846d036a81c6fd2ce53f58b6958b7b9d910e25ac72cca0dc975e"),
    "prove-cnf": (800, "6dd70ced1eafc1fc36a9ec1af4ca30de48544719efb2db710cbb3fdc0e3664cf"),
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_seven_digest(workload):
    items, expected = DIGESTS[workload]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--items", str(items)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = next(json.loads(l[len("summary "):]) for l in lines if l.startswith("summary "))
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (items, 0)
    assert summary["digest"] == expected
