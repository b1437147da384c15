"""Self-tests of the benchmark: determinism, tracing transparency, metric names.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ITEMS = 12

sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    script = os.path.join(cwd, "bench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = next(json.loads(l[len("summary "):]) for l in lines if l.startswith("summary "))
    return summary, json.loads(lines[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """One untraced and one traced run of the same items of one workload."""
    common = ["--workload", request.param, "--seed", "3", "--items", str(ITEMS)]
    return parsed(bench(*common, "--trace", "0")), parsed(bench(*common, "--trace", "1"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, monkeypatch):
    for pool, size in (("COMPILE_BLOCKS", 1), ("QUERY_POOL", 8), ("PROVE_POOL", 20)):
        monkeypatch.setattr(workloads, pool, size)
    setup = workloads.WORKLOADS[name].setup
    first, again, other = setup(random.Random(5)), setup(random.Random(5)), setup(random.Random(6))
    assert first == again
    assert first != other


def test_untraced_run_is_correct_and_counts_items(runs):
    (summary, result), _ = runs
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == summary["items"] == ITEMS


def test_traced_run_repeats_the_untraced_digest(runs):
    (untraced, _), (traced, result) = runs
    # the traced run also replays its items untraced in a fresh process and
    # marks itself incorrect if that replay's digest differs
    assert result["correct"]
    assert traced["digest"] == untraced["digest"]


def test_metric_names_and_units_match_benchmark_json(runs, spec):
    (_, untraced), (_, traced) = runs
    for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json(spec):
    import run

    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "prove-cnf", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
