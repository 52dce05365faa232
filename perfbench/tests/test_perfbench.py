"""Smoke tests of the benchmark: tiny inputs, one second per run.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from navsteer import WeightedDigraph, stationary, transition_matrix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_declared_metrics(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "# failed_frac      0 " in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "site-io", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("strategy,l_b,biased,inserted", [
    ("bias", 10.0, 10.0, 0),
    ("insert", 10.5, 0.0, 11),
    ("combined", 10.0, 6.0, 4),
    ("combined", 10.4, 10.0, 0),
])
def test_budget_identities_accept(strategy, l_b, biased, inserted):
    assert checks.budget_problems(strategy, l_b, biased, inserted,
                                  0.2, 0.3, 0.3 / 0.2) == []


@pytest.mark.parametrize("strategy,l_b,biased,inserted,tau", [
    ("bias", 10.0, 9.0, 0, 1.5),
    ("bias", 10.0, 10.0, 1, 1.5),
    ("insert", 10.5, 0.0, 10, 1.5),
    ("combined", 10.0, 6.0, 5, 1.5),
    ("bias", 10.0, 10.0, 0, 1.6),
])
def test_budget_identities_reject(strategy, l_b, biased, inserted, tau):
    assert checks.budget_problems(strategy, l_b, biased, inserted, 0.2, 0.3, tau)


def test_residual_check_separates_stationary_from_perturbed():
    g = WeightedDigraph.from_edges(4, (0, 1, 1, 2, 2, 3), (3, 0, 2, 1, 3, 1))
    pi = stationary(transition_matrix(g)).pi
    assert checks.stationary_residual(g, pi) <= checks.RESIDUAL_LIMIT
    off = pi + np.array([1e-6, -1e-6, 0.0, 0.0])
    assert checks.stationary_residual(g, off) > checks.RESIDUAL_LIMIT
