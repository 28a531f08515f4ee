"""Smoke test of the benchmark itself: a few instances of each workload.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every workload agrees with its oracle, that the metric names
and units printed match BENCHMARK.json, that the closed-form MSO verdicts
used above the naive-evaluation limit agree with naive evaluation where
both run, and that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_agrees_with_oracle(workload, trace):
    out = run_bench(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--limit", "4",
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 4
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_cycle_verdicts_match_naive(m):
    import random

    rng = random.Random(m)
    ground = rng.sample(range(1, 1000), m)
    for name in workloads.FORMULAS:
        sets = [None]
        if "X1" in workloads.FORMULAS[name]:
            sets = [sorted(rng.sample(ground, k)) for k in range(m + 1)]
        for x1 in sets:
            assert workloads.cycle_verdict(name, ground, x1) == workloads._naive_verdict(
                name, ground, x1
            ), (name, m, x1)


def test_oracle_counts_on_known_matroids():
    u24 = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (1, 2)}
    assert oracles.linear_counts(u24, 3) == (2, 6, 11)
    triangle = {1: (0, 1), 2: (1, 2), 3: (0, 2)}
    assert oracles.graphic_counts(triangle) == (2, 3, 7)
    with_loop = {1: (0, 0), 2: (0, 1), 3: (0, 1)}
    assert oracles.graphic_counts(with_loop) == (1, 2, 3)


def test_host_scaling_ignores_one_disturbed_probe():
    import run

    probes = [2 * run.PROBE_REF_S] * 9
    probes[4] *= 10
    assert run.host_scaled([0.01] * 9, probes) == pytest.approx([0.005] * 9)


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("work", "results", "__pycache__")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=skip)
    out = run_bench(
        tmp_path, "--workload", "chain-tutte", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
