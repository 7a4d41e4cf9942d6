"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest bench/test_smoke.py

Every workload runs at 6 nodes x 4 regions (paper-cli at its own fig1
scale) for a few operations, untraced on two seeds and traced on one, with
the output checks on. It never runs the benchmark sizes and is not part of
the package's tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(1, 0), (2, 0), (1, 1)])
def test_toy_run(workload, seed, trace):
    # --ops, not --seconds, ends the run: a slow host must not cut it short
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "60", "--trace", str(trace),
               "--toy", "--ops", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3, proc.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seconds", "1",
               cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_rejects_a_perturbed_ranking():
    workflow = {"nodes": [{"id": "a", "location": {"lat": 10.0, "lon": 20.0}},
                          {"id": "b", "location": {"lat": -30.0, "lon": 120.0}}],
                "edges": [{"from": "a", "to": "b"}]}
    regions = [{"id": "r1", "lat": 0.0, "lon": 60.0}, {"id": "r2", "lat": 50.0, "lon": -100.0}]
    expected = oracle.expected_ranking(workflow, regions)
    rows = [(r, expected["scores"][r]["final"], True) for r in expected["order"]]
    oracle.check_ranked(rows, expected)
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_ranked([(r, s * (1 + 1e-6), sh) for r, s, sh in rows], expected)
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_ranked(rows[::-1], expected)
