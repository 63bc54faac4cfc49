"""Smoke self-test of the benchmark at its smallest trial count.

Kept out of the default pytest collection, which only looks in tests/.
Run it with:  python3 -m pytest -q perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=180,
                          cwd=cwd or HERE.parent)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_default_seed_is_checked_against_the_reference():
    done = bench("--workload", "ldpc-r13-k1024", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert "reference 1.166934: ok" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "turbo75-r13-k1024", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
