"""Short runs of the benchmark workloads: the tracer wraps gwreath functions
by name, and every operation's output is checked against
``benchmarks/reference.py``, so each run must finish with no failed
operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_clean(workload, trace):
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_traced_verify_sweep_runs_clean():
    run_clean("verify-sweep", "1")


@pytest.mark.parametrize("workload", ["sigma-table", "algebra-calc"])
def test_untraced_run_checks_clean(workload):
    run_clean(workload, "0")
