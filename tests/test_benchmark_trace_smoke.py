"""A short traced run of the verify-sweep benchmark: the tracer wraps
gwreath functions by name, and every operation's report is checked against
``benchmarks/reference.py``, so the run must finish with no failed
operation."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_verify_sweep_runs_clean():
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "verify-sweep",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
