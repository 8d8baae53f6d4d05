"""The benchmark's output checks must catch a planted fault (colors
multiplied in swapped order); ``benchmarks/selftest.py`` shows that."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert any(line.startswith("PASS") for line in result.stdout.splitlines())
