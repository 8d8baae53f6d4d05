"""The benchmark's span tracer wraps gwreath functions by name
(``benchmarks/tracing.py``); a rename or removal of one of them makes
``Tracer.install`` fail, and so the traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_current_names():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'benchmarks'); "
         "from tracing import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
