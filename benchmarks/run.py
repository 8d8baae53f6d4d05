"""Benchmark entry point.

    python3 benchmarks/run.py --workload sigma-table --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh worker process (``worker.py``) and prints, as
the last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; ``setup_s`` is the median, over the measured worker and
set-up-only processes run back to back before and after it, of the time
from process start to the first timed operation.  With ``--trace 1`` they
are the per-layer ones.  See README.md.

Exits 2 without a result when the checkout has no ``src/gwreath`` to
measure, and 1 when a worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BEFORE = SETUP_AFTER = 4
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args, workdir, deadline, setup_only):
    """Run one worker; return (seconds from start to READY, other stdout
    lines)."""
    # -S: the worker needs only the standard library and src/, and the
    # site-packages scan costs tens of noisy milliseconds on some machines
    command = [sys.executable, "-S", str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    # bytecode is cached so that set-up does not recompile gwreath each time
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerError(f"worker exited with code {code}")
    return ready, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gwreath benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gwreath" / "__init__.py").is_file():
        print(f"error: no gwreath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_BEFORE):
                setups.append(spawn(args, workdir, deadline, setup_only=True)[0])
        ready, lines = spawn(args, workdir, deadline, setup_only=False)
        setups.append(ready)
        if not args.trace:
            for _ in range(SETUP_AFTER):
                setups.append(spawn(args, workdir, deadline, setup_only=True)[0])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
