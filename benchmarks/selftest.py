"""Shows that the benchmark's output checks catch a real fault.

    python3 benchmarks/selftest.py

Takes round 0 of ``sigma-table`` and ``algebra-calc`` (seed 1), keeps the
operations on non-abelian color groups, and runs them twice: once as they
are, where no operation may fail, and once with a fault planted in this
process only: ``FiniteGroup.mul(a, b)`` returns b*a.  Every call site then
multiplies colors in the swapped order, which is invisible on abelian
groups.  Each workload's checks must report failed operations under the
fault, or this script exits 1.
"""

from __future__ import annotations

import shutil
import sys
from collections import Counter

from worker import ROOT, Tally, import_gwreath

NON_ABELIAN = {"symmetric:3", "d4", "q8", "s4"}


def run(ops):
    tally = Tally()
    failed = Counter()
    for op in ops:
        before = tally.failed
        tally.run(op)
        failed[op.kind.split()[0]] += tally.failed - before
    return tally, failed


def main() -> int:
    gw = import_gwreath()
    from gwreath.groups import FiniteGroup
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name in ("sigma-table", "algebra-calc"):
            workload = WORKLOADS[name](gw, 1, workdir)
            ops = [op for op in workload.round(0) if op.group in NON_ABELIAN]
            clean, _ = run(ops)
            correct_mul = FiniteGroup.mul
            FiniteGroup.mul = lambda group, a, b: correct_mul(group, b, a)
            try:
                faulty, by_kind = run(ops)
            finally:
                FiniteGroup.mul = correct_mul
            print(f"{name}: {len(ops)} operations on non-abelian groups; "
                  f"failed without the fault: {clean.failed}, with it: {faulty.failed} "
                  f"{dict(by_kind)}")
            for problem in faulty.problems[:2]:
                print(f"  e.g. {problem}")
            if clean.failed or not faulty.failed:
                ok = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("PASS: the checks catch colors multiplied in the swapped order" if ok
          else "FAIL: the checks did not catch the planted fault")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
