"""Re-measure the single-call reference points quoted in ROADMAP.md item 1.

    python3 benchmarks/reference_points.py

Each point is timed once, in this process (the two big ones take about half
a minute each).  These are not workloads of the benchmark: they are single large calls,
kept to compare with figures quoted before the benchmark existed.
"""

from __future__ import annotations

import contextlib
import io
import time

from worker import import_gwreath


def main() -> None:
    gw = import_gwreath()
    import gwreath.cli

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = gwreath.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"gwreath {' '.join(argv)} exited {code}")

    lhs, rhs = "X(1:0|2:1|2:0) + X(3:1|2:1)", "X(2:0|3:1)"
    points = [
        ("verify_prop1(cyclic(6), 3)", lambda: gw.verify_prop1(gw.cyclic(6), 3)),
        ("structure_constant_table(cyclic(2), 5)",
         lambda: gw.structure_constant_table(gw.cyclic(2), 5)),
        (f"cli multiply, X basis, n=5, |G|=2: ({lhs}) * ({rhs})",
         lambda: cli("multiply", "--group", "cyclic:2", "--n", "5", lhs, rhs)),
        ("cli multiply, the same product in the sigma basis",
         lambda: cli("multiply", "--group", "cyclic:2", "--n", "5",
                     rhs.replace("X", "sigma"), lhs.replace("X", "sigma"))),
        ("verify_antihomomorphism(cyclic(1), 5)",
         lambda: gw.verify_antihomomorphism(gw.cyclic(1), 5)),
    ]
    for label, fn in points:
        start = time.perf_counter()
        fn()
        print(f"{label}: {time.perf_counter() - start:.4f} s", flush=True)


if __name__ == "__main__":
    main()
