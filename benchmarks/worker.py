"""One workload in one fresh, single-threaded process.

Sets up (imports gwreath from the checkout's ``src``, builds groups, writes
group files, makes round 0), prints ``READY``, then runs whole rounds until
the operations have taken ``--seconds`` of time, checking every output
between operations.  The last line of stdout is the JSON result.  Started
by ``run.py``, which times set-up from process start to ``READY``.

Throughput is operations attempted over the time they took, and the
latency percentiles are taken over every operation of the run.

With ``--trace 1`` it runs rounds untraced for half the time, then the very
same rounds again with the tracer installed, and reports per-layer figures
per operation plus the tracer's own overhead (traced minus untraced time).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# latency slots allocated whole (1 MiB) before the first operation, so that
# peak RSS does not grow with the number of rounds a run fits in; a run of
# more operations than this appends past the end
LATENCY_SLOTS = 1 << 17


def import_gwreath():
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import gwreath

    if Path(gwreath.__file__).resolve().parent != source / "gwreath":
        raise SystemExit(f"gwreath was imported from {gwreath.__file__}, not {source}")
    return gwreath


class Tally:
    """Latency of every operation, and how many failed or were wrong."""

    def __init__(self):
        self.latencies = array("d", bytes(8 * LATENCY_SLOTS))
        self.count = 0
        self.busy = 0.0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def run(self, op, tracer=None) -> None:
        output, error = None, None
        if tracer is not None:
            tracer.on = True
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.on = False
        if self.count < LATENCY_SLOTS:
            self.latencies[self.count] = elapsed
        else:
            self.latencies.append(elapsed)
        self.count += 1
        self.busy += elapsed
        if error is not None:
            self._fail(op, f"raised {error!r}")
            return
        try:
            problem = op.check(output)
        except Exception as exc:  # a check that cannot read the output rejects it
            problem = f"check raised {exc!r}"
        if problem:
            self.wrong += 1
            self._fail(op, problem)

    def _fail(self, op, problem) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{op.kind}: {problem}")


def run_rounds(workload, ops, seconds, tally, kept=None) -> int:
    """Whole rounds until the operations have taken ``seconds``."""
    rounds = 0
    while True:
        for op in ops:
            tally.run(op)
        if kept is not None:
            kept.append(ops)
        rounds += 1
        if tally.busy >= seconds:
            return rounds
        ops = workload.round(rounds)


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def end_to_end(workload, first, seconds):
    """Throughput and latency percentiles over every operation."""
    tally = Tally()
    rounds = run_rounds(workload, first, seconds, tally)
    latencies = tally.latencies[:tally.count]
    print(f"# rounds={rounds} operations={tally.count} busy_s={tally.busy:.3f}")
    metrics = {
        "ops_per_s": (tally.count / tally.busy, "1/s"),
        "op_p50_ms": (percentile(latencies, 0.5) * 1000, "ms"),
        "op_p90_ms": (percentile(latencies, 0.9) * 1000, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return [tally], metrics


def per_layer(workload, first, seconds, name):
    from tracing import Tracer

    untraced = Tally()
    kept: list = []
    run_rounds(workload, first, seconds / 2, untraced, kept)
    tracer = Tracer()
    tracer.install()
    traced = Tally()
    for ops in kept:
        for op in ops:
            traced.run(op, tracer)
    count = traced.count
    print(f"# rounds={len(kept)} operations={count} untraced_s={untraced.busy:.3f} "
          f"traced_s={traced.busy:.3f} spans={len(tracer.start)}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{name}.bin")

    calls, self_s = tracer.summary()
    counts = tracer.counts

    def layer_self(prefix):
        return sum(value for key, value in self_s.items() if key.startswith(prefix))

    support = counts["descent.x_basis.support"]
    figures = {
        "invariant.sigma_product.calls": (calls["invariant.sigma_product"], "calls/op"),
        "invariant.sigma_product.self_s": (self_s["invariant.sigma_product"], "s/op"),
        "invariant.compatible_matrices.items":
            (counts["invariant.enumerate_compatible_matrices"], "items/op"),
        "invariant.structure_constant_table.self_s":
            (self_s["invariant.structure_constant_table"], "s/op"),
        "invariant.sigma_product_bruteforce.calls":
            (calls["invariant.sigma_product_bruteforce"], "calls/op"),
        "invariant.sigma_product_bruteforce.self_s":
            (self_s["invariant.sigma_product_bruteforce"], "s/op"),
        "semigroup.multiply.calls": (calls["semigroup.multiply"], "calls/op"),
        "semigroup.multiply.self_s": (self_s["semigroup.multiply"], "s/op"),
        "partitions.enumerate_partitions_of_type.items":
            (counts["partitions.enumerate_partitions_of_type"], "items/op"),
        "partitions.coarsenings.calls": (counts["partitions.coarsenings"], "calls/op"),
        "groups.mul.calls": (counts["groups.mul"], "calls/op"),
        "groups.from_table.calls": (calls["groups.from_table"], "calls/op"),
        "groups.from_table.self_s": (self_s["groups.from_table"], "s/op"),
        "wreath.wreath_mul.calls": (calls["wreath.wreath_mul"], "calls/op"),
        "wreath.descent_composition.calls": (calls["wreath.descent_composition"], "calls/op"),
        "wreath.enumerate_wreath.items": (counts["wreath.enumerate_wreath"], "items/op"),
        "wreath.self_s": (layer_self("wreath."), "s/op"),
        "descent.x_basis.calls": (calls["descent.x_basis"], "calls/op"),
        "descent.x_basis.self_s": (self_s["descent.x_basis"], "s/op"),
        "descent.y_basis.calls": (calls["descent.y_basis"], "calls/op"),
        "descent.y_basis.self_s": (self_s["descent.y_basis"], "s/op"),
        "descent.descent_fibers.calls": (calls["descent.descent_fibers"], "calls/op"),
        "descent.group_algebra_mul.self_s": (self_s["descent.group_algebra_mul"], "s/op"),
        "descent.group_algebra_mul.term_pairs":
            (counts["descent.group_algebra_mul.term_pairs"], "pairs/op"),
        "descent.express_in_x_basis.self_s": (self_s["descent.express_in_x_basis"], "s/op"),
        "linear.add.calls": (counts["linear.add"], "calls/op"),
        "linear.add.terms_copied": (counts["linear.add.terms_copied"], "terms/op"),
        "parsing.self_s": (layer_self("parsing."), "s/op"),
        "verify.run_verification.self_s": (self_s["verify.run_verification"], "s/op"),
        "cli.main.self_s": (self_s["cli.main"], "s/op"),
        "trace.overhead_s": (traced.busy - untraced.busy, "s/op"),
    }
    metrics = {key: (value / count, unit) for key, (value, unit) in figures.items()}
    metrics["descent.wreath_visited_per_x_term"] = (
        counts["descent.wreath_visited"] / support if support else 0.0, "ratio")
    metrics["trace.overhead_pct"] = (100 * (traced.busy / untraced.busy - 1), "%")
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    gw = import_gwreath()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](gw, args.seed, Path(args.workdir))
    first = workload.round(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        tallies, metrics = per_layer(workload, first, args.seconds, args.workload)
    else:
        tallies, metrics = end_to_end(workload, first, args.seconds)
    print("# inputs " + json.dumps(workload.properties(), sort_keys=True))
    for tally in tallies:
        for problem in tally.problems:
            print(f"failed: {problem}", file=sys.stderr)
    result = {
        "correct": not any(tally.wrong for tally in tallies),
        "attempted": sum(tally.count for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
