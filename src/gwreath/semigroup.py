"""The semigroup of ordered colored partitions.

The product refines the left factor's blocks by the right factor's and
composes colors with the right factor's color on the left:

    ((B_1,g_1),...) * ((C_1,h_1),...) = ((B_i ∩ C_j, h_j * g_i), ...)

listed row-major over (i, j) with empty intersections omitted.  With one
color the elements are idempotent; in general x^(|G|+1) = x and
x*y*x^|G| = x*y hold instead, and ``check_identities`` sweeps them.
"""

from __future__ import annotations

import random

from .limits import DEFAULT_LIMIT, check_limit
from .partitions import (
    ColoredPartition,
    count_colored_partitions,
    enumerate_colored_partitions,
    partition_total,
)


def identity_partition(n: int) -> ColoredPartition:
    """The single block {1..n} with the identity color."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return ((tuple(range(1, n + 1)), 0),)


def multiply(group, left: ColoredPartition, right: ColoredPartition) -> ColoredPartition:
    n = partition_total(left)
    if partition_total(right) != n:
        raise ValueError(
            f"partitions of different ground sets: 1..{n} vs 1..{partition_total(right)}"
        )
    # which right-factor block each point sits in
    right_block_of = [0] * (n + 1)
    for j, (block, _) in enumerate(right):
        for x in block:
            right_block_of[x] = j
    cells = []
    for block, left_color in left:
        buckets: dict[int, list[int]] = {}
        for x in block:
            buckets.setdefault(right_block_of[x], []).append(x)
        for j in sorted(buckets):
            # right factor's color multiplies on the left; for non-abelian
            # colors this order is the whole ballgame
            cells.append((tuple(buckets[j]), group.mul(right[j][1], left_color)))
    return tuple(cells)


def power(group, partition: ColoredPartition, k: int) -> ColoredPartition:
    """k-th power; k = 0 gives the semigroup identity (([n], e))."""
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    n = partition_total(partition)
    result = identity_partition(n)
    for _ in range(k):
        result = multiply(group, result, partition)
    return result


def idempotents(group, n: int, limit: int | None = DEFAULT_LIMIT):
    """All P with P*P = P; exactly the partitions colored by the identity."""
    return [
        partition
        for partition in enumerate_colored_partitions(group, n, limit)
        if multiply(group, partition, partition) == partition
    ]


def check_identities(group, n: int, mode: str = "exhaustive",
                     samples: int = 10_000, seed: int = 0,
                     limit: int | None = DEFAULT_LIMIT) -> dict:
    """Sweep x^(|G|+1) = x and x*y*x^|G| = x*y over the semigroup.

    Returns a report dict with the first counterexample, if any.  In
    ``sampled`` mode, ``samples`` pairs are drawn with the given seed and
    both identities are checked on each pair.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    if mode == "exhaustive":
        check_limit(count_colored_partitions(n, group.order) ** 2, limit,
                    f"identity sweep over all pairs at n={n}, |G|={group.order}")
    elements = list(enumerate_colored_partitions(group, n, limit))
    exponent = group.order
    report = {
        "mode": mode,
        "seed": seed if mode == "sampled" else None,
        "element_count": len(elements),
        "pairs_checked": 0,
        "power_checks": 0,
        "passed": True,
        "first_failure": None,
    }

    def fail(kind, x, y=None):
        report["passed"] = False
        report["first_failure"] = {"identity": kind, "x": x, "y": y}

    if mode == "exhaustive":
        powers = {}
        for x in elements:
            x_exp = power(group, x, exponent)
            powers[x] = x_exp
            report["power_checks"] += 1
            if multiply(group, x, x_exp) != x:
                fail("power", x)
                return report
        for x in elements:
            x_exp = powers[x]
            for y in elements:
                report["pairs_checked"] += 1
                xy = multiply(group, x, y)
                if multiply(group, xy, x_exp) != xy:
                    fail("pair", x, y)
                    return report
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            x = elements[rng.randrange(len(elements))]
            y = elements[rng.randrange(len(elements))]
            x_exp = power(group, x, exponent)
            report["power_checks"] += 1
            if multiply(group, x, x_exp) != x:
                fail("power", x)
                return report
            report["pairs_checked"] += 1
            xy = multiply(group, x, y)
            if multiply(group, xy, x_exp) != xy:
                fail("pair", x, y)
                return report
    return report
