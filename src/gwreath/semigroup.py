"""The semigroup of ordered colored partitions.

The product refines the left factor's blocks by the right factor's and
composes colors with the right factor's color on the left:

    ((B_1,g_1),...) * ((C_1,h_1),...) = ((B_i ∩ C_j, h_j * g_i), ...)

listed row-major over (i, j) with empty intersections omitted.  With one
color the elements are idempotent; in general x^(|G|+1) = x and
x*y*x^|G| = x*y hold instead; the ``identities`` target in ``verify``
sweeps them.
"""

from __future__ import annotations

from .limits import DEFAULT_LIMIT
from .partitions import ColoredPartition, enumerate_colored_partitions, partition_total


def identity_partition(n: int) -> ColoredPartition:
    """The single block {1..n} with the identity color."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return ((tuple(range(1, n + 1)), 0),)


def multiply(group, left: ColoredPartition, right: ColoredPartition) -> ColoredPartition:
    """The product ``left * right``.  A singleton left block is kept as it
    is; any other is split by the right blocks in their order.  The right
    factor's color multiplies on the left; for non-abelian colors this order
    is the whole ballgame."""
    mul = group.mul
    # which right-factor block each point sits in
    block_of = {}
    for j, (block, _) in enumerate(right):
        for x in block:
            block_of[x] = j
    size = 0  # points of the left factor seen so far
    cells = []
    try:
        for block, left_color in left:
            size += len(block)
            if len(block) == 1:
                cells.append((block, mul(right[block_of[block[0]]][1], left_color)))
                continue
            buckets: dict[int, list[int]] = {}
            for x in block:
                j = block_of[x]
                if j in buckets:
                    buckets[j].append(x)
                else:
                    buckets[j] = [x]
            for j in sorted(buckets):
                cells.append((tuple(buckets[j]), mul(right[j][1], left_color)))
    except KeyError:  # a left point that no right block holds
        size = -1
    if size != len(block_of):
        raise ValueError(
            f"partitions of different ground sets: 1..{partition_total(left)} "
            f"vs 1..{partition_total(right)}"
        )
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
