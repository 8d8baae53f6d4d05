"""The wreath product of a finite color group with the symmetric group.

An element is a sequence ``((v_1, c_1), ..., (v_n, c_n))`` whose values form
a permutation of {1..n} and whose colors are group element indices.  The
product permutes the left factor's entries by the right factor's values and
multiplies colors with the left factor's (permuted) color on the left:

    u * v  has entry j  =  (u_value[v_value_j], u_color[v_value_j] * v_color_j)

Chambers (partitions with all blocks singletons) are in bijection with these
elements, and left-multiplying a chamber by any partition lands on a chamber
again; ``chamber_product_direct`` computes that product by sorting positions
into blocks, independently of the generic semigroup product.
"""

from __future__ import annotations

import itertools
from math import factorial

from .errors import NotAChamberError
from .limits import DEFAULT_LIMIT, check_limit
from .partitions import ColoredComposition, ColoredPartition, Permutation, partition_total

ColoredPermutation = tuple


def wreath_identity(n: int) -> ColoredPermutation:
    return tuple((i, 0) for i in range(1, n + 1))


def validate_colored_permutation(u, group=None, n: int | None = None) -> None:
    values = [value for value, _ in u]
    size = n if n is not None else len(u)
    if sorted(values) != list(range(1, size + 1)):
        raise ValueError(f"values must form a permutation of 1..{size}, got {values}")
    if group is not None:
        for _, color in u:
            if not 0 <= color < group.order:
                raise ValueError(f"color {color!r} out of range 0..{group.order - 1}")


def wreath_mul(group, u: ColoredPermutation, v: ColoredPermutation) -> ColoredPermutation:
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    return tuple(
        (u[t - 1][0], group.mul(u[t - 1][1], h)) for t, h in v
    )


def wreath_inverse(group, u: ColoredPermutation) -> ColoredPermutation:
    """Invert the values and send position u_value[i] the inverse color of entry i."""
    result = [None] * len(u)
    for i, (value, color) in enumerate(u, start=1):
        result[value - 1] = (i, group.inverse(color))
    return tuple(result)


def descent_composition(u: ColoredPermutation) -> ColoredComposition:
    """The shortest composition cutting ``u`` into runs of strictly increasing
    values with constant color; a cut happens after every position where the
    value drops or the color changes."""
    parts = []
    run_length = 1
    for i in range(1, len(u)):
        prev_value, prev_color = u[i - 1]
        value, color = u[i]
        if prev_value > value or prev_color != color:
            parts.append((run_length, prev_color))
            run_length = 1
        else:
            run_length += 1
    parts.append((run_length, u[-1][1]))
    return tuple(parts)


def count_wreath(n: int, order: int) -> int:
    return order**n * factorial(n)


def enumerate_wreath(group, n: int, limit: int | None = DEFAULT_LIMIT):
    """All elements, ordered by permutation then coloring, both lexicographic."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    check_limit(count_wreath(n, group.order), limit,
                f"wreath product elements at n={n}, |G|={group.order}")
    colors = range(group.order)
    for values in itertools.permutations(range(1, n + 1)):
        for coloring in itertools.product(colors, repeat=n):
            yield tuple(zip(values, coloring))


def is_chamber(partition: ColoredPartition) -> bool:
    return all(len(block) == 1 for block, _ in partition)


def chamber_to_wreath(partition: ColoredPartition) -> ColoredPermutation:
    for block, _ in partition:
        if len(block) != 1:
            raise NotAChamberError(
                f"block {block} is not a singleton; only chambers correspond "
                "to wreath product elements"
            )
    return tuple((block[0], color) for block, color in partition)


def wreath_to_chamber(u: ColoredPermutation) -> ColoredPartition:
    return tuple(((value,), color) for value, color in u)


def sorting_permutation(partition: ColoredPartition, chamber: ColoredPartition) -> Permutation:
    """The permutation of chamber positions that sorts the chamber's atoms
    into the partition's blocks, increasing within each block."""
    position_of = {block[0]: t for t, (block, _) in enumerate(chamber, start=1)}
    result = []
    for block, _ in partition:
        result.extend(sorted(position_of[x] for x in block))
    return tuple(result)


def chamber_product_direct(group, partition: ColoredPartition,
                           chamber: ColoredPartition) -> ColoredPartition:
    """partition * chamber, computed via the sorting permutation rather than
    block intersections; a second, independent route to the same product."""
    n = partition_total(partition)
    if partition_total(chamber) != n:
        raise ValueError(f"size mismatch: 1..{n} vs 1..{partition_total(chamber)}")
    if not is_chamber(chamber):
        raise NotAChamberError("right factor must be a chamber")
    tau = sorting_permutation(partition, chamber)
    entries = []
    position = 0
    for block, block_color in partition:
        for _ in block:
            t = tau[position]
            atom_block, atom_color = chamber[t - 1]
            entries.append((atom_block, group.mul(atom_color, block_color)))
            position += 1
    return tuple(entries)
