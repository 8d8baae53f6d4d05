"""Colored compositions, ordered colored set partitions, and enumerators.

Data is plain nested tuples so everything hashes and compares structurally:

* a colored composition is ``((size, color), ...)`` with positive sizes;
* an ordered colored partition of {1..n} is ``((block, color), ...)`` where
  each block is a strictly increasing tuple of integers and the blocks are
  disjoint with union {1..n};
* a permutation is its one-line image tuple ``(p(1), ..., p(n))``.

Colors are element indices into a :class:`~gwreath.groups.FiniteGroup`.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import comb, factorial

from .limits import DEFAULT_LIMIT, check_limit

ColoredComposition = tuple
ColoredPartition = tuple
Permutation = tuple


def composition_total(comp: ColoredComposition) -> int:
    return sum(size for size, _ in comp)


def validate_composition(comp, group=None) -> None:
    if len(comp) == 0:
        raise ValueError("a colored composition must have at least one part")
    for part in comp:
        if len(part) != 2:
            raise ValueError(f"parts must be (size, color) pairs, got {part!r}")
        size, color = part
        if not isinstance(size, int) or size < 1:
            raise ValueError(f"part sizes must be positive integers, got {size!r}")
        if group is not None and not 0 <= color < group.order:
            raise ValueError(f"color {color!r} out of range 0..{group.order - 1}")


def partition_total(partition: ColoredPartition) -> int:
    return sum(len(block) for block, _ in partition)


def validate_partition(partition, group=None, n: int | None = None) -> None:
    if len(partition) == 0:
        raise ValueError("an ordered partition must have at least one block")
    seen: set[int] = set()
    total = 0
    for entry in partition:
        if len(entry) != 2:
            raise ValueError(f"blocks must be (members, color) pairs, got {entry!r}")
        block, color = entry
        if len(block) == 0:
            raise ValueError("blocks must be non-empty")
        if list(block) != sorted(block):
            raise ValueError(f"block members must be strictly increasing, got {block!r}")
        if seen & set(block):
            raise ValueError(f"blocks are not disjoint: {sorted(seen & set(block))} repeated")
        seen.update(block)
        total += len(block)
        if group is not None and not 0 <= color < group.order:
            raise ValueError(f"color {color!r} out of range 0..{group.order - 1}")
    size = n if n is not None else total
    if seen != set(range(1, size + 1)):
        raise ValueError(f"blocks must cover 1..{size} exactly, got {sorted(seen)}")


def partition_type(partition: ColoredPartition) -> ColoredComposition:
    """Block sizes with their colors, in block order."""
    return tuple((len(block), color) for block, color in partition)


def apply_permutation(perm: Permutation, partition: ColoredPartition) -> ColoredPartition:
    """Relabel block members through the permutation; colors and block order stay."""
    n = partition_total(partition)
    if len(perm) != n:
        raise ValueError(f"permutation acts on {len(perm)} points, partition is over 1..{n}")
    return tuple(
        (tuple(sorted(perm[x - 1] for x in block)), color) for block, color in partition
    )


# ---------------------------------------------------------------------------
# counting

def count_colored_compositions(n: int, order: int) -> int:
    """sum_k C(n-1, k-1) order^k in closed form: the first part takes one of
    ``order`` colors, and each of the n-1 gaps is either no cut or a cut that
    opens a part of one of ``order`` colors."""
    return order * (order + 1) ** (n - 1)


def count_partitions_of_sizes(sizes: tuple) -> int:
    """The multinomial n! / (a_1! a_2! ...) over block sizes a_i summing to n."""
    result, total = 1, 0
    for size in sizes:
        total += size
        result *= comb(total, size)
    return result


def count_partitions_of_type(comp: ColoredComposition) -> int:
    return count_partitions_of_sizes(tuple(size for size, _ in comp))


def _stirling_row(n: int) -> list:
    """The Stirling numbers of the second kind S(n, 0..n)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m)] + [1]
    return row


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of an n-set into k non-empty blocks."""
    return _stirling_row(n)[k] if 0 <= k <= n else 0


def count_colored_partitions(n: int, order: int) -> int:
    """sum_k k! S(n, k) order^k, from the one Stirling row S(n, 0..n)."""
    row = _stirling_row(n)
    total, weight = 0, 1
    for k in range(1, n + 1):
        weight *= k * order
        total += weight * row[k]
    return total


def colored_partition_estimates(n: int, order: int):
    """Yield the k = n term of ``count_colored_partitions``, n! * order^n,
    then the exact count.  The term is a lower bound that costs a
    factorial, the count costs O(n^2) big-integer steps, so a size guard
    that checks both in turn refuses a large n on the term alone."""
    yield factorial(n) * order**n
    yield count_colored_partitions(n, order)


# ---------------------------------------------------------------------------
# enumeration, always in canonical order

def composition_sort_key(comp: ColoredComposition):
    """Canonical total order: length, then sizes, then colors."""
    return (len(comp), tuple(s for s, _ in comp), tuple(c for _, c in comp))


def enumerate_colored_compositions(group, n: int, limit: int | None = DEFAULT_LIMIT):
    """All colored compositions of n, in canonical order.  The sizes of each
    length are read off cut points of 1..n-1 taken in lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    check_limit(count_colored_compositions(n, group.order), limit,
                f"colored compositions of {n} over a group of order {group.order}")
    colors = range(group.order)
    for length in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), length - 1):
            sizes = tuple(map(operator.sub, (*cuts, n), (0, *cuts)))
            for coloring in itertools.product(colors, repeat=length):
                yield tuple(zip(sizes, coloring))


def _partitions_by_sizes(available, sizes):
    if not sizes:
        yield ()
        return
    head = sizes[0]
    for block in itertools.combinations(available, head):
        chosen = set(block)
        remaining = tuple(x for x in available if x not in chosen)
        for rest in _partitions_by_sizes(remaining, sizes[1:]):
            yield (block, *rest)


# The blocks of a type depend only on its sizes, so ``_blocks_of_sizes``
# lists them once per size sequence and every coloring of that sequence
# zips its colors onto the same list.  A shape whose partitions hold more
# than this many points in all (count times n) is walked afresh on each
# call instead, so a lazy enumeration at large n pins no list.
_CACHED_POINTS = 100_000


@lru_cache(maxsize=1024)
def _blocks_of_sizes(sizes: tuple) -> tuple | None:
    """The block tuples of ``_partitions_by_sizes`` over 1..n as a tuple, or
    None when the shape is over ``_CACHED_POINTS``."""
    n = sum(sizes)
    if count_partitions_of_sizes(sizes) * n > _CACHED_POINTS:
        return None
    return tuple(_partitions_by_sizes(tuple(range(1, n + 1)), sizes))


def enumerate_partitions_of_type(comp: ColoredComposition,
                                 limit: int | None = DEFAULT_LIMIT):
    """All ordered colored partitions whose type is exactly ``comp``."""
    validate_composition(comp)
    check_limit(count_partitions_of_type(comp), limit,
                f"partitions of type {comp}")
    sizes = tuple(s for s, _ in comp)
    colors = tuple(c for _, c in comp)
    all_blocks = _blocks_of_sizes(sizes)
    if all_blocks is None:
        all_blocks = _partitions_by_sizes(tuple(range(1, sum(sizes) + 1)), sizes)
    for blocks in all_blocks:
        yield tuple(zip(blocks, colors))


def enumerate_colored_partitions(group, n: int, limit: int | None = DEFAULT_LIMIT):
    """All ordered colored partitions of {1..n}, grouped by type."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    for estimate in colored_partition_estimates(n, group.order):
        check_limit(estimate, limit,
                    f"ordered colored partitions of {n} over a group of order {group.order}")
    for comp in enumerate_colored_compositions(group, n, limit=None):
        yield from enumerate_partitions_of_type(comp, limit=None)


# ---------------------------------------------------------------------------
# the refinement order on colored compositions

def is_refinement(fine: ColoredComposition, coarse: ColoredComposition) -> bool:
    """True when ``fine`` splits the parts of ``coarse`` without touching colors.

    The split segments of a refinement are forced to be consecutive with
    prescribed sums, so a single greedy left-to-right pass decides it.
    """
    if composition_total(fine) != composition_total(coarse):
        raise ValueError(
            f"compositions of different totals: {composition_total(fine)} "
            f"vs {composition_total(coarse)}"
        )
    i = 0
    for size, color in coarse:
        acc = 0
        while acc < size:
            if i >= len(fine):
                return False
            part_size, part_color = fine[i]
            if part_color != color:
                return False
            acc += part_size
            i += 1
        if acc != size:
            return False
    return i == len(fine)


def coarsenings(comp: ColoredComposition):
    """All compositions obtainable by merging adjacent same-colored parts,
    including ``comp`` itself.  These are exactly the compositions that
    ``comp`` refines."""
    validate_composition(comp)
    same_color = [comp[i][1] == comp[i - 1][1] for i in range(1, len(comp))]
    results = []
    # one flag per join of same-colored neighbours: False merges, True keeps
    for kept in itertools.product((False, True), repeat=sum(same_color)):
        keep = iter(kept)
        parts = [comp[0]]
        for same, (size, color) in zip(same_color, comp[1:]):
            if same and not next(keep):
                parts[-1] = (parts[-1][0] + size, color)
            else:
                parts.append((size, color))
        results.append(tuple(parts))
    return results
