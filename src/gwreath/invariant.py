"""The invariant subalgebra of the partition semigroup algebra.

Summing all partitions of a fixed type gives a basis (the sigma basis)
indexed by colored compositions.  Products of two sigma basis vectors
expand with non-negative integer structure constants, computed two ways:

* ``sigma_product`` counts the matrices compatible with the two
  compositions (contingency tables with forced cell colors), each read
  row-by-row;
* ``sigma_product_bruteforce`` literally multiplies every partition of one
  type by every partition of the other and regroups the sum by type.

The two routes must agree; the brute-force one is the oracle.

A compatible matrix is a skeleton, the sizes of its non-empty cells, plus
colors that are forced: cell (i, j) gets col_color * row_color.  Skeletons
depend on the two size sequences only, so ``_skeletons`` enumerates them
once per pair of size sequences, in a bounded cache, and ``sigma_product``
colors each cached skeleton by looking its cells up in the product's list
of cell colors.  ``_walk_skeletons`` fills the cells row-major from one
explicit stack of partial tables, so a composition of any length is
walked: sigma of a thousand parts of size 1 times sigma_(1000) is one
table of a thousand rows.  ``enumerate_compatible_matrices`` builds its
matrices from the same skeletons, and ``structure_constant_table`` computes
one row of products per orbit of recolorings that leave every cell color
unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvarianceViolationError
from .limits import DEFAULT_LIMIT, check_limit
from .linear import LinearCombination
from .parsing import document, render_composition
from .partitions import (
    _blocks_of_sizes,
    ColoredComposition,
    composition_sort_key,
    composition_total,
    count_colored_compositions,
    count_partitions_of_sizes,
    count_partitions_of_type,
    enumerate_colored_compositions,
    enumerate_partitions_of_type,
    partition_type,
    validate_composition,
)
from .semigroup import multiply


@dataclass(frozen=True)
class CompatibleMatrix:
    """A grid of cells, each ``None`` or ``(size, color)``, whose row sums
    match ``row_type``'s sizes, whose column sums match ``col_type``'s, and
    whose cell colors are forced to col_color * row_color."""

    cells: tuple
    row_type: ColoredComposition
    col_type: ColoredComposition


def matrix_is_compatible(group, matrix: CompatibleMatrix) -> bool:
    alpha, beta = matrix.row_type, matrix.col_type
    if len(matrix.cells) != len(alpha):
        return False
    for row in matrix.cells:
        if len(row) != len(beta):
            return False
    for i, (size, _) in enumerate(alpha):
        if sum(cell[0] for cell in matrix.cells[i] if cell is not None) != size:
            return False
    for j, (size, _) in enumerate(beta):
        if sum(row[j][0] for row in matrix.cells if row[j] is not None) != size:
            return False
    for i, (_, row_color) in enumerate(alpha):
        for j, (_, col_color) in enumerate(beta):
            cell = matrix.cells[i][j]
            if cell is not None:
                cell_size, cell_color = cell
                if cell_size < 1 or cell_color != group.mul(col_color, row_color):
                    return False
    return True


def _walk_skeletons(row_sizes: tuple, col_sizes: tuple):
    """Every contingency table with these margins, once, in the lexicographic
    order of its row-major cell values.  Each is a ``(cell sizes, flat cell
    indices)`` pair over its non-empty cells in row-major order; cell (i, j)
    has flat index ``i * len(col_sizes) + j``.

    A cell takes each value its column still allows that leaves its row
    completable from the later columns, so every partial table completes;
    pushing the largest value first walks the smallest first."""
    width, cells = len(col_sizes), len(row_sizes) * len(col_sizes)
    needs = (*row_sizes, 0)
    # a partial table: its next cell, what that cell's row still needs, the
    # column remainders and their sum from the cell's column on, and the
    # sizes and flat indices of its non-empty cells
    stack = [(0, row_sizes[0], col_sizes, sum(col_sizes), (), ())]
    while stack:
        k, need, remaining, free, sizes, where = stack.pop()
        if k == cells:
            yield sizes, where
            continue
        i, j = divmod(k, width)
        cap = remaining[j]
        free -= cap
        for value in range(min(cap, need), max(0, need - free) - 1, -1):
            if value:
                columns = (*remaining[:j], cap - value, *remaining[j + 1:])
                filled = sizes + (value,), where + (k,)
            else:
                columns, filled = remaining, (sizes, where)
            if j + 1 < width:
                stack.append((k + 1, need - value, columns, free, *filled))
            else:
                stack.append((k + 1, needs[i + 1], columns, sum(columns), *filled))


# The tables with margins a and b are the double cosets S_a \ S_n / S_b, so
# there are at most min(n! / a!, n! / b!) of them, where a! is the product
# of the factorials of a's sizes.  A shape whose bound is over this is
# walked afresh on each call instead of being held in memory.  The bound is
# decided here, once per shape: on every product it would add two counts to
# calls that only color a few cells.
_CACHED_TABLES = 10_000


@lru_cache(maxsize=4096)
def _skeletons(row_sizes: tuple, col_sizes: tuple) -> tuple | None:
    """The skeletons of ``_walk_skeletons`` as a tuple, or None when the
    shape may have more than ``_CACHED_TABLES`` of them."""
    bound = min(count_partitions_of_sizes(row_sizes), count_partitions_of_sizes(col_sizes))
    if bound > _CACHED_TABLES:
        return None
    return tuple(_walk_skeletons(row_sizes, col_sizes))


def _pair_skeletons(left: ColoredComposition, right: ColoredComposition):
    row_sizes = tuple(size for size, _ in left)
    col_sizes = tuple(size for size, _ in right)
    return _skeletons(row_sizes, col_sizes) or _walk_skeletons(row_sizes, col_sizes)


def _check_pair(group, left: ColoredComposition, right: ColoredComposition) -> None:
    validate_composition(left, group)
    validate_composition(right, group)
    n = composition_total(left)
    if composition_total(right) != n:
        raise ValueError(
            f"compositions of different totals: {n} vs {composition_total(right)}"
        )


def _cell_colors(group, left: ColoredComposition, right: ColoredComposition) -> list:
    """The forced color col_color * row_color of every cell, row-major, in
    that order of factors (it matters for non-abelian groups)."""
    mul = group.mul
    return [mul(col_color, row_color) for _, row_color in left for _, col_color in right]


def enumerate_compatible_matrices(group, left: ColoredComposition,
                                  right: ColoredComposition):
    """All matrices compatible with the pair, exactly once."""
    _check_pair(group, left, right)
    colors = _cell_colors(group, left, right)
    height, width = len(left), len(right)
    for sizes, where in _pair_skeletons(left, right):
        grid = [None] * (height * width)
        for size, k in zip(sizes, where):
            grid[k] = (size, colors[k])
        cells = tuple(tuple(grid[i * width:(i + 1) * width]) for i in range(height))
        yield CompatibleMatrix(cells=cells, row_type=left, col_type=right)


def read_row_by_row(matrix: CompatibleMatrix) -> ColoredComposition:
    """The composition formed by the non-empty cells in row-major order."""
    return tuple(cell for row in matrix.cells for cell in row if cell is not None)


def sigma_product(group, left: ColoredComposition,
                  right: ColoredComposition) -> LinearCombination:
    """Structure constants of sigma_left * sigma_right, keyed by composition:
    each compatible matrix, read row by row, counts once."""
    _check_pair(group, left, right)
    color = _cell_colors(group, left, right).__getitem__
    return LinearCombination(Counter(
        tuple(zip(sizes, map(color, where)))
        for sizes, where in _pair_skeletons(left, right)
    ))


@lru_cache(maxsize=4096)
def _type_fiber(comp: ColoredComposition) -> tuple | None:
    """The partitions of type ``comp`` as a tuple, or None when the shape
    is over the bound of ``_blocks_of_sizes``, so that no large fiber is
    kept."""
    if _blocks_of_sizes(tuple(size for size, _ in comp)) is None:
        return None
    return tuple(enumerate_partitions_of_type(comp, limit=None))


def _walk_fiber(comp: ColoredComposition):
    return _type_fiber(comp) or enumerate_partitions_of_type(comp, limit=None)


def sigma_product_bruteforce(group, left: ColoredComposition,
                             right: ColoredComposition,
                             limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """Expand sigma_left * sigma_right term by term in the semigroup algebra,
    then regroup by type.

    Every type fiber of the expanded sum must carry one constant coefficient;
    anything else means the product of invariant elements failed to be
    invariant, which is an internal bug worth a loud error.
    """
    _check_pair(group, left, right)
    check_limit(count_partitions_of_type(left) * count_partitions_of_type(right),
                limit, "brute-force sigma product")
    # the right fiber is read once per left partition, so it alone is a tuple
    right_fiber = tuple(_walk_fiber(right))
    acc: dict = {}
    for p in _walk_fiber(left):
        for q in right_fiber:
            product = multiply(group, p, q)
            acc[product] = acc.get(product, 0) + 1

    by_type: dict = {}
    for partition, coeff in acc.items():
        by_type.setdefault(partition_type(partition), {})[partition] = coeff
    coeffs: dict = {}
    for comp in sorted(by_type, key=composition_sort_key):
        seen = by_type[comp]
        fiber = iter(_walk_fiber(comp))
        head = next(fiber)
        first = seen.get(head, 0)
        for partition in fiber:
            value = seen.get(partition, 0)
            if value != first:
                raise InvarianceViolationError(
                    f"type fiber {comp} has non-constant coefficients: "
                    f"{head} -> {first} but {partition} -> {value}"
                )
        coeffs[comp] = first
    return LinearCombination(coeffs)


def invariant_mul(group, x: LinearCombination, y: LinearCombination,
                  limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """Bilinear extension of ``sigma_product`` to sigma-basis combinations.

    The size guard bounds the compatible matrices of each term pair by the
    smaller of its two type fibers (see ``_CACHED_TABLES``).
    """
    estimate = 0
    for left in x.keys():
        for right in y.keys():
            _check_pair(group, left, right)
            estimate += min(count_partitions_of_type(left), count_partitions_of_type(right))
    check_limit(estimate, limit, "compatible matrices of a sigma product")
    return LinearCombination(
        (key, a * b * c)
        for left, a in x.items()
        for right, b in y.items()
        for key, c in sigma_product(group, left, right).items()
    )


def sigma_vector(group, comp: ColoredComposition,
                 limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """The sigma basis vector expanded as an actual sum of partitions."""
    validate_composition(comp, group)
    check_limit(count_partitions_of_type(comp), limit, f"sigma vector of type {comp}")
    return LinearCombination({p: 1 for p in enumerate_partitions_of_type(comp, limit)})


def structure_constant_table(group, n: int,
                             limit: int | None = DEFAULT_LIMIT) -> dict:
    """The full product table of the sigma basis, in the documented JSON shape.

    ``basis`` lists the compositions in canonical order as grammar text;
    ``products`` maps "i,j" to a sparse ``[[basis_index, coefficient], ...]``;
    equal products share one list object, so copy an entry before changing it.
    """
    basis_count = count_colored_compositions(n, group.order)
    check_limit(basis_count * basis_count, limit,
                f"structure constant table at n={n}, |G|={group.order}")
    basis = list(enumerate_colored_compositions(group, n, limit))
    index = {comp: i for i, comp in enumerate(basis)}
    # Multiplying every color of a by g on the left, and every color of b by
    # g^-1 on the right, leaves each cell color col_color * row_color as it
    # was, so sigma_(g.a) * sigma_(b.g^-1) = sigma_a * sigma_b.  One row of
    # products is computed per orbit, for the left factor whose first color
    # is the identity, and read by every row of the orbit.
    mul = group.mul

    def recolored(comp, g, h) -> int:
        """The basis index of comp with each color c replaced by g*c*h."""
        return index[tuple((size, mul(mul(g, color), h)) for size, color in comp)]

    rows: dict = {}
    shifts: dict = {}
    products = {}
    for i, left in enumerate(basis):
        g = left[0][1]
        base = recolored(left, group.inverse(g), 0)
        if base not in rows:
            rows[base] = [
                sorted([index[comp], coeff]
                       for comp, coeff in sigma_product(group, basis[base], right).items())
                for right in basis
            ]
        if g not in shifts:
            shifts[g] = [recolored(right, 0, g) for right in basis]
        row, shift = rows[base], shifts[g]
        for j in range(len(basis)):
            products[f"{i},{j}"] = row[shift[j]]
    return document(group, n, basis=[render_composition(group, comp) for comp in basis],
                    products=products)
