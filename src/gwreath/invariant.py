"""The invariant subalgebra of the partition semigroup algebra.

Summing all partitions of a fixed type gives a basis (the sigma basis)
indexed by colored compositions.  Products of two sigma basis vectors
expand with non-negative integer structure constants, computed two ways:

* ``sigma_product`` enumerates matrices compatible with the two
  compositions (contingency tables with forced cell colors) and reads each
  row-by-row;
* ``sigma_product_bruteforce`` literally multiplies every partition of one
  type by every partition of the other and regroups the sum by type.

The two routes must agree; the brute-force one is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvarianceViolationError
from .limits import DEFAULT_LIMIT, check_limit
from .linear import LinearCombination
from .partitions import (
    ColoredComposition,
    composition_sort_key,
    composition_total,
    count_colored_compositions,
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


def _row_fills(total, caps):
    """Non-negative vectors bounded by ``caps`` summing to ``total``, in
    lexicographic order, pruned by remaining capacity."""
    if not caps:
        if total == 0:
            yield ()
        return
    tail_capacity = sum(caps[1:])
    low = max(0, total - tail_capacity)
    high = min(caps[0], total)
    for value in range(low, high + 1):
        for rest in _row_fills(total - value, caps[1:]):
            yield (value, *rest)


def enumerate_compatible_matrices(group, left: ColoredComposition,
                                  right: ColoredComposition):
    """All matrices compatible with the pair, exactly once."""
    validate_composition(left, group)
    validate_composition(right, group)
    n = composition_total(left)
    if composition_total(right) != n:
        raise ValueError(
            f"compositions of different totals: {n} vs {composition_total(right)}"
        )
    col_sizes = tuple(size for size, _ in right)
    colors = tuple(
        tuple(group.mul(col_color, row_color) for _, col_color in right)
        for _, row_color in left
    )

    def rows(i, remaining):
        if i == len(left):
            yield ()
            return
        for fill in _row_fills(left[i][0], remaining):
            row = tuple(
                (value, colors[i][j]) if value else None
                for j, value in enumerate(fill)
            )
            rest_remaining = tuple(r - v for r, v in zip(remaining, fill))
            for rest in rows(i + 1, rest_remaining):
                yield (row, *rest)

    for cells in rows(0, col_sizes):
        yield CompatibleMatrix(cells=cells, row_type=left, col_type=right)


def read_row_by_row(matrix: CompatibleMatrix) -> ColoredComposition:
    """The composition formed by the non-empty cells in row-major order."""
    return tuple(cell for row in matrix.cells for cell in row if cell is not None)


def sigma_product(group, left: ColoredComposition,
                  right: ColoredComposition) -> LinearCombination:
    """Structure constants of sigma_left * sigma_right, keyed by composition."""
    acc: dict = {}
    for matrix in enumerate_compatible_matrices(group, left, right):
        key = read_row_by_row(matrix)
        acc[key] = acc.get(key, 0) + 1
    return LinearCombination(acc)


@lru_cache(maxsize=4096)
def _type_fiber(comp: ColoredComposition) -> tuple:
    return tuple(enumerate_partitions_of_type(comp, limit=None))


def sigma_product_bruteforce(group, left: ColoredComposition,
                             right: ColoredComposition,
                             limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """Expand sigma_left * sigma_right term by term in the semigroup algebra,
    then regroup by type.

    Every type fiber of the expanded sum must carry one constant coefficient;
    anything else means the product of invariant elements failed to be
    invariant, which is an internal bug worth a loud error.
    """
    validate_composition(left, group)
    validate_composition(right, group)
    n = composition_total(left)
    if composition_total(right) != n:
        raise ValueError(
            f"compositions of different totals: {n} vs {composition_total(right)}"
        )
    check_limit(count_partitions_of_type(left) * count_partitions_of_type(right),
                limit, "brute-force sigma product")
    acc: dict = {}
    for p in _type_fiber(left):
        for q in _type_fiber(right):
            product = multiply(group, p, q)
            acc[product] = acc.get(product, 0) + 1

    by_type: dict = {}
    for partition, coeff in acc.items():
        by_type.setdefault(partition_type(partition), {})[partition] = coeff
    coeffs: dict = {}
    for comp in sorted(by_type, key=composition_sort_key):
        seen = by_type[comp]
        fiber = _type_fiber(comp)
        first = seen.get(fiber[0], 0)
        for partition in fiber:
            value = seen.get(partition, 0)
            if value != first:
                raise InvarianceViolationError(
                    f"type fiber {comp} has non-constant coefficients: "
                    f"{fiber[0]} -> {first} but {partition} -> {value}"
                )
        if first:
            coeffs[comp] = first
    return LinearCombination(coeffs)


def invariant_mul(group, x: LinearCombination, y: LinearCombination) -> LinearCombination:
    """Bilinear extension of ``sigma_product`` to sigma-basis combinations."""
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
    ``products`` maps "i,j" to a sparse ``[[basis_index, coefficient], ...]``.
    """
    from .parsing import render_composition

    basis_count = count_colored_compositions(n, group.order)
    check_limit(basis_count * basis_count, limit,
                f"structure constant table at n={n}, |G|={group.order}")
    basis = list(enumerate_colored_compositions(group, n, limit))
    index = {comp: i for i, comp in enumerate(basis)}
    products = {}
    for i, left in enumerate(basis):
        for j, right in enumerate(basis):
            expansion = sigma_product(group, left, right)
            entries = sorted([index[comp], coeff] for comp, coeff in expansion.items())
            products[f"{i},{j}"] = entries
    return {
        "schema_version": 1,
        "group": group.name,
        "n": n,
        "basis": [render_composition(group, comp) for comp in basis],
        "products": products,
    }
