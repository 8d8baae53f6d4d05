import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreath import invariant, partitions
from gwreath.errors import InvarianceViolationError, SizeLimitError
from gwreath.groups import cyclic, from_table, klein_four, symmetric
from gwreath.invariant import (
    CompatibleMatrix,
    enumerate_compatible_matrices,
    invariant_mul,
    matrix_is_compatible,
    read_row_by_row,
    sigma_product,
    sigma_product_bruteforce,
    sigma_vector,
    structure_constant_table,
)
from gwreath.linear import LinearCombination
from gwreath.partitions import (
    composition_total,
    count_partitions_of_type,
    enumerate_colored_compositions,
)


def oracle_matrices(group, left, right):
    """Independent compatible-matrix enumeration: try every cell-value grid
    outright and filter by the margin and color conditions."""
    k, l = len(left), len(right)
    n = composition_total(left)
    found = []
    for values in itertools.product(range(n + 1), repeat=k * l):
        grid = [values[i * l:(i + 1) * l] for i in range(k)]
        if any(sum(row) != size for row, (size, _) in zip(grid, left)):
            continue
        if any(
            sum(grid[i][j] for i in range(k)) != right[j][0] for j in range(l)
        ):
            continue
        cells = tuple(
            tuple(
                (grid[i][j], group.mul(right[j][1], left[i][1])) if grid[i][j] else None
                for j in range(l)
            )
            for i in range(k)
        )
        found.append(CompatibleMatrix(cells=cells, row_type=left, col_type=right))
    return found


def test_single_block_pair_one_matrix():
    G = cyclic(5)
    left, right = ((4, 2),), ((4, 3),)
    matrices = list(enumerate_compatible_matrices(G, left, right))
    assert matrices == [
        CompatibleMatrix(cells=(((4, G.mul(3, 2)),),), row_type=left, col_type=right)
    ]


def test_two_singletons_pair_two_matrices():
    G = cyclic(1)
    comp = ((1, 0), (1, 0))
    matrices = list(enumerate_compatible_matrices(G, comp, comp))
    assert len(matrices) == 2
    patterns = {tuple(tuple(bool(c) for c in row) for row in m.cells) for m in matrices}
    assert patterns == {((True, False), (False, True)), ((False, True), (True, False))}


def test_worked_matrix_in_z7():
    G = cyclic(7)
    left = ((4, 1), (6, 2))
    right = ((3, 3), (5, 4), (2, 5))
    matrix = CompatibleMatrix(
        cells=(
            ((2, G.mul(3, 1)), None, (2, G.mul(5, 1))),
            ((1, G.mul(3, 2)), (5, G.mul(4, 2)), None),
        ),
        row_type=left,
        col_type=right,
    )
    assert matrix_is_compatible(G, matrix)
    assert matrix in list(enumerate_compatible_matrices(G, left, right))
    assert read_row_by_row(matrix) == (
        (2, G.mul(3, 1)),
        (2, G.mul(5, 1)),
        (1, G.mul(3, 2)),
        (5, G.mul(4, 2)),
    )


def test_read_row_by_row_simple():
    one_by_one = CompatibleMatrix(cells=(((3, 4),),), row_type=((3, 0),), col_type=((3, 0),))
    assert read_row_by_row(one_by_one) == ((3, 4),)
    diagonal = CompatibleMatrix(
        cells=(((2, 5), None), (None, (3, 6))),
        row_type=((2, 0), (3, 0)),
        col_type=((2, 0), (3, 0)),
    )
    assert read_row_by_row(diagonal) == ((2, 5), (3, 6))


@pytest.mark.parametrize("left,right,order", [
    (((2, 0), (1, 1)), ((1, 1), (2, 0)), 2),
    (((2, 1), (2, 2)), ((1, 0), (3, 2)), 3),
    (((1, 0), (1, 0), (1, 0)), ((2, 0), (1, 0)), 1),
])
def test_enumeration_against_bruteforce_oracle(left, right, order):
    check_against_oracle(cyclic(order), left, right)


def check_against_oracle(G, left, right):
    fast = list(enumerate_compatible_matrices(G, left, right))
    slow = oracle_matrices(G, left, right)
    assert len(fast) == len(set(fast))
    assert fast == slow
    for matrix in fast:
        assert matrix_is_compatible(G, matrix)


def size_sequences(n):
    for length in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), length - 1):
            yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))


# every pair of size sequences of one total n <= 5 whose oracle tries at
# most 2 * 10^4 grids, colored in S_3 so that row and column colors do not
# all commute
ORACLE_PAIRS = [(a, b) for n in range(1, 6) for a in size_sequences(n)
                for b in size_sequences(n) if (n + 1) ** (len(a) * len(b)) <= 2 * 10**4]


@pytest.mark.parametrize("row_sizes,col_sizes", ORACLE_PAIRS)
def test_enumeration_order_matches_oracle_on_every_small_shape(row_sizes, col_sizes):
    left = tuple((size, (2 * i + 1) % 6) for i, size in enumerate(row_sizes))
    right = tuple((size, (3 * i + 2) % 6) for i, size in enumerate(col_sizes))
    check_against_oracle(symmetric(3), left, right)


def commute(G, a, b):
    return G.mul(a, b) == G.mul(b, a)


@pytest.mark.parametrize("left,right", [
    (((1, 1), (2, 2)), ((2, 3), (1, 4))),
    (((2, 1), (1, 5)), ((1, 2), (1, 3), (1, 4))),
    (((1, 3), (1, 1), (1, 2)), ((1, 5), (2, 1))),
])
def test_enumeration_against_bruteforce_oracle_nonabelian(left, right):
    G = symmetric(3)
    assert any(not commute(G, r, c) for _, r in left for _, c in right)
    check_against_oracle(G, left, right)
    assert sigma_product(G, left, right) == sigma_product_bruteforce(G, left, right)


def test_enumeration_order_pinned_in_s3():
    # rows are filled in lexicographic order: row 0 takes (0, 1) before
    # (1, 0).  Each cell color is col_color * row_color, and no row color
    # here commutes with any column color (3*1 = 2 but 1*3 = 5, ...).
    G = symmetric(3)
    left, right = ((1, 1), (2, 2)), ((2, 3), (1, 4))
    assert not any(commute(G, r, c) for _, r in left for _, c in right)
    assert list(enumerate_compatible_matrices(G, left, right)) == [
        CompatibleMatrix(cells=((None, (1, 5)), ((2, 5), None)),
                         row_type=left, col_type=right),
        CompatibleMatrix(cells=(((1, 2), None), ((1, 5), (1, 1))),
                         row_type=left, col_type=right),
    ]


def relabeled(G, new):
    """An isomorphic copy of G in which element a is renumbered new[a]."""
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[new[a]][new[b]] = new[G.mul(a, b)]
    return from_table(table)


def test_skeletons_cached_once_per_shape():
    # the skeleton of a compatible matrix depends on the part sizes only,
    # not on the colors or on the group
    S3 = symmetric(3)
    groups = (S3, relabeled(S3, (0, 3, 5, 1, 2, 4)))
    pairs = [(((1, 1), (2, 2)), ((2, 3), (1, 4))),
             (((1, 4), (2, 0)), ((2, 5), (1, 2)))]
    invariant._skeletons.cache_clear()
    for G in groups:
        for left, right in pairs:
            assert sigma_product(G, left, right) == sigma_product_bruteforce(G, left, right)
    assert invariant._skeletons.cache_info().misses == 1


def test_uncached_shapes_walked_afresh(monkeypatch):
    # a shape with possibly more tables than _CACHED_TABLES is not held;
    # the walk gives the same products
    G = symmetric(3)
    comps = list(enumerate_colored_compositions(G, 3))[::7]
    cached = {(a, b): sigma_product(G, a, b) for a in comps for b in comps}
    invariant._skeletons.cache_clear()
    monkeypatch.setattr(invariant, "_CACHED_TABLES", 0)
    try:
        for (a, b), product in cached.items():
            assert sigma_product(G, a, b) == product
            assert invariant._skeletons(tuple(s for s, _ in a), tuple(s for s, _ in b)) is None
    finally:
        invariant._skeletons.cache_clear()


def test_every_reading_is_a_composition():
    G = klein_four()
    left = ((2, 1), (2, 3))
    right = ((1, 2), (3, 0))
    for matrix in enumerate_compatible_matrices(G, left, right):
        reading = read_row_by_row(matrix)
        assert all(size >= 1 for size, _ in reading)
        assert composition_total(reading) == 4


def test_sigma_identity_left_and_right():
    for G, n in ((cyclic(2), 3), (cyclic(3), 2)):
        one = ((n, 0),)
        for comp in enumerate_colored_compositions(G, n):
            assert sigma_product(G, one, comp) == LinearCombination.basis(comp)
            assert sigma_product(G, comp, one) == LinearCombination.basis(comp)


def test_sigma_doubling_classical():
    G = cyclic(1)
    comp = ((1, 0), (1, 0))
    assert sigma_product(G, comp, comp) == LinearCombination({comp: 2})


def test_sigma_color_squaring():
    G = cyclic(2)
    comp = ((2, 1),)
    assert sigma_product(G, comp, comp) == LinearCombination.basis(((2, 0),))


def test_total_mass_conserved():
    # the expansion preserves the number of (P, Q) pairs
    G = cyclic(2)
    comps = list(enumerate_colored_compositions(G, 3))
    for left in comps:
        for right in comps:
            expansion = sigma_product(G, left, right)
            mass = sum(
                coeff * count_partitions_of_type(comp)
                for comp, coeff in expansion.items()
            )
            assert mass == count_partitions_of_type(left) * count_partitions_of_type(right)


@pytest.mark.parametrize("G,n", [(cyclic(1), 3), (cyclic(2), 2), (cyclic(2), 3),
                                 (cyclic(3), 2), (symmetric(3), 2)])
def test_bruteforce_agrees(G, n):
    comps = list(enumerate_colored_compositions(G, n))
    for left in comps:
        for right in comps:
            assert sigma_product(G, left, right) == sigma_product_bruteforce(G, left, right)


def test_bruteforce_identity_case():
    G = cyclic(2)
    for comp in enumerate_colored_compositions(G, 3):
        assert sigma_product_bruteforce(G, ((3, 0),), comp) == LinearCombination.basis(comp)


def test_oracle_holds_no_fiber_over_the_bound(monkeypatch):
    # a type fiber over _CACHED_POINTS is walked afresh on each call and not
    # kept; the products are the same
    G = cyclic(2)
    comps = list(enumerate_colored_compositions(G, 3))[::3]
    expected = {(a, b): sigma_product_bruteforce(G, a, b) for a in comps for b in comps}
    invariant._type_fiber.cache_clear()
    partitions._blocks_of_sizes.cache_clear()
    monkeypatch.setattr(partitions, "_CACHED_POINTS", 0)
    try:
        for (a, b), product in expected.items():
            assert sigma_product_bruteforce(G, a, b) == product
        for comp in enumerate_colored_compositions(G, 3):
            assert invariant._type_fiber(comp) is None
    finally:
        invariant._type_fiber.cache_clear()
        partitions._blocks_of_sizes.cache_clear()


def test_oracle_refuses_a_non_invariant_product(monkeypatch):
    # every product in sigma(1|1) * sigma(1|1) is its left factor, so each
    # partition of the fiber has coefficient 2; a product that moves one of
    # them onto the other leaves 4 and 0
    G = cyclic(1)
    comp = ((1, 0), (1, 0))
    assert sigma_product_bruteforce(G, comp, comp) == LinearCombination({comp: 2})
    moved = {(((2,), 0), ((1,), 0)): (((1,), 0), ((2,), 0))}
    real = invariant.multiply

    def planted(group, left, right):
        product = real(group, left, right)
        return moved.get(product, product)

    monkeypatch.setattr(invariant, "multiply", planted)
    with pytest.raises(InvarianceViolationError) as raised:
        sigma_product_bruteforce(G, comp, comp)
    assert str(raised.value) == (
        "type fiber ((1, 0), (1, 0)) has non-constant coefficients: "
        "(((1,), 0), ((2,), 0)) -> 4 but (((2,), 0), ((1,), 0)) -> 0"
    )


@pytest.mark.parametrize("left,message", [
    ((), "at least one part"),
    (((1, 0, 0),), "must be \\(size, color\\) pairs"),
    (((0, 0),), "part sizes must be positive integers"),
    (((1, 2),), "color 2 out of range 0..1"),
])
def test_malformed_composition_refused(left, message):
    with pytest.raises(ValueError, match=message):
        sigma_product(cyclic(2), left, ((1, 0),))


def test_mismatched_totals():
    G = cyclic(2)
    with pytest.raises(ValueError):
        sigma_product(G, ((2, 0),), ((3, 0),))
    with pytest.raises(ValueError):
        sigma_product_bruteforce(G, ((2, 0),), ((3, 0),))


def test_invariant_mul_identity():
    G = cyclic(2)
    one = LinearCombination.basis(((3, 0),))
    for comp in enumerate_colored_compositions(G, 3):
        x = LinearCombination.basis(comp)
        assert invariant_mul(G, one, x) == x


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_invariant_mul_bilinear(data):
    G = cyclic(2)
    comps = list(enumerate_colored_compositions(G, 2))
    def draw_combo():
        return LinearCombination({
            comp: data.draw(st.integers(min_value=-3, max_value=3))
            for comp in data.draw(st.lists(st.sampled_from(comps), max_size=3))
        })
    x, y, z = draw_combo(), draw_combo(), draw_combo()
    assert invariant_mul(G, x, y + z) == invariant_mul(G, x, y) + invariant_mul(G, x, z)
    assert invariant_mul(G, x + y, z) == invariant_mul(G, x, z) + invariant_mul(G, y, z)


def test_invariant_mul_associative_random():
    import random

    G = cyclic(2)
    comps = list(enumerate_colored_compositions(G, 3))
    rng = random.Random(3)
    for _ in range(20):
        x, y, z = (LinearCombination.basis(comps[rng.randrange(len(comps))])
                   for _ in range(3))
        assert invariant_mul(G, invariant_mul(G, x, y), z) == invariant_mul(
            G, x, invariant_mul(G, y, z)
        )


def test_invariant_mul_size_guard():
    # each term pair has at most min(|fiber a|, |fiber b|) compatible
    # matrices: 4!/(2!1!1!) = 12 against 4! = 24, and 4 against 12
    G = cyclic(1)
    finest = ((1, 0),) * 4
    x = LinearCombination({finest: 1, ((1, 0), (3, 0)): 2})
    y = LinearCombination.basis(((2, 0), (1, 0), (1, 0)))
    with pytest.raises(SizeLimitError) as caught:
        invariant_mul(G, x, y, limit=15)
    assert caught.value.estimate == 16
    assert invariant_mul(G, x, y, limit=16) == invariant_mul(G, x, y, limit=None)


def test_sigma_vector():
    G = cyclic(2)
    vec = sigma_vector(G, ((2, 1), (1, 0)))
    assert len(vec) == 3
    assert all(coeff == 1 for _, coeff in vec.items())


def test_structure_constant_table_classical_n2():
    table = structure_constant_table(cyclic(1), 2)
    assert table["schema_version"] == 1
    assert table["basis"] == ["(2:0)", "(1:0|1:0)"]
    assert table["products"] == {
        "0,0": [[0, 1]],
        "0,1": [[1, 1]],
        "1,0": [[1, 1]],
        "1,1": [[1, 2]],
    }


def test_structure_constant_table_closed():
    table = structure_constant_table(cyclic(2), 2)
    size = len(table["basis"])
    for key, entries in table["products"].items():
        i, j = map(int, key.split(","))
        assert 0 <= i < size and 0 <= j < size
        for index, coeff in entries:
            assert 0 <= index < size
            assert coeff > 0


def test_structure_constant_table_n1_color_products():
    G = cyclic(3)
    table = structure_constant_table(G, 1)
    basis = table["basis"]
    assert len(basis) == 3
    # sigma_(1:g) * sigma_(1:h) = sigma_(1:hg)
    for i in range(3):
        for j in range(3):
            assert table["products"][f"{i},{j}"] == [[G.mul(j, i), 1]]


@pytest.mark.parametrize("G,n", [(symmetric(3), 2), (klein_four(), 2), (cyclic(3), 3)])
def test_structure_constant_table_matches_pairwise_products(G, n):
    # the table computes one row per orbit of recolorings; every entry must
    # still be the product of its own pair
    table = structure_constant_table(G, n)
    basis = list(enumerate_colored_compositions(G, n))
    index = {comp: i for i, comp in enumerate(basis)}
    assert len(table["products"]) == len(basis) ** 2
    for i, left in enumerate(basis):
        for j, right in enumerate(basis):
            expansion = sigma_product(G, left, right)
            assert table["products"][f"{i},{j}"] == sorted(
                [index[comp], coeff] for comp, coeff in expansion.items())
