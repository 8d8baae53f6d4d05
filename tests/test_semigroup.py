import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreath.groups import cyclic, symmetric
from gwreath.partitions import apply_permutation, enumerate_colored_partitions
from gwreath.semigroup import idempotents, identity_partition, multiply, power
from gwreath.verify import check_identities


def test_identity_partition():
    assert identity_partition(3) == (((1, 2, 3), 0),)
    with pytest.raises(ValueError):
        identity_partition(0)


@pytest.mark.parametrize("order,n", [(1, 3), (2, 2), (2, 3)])
def test_identity_element_both_sides(order, n):
    G = cyclic(order)
    one = identity_partition(n)
    for partition in enumerate_colored_partitions(G, n):
        assert multiply(G, one, partition) == partition
        assert multiply(G, partition, one) == partition


def test_hand_example_z2():
    # (({1},g),({2},e)) * (({1,2},g)) = (({1},e),({2},g))
    G = cyclic(2)
    left = (((1,), 1), ((2,), 0))
    right = (((1, 2), 1),)
    assert multiply(G, left, right) == (((1,), 0), ((2,), 1))


@pytest.mark.parametrize("order,n", [(2, 3), (3, 2)])
def test_square_squares_the_colors(order, n):
    # only the diagonal intersections survive in P*P
    G = cyclic(order)
    for partition in enumerate_colored_partitions(G, n):
        expected = tuple(
            (block, G.mul(color, color)) for block, color in partition
        )
        assert multiply(G, partition, partition) == expected


def test_multiply_mismatched_ground_sets():
    G = cyclic(2)
    with pytest.raises(ValueError):
        multiply(G, identity_partition(2), identity_partition(3))


@pytest.mark.parametrize("left,right,sizes", [
    (identity_partition(2), identity_partition(3), (2, 3)),
    (identity_partition(3), identity_partition(2), (3, 2)),
    ((((1,), 0), ((2,), 1), ((3,), 0)), (((1, 2), 1),), (3, 2)),
    ((((1,), 1),), (((2,), 0), ((1, 3), 1)), (1, 3)),
])
def test_multiply_mismatched_ground_sets_message(left, right, sizes):
    with pytest.raises(ValueError) as err:
        multiply(cyclic(2), left, right)
    assert str(err.value) == (
        f"partitions of different ground sets: 1..{sizes[0]} vs 1..{sizes[1]}"
    )


def product_by_definition(group, left, right):
    """((B_i, g_i)) * ((C_j, h_j)) = ((B_i ∩ C_j, h_j * g_i)), row-major over
    (i, j), empty intersections omitted."""
    return tuple(
        (tuple(sorted(set(block) & set(right_block))), group.table[h][g])
        for block, g in left
        for right_block, h in right
        if set(block) & set(right_block)
    )


@st.composite
def colored_partitions(draw, order, n):
    """An ordered colored partition of 1..n: points shuffled, then cut into
    blocks, so singleton and multi-element blocks both occur."""
    points = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    return tuple(
        (tuple(sorted(points[a:b])), draw(st.integers(min_value=0, max_value=order - 1)))
        for a, b in zip(bounds, bounds[1:])
    )


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_multiply_matches_definition(data):
    G = data.draw(st.sampled_from([symmetric(3), cyclic(1), cyclic(2), cyclic(3)]))
    n = data.draw(st.integers(min_value=1, max_value=6))
    left = data.draw(colored_partitions(G.order, n))
    right = data.draw(colored_partitions(G.order, n))
    assert multiply(G, left, right) == product_by_definition(G, left, right)


def test_block_count_never_drops():
    G = cyclic(2)
    elements = list(enumerate_colored_partitions(G, 3))
    for left in elements:
        for right in elements:
            assert len(multiply(G, left, right)) >= len(left)


def test_associativity_exhaustive_small():
    for G, n in ((cyclic(1), 3), (cyclic(2), 2)):
        elements = list(enumerate_colored_partitions(G, n))
        for a in elements:
            for b in elements:
                ab = multiply(G, a, b)
                for c in elements:
                    assert multiply(G, ab, c) == multiply(G, a, multiply(G, b, c))


def test_associativity_randomized_n4():
    G = cyclic(2)
    elements = list(enumerate_colored_partitions(G, 4))
    rng = random.Random(7)
    for _ in range(10_000):
        a, b, c = (elements[rng.randrange(len(elements))] for _ in range(3))
        assert multiply(G, multiply(G, a, b), c) == multiply(G, a, multiply(G, b, c))


def test_power_basics():
    G = cyclic(2)
    partition = (((1,), 1), ((2,), 0))
    assert power(G, partition, 1) == partition
    assert power(G, partition, 0) == identity_partition(2)
    assert power(G, (((1, 2), 1),), 2) == (((1, 2), 0),)
    with pytest.raises(ValueError):
        power(G, partition, -1)


@pytest.mark.parametrize("order,n", [(1, 3), (2, 3), (3, 2)])
def test_exponent_identity_exhaustive(order, n):
    G = cyclic(order)
    for partition in enumerate_colored_partitions(G, n):
        assert power(G, partition, G.order + 1) == partition


def test_check_identities_trivial_group_left_regular_band():
    for n in (1, 2, 3, 4):
        report = check_identities(cyclic(1), n)
        assert report["passed"]
        assert report["failures"] == []


def test_check_identities_z2():
    for n in (1, 2, 3):
        assert check_identities(cyclic(2), n)["passed"]


def test_check_identities_s3():
    report = check_identities(symmetric(3), 2)
    assert report["passed"]
    assert report["element_count"] == 6 + 2 * 36  # k!S(2,k)6^k


def test_check_identities_sampled_deterministic():
    a = check_identities(cyclic(2), 3, mode="sampled", samples=500, seed=11)
    b = check_identities(cyclic(2), 3, mode="sampled", samples=500, seed=11)
    assert a == b
    assert a["passed"]
    assert a["seed"] == 11


def test_idempotents_trivial_group_everything():
    assert len(idempotents(cyclic(1), 3)) == 13


def test_idempotents_z2_n1():
    assert idempotents(cyclic(2), 1) == [(((1,), 0),)]


def test_idempotents_z3_n2():
    found = idempotents(cyclic(3), 2)
    assert len(found) == 3
    assert all(color == 0 for partition in found for _, color in partition)


@pytest.mark.parametrize("order,n", [(2, 3), (3, 2)])
def test_idempotents_are_identity_colored(order, n):
    G = cyclic(order)
    found = set(idempotents(G, n))
    for partition in enumerate_colored_partitions(G, n):
        expected = all(color == 0 for _, color in partition)
        assert (partition in found) == expected


def test_idempotents_closed_and_left_regular():
    # the identity-colored elements form a left regular band: closed,
    # idempotent, and x*y*x = x*y
    G = cyclic(2)
    band = idempotents(G, 3)
    band_set = set(band)
    for x in band:
        for y in band:
            xy = multiply(G, x, y)
            assert xy in band_set
            assert multiply(G, xy, x) == xy


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_action_equivariance(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    G = cyclic(2)
    elements = list(enumerate_colored_partitions(G, n))
    left = data.draw(st.sampled_from(elements))
    right = data.draw(st.sampled_from(elements))
    pi = tuple(data.draw(st.permutations(range(1, n + 1))))
    assert apply_permutation(pi, multiply(G, left, right)) == multiply(
        G, apply_permutation(pi, left), apply_permutation(pi, right)
    )


def test_action_equivariance_exhaustive_n3_trivial():
    G = cyclic(1)
    elements = list(enumerate_colored_partitions(G, 3))
    for left in elements:
        for right in elements:
            product = multiply(G, left, right)
            for pi in permutations(range(1, 4)):
                assert apply_permutation(pi, product) == multiply(
                    G, apply_permutation(pi, left), apply_permutation(pi, right)
                )
