import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreath import limits, partitions
from gwreath.errors import SizeLimitError
from gwreath.groups import cyclic, klein_four, symmetric
from gwreath.limits import check_limit
from gwreath.partitions import (
    apply_permutation,
    coarsenings,
    colored_partition_estimates,
    composition_sort_key,
    count_colored_compositions,
    count_colored_partitions,
    count_partitions_of_sizes,
    count_partitions_of_type,
    enumerate_colored_compositions,
    enumerate_colored_partitions,
    enumerate_partitions_of_type,
    is_refinement,
    partition_type,
    stirling2,
    validate_partition,
)


def oracle_stirling2(n, k):
    """Brute force: classify all functions {1..n} -> {1..k} that are onto,
    divided by block relabelings."""
    if k == 0:
        return 1 if n == 0 else 0
    count = 0
    for assignment in __import__("itertools").product(range(k), repeat=n):
        if set(assignment) == set(range(k)):
            count += 1
    return count // math.factorial(k)


# --- type map -------------------------------------------------------------

def test_type_of_two_block_partition():
    partition = (((1, 3), 5), ((2,), 7))
    assert partition_type(partition) == ((2, 5), (1, 7))


def test_type_one_block():
    assert partition_type((((1, 2, 3, 4), 0),)) == ((4, 0),)


def test_type_all_singletons():
    partition = tuple(((i,), 0) for i in range(1, 5))
    assert partition_type(partition) == ((1, 0),) * 4


# --- the symmetric group action -------------------------------------------

def test_apply_permutation_worked_example():
    # pi maps 1->2, 2->3, 3->1
    pi = (2, 3, 1)
    partition = (((1, 3), 4), ((2,), 9))
    assert apply_permutation(pi, partition) == (((1, 2), 4), ((3,), 9))


def test_apply_identity():
    partition = (((1, 3), 1), ((2,), 0))
    assert apply_permutation((1, 2, 3), partition) == partition


def test_apply_size_mismatch():
    with pytest.raises(ValueError):
        apply_permutation((1, 2), (((1, 2, 3), 0),))


@pytest.mark.parametrize("partition", [
    (((1, 1), 0), ((2,), 0)),  # a member repeated inside one block
    (((2, 1), 0),),
])
def test_validate_partition_needs_strictly_increasing_blocks(partition):
    with pytest.raises(ValueError, match="strictly increasing"):
        validate_partition(partition, cyclic(1), 2)


@settings(deadline=None)
@given(st.data())
def test_action_is_compatible_with_composition(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    pi = tuple(data.draw(st.permutations(range(1, n + 1))))
    rho = tuple(data.draw(st.permutations(range(1, n + 1))))
    G = cyclic(2)
    parts = list(enumerate_colored_partitions(G, n))
    partition = data.draw(st.sampled_from(parts))
    composed = tuple(pi[x - 1] for x in rho)  # x -> pi(rho(x))
    assert apply_permutation(composed, partition) == apply_permutation(
        pi, apply_permutation(rho, partition)
    )


def test_type_is_action_invariant():
    G = cyclic(2)
    for partition in enumerate_colored_partitions(G, 3):
        for pi in permutations(range(1, 4)):
            assert partition_type(apply_permutation(pi, partition)) == partition_type(partition)


# --- enumerators and counts ------------------------------------------------

def test_compositions_n1_trivial_group():
    assert list(enumerate_colored_compositions(cyclic(1), 1)) == [((1, 0),)]


def test_compositions_n2_z2_count_six():
    comps = list(enumerate_colored_compositions(cyclic(2), 2))
    assert len(comps) == 6
    # (2) with two colorings first, then (1,1) with four
    assert comps[:2] == [((2, 0),), ((2, 1),)]


def test_compositions_n3_classical_count():
    assert len(list(enumerate_colored_compositions(cyclic(1), 3))) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_composition_count_formula(n, order):
    # independent evaluation of the closed form
    expected = sum(
        math.comb(n - 1, length - 1) * order**length for length in range(1, n + 1)
    )
    comps = list(enumerate_colored_compositions(cyclic(order), n))
    assert len(comps) == expected
    assert count_colored_compositions(n, order) == expected
    assert len(set(comps)) == expected


def test_compositions_canonically_ordered():
    comps = list(enumerate_colored_compositions(cyclic(2), 3))
    keys = [composition_sort_key(c) for c in comps]
    assert keys == sorted(keys)


def test_partitions_of_type_single_block():
    assert list(enumerate_partitions_of_type(((3, 2),))) == [(((1, 2, 3), 2),)]


def test_partitions_of_type_two_singletons():
    assert len(list(enumerate_partitions_of_type(((1, 0), (1, 0))))) == 2


def test_partitions_of_type_multinomial():
    fiber = list(enumerate_partitions_of_type(((2, 1), (1, 0))))
    assert len(fiber) == 3  # 3!/2!1!
    assert (((1, 2), 1), ((3,), 0)) in fiber
    for partition in fiber:
        validate_partition(partition)
        assert partition_type(partition) == ((2, 1), (1, 0))


@pytest.mark.parametrize("comp", [((4, 0),), ((2, 1), (2, 0)), ((1, 0),) * 4,
                                  ((3, 2), (1, 1))])
def test_partitions_of_type_count(comp):
    fiber = list(enumerate_partitions_of_type(comp))
    assert len(fiber) == count_partitions_of_type(comp)
    assert len(set(fiber)) == len(fiber)


def test_ordered_partition_counts():
    assert len(list(enumerate_colored_partitions(cyclic(1), 1))) == 1
    assert len(list(enumerate_colored_partitions(cyclic(1), 3))) == 13
    assert len(list(enumerate_colored_partitions(cyclic(2), 3))) == 74
    assert len(list(enumerate_colored_partitions(cyclic(1), 4))) == 75


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_partition_count_formula(n, order):
    expected = sum(
        math.factorial(k) * oracle_stirling2(n, k) * order**k for k in range(1, n + 1)
    )
    parts = list(enumerate_colored_partitions(cyclic(order), n))
    assert len(parts) == expected
    assert len(set(parts)) == expected
    assert count_colored_partitions(n, order) == expected


@pytest.mark.parametrize("n,k", [(0, 0), (1, 1), (4, 2), (5, 3), (6, 1), (6, 6), (5, 0)])
def test_stirling_against_bruteforce(n, k):
    assert stirling2(n, k) == oracle_stirling2(n, k)


def test_composition_count_closed_form_matches_sum():
    for n in range(1, 40):
        for order in range(1, 12):
            assert count_colored_compositions(n, order) == sum(
                math.comb(n - 1, length - 1) * order**length for length in range(1, n + 1)
            )


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_composition_count_is_zero_below_one(n, order):
    # the closed form would give a fraction here
    assert count_colored_compositions(n, order) == 0
    assert type(count_colored_compositions(n, order)) is int


def test_partition_count_from_one_row_matches_sum():
    for n in range(0, 60):
        for order in range(0, 8):
            assert count_colored_partitions(n, order) == sum(
                math.factorial(k) * stirling2(n, k) * order**k for k in range(1, n + 1)
            )


def test_partitions_of_sizes_matches_factorials():
    for sizes in [(1,), (5,), (2, 3), (1, 1, 1, 1), (3, 1, 4, 1, 5), (7, 2, 2, 9)]:
        expected = math.factorial(sum(sizes))
        for size in sizes:
            expected //= math.factorial(size)
        assert count_partitions_of_sizes(sizes) == expected
    # a single huge block is one partition, with no factorial to compute
    assert count_partitions_of_sizes((10**6,)) == 1


def chained_enumeration(group, n):
    """The enumeration order by its definition: colored compositions in
    canonical order, then each composition's blocks as ``_partitions_by_sizes``
    walks them, colored in order."""
    for comp in enumerate_colored_compositions(group, n):
        sizes = tuple(size for size, _ in comp)
        for blocks in partitions._partitions_by_sizes(tuple(range(1, n + 1)), sizes):
            yield tuple(zip(blocks, (color for _, color in comp)))


def enumerated_by_type(group, n):
    for comp in enumerate_colored_compositions(group, n):
        yield from enumerate_partitions_of_type(comp)


ENUMERATION_CASES = [(cyclic(m), n) for m in (1, 2, 3) for n in (1, 2, 3)] + [
    (klein_four(), 3), (symmetric(3), 3), (cyclic(1), 6), (cyclic(2), 4), (cyclic(3), 4),
]


@pytest.mark.parametrize("group,n", ENUMERATION_CASES)
def test_enumeration_order_is_the_chain(group, n):
    expected = list(chained_enumeration(group, n))
    assert list(enumerate_colored_partitions(group, n)) == expected
    assert list(enumerated_by_type(group, n)) == expected


def test_shapes_over_the_bound_walked_afresh(monkeypatch):
    # a shape over the one bound of held walks is not held; each reading
    # walks it afresh and yields the same partitions in the same order, and
    # each size sequence misses once across its colorings
    G = symmetric(3)
    expected = {n: list(chained_enumeration(G, n)) for n in (1, 2, 3)}
    held = {sizes: partitions._blocks_of_sizes(sizes)
            for sizes in {tuple(s for s, _ in comp)
                          for n in expected for comp in enumerate_colored_compositions(G, n)}}
    partitions._blocks_of_sizes.cache_clear()
    monkeypatch.setattr(limits, "HELD_INTEGERS", 0)
    try:
        for n, items in expected.items():
            assert list(enumerate_colored_partitions(G, n)) == items
            assert list(enumerated_by_type(G, n)) == items
        assert partitions._blocks_of_sizes.cache_info().misses == len(held) == 1 + 2 + 4
        for sizes, blocks in held.items():
            walked = partitions._blocks_of_sizes(sizes)
            assert not isinstance(walked, tuple)
            assert tuple(walked) == tuple(walked) == blocks
    finally:
        partitions._blocks_of_sizes.cache_clear()


def test_partition_estimates_bound_then_count():
    for n in range(1, 8):
        for order in (1, 2, 5):
            bound, count = colored_partition_estimates(n, order)
            assert bound == math.factorial(n) * order**n <= count
            assert count == count_colored_partitions(n, order)


def test_size_guard_trips():
    with pytest.raises(SizeLimitError) as err:
        list(enumerate_colored_partitions(cyclic(2), 10, limit=100))
    assert err.value.estimate is not None
    assert str(err.value.estimate) in str(err.value)


def test_size_guard_refuses_estimates_too_long_to_print():
    estimate = 10**5000  # over Python's 4300-digit int-to-text default
    with pytest.raises(SizeLimitError) as err:
        check_limit(estimate, 10, "things")
    assert err.value.estimate == estimate
    assert "an estimated 2**16609 or more items" in str(err.value)


# --- the refinement order ---------------------------------------------------

def test_refinement_split_is_refinement():
    assert is_refinement(((2, 3), (2, 3)), ((4, 3),))


def test_refinement_reflexive():
    comp = ((2, 1), (1, 0))
    assert is_refinement(comp, comp)


def test_refinement_color_preservation():
    assert not is_refinement(((2, 1), (2, 0)), ((4, 1),))


@pytest.mark.parametrize("enumerate_", [enumerate_colored_compositions,
                                       enumerate_colored_partitions])
def test_enumerations_refuse_n_zero(enumerate_):
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        list(enumerate_(cyclic(2), 0))


def test_refinement_total_mismatch():
    with pytest.raises(ValueError):
        is_refinement(((2, 0),), ((3, 0),))


def cover_splits(comp):
    """One-step refinements: split one part into two with the same color."""
    out = []
    for i, (size, color) in enumerate(comp):
        for first in range(1, size):
            out.append(comp[:i] + ((first, color), (size - first, color)) + comp[i + 1:])
    return out


def refinement_closure(comp):
    """All refinements of comp, via the transitive closure of cover moves."""
    seen = {comp}
    frontier = [comp]
    while frontier:
        nxt = []
        for current in frontier:
            for split in cover_splits(current):
                if split not in seen:
                    seen.add(split)
                    nxt.append(split)
        frontier = nxt
    return seen


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_refinement_matches_cover_closure(n, order):
    comps = list(enumerate_colored_compositions(cyclic(order), n))
    for coarse in comps:
        finer = refinement_closure(coarse)
        for fine in comps:
            assert is_refinement(fine, coarse) == (fine in finer)


def test_refinement_is_partial_order():
    comps = list(enumerate_colored_compositions(cyclic(2), 4))
    for a in comps:
        assert is_refinement(a, a)
    for a in comps:
        for b in comps:
            if a != b and is_refinement(a, b):
                assert not is_refinement(b, a)
    # transitivity on a spot-check subset to keep the cube tractable
    small = [c for c in comps if len(c) <= 3]
    for a in small:
        for b in small:
            if not is_refinement(a, b):
                continue
            for c in small:
                if is_refinement(b, c):
                    assert is_refinement(a, c)


# --- coarsenings -------------------------------------------------------------

def test_coarsenings_single_part():
    assert coarsenings(((5, 2),)) == [((5, 2),)]


def test_coarsenings_two_equal_colors():
    got = set(coarsenings(((1, 1), (1, 1))))
    assert got == {((1, 1), (1, 1)), ((2, 1),)}


def test_coarsenings_order_over_two_runs():
    # joins of same-colored neighbours, left to right, merged before kept
    assert coarsenings(((1, 0), (2, 0), (1, 1), (1, 0), (1, 0), (3, 0))) == [
        ((3, 0), (1, 1), (5, 0)),
        ((3, 0), (1, 1), (2, 0), (3, 0)),
        ((3, 0), (1, 1), (1, 0), (4, 0)),
        ((3, 0), (1, 1), (1, 0), (1, 0), (3, 0)),
        ((1, 0), (2, 0), (1, 1), (5, 0)),
        ((1, 0), (2, 0), (1, 1), (2, 0), (3, 0)),
        ((1, 0), (2, 0), (1, 1), (1, 0), (4, 0)),
        ((1, 0), (2, 0), (1, 1), (1, 0), (1, 0), (3, 0)),
    ]


def test_coarsenings_blocked_by_colors():
    assert coarsenings(((1, 0), (1, 1))) == [((1, 0), (1, 1))]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coarsenings_agree_with_refinement(n, order):
    comps = list(enumerate_colored_compositions(cyclic(order), n))
    for fine in comps:
        merged = set(coarsenings(fine))
        for coarse in comps:
            assert (coarse in merged) == is_refinement(fine, coarse)


def test_coarsenings_klein_colors():
    comp = ((1, 3), (2, 3), (1, 2))
    got = set(coarsenings(comp))
    assert got == {comp, ((3, 3), (1, 2))}
    assert klein_four().order == 4
