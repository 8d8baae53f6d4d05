import itertools
import random

import pytest

from gwreath.errors import NotAChamberError, SizeLimitError
from gwreath.groups import cyclic, klein_four, symmetric
from gwreath.partitions import enumerate_colored_partitions
from gwreath.semigroup import multiply
from gwreath.wreath import (
    chamber_product_direct,
    chamber_to_wreath,
    count_wreath,
    descent_composition,
    enumerate_wreath,
    is_chamber,
    sorting_permutation,
    wreath_identity,
    wreath_inverse,
    wreath_mul,
    wreath_to_chamber,
)


def test_identity_element():
    G = cyclic(3)
    I = wreath_identity(3)
    for u in enumerate_wreath(G, 3):
        assert wreath_mul(G, u, I) == u
        assert wreath_mul(G, I, u) == u


def test_hand_example_z2():
    G = cyclic(2)
    u = ((2, 1), (1, 0))
    v = ((2, 0), (1, 1))
    assert wreath_mul(G, u, v) == wreath_identity(2)
    assert wreath_inverse(G, u) == v


def test_mul_size_mismatch():
    G = cyclic(2)
    with pytest.raises(ValueError):
        wreath_mul(G, wreath_identity(2), wreath_identity(3))


def test_associativity_random():
    rng = random.Random(5)
    for G in (cyclic(3), symmetric(3)):
        for n in (2, 3, 4):
            elements = list(enumerate_wreath(G, n))
            for _ in range(300):
                u, v, w = (elements[rng.randrange(len(elements))] for _ in range(3))
                assert wreath_mul(G, wreath_mul(G, u, v), w) == wreath_mul(
                    G, u, wreath_mul(G, v, w)
                )


def test_inverse_identity():
    assert wreath_inverse(cyclic(4), wreath_identity(3)) == wreath_identity(3)


@pytest.mark.parametrize("G,n", [(cyclic(2), 3), (cyclic(3), 3), (cyclic(3), 2),
                                 (symmetric(3), 2)])
def test_inverse_exhaustive(G, n):
    I = wreath_identity(n)
    for u in enumerate_wreath(G, n):
        v = wreath_inverse(G, u)
        assert wreath_mul(G, u, v) == I
        assert wreath_mul(G, v, u) == I


def test_descent_composition_worked_example():
    for G, g, h in ((cyclic(2), 1, 0), (cyclic(7), 2, 5), (klein_four(), 3, 1)):
        u = ((3, g), (6, g), (4, g), (1, h), (2, h), (5, h), (8, g), (7, g))
        assert descent_composition(u) == ((2, g), (1, g), (3, h), (1, g), (1, g))
        assert G.order > 1


def test_descent_composition_identity():
    assert descent_composition(wreath_identity(4)) == ((4, 0),)


def test_descent_composition_decreasing():
    u = tuple((v, 0) for v in range(4, 0, -1))
    assert descent_composition(u) == ((1, 0),) * 4


def cuts_after(u):
    """The positions i (1-based) after which a colored descent cuts u: the
    colors of u_i and u_(i+1) differ, or the value drops."""
    return {i for i in range(1, len(u))
            if u[i - 1][1] != u[i][1] or u[i - 1][0] > u[i][0]}


@pytest.mark.parametrize("G,top", [
    (cyclic(1), 5), (cyclic(2), 4), (symmetric(3), 3), (klein_four(), 3),
])
def test_descent_composition_matches_definition(G, top):
    for n in range(1, top + 1):
        for u in enumerate_wreath(G, n):
            comp = descent_composition(u)
            ends = list(itertools.accumulate(size for size, _ in comp))
            assert ends[-1] == n
            assert set(ends[:-1]) == cuts_after(u)
            # each part carries the color of its first position
            starts = [0, *ends[:-1]]
            assert [color for _, color in comp] == [u[s][1] for s in starts]


def test_descent_fibers_cover_everything():
    for G, n in ((cyclic(2), 3), (cyclic(3), 2)):
        total = 0
        seen = set()
        by_comp = {}
        for u in enumerate_wreath(G, n):
            comp = descent_composition(u)
            by_comp.setdefault(comp, []).append(u)
            total += 1
            seen.add(u)
        assert total == count_wreath(n, G.order)
        assert len(seen) == total
        assert sum(len(v) for v in by_comp.values()) == total


def test_enumerate_counts():
    assert len(list(enumerate_wreath(cyclic(1), 1))) == 1
    assert len(list(enumerate_wreath(cyclic(2), 2))) == 8
    assert len(list(enumerate_wreath(cyclic(3), 3))) == 162
    with pytest.raises(SizeLimitError):
        list(enumerate_wreath(cyclic(4), 10, limit=1000))


def test_chamber_bijection_round_trip():
    for G, n in ((cyclic(2), 3), (cyclic(2), 2), (cyclic(1), 3)):
        for u in enumerate_wreath(G, n):
            chamber = wreath_to_chamber(u)
            assert is_chamber(chamber)
            assert chamber_to_wreath(chamber) == u


def test_chamber_to_wreath_rejects_fat_blocks():
    with pytest.raises(NotAChamberError):
        chamber_to_wreath((((1, 2), 0),))


def test_wreath_to_chamber_of_identity():
    assert wreath_to_chamber(wreath_identity(3)) == (((1,), 0), ((2,), 0), ((3,), 0))


def test_left_ideal_products_are_chambers():
    for G, n in ((cyclic(1), 3), (cyclic(2), 3), (cyclic(2), 2)):
        chambers = [wreath_to_chamber(u) for u in enumerate_wreath(G, n)]
        for partition in enumerate_colored_partitions(G, n):
            for chamber in chambers:
                product = multiply(G, partition, chamber)
                assert is_chamber(product)
                assert product == chamber_product_direct(G, partition, chamber)


def test_sorting_permutation_structure():
    G = cyclic(2)
    partition = (((1, 3), 0), ((2, 4), 1))
    chamber = wreath_to_chamber(((3, 1), (1, 0), (4, 1), (2, 0)))
    tau = sorting_permutation(partition, chamber)
    values = [chamber[t - 1][0][0] for t in tau]
    # first block {1,3} then {2,4}, each segment's positions increasing
    assert sorted(values[:2]) == [1, 3]
    assert sorted(values[2:]) == [2, 4]
    assert list(tau[:2]) == sorted(tau[:2])
    assert list(tau[2:]) == sorted(tau[2:])


def test_chamber_product_direct_requires_chamber():
    G = cyclic(2)
    with pytest.raises(NotAChamberError):
        chamber_product_direct(G, (((1, 2), 0),), (((1, 2), 0),))
