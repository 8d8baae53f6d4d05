import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwreath.linear import LinearCombination

keys = st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=3))
combos = st.dictionaries(keys, st.integers(min_value=-50, max_value=50), max_size=6).map(
    LinearCombination
)


def test_zero_coefficients_dropped():
    lc = LinearCombination({"a": 0, "b": 2})
    assert "a" not in lc
    assert lc.coefficient("b") == 2
    assert len(lc) == 1


def test_duplicate_keys_sum():
    lc = LinearCombination([("a", 1), ("a", 2), ("b", 1), ("b", -1)])
    assert lc.coefficient("a") == 3
    assert "b" not in lc


def test_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        LinearCombination({"a": 1.5})


def test_basis_and_equality():
    assert LinearCombination.basis("x") == LinearCombination({"x": 1})
    assert LinearCombination() != LinearCombination({"x": 1})
    assert not LinearCombination()


def test_add_cancels():
    a = LinearCombination({"x": 2, "y": 1})
    b = LinearCombination({"x": -2, "z": 5})
    assert a + b == LinearCombination({"y": 1, "z": 5})


def test_scalar_multiplication():
    a = LinearCombination({"x": 3})
    assert 2 * a == LinearCombination({"x": 6})
    assert a * -1 == -a
    assert 0 * a == LinearCombination()


@given(combos, combos, st.integers(min_value=-9, max_value=9))
def test_results_never_hold_a_zero_coefficient(a, b, r):
    for result in (a + b, a - b, -a, r * a, a * r, a - a):
        assert all(coeff != 0 for _, coeff in result.items())


@given(combos, combos, combos)
def test_addition_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + LinearCombination() == a
    assert a - a == LinearCombination()


@given(combos, combos, st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-9, max_value=9))
def test_scalar_laws(a, b, r, s):
    assert r * (a + b) == r * a + r * b
    assert (r + s) * a == r * a + s * a
    assert (r * s) * a == r * (s * a)


def test_exactness_with_huge_coefficients():
    big = 10**40
    a = LinearCombination({"x": big})
    assert (a + a).coefficient("x") == 2 * big
    assert (big * a).coefficient("x") == big * big
