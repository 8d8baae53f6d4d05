import pytest

from gwreath.errors import ParseError
from gwreath.groups import cyclic, klein_four, symmetric
from gwreath.linear import LinearCombination
from gwreath.parsing import (
    detect_kind,
    parse_colored_permutation,
    parse_combination,
    parse_composition,
    parse_operand,
    parse_partition,
    render_colored_permutation,
    render_combination,
    render_composition,
    render_partition,
)
from gwreath.partitions import enumerate_colored_compositions, enumerate_colored_partitions
from gwreath.wreath import enumerate_wreath


def test_partition_round_trip():
    G = cyclic(2)
    for partition in enumerate_colored_partitions(G, 3):
        text = render_partition(G, partition)
        assert parse_partition(text, G) == partition


def test_composition_round_trip():
    G = cyclic(3)
    for comp in enumerate_colored_compositions(G, 3):
        text = render_composition(G, comp)
        assert parse_composition(text, G) == comp


def test_colored_permutation_round_trip():
    G = cyclic(2)
    for u in enumerate_wreath(G, 3):
        text = render_colored_permutation(G, u)
        assert parse_colored_permutation(text, G) == u


def test_whitespace_insensitive():
    G = cyclic(2)
    assert parse_partition(" ( { 1 , 3 } : 1 | { 2 } : 0 ) ", G) == (
        ((1, 3), 1),
        ((2,), 0),
    )
    assert parse_composition("( 2 : 1 | 1 : 0 )", G) == ((2, 1), (1, 0))
    assert parse_colored_permutation(" [ (2:1) (1:0) ] ", G) == ((2, 1), (1, 0))


def test_members_canonicalized():
    G = cyclic(2)
    assert parse_partition("({3,1}:0|{2}:1)", G) == (((1, 3), 0), ((2,), 1))


def test_labels_and_indices():
    K = klein_four()
    assert parse_composition("(2:ab|1:e)", K) == ((2, 3), (1, 0))
    assert parse_composition("(2:3|1:0)", K) == ((2, 3), (1, 0))
    S = symmetric(3)
    assert parse_composition("(2:132)", S) == ((2, 1),)


def test_error_positions():
    G = cyclic(2)
    with pytest.raises(ParseError) as err:
        parse_partition("({1,3}:1|{2}?0)", G)
    assert err.value.position == 12
    with pytest.raises(ParseError) as err:
        parse_composition("(2:5)", G)
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse_composition("(2:1|x:0)", G)
    assert err.value.position == 5


def test_duplicate_member_rejected():
    G = cyclic(2)
    with pytest.raises(ParseError, match="twice"):
        parse_partition("({1,2}:0|{2}:1)", G)


def test_cover_gap_rejected():
    G = cyclic(2)
    with pytest.raises(ParseError):
        parse_partition("({1,3}:0)", G)


def test_n_mismatch_rejected():
    G = cyclic(2)
    with pytest.raises(ParseError):
        parse_partition("({1,2}:0)", G, n=3)
    with pytest.raises(ParseError):
        parse_composition("(2:0)", G, n=3)


def test_permutation_values_validated():
    G = cyclic(2)
    with pytest.raises(ParseError):
        parse_colored_permutation("[(1:0)(1:0)]", G)


def test_unknown_color():
    G = cyclic(2)
    with pytest.raises(ParseError, match="unknown color"):
        parse_composition("(2:banana)", G)


def test_trailing_garbage():
    G = cyclic(2)
    with pytest.raises(ParseError, match="trailing"):
        parse_composition("(2:0)xx", G)


def test_combination_parse_and_render():
    G = cyclic(2)
    kind, combo = parse_combination("sigma(1:0|1:0) + 2*sigma(2:0)", G)
    assert kind == "sigma"
    assert combo == LinearCombination({((1, 0), (1, 0)): 1, ((2, 0),): 2})
    rendered = render_combination(G, kind, combo)
    assert rendered == "2*sigma(2:0) + sigma(1:0|1:0)"
    kind_again, reparsed = parse_combination(rendered, G)
    assert kind_again == "sigma"
    assert reparsed == combo


def test_combination_signs_and_cancellation():
    G = cyclic(2)
    _, combo = parse_combination("-x(2:0) + 3*X(2:1) + x(2:0)", G)
    assert combo == LinearCombination({((2, 1),): 3})
    assert render_combination(G, "x", combo) == "3*X(2:1)"


def test_combination_mixed_kinds_rejected():
    G = cyclic(2)
    with pytest.raises(ParseError, match="mix"):
        parse_combination("sigma(2:0) + x(2:0)", G)


def test_combination_inconsistent_totals_rejected():
    G = cyclic(2)
    with pytest.raises(ParseError):
        parse_combination("sigma(2:0) + sigma(3:0)", G)


def test_render_empty_combination():
    assert render_combination(cyclic(2), "sigma", LinearCombination()) == "0"


def test_render_negative_leading_term():
    G = cyclic(1)
    combo = LinearCombination({((2, 0),): -1, ((1, 0), (1, 0)): 4})
    assert render_combination(G, "sigma", combo) == "-sigma(2:0) + 4*sigma(1:0|1:0)"


def test_detect_kind():
    assert detect_kind("({1}:0)") == "partition"
    assert detect_kind("[(1:0)]") == "wreath"
    assert detect_kind("sigma(2:0)") == "combination"
    assert detect_kind("2*x(2:0)") == "combination"
    with pytest.raises(ParseError):
        detect_kind("(2:0)")


def test_parse_operand_kinds():
    G = cyclic(2)
    assert parse_operand(" ({1}:1|{2}:0)", G, 2) == ("partition", (((1,), 1), ((2,), 0)))
    assert parse_operand("[(2:1)(1:0)]", G, 2) == ("wreath", ((2, 1), (1, 0)))
    assert parse_operand("sigma(2:0) - sigma(1:1|1:0)", G, 2) == (
        "sigma", LinearCombination({((2, 0),): 1, ((1, 1), (1, 0)): -1}))
    assert parse_operand("2*X(2:1)", G, 2) == ("x", LinearCombination({((2, 1),): 2}))
    with pytest.raises(ParseError, match="bare"):
        parse_operand("(2:0)", G, 2)
