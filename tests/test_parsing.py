import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreath.errors import ParseError
from gwreath.groups import cyclic, from_table, klein_four, symmetric
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


@pytest.mark.parametrize("parse,text,position", [
    (parse_combination, "sigma(\u00b2:0)", 6),
    (parse_partition, "({1,\u00b2}:0)", 4),
    (parse_colored_permutation, "[(\u00b2:0)]", 2),
    (parse_combination, "\u00b2*sigma(1:0)", 0),
])
def test_digits_that_are_not_decimal_are_parse_errors(parse, text, position):
    # "\u00b2" (superscript two) passes str.isdigit but int() refuses it
    with pytest.raises(ParseError) as err:
        parse(text, cyclic(2))
    assert err.value.position == position


def test_a_non_decimal_color_is_an_unknown_color():
    with pytest.raises(ParseError, match="unknown color '\u00b2'") as err:
        parse_composition("(1:\u00b2)", cyclic(3))
    assert err.value.position == 3


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
    assert parse_operand(" 0\t", G, 2) == (None, LinearCombination())
    with pytest.raises(ParseError, match="bare"):
        parse_operand("(2:0)", G, 2)


# Every printed element reads back as itself.  The file group has labels of
# several characters, one of them ("2") also the index of another element,
# so that the label wins.
ROUND_TRIP_GROUPS = [
    cyclic(3),
    klein_four(),
    symmetric(3),
    from_table([[(a + b) % 4 for b in range(4)] for a in range(4)],
               labels=["e", "r_1", "2", "R3x"], name="file:c4"),
]


@st.composite
def compositions(draw, order, n):
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    sizes, size = [], 1
    for cut in cuts:
        if cut:
            sizes.append(size)
            size = 0
        size += 1
    sizes.append(size)
    return tuple((size, draw(st.integers(0, order - 1))) for size in sizes)


@pytest.mark.parametrize("G", ROUND_TRIP_GROUPS, ids=lambda G: G.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_grammar_round_trip(G, data, n):
    comp = data.draw(compositions(G.order, n))
    assert parse_composition(render_composition(G, comp), G, n) == comp

    points = data.draw(st.permutations(range(1, n + 1)))
    blocks, start = [], 0
    for size, color in data.draw(compositions(G.order, n)):
        blocks.append((tuple(sorted(points[start:start + size])), color))
        start += size
    partition = tuple(blocks)
    assert parse_partition(render_partition(G, partition), G, n) == partition

    colors = data.draw(st.lists(st.integers(0, G.order - 1), min_size=n, max_size=n))
    u = tuple(zip(data.draw(st.permutations(range(1, n + 1))), colors))
    assert parse_colored_permutation(render_colored_permutation(G, u), G, n) == u

    terms = data.draw(st.dictionaries(
        compositions(G.order, n), st.integers(-5, 5).filter(bool), min_size=1, max_size=4))
    combination = LinearCombination(terms)
    for kind in ("sigma", "x"):
        text = render_combination(G, kind, combination)
        assert parse_combination(text, G, n) == (kind, combination)
        # the empty combination prints as 0, which has no kind of its own
        text = render_combination(G, kind, LinearCombination())
        assert parse_combination(text, G, n) == (None, LinearCombination())
