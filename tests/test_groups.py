import copy
import importlib.util
import json
import pathlib
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreath.errors import FormatError, GroupAxiomError, SizeLimitError
from gwreath.groups import (
    FiniteGroup,
    cyclic,
    from_table,
    group_from_spec,
    klein_four,
    load_group,
    symmetric,
)


def test_cyclic_trivial():
    G = cyclic(1)
    assert G.order == 1
    assert G.table == ((0,),)


def test_cyclic_two_table_forced():
    assert cyclic(2).table == ((0, 1), (1, 0))


def test_cyclic_three_element_has_order_three():
    # hand Cayley computation: 1+1=2, 2+1=0
    G = cyclic(3)
    assert G.mul(1, 1) == 2
    assert G.mul(2, 1) == 0


def test_cyclic_rejects_zero():
    with pytest.raises(FormatError):
        cyclic(0)


def test_gmul_inverse_pair_in_z3():
    assert cyclic(3).mul(1, 2) == 0


def test_gmul_identity_left():
    for G in (cyclic(4), klein_four(), symmetric(3)):
        for b in G.elements():
            assert G.mul(0, b) == b
            assert G.mul(b, 0) == b


def test_gmul_bounds():
    G = cyclic(2)
    with pytest.raises(IndexError):
        G.mul(2, 0)
    with pytest.raises(IndexError):
        G.mul(0, -1)


def test_power_basics():
    G = cyclic(4)
    assert G.power(1, 0) == 0
    assert G.power(1, 3) == 3  # repeated addition mod 4
    with pytest.raises(ValueError):
        G.power(1, -1)


@pytest.mark.parametrize("G", [cyclic(1), cyclic(2), cyclic(5), klein_four(),
                               symmetric(3), symmetric(4)])
def test_lagrange_exponent(G):
    for a in G.elements():
        assert G.power(a, G.order) == 0


def test_inverse():
    for G in (cyclic(6), klein_four(), symmetric(3)):
        for a in G.elements():
            b = G.inverse(a)
            assert G.mul(a, b) == 0
            assert G.mul(b, a) == 0


def test_symmetric_trivial_and_two():
    assert symmetric(1).order == 1
    # the unique group of order 2, same table as Z/2
    assert symmetric(2).table == cyclic(2).table


def test_symmetric_three_is_non_abelian():
    G = symmetric(3)
    assert G.order == 6
    assert any(
        G.mul(a, b) != G.mul(b, a)
        for a in G.elements()
        for b in G.elements()
    )
    assert not G.is_abelian()
    assert cyclic(5).is_abelian()


def test_symmetric_identity_first():
    assert symmetric(4).labels[0] == "1234"


def test_symmetric_degree_guard():
    with pytest.raises(SizeLimitError):
        symmetric(6)
    with pytest.raises(SizeLimitError):
        symmetric(10**9)  # refused without computing the group's order
    with pytest.raises(FormatError):
        symmetric(0)
    with pytest.raises(FormatError):
        symmetric(-1)


def test_cyclic_order_guard():
    with pytest.raises(SizeLimitError) as info:
        cyclic(2237)
    assert info.value.estimate == 2237 * 2237


def test_from_table_order_guard():
    # refused on the row count, as cyclic(2237) is, before any validation
    with pytest.raises(SizeLimitError) as info:
        from_table([[0]] * 2237)
    assert info.value.estimate == 2237 * 2237
    assert "group order must be at most 2236" in str(info.value)


def test_from_table_order_guard_copies_no_row():
    class Unreadable(list):
        def __iter__(self):
            raise AssertionError("a row was copied")

    with pytest.raises(SizeLimitError, match="group order must be at most 2236"):
        from_table([Unreadable()] * 2237)


def test_klein_four_orders():
    G = klein_four()
    assert G.order == 4
    for a in range(1, 4):
        assert G.mul(a, a) == 0
    # validates as a group table
    from_table(G.table)


def test_from_table_accepts_z2():
    G = from_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.labels == ("0", "1")


def test_from_table_row_not_permutation():
    with pytest.raises(GroupAxiomError, match="row 1"):
        from_table([[0, 1], [1, 1]])


def test_from_table_identity_not_first():
    with pytest.raises(GroupAxiomError, match="identity"):
        from_table([[1, 0], [0, 1]])


@pytest.mark.parametrize("table,labels,error,message", [
    ([], None, FormatError, "must be non-empty"),
    ([[0]], ["a", "b"], FormatError, "expected 1 labels, got 2"),
    ([[0, 1], [0, 1]], None, GroupAxiomError, "not a right identity: table\\[1\\]\\[0\\] = 0"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], None, GroupAxiomError, "column 1 is not a permutation"),
], ids=["empty", "label-count", "right-identity", "column"])
def test_from_table_refusals(table, labels, error, message):
    with pytest.raises(error, match=message):
        from_table(table, labels=labels)


def test_from_table_not_square():
    with pytest.raises(FormatError, match="square"):
        from_table([[0, 1], [1]])


def test_from_table_entry_out_of_range():
    with pytest.raises(FormatError):
        from_table([[0, 1], [1, 2]])


def test_from_table_non_associative_latin_square():
    # a reduced 5x5 Latin square that is not a group: (1*1)*2 != 1*(1*2)
    square = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupAxiomError, match="associativity"):
        from_table(square)


def _associative(rows):
    """The full O(m^3) triple check, the oracle for Light's test."""
    m = len(rows)
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in range(m) for b in range(m) for c in range(m))


def _random_reduced_latin_square(m, rng):
    """A Latin square with first row and column 0..m-1, filled cell by cell
    in random order of candidates with backtracking."""
    rows = [[j if i == 0 else (i if j == 0 else None) for j in range(m)] for i in range(m)]
    cells = [(i, j) for i in range(1, m) for j in range(1, m)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        candidates = [v for v in range(m) if v not in used]
        rng.shuffle(candidates)
        for v in candidates:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    return rows


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 6), rng=st.randoms(use_true_random=False))
def test_light_associativity_test_matches_full_check(m, rng):
    square = _random_reduced_latin_square(m, rng)
    if _associative(square):
        assert from_table(square).order == m
        return
    with pytest.raises(GroupAxiomError, match="associativity") as info:
        from_table(square)
    a, b, c = map(int, re.search(r"fails at \((\d+),(\d+),(\d+)\)", str(info.value)).groups())
    assert square[square[a][b]][c] != square[a][square[b][c]]


@settings(max_examples=100, deadline=None)
@given(G=st.sampled_from([symmetric(3), cyclic(6), klein_four(), symmetric(4)]),
       rng=st.randoms(use_true_random=False))
def test_light_associativity_test_accepts_relabeled_groups(G, rng):
    # relabeling the non-identity elements changes the greedy generating set
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    inverse = {p: i for i, p in enumerate(perm)}
    table = [[perm[G.table[inverse[a]][inverse[b]]] for b in range(G.order)]
             for a in range(G.order)]
    assert from_table(table).order == G.order


def test_finite_group_contract():
    G = FiniteGroup(2, ((0, 1), (1, 0)), ("0", "1"), name="cyclic:2")
    assert G == FiniteGroup(order=2, table=((0, 1), (1, 0)), labels=("0", "1"))
    assert G == cyclic(2) and hash(G) == hash(cyclic(2))
    # equality and hash read (order, table, labels); the name is left out
    assert FiniteGroup(2, G.table, G.labels, "renamed") == G
    assert hash(FiniteGroup(2, G.table, G.labels, "renamed")) == hash(G)
    assert G != FiniteGroup(2, G.table, ("e", "x")) and G != (2, G.table, G.labels)
    assert FiniteGroup(1, ((0,),), ("0",)).name == "group"
    for attr in ("order", "name", "fresh"):
        with pytest.raises(AttributeError):
            setattr(G, attr, 1)
    with pytest.raises(AttributeError):
        del G.table
    assert repr(G) == ("FiniteGroup(order=2, table=((0, 1), (1, 0)), "
                       "labels=('0', '1'), name='cyclic:2')")
    for twin in (pickle.loads(pickle.dumps(G)), copy.deepcopy(G), copy.copy(G)):
        assert (twin, twin.name, type(twin)) == (G, G.name, FiniteGroup)


@pytest.mark.parametrize("label", ["x|y", "a b", "", " a", "(", "-1", 1, ["1"], None])
def test_from_table_refuses_labels_the_grammar_cannot_read(label):
    with pytest.raises(FormatError, match="is not a name"):
        from_table([[0, 1], [1, 0]], labels=["e", label])


def _benchmark_reference():
    # benchmarks/reference.py imports no gwreath, so it loads on its own
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_groups_load_with_their_labels():
    ref = _benchmark_reference()
    for table in (ref.cyclic(8), ref.klein_four(), ref.symmetric(4), ref.dihedral4(),
                  ref.quaternion8()):
        assert from_table(table.table, table.labels).labels == tuple(table.labels)


def test_from_table_duplicate_labels():
    with pytest.raises(FormatError, match="distinct"):
        from_table([[0, 1], [1, 0]], labels=["x", "x"])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_round_trip_cyclic_tables(m):
    G = cyclic(m)
    rebuilt = from_table(G.table)
    assert rebuilt.order == G.order
    assert rebuilt.table == G.table


@pytest.mark.parametrize("G", [cyclic(24), symmetric(4), klein_four()])
def test_builtin_tables_satisfy_axioms(G):
    # from_table replays the full axiom check, associativity included
    from_table(G.table, labels=G.labels)


def test_group_from_spec():
    assert group_from_spec("cyclic:3").order == 3
    assert group_from_spec("symmetric:3").order == 6
    assert group_from_spec("klein4").order == 4
    with pytest.raises(FormatError):
        group_from_spec("dihedral:4")
    with pytest.raises(FormatError):
        group_from_spec("cyclic:x")
    with pytest.raises(FormatError):
        group_from_spec("klein5")


def test_load_group_round_trip(tmp_path):
    G = klein_four()
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(G.to_dict()), encoding="utf-8")
    loaded = load_group(path)
    assert loaded.table == G.table
    assert loaded.labels == G.labels


def test_load_group_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_group(bad)
    wrong_order = tmp_path / "wrong.json"
    wrong_order.write_text(json.dumps({"order": 3, "table": [[0, 1], [1, 0]]}),
                           encoding="utf-8")
    with pytest.raises(FormatError):
        load_group(wrong_order)
    array = tmp_path / "array.json"
    array.write_text(json.dumps([[0]]), encoding="utf-8")
    with pytest.raises(FormatError, match="must be a JSON object with a 'table' key"):
        load_group(array)
