"""Finite groups as validated Cayley tables with 0-based element indices.

Every color that decorates a partition, composition, or permutation in this
library is an index into one of these groups, and all color arithmetic goes
through :meth:`FiniteGroup.mul`.  Index 0 is always the identity.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from math import factorial, isqrt

from .errors import FormatError, GroupAxiomError, SizeLimitError
from .limits import DEFAULT_LIMIT


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``table[a][b]`` is the index of the product a*b, in that order.  The
    order of the arguments is load-bearing everywhere colors multiply:
    non-abelian groups break silently if a call site swaps them.
    """

    order: int
    table: tuple
    labels: tuple
    name: str = field(default="group", compare=False)

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        """Product a*b by table lookup."""
        if not 0 <= a < self.order:
            raise IndexError(f"element index {a} out of range 0..{self.order - 1}")
        if not 0 <= b < self.order:
            raise IndexError(f"element index {b} out of range 0..{self.order - 1}")
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        """k-th power of a; a**0 is the identity."""
        if k < 0:
            raise ValueError(f"exponent must be non-negative, got {k}")
        if not 0 <= a < self.order:
            raise IndexError(f"element index {a} out of range 0..{self.order - 1}")
        result = 0
        for _ in range(k):
            result = self.table[result][a]
        return result

    def inverse(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise IndexError(f"element index {a} out of range 0..{self.order - 1}")
        return self.table[a].index(0)

    def label(self, a: int) -> str:
        return self.labels[a]

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def to_dict(self) -> dict:
        """JSON-ready form, the same schema accepted by :func:`load_group`."""
        return {
            "order": self.order,
            "table": [list(row) for row in self.table],
            "labels": list(self.labels),
        }


def cyclic(m: int) -> FiniteGroup:
    """The cyclic group of order m, written additively; its m*m Cayley
    table may hold at most ``DEFAULT_LIMIT`` entries."""
    if m < 1:
        raise FormatError(f"cyclic group order must be positive, got {m}")
    _check_order(m, "cyclic group")
    table = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
    labels = tuple(str(a) for a in range(m))
    return FiniteGroup(m, table, labels, name=f"cyclic:{m}")


def symmetric(m: int) -> FiniteGroup:
    """The symmetric group on m letters, for 1 <= m <= 5.

    Elements are enumerated in lexicographic one-line order, so index 0 is
    the identity.  The table composes right-to-left: ``table[i][j]`` is the
    permutation sending x to p_i(p_j(x)).
    """
    message = f"symmetric group degree must be between 1 and 5, got {m}"
    if m < 1:
        raise FormatError(message)
    if m > 5:
        raise SizeLimitError(message)
    perms = sorted(itertools.permutations(range(1, m + 1)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q_x - 1] for q_x in q)] for q in perms) for p in perms
    )
    labels = tuple("".join(str(x) for x in p) for p in perms)
    return FiniteGroup(factorial(m), table, labels, name=f"symmetric:{m}")


def klein_four() -> FiniteGroup:
    """The Klein four-group; every non-identity element has order 2."""
    table = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    return FiniteGroup(4, table, ("e", "a", "b", "ab"), name="klein4")


def from_table(table, labels=None, name: str | None = None) -> FiniteGroup:
    """Build a group from a raw Cayley table, validating all group axioms.

    Raises SizeLimitError when the m*m table is over ``DEFAULT_LIMIT``
    entries, as ``cyclic`` does, FormatError for shape problems and
    GroupAxiomError, naming the failing row or triple, when the table is
    not a group with identity 0.
    """
    rows = _table_rows(table)
    m = len(rows)
    if m == 0:
        raise FormatError("Cayley table must be non-empty")
    for i, row in enumerate(rows):
        if len(row) != m:
            raise FormatError(
                f"Cayley table must be square: row {i} has length {len(row)}, expected {m}"
            )
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < m:
                raise FormatError(
                    f"table entry [{i}][{j}] = {v!r} is not an index in 0..{m - 1}"
                )
    if labels is None:
        labels = tuple(str(a) for a in range(m))
    elif not isinstance(labels, (list, tuple)):
        raise FormatError(f"labels must be a list, got {type(labels).__name__}")
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != m:
            raise FormatError(f"expected {m} labels, got {len(labels)}")
        if len(set(labels)) != m:
            raise FormatError("labels must be distinct")

    for b in range(m):
        if rows[0][b] != b:
            raise GroupAxiomError(
                f"index 0 is not a left identity: table[0][{b}] = {rows[0][b]}"
            )
    for a in range(m):
        if rows[a][0] != a:
            raise GroupAxiomError(
                f"index 0 is not a right identity: table[{a}][0] = {rows[a][0]}"
            )
    full = set(range(m))
    for a in range(m):
        if set(rows[a]) != full:
            raise GroupAxiomError(f"row {a} is not a permutation of 0..{m - 1}")
    for b in range(m):
        if {rows[a][b] for a in range(m)} != full:
            raise GroupAxiomError(f"column {b} is not a permutation of 0..{m - 1}")
    # Light's test: the b with (a*b)*c = a*(b*c) for all a, c include the
    # identity and are closed under the product, so checking b over a
    # generating set (at most log2(m) elements in a group) decides
    # associativity in O(m^2 log m) instead of O(m^3).
    for b in _generators(rows):
        row_b = rows[b]
        for a in range(m):
            row_a = rows[a]
            ab = row_a[b]
            for c in range(m):
                if rows[ab][c] != row_a[row_b[c]]:
                    raise GroupAxiomError(
                        f"associativity fails at ({a},{b},{c}): "
                        f"({a}*{b})*{c} = {rows[ab][c]} but {a}*({b}*{c}) = {row_a[row_b[c]]}"
                    )

    frozen = tuple(tuple(row) for row in rows)
    return FiniteGroup(m, frozen, labels, name=name or f"table:{m}")


def _check_order(m: int, what: str) -> None:
    """SizeLimitError when an m*m Cayley table is over ``DEFAULT_LIMIT`` entries."""
    if m * m > DEFAULT_LIMIT:
        raise SizeLimitError(
            f"{what} order must be at most {isqrt(DEFAULT_LIMIT)} (an m*m Cayley "
            f"table of at most {DEFAULT_LIMIT} entries), got {m}",
            estimate=m * m,
        )


def _table_rows(table) -> list:
    """The rows of ``table`` as lists; FormatError unless it is a list of
    lists, and SizeLimitError, before any row is copied, when it has more
    rows than ``_check_order`` allows."""
    sequence = (list, tuple)
    if not isinstance(table, sequence) or not all(isinstance(row, sequence) for row in table):
        raise FormatError("Cayley table must be a list of lists, one list per row")
    _check_order(len(table), "group")
    return [list(row) for row in table]


def _generators(rows) -> list:
    """A generating set, built greedily: each element not yet reached from
    the identity by right multiplication with earlier generators is one."""
    generators, reached = [], {0}
    for g in range(len(rows)):
        if g not in reached:
            generators.append(g)
            frontier = list(reached)
            while frontier:
                row = rows[frontier.pop()]
                new = {row[s] for s in generators} - reached
                reached |= new
                frontier.extend(new)
    return generators


def load_group(path) -> FiniteGroup:
    """Load a group from a JSON file ``{"order":…,"table":…,"labels":…}``."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read group file {path}: {exc}") from exc
    if not isinstance(data, dict) or "table" not in data:
        raise FormatError(f"group file {path} must be a JSON object with a 'table' key")
    table = _table_rows(data["table"])
    if "order" in data and data["order"] != len(table):
        raise FormatError(
            f"group file {path}: declared order {data['order']} does not match "
            f"table size {len(table)}"
        )
    return from_table(table, labels=data.get("labels"), name=f"file:{path}")


def group_from_spec(spec: str) -> FiniteGroup:
    """Resolve a group specifier string.

    Grammar: ``cyclic:<m>`` | ``symmetric:<m>`` | ``klein4`` | ``file:<path>``.
    """
    spec = spec.strip()
    if spec == "klein4":
        return klein_four()
    kind, sep, arg = spec.partition(":")
    if sep and kind == "file":
        return load_group(arg)
    if sep and kind in ("cyclic", "symmetric"):
        try:
            m = int(arg)
        except ValueError:
            raise FormatError(f"group specifier {spec!r}: {arg!r} is not an integer")
        return cyclic(m) if kind == "cyclic" else symmetric(m)
    raise FormatError(
        f"unknown group specifier {spec!r}; expected "
        "cyclic:<m>, symmetric:<m>, klein4, or file:<path>"
    )
