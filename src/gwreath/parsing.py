"""Text grammar for the element kinds the CLI speaks.

    composition           (2:g1|1:g2)
    ordered partition     ({1,3}:g1|{2}:g2)
    colored permutation   [(3:g)(6:g)(4:g)]
    combination           sigma(2:0|1:1) + 2*sigma(3:0)   or the same with x,
                          or 0 for the empty combination

Whitespace is ignored everywhere; colors may be written as labels or as
element indices, labels winning; parse errors carry the exact offset.
``document`` is the one envelope of every JSON document: schema_version,
the group's name and n, then the document's own fields.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .linear import LinearCombination
from .partitions import (
    ColoredComposition,
    ColoredPartition,
    composition_sort_key,
    composition_total,
    validate_partition,
)
from .wreath import ColoredPermutation, validate_colored_permutation

NAME = re.compile(r"\w+")
"""The grammar's name token: a run of letters, digits and underscores
(``str.isalnum`` or ``_``).  Colors, ``sigma`` and ``x`` are read with it,
and a group label must match it whole."""


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> ParseError:
        return ParseError(message, self.pos if position is None else position)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            found = self.peek() or "end of input"
            raise self.error(f"expected {char!r}, found {found!r}")
        self.pos += 1

    def try_take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer", start)
        return int(self.text[start:self.pos])

    def token(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        match = NAME.match(self.text, start)
        if match is None:
            raise self.error("expected a name", start)
        self.pos = match.end()
        return match.group(), start

    def end(self) -> None:
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error(f"unexpected trailing input {self.text[self.pos:]!r}")


def _color(cursor: _Cursor, group) -> int:
    word, start = cursor.token()
    if word in group.labels:
        return group.labels.index(word)
    if word.isdecimal():
        index = int(word)
        if 0 <= index < group.order:
            return index
        raise cursor.error(
            f"color index {index} out of range 0..{group.order - 1}", start
        )
    raise cursor.error(f"unknown color {word!r} for group {group.name}", start)


# ---------------------------------------------------------------------------
# parsers

def parse_composition(text: str, group, n: int | None = None) -> ColoredComposition:
    cursor = _Cursor(text)
    cursor.expect("(")
    comp = _composition_body(cursor, group)
    cursor.expect(")")
    cursor.end()
    _check_total(cursor, comp, n)
    return comp


def _composition_body(cursor: _Cursor, group) -> ColoredComposition:
    parts = []
    while True:
        size_start = cursor.pos
        size = cursor.integer()
        if size < 1:
            raise cursor.error("part sizes must be positive", size_start)
        cursor.expect(":")
        parts.append((size, _color(cursor, group)))
        if not cursor.try_take("|"):
            return tuple(parts)


def _check_total(cursor: _Cursor, comp, n: int | None) -> None:
    if n is not None and composition_total(comp) != n:
        raise cursor.error(
            f"element is over 1..{composition_total(comp)}, expected 1..{n}"
        )


def parse_partition(text: str, group, n: int | None = None) -> ColoredPartition:
    cursor = _Cursor(text)
    cursor.expect("(")
    blocks = []
    seen: set[int] = set()
    while True:
        cursor.expect("{")
        members = []
        while True:
            member_start = cursor.pos
            member = cursor.integer()
            if member in seen:
                raise cursor.error(f"member {member} appears twice", member_start)
            seen.add(member)
            members.append(member)
            if not cursor.try_take(","):
                break
        cursor.expect("}")
        cursor.expect(":")
        blocks.append((tuple(sorted(members)), _color(cursor, group)))
        if not cursor.try_take("|"):
            break
    cursor.expect(")")
    cursor.end()
    partition = tuple(blocks)
    size = n if n is not None else len(seen)
    try:
        validate_partition(partition, group, size)
    except ValueError as exc:
        raise cursor.error(str(exc))
    return partition


def parse_colored_permutation(text: str, group, n: int | None = None) -> ColoredPermutation:
    cursor = _Cursor(text)
    cursor.expect("[")
    entries = []
    while True:
        cursor.expect("(")
        value = cursor.integer()
        cursor.expect(":")
        entries.append((value, _color(cursor, group)))
        cursor.expect(")")
        if cursor.peek() == "]":
            break
    cursor.expect("]")
    cursor.end()
    u = tuple(entries)
    try:
        validate_colored_permutation(u, group, n)
    except ValueError as exc:
        raise cursor.error(str(exc))
    return u


def parse_combination(text: str, group, n: int | None = None):
    """Parse a linear combination of sigma(...) or x(...) atoms.

    Returns ``(kind, LinearCombination)`` with kind "sigma" or "x"; mixing
    the two kinds in one expression is an error.  A bare ``0``, the
    rendering of the empty combination, has no atoms and kind None.
    """
    if text.strip() == "0":
        return None, LinearCombination()
    cursor = _Cursor(text)
    kind = None
    total = None
    terms = []
    while True:
        sign = 1
        while True:
            if cursor.try_take("-"):
                sign = -sign
            elif cursor.try_take("+"):
                pass
            else:
                break
        coeff = sign
        if cursor.peek().isdecimal():
            coeff = sign * cursor.integer()
            cursor.try_take("*")
        word, start = cursor.token()
        atom_kind = word.lower()
        if atom_kind not in ("sigma", "x"):
            raise cursor.error(
                f"expected 'sigma' or 'x' before '(', found {word!r}", start
            )
        if kind is None:
            kind = atom_kind
        elif kind != atom_kind:
            raise cursor.error(
                f"cannot mix {kind} and {atom_kind} atoms in one combination", start
            )
        cursor.expect("(")
        comp = _composition_body(cursor, group)
        cursor.expect(")")
        if total is None:
            total = composition_total(comp)
            _check_total(cursor, comp, n)
        elif composition_total(comp) != total:
            raise cursor.error(
                f"atoms over different ground sets: 1..{total} vs "
                f"1..{composition_total(comp)}"
            )
        terms.append((comp, coeff))
        if cursor.peek() not in ("+", "-"):
            break
    cursor.end()
    return kind, LinearCombination(terms)


def detect_kind(text: str) -> str:
    """Classify operand text as partition, wreath, or combination."""
    stripped = text.strip()
    if stripped.startswith("["):
        return "wreath"
    if stripped.startswith("("):
        if "{" in stripped:
            return "partition"
        raise ParseError(
            "bare (…) operand is ambiguous: write a partition with {…} blocks "
            "or prefix a combination atom with sigma or x",
            position=0,
        )
    return "combination"


def parse_operand(text: str, group, n: int | None = None):
    """Parse any operand the CLI multiplies.

    Returns ``(kind, value)`` with kind "partition", "wreath", "sigma" or
    "x", or None for the empty combination ``0``.
    """
    kind = detect_kind(text)
    if kind == "partition":
        return kind, parse_partition(text, group, n)
    if kind == "wreath":
        return kind, parse_colored_permutation(text, group, n)
    return parse_combination(text, group, n)


# ---------------------------------------------------------------------------
# renderers (canonical text, inverse to the parsers)

def document(group, n: int, **fields) -> dict:
    """A JSON document in the package's one envelope."""
    return {"schema_version": 1, "group": group.name, "n": n, **fields}


def render_composition(group, comp: ColoredComposition) -> str:
    body = "|".join(f"{size}:{group.label(color)}" for size, color in comp)
    return f"({body})"


def render_partition(group, partition: ColoredPartition) -> str:
    body = "|".join(
        "{" + ",".join(str(x) for x in block) + "}:" + group.label(color)
        for block, color in partition
    )
    return f"({body})"


def render_colored_permutation(group, u: ColoredPermutation) -> str:
    body = "".join(f"({value}:{group.label(color)})" for value, color in u)
    return f"[{body}]"


def render_combination(group, kind: str, combination: LinearCombination) -> str:
    """Canonical rendering, terms in composition order, e.g.
    ``sigma(2:0) - 3*sigma(1:0|1:1)``."""
    if not combination:
        return "0"
    token = {"sigma": "sigma", "x": "X"}[kind]
    pieces = []
    for comp, coeff in sorted(combination.items(), key=lambda kv: composition_sort_key(kv[0])):
        atom = f"{token}{render_composition(group, comp)}"
        magnitude = abs(coeff)
        body = atom if magnitude == 1 else f"{magnitude}*{atom}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
