"""Sparse integer linear combinations over hashable basis keys.

Coefficients are plain Python ints, so arithmetic is exact at any size.
Zero coefficients are never stored; equality is term-set equality.  The
constructor is the one place that sums repeated keys and drops zeros: every
operator builds its result from (key, coefficient) pairs through it.
"""

from __future__ import annotations

from itertools import chain


class LinearCombination:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for key, coeff in items:
                if not isinstance(coeff, int):
                    raise TypeError(
                        f"coefficients must be exact integers, got {coeff!r}"
                    )
                value = data.get(key, 0) + coeff
                if value:
                    data[key] = value
                elif key in data:
                    del data[key]
        self._terms = data

    @classmethod
    def basis(cls, key) -> "LinearCombination":
        return cls({key: 1})

    def items(self):
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def coefficient(self, key) -> int:
        return self._terms.get(key, 0)

    def __contains__(self, key) -> bool:
        return key in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCombination):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "LinearCombination":
        if not isinstance(other, LinearCombination):
            return NotImplemented
        return LinearCombination(chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "LinearCombination":
        return self * -1

    def __sub__(self, other) -> "LinearCombination":
        if not isinstance(other, LinearCombination):
            return NotImplemented
        return LinearCombination(chain(
            self._terms.items(), ((key, -coeff) for key, coeff in other._terms.items())
        ))

    def __mul__(self, scalar) -> "LinearCombination":
        if not isinstance(scalar, int):
            return NotImplemented
        return LinearCombination(
            (key, scalar * coeff) for key, coeff in self._terms.items()
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{key!r}: {coeff}" for key, coeff in sorted(self._terms.items(), key=repr)
        )
        return f"LinearCombination({{{parts}}})"
