"""Reference arithmetic for the benchmark's output checks.

Everything here is written straight from the definitions in the gwreath
module docstrings and never imports gwreath, so a fault in the library
cannot hide itself by also being present in the check.  Groups are plain
Cayley tables (``table[a][b]`` is a*b, index 0 the identity) with labels.

Data shapes follow the library's grammar: a colored composition is
``((size, color), ...)``, an ordered colored partition ``((block, color),
...)`` with increasing blocks, a colored permutation ``((value, color),
...)``.  Combinations are dicts ``{composition: coefficient}``.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from math import comb, factorial


class Group:
    """A Cayley table with labels; ``mul(a, b)`` looks up a*b."""

    def __init__(self, table, labels, name):
        self.table = [list(row) for row in table]
        self.labels = list(labels)
        self.name = name
        self.order = len(self.table)
        self.index = {label: i for i, label in enumerate(self.labels)}

    def mul(self, a, b):
        return self.table[a][b]

    def is_abelian(self):
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def to_dict(self):
        return {"order": self.order, "table": self.table, "labels": self.labels}

    def relabeled(self, rng, name=None):
        """An isomorphic copy with the non-identity elements renumbered at
        random; each label travels with its element."""
        rest = list(range(1, self.order))
        rng.shuffle(rest)
        new = [0] + rest
        table = [[0] * self.order for _ in range(self.order)]
        labels = [None] * self.order
        for a in range(self.order):
            labels[new[a]] = self.labels[a]
            for b in range(self.order):
                table[new[a]][new[b]] = new[self.table[a][b]]
        return Group(table, labels, name or self.name)


# ---------------------------------------------------------------------------
# groups, built from their definitions

def cyclic(m):
    return Group([[(a + b) % m for b in range(m)] for a in range(m)],
                 [str(a) for a in range(m)], f"cyclic:{m}")


def klein_four():
    return Group([[a ^ b for b in range(4)] for a in range(4)],
                 ["e", "a", "b", "ab"], "klein4")


def symmetric(m):
    """Permutations in lexicographic one-line order; a*b is x -> a(b(x))."""
    perms = sorted(itertools.permutations(range(1, m + 1)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[x - 1] for x in q)] for q in perms] for p in perms]
    return Group(table, ["".join(map(str, p)) for p in perms], f"symmetric:{m}")


def dihedral4():
    """Symmetries of a square: r^a s^b acts on vertices as v -> a + (-1)^b v
    (mod 4), and products compose as maps."""
    elements = [(a, b) for b in (0, 1) for a in range(4)]

    def act(element, v):
        a, b = element
        return (a + (-v if b else v)) % 4

    as_map = {e: tuple(act(e, v) for v in range(4)) for e in elements}
    index = {as_map[e]: i for i, e in enumerate(elements)}
    table = [[index[tuple(as_map[x][as_map[y][v]] for v in range(4))]
              for y in elements] for x in elements]
    labels = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    return Group(table, labels, "dihedral:4")


def quaternion8():
    """Units +-1, +-i, +-j, +-k with i^2 = j^2 = k^2 = ijk = -1."""
    unit_mul = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elements = [(s, u) for u in "1ijk" for s in (1, -1)]
    index = {e: i for i, e in enumerate(elements)}

    def product(x, y):
        sign, unit = unit_mul[(x[1], y[1])]
        return (x[0] * y[0] * sign, unit)

    table = [[index[product(x, y)] for y in elements] for x in elements]
    labels = ["e", "z", "i", "iz", "j", "jz", "k", "kz"]
    return Group(table, labels, "quaternion:8")


# ---------------------------------------------------------------------------
# counts

def multinomial(comp):
    """n! / prod(size!): the number of partitions of type ``comp``, which is
    also the augmentation of sigma_comp and of X_comp."""
    result = factorial(sum(size for size, _ in comp))
    for size, _ in comp:
        result //= factorial(size)
    return result


def surjections(n, k):
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))


def composition_count(n, order):
    return sum(comb(n - 1, k - 1) * order**k for k in range(1, n + 1))


def partition_count(n, order):
    return sum(surjections(n, k) * order**k for k in range(1, n + 1))


def wreath_count(n, order):
    return order**n * factorial(n)


def expected_pairs_checked(target, n, order, mode, samples):
    """What ``pairs_checked`` must read for each verification target."""
    if mode == "sampled" and target in ("identities", "prop1", "theorem1"):
        return samples
    comps = composition_count(n, order)
    if target == "identities":
        return partition_count(n, order) ** 2
    if target in ("prop1", "theorem1"):
        return comps**2
    if target == "mobius":
        return comps
    if target == "left-ideal":
        w = wreath_count(n, order)
        return partition_count(n, order) * w + comps * (w + 1)
    if target == "counts":
        return 4
    raise ValueError(f"unknown target {target!r}")


# ---------------------------------------------------------------------------
# enumeration

def _sizes(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _sizes(n - first, parts - 1):
            yield (first, *rest)


def compositions(n, order):
    """Colored compositions of n in canonical order: by length, then sizes,
    then colors, each lexicographic."""
    return [tuple(zip(sizes, colors))
            for k in range(1, n + 1)
            for sizes in _sizes(n, k)
            for colors in itertools.product(range(order), repeat=k)]


def partitions_of_type(comp):
    """Ordered colored partitions whose block sizes and colors are ``comp``."""
    def fill(available, sizes):
        if not sizes:
            yield ()
            return
        for block in itertools.combinations(available, sizes[0]):
            rest = tuple(x for x in available if x not in block)
            for tail in fill(rest, sizes[1:]):
                yield (block, *tail)

    n = sum(size for size, _ in comp)
    colors = [color for _, color in comp]
    return [tuple(zip(blocks, colors))
            for blocks in fill(tuple(range(1, n + 1)), [size for size, _ in comp])]


# ---------------------------------------------------------------------------
# products, from the module docstrings

def partition_product(group, left, right):
    """((B_i, g_i)) * ((C_j, h_j)) = ((B_i & C_j, h_j * g_i)), row-major,
    empty intersections dropped."""
    cells = []
    for block, g in left:
        members = set(block)
        for other, h in right:
            common = tuple(sorted(members.intersection(other)))
            if common:
                cells.append((common, group.mul(h, g)))
    return tuple(cells)


def wreath_product(group, u, v):
    """Entry j of u*v is (u_value[v_value_j], u_color[v_value_j] * v_color_j)."""
    return tuple((u[t - 1][0], group.mul(u[t - 1][1], h)) for t, h in v)


def partition_type(partition):
    return tuple((len(block), color) for block, color in partition)


def sigma_product(group, left, right):
    """sigma_left * sigma_right by expanding both sums term by term and
    regrouping by type; None when a type's count is not a whole multiple of
    its fiber, which no invariant product can produce."""
    counts = Counter(partition_type(partition_product(group, p, q))
                     for p in partitions_of_type(left)
                     for q in partitions_of_type(right))
    result = {}
    for comp, count in counts.items():
        size = multinomial(comp)
        if count % size:
            return None
        result[comp] = count // size
    return result


def combination_product(group, left, right):
    """Bilinear extension of ``sigma_product`` to combinations."""
    acc = Counter()
    for a, x in left.items():
        for b, y in right.items():
            product = sigma_product(group, a, b)
            if product is None:
                return None
            for comp, coeff in product.items():
                acc[comp] += x * y * coeff
    return {comp: coeff for comp, coeff in acc.items() if coeff}


def augmentation(combination):
    return sum(coeff * multinomial(comp) for comp, coeff in combination.items())


# ---------------------------------------------------------------------------
# grammar text

def render_composition(group, comp):
    return "(" + "|".join(f"{size}:{group.labels[color]}" for size, color in comp) + ")"


def render_partition(group, partition):
    return "(" + "|".join(
        "{" + ",".join(map(str, block)) + "}:" + group.labels[color]
        for block, color in partition) + ")"


def render_wreath(group, u):
    return "[" + "".join(f"({value}:{group.labels[color]})" for value, color in u) + "]"


def render_combination(group, token, combination):
    """Canonical text: terms in canonical composition order, ``2*X(...)``,
    signs written between terms, ``0`` for the empty sum."""
    if not combination:
        return "0"
    pieces = []
    for comp in sorted(combination,
                       key=lambda c: (len(c), [s for s, _ in c], [g for _, g in c])):
        coeff = combination[comp]
        atom = token + render_composition(group, comp)
        body = atom if abs(coeff) == 1 else f"{abs(coeff)}*{atom}"
        if pieces:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
        else:
            pieces.append(body if coeff > 0 else "-" + body)
    return " ".join(pieces)


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\*)?(sigma|X)\(([^)]*)\)")


def parse_combination(group, text):
    """Read a rendered combination back into ``{composition: coefficient}``;
    raises ValueError on anything that is not canonical grammar text."""
    text = text.strip()
    if text == "0":
        return {}
    result = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match:
            raise ValueError(f"unreadable combination text at {pos}: {text!r}")
        sign, magnitude, _, body = match.groups()
        coeff = int(magnitude or 1) * (-1 if sign == "-" else 1)
        comp = []
        for part in body.split("|"):
            size, label = part.split(":")
            comp.append((int(size), group.index[label]))
        result[tuple(comp)] = result.get(tuple(comp), 0) + coeff
        pos = match.end()
    return result
