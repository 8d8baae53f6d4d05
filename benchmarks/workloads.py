"""The benchmark's workloads: inputs made from the seed, one operation each,
and the checks on every output.

A workload hands out rounds.  Every round runs the same jobs (the job
tables below) on inputs changed in ways that leave the work about the
same: groups relabeled, operands moved by group automorphisms and
relabeled points, coefficients and sampling seeds redrawn.  So every run
sees the same mix of work, while no output can be reused from an earlier
round.  Round r is drawn from ``Random(f"{name}:{seed}:{r}")``, so it is
the same for a given seed however long a run lasts, and every run attempts
whole rounds.

Each ``Op`` carries ``call`` (the timed part) and ``check(output)``, which
returns None when the output is right or a one-line reason.  Checks use
``reference`` only, never gwreath's own arithmetic, except where a check
compares two gwreath routes with each other (the Theorem 1 cross-route).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from collections import Counter
from functools import partial

import reference as ref

# group key -> how to build its reference table
BASE_GROUPS = {
    "cyclic:1": lambda: ref.cyclic(1),
    "cyclic:2": lambda: ref.cyclic(2),
    "cyclic:3": lambda: ref.cyclic(3),
    "cyclic:4": lambda: ref.cyclic(4),
    "cyclic:8": lambda: ref.cyclic(8),
    "klein4": ref.klein_four,
    "symmetric:3": lambda: ref.symmetric(3),
    "d4": ref.dihedral4,
    "q8": ref.quaternion8,
    "s4": lambda: ref.symmetric(4),
}
# groups generated here and handed to gwreath as ``file:`` groups
FILE_GROUPS = ("d4", "q8", "s4")
# algebra-calc's operand-repeat share is taken over this many first rounds,
# so that the operands it keeps do not grow with the length of a run
SHARE_ROUNDS = 20


class Op:
    """``group`` is the key of the operation's color group."""

    __slots__ = ("kind", "group", "call", "check")

    def __init__(self, kind, group, call, check):
        self.kind = kind
        self.group = group
        self.call = call
        self.check = check


def write_group_files(keys, workdir, seed):
    """Write each file group, relabeled by the seed, as gwreath's group JSON;
    return the reference tables and their ``file:`` specifiers."""
    rng = random.Random(f"groups:{seed}")
    groups, specs = {}, {}
    for key in keys:
        group = BASE_GROUPS[key]().relabeled(rng)
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(group.to_dict()), encoding="utf-8")
        specs[key] = f"file:{path}"
        groups[key] = group
    return groups, specs


class _Relabeling:
    """Shared by the two workloads that take group objects: each round
    relabels every group at random and builds it with ``from_table``."""

    def __init__(self, gw, seed, workdir, keys):
        self.gw = gw
        self.seed = seed
        files = [key for key in keys if key in FILE_GROUPS]
        self.base, specs = write_group_files(files, workdir, seed)
        for key in files:
            loaded = gw.group_from_spec(specs[key])
            if [list(row) for row in loaded.table] != self.base[key].table:
                raise RuntimeError(f"group file {key} did not load as written")
        for key in keys:
            if key not in self.base:
                self.base[key] = BASE_GROUPS[key]()

    def group(self, key, rng):
        table = self.base[key].relabeled(rng, name=key)
        return table, self.gw.from_table(table.table, table.labels, name=key)


# ---------------------------------------------------------------------------
# sigma-table: one structure_constant_table(G, n) call per operation

class SigmaTable(_Relabeling):
    # Every job takes at most about 30 ms, so that a run repeats each one
    # hundreds of times and no single long table sets the run's figures.
    # So non-abelian groups appear at n = 1 only (S_3 at n = 2 takes about
    # 50 ms, D_4 and Q_8 about 180 ms), and the largest tables are cyclic:2
    # at n = 3 and klein4 and cyclic:4 at n = 2.
    JOBS = (
        [(key, 1) for key in ("symmetric:3", "d4", "q8", "s4", "cyclic:8")]
        + [(key, 2) for key in ("cyclic:1", "cyclic:2", "cyclic:3", "klein4", "cyclic:4")]
        + [("cyclic:1", 3), ("cyclic:2", 3), ("cyclic:1", 4)]
    )
    REFERENCE_PAIRS = 12
    ASSOCIATIVE_TRIPLES = 12

    def __init__(self, gw, seed, workdir):
        super().__init__(gw, seed, workdir, sorted({key for key, _ in self.JOBS}))
        self.shapes_seen = set()
        self.products = 0
        self.shape_repeats = 0

    def round(self, r):
        rng = random.Random(f"sigma-table:{self.seed}:{r}")
        ops = []
        for key, n in self.JOBS:
            table, group = self.group(key, rng)
            comps = ref.compositions(n, table.order)
            self._note_shapes(comps)
            kind = f"{key}/n={n}"
            check = partial(check_table, table, n, comps, random.Random(rng.randrange(2**32)))
            ops.append(Op(kind, key, partial(self.table, group, n), check))
        rng.shuffle(ops)
        return ops

    def table(self, group, n):
        # looked up at call time, so that a traced run sees the wrapper
        return self.gw.structure_constant_table(group, n)

    def _note_shapes(self, comps):
        shapes = [tuple(size for size, _ in comp) for comp in comps]
        for a in shapes:
            for b in shapes:
                self.products += 1
                if (a, b) in self.shapes_seen:
                    self.shape_repeats += 1
                else:
                    self.shapes_seen.add((a, b))

    def properties(self):
        return {
            "sigma products": self.products,
            "share whose (row sizes, column sizes) shape appeared earlier":
                round(self.shape_repeats / max(self.products, 1), 4),
        }


def check_table(group, n, comps, rng, out):
    if (out.get("schema_version"), out.get("group"), out.get("n")) != (1, group.name, n):
        return "envelope fields differ"
    if out["basis"] != [ref.render_composition(group, comp) for comp in comps]:
        return "basis is not the canonical list of colored compositions"
    size = len(comps)
    if size != ref.composition_count(n, group.order) or len(out["products"]) != size * size:
        return f"table has {len(out['products'])} products, expected {size * size}"
    products = out["products"]
    eps = [ref.multinomial(comp) for comp in comps]

    def expansion(i, j):
        return {comps[k]: coeff for k, coeff in products[f"{i},{j}"]}

    for i in range(size):
        for j in range(size):
            entries = products[f"{i},{j}"]
            if any(coeff < 1 for _, coeff in entries):
                return f"non-positive structure constant in product {i},{j}"
            if sum(coeff * eps[k] for k, coeff in entries) != eps[i] * eps[j]:
                return f"augmentation fails on product {i},{j}"

    for i, j in _reference_pairs(group, comps, rng, SigmaTable.REFERENCE_PAIRS):
        if expansion(i, j) != ref.sigma_product(group, comps[i], comps[j]):
            return (f"sigma{ref.render_composition(group, comps[i])} * "
                    f"sigma{ref.render_composition(group, comps[j])} differs from "
                    "the expansion by definition")

    index = {comp: k for k, comp in enumerate(comps)}

    def times(combination, k, left):
        acc = Counter()
        for comp, coeff in combination.items():
            i, j = (index[comp], k) if left else (k, index[comp])
            for c, x in expansion(i, j).items():
                acc[c] += coeff * x
        return acc

    for _ in range(SigmaTable.ASSOCIATIVE_TRIPLES):
        a, b, c = (rng.randrange(size) for _ in range(3))
        if times(expansion(a, b), c, True) != times(expansion(b, c), a, False):
            return f"associativity fails on basis triple {a},{b},{c}"
    return None


def _reference_pairs(group, comps, rng, count):
    """Seeded pairs for the by-definition product, among those that expand
    to at most 144 partition products.  On a non-abelian group every pair
    has colors that do not commute across the two sides, since only those
    pairs can expose multiplication in the wrong order."""
    table = group.table
    abelian = group.is_abelian()
    sizes = [ref.multinomial(comp) for comp in comps]
    pool = [
        (i, j)
        for i, a in enumerate(comps) for j, b in enumerate(comps)
        if sizes[i] * sizes[j] <= 144
        and (abelian or any(table[g][h] != table[h][g] for _, g in a for _, h in b))
    ]
    return rng.sample(pool, min(count, len(pool)))


# ---------------------------------------------------------------------------
# verify-sweep: one run_verification call per operation

class VerifySweep(_Relabeling):
    # (target, group, n, mode, samples)
    JOBS = (
        ("identities", "cyclic:2", 2, "exhaustive", 0),
        ("identities", "cyclic:3", 2, "exhaustive", 0),
        ("identities", "symmetric:3", 2, "sampled", 300),
        ("identities", "klein4", 3, "sampled", 200),
        ("identities", "cyclic:4", 2, "sampled", 160),
        ("prop1", "cyclic:2", 2, "exhaustive", 0),
        ("prop1", "cyclic:3", 2, "exhaustive", 0),
        ("prop1", "symmetric:3", 2, "sampled", 100),
        ("prop1", "d4", 2, "sampled", 100),
        ("prop1", "klein4", 2, "sampled", 75),
        ("prop1", "q8", 3, "sampled", 30),
        ("prop1", "cyclic:2", 4, "sampled", 5),
        ("mobius", "cyclic:2", 3, "exhaustive", 0),
        ("mobius", "cyclic:1", 4, "exhaustive", 0),
        ("mobius", "klein4", 2, "exhaustive", 0),
        ("mobius", "q8", 1, "exhaustive", 0),
        ("theorem1", "cyclic:2", 2, "exhaustive", 0),
        ("theorem1", "cyclic:3", 2, "exhaustive", 0),
        ("theorem1", "symmetric:3", 2, "sampled", 100),
        ("theorem1", "cyclic:2", 3, "sampled", 60),
        ("theorem1", "q8", 2, "sampled", 40),
        ("theorem1", "d4", 2, "sampled", 40),
        ("theorem1", "cyclic:2", 4, "sampled", 10),
        ("left-ideal", "cyclic:2", 2, "exhaustive", 0),
        ("left-ideal", "cyclic:1", 3, "exhaustive", 0),
        ("left-ideal", "symmetric:3", 1, "exhaustive", 0),
        ("left-ideal", "q8", 1, "exhaustive", 0),
        ("counts", "cyclic:2", 4, "exhaustive", 0),
        ("counts", "q8", 2, "exhaustive", 0),
        ("counts", "symmetric:3", 3, "exhaustive", 0),
    )

    def __init__(self, gw, seed, workdir):
        super().__init__(gw, seed, workdir, sorted({job[1] for job in self.JOBS}))
        self.mix = Counter()

    def round(self, r):
        rng = random.Random(f"verify-sweep:{self.seed}:{r}")
        ops = []
        for target, key, n, mode, samples in self.JOBS:
            table, group = self.group(key, rng)
            # a sampled sweep's cost depends on its sampling seed, which is
            # drawn afresh each round so that every run sees the same spread
            seed = rng.randrange(1_000_000) if mode == "sampled" else 0
            call = partial(self.verify, target, group, n, mode=mode,
                           samples=samples or 200, seed=seed)
            check = partial(check_report, target, table, n, mode, samples, seed)
            self.mix[target] += 1
            ops.append(Op(f"{target} {key} n={n}", key, call, check))
        rng.shuffle(ops)
        return ops

    def verify(self, *args, **kwargs):
        return self.gw.run_verification(*args, **kwargs)

    def properties(self):
        return {"operations by target": dict(self.mix)}


def check_report(target, group, n, mode, samples, seed, report):
    m = group.order
    expected = {
        "schema_version": 1, "theorem": target, "group": group.name, "n": n,
        "mode": mode, "seed": seed if mode == "sampled" else None,
        "pairs_checked": ref.expected_pairs_checked(target, n, m, mode, samples),
        "failures": [], "passed": True,
    }
    if target == "identities":
        expected["element_count"] = ref.partition_count(n, m)
    if target == "counts":
        expected["partition_count"] = ref.partition_count(n, m)
        expected["composition_count"] = ref.composition_count(n, m)
        expected["wreath_count"] = ref.wreath_count(n, m)
    for key, value in expected.items():
        if report.get(key) != value:
            return f"{key} = {report.get(key)!r}, expected {value!r}"
    return None


# ---------------------------------------------------------------------------
# algebra-calc: one ``gwreath multiply`` request through cli.main

class AlgebraCalc:
    # (kind, group, n, left shape, right shape).  An X or sigma shape lists
    # its terms as size/color-slot pairs: "1a2b2a" is sizes 1, 2, 2 with the
    # first and last part sharing a color and the middle one another.  The
    # shape fixes the work (for X, the coarsenings of each term, which set
    # how often the wreath group is enumerated); the seed picks the colors.
    # A partition shape lists block sizes; a wreath element has none.
    JOBS = (
        ("x", "cyclic:2", 4, "2a2b", "1a3a 4b"),
        ("x", "cyclic:2", 4, "1a1b2b", "2a2a 1b3a"),
        ("x", "cyclic:2", 4, "1a1a2b", "3a1b"),
        ("x", "cyclic:2", 4, "1a2a1b 4a", "2b2a"),
        ("x", "cyclic:1", 5, "1a2a2a 2a3a", "3a2a 1a4a"),
        ("x", "cyclic:1", 5, "1a1a3a", "5a 2a3a"),
        ("x", "cyclic:1", 4, "1a1a1a1a", "2a2a"),
        ("x", "klein4", 3, "1a2b 3a", "2a1b 1a1a1b"),
        ("x", "cyclic:2", 3, "1a1b1a 2a1a 3b", "1a2b 2b1b"),
        ("x", "cyclic:3", 3, "1a1b1c 2a1b 3c", "1a2a 3b 1b1b1a"),
        ("x", "symmetric:3", 3, "1a2b", "2a1b"),
        ("x", "symmetric:3", 3, "1a1b1a", "3a"),
        ("x", "q8", 2, "1a1b 2a", "2b 1a1a"),
        ("x", "q8", 2, "2a", "1a1b"),
        ("x", "d4", 2, "1a1b", "2a 1b1a"),
        ("x", "d4", 2, "1a1a", "2b"),
        ("x", "s4", 2, "1a1b", "2a"),
        ("sigma", "cyclic:2", 4, "2a2b 1a3a", "1a1b2a 4b"),
        ("sigma", "symmetric:3", 3, "1a2b 3c", "2a1b"),
        ("sigma", "s4", 2, "1a1b", "2a 1a1b"),
        ("sigma", "q8", 3, "1a1b1c", "2a1b"),
        ("sigma", "klein4", 3, "1a1b1c 3a 2a1b", "1a2b 2a1a"),
        ("sigma", "d4", 2, "1a1b 2a", "2b 1a1b"),
        ("partition", "s4", 4, (1, 3), (2, 1, 1)),
        ("partition", "d4", 5, (2, 3), (1, 1, 3)),
        ("partition", "symmetric:3", 6, (3, 3), (2, 2, 2)),
        ("partition", "q8", 3, (1, 2), (1, 1, 1)),
        ("wreath", "s4", 5, None, None),
        ("wreath", "q8", 4, None, None),
        ("wreath", "cyclic:3", 6, None, None),
        ("wreath", "d4", 3, None, None),
    )

    def __init__(self, gw, seed, workdir):
        import gwreath.cli

        self.cli = gwreath.cli
        self.seed = seed
        self.groups, self.specs = write_group_files(FILE_GROUPS, workdir, seed)
        for key in {job[1] for job in self.JOBS} - set(FILE_GROUPS):
            self.groups[key] = BASE_GROUPS[key]()
            self.specs[key] = key
        self.mix = Counter()
        self.operands_seen = set()
        self.count = 0
        self.repeats = 0

    def round(self, r):
        rng = random.Random(f"algebra-calc:{self.seed}:{r}")
        ops = []
        for kind, key, n, left, right in self.JOBS:
            group = self.groups[key]
            if kind in ("x", "sigma"):
                token = "X" if kind == "x" else "sigma"
                left, right = (_combination(rng, group.order, shape) for shape in (left, right))
                operands = (_render_operand(rng, group, token, left),
                            _render_operand(rng, group, token, right))
                if kind == "x":
                    check = partial(self._check_x, group, self.specs[key], n, left, right)
                else:
                    check = partial(_check_sigma, group, left, right)
            elif kind == "partition":
                left, right = (_partition(rng, group.order, sizes) for sizes in (left, right))
                operands = (ref.render_partition(group, left), ref.render_partition(group, right))
                check = partial(_check_text, ref.render_partition(
                    group, ref.partition_product(group, left, right)))
            else:
                left, right = _wreath(rng, n, group.order), _wreath(rng, n, group.order)
                operands = (ref.render_wreath(group, left), ref.render_wreath(group, right))
                check = partial(_check_text, ref.render_wreath(
                    group, ref.wreath_product(group, left, right)))
            self.mix[kind] += 1
            if r < SHARE_ROUNDS:
                self._note_request(key, n, operands)
            # "--" because an operand may start with a minus sign
            argv = ["multiply", "--group", self.specs[key], "--n", str(n), "--", *operands]
            ops.append(Op(f"{kind} {key} n={n}", key, partial(self.request, argv), check))
        rng.shuffle(ops)
        return ops

    def request(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(argv)
        return code, buffer.getvalue()

    def _note_request(self, key, n, operands):
        self.count += 1
        seen = [(key, n, text) in self.operands_seen for text in operands]
        self.repeats += any(seen)
        self.operands_seen.update((key, n, text) for text in operands)

    def _check_x(self, group, spec, n, left, right, output):
        problem = _check_combination(group, "X", left, right, output)
        if problem:
            return problem
        # Theorem 1: X_a * X_b has the coordinates of sigma_b * sigma_a
        argv = ["multiply", "--group", spec, "--n", str(n), "--",
                ref.render_combination(group, "sigma", right),
                ref.render_combination(group, "sigma", left)]
        code, text = self.request(argv)
        if code != 0:
            return f"cross-route sigma request exited {code}"
        x_coords = ref.parse_combination(group, output[1])
        if ref.parse_combination(group, text) != x_coords:
            return "X(L)*X(R) and sigma(R)*sigma(L) give different coordinates"
        if x_coords != ref.combination_product(group, right, left):
            return "X(L)*X(R) differs from sigma(R)*sigma(L) expanded by definition"
        return None

    def properties(self):
        return {
            "requests by kind": dict(self.mix),
            f"share of the first {SHARE_ROUNDS} rounds' requests repeating an earlier operand":
                round(self.repeats / max(self.count, 1), 4),
        }


def _check_text(expected, output):
    code, text = output
    if code != 0:
        return f"request exited {code}"
    if text.strip() != expected:
        return f"product {text.strip()!r}, expected {expected!r} by definition"
    return None


def _check_combination(group, token, left, right, output):
    """Exit code, grammar and the augmentation identity."""
    code, text = output
    if code != 0:
        return f"request exited {code}"
    try:
        product = ref.parse_combination(group, text)
    except (ValueError, KeyError) as exc:
        return f"unreadable product: {exc}"
    if ref.render_combination(group, token, product) != text.strip():
        return "product text is not in canonical form"
    if ref.augmentation(product) != ref.augmentation(left) * ref.augmentation(right):
        return "augmentation of the product is not the product of augmentations"
    return None


def _check_sigma(group, left, right, output):
    problem = _check_combination(group, "sigma", left, right, output)
    if problem:
        return problem
    if ref.parse_combination(group, output[1]) != ref.combination_product(group, left, right):
        return "sigma product differs from the expansion by definition"
    return None


def _combination(rng, order, shape):
    """Distinct terms of the shape's sizes and color pattern, each slot
    letter given its own random color, with random coefficients."""
    while True:
        terms = {}
        for term in shape.split():
            pairs = re.findall(r"(\d)([a-z])", term)
            slots = sorted({slot for _, slot in pairs})
            color = dict(zip(slots, rng.sample(range(order), len(slots))))
            comp = tuple((int(size), color[slot]) for size, slot in pairs)
            terms[comp] = rng.choice((1, 2, 3)) * rng.choice((1, -1))
        if len(terms) == len(shape.split()):
            return terms


def _render_operand(rng, group, token, combination):
    """Grammar text as a user would type it: terms in random order, colors
    by label or, now and then, by index."""
    pieces = []
    for comp, coeff in sorted(combination.items(), key=lambda _: rng.random()):
        parts = "|".join(
            f"{size}:{color if rng.random() < 0.25 and color < 10 else group.labels[color]}"
            for size, color in comp)
        body = f"{token}({parts})" if abs(coeff) == 1 else f"{abs(coeff)}*{token}({parts})"
        sign = "-" if coeff < 0 else ("+" if pieces else "")
        pieces.append(f"{sign} {body}" if pieces else f"{sign}{body}")
    return " ".join(pieces)


def _partition(rng, order, sizes):
    points = rng.sample(range(1, sum(sizes) + 1), sum(sizes))
    blocks, start = [], 0
    for size in sizes:
        blocks.append((tuple(sorted(points[start:start + size])), rng.randrange(order)))
        start += size
    return tuple(blocks)


def _wreath(rng, n, order):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple((value, rng.randrange(order)) for value in values)


WORKLOADS = {
    "sigma-table": SigmaTable,
    "verify-sweep": VerifySweep,
    "algebra-calc": AlgebraCalc,
}
