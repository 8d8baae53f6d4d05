"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces gwreath's public functions with recording
wrappers in every module namespace that holds them (``from .x import f``
binds a name in each consumer, so patching the defining module alone would
miss most calls).  Three kinds of wrapper:

* span: records (name, start, end, parent) for each call;
* items: counts what a generator yields;
* count: counts calls only.  Used for ``coarsenings`` and for the hottest
  leaves, ``FiniteGroup.mul`` and ``LinearCombination.__add__``, where one
  span per call would cost more than the work measured; their time stays in
  the enclosing span.

Spans are kept in flat arrays in memory and written out once, at the end.
Self time is a span's duration minus the durations of its direct children.
Nothing is recorded while ``on`` is false, so checks made between
operations do not count.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

SPANS = {
    "invariant": ("sigma_product", "sigma_product_bruteforce", "structure_constant_table"),
    "semigroup": ("multiply",),
    "groups": ("from_table",),
    "wreath": ("wreath_mul", "wreath_inverse", "descent_composition",
               "chamber_product_direct"),
    "descent": ("x_basis", "y_basis", "descent_fibers", "group_algebra_mul",
                "express_in_x_basis"),
    "parsing": ("parse_composition", "parse_partition", "parse_colored_permutation",
                "parse_combination", "detect_kind", "render_composition",
                "render_partition", "render_colored_permutation", "render_combination"),
    "verify": ("run_verification",),
    "cli": ("main",),
}
ITEMS = {
    "invariant": ("enumerate_compatible_matrices",),
    "partitions": ("enumerate_partitions_of_type",),
    "wreath": ("enumerate_wreath",),
}
COUNTS = {
    "partitions": ("coarsenings",),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.in_xy = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, before=None, after=None, xy=False):
        """``xy`` marks x_basis/y_basis, inside which wreath elements
        enumerated count as visited."""
        nid = self._id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(index)
            self.in_xy += xy
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self.stack.pop()
                self.in_xy -= xy
            if after is not None:
                after(result)
            return result

        return wrapper

    def items(self, name, fn):
        def counted(iterator):
            counts = self.counts
            for item in iterator:
                counts[name] += 1
                if self.in_xy and name == "wreath.enumerate_wreath":
                    counts["descent.wreath_visited"] += 1
                yield item

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            return counted(iterator) if self.on else iterator

        return wrapper

    def count(self, name, fn, extra=None):
        def wrapper(*args, **kwargs):
            if self.on:
                self.counts[name] += 1
                if extra is not None:
                    extra(*args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch gwreath in place; the process keeps the wrappers for life."""
        import importlib

        from gwreath.groups import FiniteGroup
        from gwreath.linear import LinearCombination

        modules = [importlib.import_module(name) for name in (
            "gwreath", "gwreath.groups", "gwreath.partitions", "gwreath.semigroup",
            "gwreath.wreath", "gwreath.invariant", "gwreath.descent", "gwreath.linear",
            "gwreath.parsing", "gwreath.verify", "gwreath.cli")]
        by_name = {module.__name__: module for module in modules}
        replacement = {}

        hooks = {
            "descent.x_basis": {"after": self._x_support, "xy": True},
            "descent.y_basis": {"xy": True},
            "descent.group_algebra_mul": {"before": self._term_pairs},
        }
        for layer, names in SPANS.items():
            module = by_name[f"gwreath.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                name = f"{layer}.{fname}"
                replacement[id(fn)] = self.span(name, fn, **hooks.get(name, {}))
        for table, wrap in ((ITEMS, self.items), (COUNTS, self.count)):
            for layer, names in table.items():
                module = by_name[f"gwreath.{layer}"]
                for fname in names:
                    fn = getattr(module, fname)
                    replacement[id(fn)] = wrap(f"{layer}.{fname}", fn)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacement and callable(value):
                    setattr(module, attr, replacement[id(value)])
        FiniteGroup.mul = self.count("groups.mul", FiniteGroup.mul)
        LinearCombination.__add__ = self.count("linear.add", LinearCombination.__add__,
                                               extra=self._copied)

    def _x_support(self, result):
        self.counts["descent.x_basis.support"] += len(result)

    def _term_pairs(self, group, x, y, *_rest, **_kwargs):
        self.counts["descent.group_algebra_mul.term_pairs"] += len(x) * len(y)

    def _copied(self, combination, _other):
        self.counts["linear.add.terms_copied"] += len(combination)

    # -- results --------------------------------------------------------------

    def summary(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and total self time in seconds."""
        total = len(self.start)
        children = array("d", bytes(8 * total))
        start, end, parent = self.start, self.end, self.parent
        for i in range(total):
            p = parent[i]
            if p >= 0:
                children[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names = self.names
        for i in range(total):
            name = names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - children[i]
        return calls, self_s

    def write(self, path) -> None:
        """One JSON header line, then the name ids (uint16), parents (int64),
        starts and ends (float64, seconds) as raw native-endian arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_id:H", "parent:l", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)
