"""Verification sweeps over the library's defining identities.

``run_verification`` dispatches through one registry, ``_SWEEPS``, whose
order is ``VERIFY_TARGETS``.  ``identities``, ``prop1`` and ``theorem1`` run
exhaustively or on ``samples`` (at least 1) seeded random pairs; ``mobius``,
``left-ideal`` and ``counts`` are always exhaustive.

Every report is a ``parsing.document`` (schema_version, group, n), and
``_envelope`` adds the fields every sweep shares: theorem (the target
name), mode, seed (None unless sampled), pairs_checked, failures and
passed; ``identities`` adds element_count and ``counts`` the three
enumerated counts.  Reports are deterministic for a fixed configuration,
the seed included.  X vectors come from ``expand_x``; only ``mobius``
and ``counts`` run ``descent_fibers``.

All six targets share one size guard, ``_check_sweep``, run before
anything is enumerated.  The last column of ``_SWEEPS`` states each one's
exhaustive work: the colored partition count squared for the pair sweeps,
that count times |G wr S_n| for ``left-ideal``, the count for ``counts``
and the X terms expanded for ``mobius``.  A sampled sweep refuses more
samples than the limit, and ``_pairs`` the first drawn pair whose fibers
multiply to more than the limit, before any pair is checked.
"""

from __future__ import annotations

import itertools
import random
from functools import cache, partial

from .descent import (
    descent_fibers,
    expand_x,
    group_algebra_mul,
    sigma_act_on_chamber,
    y_to_x,
)
from .errors import FormatError
from .limits import DEFAULT_LIMIT, check_limit
from .linear import LinearCombination
from .parsing import (
    document,
    render_colored_permutation,
    render_composition,
    render_partition,
)
from .partitions import (
    colored_partition_estimates,
    count_colored_compositions,
    count_colored_partitions,
    count_partitions_of_type,
    enumerate_colored_compositions,
    enumerate_colored_partitions,
    stirling2,
)
from .semigroup import multiply, power
from .wreath import (
    chamber_product_direct,
    count_wreath,
    enumerate_wreath,
    is_chamber,
    wreath_identity,
    wreath_to_chamber,
)
from .invariant import sigma_product, sigma_product_bruteforce


def _envelope(target: str, group, n: int, mode: str, seed, pairs: int, failures: list,
              **extra) -> dict:
    return document(group, n, theorem=target, mode=mode, seed=seed, pairs_checked=pairs,
                    failures=failures, passed=not failures, **extra)


DEFAULT_SAMPLES = 200


def _check_sweep(target: str, group, n: int, limit: int | None,
                 mode: str = "exhaustive", samples: int = 0) -> None:
    """The size guard of every target: an exhaustive sweep is refused on the
    first estimate of its work (the last column of ``_SWEEPS``) over the
    limit, and a sampled one on its sample count."""
    if mode == "sampled":
        if samples < 1:
            raise ValueError(f"sample count must be at least 1, got {samples}")
        check_limit(samples, limit, "sampled sweep")
    elif mode == "exhaustive":
        for estimate in _SWEEPS[target][2](n, group.order):
            check_limit(estimate, limit,
                        f"exhaustive {target} sweep at n={n}, |G|={group.order}")
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")


def _pairs(items: list, mode: str, samples: int, seed: int, limit: int | None = None,
           what: str | None = None):
    """A lazy iterator over every ordered pair of ``items``, or a list of
    ``samples`` pairs drawn with ``seed``; returns it and the seed to record
    (None if exhaustive).  Given ``what``, the items are compositions and
    the first drawn pair whose fibers multiply to more than ``limit`` is
    refused as ``what`` before any pair is returned."""
    if mode == "exhaustive":
        return ((a, b) for a in items for b in items), None
    rng = random.Random(seed)
    pairs = [(items[rng.randrange(len(items))], items[rng.randrange(len(items))])
             for _ in range(samples)]
    if what is not None:
        for a, b in pairs:
            check_limit(count_partitions_of_type(a) * count_partitions_of_type(b), limit, what)
    return pairs, seed


def _difference(one: LinearCombination, other: LinearCombination, render_key,
                names: tuple) -> dict:
    """Failure fields for two combinations: the least basis key where they
    differ, rendered, and the coefficient of each side there under
    ``names``; an empty dict when they agree."""
    if one == other:
        return {}
    key = min((one - other).keys())
    return {"key": render_key(key), names[0]: one.coefficient(key),
            names[1]: other.coefficient(key)}


def verify_identities(group, n: int, mode: str = "exhaustive",
                      samples: int = DEFAULT_SAMPLES, seed: int = 0,
                      limit: int | None = DEFAULT_LIMIT) -> dict:
    """Sweep x^(|G|+1) = x and x*y*x^|G| = x*y over the partition semigroup,
    stopping at the first failure.  Exhaustive mode checks every power before
    any pair; sampled mode checks x's power when x is first drawn."""
    _check_sweep("identities", group, n, limit, mode, samples)
    elements = list(enumerate_colored_partitions(group, n, limit))
    powers = {}  # x -> x^|G|, computed once per element
    pairs, used_seed = _pairs(elements, mode, samples, seed)
    if mode == "exhaustive":
        # a pair (x, None) checks x's power alone, so every power comes first
        pairs = itertools.chain(((x, None) for x in elements), pairs)
    failures, checked = [], 0
    x = None
    for a, y in pairs:
        # read the memo only when x changes, so that x is not hashed per pair
        if a is not x:
            x = a
            if x not in powers:
                powers[x] = power(group, x, group.order)
                if multiply(group, x, powers[x]) != x:
                    failures = [{"identity": "power", "x": render_partition(group, x),
                                 "y": None}]
                    break
            x_exp = powers[x]
        if y is None:
            continue
        checked += 1
        xy = multiply(group, x, y)
        if multiply(group, xy, x_exp) != xy:
            failures = [{"identity": "pair", "x": render_partition(group, x),
                         "y": render_partition(group, y)}]
            break
    return _envelope("identities", group, n, mode, used_seed, checked, failures,
                     element_count=len(elements))


# an older public name of the same sweep, kept for library callers
check_identities = verify_identities


def verify_prop1(group, n: int, mode: str = "exhaustive",
                 samples: int = DEFAULT_SAMPLES, seed: int = 0,
                 limit: int | None = DEFAULT_LIMIT) -> dict:
    """Matrix-rule products against brute-force expansion, pair by pair.
    No product is made before the whole sweep passes the size guard."""
    _check_sweep("prop1", group, n, limit, mode, samples)
    comps = list(enumerate_colored_compositions(group, n, limit))
    pairs, used_seed = _pairs(comps, mode, samples, seed, limit, "brute-force sigma product")
    render = partial(render_composition, group)
    failures, checked = [], 0
    for a, b in pairs:
        checked += 1
        difference = _difference(sigma_product(group, a, b),
                                 sigma_product_bruteforce(group, a, b, limit=limit),
                                 render, ("matrix_rule", "bruteforce"))
        if difference:
            failures.append({"left": render(a), "right": render(b), **difference})
    return _envelope("prop1", group, n, mode, used_seed, checked, failures)


def verify_mobius(group, n: int, limit: int | None = DEFAULT_LIMIT) -> dict:
    """Inclusion-exclusion round trip: the Y vector recovered from X vectors
    must equal the sum over its descent fiber, for every composition."""
    _check_sweep("mobius", group, n, limit)
    comps = list(enumerate_colored_compositions(group, n, limit))
    fibers = descent_fibers(group, n, limit)
    render = partial(render_colored_permutation, group)
    failures = []
    for comp in comps:
        difference = _difference(LinearCombination((u, 1) for u in fibers.get(comp, ())),
                                 expand_x(y_to_x({comp: 1})),
                                 render, ("direct", "inverted"))
        if difference:
            failures.append({"composition": render_composition(group, comp), **difference})
    return _envelope("mobius", group, n, "exhaustive", None, len(comps), failures)


def verify_antihomomorphism(group, n: int, mode: str = "exhaustive",
                            samples: int = DEFAULT_SAMPLES, seed: int = 0,
                            limit: int | None = DEFAULT_LIMIT) -> dict:
    """Sweep the identity  sigma_to_x(sigma_a * sigma_b) = X_b * X_a  over
    pairs of compositions, exhaustively or on seeded random samples.

    Each failure records the pair, the first basis key where the sides
    differ, and both coefficients.
    """
    _check_sweep("theorem1", group, n, limit, mode, samples)
    comps = list(enumerate_colored_compositions(group, n, limit))
    pairs, used_seed = _pairs(
        comps, mode, samples, seed, limit,
        f"group-algebra product of two X vectors at n={n}, |G|={group.order}")
    # built on first use, so a sampled sweep builds only the X vectors of its
    # pairs and their products, whose terms the pair's check bounds
    x_vector = cache(lambda comp: expand_x({comp: 1}))
    render = partial(render_composition, group)
    render_key = partial(render_colored_permutation, group)
    failures, checked = [], 0
    for a, b in pairs:
        checked += 1
        lhs = LinearCombination(
            (u, coeff * c)
            for comp, coeff in sigma_product(group, a, b).items()
            for u, c in x_vector(comp).items()
        )
        rhs = group_algebra_mul(group, x_vector(b), x_vector(a))
        difference = _difference(lhs, rhs, render_key,
                                 ("lhs_coefficient", "rhs_coefficient"))
        if difference:
            failures.append({"left": render(a), "right": render(b), **difference})
    return _envelope("theorem1", group, n, mode, used_seed, checked, failures)


def verify_left_ideal(group, n: int, limit: int | None = DEFAULT_LIMIT) -> dict:
    """Chamber identities: products with chambers stay chambers and agree
    with the sorting-permutation route; the sigma action on a chamber matches
    right multiplication by the X vector; acting on the identity gives X."""
    _check_sweep("left-ideal", group, n, limit)
    failures = []
    checked = 0
    elements = list(enumerate_wreath(group, n, limit))
    chambers = [wreath_to_chamber(u) for u in elements]
    for partition in enumerate_colored_partitions(group, n, limit):
        for chamber in chambers:
            checked += 1
            product = multiply(group, partition, chamber)
            if not is_chamber(product):
                kind = "not-a-chamber"
            elif product != chamber_product_direct(group, partition, chamber):
                kind = "sorting-route-mismatch"
            else:
                continue
            failures.append({
                "kind": kind,
                "left": render_partition(group, partition),
                "right": render_partition(group, chamber),
            })
    identity = wreath_identity(n)
    for comp in enumerate_colored_compositions(group, n, limit):
        x_vector = expand_x({comp: 1})
        for v in elements:
            checked += 1
            action = sigma_act_on_chamber(group, comp, v, limit)
            expected = group_algebra_mul(group, LinearCombination.basis(v), x_vector)
            if action != expected:
                failures.append({
                    "kind": "action-mismatch",
                    "composition": render_composition(group, comp),
                    "element": render_colored_permutation(group, v),
                })
        checked += 1
        if sigma_act_on_chamber(group, comp, identity, limit) != x_vector:
            failures.append({
                "kind": "identity-action-mismatch",
                "composition": render_composition(group, comp),
            })
    return _envelope("left-ideal", group, n, "exhaustive", None, checked, failures)


def verify_counts(group, n: int, limit: int | None = DEFAULT_LIMIT) -> dict:
    """Enumerated cardinalities against the closed-form counts, plus the
    partition of the wreath product by descent fibers."""
    _check_sweep("counts", group, n, limit)
    partition_count = sum(1 for _ in enumerate_colored_partitions(group, n, limit))
    comp_count = sum(1 for _ in enumerate_colored_compositions(group, n, limit))
    wreath_count = sum(1 for _ in enumerate_wreath(group, n, limit))
    failures = [
        {"kind": kind, "enumerated": enumerated, "formula": formula}
        for kind, enumerated, formula in (
            ("partition-count", partition_count, count_colored_partitions(n, group.order)),
            ("composition-count", comp_count, count_colored_compositions(n, group.order)),
            ("wreath-count", wreath_count, count_wreath(n, group.order)),
        )
        if enumerated != formula
    ]

    fibers = descent_fibers(group, n, limit)
    fiber_total = sum(len(members) for members in fibers.values())
    distinct = len({u for members in fibers.values() for u in members})
    if fiber_total != wreath_count or distinct != wreath_count:
        failures.append({"kind": "descent-fibers", "fiber_total": fiber_total,
                         "distinct": distinct, "wreath_count": wreath_count})

    return _envelope("counts", group, n, "exhaustive", None, 4, failures,
                     partition_count=partition_count, composition_count=comp_count,
                     wreath_count=wreath_count)


def _partition_pairs(n: int, order: int):
    return (count * count for count in colored_partition_estimates(n, order))


def _x_terms(n: int, order: int):
    """|G wr S_n|, then every X_b's terms once per composition refining b:
    the X_b of length k hold k! S(n, k) |G|^k terms, and each such b has
    2^(n - k) refinements."""
    yield next(colored_partition_estimates(n, order))
    yield sum(count_wreath(k, order) * stirling2(n, k) * 2 ** (n - k) for k in range(1, n + 1))


# target -> (sweep, whether it takes mode, samples and seed, its exhaustive
# work from n and |G| as estimates cheapest first, each a lower bound but
# the last); the order is the one the CLI shows
_SWEEPS = {
    "identities": (verify_identities, True, _partition_pairs),
    "prop1": (verify_prop1, True, _partition_pairs),
    "mobius": (verify_mobius, False, _x_terms),
    "theorem1": (verify_antihomomorphism, True, _partition_pairs),
    "left-ideal": (verify_left_ideal, False, lambda n, order: (
        count * count_wreath(n, order) for count in colored_partition_estimates(n, order))),
    "counts": (verify_counts, False, colored_partition_estimates),
}
VERIFY_TARGETS = tuple(_SWEEPS)


def run_verification(target: str, group, n: int, mode: str = "exhaustive",
                     samples: int = DEFAULT_SAMPLES, seed: int = 0,
                     limit: int | None = DEFAULT_LIMIT) -> dict:
    if target not in _SWEEPS:
        raise FormatError(
            f"unknown verification target {target!r}; expected one of {', '.join(VERIFY_TARGETS)}"
        )
    sweep, sampled, _ = _SWEEPS[target]
    if sampled:
        return sweep(group, n, mode=mode, samples=samples, seed=seed, limit=limit)
    return sweep(group, n, limit=limit)
