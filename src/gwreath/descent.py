"""The descent algebra inside the group algebra of the wreath product.

Two bases, both indexed by colored compositions:

* ``y_basis(comp)`` sums the elements whose descent composition is exactly
  ``comp``; the supports (the descent fibers) partition the whole wreath
  product.
* ``x_basis(comp)`` sums the elements whose descent composition is a
  coarsening of ``comp``, i.e. X_comp = sum of Y_beta over beta that comp
  refines.  Inverting that by inclusion-exclusion recovers Y from X.

``expand_x`` builds X_comp as sigma_comp acting on the identity chamber:
each partition of type comp writes its blocks in order, each increasing and
in its own color, so no X vector needs ``descent_fibers``, the one pass
over the wreath product.  ``y_to_x`` is the one inclusion-exclusion routine.
``express_in_x_basis`` reads an element back in the X basis by counting
each descent fiber through ``y_to_x``, so only ``y_basis`` and the sweeps
that list the group make that pass.

``sigma_to_x`` sends each sigma basis vector of the invariant algebra to the
matching X vector.  That map reverses products (Theorem 1): the image of
sigma_a * sigma_b is X_b * X_a, so the X coordinates of X_a * X_b are the
sigma coordinates of sigma_b * sigma_a, which is how ``gwreath multiply``
computes X products.  The ``theorem1`` sweep, in :mod:`gwreath.verify`,
checks the identity against ``group_algebra_mul``, the independent oracle.
"""

from __future__ import annotations

from .errors import NotInSpanError
from .limits import DEFAULT_LIMIT, check_limit
from .linear import LinearCombination
from .partitions import (
    ColoredComposition,
    coarsenings,
    composition_total,
    count_partitions_of_type,
    enumerate_partitions_of_type,
    validate_composition,
)
from .semigroup import multiply
from .wreath import (
    ColoredPermutation,
    chamber_to_wreath,
    descent_composition,
    enumerate_wreath,
    validate_colored_permutation,
    wreath_mul,
    wreath_to_chamber,
)


def descent_fibers(group, n: int, limit: int | None = DEFAULT_LIMIT) -> dict:
    """Map each composition to the tuple of elements with that descent
    composition.  The fibers partition the wreath product; this is the one
    place that enumerates it."""
    fibers: dict = {}
    for u in enumerate_wreath(group, n, limit):
        fibers.setdefault(descent_composition(u), []).append(u)
    return {comp: tuple(members) for comp, members in fibers.items()}


def _check_x_terms(group, comps, limit) -> None:
    """Validate ``comps``; refuse when their X vectors hold over ``limit`` terms."""
    for comp in comps:
        validate_composition(comp, group)
    check_limit(sum(map(count_partitions_of_type, comps)), limit, "X vector expansion")


def expand_x(coords) -> LinearCombination:
    """sum of coeff * X_comp over ``coords`` in the group algebra, where X_comp
    has one term per partition of type comp, its blocks written in order."""
    return LinearCombination(
        (tuple((x, color) for block, color in partition for x in block), coeff)
        for comp, coeff in coords.items()
        for partition in enumerate_partitions_of_type(comp, limit=None)
    )


def y_to_x(y_coords) -> LinearCombination:
    """X coordinates of sum of coeff * Y_comp over ``y_coords``, by
    inclusion-exclusion: Y_c = sum over coarsenings b of c of
    (-1)^(len(c) - len(b)) X_b."""
    return LinearCombination(
        (coarser, -coeff if (len(comp) - len(coarser)) % 2 else coeff)
        for comp, coeff in y_coords.items()
        for coarser in coarsenings(comp)
    )


def y_basis(group, comp: ColoredComposition,
            limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    validate_composition(comp, group)
    fiber = descent_fibers(group, composition_total(comp), limit).get(comp, ())
    return LinearCombination((u, 1) for u in fiber)


def x_basis(group, comp: ColoredComposition,
            limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    return sigma_to_x(group, LinearCombination.basis(comp), limit)


def y_from_x(group, comp: ColoredComposition,
             limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """Recover the Y vector by inclusion-exclusion over coarsenings; must
    agree with ``y_basis`` exactly.  X_comp is checked first, since it has
    at least as many terms as comp has coarsenings."""
    _check_x_terms(group, [comp], limit)
    return sigma_to_x(group, y_to_x({comp: 1}), limit)


def group_algebra_mul(group, x: LinearCombination, y: LinearCombination) -> LinearCombination:
    """Bilinear extension of the wreath product to the group algebra."""
    return LinearCombination(
        (wreath_mul(group, u, v), a * b) for u, a in x.items() for v, b in y.items()
    )


def sigma_to_x(group, x: LinearCombination,
               limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """Linear extension of sigma_comp -> X_comp into the group algebra."""
    _check_x_terms(group, x.keys(), limit)
    return expand_x(x)


def express_in_x_basis(group, n: int, z: LinearCombination,
                       limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """Coordinates of ``z`` in the X basis, or NotInSpanError with a witness.

    ``z`` lies in the descent algebra exactly when its coefficients are
    constant on every descent fiber; the constants are the Y coordinates,
    and inclusion-exclusion converts those to X coordinates.  No pass over
    the wreath product is made: z's terms with descent composition comp
    cover Y_comp exactly when they agree and number |Y_comp|, which is
    counted from ``y_to_x``.  Only a fiber that fails is walked, inside
    X_comp, to name an element whose coefficient differs from the one of
    z's first term there.  Each comp met counts its X_comp terms against
    ``limit``; X_comp bounds both comp's coarsenings and that walk.
    """
    buckets: dict = {}
    for u, coeff in z.items():
        if len(u) != n:
            raise ValueError(f"element {u} is not over 1..{n}")
        validate_colored_permutation(u, group, n)
        buckets.setdefault(descent_composition(u), {})[u] = coeff
    y_coords: dict = {}
    for comp, seen in buckets.items():
        _check_x_terms(group, [comp], limit)
        head, first = next(iter(seen.items()))
        size = sum(c * count_partitions_of_type(b) for b, c in y_to_x({comp: 1}).items())
        if len(seen) != size or any(value != first for value in seen.values()):
            u = next(u for u in expand_x({comp: 1}).keys()
                     if descent_composition(u) == comp and seen.get(u, 0) != first)
            raise NotInSpanError(
                "not in the descent algebra: elements with equal descent "
                f"composition {comp} carry coefficients {first} and {seen.get(u, 0)}",
                witness=(head, u),
            )
        y_coords[comp] = first
    return y_to_x(y_coords)


def sigma_act_on_chamber(group, comp: ColoredComposition, v: ColoredPermutation,
                         limit: int | None = DEFAULT_LIMIT) -> LinearCombination:
    """sigma_comp acting on the chamber of ``v`` by left multiplication in
    the partition semigroup, pulled back to the group algebra.

    Every summand lands on a chamber because chambers form a left ideal;
    the result equals delta_v * X_comp in the group algebra.
    """
    validate_composition(comp, group)
    chamber = wreath_to_chamber(v)
    return LinearCombination(
        (chamber_to_wreath(multiply(group, p, chamber)), 1)
        for p in enumerate_partitions_of_type(comp, limit)
    )
