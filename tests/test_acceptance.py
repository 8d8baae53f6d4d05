"""Acceptance sweep: every criterion at its full stated size, exact equality
throughout.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion."""

import math
import random
import time

from gwreath.descent import (
    express_in_x_basis,
    group_algebra_mul,
    sigma_act_on_chamber,
    sigma_to_x,
    x_basis,
    y_basis,
    y_from_x,
)
from gwreath.groups import cyclic, klein_four, symmetric
from gwreath.invariant import (
    CompatibleMatrix,
    enumerate_compatible_matrices,
    read_row_by_row,
    sigma_product,
    sigma_product_bruteforce,
)
from gwreath.linear import LinearCombination
from gwreath.partitions import (
    count_colored_compositions,
    count_colored_partitions,
    enumerate_colored_compositions,
    enumerate_colored_partitions,
    stirling2,
)
from gwreath.semigroup import idempotents, identity_partition, multiply, power
from gwreath.verify import check_identities, verify_antihomomorphism
from gwreath.wreath import (
    chamber_to_wreath,
    count_wreath,
    descent_composition,
    enumerate_wreath,
    is_chamber,
    wreath_identity,
    wreath_to_chamber,
)

GROUPS_ORDER_AT_MOST_6 = [
    cyclic(1), cyclic(2), cyclic(3), cyclic(4), klein_four(),
    cyclic(5), cyclic(6), symmetric(3),
]


def _report(number: int, description: str, failures) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status}: {description}")
    assert not failures, f"criterion {number}: {failures[:3]}"


def test_criterion_1_antihomomorphism():
    started = time.monotonic()
    failures = []
    sweeps = (
        [(cyclic(1), n) for n in (1, 2, 3, 4)]
        + [(cyclic(2), n) for n in (1, 2, 3)]
        + [(cyclic(3), n) for n in (1, 2, 3)]
        + [(symmetric(3), n) for n in (1, 2)]
    )
    for group, n in sweeps:
        report = verify_antihomomorphism(group, n, mode="exhaustive")
        if not report["passed"]:
            failures.append((group.name, n, report["failures"][0]))
    sampled = verify_antihomomorphism(cyclic(2), 4, mode="sampled", samples=200, seed=0)
    if not sampled["passed"]:
        failures.append(("cyclic:2", 4, sampled["failures"][0]))
    elapsed = time.monotonic() - started
    _report(1, "anti-homomorphism image(sigma_a*sigma_b) = X_b*X_a, exact, "
               f"exhaustive plus 200 sampled pairs ({elapsed:.1f}s)", failures)


def test_criterion_2_product_rule_oracle_equivalence():
    failures = []
    jobs = [(cyclic(1), n) for n in (1, 2, 3, 4)] + [(cyclic(2), n) for n in (1, 2, 3, 4)]
    jobs += [(group, n) for group in GROUPS_ORDER_AT_MOST_6 for n in (1, 2, 3)]
    for group, n in jobs:
        comps = list(enumerate_colored_compositions(group, n))
        for left in comps:
            for right in comps:
                if sigma_product(group, left, right) != sigma_product_bruteforce(
                    group, left, right
                ):
                    failures.append((group.name, n, left, right))
    _report(2, "matrix-rule products equal brute-force expansion on all pairs "
               "(n<=4 with |G|<=2; n<=3 for every group of order <=6)", failures)


def test_criterion_3_semigroup_identities():
    failures = []
    for group in (cyclic(1), cyclic(2), cyclic(3)):
        for n in (1, 2, 3):
            report = check_identities(group, n, mode="exhaustive")
            if not report["passed"]:
                failures.append((group.name, n, report["failures"]))
    sampled = check_identities(cyclic(2), 4, mode="sampled", samples=10_000, seed=0)
    if not sampled["passed"]:
        failures.append(("cyclic:2", 4, sampled["failures"]))
    _report(3, "x^(|G|+1) = x and x*y*x^|G| = x*y, exhaustive at n<=3 |G|<=3 "
               "plus 10000 sampled pairs at n=4 |G|=2", failures)


def test_criterion_4_mobius_round_trip():
    failures = []
    jobs = [(cyclic(1), n) for n in (1, 2, 3, 4)] + [(cyclic(2), n) for n in (1, 2, 3, 4)]
    jobs += [(cyclic(3), n) for n in (1, 2, 3)]
    for group, n in jobs:
        for comp in enumerate_colored_compositions(group, n):
            if y_from_x(group, comp) != y_basis(group, comp):
                failures.append((group.name, n, comp))
    _report(4, "inclusion-exclusion round trip y_from_x = y_basis, exact", failures)


def test_criterion_5_worked_examples():
    failures = []
    G7 = cyclic(7)
    g1, g2, h1, h2, h3 = 1, 2, 3, 4, 5
    left = ((4, g1), (6, g2))
    right = ((3, h1), (5, h2), (2, h3))
    matrix = CompatibleMatrix(
        cells=(
            ((2, G7.mul(h1, g1)), None, (2, G7.mul(h3, g1))),
            ((1, G7.mul(h1, g2)), (5, G7.mul(h2, g2)), None),
        ),
        row_type=left,
        col_type=right,
    )
    if matrix not in list(enumerate_compatible_matrices(G7, left, right)):
        failures.append("matrix missing from enumeration")
    expected_reading = (
        (2, G7.mul(h1, g1)), (2, G7.mul(h3, g1)),
        (1, G7.mul(h1, g2)), (5, G7.mul(h2, g2)),
    )
    if read_row_by_row(matrix) != expected_reading:
        failures.append(f"row-by-row reading {read_row_by_row(matrix)}")
    if expected_reading != ((2, 4), (2, 6), (1, 5), (5, 6)):
        failures.append("hand-computed colors in Z/7 disagree")
    for group, g, h in ((cyclic(2), 1, 0), (cyclic(7), 2, 5), (symmetric(3), 4, 3),
                        (klein_four(), 1, 2)):
        assert g != h and max(g, h) < group.order
        u = ((3, g), (6, g), (4, g), (1, h), (2, h), (5, h), (8, g), (7, g))
        if descent_composition(u) != ((2, g), (1, g), (3, h), (1, g), (1, g)):
            failures.append((group.name, "descent composition example"))
    _report(5, "worked compatible matrix in Z/7 and the descent composition "
               "example reproduce bit-exactly", failures)


def test_criterion_6_trivial_color_group_degeneration():
    failures = []
    G = cyclic(1)
    for n in (1, 2, 3, 4):
        elements = list(enumerate_colored_partitions(G, n))
        if len(idempotents(G, n)) != len(elements):
            failures.append((n, "not all idempotent"))
        dim = count_colored_compositions(n, 1)
        if dim != 2 ** (n - 1):
            failures.append((n, f"dimension {dim} != 2^{n - 1}"))
        report = verify_antihomomorphism(G, n)
        if not report["passed"]:
            failures.append((n, report["failures"][0]))
    _report(6, "single-color degeneration: all elements idempotent, dimension "
               "2^(n-1), anti-homomorphism sweep passes (classical case)", failures)


def test_criterion_7_left_ideal_and_action():
    failures = []
    for group in (cyclic(1), cyclic(2)):
        for n in (1, 2, 3):
            chambers = [wreath_to_chamber(u) for u in enumerate_wreath(group, n)]
            for partition in enumerate_colored_partitions(group, n):
                for chamber in chambers:
                    if not is_chamber(multiply(group, partition, chamber)):
                        failures.append((group.name, n, "product left the chamber set"))
            comps = list(enumerate_colored_compositions(group, n))
            identity = wreath_identity(n)
            for comp in comps:
                vec = x_basis(group, comp)
                for v in enumerate_wreath(group, n):
                    action = sigma_act_on_chamber(group, comp, v)
                    if action != group_algebra_mul(
                        group, LinearCombination.basis(v), vec
                    ):
                        failures.append((group.name, n, comp, v))
                if sigma_act_on_chamber(group, comp, identity) != vec:
                    failures.append((group.name, n, comp, "identity action"))
    _report(7, "chambers form a left ideal; sigma action on a chamber equals "
               "right multiplication by X; acting on the identity gives X", failures)


def test_criterion_8_counting_identities():
    failures = []
    for group in (cyclic(1), cyclic(2), cyclic(3)):
        order = group.order
        for n in (1, 2, 3, 4):
            enumerated = sum(1 for _ in enumerate_colored_partitions(group, n))
            expected = sum(
                math.factorial(k) * stirling2(n, k) * order**k for k in range(1, n + 1)
            )
            if enumerated != expected or expected != count_colored_partitions(n, order):
                failures.append((group.name, n, "partition count"))
            comp_count = sum(1 for _ in enumerate_colored_compositions(group, n))
            comp_expected = sum(
                math.comb(n - 1, length - 1) * order**length
                for length in range(1, n + 1)
            )
            if comp_count != comp_expected:
                failures.append((group.name, n, "composition count"))
            wreath_total = 0
            fiber_sizes: dict = {}
            for u in enumerate_wreath(group, n):
                wreath_total += 1
                comp = descent_composition(u)
                fiber_sizes[comp] = fiber_sizes.get(comp, 0) + 1
            if wreath_total != order**n * math.factorial(n):
                failures.append((group.name, n, "wreath count"))
            if sum(fiber_sizes.values()) != wreath_total:
                failures.append((group.name, n, "descent fibers do not partition"))
    if count_colored_partitions(3, 2) != 74:
        failures.append("n=3 |G|=2 count is not 74")
    _report(8, "cardinalities match the closed forms: partitions, compositions, "
               "wreath elements, and descent fibers partition the group", failures)


def test_criterion_9_closure_in_x_basis():
    failures = []
    jobs = [(group, n) for group in (cyclic(1), cyclic(2), cyclic(3)) for n in (1, 2, 3)]
    jobs.append((symmetric(3), 2))
    for group, n in jobs:
        comps = list(enumerate_colored_compositions(group, n))
        vectors = {comp: x_basis(group, comp) for comp in comps}
        for a in comps:
            for b in comps:
                product = group_algebra_mul(group, vectors[b], vectors[a])
                try:
                    coords = express_in_x_basis(group, n, product)
                except Exception as exc:
                    failures.append((group.name, n, a, b, repr(exc)))
                    continue
                rebuilt = LinearCombination()
                for comp, coeff in coords.items():
                    rebuilt = rebuilt + coeff * vectors[comp]
                if rebuilt != product:
                    failures.append((group.name, n, a, b, "coordinates do not rebuild"))
                # Theorem 1: X_b * X_a has the coordinates of sigma_a * sigma_b
                if coords != sigma_product(group, a, b):
                    failures.append((group.name, n, a, b, "coordinates differ from sigma_a * sigma_b"))
    _report(9, "X_b * X_a always re-expresses in the X basis with integer "
               "coordinates (closure), and those are the sigma coordinates of "
               "sigma_a * sigma_b, including non-abelian S3 at n=2", failures)


def test_criterion_extras_power_and_random_spotchecks():
    # not a numbered criterion: cheap cross-checks that the sweeps above rely on
    failures = []
    G = cyclic(2)
    rng = random.Random(1)
    elements = list(enumerate_colored_partitions(G, 3))
    for _ in range(200):
        x = elements[rng.randrange(len(elements))]
        if power(G, x, 3) != x:
            failures.append(x)
    if power(G, elements[0], 0) != identity_partition(3):
        failures.append("zeroth power")
    total = LinearCombination()
    for comp in enumerate_colored_compositions(G, 2):
        total = total + sigma_to_x(G, LinearCombination.basis(comp))
    if count_wreath(2, 2) != 8 or chamber_to_wreath(wreath_to_chamber(wreath_identity(2))) != wreath_identity(2):
        failures.append("chamber bijection")
    _report(0, "spot checks behind the sweeps", failures)
