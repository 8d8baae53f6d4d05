import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwreath.descent
import gwreath.wreath
from gwreath.descent import (
    descent_fibers,
    express_in_x_basis,
    group_algebra_mul,
    sigma_act_on_chamber,
    sigma_to_x,
    x_basis,
    y_basis,
    y_from_x,
)
from gwreath.errors import NotInSpanError, SizeLimitError
from gwreath.groups import cyclic, klein_four, symmetric
from gwreath.invariant import sigma_product
from gwreath.linear import LinearCombination
from gwreath.partitions import enumerate_colored_compositions, is_refinement
from gwreath.verify import verify_antihomomorphism
from gwreath.wreath import descent_composition, enumerate_wreath, wreath_identity, wreath_mul


def test_y_basis_of_one_part_identity_color():
    G = cyclic(2)
    assert y_basis(G, ((3, 0),)) == LinearCombination.basis(wreath_identity(3))


def test_y_basis_finest_classical():
    G = cyclic(1)
    vec = y_basis(G, ((1, 0), (1, 0), (1, 0)))
    assert vec == LinearCombination.basis(((3, 0), (2, 0), (1, 0)))


def test_y_supports_partition_group():
    G = cyclic(2)
    support = LinearCombination()
    for comp in enumerate_colored_compositions(G, 3):
        support = support + y_basis(G, comp)
    everything = LinearCombination({u: 1 for u in enumerate_wreath(G, 3)})
    assert support == everything


def test_x_basis_of_one_part_identity_color():
    G = cyclic(2)
    assert x_basis(G, ((2, 0),)) == LinearCombination.basis(wreath_identity(2))


def test_x_basis_finest_is_everything_classical():
    G = cyclic(1)
    vec = x_basis(G, ((1, 0), (1, 0), (1, 0)))
    assert vec == LinearCombination({u: 1 for u in enumerate_wreath(G, 3)})


def test_x_basis_is_descent_coarsening_indicator():
    G = cyclic(2)
    for comp in enumerate_colored_compositions(G, 3):
        vec = x_basis(G, comp)
        for u in enumerate_wreath(G, 3):
            # u appears iff its descent composition is coarsened by comp
            expected = 1 if is_refinement(comp, descent_composition(u)) else 0
            assert vec.coefficient(u) == expected


def test_mobius_sign_on_two_part_merge():
    G = cyclic(2)
    comp = ((1, 1), (1, 1))
    recovered = y_from_x(G, comp)
    direct = x_basis(G, comp) - x_basis(G, ((2, 1),))
    assert recovered == direct


@pytest.mark.parametrize("G,n", [(cyclic(1), 3), (cyclic(2), 2), (cyclic(2), 3),
                                 (cyclic(3), 2)])
def test_mobius_round_trip(G, n):
    for comp in enumerate_colored_compositions(G, n):
        assert y_from_x(G, comp) == y_basis(G, comp)


def test_group_algebra_mul_delta_products():
    G = cyclic(2)
    I = wreath_identity(2)
    for u in enumerate_wreath(G, 2):
        assert group_algebra_mul(
            G, LinearCombination.basis(I), LinearCombination.basis(u)
        ) == LinearCombination.basis(u)
        for v in enumerate_wreath(G, 2):
            assert group_algebra_mul(
                G, LinearCombination.basis(u), LinearCombination.basis(v)
            ) == LinearCombination.basis(wreath_mul(G, u, v))


def test_full_sum_is_integral():
    G = cyclic(2)
    total = LinearCombination({u: 1 for u in enumerate_wreath(G, 2)})
    squared = group_algebra_mul(G, total, total)
    assert squared == 8 * total


def test_sigma_to_x_basics():
    G = cyclic(2)
    one = ((2, 0),)
    other = ((1, 1), (1, 0))
    assert sigma_to_x(G, LinearCombination.basis(one)) == LinearCombination.basis(
        wreath_identity(2)
    )
    combined = sigma_to_x(G, LinearCombination({one: 1, other: 1}))
    assert combined == x_basis(G, one) + x_basis(G, other)


def test_sigma_to_x_images_independent():
    # distinct X vectors, and express_in_x_basis inverts the map exactly
    G = cyclic(2)
    comps = list(enumerate_colored_compositions(G, 2))
    images = [x_basis(G, comp) for comp in comps]
    assert len({frozenset(img.items()) for img in images}) == len(comps)
    coords = LinearCombination({comps[0]: 3, comps[2]: -2, comps[4]: 1})
    assert express_in_x_basis(G, 2, sigma_to_x(G, coords)) == coords


def test_express_round_trip():
    G = cyclic(2)
    for comp in enumerate_colored_compositions(G, 2):
        assert express_in_x_basis(G, 2, x_basis(G, comp)) == LinearCombination.basis(comp)


def test_express_rejects_single_element_with_fat_fiber():
    G = cyclic(2)
    u = ((2, 0), (1, 1))
    assert len(descent_fibers(G, 2)[descent_composition(u)]) > 1
    with pytest.raises(NotInSpanError) as err:
        express_in_x_basis(G, 2, LinearCombination.basis(u))
    witness = err.value.witness
    assert witness is not None
    assert descent_composition(witness[0]) == descent_composition(witness[1])


def test_express_rejects_an_element_over_another_n():
    with pytest.raises(ValueError, match="is not over 1..2"):
        express_in_x_basis(cyclic(2), 2, LinearCombination.basis(wreath_identity(3)))


@pytest.mark.parametrize("u,message", [
    (((1, 0), (1, 0)), "permutation of 1..2"),
    (((1, 0), (2, 7)), "color 7 out of range"),
])
def test_express_rejects_an_element_that_is_not_colored_permutation(u, message):
    with pytest.raises(ValueError, match=message):
        express_in_x_basis(cyclic(2), 2, LinearCombination.basis(u))


def test_express_empty():
    assert express_in_x_basis(cyclic(2), 2, LinearCombination()) == LinearCombination()


@pytest.mark.parametrize("G,n", [(cyclic(2), 2), (cyclic(3), 2), (cyclic(2), 3),
                                 (symmetric(3), 2)])
def test_closure_under_products(G, n):
    comps = list(enumerate_colored_compositions(G, n))
    vectors = {comp: x_basis(G, comp) for comp in comps}
    for a in comps:
        for b in comps:
            product = group_algebra_mul(G, vectors[b], vectors[a])
            coords = express_in_x_basis(G, n, product)
            rebuilt = LinearCombination()
            for comp, coeff in coords.items():
                rebuilt = rebuilt + coeff * vectors[comp]
            assert rebuilt == product


def test_sigma_act_on_chamber_matches_right_multiplication():
    for G, n in ((cyclic(1), 3), (cyclic(2), 2)):
        comps = list(enumerate_colored_compositions(G, n))
        for comp in comps:
            vec = x_basis(G, comp)
            for v in enumerate_wreath(G, n):
                action = sigma_act_on_chamber(G, comp, v)
                expected = group_algebra_mul(G, LinearCombination.basis(v), vec)
                assert action == expected


def test_sigma_act_on_identity_gives_x():
    G = cyclic(2)
    I = wreath_identity(3)
    for comp in enumerate_colored_compositions(G, 3):
        assert sigma_act_on_chamber(G, comp, I) == x_basis(G, comp)


def test_sigma_act_identity_composition():
    G = cyclic(2)
    for v in enumerate_wreath(G, 3):
        assert sigma_act_on_chamber(G, ((3, 0),), v) == LinearCombination.basis(v)


def test_antihomomorphism_hand_checked_classical_case():
    # sigma a = sum over both partitions of type ((1),(1)); a*a = 2a, so the
    # image must be 2*X = 2*(identity + transposition)
    G = cyclic(1)
    comp = ((1, 0), (1, 0))
    product = sigma_product(G, comp, comp)
    assert product == LinearCombination({comp: 2})
    lhs = sigma_to_x(G, product)
    both = LinearCombination({((1, 0), (2, 0)): 2, ((2, 0), (1, 0)): 2})
    assert lhs == both
    rhs = group_algebra_mul(G, x_basis(G, comp), x_basis(G, comp))
    assert rhs == both


@pytest.mark.parametrize("G,n", [(cyclic(1), 1), (cyclic(1), 2), (cyclic(1), 3),
                                 (cyclic(2), 2), (cyclic(3), 2), (symmetric(3), 1)])
def test_antihomomorphism_report_passes(G, n):
    report = verify_antihomomorphism(G, n)
    assert report["passed"]
    assert report["failures"] == []
    assert report["mode"] == "exhaustive"
    assert report["theorem"] == "theorem1"


def test_antihomomorphism_sampled_deterministic():
    a = verify_antihomomorphism(cyclic(2), 3, mode="sampled", samples=50, seed=9)
    b = verify_antihomomorphism(cyclic(2), 3, mode="sampled", samples=50, seed=9)
    assert a == b
    assert a["seed"] == 9
    assert a["pairs_checked"] == 50
    assert a["passed"]


def test_antihomomorphism_matches_public_route():
    # the sweep's internal X vectors must agree with the public functions
    G = cyclic(2)
    comps = list(enumerate_colored_compositions(G, 2))
    for a in comps[:4]:
        for b in comps[:4]:
            lhs = sigma_to_x(G, sigma_product(G, a, b))
            rhs = group_algebra_mul(G, x_basis(G, b), x_basis(G, a))
            assert lhs == rhs


def test_x_vectors_never_enumerate_the_wreath_product(monkeypatch):
    G = cyclic(2)
    comp = ((1, 0), (2, 0), (1, 1))
    fibers = descent_fibers(G, 4)
    # comp refines itself and ((3, 0), (1, 1)), the descent compositions
    # whose fibers make up X_comp
    x_terms = [u for coarser in (comp, ((3, 0), (1, 1))) for u in fibers[coarser]]
    calls = []

    def counting(function):
        def counted(*args, **kwargs):
            calls.append((function.__name__, args))
            return function(*args, **kwargs)
        return counted

    for module in (gwreath.descent, gwreath.wreath):
        monkeypatch.setattr(module, "enumerate_wreath", counting(enumerate_wreath))
    monkeypatch.setattr(gwreath.descent, "descent_fibers", counting(descent_fibers))
    assert x_basis(G, comp) == LinearCombination((u, 1) for u in x_terms)
    assert y_from_x(G, comp) == LinearCombination((u, 1) for u in fibers[comp])
    coords = LinearCombination({comp: 2, ((4, 1),): -1})
    assert sigma_to_x(G, coords) == LinearCombination(
        [(u, 2) for u in x_terms] + [(u, -1) for u in fibers[((4, 1),)]])
    # express_in_x_basis counts each fiber instead of listing it, in span or not
    assert express_in_x_basis(G, 4, sigma_to_x(G, coords)) == coords
    assert len(fibers[comp]) > 1
    with pytest.raises(NotInSpanError):
        express_in_x_basis(G, 4, LinearCombination.basis(fibers[comp][0]))
    assert calls == []


def test_x_basis_of_one_part_at_large_n():
    # |G wr S_9| = 2^9 * 9! is 185,794,560, but X_(9:0) has one term
    G = cyclic(2)
    assert x_basis(G, ((9, 0),)) == LinearCombination.basis(wreath_identity(9))


def test_express_x_basis_of_one_part_at_large_n():
    # answered by counting: Y_(9:0) is the identity alone, one of 2^9 * 9!
    G = cyclic(2)
    comp = ((9, 0),)
    assert express_in_x_basis(G, 9, x_basis(G, comp)) == LinearCombination.basis(comp)


def test_express_refuses_a_huge_fiber_at_once():
    # the reversed permutation has descent composition (1^40), and X_(1^40)
    # has 40! terms
    u = tuple((value, 0) for value in range(40, 0, -1))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="X vector expansion"):
        express_in_x_basis(cyclic(1), 40, LinearCombination.basis(u))
    assert time.perf_counter() - start < 1.0


EXPRESS_CASES = [(cyclic(1), 3), (cyclic(2), 3), (cyclic(3), 2), (klein_four(), 2),
                 (symmetric(3), 2)]


@pytest.mark.parametrize("missing", [False, True], ids=["unequal", "missing"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_express_round_trips_and_names_an_off_fiber_witness(missing, data):
    G, n = data.draw(st.sampled_from(EXPRESS_CASES))
    comps = list(enumerate_colored_compositions(G, n))
    coords = LinearCombination(data.draw(st.dictionaries(
        st.sampled_from(comps), st.integers(-3, 3).filter(bool), max_size=4)))
    z = sigma_to_x(G, coords)
    assert express_in_x_basis(G, n, z) == coords

    # change one coefficient inside a fiber of two or more elements
    comp = data.draw(st.sampled_from([c for c in comps if len(y_from_x(G, c)) > 1]))
    fiber = y_from_x(G, comp)
    u = data.draw(st.sampled_from(sorted(fiber.keys())))
    if not missing and z.coefficient(u) == 0:
        z = z + fiber
    old = z.coefficient(u)
    if missing:
        new = 0 if old else data.draw(st.integers(-3, 3).filter(bool))
    else:
        new = data.draw(st.integers(-3, 3).filter(lambda c: c not in (0, old)))
    z = z + (new - old) * LinearCombination.basis(u)
    with pytest.raises(NotInSpanError) as err:
        express_in_x_basis(G, n, z)
    a, b = err.value.witness
    assert descent_composition(a) == descent_composition(b) == comp
    assert z.coefficient(a) != z.coefficient(b)
    assert (a in z and b in z) != missing


def test_sigma_to_x_refuses_on_the_sum_of_fiber_sizes():
    # fibers of 3!/(1!1!1!) = 6 and 3!/(2!1!) = 3 partitions: each is under
    # a limit of 8, their sum is not
    G = cyclic(1)
    coords = LinearCombination({((1, 0), (1, 0), (1, 0)): 1, ((2, 0), (1, 0)): 1})
    with pytest.raises(SizeLimitError) as info:
        sigma_to_x(G, coords, limit=8)
    assert info.value.estimate == 9
    assert len(sigma_to_x(G, coords, limit=9)) == 6


def test_y_from_x_refuses_before_listing_coarsenings():
    # 40 parts of one color have 2**39 coarsenings; X_comp's 40! terms are
    # refused before any of them is listed
    with pytest.raises(SizeLimitError) as info:
        y_from_x(cyclic(1), ((1, 0),) * 40)
    assert "X vector expansion" in str(info.value)
