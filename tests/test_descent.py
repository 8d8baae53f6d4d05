import pytest

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
from gwreath.groups import cyclic, symmetric
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

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_wreath(*args, **kwargs)

    for module in (gwreath.descent, gwreath.wreath):
        monkeypatch.setattr(module, "enumerate_wreath", counting)
    assert x_basis(G, comp) == LinearCombination((u, 1) for u in x_terms)
    assert y_from_x(G, comp) == LinearCombination((u, 1) for u in fibers[comp])
    assert sigma_to_x(G, LinearCombination({comp: 2, ((4, 1),): -1})) == LinearCombination(
        [(u, 2) for u in x_terms] + [(u, -1) for u in fibers[((4, 1),)]])
    assert calls == []


def test_x_basis_of_one_part_at_large_n():
    # |G wr S_9| = 2^9 * 9! is 185,794,560, but X_(9:0) has one term
    G = cyclic(2)
    assert x_basis(G, ((9, 0),)) == LinearCombination.basis(wreath_identity(9))


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
