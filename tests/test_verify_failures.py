"""Failure reports of the verify targets, pinned with one planted defect each.

A defect is planted by replacing a function in every ``gwreath`` module
namespace that binds it (``from .x import f`` binds ``f`` in each consumer,
so patching the defining module alone would miss most call sites).
"""

import sys

import pytest

import gwreath
from gwreath.groups import FiniteGroup, cyclic
from gwreath.linear import LinearCombination
from gwreath.verify import VERIFY_TARGETS, run_verification


def plant(monkeypatch, name, make_fake):
    """Replace ``name`` by ``make_fake(original)`` wherever gwreath binds it."""
    modules = [module for key, module in sorted(sys.modules.items())
               if key == "gwreath" or key.startswith("gwreath.")]
    original = next(getattr(module, name) for module in modules if hasattr(module, name))
    fake = make_fake(original)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fake)


def pinned(report):
    return report["passed"], len(report["failures"]), report["failures"][0]


def test_prop1_failure_report(monkeypatch):
    plant(monkeypatch, "sigma_product_bruteforce",
          lambda f: lambda group, a, b, **kw: f(group, a, b, **kw) + LinearCombination.basis(a))
    report = run_verification("prop1", cyclic(2), 2)
    assert report["pairs_checked"] == 36
    assert pinned(report) == (False, 36, {
        "left": "(2:0)", "right": "(2:0)", "key": "(2:0)",
        "matrix_rule": 1, "bruteforce": 2,
    })
    sampled = run_verification("prop1", cyclic(2), 2, mode="sampled", samples=10, seed=1)
    assert (sampled["seed"], sampled["pairs_checked"]) == (1, 10)
    assert pinned(sampled) == (False, 10, {
        "left": "(2:1)", "right": "(1:1|1:0)", "key": "(2:1)",
        "matrix_rule": 0, "bruteforce": 1,
    })


def test_theorem1_sampled_failure_report(monkeypatch):
    plant(monkeypatch, "group_algebra_mul",
          lambda f: lambda group, x, y: f(group, x, y) + LinearCombination.basis(min(x.keys())))
    report = run_verification("theorem1", cyclic(2), 2, mode="sampled", samples=10, seed=1)
    assert (report["seed"], report["pairs_checked"]) == (1, 10)
    assert pinned(report) == (False, 10, {
        "left": "(2:1)", "right": "(1:1|1:0)", "key": "[(1:1)(2:0)]",
        "lhs_coefficient": 0, "rhs_coefficient": 1,
    })


def test_mobius_failure_report(monkeypatch):
    plant(monkeypatch, "coarsenings", lambda f: lambda comp: list(f(comp))[:-1])
    report = run_verification("mobius", cyclic(2), 2)
    assert report["pairs_checked"] == 6
    assert pinned(report) == (False, 6, {
        "composition": "(2:0)", "key": "[(1:0)(2:0)]", "direct": 1, "inverted": 0,
    })


def test_mobius_sees_a_wrong_descent_composition(monkeypatch):
    # X vectors come from sigma acting on the identity chamber and Y vectors
    # from the descent fibers, so a wrong descent composition shows; the
    # left-ideal sweep reads no descent composition at all
    plant(monkeypatch, "descent_composition", lambda f: lambda u: f(u)[::-1])
    report = run_verification("mobius", cyclic(2), 3)
    assert (report["passed"], len(report["failures"])) == (False, 12)
    assert run_verification("left-ideal", cyclic(2), 3)["passed"]


def test_left_ideal_sorting_route_failure_report(monkeypatch):
    plant(monkeypatch, "chamber_product_direct",
          lambda f: lambda group, partition, chamber: chamber)
    report = run_verification("left-ideal", cyclic(2), 2)
    assert report["pairs_checked"] == 134
    assert pinned(report) == (False, 64, {
        "kind": "sorting-route-mismatch", "left": "({1,2}:1)", "right": "({1}:0|{2}:0)",
    })


def test_left_ideal_action_failure_report(monkeypatch):
    plant(monkeypatch, "sigma_act_on_chamber",
          lambda f: lambda group, comp, v, *rest: f(group, comp, v, *rest)
          + LinearCombination.basis(v))
    report = run_verification("left-ideal", cyclic(2), 2)
    assert pinned(report) == (False, 54, {
        "kind": "action-mismatch", "composition": "(2:0)", "element": "[(1:0)(2:0)]",
    })
    kinds = {failure["kind"] for failure in report["failures"]}
    assert kinds == {"action-mismatch", "identity-action-mismatch"}


def test_counts_failure_report(monkeypatch):
    plant(monkeypatch, "count_wreath", lambda f: lambda n, order: f(n, order) + 1)
    report = run_verification("counts", cyclic(2), 2)
    assert pinned(report) == (False, 1, {"kind": "wreath-count", "enumerated": 8, "formula": 9})


def test_counts_descent_fiber_failure_report(monkeypatch):
    # a fiber map that loses the last fiber no longer covers G wr S_n
    plant(monkeypatch, "descent_fibers",
          lambda f: lambda group, n, limit: dict(list(f(group, n, limit).items())[:-1]))
    report = run_verification("counts", cyclic(2), 2)
    assert pinned(report) == (False, 1, {
        "kind": "descent-fibers", "fiber_total": 7, "distinct": 7, "wreath_count": 8,
    })


def test_left_ideal_not_a_chamber_failure_report(monkeypatch):
    # patched in gwreath.verify only: wreath's own chamber checks stay right
    monkeypatch.setattr(gwreath.verify, "is_chamber", lambda partition: False)
    report = run_verification("left-ideal", cyclic(2), 2)
    # every product is then reported, 10 partitions times 8 chambers
    assert pinned(report) == (False, 80, {
        "kind": "not-a-chamber", "left": "({1,2}:0)", "right": "({1}:0|{2}:0)",
    })


def test_run_verification_refusals():
    with pytest.raises(ValueError, match="unknown verification target 'nonsense'"):
        run_verification("nonsense", cyclic(2), 2)
    with pytest.raises(ValueError, match="mode must be 'exhaustive' or 'sampled', got 'bogus'"):
        run_verification("prop1", cyclic(2), 2, mode="bogus")


def test_identities_failure_report_on_non_associative_table():
    # a Latin square with identity 0 that is not associative, built without
    # validation: 1*1 = 2 but 1*(1*1) = 0 and (1*1)*1 = 2
    bad = FiniteGroup(3, ((0, 1, 2), (1, 2, 0), (2, 2, 1)), ("0", "1", "2"), name="bad")
    report = run_verification("identities", bad, 2)
    assert report["pairs_checked"] == 0
    assert pinned(report) == (False, 1, {"identity": "power", "x": "({1,2}:2)", "y": None})


def test_identities_pair_failure_report(monkeypatch):
    # products of two factors with more than one block each, and with
    # different block counts, come out with their blocks reversed; powers
    # (built from the one-block identity, then x*x, x*x^k) never qualify
    def fake(f):
        def corrupted(group, left, right):
            product = f(group, left, right)
            if len(left) > 1 and len(right) > 1 and len(left) != len(right):
                return product[::-1]
            return product
        return corrupted

    plant(monkeypatch, "multiply", fake)
    report = run_verification("identities", cyclic(2), 3)
    assert report["pairs_checked"] == 152
    assert pinned(report) == (False, 1, {
        "identity": "pair", "x": "({1}:0|{2,3}:0)", "y": "({2}:0|{1,3}:0)",
    })
    sampled = run_verification("identities", cyclic(2), 3, mode="sampled", samples=50, seed=10)
    assert (sampled["seed"], sampled["pairs_checked"]) == (10, 10)
    assert pinned(sampled) == (False, 1, {
        "identity": "pair", "x": "({1}:0|{2,3}:1)", "y": "({2}:1|{3}:0|{1}:0)",
    })


def test_check_identities_is_the_identities_sweep():
    assert gwreath.check_identities is gwreath.verify_identities


@pytest.mark.parametrize("target", ["theorem1", "mobius", "left-ideal"])
def test_one_descent_fiber_pass_per_sweep(monkeypatch, target):
    # X vectors are built without a pass; only mobius needs the Y vectors
    passes = {"theorem1": 0, "mobius": 1, "left-ideal": 0}
    calls = []

    def counting(f):
        def wrapper(*args, **kwargs):
            calls.append(args[1:])
            return f(*args, **kwargs)
        return wrapper

    plant(monkeypatch, "descent_fibers", counting)
    report = run_verification(target, cyclic(2), 2)
    assert report["passed"]
    assert len(calls) == passes[target]


@pytest.mark.parametrize("sweep", [gwreath.verify_identities, gwreath.verify_prop1,
                                   gwreath.verify_antihomomorphism])
def test_library_sweeps_share_one_default_sample_count(sweep):
    report = sweep(cyclic(1), 2, mode="sampled")
    assert report["pairs_checked"] == gwreath.verify.DEFAULT_SAMPLES == 200


@pytest.mark.parametrize("target", ["identities", "prop1", "theorem1"])
def test_sampled_sweep_rejects_zero_samples(target):
    with pytest.raises(ValueError, match="at least 1"):
        run_verification(target, cyclic(2), 2, mode="sampled", samples=0)


@pytest.mark.parametrize("target", ["identities", "prop1", "theorem1"])
def test_pair_sweeps_refuse_a_negative_n(target):
    with pytest.raises(ValueError, match="n must be positive, got -1"):
        run_verification(target, cyclic(2), -1)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("target", VERIFY_TARGETS)
def test_every_target_refuses_a_non_positive_n(target, n):
    with pytest.raises(ValueError, match=f"n must be positive, got {n}$"):
        run_verification(target, cyclic(2), n)
