"""Level functions on p-adic residue classes and the containment query."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsroots import ChainRingCtx, FrobeniusLift, Poly, bfunction_report, detect_roots
from bsroots.cfun import (
    FiniteSupportModule,
    LevelFunction,
    bfunction_contains,
    chi,
    refine,
    stalk,
    support_module,
)
from bsroots.padic import PAdicRational

Z4 = ChainRingCtx(2, 1)
Z9 = ChainRingCtx(3, 1)


def test_chi_indicator_values():
    phi = chi(Z4, 1, 0)
    assert phi.values == (1, 0)
    assert phi(0) == 1 and phi(1) == 0
    # lookup reduces the argument mod p^e
    assert phi(6) == 1 and phi(7) == 0


def test_refine_of_chi_splits_into_p_classes():
    assert refine(chi(Z4, 1, 0), 2) == chi(Z4, 2, 0) + chi(Z4, 2, 2)
    assert refine(chi(Z9, 1, 2), 2).values == tuple(
        1 if r % 3 == 2 else 0 for r in range(9)
    )


def test_partition_of_unity():
    for e in (0, 1, 2):
        total = None
        for a in range(3**e):
            total = chi(Z9, e, a) if total is None else total + chi(Z9, e, a)
        assert total.values == (1,) * 3**e


def test_refine_composes_and_respects_ops():
    phi = LevelFunction(Z4, 1, [3, 1])
    psi = LevelFunction(Z4, 1, [2, 2])
    assert refine(refine(phi, 2), 3) == refine(phi, 3)
    assert refine(phi, 1) == phi
    assert refine(phi + psi, 2) == refine(phi, 2) + refine(psi, 2)
    assert refine(phi * psi, 2) == refine(phi, 2) * refine(psi, 2)
    assert (2 * phi).values == (2, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 8), min_size=3, max_size=3),
    st.lists(st.integers(0, 8), min_size=3, max_size=3),
)
def test_refine_is_a_ring_homomorphism(a, b):
    phi = LevelFunction(Z9, 1, a)
    psi = LevelFunction(Z9, 1, b)
    assert refine(phi * psi, 2) == refine(phi, 2) * refine(psi, 2)
    assert refine(phi + psi, 2) == refine(phi, 2) + refine(psi, 2)


def test_level_function_validation():
    with pytest.raises(ValueError, match="length p\\^e"):
        LevelFunction(Z4, 1, [1, 2, 3])
    with pytest.raises(ValueError, match="level"):
        LevelFunction(Z4, -1, [])
    with pytest.raises(ValueError, match="out of range"):
        chi(Z4, 1, 2)
    with pytest.raises(ValueError, match="finer"):
        refine(chi(Z4, 2, 1), 1)
    with pytest.raises(ValueError, match="mixed levels"):
        chi(Z4, 1, 0) + chi(Z4, 2, 0)
    with pytest.raises(TypeError):
        chi(Z4, 1, 0) * "nope"


@pytest.fixture(scope="module")
def graded_report():
    f = Poly(Z9, 2, {(2, 0): 1, (0, 1): 3})
    lift = FrobeniusLift.standard(Z9, 2)
    return bfunction_report(f, lift, top_level=4, den_bound=10, num_bound=10)


def test_support_module_and_stalk(graded_report):
    module = support_module(Z9, graded_report)
    assert stalk(module, Fraction(-1)) == 2
    assert stalk(module, Fraction(-1, 2)) == 1
    assert stalk(module, PAdicRational(3, Fraction(1, 2))) == 1
    assert stalk(module, Fraction(7)) == 0


def test_support_module_validation():
    good = PAdicRational(3, Fraction(-1))
    with pytest.raises(ValueError, match="distinct"):
        FiniteSupportModule(Z9, ((good, 1), (good, 2)))
    with pytest.raises(ValueError, match="order"):
        FiniteSupportModule(Z9, ((good, 3),))
    with pytest.raises(ValueError, match="order"):
        FiniteSupportModule(Z9, points=((good, -1),))
    module = FiniteSupportModule(Z9, ((good, 0), (PAdicRational(3, Fraction(1, 2)), 2)))
    assert stalk(module, Fraction(1, 2)) == 2
    with pytest.raises(AttributeError):
        module.points = ()


def test_containment_requires_separating_level(graded_report):
    # -1 and 1/2 share the class 2 mod 3, so level 1 is refused
    with pytest.raises(ValueError, match="separate"):
        bfunction_contains(graded_report, chi(Z9, 1, 0))


def test_containment_decides_at_level_two(graded_report):
    # truncations mod 9: -1 -> 8, -1/2 -> 4, 1/2 -> 5
    values = [1] * 9
    values[8] = 0  # strength 2 needs val >= 2
    values[4] = 3  # strength 1 needs val >= 1
    values[5] = 6
    assert bfunction_contains(graded_report, LevelFunction(Z9, 2, values))
    values[8] = 3
    assert not bfunction_contains(graded_report, LevelFunction(Z9, 2, values))
    values[8] = 0
    values[4] = 1
    assert not bfunction_contains(graded_report, LevelFunction(Z9, 2, values))
    # refining a member keeps it a member
    values[4] = 3
    assert bfunction_contains(graded_report, refine(LevelFunction(Z9, 2, values), 3))


def test_containment_validation(graded_report):
    with pytest.raises(ValueError, match="wrong ring"):
        bfunction_contains(graded_report, chi(Z4, 2, 0))
    f = Poly(Z9, 2, {(2, 0): 1, (0, 1): 3})
    lift = FrobeniusLift.standard(Z9, 2)
    ungraded = detect_roots(f, lift, top_level=4, den_bound=10, num_bound=10)
    with pytest.raises(ValueError, match="no strengths"):
        bfunction_contains(ungraded, chi(Z9, 2, 0))
