import random

import pytest

from bsroots import ChainRingCtx, FrobeniusLift, Poly
from bsroots.cartier import IdealGens, cartier_generators, frobenius_pullback_ideal
from bsroots.groebner import strong_groebner
from bsroots.poly import phi_decompose

from _oracles import descent_lifts, head_key_reference, random_poly, random_unit_poly

Z9 = ChainRingCtx(3, 1)
Z4 = ChainRingCtx(2, 1)


def F23Y():
    return Poly(Z9, 2, {(2, 0): 1, (0, 1): 3})


def std(ctx, nvars):
    return FrobeniusLift.standard(ctx, nvars)


def test_frozen_components_of_f4_level2():
    J = IdealGens([F23Y() ** 4])
    C = cartier_generators(J, std(Z9, 2), 2)
    assert [g.exponent_terms() for g in C.gens] == [{(0, 0): 1}, {(0, 0): 3}]
    assert strong_groebner(C) == strong_groebner(IdealGens([Poly.one(Z9, 2)]))


def test_unit_constant_generates_the_unit_ideal():
    two = Poly.const(Z9, 2, 2)
    C = cartier_generators(IdealGens([two, F23Y()]), std(Z9, 2), 1)
    assert strong_groebner(C).elements == (Poly.one(Z9, 2),)


@pytest.mark.parametrize("ctx", [Z4, Z9], ids=["Z4", "Z9"])
def test_level_zero_and_unit_constants_on_every_lift(ctx):
    """Level 0 decomposes f to itself, and a unit constant among the
    generators completes to the unit ideal at every level, for the standard
    lift and the lift-descent corrections alike."""
    rng = random.Random(ctx.modulus)
    units = [u for u in range(1, ctx.modulus) if u % ctx.p]
    one = Poly.one(ctx, 2)
    for lift in descent_lifts(ctx):
        assert phi_decompose(Poly.zero(ctx, 2), lift, 0) == {}
        for _ in range(3):
            f = random_unit_poly(rng, ctx, 2, 4, 4)
            assert phi_decompose(f, lift, 0) == {(0, 0): f}
            J = IdealGens([f, Poly.const(ctx, 2, rng.choice(units))])
            for e in (0, 1, 2):
                assert strong_groebner(cartier_generators(J, lift, e)).elements == (one,)


def test_generator_ordering_is_canonical():
    x = Poly.variable(Z4, 2, 0)
    y = Poly.variable(Z4, 2, 1)
    a = IdealGens([y, x, x + y])
    b = IdealGens([x + y, y, x])
    # descending leading monomials; x and x + y tie on the head x and keep
    # their input order, so only the completed bases are equal
    assert a.gens == (x, x + y, y)
    assert b.gens == (x + y, x, y)
    assert strong_groebner(a) == strong_groebner(b)
    # duplicates removed
    assert IdealGens([x, x]).gens == (x,)


def test_generator_order_matches_full_key_sort():
    """Generators are sorted by head, duplicates dropped, ties in input order."""
    rng = random.Random(101)
    for ctx in (Z4, Z9):
        for _ in range(40):
            gens = []
            for _ in range(rng.randint(1, 8)):
                # few heads and coefficients, so (lm, lc) ties are common
                head = Poly.monomial(ctx, 2, rng.choice([(4, 0), (3, 1), (0, 4)]))
                tail = random_poly(rng, ctx, 2, 3, 3)
                gens.append(head * rng.choice([1, 2, ctx.p]) + tail)
            gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
            rng.shuffle(gens)
            got = IdealGens(gens).gens
            first_seen = {}
            for i, g in enumerate(gens):
                if not g.is_zero():
                    first_seen.setdefault(g, i)
            assert sorted(got, key=first_seen.get) == list(first_seen)
            for a, b in zip(got, got[1:]):
                ka, kb = head_key_reference(a), head_key_reference(b)
                assert ka < kb or (ka == kb and first_seen[a] < first_seen[b])


def test_pullback_standard():
    J = IdealGens([F23Y()])
    got = frobenius_pullback_ideal(J, std(Z9, 2), 1)
    assert [g.exponent_terms() for g in got.gens] == [{(6, 0): 1, (0, 3): 3}]


def test_component_degree_bound():
    rng = random.Random(100)
    for p, m in ((2, 1), (3, 0), (3, 1)):
        ctx = ChainRingCtx(p, m)
        lift = std(ctx, 2)
        for e in (1, 2):
            for _ in range(10):
                f = random_poly(rng, ctx, 2, 6, 4)
                if f.is_zero():
                    continue
                C = cartier_generators(IdealGens([f]), lift, e)
                for g in C.gens:
                    assert g.degree() <= f.degree() / p**e


def test_roundtrip_descent_of_pullback():
    """Descent recovers any ideal from its own pullback."""
    rng = random.Random(101)
    for p, m in ((2, 1), (3, 1)):
        ctx = ChainRingCtx(p, m)
        lift = std(ctx, 2)
        for e in (1, 2):
            for _ in range(8):
                gens = [random_poly(rng, ctx, 2, 2, 3) for _ in range(rng.randint(1, 2))]
                gens = [g for g in gens if not g.is_zero()]
                if not gens:
                    continue
                I = IdealGens(gens)
                back = cartier_generators(frobenius_pullback_ideal(I, lift, e), lift, e)
                assert strong_groebner(I) == strong_groebner(back)


def test_roundtrip_under_nonstandard_lift():
    x = Poly.variable(Z4, 2, 0)
    y = Poly.variable(Z4, 2, 1)
    f2 = FrobeniusLift(Z4, 2, [x * y + y * y, None])
    rng = random.Random(102)
    for _ in range(8):
        g = random_unit_poly(rng, Z4, 2, 2, 3)
        I = IdealGens([g])
        back = cartier_generators(frobenius_pullback_ideal(I, f2, 1), f2, 1)
        assert strong_groebner(I) == strong_groebner(back)


def test_power_chain_is_descending():
    """Descent images of (f^(n+1)) sit inside those of (f^n)."""
    f = F23Y()
    lift = std(Z9, 2)
    prev = None
    for n in range(6):
        C = cartier_generators(IdealGens([f**n]), lift, 1)
        if prev is not None:
            prev_gb = strong_groebner(prev)
            assert all(prev_gb.contains(g) for g in C.gens)
        prev = C


def test_empty_generators_need_explicit_ring():
    with pytest.raises(ValueError):
        IdealGens([])
    empty = IdealGens([], ctx=Z9, nvars=2)
    assert empty.gens == ()
    assert cartier_generators(empty, std(Z9, 2), 1).gens == ()
