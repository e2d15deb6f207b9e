import random

import pytest

from bsroots import (
    ChainRingCtx,
    IdealGens,
    Poly,
    ideal_contains,
    ideal_equal,
    min_p_power_in,
    normal_form,
    strong_groebner,
)
from bsroots.poly import mono_divides

from _oracles import (
    membership_bruteforce,
    normal_form_reference,
    random_poly,
    strong_groebner_reference,
)

Z4 = ChainRingCtx(2, 1)
Z9 = ChainRingCtx(3, 1)
Z27 = ChainRingCtx(3, 2)


def _assert_minimal(gb):
    """No element's leading term is certified by another's; no duplicates."""
    heads = [
        (g.leading_monomial(), gb.ctx.val(g.leading_coeff())) for g in gb.elements
    ]
    assert len(set(gb.elements)) == len(gb.elements), gb
    for i, (lm, v) in enumerate(heads):
        for j, (glm, gv) in enumerate(heads):
            assert i == j or not (gv <= v and mono_divides(glm, lm)), gb


def test_frozen_basis_principal_x_plus_2():
    gb = strong_groebner(IdealGens([Poly(Z4, 1, {(1,): 1, (0,): 2})]))
    # completion also meets the annihilator multiple 2(x+2) = 2x + 4 = 2x,
    # whose leading term 2x is certified by the leading term x of x+2
    # (x divides x, and val(1) = 0 <= val(2) = 1): 2x is redundant
    assert [g.terms for g in gb.elements] == [{(1,): 1, (0,): 2}]


def test_frozen_basis_two_and_x():
    gb = strong_groebner(
        IdealGens([Poly.const(Z4, 1, 2), Poly.variable(Z4, 1, 0)])
    )
    assert [g.terms for g in gb.elements] == [{(1,): 1}, {(0,): 2}]


def test_frozen_basis_unit_ideal():
    gb = strong_groebner(IdealGens([Poly.one(Z4, 1)]))
    assert [g.terms for g in gb.elements] == [{(0,): 1}]
    assert gb.is_unit_ideal()


def test_frozen_basis_dominated_generator_retires():
    x = Poly.variable(Z9, 2, 0)
    y = Poly.variable(Z9, 2, 1)
    assert strong_groebner(IdealGens([x, x * y])).elements == (x,)


def _unit_generating_sets():
    for ctx in (Z4, Z9, Z27):
        x = Poly.variable(ctx, 1, 0)
        one = Poly.one(ctx, 1)
        p = ctx.p
        yield [x, one - x]
        yield [x * x, one + x]
        yield [x * p + one]  # a unit of V[x]: its p-adic inverse is finite
        yield [x * x * p, x * p + one, x]
        yield [one * p, x + p, x + one]
    x = Poly.variable(Z27, 1, 0)
    yield [x**3 * 10 + 19, x**3 * 16 + 2, x**3 * 19 + x * 3]
    x, y = Poly.variable(Z9, 2, 0), Poly.variable(Z9, 2, 1)
    yield [x * y + 1, x, y * 3]


def test_unit_ideal_completes_to_one():
    for gens in _unit_generating_sets():
        J = IdealGens(gens)
        gb = strong_groebner(J)
        assert gb.elements == (Poly.one(J.ctx, J.nvars),), J
        assert gb.is_unit_ideal() and gb.contains(Poly.one(J.ctx, J.nvars))


def test_annihilator_catches_hidden_members():
    # 2x in (x+2) over Z/4 has no unit-multiplier certificate at the top
    f = Poly(Z4, 1, {(1,): 1, (0,): 2})
    gb = strong_groebner(IdealGens([f]))
    assert gb.contains(Poly(Z4, 1, {(1,): 2}))
    assert gb.contains(Poly(Z4, 1, {(2,): 2, (1,): 2}))  # 2x * (x+1)
    assert not gb.contains(Poly.variable(Z4, 1, 0))
    assert not gb.contains(Poly.const(Z4, 1, 2))


def test_normal_form_idempotent_and_linear_drop():
    rng = random.Random(200)
    gens = IdealGens([Poly(Z9, 2, {(1, 0): 1, (0, 0): 3})])
    gb = strong_groebner(gens)
    for _ in range(15):
        g = random_poly(rng, Z9, 2, 3, 4)
        r = normal_form(g, gb)
        assert normal_form(r, gb) == r
        assert gb.contains(g - r)


def test_membership_closed_under_ring_ops():
    rng = random.Random(201)
    gens = IdealGens(
        [Poly(Z4, 2, {(1, 0): 2, (0, 1): 1}), Poly(Z4, 2, {(2, 0): 1})]
    )
    gb = strong_groebner(gens)
    members = [g for g in gens.gens]
    for _ in range(10):
        mult = random_poly(rng, Z4, 2, 2, 3)
        pick = rng.choice(members)
        new = pick * mult
        assert gb.contains(new)
        members.append(new + rng.choice(members))
        assert gb.contains(members[-1])


def test_ideal_equal_on_rearranged_generators():
    x = Poly.variable(Z9, 2, 0)
    y = Poly.variable(Z9, 2, 1)
    a = IdealGens([x + y, x - y])
    b = IdealGens([x - y, 2 * x, x + y])
    assert ideal_equal(a, b)
    assert not ideal_equal(a, IdealGens([x]))


def test_min_p_power_frozen():
    x = Poly.variable(Z9, 1, 0)
    assert min_p_power_in(IdealGens([x]), x) == 0
    assert min_p_power_in(IdealGens([x**2]), x) == 2  # only p^(m+1) kills it
    assert min_p_power_in(IdealGens([x * 3]), x) == 1
    assert min_p_power_in(IdealGens([x]), Poly.one(Z9, 1)) == 2


def test_bruteforce_agrees_with_certificates():
    z4 = Z4
    f = Poly(z4, 1, {(1,): 1, (0,): 2})
    J = IdealGens([f])
    assert membership_bruteforce(J, Poly(z4, 1, {(1,): 2}), 2) is True
    assert membership_bruteforce(J, Poly.variable(z4, 1, 0), 4) is None
    assert membership_bruteforce(J, Poly.zero(z4, 1), 0) is True


def _random_instance(rng, ctx):
    nv = 2
    gens = [random_poly(rng, ctx, nv, 2, 3) for _ in range(rng.randint(1, 2))]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [Poly.variable(ctx, nv, 0)]
    J = IdealGens(gens)
    if rng.random() < 0.5:
        g = Poly.zero(ctx, nv)
        for f in J.gens:
            g = g + f.term_mul(
                (rng.randint(0, 1), rng.randint(0, 1)), rng.randrange(ctx.modulus)
            )
    else:
        g = random_poly(rng, ctx, nv, 3, 3)
    return J, g


def test_groebner_vs_bruteforce_sample():
    """Quick slice of the acceptance-scale comparison, for fast feedback."""
    rng = random.Random(202)
    for p, m in ((2, 0), (2, 1), (3, 0)):
        ctx = ChainRingCtx(p, m)
        for _ in range(25):
            J, g = _random_instance(rng, ctx)
            claimed = ideal_contains(J, g)
            found = membership_bruteforce(J, g, 3)
            if found is True:
                assert claimed
            if claimed:
                assert (
                    membership_bruteforce(J, g, 3)
                    or membership_bruteforce(J, g, 5)
                    or membership_bruteforce(J, g, 7)
                ), f"no certificate for claimed member {g!r} of {J!r}"


def test_empty_ideal():
    gb = strong_groebner(IdealGens([], ctx=Z4, nvars=1))
    assert gb.elements == ()
    assert gb.contains(Poly.zero(Z4, 1))
    assert not gb.contains(Poly.one(Z4, 1))


def test_groebner_idempotent_passthrough():
    gb = strong_groebner(IdealGens([Poly.variable(Z4, 1, 0)]))
    assert strong_groebner(gb) is gb


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_incremental_completion_matches_reference(p, m):
    """Same ideal and membership verdicts as the non-minimal reference.

    The reference keeps every element, so the tuples differ; each basis must
    reduce the other's elements to zero, and the engine's must be minimal.
    """
    ctx = ChainRingCtx(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(30):
        nv = rng.randint(1, 3)
        gens = [random_poly(rng, ctx, nv, 3, 3) for _ in range(rng.randint(1, 3))]
        J = IdealGens(gens, ctx=ctx, nvars=nv)
        gb = strong_groebner(J)
        ref = strong_groebner_reference(J)
        for g in gb.elements:
            assert normal_form_reference(g, ref).is_zero(), (J, g)
        for g in ref.elements:
            assert normal_form(g, gb).is_zero(), (J, g)
        _assert_minimal(gb)
        for _ in range(5):
            # a random ideal element plus noise makes reduction do real work
            g = random_poly(rng, ctx, nv, 4, 3)
            for f in J.gens:
                mono = tuple(rng.randint(0, 1) for _ in range(nv))
                g = g + f.term_mul(mono, rng.randrange(ctx.modulus))
            verdict = normal_form_reference(g, ref).is_zero()
            assert normal_form(g, gb).is_zero() == verdict, (J, g)
