import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsroots import ChainRingCtx, FrobeniusLift, Poly, nu_set
from bsroots.poly import (
    NEG_INF,
    _split_base_q,
    frobenius_apply,
    pack,
    phi_decompose,
    unpack,
)

from _oracles import (
    descent_lifts,
    frobenius_apply_reference,
    grevlex_reference_key,
    poly_mul_reference,
    random_poly,
)

Z9 = ChainRingCtx(3, 1)
Z4 = ChainRingCtx(2, 1)
RINGS = [(2, 1), (2, 2), (3, 1), (3, 2)]


def F23Y():
    return Poly(Z9, 2, {(2, 0): 1, (0, 1): 3})


def test_grevlex_order():
    # x1 > x2 and degree dominates: x^2 > x*y > y^2 > x > y > 1
    chain = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    assert sorted(chain[::-1], key=grevlex_reference_key, reverse=True) == chain
    assert sorted(chain[::-1], key=lambda m: pack(m, 2), reverse=True) == chain
    # revlex tie-break, not lex: x1*x3 < x2^2 although lex would say otherwise
    assert grevlex_reference_key((1, 0, 1)) < grevlex_reference_key((0, 2, 0))
    assert pack((1, 0, 1), 3) < pack((0, 2, 0), 3)
    # the engine's packed order, term order and leading monomial follow the
    # oracle's key on supports where most monomials tie in total degree
    rng = random.Random(33)
    for nvars in (1, 2, 3):
        for _ in range(30):
            f = _tied_poly(rng, Z9, nvars, rng.randint(1, 4), rng.randint(1, 5))
            expected = sorted(f.exponent_terms(), key=grevlex_reference_key, reverse=True)
            got = [unpack(m, nvars) for m in sorted(f.terms, reverse=True)]
            assert got == expected, f
            assert [unpack(m, nvars) for m, _ in f.sorted_terms()] == expected, f
            assert unpack(f.leading_monomial(), nvars) == expected[0], f


def test_equality_with_an_int_is_false():
    # equal objects must hash equal, so a polynomial never equals an int
    one = Poly.one(Z9, 1)
    assert one != 1 and not one == 1
    assert len({one, 1}) == 2
    assert one == Poly.const(Z9, 1, 10) and hash(one) == hash(Poly.const(Z9, 1, 10))


def test_leading_term_and_degree():
    f = F23Y()
    assert _lead(f) == ((2, 0), 1)
    assert f.degree() == 2
    assert Poly.zero(Z9, 2).degree() == NEG_INF
    with pytest.raises(ValueError):
        Poly.zero(Z9, 2).leading_term()


def test_coefficients_normalized_mod_modulus():
    f = Poly(Z9, 1, {(0,): 9, (1,): 10, (2,): -1})
    assert f.exponent_terms() == {(1,): 1, (2,): 8}


def test_pow_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(rng, Z4, 2, 2, 3)
        acc = Poly.one(Z4, 2)
        for k in range(6):
            assert f**k == acc
            acc = acc * f


@pytest.mark.parametrize("p,m", RINGS)
def test_mul_matches_schoolbook_reference(p, m):
    ctx = ChainRingCtx(p, m)
    rng = random.Random(80 + 10 * p + m)
    cases = []
    for _ in range(30):
        nvars = rng.randint(1, 3)
        # a dense operand on a small box against a short one: products land
        # on the same monomial and their coefficients sum, often to 0 mod p^(m+1)
        f = random_poly(rng, ctx, nvars, 3, 12) * p ** rng.randint(0, m)
        cases.append((f, random_poly(rng, ctx, nvars, 2, 3)))
    x = Poly.variable(ctx, 1, 0)
    geometric = Poly(ctx, 1, {(k,): 1 for k in range(5)})
    assert poly_mul_reference(geometric, x - 1) == x**5 - 1  # the middle cancels
    cases.append((geometric, x - 1))
    cases.append((x * p + p, x * p - p))  # p^2 * (x^2 - 1): zero when m = 1
    for f, g in cases:
        want = poly_mul_reference(f, g).terms
        assert (f * g).terms == want, (f, g)
        assert (g * f).terms == want, (f, g)
        if not g.is_zero():
            mono, c = _lead(g)
            assert f.term_mul(mono, c).terms == poly_mul_reference(
                f, Poly.monomial(ctx, f.nvars, mono, c)
            ).terms


def test_frozen_decompose_standard():
    got = phi_decompose(F23Y(), FrobeniusLift.standard(Z9, 2), 1)
    assert {k: v.exponent_terms() for k, v in got.items()} == {
        (2, 0): {(0, 0): 1},
        (0, 1): {(0, 0): 3},
    }


def test_frozen_decompose_x5_level2():
    x = Poly.variable(Z4, 1, 0)
    got = phi_decompose(x**5, FrobeniusLift.standard(Z4, 1), 2)
    assert {k: v.exponent_terms() for k, v in got.items()} == {(1,): {(1,): 1}}


def _lift_f2():
    x = Poly.variable(Z4, 2, 0)
    y = Poly.variable(Z4, 2, 1)
    return FrobeniusLift(Z4, 2, [x * y + y * y, None])


def test_frozen_lift_images():
    f2 = _lift_f2()
    assert frobenius_apply(Poly.variable(Z4, 2, 0), f2, 1).exponent_terms() == {
        (2, 0): 1,
        (1, 1): 2,
        (0, 2): 2,
    }
    assert frobenius_apply(Poly.variable(Z4, 2, 1), f2, 1).exponent_terms() == {
        (0, 2): 1
    }


def test_frozen_decompose_under_nonstandard_lift():
    x = Poly.variable(Z4, 2, 0)
    got = phi_decompose(x * x, _lift_f2(), 1)
    assert {k: v.exponent_terms() for k, v in got.items()} == {
        (0, 0): {(1, 0): 1, (0, 1): 2},
        (1, 1): {(0, 0): 2},
    }


@pytest.mark.parametrize("e", [1, 2, 3])
def test_decompose_resubstitution_identity(e):
    rng = random.Random(60 + e)
    for p, m in RINGS:
        ctx = ChainRingCtx(p, m)
        for lift in descent_lifts(ctx):
            for _ in range(4):
                f = random_poly(rng, ctx, 2, 2 * p**e + 2, 5)
                comps = phi_decompose(f, lift, e)
                rebuilt = Poly.zero(ctx, 2)
                for alpha, g in comps.items():
                    assert not g.is_zero()
                    assert all(0 <= t < p**e for t in alpha)
                    rebuilt = rebuilt + frobenius_apply(g, lift, e).term_mul(alpha, 1)
                assert rebuilt == f, (p, m, lift.corrections, f)


def test_decompose_level_zero():
    f = F23Y()
    assert phi_decompose(f, FrobeniusLift.standard(Z9, 2), 0) == {(0, 0): f}
    assert phi_decompose(Poly.zero(Z9, 2), FrobeniusLift.standard(Z9, 2), 1) == {}


def test_frobenius_is_ring_hom():
    rng = random.Random(61)
    f2 = _lift_f2()
    for _ in range(8):
        a = random_poly(rng, Z4, 2, 2, 3)
        b = random_poly(rng, Z4, 2, 2, 3)
        assert frobenius_apply(a + b, f2, 1) == frobenius_apply(a, f2, 1) + frobenius_apply(b, f2, 1)
        assert frobenius_apply(a * b, f2, 1) == frobenius_apply(a, f2, 1) * frobenius_apply(b, f2, 1)


def test_standard_frobenius_scales_exponents():
    f = F23Y()
    g = frobenius_apply(f, FrobeniusLift.standard(Z9, 2), 2)
    assert g.exponent_terms() == {(18, 0): 1, (0, 9): 3}


@pytest.mark.parametrize("p,m", RINGS)
def test_frobenius_apply_matches_reference(p, m):
    ctx = ChainRingCtx(p, m)
    rng = random.Random(90 + 10 * p + m)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        corrections = [
            None if rng.random() < 0.3 else random_poly(rng, ctx, nvars, p, 3)
            for _ in range(nvars)
        ]
        fresh, warm = (FrobeniusLift(ctx, nvars, corrections) for _ in range(2))
        for _ in range(3):  # other polynomials at other levels fill the memo
            frobenius_apply(random_poly(rng, ctx, nvars, 3, 4), warm, rng.randint(0, 3))
        assert warm == fresh and hash(warm) == hash(fresh)
        f, e = random_poly(rng, ctx, nvars, 3, 4), rng.randint(0, 3)
        want = frobenius_apply_reference(f, FrobeniusLift(ctx, nvars, corrections), e)
        assert frobenius_apply(f, fresh, e).terms == want.terms
        assert frobenius_apply(f, warm, e).terms == want.terms
        assert len({warm, fresh, FrobeniusLift(ctx, nvars, corrections)}) == 1


def test_frobenius_apply_of_high_degree_keeps_the_stack_shallow():
    x = Poly.variable(Z4, 1, 0)
    for lift in (FrobeniusLift.standard(Z4, 1), FrobeniusLift(Z4, 1, [x])):
        assert frobenius_apply(x**1500, lift, 2).exponent_terms() == {(6000,): 1}


def test_mixed_rings_are_refused():
    x9 = Poly.variable(Z9, 1, 0)
    xy = Poly.variable(Z4, 2, 0) * Poly.variable(Z4, 2, 1)
    x4 = Poly.variable(Z4, 1, 0)
    lifts = (FrobeniusLift.standard(Z4, 1), FrobeniusLift(Z4, 1, [x4]))
    for f in (x9**2, xy):
        for lift in lifts:
            for e in (0, 1, 2):
                with pytest.raises(ValueError, match="mixed polynomial rings"):
                    frobenius_apply(f, lift, e)
                with pytest.raises(ValueError, match="mixed polynomial rings"):
                    phi_decompose(f, lift, e)
    with pytest.raises(ValueError, match="mixed polynomial rings"):
        nu_set(x9**2, lifts[0], 1)


small_coeff = st.integers(min_value=0, max_value=8)
small_mono = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(small_mono, small_coeff, max_size=4),
       st.dictionaries(small_mono, small_coeff, max_size=4),
       st.dictionaries(small_mono, small_coeff, max_size=4))
def test_ring_laws(ta, tb, tc):
    a, b, c = (Poly(Z9, 2, t) for t in (ta, tb, tc))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + Poly.zero(Z9, 2) == a
    assert a * Poly.one(Z9, 2) == a
    assert a - a == Poly.zero(Z9, 2)


def test_with_ctx_reduces():
    f = F23Y()
    z3 = ChainRingCtx(3, 0)
    assert f.with_ctx(z3).exponent_terms() == {(2, 0): 1}


def test_nonzerodivisor_flag():
    assert F23Y().has_unit_coeff()
    assert not Poly(Z9, 2, {(1, 0): 3}).has_unit_coeff()
    assert not Poly.zero(Z9, 2).has_unit_coeff()


def _lead(f):
    """The cached leading term with its monomial decoded."""
    mono, c = f.leading_term()
    return unpack(mono, f.nvars), c


def _uncached_lead(f):
    terms = f.exponent_terms()
    mono = max(terms, key=grevlex_reference_key)
    return mono, terms[mono]


def _tied_poly(rng, ctx, nvars, deg, nterms):
    """Random terms of one total degree deg, plus the constant 1."""
    terms = {(0,) * nvars: 1}
    for _ in range(nterms):
        mono = [0] * nvars
        for _ in range(deg):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = rng.randrange(1, ctx.modulus)
    return Poly(ctx, nvars, terms)


def test_cached_leading_term_matches_support():
    rng = random.Random(77)
    for (p, m), nvars in product([(2, 1), (3, 1), (3, 2)], [1, 2, 3]):
        _check_cached_leading_terms(rng, ChainRingCtx(p, m), nvars)


def _check_cached_leading_terms(rng, ctx, nvars):
    p, mod = ctx.p, ctx.modulus
    other = ChainRingCtx(p, 2 if ctx.m == 1 else 1)  # a lift or a reduction of V
    corrections = [random_poly(rng, ctx, nvars, p, 3)] + [None] * (nvars - 1)
    lift = FrobeniusLift(ctx, nvars, corrections)
    for _ in range(40):
        f = random_poly(rng, ctx, nvars, 3, 4)
        g = _tied_poly(rng, ctx, nvars, rng.randint(1, 4), rng.randint(1, 5))
        if not f.is_zero():
            f.leading_term()  # one operand enters with its cache filled
        built = [g, f + g, f - g, f * g]
        for h in (f, g):
            shift = tuple(rng.randint(0, 2) for _ in range(nvars))
            built += [
                h.term_mul(shift, rng.randrange(1, mod)),
                h.with_ctx(other),
                frobenius_apply(h, lift, 1),
            ]
        for h in built:
            if h.is_zero():
                continue
            assert _lead(h) == _uncached_lead(h)
            assert _lead(h) == _uncached_lead(h)  # served from the cache
            lm = unpack(h.leading_monomial(), nvars)
            assert (lm, h.leading_coeff()) == _uncached_lead(h)


def test_zero_leading_term_raises_on_every_call():
    zero = Poly.zero(Z9, 2)
    for _ in range(3):
        with pytest.raises(ValueError, match="no leading term"):
            zero.leading_term()
    with pytest.raises(ValueError):
        zero.leading_monomial()
    with pytest.raises(ValueError):
        zero.leading_coeff()


def test_equality_and_hash_ignore_the_leading_term_cache():
    fresh, filled = F23Y(), F23Y()
    filled.leading_term()
    assert fresh == filled and filled == fresh
    assert hash(fresh) == hash(filled)
    assert len({fresh, filled}) == 1


def _assert_clean(h):
    mod = h.ctx.modulus
    assert all(0 < c < mod for c in h.terms.values()), h.terms


def test_internal_constructor_matches_public():
    rng = random.Random(78)
    for ctx in (Z4, Z9, ChainRingCtx(3, 2)):
        mod = ctx.modulus
        for _ in range(30):
            nv = rng.randint(1, 3)
            # unreduced, negative and vanishing coefficients on purpose
            terms = {}
            for _ in range(rng.randint(0, 5)):
                mono = tuple(rng.randint(0, 3) for _ in range(nv))
                terms[mono] = rng.randint(-3 * mod, 3 * mod)
            terms[(0,) * nv] = mod * rng.randint(-2, 2)
            built = Poly._from_terms(ctx, nv, {pack(m, nv): c for m, c in terms.items()})
            assert built == Poly(ctx, nv, terms)
            _assert_clean(built)


def test_arithmetic_results_are_reduced():
    rng = random.Random(79)
    lift = FrobeniusLift.standard(Z9, 2)
    for _ in range(40):
        f, g = random_poly(rng, Z9, 2, 3, 4), random_poly(rng, Z9, 2, 3, 4)
        built = [
            f + g,
            f - g,
            -f,
            f * g,
            f * rng.randint(-20, 20),
            f.term_mul((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-20, 20)),
            frobenius_apply(f, lift, 1),
            *_split_base_q(f * g, 3).values(),
        ]
        for h in built:
            _assert_clean(h)
            assert h == Poly(Z9, 2, h.exponent_terms())


def test_public_entry_points_validate_exponents():
    for bad in ((1,), (1, 0, 0), (1, -1)):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Poly(Z9, 2, {bad: 1})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            F23Y().term_mul(bad, 1)
