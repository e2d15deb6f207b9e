"""Packed monomials against the tuple oracles, and the 2^31 degree limit.

Monomials are ints whose fields hold the exponents (``bsroots.poly``). The
kernels built on them are compared with the tuple kernels and the tuple
references of ``_oracles.py`` over Z/4, Z/8, Z/9 and Z/27 in 1-3 variables,
on supports that tie on total degree and on supports shifted so that their
exponents reach 2^31 - 1, where a carry or a lost borrow into a neighbouring
field would show.
"""

import random

import pytest

from bsroots import ChainRingCtx, FrobeniusLift, Poly
from bsroots.cartier import IdealGens
from bsroots.errors import DegreeLimitError
from bsroots.groebner import GroebnerBasis, _s_poly, normal_form, strong_groebner
from bsroots.poly import (
    EXPONENT_LIMIT,
    _split_base_q,
    frobenius_apply,
    guard_bits,
    lcm,
    mono_degree,
    pack,
    unpack,
)

from _oracles import (
    _lt,
    _normalize_unit_reference,
    _s_poly_reference,
    grevlex_reference_key,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
    normal_form_tuple_reference,
    poly_mul_reference,
    split_base_q_reference,
)

TOP = EXPONENT_LIMIT - 1  # the largest exponent and total degree allowed
RINGS = [(2, 1), (2, 2), (3, 1), (3, 2)]  # Z/4, Z/8, Z/9, Z/27

# exponents next to 0, next to the middle of a field and next to its guard bit
POOL = [0, 1, 2, 3, 2**30 - 1, 2**30, 2**30 + 1, TOP - 2, TOP - 1, TOP]


def _exponents(rng, nvars):
    while True:
        mono = tuple(rng.choice(POOL) for _ in range(nvars))
        if sum(mono) <= TOP:
            return mono


def _near(rng, mono):
    """A tuple that differs from mono by at most 2 in each exponent."""
    while True:
        other = tuple(max(0, e + rng.randint(-2, 2)) for e in mono)
        if sum(other) <= TOP:
            return other


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_monomial_kernels_match_tuple_oracles(nvars):
    rng = random.Random(4100 + nvars)
    guards = guard_bits(nvars)
    for _ in range(400):
        a = _exponents(rng, nvars)
        b = _near(rng, a) if rng.random() < 0.7 else _exponents(rng, nvars)
        pa, pb = pack(a, nvars), pack(b, nvars)
        assert unpack(pa, nvars) == a and mono_degree(pa, nvars) == sum(a)
        # the int order is degrevlex
        ka, kb = grevlex_reference_key(a), grevlex_reference_key(b)
        assert (pa < pb) == (ka < kb) and (pa == pb) == (a == b), (a, b)
        # divisibility is one subtraction and the guard mask
        assert (not (pa - pb) & guards) == mono_divides(a, b), (a, b)
        assert (not (pb - pa) & guards) == mono_divides(b, a), (a, b)
        if mono_divides(a, b):
            assert pb - pa == pack(mono_quot(a, b), nvars)
        if sum(a) + sum(b) <= TOP:
            assert pa + pb == pack(mono_mul(a, b), nvars)
        if sum(mono_lcm(a, b)) <= TOP:
            assert lcm(pa, pb, nvars) == pack(mono_lcm(a, b), nvars)
        else:
            with pytest.raises(DegreeLimitError):
                lcm(pa, pb, nvars)


def _support(rng, ctx, nvars, deg):
    """Random terms, most of them of one total degree, plus the constant 1."""
    terms = {(0,) * nvars: rng.randrange(1, ctx.modulus)}
    for _ in range(rng.randint(1, 5)):
        mono = [0] * nvars
        for _ in range(deg if rng.random() < 0.7 else rng.randint(0, deg)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = rng.randrange(ctx.modulus)
    return Poly(ctx, nvars, terms)


def _shift(rng, nvars, degree):
    """A monomial of the given degree, spread over the variables at random."""
    mono = [0] * nvars
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [degree])):
        mono[i] = hi - lo
    rng.shuffle(mono)
    return tuple(mono)


@pytest.mark.parametrize("p,m", RINGS)
def test_poly_kernels_match_tuple_oracles(p, m):
    ctx = ChainRingCtx(p, m)
    rng = random.Random(4200 + 10 * p + m)
    for _ in range(24):
        nvars = rng.randint(1, 3)
        f, g = (_support(rng, ctx, nvars, 4) for _ in range(2))
        # the leading monomial of top, and the products of high and g, reach
        # total degrees up to 2^31 - 1
        top = f * Poly.monomial(ctx, nvars, _shift(rng, nvars, TOP - 4))
        high = f * Poly.monomial(
            ctx, nvars, _shift(rng, nvars, TOP - 8), rng.randrange(1, ctx.modulus)
        )
        for h in (f, g, top, high):
            if not h.is_zero():
                lm = unpack(h.leading_monomial(), nvars)
                assert (lm, h.leading_term()[1]) == _lt(h)
                expected = sorted(h.exponent_terms(), key=grevlex_reference_key)[::-1]
                assert [unpack(t, nvars) for t, _ in h.sorted_terms()] == expected
            for q in (p, p * p, 5):
                got = [(a, c.exponent_terms()) for a, c in _split_base_q(h, q).items()]
                assert got == split_base_q_reference(h, q), (h, q)
        for a, b in ((f, g), (high, g), (top, Poly.one(ctx, nvars))):
            want = poly_mul_reference(a, b).terms
            assert (a * b).terms == want and (b * a).terms == want, (a, b)


@pytest.mark.parametrize("p,m", RINGS)
def test_completion_kernels_match_tuple_oracles_at_high_exponents(p, m):
    """S-polynomials and normal forms at exponents next to 2^31 - 1.

    Shifting every generator by one monomial x^s shifts the whole completion:
    the reduced basis of (x^s) * I is x^s times the reduced basis of I, and
    normal forms shift with it. The shifted run has exponents up to
    2^31 - 65; its S-polynomials and normal forms also match the tuple
    references on the same inputs.
    """
    ctx = ChainRingCtx(p, m)
    rng = random.Random(4300 + 10 * p + m)
    for _ in range(12):
        nvars = rng.randint(1, 3)
        s = _shift(rng, nvars, TOP - 64)
        xs = Poly.monomial(ctx, nvars, s)
        gens = [_support(rng, ctx, nvars, 3) * p ** rng.randint(0, m) for _ in range(2)]
        gb = strong_groebner(IdealGens(gens, ctx=ctx, nvars=nvars))
        shifted = strong_groebner(
            IdealGens([g * xs for g in gens], ctx=ctx, nvars=nvars)
        )
        assert shifted.elements == tuple(g * xs for g in gb.elements)
        for _ in range(4):
            g = _support(rng, ctx, nvars, 5)
            for h, basis in ((g, gb), (g * xs, shifted)):
                got = normal_form(h, basis)
                assert got == normal_form_tuple_reference(h, basis.elements), (h, basis)
            shifted_form = normal_form(g * xs, shifted)
            assert shifted_form == normal_form(g, gb) * xs
        units = [
            _normalize_unit_reference(g * xs) for g in gens if not g.is_zero()
        ]
        for a in units:
            for b in units:
                gamma = lcm(a.leading_monomial(), b.leading_monomial(), nvars)
                got = {
                    t: r
                    for t, c in _s_poly(a, b, gamma).items()
                    if (r := c % ctx.modulus)
                }
                assert got == _s_poly_reference(a, b).terms, (a, b)


GUARD_CASES = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


@pytest.mark.parametrize("nvars,i", GUARD_CASES)
def test_each_guard_bit_catches_its_borrow(nvars, i):
    """x_i^D does not divide x_i^(D-2) * x_j: field i borrows from field j,
    and only the guard bit of field i says so. Both bases hold monomials
    only, so reduction and completion end even where a guard bit is lost."""
    ctx = ChainRingCtx(3, 1)
    D = TOP - 8
    a, b = [0] * nvars, [0] * nvars
    a[i] = D
    b[i], b[(i + 1) % nvars] = D - 2, 1
    a, b = tuple(a), tuple(b)
    pa, pb = pack(a, nvars), pack(b, nvars)
    assert ((pa - pb) & guard_bits(nvars)) == EXPONENT_LIMIT << i * 32
    xa, xb = Poly.monomial(ctx, nvars, a), Poly.monomial(ctx, nvars, b, 4)
    assert normal_form(xb, GroebnerBasis(ctx, nvars, [xa])) == xb
    gb = strong_groebner(IdealGens([xa, xb * 7]))
    assert gb.elements == (xa, xb * 7)


def test_degrees_from_2_to_the_31_are_refused():
    Z9 = ChainRingCtx(3, 1)
    assert issubclass(DegreeLimitError, ValueError)
    x, y = Poly.variable(Z9, 2, 0), Poly.variable(Z9, 2, 1)
    # construction: one exponent, or a total degree, at the limit
    assert Poly(Z9, 2, {(TOP, 0): 1}).degree() == TOP
    assert Poly(Z9, 2, {(2**30, 2**30 - 1): 1}).degree() == TOP
    for mono in ((EXPONENT_LIMIT, 0), (2**30, 2**30), (2**32, 0), (TOP, 1)):
        with pytest.raises(DegreeLimitError, match=r"2\^31"):
            Poly(Z9, 2, {mono: 1})
        with pytest.raises(DegreeLimitError, match=r"2\^31"):
            Poly.monomial(Z9, 2, mono)
    # a zero coefficient drops the term before its exponents are read
    assert Poly(Z9, 2, {(EXPONENT_LIMIT, 0): 9}).is_zero()
    # products, by squaring up to x^(2^30) and once more
    power = x
    for _ in range(30):
        power = power * power
    assert power.exponent_terms() == {(2**30, 0): 1}
    with pytest.raises(DegreeLimitError, match=r"2\^31"):
        power * power
    with pytest.raises(DegreeLimitError, match=r"2\^31"):
        power * (x + y) ** 2 * power
    assert (power * x ** (2**30 - 1)).exponent_terms() == {(TOP, 0): 1}
    # powers are refused up front, before any squaring
    assert (x ** TOP).exponent_terms() == {(TOP, 0): 1}
    with pytest.raises(DegreeLimitError, match=r"2\^31"):
        x ** (TOP + 1)
    with pytest.raises(DegreeLimitError, match=r"2\^31"):
        (x + y) ** (2**32)
    assert Poly.const(Z9, 2, 2) ** (2**40) == Poly.const(Z9, 2, pow(2, 2**40, 9))
    # the Frobenius image scales degrees by p
    lift = FrobeniusLift.standard(Z9, 2)
    assert frobenius_apply(x ** (2**29), lift, 1).degree() == 3 * 2**29
    with pytest.raises(DegreeLimitError, match=r"2\^31"):
        frobenius_apply(x ** (2**30), lift, 1)
