import random

import pytest

from bsroots import ChainRingCtx, Poly
from bsroots.groebner import (
    GroebnerBasis,
    IdealGens,
    _annihilator,
    _reduce,
    _s_poly,
    min_p_power_in,
    strong_groebner,
)
from bsroots.poly import guard_bits, lcm, pack, unpack

from _oracles import (
    _normalize_unit_reference,
    _s_poly_reference,
    head_key_reference,
    mono_divides,
    membership_bruteforce,
    normal_form_reference,
    random_poly,
    strong_groebner_reference,
)

Z4 = ChainRingCtx(2, 1)
Z9 = ChainRingCtx(3, 1)
Z27 = ChainRingCtx(3, 2)


def normal_form(g, basis):
    """The canonical remainder of g by ``basis`` as a ``Poly``, read off the
    engine's one reducer, ``_reduce``."""
    out = dict(_reduce(dict(g.terms), basis._lts, g.ctx.modulus, guard_bits(g.nvars)))
    return Poly._from_reduced(g.ctx, g.nvars, out, next(iter(out), None))


def _assert_minimal(gb):
    """No element's leading term is certified by another's; no duplicates."""
    heads = [
        (unpack(g.leading_monomial(), gb.nvars), gb.ctx.val(g.leading_term()[1]))
        for g in gb.elements
    ]
    assert len(set(gb.elements)) == len(gb.elements), gb
    for i, (lm, v) in enumerate(heads):
        for j, (glm, gv) in enumerate(heads):
            assert i == j or not (gv <= v and mono_divides(glm, lm)), gb


def test_frozen_basis_principal_x_plus_2():
    gb = strong_groebner(IdealGens([Poly(Z4, 1, {(1,): 1, (0,): 2})]))
    # the leading coefficient of x+2 is a unit, so completion meets no
    # annihilator multiple: the multiple 2(x+2) = 2x that kills the tail is
    # in the ideal, but x certifies its leading term 2x and its tail is 0
    assert [g.exponent_terms() for g in gb.elements] == [{(1,): 1, (0,): 2}]


def test_frozen_basis_two_and_x():
    gb = strong_groebner(
        IdealGens([Poly.const(Z4, 1, 2), Poly.variable(Z4, 1, 0)])
    )
    assert [g.exponent_terms() for g in gb.elements] == [{(1,): 1}, {(0,): 2}]


def test_frozen_basis_unit_ideal():
    gb = strong_groebner(IdealGens([Poly.one(Z4, 1)]))
    assert [g.exponent_terms() for g in gb.elements] == [{(0,): 1}]
    assert gb.elements == (Poly.one(Z4, 1),)


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
        assert gb.contains(Poly.one(J.ctx, J.nvars))


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
    assert strong_groebner(a) == strong_groebner(b)
    assert strong_groebner(a) != strong_groebner(IdealGens([x]))
    # two generating sets of one ideal each: x^2+3x+1 = (x^2+x+1) + 2x over
    # Z/4, and x^2+4x = (x^2+x) + 3x over Z/27. Without coefficient-canonical
    # tails they completed to different tuples (x^2+3x+1 and x^2+4x stayed)
    u = Poly.variable(Z4, 1, 0)
    c = IdealGens([u**2 + u + 1, Poly.const(Z4, 1, 2)])
    d = IdealGens([u**2 + 3 * u + 1, Poly.const(Z4, 1, 2)])
    assert [g.exponent_terms() for g in strong_groebner(d).elements] == [
        {(2,): 1, (1,): 1, (0,): 1},
        {(0,): 2},
    ]
    assert strong_groebner(c) == strong_groebner(d)
    t = Poly.variable(Z27, 1, 0)
    assert strong_groebner(IdealGens([t**2 + t, 3 * t])) == strong_groebner(
        IdealGens([t**2 + 4 * t, 3 * t])
    )


def _random_unit(rng, ctx):
    while True:
        u = rng.randrange(1, ctx.modulus)
        if u % ctx.p:
            return u


def _ideal_element(rng, J):
    """A random element sum c_i * x^a_i * f_i of J, exponents 0 or 1."""
    h = Poly.zero(J.ctx, J.nvars)
    for f in J.gens:
        mono = tuple(rng.randint(0, 1) for _ in range(J.nvars))
        h = h + f * Poly.monomial(J.ctx, J.nvars, mono, rng.randrange(J.ctx.modulus))
    return h


def same_ideal_family(ctx, seed, count=60):
    """Seeded pairs (A, B) of generating sets of one ideal of V[x].

    A holds 1-3 random generators in 1-2 variables; B holds a unit multiple
    of each of them plus 1-2 further elements of the ideal.
    """
    rng = random.Random(seed)
    while count:
        nv = rng.randint(1, 2)
        gens = [random_poly(rng, ctx, nv, 3, 4) for _ in range(rng.randint(1, 3))]
        A = IdealGens(gens, ctx=ctx, nvars=nv)
        if not A.gens:
            continue
        other = [g * _random_unit(rng, ctx) for g in A.gens]
        other += [_ideal_element(rng, A) for _ in range(rng.randint(1, 2))]
        count -= 1
        yield A, IdealGens(other, ctx=ctx, nvars=nv)


RINGS = [(2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("p,m", RINGS)
def test_generating_sets_of_one_ideal_complete_to_one_tuple(p, m):
    """Reduced strong bases are unique: the tuple depends on the ideal only."""
    ctx = ChainRingCtx(p, m)
    for A, B in same_ideal_family(ctx, 7000 + 100 * p + m):
        gb = strong_groebner(A)
        assert gb.elements == strong_groebner(B).elements, (A, B)
        # no two elements share a leading term, so heads strictly ascend
        heads = [head_key_reference(g) for g in gb.elements]
        assert all(a < b for a, b in zip(heads, heads[1:])), gb


@pytest.mark.parametrize("p,m", RINGS)
def test_normal_form_is_constant_on_cosets(p, m):
    """f - g in the ideal gives equal remainders, three cases per ideal."""
    ctx = ChainRingCtx(p, m)
    rng = random.Random(8000 + 100 * p + m)
    for A, _ in same_ideal_family(ctx, 7000 + 100 * p + m):
        gb = strong_groebner(A)
        for _ in range(3):
            f = random_poly(rng, ctx, A.nvars, 4, 4)
            g = f + _ideal_element(rng, A)
            assert normal_form(f, gb) == normal_form(g, gb), (A, f, g)


@pytest.mark.parametrize("p,m", RINGS)
def test_contains_agrees_with_the_normal_form(p, m):
    """Membership stops at the first term that survives reduction, and holds
    exactly when the whole normal form is zero: on members, on members plus
    a random polynomial, and on their multiples by powers of p."""
    ctx = ChainRingCtx(p, m)
    rng = random.Random(8500 + 100 * p + m)
    found = set()
    for A, _ in same_ideal_family(ctx, 7000 + 100 * p + m):
        gb = strong_groebner(A)
        for _ in range(3):
            g = _ideal_element(rng, A)
            for h in (g, g + random_poly(rng, ctx, A.nvars, 4, 4)):
                for t in range(m + 1):
                    member = normal_form(h * p**t, gb).is_zero()
                    assert gb.contains(h * p**t) == member, (A, h, t)
                    found.add(member)
    assert found == {False, True}


def test_basis_refuses_leading_coefficients_off_the_powers_of_p():
    x = Poly.variable(Z9, 1, 0)
    with pytest.raises(ValueError, match="not a power of p"):
        GroebnerBasis(Z9, 1, [x * 2 + 1])
    with pytest.raises(ValueError, match="not a power of p"):
        GroebnerBasis(Z9, 1, [x, Poly.const(Z9, 1, 6)])
    GroebnerBasis(Z9, 1, [x * 3 + 1, Poly.const(Z9, 1, 1)])


def test_min_p_power_frozen():
    x = Poly.variable(Z9, 1, 0)
    assert min_p_power_in(strong_groebner(IdealGens([x])), x) == 0
    # only p^(m+1) kills x modulo (x^2)
    assert min_p_power_in(strong_groebner(IdealGens([x**2])), x) == 2
    assert min_p_power_in(strong_groebner(IdealGens([x * 3])), x) == 1
    assert min_p_power_in(strong_groebner(IdealGens([x])), Poly.one(Z9, 1)) == 2


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
        g = _ideal_element(rng, J)
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
            claimed = strong_groebner(J).contains(g)
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


@pytest.mark.parametrize("p,m", RINGS)
def test_s_poly_matches_reference(p, m):
    """The one-dict S-polynomial equals the shifted difference built in full."""
    ctx = ChainRingCtx(p, m)
    rng = random.Random(2000 * p + m)
    pairs = 0
    while pairs < 60:
        nv = rng.randint(1, 3)
        f, g = (
            random_poly(rng, ctx, nv, 3, 5) * p ** rng.randint(0, m) for _ in range(2)
        )
        if f.is_zero() or g.is_zero():
            continue
        f, g = _normalize_unit_reference(f), _normalize_unit_reference(g)
        for a, b in ((f, g), (g, f), (f, f)):
            gamma = lcm(a.leading_monomial(), b.leading_monomial(), nv)
            got = {
                t: r for t, c in _s_poly(a, b, gamma).items() if (r := c % ctx.modulus)
            }
            assert got == _s_poly_reference(a, b).terms, (a, b)
        pairs += 1


@pytest.mark.parametrize("p,m", RINGS)
def test_reducer_takes_unreduced_term_dicts(p, m):
    """The reducer reduces each coefficient as its monomial pops.

    A term dict whose coefficients are shifted by multiples of p^(m+1), some
    negative, plus extra monomials whose coefficient is such a multiple
    (zero among them), reduces to the normal form of the reduced polynomial,
    in descending monomial order.
    """
    ctx = ChainRingCtx(p, m)
    mod = ctx.modulus
    rng = random.Random(5000 + 100 * p + m)
    for A, _ in same_ideal_family(ctx, 7000 + 100 * p + m, count=20):
        gb = strong_groebner(A)
        guards = guard_bits(A.nvars)
        for _ in range(3):
            g = random_poly(rng, ctx, A.nvars, 4, 4) + _ideal_element(rng, A)
            raw = {t: c + mod * rng.randint(-2, 2) for t, c in g.terms.items()}
            for _ in range(2):
                t = pack([rng.randint(0, 3) for _ in range(A.nvars)], A.nvars)
                if t not in raw:
                    raw[t] = mod * rng.randint(-1, 1)
            got = dict(_reduce(raw, gb._lts, mod, guards))
            assert got == normal_form(g, gb).terms, (A, g)
            assert list(got) == sorted(got, reverse=True), (A, g)


@pytest.mark.parametrize("p,m", RINGS)
def test_annihilator_matches_the_full_multiple(p, m):
    """The annihilator terms are those of g * p^(m+1-v), for g unit-normalized
    with lc = p^v, or None exactly when that multiple is zero, which is when
    no coefficient valuation lies below v."""
    ctx = ChainRingCtx(p, m)
    rng = random.Random(6000 + 100 * p + m)
    chains = ends = 0
    while chains < 40 or ends < 10:
        nv = rng.randint(1, 3)
        g = random_poly(rng, ctx, nv, 3, 4) * p ** rng.randint(0, m)
        if g.is_zero():
            continue
        g = _normalize_unit_reference(g)
        lc = g.leading_term()[1]
        v = ctx.val(lc)
        want = g * p ** (m + 1 - v)
        got = _annihilator(g.terms, lc, ctx.modulus)
        if want.is_zero():
            assert got is None, g
            assert min(ctx.val(c) for c in g.terms.values()) == v, g
            ends += 1
        else:
            assert got == want.terms, g
            chains += 1
    # a unit leading coefficient ends the chain at once, whatever the tail
    for j in range(m + 1):
        g = Poly(ctx, 2, {(2, 0): 1, (0, 1): (p - 1) * p**j, (0, 0): (p + 1) * p**j})
        assert _annihilator(g.terms, 1, ctx.modulus) is None


@pytest.mark.parametrize("p,m", RINGS)
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
        _assert_matches_reference(rng, IdealGens(gens, ctx=ctx, nvars=nv))


def _assert_matches_reference(rng, J):
    """Each of the engine's and the reference's bases reduces the other's
    elements to zero, the engine's is minimal, and membership verdicts on
    random ideal elements plus noise agree."""
    gb = strong_groebner(J)
    ref = strong_groebner_reference(J)
    for g in gb.elements:
        assert normal_form_reference(g, ref).is_zero(), (J, g)
    for g in ref.elements:
        assert normal_form(g, gb).is_zero(), (J, g)
    _assert_minimal(gb)
    for _ in range(5):
        # a random ideal element plus noise makes reduction do real work
        g = random_poly(rng, J.ctx, J.nvars, 4, 3) + _ideal_element(rng, J)
        verdict = normal_form_reference(g, ref).is_zero()
        assert normal_form(g, gb).is_zero() == verdict, (J, g)


@pytest.mark.parametrize("p,m", RINGS)
def test_layered_generators_match_reference(p, m):
    """Generators with leading coefficient u * p^v, v >= 1, and a tail term
    of lower valuation: the engine's chain takes one annihilator multiple
    per insertion and the reference every coefficient layer, yet each basis
    reduces the other's elements to zero and membership verdicts agree."""
    ctx = ChainRingCtx(p, m)
    rng = random.Random(8000 + 100 * p + m)
    for _ in range(30):
        nv = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            # a degree-3 head over a tail of degree <= 2 with a unit constant
            terms = random_poly(rng, ctx, nv, 2, 3).exponent_terms()
            terms[(0,) * nv] = _random_unit(rng, ctx)
            top = [0] * nv
            top[rng.randrange(nv)] = 3
            v = rng.randint(1, m)
            terms[tuple(top)] = _random_unit(rng, ctx) * p**v
            g = Poly(ctx, nv, terms)
            assert ctx.val(g.leading_term()[1]) == v
            gens.append(g)
        _assert_matches_reference(rng, IdealGens(gens, ctx=ctx, nvars=nv))


def test_unit_leading_coefficient_forms_no_pairs(monkeypatch):
    """A generator with a unit leading coefficient has no annihilator
    multiple: alone, it completes to itself and forms no S-polynomial, even
    when its tail holds coefficients of valuation 1 and 2."""
    calls = []

    def counted(f, g, gamma):
        calls.append((f, g))
        return _s_poly(f, g, gamma)

    monkeypatch.setattr("bsroots.groebner._s_poly", counted)
    x, y = Poly.variable(Z27, 2, 0), Poly.variable(Z27, 2, 1)
    for g in (x + y * 3 + 9, x**2 + x * y * 9 + y**2 * 3):
        assert strong_groebner(IdealGens([g])).elements == (g,)
        assert calls == [], g


@pytest.mark.parametrize("ctx", [Z4, Z9, Z27], ids=str)
def test_redundant_generator_forms_no_pairs(monkeypatch, ctx):
    """A generator in the ideal built so far reduces to zero on arrival.

    x*g1 + y*g2 pops after g1 and g2 and their annihilator chains, reduces to
    zero by them, and forms no S-polynomial.
    """
    calls = []

    def counted(f, g, gamma):
        calls.append((f, g))
        return _s_poly(f, g, gamma)

    monkeypatch.setattr("bsroots.groebner._s_poly", counted)
    x, y = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
    for g1, g2 in ((x**2 + y * ctx.p, y**2 + x * y), (x**2 + y * ctx.p, x * y + 1)):
        base = strong_groebner(IdealGens([g1, g2]))
        formed = len(calls)
        assert formed > 0
        grown = strong_groebner(IdealGens([g1, g2, x * g1 + y * g2]))
        assert len(calls) == 2 * formed, (g1, g2)
        assert grown == base
        del calls[:]


@pytest.mark.parametrize("p,m", RINGS)
def test_permuted_redundant_generators_complete_alike(p, m):
    """Permuted lists with duplicated and redundant generators give one basis.

    Each list holds the generators of J in a random order, some of them
    twice and some scaled by a unit, plus ideal elements built from them;
    every list completes to the tuple of J, which has the ideal of the
    reference completion.
    """
    ctx = ChainRingCtx(p, m)
    rng = random.Random(9000 + 100 * p + m)
    for _ in range(20):
        nv = rng.randint(1, 3)
        gens = [random_poly(rng, ctx, nv, 3, 3) for _ in range(rng.randint(1, 3))]
        J = IdealGens(gens, ctx=ctx, nvars=nv)
        gb = strong_groebner(J)
        ref = strong_groebner_reference(J)
        for g in gb.elements:
            assert normal_form_reference(g, ref).is_zero(), (J, g)
        for g in ref.elements:
            assert normal_form(g, gb).is_zero(), (J, g)
        for _ in range(3):
            listed = list(J.gens) + rng.sample(J.gens, rng.randint(0, len(J.gens)))
            listed += [g * _random_unit(rng, ctx) for g in J.gens if rng.random() < 0.5]
            listed += [_ideal_element(rng, J) for _ in range(rng.randint(1, 3))]
            rng.shuffle(listed)
            other = IdealGens(listed, ctx=ctx, nvars=nv)
            assert strong_groebner(other).elements == gb.elements, (J, other)
