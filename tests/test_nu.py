import pytest

from bsroots import (
    ChainRingCtx,
    FrobeniusLift,
    IdealGens,
    Poly,
    is_nu,
    nu_of_ideal,
    nu_set,
)
from bsroots.nu import descent_basis

Z9 = ChainRingCtx(3, 1)
Z4 = ChainRingCtx(2, 1)


def F23Y():
    return Poly(Z9, 2, {(2, 0): 1, (0, 1): 3})


STD9 = FrobeniusLift.standard(Z9, 2)


def test_frozen_windows_f23y():
    assert nu_set(F23Y(), STD9, 1).members == (1, 2, 4, 5, 7, 8)
    assert nu_set(F23Y(), STD9, 2).members == (4, 5, 8, 13, 14, 17, 22, 23, 26)


def test_frozen_windows_single_variable():
    x = Poly.variable(Z4, 1, 0)
    std = FrobeniusLift.standard(Z4, 1)
    assert nu_set(x, std, 1).members == (1, 3)
    assert nu_set(x, std, 2).members == (3, 7)
    assert nu_set(x, std, 3).members == (7, 15)


def test_frozen_window_x_plus_2y():
    g = Poly(Z4, 2, {(1, 0): 1, (0, 1): 2})
    assert nu_set(g, FrobeniusLift.standard(Z4, 2), 2).members == (3, 7)


def test_is_nu_matches_window_and_periodicity():
    f = F23Y()
    ns = nu_set(f, STD9, 1)
    for n in range(ns.window):
        member = n in ns.members
        assert is_nu(f, STD9, 1, n) == member
        assert is_nu(f, STD9, 1, n + ns.window) == member
        assert (n in ns) == member
    assert (10 in ns) == (1 in ns.members)


def test_nu_levels_are_nested():
    """Each level refines the one below once both are read as sets of naturals."""
    f = F23Y()
    low = nu_set(f, STD9, 1)
    high = nu_set(f, STD9, 2)
    for n in high.members:
        assert n % low.window in low.members


def test_frobenius_shift_identity():
    """Level e of f equals level e+1 of F(f), periodically extended."""
    from bsroots import frobenius_apply

    f = F23Y()
    base = nu_set(f, STD9, 1)
    shifted = nu_set(frobenius_apply(f, STD9, 1), STD9, 2)
    expected = tuple(
        n for n in range(shifted.window) if n % base.window in base.members
    )
    assert shifted.members == expected


def test_zerodivisor_rejected():
    bad = Poly(Z9, 2, {(1, 0): 3})
    with pytest.raises(ValueError, match="nonzerodivisor"):
        nu_set(bad, STD9, 1)
    with pytest.raises(ValueError, match="nonzerodivisor"):
        is_nu(Poly.zero(Z9, 2), STD9, 1, 0)


def test_level_must_be_positive():
    with pytest.raises(ValueError):
        nu_set(F23Y(), STD9, 0)
    with pytest.raises(ValueError):
        is_nu(F23Y(), STD9, -1, 0)


def test_nu_of_ideal_monomial_values():
    z3 = ChainRingCtx(3, 0)
    x = Poly.variable(z3, 1, 0)
    std = FrobeniusLift.standard(z3, 1)
    # largest n with x^n outside (x^(k*p^e)) is k*p^e - 1
    assert nu_of_ideal(x, IdealGens([x**2]), std, 1) == 5
    x4 = Poly.variable(Z4, 1, 0)
    std4 = FrobeniusLift.standard(Z4, 1)
    assert nu_of_ideal(x4, IdealGens([x4**3]), std4, 2) == 11


def test_nu_of_ideal_lies_in_level_set():
    f = F23Y()
    y = Poly.variable(Z9, 2, 1)
    value = nu_of_ideal(f, IdealGens([f**2, y * f]), STD9, 1)
    assert is_nu(f, STD9, 1, value)


def test_nu_of_ideal_error_cases():
    x = Poly.variable(Z4, 1, 0)
    std = FrobeniusLift.standard(Z4, 1)
    with pytest.raises(ValueError, match="does not become full"):
        nu_of_ideal(x, IdealGens([Poly.const(Z4, 1, 2)]), std, 1)
    with pytest.raises(ValueError, match="already lies"):
        nu_of_ideal(x, IdealGens([Poly.one(Z4, 1)]), std, 1)


def test_unit_polynomial_has_empty_level_sets():
    u = Poly.const(Z9, 2, 2)
    assert nu_set(u, STD9, 1).members == ()


def _containment_violations(f, lift, e):
    """Steps n in the window where descent of (f^(n+1)) escapes that of (f^n)."""
    window = f.ctx.p ** (e + f.ctx.m)
    bad = []
    power = Poly.one(f.ctx, f.nvars)
    gb = descent_basis(power, lift, e)
    for n in range(window):
        power = power * f
        next_gb = descent_basis(power, lift, e)
        if not all(gb.contains(h) for h in next_gb.elements):
            bad.append(n)
        gb = next_gb
    return bad


def test_descent_ideals_shrink_along_the_power_chain():
    """Every jump of the level sets is a strict drop of the descent ideal."""
    assert _containment_violations(F23Y(), STD9, 2) == []
    z9 = ChainRingCtx(3, 1)
    x, y, z = (Poly.variable(z9, 3, i) for i in range(3))
    std3 = FrobeniusLift.standard(z9, 3)
    assert _containment_violations(x * y + y * z + z * x, std3, 3) == []
    z8 = ChainRingCtx(2, 2)
    x, y = Poly.variable(z8, 2, 0), Poly.variable(z8, 2, 1)
    lift = FrobeniusLift(z8, 2, [x * y + y**2, x])
    assert _containment_violations(x**3 + y**2, lift, 2) == []
