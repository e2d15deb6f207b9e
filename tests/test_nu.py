import random

import pytest

from bsroots import ChainRingCtx, FrobeniusLift, Poly, is_nu, nu_set
from bsroots import nu
from bsroots.nu import descent_basis, descent_runs, nu_levels

from _oracles import descent_walk, direct_descent_bases, random_unit_poly

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
        # membership reduces mod the window, also where n equals a field
        assert (n + ns.window in ns) == member
    assert (10 in ns) == (1 in ns.members)


def test_nu_levels_are_nested():
    """Each level refines the one below once both are read as sets of
    naturals: f = X^2 + 3Y at levels 1 and 2, and the four anchors under all
    their lifts at levels 1 to 6."""
    f = F23Y()
    low = nu_set(f, STD9, 1)
    high = nu_set(f, STD9, 2)
    for n in high.members:
        assert n % low.window in low.members
    for name in ANCHORS:
        f, lifts = _anchor_lifts(name)
        for lift in lifts:
            levels = nu_levels(f, lift, 6)
            for low, high in zip(levels, levels[1:]):
                for n in high.members:
                    assert n % low.window in low.members, (name, lift.corrections, n)


def test_frobenius_shift_identity():
    """Level e of f equals level e+1 of F(f), periodically extended."""
    from bsroots.poly import frobenius_apply

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


def test_unit_polynomial_has_empty_level_sets():
    u = Poly.const(Z9, 2, 2)
    assert nu_set(u, STD9, 1).members == ()


def _containment_violations(f, lift, e):
    """Steps n in the window where descent of (f^(n+1)) escapes that of (f^n)."""
    window = f.ctx.p ** (e + f.ctx.m)
    bad = []
    power = Poly.one(f.ctx, f.nvars)
    gb = descent_basis([power], lift, e)
    for n in range(window):
        power = power * f
        next_gb = descent_basis([power], lift, e)
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


def _walk_bases(f, lift, top):
    """Basis element tuples of the per-n walk, per level 1..top, n ascending."""
    levels = {}
    for e, n, elems in descent_walk(f, lift, top):
        assert n == len(levels.setdefault(e, []))
        levels[e].append(elems)
    return [levels[e] for e in range(1, top + 1)]


def _run_bases(f, lift, top):
    """Basis element tuples of the run walk, each run spread over its n."""
    levels = []
    for e, runs in descent_runs(f, lift, top):
        assert runs[0][0] == 0
        assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
        ends = [n for n, _ in runs[1:]] + [f.ctx.p ** (e + f.ctx.m) + 1]
        levels.append(
            [elems for (n, elems), end in zip(runs, ends) for _ in range(n, end)]
        )
    return levels


def _lifts(ctx, nvars):
    """The standard lift and the lift x: y+x*y, y: x on the first two variables."""
    x, y = Poly.variable(ctx, nvars, 0), Poly.variable(ctx, nvars, 1)
    bent = [y + x * y, x] + [None] * (nvars - 2)
    return [FrobeniusLift.standard(ctx, nvars), FrobeniusLift(ctx, nvars, bent)]


def _assert_walk_is_direct(f, lift, top):
    """Bases and level sets of both walks against the direct descent of f^n."""
    levels = nu_levels(f, lift, top)
    runs = _run_bases(f, lift, top)
    for e, walked in enumerate(_walk_bases(f, lift, top), start=1):
        direct = [gb.elements for gb in direct_descent_bases(f, lift, e)]
        assert walked == direct, (f, lift.corrections, e)
        assert runs[e - 1] == direct, (f, lift.corrections, e)
        jumps = tuple(n for n in range(len(direct) - 1) if direct[n] != direct[n + 1])
        assert levels[e - 1].members == jumps, (f, lift.corrections, e)


def _assert_runs_match_walk(f, lift, top):
    """Bases and level sets of the run walk against the per-n walk."""
    levels = nu_levels(f, lift, top)
    walked = _walk_bases(f, lift, top)
    assert _run_bases(f, lift, top) == walked, (f, lift.corrections)
    for level, bases in zip(levels, walked):
        jumps = tuple(n for n in range(len(bases) - 1) if bases[n] != bases[n + 1])
        assert level.members == jumps, (f, lift.corrections, level.e)


def _anchor(p, m, nvars, build):
    ctx = ChainRingCtx(p, m)
    return ctx, build(*(Poly.variable(ctx, nvars, i) for i in range(nvars)))


# the ROADMAP anchors, without their level counts
ANCHORS = {
    "groebner-p3": _anchor(3, 2, 2, lambda x, y: x**2 + y**3),
    "groebner-p2": _anchor(2, 2, 2, lambda x, y: x**3 + y**2 + x * y),
    "nonstandard-lift": _anchor(2, 2, 2, lambda x, y: x**3 + y**2),
    "three-vars": _anchor(3, 1, 3, lambda x, y, z: x * y + y * z + z * x),
}


def _anchor_lifts(name):
    """An anchor's f and the lifts it is walked under."""
    ctx, f = ANCHORS[name]
    lifts = _lifts(ctx, f.nvars)
    if name == "nonstandard-lift":
        x, y = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
        lifts.append(FrobeniusLift(ctx, 2, [x * y + y * y, x]))
    return f, lifts


def _deepest_level(ctx, window):
    """The highest level whose window p^(e+m) is at most ``window``."""
    e = 1
    while ctx.p ** (e + 1 + ctx.m) <= window:
        e += 1
    return e


@pytest.mark.parametrize("name", list(ANCHORS))
def test_level_walk_matches_direct_descent_on_anchors(name):
    """Every basis of both walks, n = 0..p^(e+m) at levels 1 and 2, equals
    the completed descent of f^n itself, and so do the level sets."""
    f, lifts = _anchor_lifts(name)
    for lift in lifts:
        _assert_walk_is_direct(f, lift, 2)


@pytest.mark.parametrize("name", list(ANCHORS))
def test_run_walk_matches_per_n_walk_on_anchors(name):
    """The run walk gives the per-n walk's basis at every n, to the highest
    level whose window is at most 2^7."""
    f, lifts = _anchor_lifts(name)
    for lift in lifts:
        _assert_runs_match_walk(f, lift, _deepest_level(f.ctx, 128))


@pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_level_walk_matches_direct_descent_on_random_polys(p, m):
    rng = random.Random(700 + 10 * p + m)
    ctx = ChainRingCtx(p, m)
    top = 3 if p ** (2 + m) <= 8 else 2
    for lift in _lifts(ctx, 2):
        for _ in range(3):
            _assert_walk_is_direct(random_unit_poly(rng, ctx, 2, 3, 3), lift, top)


@pytest.mark.parametrize(
    "p,m", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (5, 0), (5, 1)]
)
def test_run_walk_matches_per_n_walk_on_random_polys(p, m):
    rng = random.Random(750 + 10 * p + m)
    ctx = ChainRingCtx(p, m)
    for lift in _lifts(ctx, 2):
        for _ in range(3):
            f = random_unit_poly(rng, ctx, 2, 3, 3)
            _assert_runs_match_walk(f, lift, _deepest_level(ctx, 81))


def test_run_walk_takes_one_step_per_run_and_shift(monkeypatch):
    """Level e asks for at most p descent steps per run of level e-1 that
    starts below p^(e-1+m), and none for n = 0 or the wrap at p^(e+m),
    which are known in closed form. The bisection steps only the candidates
    that locate a run boundary: 24 steps to level 10 on the p=2 anchor,
    where one step per run and shift would take 198 and one step per n
    8 194, and the same 24 to level 16 (330 by runs), as the level sets
    stop growing after level 2 and every level above asks for none. Each
    step asked for is completed once."""
    ctx, f = ANCHORS["groebner-p2"]
    lift = FrobeniusLift.standard(ctx, 2)
    p, m = ctx.p, ctx.m
    asked = completed = 0
    ask, complete = nu.DescentContext.step, nu.descent_step

    def counted_ask(*args):
        nonlocal asked
        asked += 1
        return ask(*args)

    def counted_complete(*args):
        nonlocal completed
        completed += 1
        return complete(*args)

    for top, by_runs in ((10, 198), (16, 330)):
        starts = range(p**m + 1)  # level 0: one run per power f^a, a <= p^m
        asks = bound = completed = 0
        with monkeypatch.context() as patch:
            patch.setattr(nu.DescentContext, "step", counted_ask)
            patch.setattr(nu, "descent_step", counted_complete)
            for e, runs in descent_runs(f, lift, top):
                runs_below = p * sum(n < p ** (e - 1 + m) for n in starts)
                assert asked <= runs_below, (top, e)
                asks, bound, asked = asks + asked, bound + runs_below, 0
                starts = [n for n, _ in runs]
        assert bound == by_runs, top
        assert asks == completed == 24, top


def _no_completion(*args):
    pytest.fail("a step was completed again")


@pytest.mark.parametrize("name", list(ANCHORS))
def test_shared_context_gives_the_level_sets_of_a_fresh_one(monkeypatch, name):
    """On a context a shallower walk already filled, nu_levels gives the
    level sets of a fresh context, and walking again completes nothing."""
    f, lifts = _anchor_lifts(name)
    top = _deepest_level(f.ctx, 128)
    for lift in lifts:
        shared = nu.DescentContext(f, lift)
        nu_levels(f, lift, 1, shared)
        fresh = nu_levels(f, lift, top)
        assert nu_levels(f, lift, top, shared) == fresh, lift.corrections
        with monkeypatch.context() as patch:
            patch.setattr(nu, "descent_step", _no_completion)
            assert nu_levels(f, lift, top, shared) == fresh, lift.corrections


def test_context_refuses_another_f_or_lift():
    ctx, f = ANCHORS["groebner-p2"]
    std, bent = _lifts(ctx, 2)
    descent = nu.DescentContext(f, std)
    x = Poly.variable(ctx, 2, 0)
    for g, lift in ((f + x, std), (f, bent), (f.with_ctx(ChainRingCtx(2, 1)), std)):
        with pytest.raises(ValueError, match="made for another f or lift"):
            nu_levels(g, lift, 2, descent)
    # an equal pair is the same pair
    same = (f * 1, FrobeniusLift.standard(ctx, 2))
    assert nu_levels(*same, 2, descent) == nu_levels(f, std, 2)


def test_context_builds_only_the_shifts_its_steps_use():
    """At p=101 the walk of x over Z/101 to level 2 completes steps by a
    few shift indices k only, so the context builds those shifts f^(p^m*k)
    and not all 100."""
    ctx = ChainRingCtx(101, 0)
    x = Poly.variable(ctx, 1, 0)
    lift = FrobeniusLift.standard(ctx, 1)
    descent = nu.DescentContext(x, lift)
    assert descent.shifts == {}
    assert nu_levels(x, lift, 2, descent) == nu_levels(x, lift, 2)
    assert 0 < len(descent.shifts) < 10
    for k, shift in descent.shifts.items():
        assert 0 < k < 101 and shift == x**k


def test_frozen_windows_of_the_anchors_at_depth():
    """Level 12 of the p=2 anchor and level 5 of the p=3 anchor, as the
    per-n walk gave them."""
    ctx, f = ANCHORS["groebner-p2"]
    assert nu_set(f, FrobeniusLift.standard(ctx, 2), 12).members == (
        4095, 5119, 6143, 7167, 8191, 10239, 12287, 13311, 14335, 15359, 16383,
    )
    ctx, f = ANCHORS["groebner-p3"]
    assert nu_set(f, FrobeniusLift.standard(ctx, 2), 5).members == (
        161, 188, 197, 242, 269, 296, 323, 350, 377, 404, 431, 440, 458, 485,
        512, 539, 566, 593, 620, 647, 674, 683, 701, 728, 809, 890, 917, 926,
        971, 998, 1025, 1052, 1079, 1106, 1133, 1160, 1169, 1187, 1214, 1241,
        1268, 1295, 1322, 1349, 1376, 1403, 1412, 1430, 1457, 1538, 1619, 1646,
        1655, 1700, 1727, 1754, 1781, 1808, 1835, 1862, 1889, 1898, 1916, 1943,
        1970, 1997, 2024, 2051, 2078, 2105, 2132, 2141, 2159, 2186,
    )
