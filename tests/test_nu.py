import random
import tracemalloc
from fractions import Fraction

import pytest

from bsroots import ChainRingCtx, FrobeniusLift, Poly, is_nu, nu_set
from bsroots import nu
from bsroots.bsr import bfunction_report, detect_roots, strength
from bsroots.groebner import GroebnerBasis, IdealGens, strong_groebner
from bsroots.nu import descent_runs, nu_levels

from _oracles import (
    descent_lifts,
    descent_walk,
    direct_descent_bases,
    frobenius_apply_reference,
    random_unit_poly,
)
from _properties import iterated_generators, level_one_generators

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
    f = F23Y()
    base = nu_set(f, STD9, 1)
    shifted = nu_set(frobenius_apply_reference(f, STD9, 1), STD9, 2)
    expected = tuple(
        n for n in range(shifted.window) if n % base.window in base.members
    )
    assert shifted.members == expected


def test_zerodivisor_rejected():
    """The one check, made by every new ``DescentContext``, refuses a
    zerodivisor f in the level walk and in the root layer alike; the zero
    polynomial is refused before its degree is read."""
    bad = Poly(Z9, 2, {(1, 0): 3})
    with pytest.raises(ValueError, match="nonzerodivisor"):
        nu_set(bad, STD9, 1)
    with pytest.raises(ValueError, match="nonzerodivisor"):
        is_nu(Poly.zero(Z9, 2), STD9, 1, 0)
    for g in (bad, Poly.zero(Z9, 2)):
        for run in (
            lambda: nu_set(g, STD9, 1),
            lambda: strength(g, STD9, Fraction(-1)),
            lambda: detect_roots(g, STD9, 4, 10, 10),
            lambda: bfunction_report(g, STD9, 4, 10, 10),
        ):
            with pytest.raises(ValueError, match="nonzerodivisor"):
                run()


def test_level_must_be_positive():
    with pytest.raises(ValueError):
        nu_set(F23Y(), STD9, 0)
    with pytest.raises(ValueError):
        is_nu(F23Y(), STD9, -1, 0)


def test_unit_polynomial_has_empty_level_sets():
    u = Poly.const(Z9, 2, 2)
    assert nu_set(u, STD9, 1).members == ()


def _containment_violations(f, lift, e):
    """Steps n in the window where the level-e descent of (f^(n+1)), level 1
    taken e times, escapes that of (f^n)."""
    window = f.ctx.p ** (e + f.ctx.m)
    bad = []
    power = Poly.one(f.ctx, f.nvars)
    gb = strong_groebner(iterated_generators([power], lift, e))
    for n in range(window):
        power = power * f
        next_gb = strong_groebner(iterated_generators([power], lift, e))
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
    for e, runs in descent_runs(nu.DescentContext(f, lift), top):
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
    """The run walk, which certifies midpoints against the upper end of
    their gap, gives the per-n walk's basis at every n, which completes
    every step, at levels 1 to 4 and to the highest level whose window is
    at most 2^7."""
    f, lifts = _anchor_lifts(name)
    for lift in lifts:
        _assert_runs_match_walk(f, lift, max(4, _deepest_level(f.ctx, 128)))


@pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_level_walk_matches_direct_descent_on_random_polys(p, m):
    rng = random.Random(700 + 10 * p + m)
    ctx = ChainRingCtx(p, m)
    top = 3 if p ** (2 + m) <= 8 else 2
    for lift in _lifts(ctx, 2):
        for _ in range(3):
            _assert_walk_is_direct(random_unit_poly(rng, ctx, 2, 3, 3), lift, top)


@pytest.mark.parametrize("e", [2, 3])
def test_composed_level_one_is_the_direct_level_e(e):
    """The composition identity I_e(J) = I_1(I_(e-1)(J)), which lets the
    engine descend one level at a time, against the oracle's direct level-e
    descent over F^e(R): at every n of the window, the engine's level-1
    Cartier generators of f^n taken e times complete to the oracle's basis,
    and is_nu, which steps the bases of f^a and f^(a+1), a = n mod p^m, by
    the digits of n, finds the oracle's jumps, under the standard lift and
    x: y+x*y, y: x alike."""
    rng = random.Random(800 + e)
    cases = [_anchor_lifts("nonstandard-lift")[0]]
    for p, m in ((2, 1), (3, 0)):
        cases += [random_unit_poly(rng, ChainRingCtx(p, m), 2, 3, 3) for _ in range(2)]
    jumps = 0
    for f in cases:
        for lift in _lifts(f.ctx, 2):
            direct = direct_descent_bases(f, lift, e)
            for n, gb in enumerate(direct):
                iterated = strong_groebner(iterated_generators([f**n], lift, e))
                assert iterated == gb, (f, lift.corrections, n)
                if n + 1 < len(direct):
                    jump = gb != direct[n + 1]
                    assert is_nu(f, lift, e, n) == jump, (f, lift.corrections, n)
                    jumps += jump
    assert jumps > 2 * len(cases)


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
    step asked for is taken once, and 5 of the 24 are certified equal to
    the basis at their gap's upper end, so the walk completes 19 steps and
    the wrap."""
    ctx, f = ANCHORS["groebner-p2"]
    lift = FrobeniusLift.standard(ctx, 2)
    p, m = ctx.p, ctx.m
    asked = stepped = completed = 0
    ask, take, complete = nu.DescentContext.step, nu.descent_basis, nu.strong_groebner

    def counted_ask(*args):
        nonlocal asked
        asked += 1
        return ask(*args)

    def counted_take(*args):
        nonlocal stepped
        stepped += 1
        return take(*args)

    def counted_complete(*args):
        nonlocal completed
        completed += 1
        return complete(*args)

    for top, by_runs in ((10, 198), (16, 330)):
        starts = range(p**m + 1)  # level 0: one run per power f^a, a <= p^m
        asks = bound = stepped = completed = 0
        with monkeypatch.context() as patch:
            patch.setattr(nu.DescentContext, "step", counted_ask)
            patch.setattr(nu, "descent_basis", counted_take)
            patch.setattr(nu, "strong_groebner", counted_complete)
            for e, runs in descent_runs(nu.DescentContext(f, lift), top):
                runs_below = p * sum(n < p ** (e - 1 + m) for n in starts)
                assert asked <= runs_below, (top, e)
                asks, bound, asked = asks + asked, bound + runs_below, 0
                starts = [n for n, _ in runs]
        assert bound == by_runs, top
        assert asks == stepped == 24, top
        assert completed == 20, top


def test_certificate_completes_fewer_steps_on_the_p3_anchor(monkeypatch):
    """nu of the p=3 anchor to level 3 takes 158 steps. Certifying a
    midpoint equal to its gap's upper end leaves 106 of them to complete,
    and the wrap makes 107 completions, where completing every step made
    159."""
    ctx, f = ANCHORS["groebner-p3"]
    stepped = completed = 0
    take, complete = nu.descent_basis, nu.strong_groebner

    def counted_take(*args):
        nonlocal stepped
        stepped += 1
        return take(*args)

    def counted_complete(*args):
        nonlocal completed
        completed += 1
        return complete(*args)

    monkeypatch.setattr(nu, "descent_basis", counted_take)
    monkeypatch.setattr(nu, "strong_groebner", counted_complete)
    nu_levels(f, FrobeniusLift.standard(ctx, 2), 3)
    assert (stepped, completed) == (158, 107)


def _level_one_steps(name, k):
    """A fresh context of the anchor under the standard lift, and its
    level-1 bases at f^(a + k*p^m), a < p^m, each a step by k."""
    ctx, f = ANCHORS[name]
    descent = nu.DescentContext(f, FrobeniusLift.standard(ctx, f.nvars))
    q = ctx.p**ctx.m
    return descent, [descent.step(descent.level_zero(a), k) for a in range(q)]


def test_certified_step_returns_the_upper_basis_without_completing(monkeypatch):
    """On the three-vars anchor I_1(f) = I_1(f^2): the step at f, whose
    descent generators all lie in ``inside``, the basis at f^2, returns
    that interned tuple itself, and no completion runs."""
    descent, bases = _level_one_steps("three-vars", 0)
    assert bases[1] == bases[2]
    below = descent.level_zero(1)
    del descent.steps[below][0]
    monkeypatch.setattr(nu, "strong_groebner", _no_completion)
    assert descent.step(below, 0, bases[2]) is bases[2]
    assert descent.steps[below][0] is bases[2]


def test_uncertified_step_completes_from_scratch():
    """At a jump the basis one power up holds not every descent generator,
    so the step completes, to what its generators complete to alone."""
    descent, bases = _level_one_steps("groebner-p3", 1)
    f = descent.f
    for a in range(len(bases) - 1):
        if bases[a] == bases[a + 1]:
            continue
        below = descent.level_zero(a)
        shifted = [g * descent.shifts[1] for g in below]
        gens = level_one_generators(shifted, descent.lift)
        upper = GroebnerBasis(f.ctx, f.nvars, bases[a + 1])
        assert not all(map(upper.contains, gens.gens)), a
        del descent.steps[below][1]
        assert descent.step(below, 1, bases[a + 1]) == strong_groebner(gens).elements


@pytest.mark.parametrize("name", list(ANCHORS))
def test_step_generators_are_the_cartier_generators_of_the_shifted_elements(name):
    """The generators a step forms from the memoized coordinates of each
    element are, generator for generator, the ``phi_decompose`` coordinates
    (``level_one_generators``) of the elements times f^(p^m*k), the shift
    built here by a power of f: over the descent lifts of the two-variable
    anchors and the lifts of the three-vars anchor, on a seeded sample of
    the steps a walk to level 2 took, checked after the walk, so that most
    coordinates were read back from the memo."""
    f, lifts = _anchor_lifts(name)
    if f.nvars == 2:
        lifts = descent_lifts(f.ctx)
    rng = random.Random(f"coordinates:{name}")
    q = f.ctx.p**f.ctx.m
    for lift in lifts:
        descent = nu.DescentContext(f, lift)
        nu_levels(f, lift, 2, descent)
        taken = [(elems, k) for elems, held in descent.steps.items() for k in held]
        for elems, k in rng.sample(taken, min(12, len(taken))):
            coords = [c for g in elems for c in descent.coordinates(g, k)]
            shifted = [g * f ** (q * k) for g in elems]
            want = level_one_generators(shifted, lift).gens
            assert IdealGens(coords).gens == want, (lift.corrections, k)


def test_repeated_coordinates_are_read_back_not_formed(monkeypatch):
    """A (g, k) asked for again returns the tuple formed the first time,
    and a step taken again completes from the held coordinates, with
    ``phi_decompose`` unable to run."""
    f, (std, bent) = _anchor_lifts("groebner-p2")
    descent = nu.DescentContext(f, bent)
    below = descent.level_zero(1)
    formed = [descent.coordinates(g, k) for g in below for k in (0, 1)]
    basis = descent.step(below, 1)

    def no_decomposition(*args):
        pytest.fail("coordinates were formed again")

    monkeypatch.setattr(nu, "phi_decompose", no_decomposition)
    again = [descent.coordinates(g, k) for g in below for k in (0, 1)]
    assert all(a is b for a, b in zip(again, formed))
    del descent.steps[below][1]
    assert descent.step(below, 1) == basis


@pytest.mark.parametrize("name", list(ANCHORS))
def test_level_zero_coordinates_are_not_held(name):
    """A level-0 basis (f^a,) is stepped at most once per k, so a walk keeps
    the coordinates of f^a only as an element of a completed basis: every
    (g, k) the context holds has g in an interned basis, over the lifts of
    each anchor, on walks that stepped level-0 bases."""
    f, lifts = _anchor_lifts(name)
    q = f.ctx.p**f.ctx.m
    for lift in lifts:
        descent = nu.DescentContext(f, lift)
        nu_levels(f, lift, 3, descent)
        powers = [descent.level_zero(a) for a in range(1, q + 1)]
        assert any(descent.steps.get(power) for power in powers)
        in_bases = {g for elems in descent._interned for g in elems}
        assert {g for g, _ in descent._coordinates} <= in_bases


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
            patch.setattr(nu, "descent_basis", _no_completion)
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


@pytest.mark.parametrize("name", ["1", "x"])
def test_a_wide_level_costs_what_it_steps(name):
    """Level 1 at p = 1000003 has a million candidate run starts, of which
    the walk steps a few: for f = 1 none, as n = 0 and the wrap hold one
    basis. The candidates are numbered, not listed, so the walk's memory
    peak stays far below one entry per candidate (145 MB when each was
    listed and looked up)."""
    ctx = ChainRingCtx(1000003, 0)
    f = Poly.one(ctx, 1) if name == "1" else Poly.variable(ctx, 1, 0)
    lift = FrobeniusLift.standard(ctx, 1)
    tracemalloc.start()
    try:
        (level,) = nu_levels(f, lift, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert level.members == (() if name == "1" else (ctx.p - 1,))


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


@pytest.mark.parametrize("name", [*ANCHORS, "readme"])
def test_is_nu_agrees_with_the_level_sets(name):
    """At levels 1-4, is_nu, on a fresh context each time, agrees with
    membership in the walk's level sets, over the lifts of the four anchors
    and for the README example: at every n of a window up to 3^5 and a
    seeded sample of 64 of the 3^6 window, always with n = p^(e+m) - 1,
    whose n+1 is the wrap; and at n + window for that n and four more."""
    f, lifts = (F23Y(), [STD9]) if name == "readme" else _anchor_lifts(name)
    rng = random.Random(f"is_nu:{name}")
    for lift in lifts:
        for level in nu_levels(f, lift, 4):
            last = level.window - 1
            if level.window <= 3**5:
                ns = list(range(level.window))
            else:
                ns = rng.sample(range(last), 64) + [last]
            for n in ns:
                member = n in level.members
                assert is_nu(f, lift, level.e, n) == member, (lift.corrections, n)
            for n in [last, *rng.sample(ns, 4)]:
                member = n in level.members
                shifted = n + level.window
                assert is_nu(f, lift, level.e, shifted) == member, (lift.corrections, n)


def test_is_nu_answers_at_the_p2_anchor_level_27():
    """At level 27, a window of 2^29, is_nu takes 27 steps from each of two
    powers of f and agrees with the walk's level set at its first and last
    members, their neighbours, and both ends of the window."""
    ctx, f = ANCHORS["groebner-p2"]
    lift = FrobeniusLift.standard(ctx, 2)
    level = nu_levels(f, lift, 27)[-1]
    ends = (*level.members[:2], *level.members[-2:])
    ns = {0, level.window - 1} | {n + d for n in ends for d in (-1, 0, 1)}
    for n in sorted(ns):
        assert is_nu(f, lift, 27, n) == (n in level.members), n


def test_is_nu_forms_no_power_of_f_past_p_to_the_m_plus_1(monkeypatch):
    """On the p=2 anchor at level 3, at every n of the window 2^5, is_nu
    multiplies nothing of degree above deg f * p^(m+1) = 24; forming f^n
    and f^(n+1) would reach degree 96."""
    ctx, f = ANCHORS["groebner-p2"]
    lift = FrobeniusLift.standard(ctx, 2)
    multiply, largest = Poly.__mul__, 0

    def recorded(a, b):
        nonlocal largest
        product = multiply(a, b)
        largest = max(largest, product.degree())
        return product

    monkeypatch.setattr(Poly, "__mul__", recorded)
    for n in range(2**5):
        is_nu(f, lift, 3, n)
    assert 0 < largest <= 24


def test_a_point_query_builds_only_the_powers_it_steps_from():
    """x^2+y^3 at p=31, m=2 has 962 level-0 bases (f^a,), a <= p^m. The
    path at n = 5 to level 1, and the strength of 5 to level 1, each on a
    fresh context, step only from f^5 and f^6 by the digit 0, so the
    context holds those two and the unit, and builds no shift."""
    ctx = ChainRingCtx(31, 2)
    x, y = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
    f, lift = x**2 + y**3, FrobeniusLift.standard(ctx, 2)
    descent = nu.DescentContext(f, lift)
    (_, lower, upper), = nu.descent_path(descent, 5, 1)
    assert lower == descent.steps[descent.level_zero(5)][0]
    assert upper == descent.steps[descent.level_zero(6)][0]
    assert sorted(descent._powers) == [0, 5, 6] and descent.shifts == {}
    descent = nu.DescentContext(f, lift)
    strength(f, lift, 5, 1, descent)
    assert sorted(descent._powers) == [0, 5, 6] and descent.shifts == {}
