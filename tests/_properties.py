"""Seeded randomized property families over small configurations.

Each family returns (cases_checked, failure_messages). The acceptance suite
requires the combined count to clear a documented floor, so families use
fixed case budgets and a shared deterministic seed; a per-seed cache keeps
repeat calls within one pytest session free.

Configuration space: two variables, degree <= 3, p in {2, 3}, m <= 1,
levels e <= 2; the descent-composition and descent-shift families also take
m = 2 and e = 3. The engine descends one level at a time, so a level-e
descent here is its level 1 taken e times (``iterated_generators``), and
the descent-composition family checks that against the direct level-e
reference of ``_oracles.py``.
"""

import math
import random

from bsroots import ChainRingCtx, FrobeniusLift, Poly, nu_set
from bsroots.groebner import IdealGens, strong_groebner
from bsroots.poly import phi_decompose

from _oracles import (
    frobenius_apply_reference,
    frobenius_pullback_ideal,
    phi_decompose_reference,
    random_poly,
    random_unit_poly,
)

DEFAULT_SEED = 20260815

_CACHE = {}

_RINGS = [(2, 0), (2, 1), (3, 0), (3, 1)]


def _ctx_and_lift(rng):
    p, m = rng.choice(_RINGS)
    ctx = ChainRingCtx(p, m)
    return ctx, FrobeniusLift.standard(ctx, 2)


def level_one_generators(gens, lift):
    """The engine's level-1 coordinates of each of ``gens``, in order."""
    coords = [c for g in gens for c in phi_decompose(g, lift).values()]
    return IdealGens(coords, ctx=lift.ctx, nvars=lift.nvars)


def iterated_generators(gens, lift, e):
    """The engine's level-1 coordinates taken e times, starting from
    ``gens``: by the composition identity I_e(J) = I_1(I_(e-1)(J)) they
    generate the level-e descent of (gens)."""
    for _ in range(e):
        gens = level_one_generators(gens, lift).gens
    return IdealGens(gens, ctx=lift.ctx, nvars=lift.nvars)


def _jump(f, lift, e, n):
    """Raw level-e jump test at exponent n, no window reduction anywhere."""
    a = iterated_generators([f**n], lift, e)
    b = iterated_generators([f ** (n + 1)], lift, e)
    return strong_groebner(a) != strong_groebner(b)


def nu_descending(rng, budget=40):
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        f = random_unit_poly(rng, ctx, 2, 3, 3)
        low = nu_set(f, lift, 1)
        high = nu_set(f, lift, 2)
        for n in high.members:
            if n % low.window not in low.members:
                failures.append(f"case {i}: {n} in level 2 but not level 1 for {f!r}")
                break
    return budget, failures


def nu_periodic(rng, budget=35):
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        e = 2 if (ctx.p == 2 and rng.random() < 0.4) else 1
        f = random_unit_poly(rng, ctx, 2, 3, 3)
        window = ctx.p ** (e + ctx.m)
        n = rng.randrange(window)
        if _jump(f, lift, e, n) != _jump(f, lift, e, n + window):
            failures.append(f"case {i}: period broken at n={n}, e={e} for {f!r}")
    return budget, failures


def nu_frobenius_shift(rng, budget=24):
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        f = random_unit_poly(rng, ctx, 2, 3, 3)
        base = nu_set(f, lift, 1)
        shifted = nu_set(frobenius_apply_reference(f, lift, 1), lift, 2)
        expected = tuple(
            n for n in range(shifted.window) if n % base.window in base.members
        )
        if shifted.members != expected:
            failures.append(f"case {i}: shift identity broken for {f!r}")
    return budget, failures


def cartier_degree_bound(rng, budget=50):
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        e = rng.randint(1, 2)
        f = random_poly(rng, ctx, 2, 3, 4)
        if f.is_zero():
            continue
        C = iterated_generators([f], lift, e)
        for g in C.gens:
            if g.degree() > f.degree() / ctx.p**e:
                failures.append(f"case {i}: component degree too big for {f!r}")
                break
    return budget, failures


def descent_pullback_roundtrip(rng, budget=50):
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        e = rng.randint(1, 2)
        gens = [random_poly(rng, ctx, 2, 3, 3) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = IdealGens(gens)
        back = iterated_generators(frobenius_pullback_ideal(I, lift, e).gens, lift, e)
        if strong_groebner(I) != strong_groebner(back):
            failures.append(f"case {i}: roundtrip failed for {I!r}")
    return budget, failures


def frobenius_power_compat(rng, budget=30):
    """Monomials satisfy F(f) = f^p; each invariant n spawns one among
    p*n .. p*n+p-1 at the next level."""
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if a == 0 and b == 0:
            a = 1
        f = Poly(ctx, 2, {(a, b): 1})
        # a failure, not an assert: helper-module asserts vanish under -O
        if lift._power(f.leading_monomial()) != f**ctx.p:
            failures.append(f"case {i}: F(f) != f^p for {f!r}")
            continue
        low = nu_set(f, lift, 1)
        high = nu_set(f, lift, 2)
        for n in low.members:
            if not any(ctx.p * n + j in high.members for j in range(ctx.p)):
                failures.append(f"case {i}: no level-2 child of {n} for {f!r}")
                break
    return budget, failures


def nu_cardinality_bound(rng, budget=40):
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        e = rng.randint(1, 2)
        if ctx.p == 3 and ctx.m == 1:
            e = 1
        f = random_unit_poly(rng, ctx, 2, 3, 3)
        d = int(f.degree())
        cap = (ctx.m + 1) * math.comb(d * ctx.p**ctx.m + 2, 2)
        members = nu_set(f, lift, e).members
        if len(members) > cap:
            failures.append(f"case {i}: {len(members)} members > cap {cap} for {f!r}")
    return budget, failures


def power_scaling(rng, budget=40):
    """n invariant for f forces floor(n/k) invariant for f^k."""
    failures = []
    for i in range(budget):
        ctx, lift = _ctx_and_lift(rng)
        k = 2 if (ctx.p == 3 and ctx.m == 1) else rng.randint(2, 3)
        f = random_unit_poly(rng, ctx, 2, 2, 3)
        base = nu_set(f, lift, 1)
        powered = nu_set(f**k, lift, 1)
        sample = list(base.members)[:4]
        for n in sample:
            if (n // k) % powered.window not in powered.members:
                failures.append(f"case {i}: floor({n}/{k}) escaped for {f!r}")
                break
    return budget, failures


_COMPOSITION_RINGS = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]


def _descent(J, lift, e):
    """The reduced strong basis of the level-e descent image of J, by the
    engine's level 1 taken e times."""
    return strong_groebner(iterated_generators(J.gens, lift, e))


def _direct_descent(J, lift, e):
    """The reduced strong basis of the level-e descent image of J, from the
    reference coordinates in the free basis over F^e(R)."""
    coords = [g for h in J.gens for g in phi_decompose_reference(h, lift, e).values()]
    return strong_groebner(IdealGens(coords, ctx=J.ctx, nvars=J.nvars))


def _vanishing_unit_poly(rng, ctx):
    """A random f with f(0) = 0 and a unit coefficient: no power of f is zero,
    and its descent images are not all the unit ideal."""
    while True:
        f = random_unit_poly(rng, ctx, 2, 3, 3)
        terms = {mono: c for mono, c in f.exponent_terms().items() if any(mono)}
        f = Poly(ctx, 2, terms)
        if f.has_unit_coeff():
            return f


def descent_composition(rng, budget=80):
    """Descent composes: I_e(J) = I_1(I_(e-1)(J)) on reduced bases.

    R is free over F^(e-1)(R) on the x^alpha, alpha < p^(e-1), and
    F^(e-1)(R) is free over F^e(R) on the F^(e-1)(x^beta), beta < p; so R is
    free over F^e(R) on their products. The ideal of the coordinates does not
    depend on the basis, so for every lift the direct level-e descent of
    J = (f^k), from the reference coordinates over F^e(R), equals the
    engine's level-1 descent of the reduced basis of its level e-1 descent.
    The lift x: y+x*y, y: x runs the corrective rounds, the standard lift
    its one split.
    """
    failures = []
    for i in range(budget):
        p, m = rng.choice(_COMPOSITION_RINGS)
        ctx = ChainRingCtx(p, m)
        x, y = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
        if rng.random() < 0.5:
            name, lift = "standard lift", FrobeniusLift.standard(ctx, 2)
        else:
            name, lift = "lift x: y+x*y, y: x", FrobeniusLift(ctx, 2, [y + x * y, x])
        e = rng.randint(2, 3)
        f = _vanishing_unit_poly(rng, ctx)
        k = rng.randrange(1, 3 * p ** (m + 2))
        J = IdealGens([f**k])
        direct = _direct_descent(J, lift, e)
        iterated = _descent(IdealGens(_descent(J, lift, e - 1).elements), lift, 1)
        if direct != iterated:
            failures.append(f"case {i}: I_{e} != I_1 I_{e - 1} of {f!r}^{k}, {name}")
    return budget, failures


def descent_shift(rng, budget=60):
    """The shift identity: B_e(f^(a + p^(e+m)*k)) = complete(f^(p^m*k) * B_e(f^a)).

    f^(p^(e+m)) = F^e(f^(p^m)) exactly over Z/p^(m+1), and the level-e
    coordinates of F^e(g) * h are g times those of h, for every lift. Both
    sides are reduced strong bases, so they are equal tuples. Every case also
    checks the wrap, a = 0 and k = 1, on its own: B_e(f^(p^(e+m))) =
    complete((f^(p^m))), which the run walk takes in closed form. Windows
    are kept to p^(e+m) <= 32, so the powers stay small.
    """
    failures = []
    for i in range(budget):
        p, m = rng.choice(_COMPOSITION_RINGS)
        ctx = ChainRingCtx(p, m)
        x, y = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
        if rng.random() < 0.5:
            name, lift = "standard lift", FrobeniusLift.standard(ctx, 2)
        else:
            name, lift = "lift x: y+x*y, y: x", FrobeniusLift(ctx, 2, [y + x * y, x])
        e = rng.choice([e for e in (1, 2, 3) if p ** (e + m) <= 32])
        window = p ** (e + m)
        f = _vanishing_unit_poly(rng, ctx)
        a, k = rng.randrange(window), rng.randint(1, 2)
        direct = _descent(IdealGens([f ** (a + window * k)]), lift, e)
        below = _descent(IdealGens([f**a]), lift, e).elements
        shift = f ** (p**m * k)
        shifted = strong_groebner(IdealGens([shift * g for g in below]))
        if direct != shifted:
            failures.append(
                f"case {i}: I_{e}(f^({a}+{window}*{k})) != f^{p**m * k} I_{e}(f^{a})"
                f" for {f!r}, {name}"
            )
        wrap = strong_groebner(IdealGens([f ** p**m]))
        if _descent(IdealGens([f**window]), lift, e) != wrap:
            failures.append(f"case {i}: I_{e}(f^{window}) != (f^{p**m}) for {f!r}, {name}")
    return budget, failures


FAMILIES = (
    ("nu-descending", nu_descending),
    ("nu-periodic", nu_periodic),
    ("nu-frobenius-shift", nu_frobenius_shift),
    ("cartier-degree-bound", cartier_degree_bound),
    ("descent-pullback-roundtrip", descent_pullback_roundtrip),
    ("frobenius-power-compat", frobenius_power_compat),
    ("nu-cardinality-bound", nu_cardinality_bound),
    ("power-scaling", power_scaling),
    ("descent-composition", descent_composition),
    ("descent-shift", descent_shift),
)


def run_family(name, seed=DEFAULT_SEED):
    key = (name, seed)
    if key not in _CACHE:
        fn = dict(FAMILIES)[name]
        _CACHE[key] = fn(random.Random(f"{name}-{seed}"))
    return _CACHE[key]


def run_all(seed=DEFAULT_SEED):
    return {name: run_family(name, seed) for name, _ in FAMILIES}
