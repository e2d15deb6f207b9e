"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with `pytest -v tests/test_acceptance.py`; each test also prints its own
"criterion N: PASS" line with the measured numbers (visible with -s or -rP).
"""

import random
import time
from fractions import Fraction

from bsroots import (
    ChainRingCtx,
    FrobeniusLift,
    Poly,
    detect_roots,
    nu_levels,
    nu_set,
    strength,
)
from bsroots.bsr import crosscheck_mod_p
from bsroots.groebner import IdealGens, strong_groebner

from _oracles import (
    Matrix,
    exhaustive_span,
    howell_form,
    int_val,
    membership_bruteforce,
    monomial_root_set,
    random_poly,
)
from _properties import run_all


def _passed(n, detail):
    print(f"criterion {n}: PASS - {detail}")


def _setup(p, m, terms, nvars):
    ctx = ChainRingCtx(p, m)
    return Poly(ctx, nvars, terms), FrobeniusLift.standard(ctx, nvars)


def test_criterion_1_running_example_levels_and_roots():
    started = time.monotonic()
    f, lift = _setup(3, 1, {(2, 0): 1, (0, 1): 3}, 2)

    levels = nu_levels(f, lift, 3)
    level2 = {4, 5, 8, 13, 14, 17, 22, 23, 26}
    assert set(levels[1].members) == level2
    assert set(nu_set(f, lift, 2).members) == level2

    window = 3 ** (3 + 1)
    step = 3**3
    formula = set()
    k = 1
    while k * step - 1 < window:
        formula.add(k * step - 1)
        k += 1
    k = 1
    while (k * step - 1) // 2 < window:
        formula.add((k * step - 1) // 2)
        formula.add((k * step + 1) // 2)
        k += 2
    formula = {n for n in formula if n < window}
    assert set(levels[2].members) == formula
    assert set(nu_set(f, lift, 3).members) == formula

    report = detect_roots(f, lift, top_level=4, den_bound=10, num_bound=10)
    roots = {e.alpha.frac for e in report.roots}
    assert roots == {Fraction(-1), Fraction(-1, 2), Fraction(1, 2)}

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(1, f"levels 2,3 match and roots {{-1,-1/2,1/2}} in {elapsed:.2f}s")


def test_criterion_2_strength_of_minus_one_for_x():
    rings = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (5, 0)]
    for p, m in rings:
        f, lift = _setup(p, m, {(1,): 1}, 1)
        res = strength(f, lift, Fraction(-1))
        assert res.value == m + 1, (p, m, res)
        assert res.stabilized
    _passed(2, f"str(-1, x) = m+1 and stabilized on {len(rings)} rings")


def test_criterion_3_lift_dependence_of_levels_but_not_roots():
    ctx = ChainRingCtx(2, 1)
    x = Poly.variable(ctx, 2, 0)
    y = Poly.variable(ctx, 2, 1)
    F1 = FrobeniusLift.standard(ctx, 2)
    F2 = FrobeniusLift(ctx, 2, [x * y + y * y, None])

    for g, lift, members in ((x, F1, (1, 3)), (x + y, F1, (1, 2, 3)), (x, F2, (1, 2, 3))):
        assert nu_levels(g, lift, 1)[0].members == members
        assert nu_set(g, lift, 1).members == members

    r1 = detect_roots(x, F1, top_level=7, den_bound=10, num_bound=10)
    r2 = detect_roots(x, F2, top_level=7, den_bound=10, num_bound=10)
    assert [e.alpha.frac for e in r1.roots] == [e.alpha.frac for e in r2.roots]
    _passed(3, "level-1 windows {1,3}/{1,2,3}/{1,2,3}; root sets agree across lifts")


def test_criterion_4_crosscheck_against_mod_p():
    cases = [
        (_setup(3, 1, {(2, 0): 1, (0, 1): 3}, 2), 4),
        (_setup(2, 1, {(1,): 1}, 1), 7),
        (_setup(2, 1, {(1, 0): 1, (0, 1): 2}, 2), 7),
    ]
    for (f, lift), top in cases:
        cc = crosscheck_mod_p(f, lift, top_level=top, den_bound=10, num_bound=10)
        assert cc.ok, cc.mismatches
        ours = {e.alpha.frac for e in cc.report.roots}
        mod_p = {e.alpha.frac for e in cc.report_mod_p.roots}
        assert {a for a in ours if a < 0} == mod_p
        for a in ours:
            if a >= 0:
                assert any((a - b).denominator == 1 for b in mod_p)
        assert {a % 1 for a in ours} == {a % 1 for a in mod_p}
    _passed(4, "negative/translate/mod-Z agreement on all 3 examples")


def test_criterion_5_property_suite():
    results = run_all()
    total = sum(cases for cases, _ in results.values())
    failures = [msg for _, fails in results.values() for msg in fails]
    assert total >= 200, total
    assert not failures, failures[:5]
    _passed(5, f"{total} randomized cases across {len(results)} families, 0 violations")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(66)

    rings = [(2, 0), (2, 1), (3, 0), (3, 1), (5, 0)]
    checked = 0
    disagreements = []
    while checked < 500:
        p, m = rings[checked % len(rings)]
        ctx = ChainRingCtx(p, m)
        gens = [random_poly(rng, ctx, 2, 2, 3) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = IdealGens(gens, ctx=ctx, nvars=2)
        gb = strong_groebner(ideal)
        if rng.random() < 0.5:
            g = Poly.zero(ctx, 2)
            for h in gens:
                g = g + random_poly(rng, ctx, 2, 1, 2) * h
        else:
            g = random_poly(rng, ctx, 2, 2, 3)
        claims = gb.contains(g)
        verdict = None
        for cap in (3, 5, 7):
            verdict = membership_bruteforce(ideal, g, cap)
            if verdict is True or not claims:
                break
        checked += 1
        if verdict is True and not claims:
            disagreements.append(f"certificate for a non-member: {g!r} in {gens!r}")
        if claims and verdict is not True:
            disagreements.append(f"no certificate for a member: {g!r} in {gens!r}")
    assert not disagreements, disagreements[:3]

    span_checked = 0
    span_bad = 0
    for p, m, max_rows in ((2, 0, 6), (2, 1, 4), (2, 2, 3), (3, 0, 4), (3, 1, 3), (5, 0, 3), (7, 0, 3)):
        ctx = ChainRingCtx(p, m)
        for _ in range(8):
            nrows = rng.randint(1, max_rows)
            ncols = rng.randint(1, 3)
            if ctx.modulus**nrows > 2**16 or ctx.modulus**ncols > 2**16:
                continue
            rows = [
                [rng.randrange(ctx.modulus) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            h = howell_form(Matrix(ctx, ncols, rows))
            if exhaustive_span(rows, ncols, ctx.modulus) != exhaustive_span(
                [list(r) for r in h.rows], ncols, ctx.modulus
            ):
                span_bad += 1
            span_checked += 1
    assert span_bad == 0
    _passed(
        6,
        f"{checked} membership instances and {span_checked} span enumerations, "
        "0 disagreements",
    )


def test_criterion_7_monomial_closed_forms():
    for a, p in ((1, 2), (1, 3), (2, 3), (3, 2)):
        for m in (0, 1):
            f, lift = _setup(p, m, {(a,): 1}, 1)
            top = 8 if p == 2 else 5
            rep = detect_roots(f, lift, top_level=top, den_bound=10, num_bound=10)
            got = {e.alpha.frac for e in rep.roots}
            assert got == monomial_root_set(a, p, m, 10, 10), (a, p, m, got)
    f30, lift30 = _setup(2, 0, {(3,): 1}, 1)
    rep = detect_roots(f30, lift30, top_level=8, den_bound=10, num_bound=10)
    assert {e.alpha.frac for e in rep.roots} == {
        Fraction(-1),
        Fraction(-1, 3),
        Fraction(-2, 3),
    }

    rings = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (5, 0)]
    for p, m in rings:
        fx, liftx = _setup(p, m, {(1,): 1}, 1)
        fxy, liftxy = _setup(p, m, {(1, 1): 1}, 2)
        assert strength(fx, liftx, Fraction(-1)).value == m + 1
        assert strength(fxy, liftxy, Fraction(-1)).value == m + 1
    _passed(7, "4 monomial root sets match the floor oracle at m in {0,1}; "
               "str(-1) = m+1 for x and xy")


def test_criterion_8_strength_against_classical_b():
    # b(s) = s + 1 for x and (s + 1)(s + 1/2) for x^2, over Z/3^(m+1)
    cases = [
        ({(1,): 1}, lambda s: s + 1, [Fraction(-1), Fraction(-2), Fraction(0)]),
        (
            {(2,): 1},
            lambda s: (s + 1) * (s + Fraction(1, 2)),
            [Fraction(-1), Fraction(-1, 2), Fraction(-2), Fraction(1, 2)],
        ),
    ]
    rows = 0
    for terms, b, points in cases:
        previous = {}
        for m in (0, 1, 2):
            f, lift = _setup(3, m, terms, 1)
            for alpha in points:
                value = strength(f, lift, alpha).value
                b_alpha = b(alpha)
                assert b_alpha.denominator % 3 != 0
                # val_3(b(alpha)) >= value; int_val caps at value, and
                # b(alpha) = 0 reads as the cap
                assert int_val(3, b_alpha.numerator, value) >= value, (m, alpha)
                assert value >= previous.get(alpha, 0), (m, alpha)
                previous[alpha] = value
                rows += 1
    assert rows == 21
    _passed(8, f"val_p(b(alpha)) >= strength and monotone in m on {rows} rows")
