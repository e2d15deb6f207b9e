"""Root detection, strengths, and cross-check reports.

The running example is f = X^2 + 3Y over Z/9 with the standard lift; its
level sets, survivors, roots, and strengths below were derived by hand from
the descent chains before the pipeline existed. Monomial cases are checked
against the independent floor-arithmetic oracle.
"""

from fractions import Fraction

import pytest

from bsroots import (
    ChainRingCtx,
    FrobeniusLift,
    PAdicRational,
    Poly,
    bfunction_report,
    candidate_residues,
    crosscheck_mod_p,
    detect_roots,
    strength,
    strength_vs_bsato,
)
from bsroots.bsr import _default_top_level

from _oracles import monomial_root_set


def _setup(p, m, terms, nvars):
    ctx = ChainRingCtx(p, m)
    f = Poly(ctx, nvars, terms)
    return f, FrobeniusLift.standard(ctx, nvars)


@pytest.fixture(scope="module")
def running_example_report():
    f, lift = _setup(3, 1, {(2, 0): 1, (0, 1): 3}, 2)
    return f, lift, bfunction_report(f, lift, top_level=4, den_bound=10, num_bound=10)


def test_running_example_level_sets(running_example_report):
    _, _, rep = running_example_report
    tree = rep.tree
    assert tree.survivors[0] == (0, 1, 2)
    assert tree.levels[1].members == (1, 2, 4, 5, 7, 8)
    assert tree.levels[2].members == (4, 5, 8, 13, 14, 17, 22, 23, 26)
    assert tree.levels[3].members == (13, 14, 26, 40, 41, 53, 67, 68, 80)
    assert tree.survivors[4] == (40, 41, 80, 121, 122, 161, 202, 203, 242)


def test_running_example_roots_and_strengths(running_example_report):
    _, _, rep = running_example_report
    assert [(str(e.alpha.frac), e.residue, e.strength, e.stabilized) for e in rep.roots] == [
        ("-1", 242, 2, True),
        ("-1/2", 121, 1, True),
        ("1/2", 122, 1, True),
    ]
    assert rep.unresolved == (40, 41, 80, 161, 202, 203)
    assert rep.verified_to_level == 4
    assert (rep.p, rep.m, rep.den_bound, rep.num_bound) == (3, 1, 10, 10)


def test_running_example_strength_walks(running_example_report):
    f, lift, _ = running_example_report
    walks = {
        Fraction(-1): ((1, 2), (2, 2)),
        Fraction(-1, 2): ((1, 1), (2, 1)),
        Fraction(1, 2): ((1, 2), (2, 1), (3, 1)),
    }
    for alpha, per_level in walks.items():
        res = strength(f, lift, alpha)
        assert res.per_level == per_level
        assert res.stabilized
        assert res.value == per_level[-1][1]


def test_monomial_over_z4():
    f, lift = _setup(2, 1, {(1,): 1}, 1)
    rep = detect_roots(f, lift, top_level=7, den_bound=10, num_bound=10)
    assert [(str(e.alpha.frac), e.residue) for e in rep.roots] == [("-1", 255)]
    # the second all-ones branch survives but fits no bounded fraction
    assert rep.unresolved == (127,)
    assert rep.tree.survivors[7] == (127, 255)


def test_survivor_shape_for_single_variable():
    # m=0: exactly one survivor per level, the all-(p-1) residue
    for p in (2, 3):
        f, lift = _setup(p, 0, {(1,): 1}, 1)
        tree = candidate_residues(f, lift, 5)
        for e in range(1, 6):
            assert tree.survivors[e] == (p**e - 1,)
    # m=1: survival only pins the low e digits, leaving p^m branches
    f, lift = _setup(2, 1, {(1,): 1}, 1)
    tree = candidate_residues(f, lift, 4)
    for e in range(1, 5):
        expected = tuple(r for r in range(2 ** (e + 1)) if (r + 1) % 2**e == 0)
        assert tree.survivors[e] == expected


def test_lift_changes_levels_but_not_roots():
    ctx = ChainRingCtx(2, 1)
    x = Poly.variable(ctx, 2, 0)
    y = Poly.variable(ctx, 2, 1)
    std = FrobeniusLift.standard(ctx, 2)
    bent = FrobeniusLift(ctx, 2, [x * y + y * y, None])
    assert bent.image(0).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 2}
    t_std = candidate_residues(x, std, 1).levels[1].members
    t_bent = candidate_residues(x, bent, 1).levels[1].members
    assert t_std == (1, 3)
    assert t_bent == (1, 2, 3)
    r_std = detect_roots(x, std, top_level=7, den_bound=10, num_bound=10)
    r_bent = detect_roots(x, bent, top_level=7, den_bound=10, num_bound=10)
    assert [e.alpha.frac for e in r_std.roots] == [e.alpha.frac for e in r_bent.roots]


def test_monomial_roots_match_floor_oracle():
    for a, p, m in ((1, 2, 0), (1, 2, 1), (2, 3, 1)):
        f, lift = _setup(p, m, {(a,): 1}, 1)
        top = 8 if p == 2 else 4
        rep = detect_roots(f, lift, top_level=top, den_bound=10, num_bound=10)
        got = {e.alpha.frac for e in rep.roots}
        assert got == monomial_root_set(a, p, m, 10, 10)


def test_default_top_level():
    assert _default_top_level(3, 1, 10, 10) == 5
    assert _default_top_level(2, 1, 10, 10) == 8
    assert _default_top_level(2, 0, 50, 100) == 15


def test_reconstruction_guard_and_bounds():
    f, lift = _setup(2, 1, {(1, 0): 1, (0, 1): 2}, 2)
    with pytest.raises(ValueError, match="must exceed"):
        detect_roots(f, lift, top_level=3, den_bound=10, num_bound=10)
    with pytest.raises(ValueError, match="bounds"):
        detect_roots(f, lift, top_level=7, den_bound=0, num_bound=10)
    with pytest.raises(ValueError, match="top level"):
        candidate_residues(f, lift, 0)


def test_strength_validation_and_nonroot():
    f, lift = _setup(3, 1, {(1,): 1}, 1)
    with pytest.raises(ValueError, match="e_stop"):
        strength(f, lift, Fraction(-1), e_stop=0)
    res = strength(f, lift, Fraction(-2))
    assert res.value == 0 and res.stabilized
    assert res.per_level == ((1, 0),)
    # plain Fraction and PAdicRational inputs agree
    assert strength(f, lift, PAdicRational(3, Fraction(-1))).value == 2


def test_binomial_strength_over_z4():
    f, lift = _setup(2, 1, {(1, 0): 1, (0, 1): 2}, 2)
    rep = bfunction_report(f, lift, top_level=7, den_bound=10, num_bound=10)
    assert [(str(e.alpha.frac), e.strength, e.stabilized) for e in rep.roots] == [
        ("-1", 2, True)
    ]
    assert rep.tree.levels[2].members == (3, 7)


def test_crosscheck_all_three_examples():
    cases = [
        (_setup(3, 1, {(2, 0): 1, (0, 1): 3}, 2), 4),
        (_setup(2, 1, {(1,): 1}, 1), 7),
        (_setup(2, 1, {(1, 0): 1, (0, 1): 2}, 2), 7),
    ]
    for (f, lift), top in cases:
        cc = crosscheck_mod_p(f, lift, top_level=top, den_bound=10, num_bound=10)
        assert cc.ok, cc.mismatches
        negatives = {e.alpha.frac for e in cc.report.roots if e.alpha.frac < 0}
        assert negatives == {e.alpha.frac for e in cc.report_mod_p.roots}


def test_strength_vs_bsato_rows():
    ctx = ChainRingCtx(3, 0)
    x = Poly.variable(ctx, 1, 0)
    lift = FrobeniusLift.standard(ctx, 1)

    def b(s):
        return (s + 1) * (s + Fraction(1, 2))

    points = [Fraction(-1), Fraction(-1, 2), Fraction(-2), Fraction(1, 2)]
    rows = strength_vs_bsato(x * x, lift, [(a, b(a)) for a in points], m_range=(0, 1, 2))
    assert len(rows) == 12
    assert all(r.satisfies_bound for r in rows)
    assert all(r.nondecreasing_in_m for r in rows)
    table = {(r.m, r.alpha.frac): (r.strength, r.b_valuation) for r in rows}
    for m in (0, 1, 2):
        assert table[(m, Fraction(-1))] == (m + 1, float("inf"))
        assert table[(m, Fraction(-1, 2))] == (m + 1, float("inf"))
        assert table[(m, Fraction(-2))] == (0, 1)
        assert table[(m, Fraction(1, 2))] == (0, 1)
