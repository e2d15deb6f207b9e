"""Root detection, strengths, and cross-check reports.

The running example is f = X^2 + 3Y over Z/9 with the standard lift; its
level sets, survivors, roots, and strengths below were derived by hand from
the descent chains before the pipeline existed. Monomial cases are checked
against the independent floor-arithmetic oracle.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from bsroots import (
    ChainRingCtx,
    FrobeniusLift,
    Poly,
    bfunction_report,
    candidate_residues,
    detect_roots,
    nu_set,
    strength,
)
from bsroots import nu
from bsroots.bsr import _default_top_level, crosscheck_mod_p, strength_vs_bsato
from bsroots.padic import PAdicRational

from _oracles import (
    descent_lifts,
    monomial_root_set,
    random_unit_poly,
    residue_tree_reference,
    roots_reference,
)


def _setup(p, m, terms, nvars):
    ctx = ChainRingCtx(p, m)
    f = Poly(ctx, nvars, terms)
    return f, FrobeniusLift.standard(ctx, nvars)


@pytest.fixture(scope="module")
def running_example_report():
    f, lift = _setup(3, 1, {(2, 0): 1, (0, 1): 3}, 2)
    return f, lift, bfunction_report(f, lift, top_level=4, den_bound=10, num_bound=10)


def test_running_example_level_sets(running_example_report):
    f, lift, rep = running_example_report
    tree = rep.tree
    assert tree.survivors[0] == (0, 1, 2)
    frozen = {
        1: (1, 2, 4, 5, 7, 8),
        2: (4, 5, 8, 13, 14, 17, 22, 23, 26),
        3: (13, 14, 26, 40, 41, 53, 67, 68, 80),
    }
    for e, members in frozen.items():
        assert tree.survivors[e] == members
        assert nu_set(f, lift, e).members == members
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
    assert bent.image(0).exponent_terms() == {(2, 0): 1, (1, 1): 2, (0, 2): 2}
    assert candidate_residues(x, std, 1).survivors[1] == (1, 3)
    assert nu_set(x, std, 1).members == (1, 3)
    assert candidate_residues(x, bent, 1).survivors[1] == (1, 2, 3)
    assert nu_set(x, bent, 1).members == (1, 2, 3)
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


def test_strength_refuses_alpha_over_another_prime():
    f, lift = _setup(3, 1, {(1,): 1}, 1)
    # -1 over p=2 would truncate to other residues; 1/3 is a 5-adic integer
    for alpha in (PAdicRational(2, -1), PAdicRational(5, -1, 3)):
        with pytest.raises(ValueError, match="-adic but the ring has p=3"):
            strength(f, lift, alpha)


def test_binomial_strength_over_z4():
    f, lift = _setup(2, 1, {(1, 0): 1, (0, 1): 2}, 2)
    rep = bfunction_report(f, lift, top_level=7, den_bound=10, num_bound=10)
    assert [(str(e.alpha.frac), e.strength, e.stabilized) for e in rep.roots] == [
        ("-1", 2, True)
    ]
    assert rep.tree.survivors[2] == (3, 7)
    assert nu_set(f, lift, 2).members == (3, 7)


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


def _assert_matches_full_walk(f, lift, top, den_bound, num_bound):
    rep = detect_roots(f, lift, top, den_bound, num_bound)
    _, survivors = residue_tree_reference(f, lift, top)
    assert rep.tree.survivors == survivors, (f.terms, lift.corrections)
    roots, unresolved = roots_reference(f, lift, top, den_bound, num_bound)
    assert [(e.alpha.frac, e.residue) for e in rep.roots] == roots
    assert rep.unresolved == unresolved


# Z/2, Z/4, Z/8, Z/3, Z/9, Z/5 and Z/25, each at the least top level that
# reconstructs fractions within bounds 3/3 (Z/25 one higher, so that one
# level is pruned)
TREE_RINGS = [(2, 0, 5), (2, 1, 4), (2, 2, 3), (3, 0, 3), (3, 1, 2), (5, 0, 2), (5, 1, 2)]


@pytest.mark.parametrize("p,m,top", TREE_RINGS, ids=[f"{p}-{m}" for p, m, _ in TREE_RINGS])
def test_pruned_tree_matches_full_walk(p, m, top):
    # four 1-variable cases under the standard lift, then one 2-variable case
    # per lift: the standard lift and every lift-descent correction
    rng = random.Random(800 + 10 * p + m)
    ctx = ChainRingCtx(p, m)
    cases = [
        (random_unit_poly(rng, ctx, 1, 3, 3), FrobeniusLift.standard(ctx, 1))
        for _ in range(4)
    ]
    cases += [(random_unit_poly(rng, ctx, 2, 3, 3), lift) for lift in descent_lifts(ctx)]
    for f, lift in cases:
        _assert_matches_full_walk(f, lift, top, 3, 3)


def test_pruned_tree_matches_full_walk_on_acceptance_examples():
    ctx = ChainRingCtx(2, 1)
    x, y = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
    std = FrobeniusLift.standard(ctx, 2)
    bent = FrobeniusLift(ctx, 2, [x * y + y * y, None])
    cases = [
        (_setup(3, 1, {(2, 0): 1, (0, 1): 3}, 2), 4),
        (_setup(2, 1, {(1,): 1}, 1), 7),
        (_setup(2, 1, {(1, 0): 1, (0, 1): 2}, 2), 7),
        ((x, std), 7),
        ((x + y, std), 7),
        ((x, bent), 7),
    ]
    for (f, lift), top in cases:
        _assert_matches_full_walk(f, lift, top, 10, 10)


class _SyntheticPower:
    """Stands for the basis elements of I_level(x^n) under synthetic jumps.

    It carries n: multiplying by the shift x^(p^m*k) moves it to
    n + k*p^(level+m), as the shift identity moves the real descent. Two of
    one level are equal exactly when as many chosen jumps lie below their
    exponents, so n is a level-e invariant exactly when jumps[e] holds it.
    """

    def __init__(self, n, level, jumps, p, m):
        self.n, self.level, self.jumps, self.p, self.m = n, level, jumps, p, m

    def __mul__(self, shift):
        k, rest = divmod(shift.degree(), self.p**self.m)
        assert rest == 0 and 0 < k <= self.p, shift
        n = self.n + k * self.p ** (self.level + self.m)
        return _SyntheticPower(n, self.level, self.jumps, self.p, self.m)

    def __eq__(self, other):
        assert self.level == other.level
        below = self.jumps[self.level]
        return sum(j < self.n for j in below) == sum(j < other.n for j in below)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1)])
def test_pruned_tree_matches_full_walk_on_synthetic_jumps(monkeypatch, p, m):
    # The completion seam is replaced by a synthetic basis that carries the
    # exponent n of the power it stands for, and n is a level-e invariant
    # exactly when level e's jump set holds it. The sets mix refinements of
    # survivors with exponents off the tree, which no real level set has
    # shown; the pruned tree must still match the full walk, so it must test
    # the right exponents and reuse a basis only for the exponent it belongs
    # to.
    rng = random.Random(900 + 10 * p + m)
    ctx = ChainRingCtx(p, m)
    x = Poly.variable(ctx, 1, 0)
    lift = FrobeniusLift.standard(ctx, 1)
    top = 4
    for _ in range(5):
        jumps = {}
        survivors = set(range(p**m))
        expected = [tuple(range(p**m))]
        for e in range(1, top + 1):
            step = p ** (e - 1 + m)
            refining = [s + k * step for s in sorted(survivors) for k in range(p)]
            jumps[e] = set(rng.sample(refining, min(2, len(refining))))
            jumps[e] |= set(rng.sample(range(p ** (e + m)), 2))
            survivors = {n for n in jumps[e] if n % step in survivors}
            expected.append(tuple(sorted(survivors)))

        def synthetic_basis(gens, lift, e):
            # level 0 hands over the real power x^n, higher levels a stand-in
            assert e == 1
            (g,) = gens
            if isinstance(g, Poly):
                n, level = g.degree(), 0
            else:
                n, level = g.n, g.level
            power = _SyntheticPower(n, level + 1, jumps, p, m)
            return SimpleNamespace(elements=(power,))

        monkeypatch.setattr(nu, "descent_basis", synthetic_basis)
        assert candidate_residues(x, lift, top).survivors == tuple(expected), jumps
