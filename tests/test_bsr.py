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
    detect_roots,
    nu_levels,
    nu_set,
    strength,
)
from bsroots import bsr, nu
from bsroots.bsr import _default_top_level, crosscheck_mod_p
from bsroots.errors import InvariantError
from bsroots.padic import PAdicRational

from _oracles import (
    descent_lifts,
    descent_walk,
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
    levels = rep.levels
    assert [(s.e, s.window) for s in levels] == [(1, 9), (2, 27), (3, 81), (4, 243)]
    frozen = {
        1: (1, 2, 4, 5, 7, 8),
        2: (4, 5, 8, 13, 14, 17, 22, 23, 26),
        3: (13, 14, 26, 40, 41, 53, 67, 68, 80),
    }
    for e, members in frozen.items():
        assert levels[e - 1].members == members
        assert nu_set(f, lift, e).members == members
    assert levels[3].members == (40, 41, 80, 121, 122, 161, 202, 203, 242)


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
    assert rep.levels[6].members == (127, 255)
    # an ungraded entry carries no strength
    assert repr(rep.roots[0]) == (
        "RootEntry(alpha=PAdicRational(2, -1), residue=255, strength=None, "
        "stabilized=None)"
    )


def test_survivor_shape_for_single_variable():
    # m=0: exactly one survivor per level, the all-(p-1) residue
    for p in (2, 3):
        f, lift = _setup(p, 0, {(1,): 1}, 1)
        levels = nu_levels(f, lift, 5)
        for e in range(1, 6):
            assert levels[e - 1].members == (p**e - 1,)
    # m=1: survival only pins the low e digits, leaving p^m branches
    f, lift = _setup(2, 1, {(1,): 1}, 1)
    levels = nu_levels(f, lift, 4)
    for e in range(1, 5):
        expected = tuple(r for r in range(2 ** (e + 1)) if (r + 1) % 2**e == 0)
        assert levels[e - 1].members == expected


def test_lift_changes_levels_but_not_roots():
    ctx = ChainRingCtx(2, 1)
    x = Poly.variable(ctx, 2, 0)
    y = Poly.variable(ctx, 2, 1)
    std = FrobeniusLift.standard(ctx, 2)
    bent = FrobeniusLift(ctx, 2, [x * y + y * y, None])
    assert bent.image(0).exponent_terms() == {(2, 0): 1, (1, 1): 2, (0, 2): 2}
    r_std = detect_roots(x, std, top_level=7, den_bound=10, num_bound=10)
    r_bent = detect_roots(x, bent, top_level=7, den_bound=10, num_bound=10)
    assert r_std.levels[0].members == (1, 3)
    assert nu_set(x, std, 1).members == (1, 3)
    assert r_bent.levels[0].members == (1, 2, 3)
    assert nu_set(x, bent, 1).members == (1, 2, 3)
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
    with pytest.raises(ValueError, match="level must be >= 1"):
        nu_levels(f, lift, 0)


def test_reconstruction_bound_refuses_exactly_the_ambiguous_levels():
    """The refusal skips forming p^(top+m) past the bound's bit length; it
    must still refuse exactly when p^(top+m) <= 2 * den * num."""
    for p, m in ((2, 0), (2, 1), (3, 0), (5, 1)):
        ctx = ChainRingCtx(p, m)
        for den, num in ((1, 1), (3, 3), (10, 10), (50, 100), (1, 64)):
            for top in range(1, 16):
                ambiguous = p ** (top + m) <= 2 * den * num
                try:
                    bsr.require_reconstruction_bound(ctx, top, den, num)
                except ValueError:
                    assert ambiguous, (p, m, den, num, top)
                else:
                    assert not ambiguous, (p, m, den, num, top)


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
    assert rep.levels[1].members == (3, 7)
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
        assert not bsr.CrosscheckResult(cc.report, cc.report_mod_p, ("engineered",)).ok
        negatives = {e.alpha.frac for e in cc.report.roots if e.alpha.frac < 0}
        assert negatives == {e.alpha.frac for e in cc.report_mod_p.roots}


def test_strength_of_x_squared_against_classical_b():
    """b(s) = (s + 1)(s + 1/2) vanishes at -1 and -1/2, where the strength of
    x^2 over Z/3^(m+1) is m + 1; val_3 b = 1 at -2 and 1/2, where it is 0."""
    points = [Fraction(-1), Fraction(-1, 2), Fraction(-2), Fraction(1, 2)]
    b = {a: (a + 1) * (a + Fraction(1, 2)) for a in points}
    assert list(b.values()) == [0, 0, Fraction(3, 2), Fraction(3, 2)]
    for m in (0, 1, 2):
        f, lift = _setup(3, m, {(2,): 1}, 1)
        got = [strength(f, lift, a).value for a in points]
        assert got == [m + 1, m + 1, 0, 0], m


# the README example at level 4 and f = x + 2y over Z/4 at level 7
REPORT_CASES = {
    "readme": (_setup(3, 1, {(2, 0): 1, (0, 1): 3}, 2), 4),
    "x+2y": (_setup(2, 1, {(1, 0): 1, (0, 1): 2}, 2), 7),
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_strengths_match_standalone_strength(case):
    """Strengths on the level walk's context equal strengths on a fresh one."""
    (f, lift), top = REPORT_CASES[case]
    rep = bfunction_report(f, lift, top, 10, 10)
    e_stop = min(bsr.STRENGTH_LEVELS, rep.verified_to_level)
    shared = nu.DescentContext(f, lift)
    detect_roots(f, lift, top, 10, 10, shared)
    assert rep.roots
    for entry in rep.roots:
        alone = strength(f, lift, entry.alpha, e_stop)
        assert (entry.strength, entry.stabilized) == (alone.value, alone.stabilized)
        assert strength(f, lift, entry.alpha, e_stop, shared) == alone


def test_report_grades_entries_without_changing_the_ungraded_report(monkeypatch):
    (f, lift), top = REPORT_CASES["readme"]
    ungraded = []
    detect = bsr.detect_roots

    def kept(*args):
        ungraded.append(detect(*args))
        return ungraded[-1]

    monkeypatch.setattr(bsr, "detect_roots", kept)
    rep = bfunction_report(f, lift, top, 10, 10)
    [before] = ungraded
    graded = [(e.strength, e.stabilized) for e in rep.roots]
    assert graded == [(2, True), (1, True), (1, True)]
    assert [(e.strength, e.stabilized) for e in before.roots] == [(None, None)] * 3
    assert [(e.alpha, e.residue) for e in rep.roots] == [
        (e.alpha, e.residue) for e in before.roots
    ]
    assert rep == bsr.RootReport(
        before.p, before.m, before.verified_to_level, before.den_bound,
        before.num_bound, rep.roots, before.unresolved, before.levels,
    )


def test_records_are_read_only():
    """Writing to a field of a result record raises ``AttributeError``."""
    (f, lift), top = REPORT_CASES["x+2y"]
    cc = crosscheck_mod_p(f, lift, top, 3, 3)
    rep = cc.report
    records = {
        "report": (rep, "roots"),
        "entry": (rep.roots[0], "strength"),
        "level set": (rep.levels[0], "members"),
        "strength": (strength(f, lift, rep.roots[0].alpha), "value"),
        "crosscheck": (cc, "mismatches"),
    }
    for name, (record, field) in records.items():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is not None, name


def test_report_strengths_complete_only_what_the_tree_did_not(monkeypatch):
    """On the README example the level walk completes 29 steps, and its
    three strengths add the 2 it did not take; on fresh contexts they
    complete 12."""
    (f, lift), top = REPORT_CASES["readme"]
    completed = 0
    complete = nu.descent_step

    def counted(*args):
        nonlocal completed
        completed += 1
        return complete(*args)

    monkeypatch.setattr(nu, "descent_step", counted)
    detect_roots(f, lift, top, 10, 10)
    assert completed == 29
    completed = 0
    rep = bfunction_report(f, lift, top, 10, 10)
    assert completed == 31
    completed = 0
    for entry in rep.roots:
        strength(f, lift, entry.alpha, 4)
    assert completed == 12


def test_context_refused_for_another_pair():
    (f, lift), top = REPORT_CASES["x+2y"]
    descent = nu.DescentContext(f, lift)
    g = f + Poly.variable(f.ctx, 2, 1)
    bent = FrobeniusLift(f.ctx, 2, [Poly.variable(f.ctx, 2, 1), None])
    for h, lift_h in ((g, lift), (f, bent)):
        with pytest.raises(ValueError, match="made for another f or lift"):
            strength(h, lift_h, Fraction(-1), 4, descent)
        with pytest.raises(ValueError, match="made for another f or lift"):
            nu_levels(h, lift_h, top, descent)
        with pytest.raises(ValueError, match="made for another f or lift"):
            bfunction_report(h, lift_h, top, 10, 10, descent)


# x + 2y over Z/4 at level 7, and x + y + xy over Z/2 at level 5, where
# f mod p is f itself under the same lift
CROSSCHECK_CASES = {
    "m=1": REPORT_CASES["x+2y"],
    "m=0": (_setup(2, 0, {(1, 0): 1, (0, 1): 1, (1, 1): 1}, 2), 5),
}


@pytest.mark.parametrize("case", list(CROSSCHECK_CASES))
def test_crosscheck_gives_its_mod_p_run_a_context_of_its_own(case, monkeypatch):
    """At m = 1 the cross-check completes what its two reports complete each
    on a fresh context: the mod-p run takes no step of the run over V. At
    m = 0, where f mod p is f under the same lift, the mod-p report is the
    report over V and completes no new step."""
    (f, lift), top = CROSSCHECK_CASES[case]
    completed = 0
    complete = nu.descent_step

    def counted(*args):
        nonlocal completed
        completed += 1
        return complete(*args)

    monkeypatch.setattr(nu, "descent_step", counted)
    cc = crosscheck_mod_p(f, lift, top, 3, 3)
    in_cc, completed = completed, 0
    assert cc.ok and cc.report == bfunction_report(f, lift, top, 3, 3)
    in_v, completed = completed, 0
    ctx0 = ChainRingCtx(f.ctx.p, 0)
    f0, lift0 = f.with_ctx(ctx0), FrobeniusLift.standard(ctx0, f.nvars)
    level0 = cc.report.verified_to_level + f.ctx.m
    assert cc.report_mod_p == bfunction_report(f0, lift0, level0, 3, 3)
    if case == "m=0":
        assert in_v > 0 and completed > 0 and in_cc == in_v
    else:
        assert in_v > 0 and completed > 0 and in_cc == in_v + completed


@pytest.mark.parametrize("case", list(CROSSCHECK_CASES))
def test_crosscheck_walks_the_levels_once_at_m0(case, monkeypatch):
    """The cross-check walks the level sets once at m = 0 under the standard
    lift, where the mod-p report is the report over V, and twice at m = 1."""
    (f, lift), top = CROSSCHECK_CASES[case]
    walks = 0
    walk = bsr.nu_levels

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    monkeypatch.setattr(bsr, "nu_levels", counted)
    cc = crosscheck_mod_p(f, lift, top, 3, 3)
    assert cc.ok
    assert walks == (1 if case == "m=0" else 2)


def _assert_matches_full_walk(f, lift, top, den_bound, num_bound):
    rep = detect_roots(f, lift, top, den_bound, num_bound)
    level_sets, survivors = residue_tree_reference(f, lift, top)
    assert level_sets == survivors, (f.terms, lift.corrections)
    members = tuple(s.members for s in rep.levels)
    assert members == survivors[1:], (f.terms, lift.corrections)
    roots, unresolved = roots_reference(f, lift, top, den_bound, num_bound)
    assert [(e.alpha.frac, e.residue) for e in rep.roots] == roots
    assert rep.unresolved == unresolved


# Z/2, Z/4, Z/8, Z/3, Z/9, Z/5 and Z/25, each at the least top level that
# reconstructs fractions within bounds 3/3 (Z/25 one higher, so that one
# level nests in another)
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


class _SyntheticBasis:
    """Stands for the basis elements of a level-e descent under synthetic jumps.

    It carries (rank, k): multiplying by the shift f^(p^m*k), with f = x^d,
    records k, as the shift identity multiplies the real basis. The rank
    places the stand-in in the chain of descent ideals, which shrink as the
    rank grows. Two stand-ins are equal exactly when these agree, and the
    stubbed descent is a function of them, so equal stand-ins have equal
    descents, as equal real bases do. A stand-in never equals a real basis
    element, and it hashes on the same key it compares, so it can key a
    cache of steps.
    """

    def __init__(self, key, unit):
        self.key, self.unit = key, unit

    def __mul__(self, shift):
        k, rest = divmod(shift.degree(), self.unit)
        assert rest == 0 and self.key[1] == 0 and k > 0, shift
        return _SyntheticBasis((self.key[0], k), self.unit)

    def __eq__(self, other):
        return isinstance(other, _SyntheticBasis) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1)])
def test_pruned_tree_matches_full_walk_on_synthetic_jumps(monkeypatch, p, m):
    # The completion seam is replaced by a synthetic descent that keeps what
    # the run walk relies on. A basis has one of four ranks, and the ideals
    # shrink as the rank grows: the unit ideal (1) (rank 0), two stand-ins
    # (ranks 1 and 2) and a stand-in for the wrap basis (f^(p^m)) (rank 3),
    # which also replaces the wrap the run walk takes in closed form. Level 0
    # hands over the real power x^(d*n). A real power x^(d*j) met later, the
    # unit basis times a shift included, takes the seeded rank ranks[j]:
    # nondecreasing in j, 0 at j = 0 (I_1((1)) = (1)), below 3 up to
    # p^(m+1) - 1, and 3 at p^(m+1), so the per-n walk's wrap step (a shift
    # by f^(p^(m+1))) gives the wrap basis. A stand-in of rank r shifted by
    # k takes a seeded rank between those of the unit basis under the shifts
    # k and k+1, nondecreasing in r. So the rank is nondecreasing in
    # (k, rank below) taken in lexicographic order: along the n of a level a
    # basis once left never comes back, the chain property behind the
    # sandwich rule. The wrap stand-in does not know it is f^(p^m), so the
    # stub need not descend it times f^(p^m*k) to the unit basis times
    # f^(p^m*(k+1)), as real descents do and the walk never assumes. So a
    # jump need not force one at its truncation one level down, and the
    # last n of a window is a jump at some levels and not at others. The run
    # walk must match the per-n walk through the same stub. Where the per-n
    # level sets nest by truncation, nu_levels must give them; where they do
    # not, its nesting check must refuse them.
    # x^4 in three variables only raises the cardinality bound of nu_levels
    # above the synthetic level sets.
    d, nvars, top = 4, 3, 4
    ctx = ChainRingCtx(p, m)
    f = Poly.variable(ctx, nvars, 0) ** d
    lift = FrobeniusLift.standard(ctx, nvars)
    unit = d * p**m
    by_rank = [(f**0,)] + [(_SyntheticBasis((r, 0), unit),) for r in (1, 2, 3)]
    wrap = by_rank[3]
    monkeypatch.setattr(nu.DescentContext, "wrap", wrap)
    nested = unnested = last_jumps = last_flat = 0
    for case in range(5):
        seed = f"{900 + 10 * p + m}:{case}"
        draws = random.Random(seed)
        ranks = [0] + sorted(draws.randrange(3) for _ in range(p ** (m + 1) - 1)) + [3]

        def synthetic_basis(gens, lift, e):
            assert e == 1
            (g,) = gens
            if isinstance(g, Poly):
                return SimpleNamespace(elements=by_rank[ranks[g.degree() // d]])
            rank, k = g.key
            low, high = ranks[k * p**m], ranks[(k + 1) * p**m]
            draws = random.Random(f"{seed}:{k}")
            ranked = sorted(draws.randint(low, high) for _ in range(2))
            ranked.append(draws.randint(ranked[1], high))
            return SimpleNamespace(elements=by_rank[ranked[rank - 1]])

        monkeypatch.setattr(nu, "descent_basis", synthetic_basis)
        bases = {}
        for e, n, elems in descent_walk(f, lift, top):
            bases.setdefault(e, []).append(elems)
        level_sets = [tuple(range(p**m))]
        for e in range(1, top + 1):
            b = bases[e]
            assert b[-1] == wrap, seed
            level_sets.append(tuple(n for n in range(len(b) - 1) if b[n] != b[n + 1]))
            if len(b) - 2 in level_sets[e]:
                last_jumps += 1
            else:
                last_flat += 1
        by_level = nu.descent_runs(f, lift, top)
        walked = [tuple(n - 1 for n, _ in runs[1:]) for _, runs in by_level]
        assert walked == level_sets[1:], seed
        if all(
            n % p ** (e - 1 + m) in level_sets[e - 1]
            for e in range(1, top + 1)
            for n in level_sets[e]
        ):
            nested += 1
            assert [s.members for s in nu.nu_levels(f, lift, top)] == level_sets[1:], seed
        else:
            unnested += 1
            with pytest.raises(InvariantError) as caught:
                nu.nu_levels(f, lift, top)
            assert str(caught.value) == "level set not nested in the level below", seed
    assert nested and unnested and last_jumps and last_flat
