"""Root detection, strengths, and cross-checks.

A candidate root is a p-adically integral rational alpha all of whose
truncations land in the level sets: truncate_below(alpha, e+m) must be a
level-e invariant for every e. The residue tree materializes this test up
to a chosen level E without walking whole level windows: level 0 is the
full window [0, p^m), and at level e only the p refinements
s + k*p^(e-1+m) of each level-(e-1) survivor s are jump-tested; those that
are level-e invariants survive. Surviving residues at level E are then
lifted back to bounded fractions; when p^(E+m) exceeds twice the bound box,
at most one fraction fits per residue, so survivors either resolve to a
unique root or are reported unresolved, never guessed.

The strength of a root grades how strongly the jump certifying each
truncation holds: the least power of p that pushes the coordinates of f^a
into the descent image of (f^(a+1)), maximized over coordinates. Strengths
are nonincreasing in the level and are reported at their stable value when
two consecutive levels agree (or the value hits 0, which is final).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .chainring import ChainRingCtx
from .errors import InvariantError
from .groebner import min_p_power_in
from .nu import descent_step, require_nonzerodivisor, shift_powers
from .padic import PAdicRational, fraction_val, reconstruct
from .poly import FrobeniusLift, Poly


@dataclass(frozen=True)
class ResidueTree:
    p: int
    m: int
    top_level: int
    survivors: tuple  # per level 0..top_level, residues whose whole chain held


@dataclass(frozen=True)
class RootEntry:
    alpha: PAdicRational
    residue: int
    strength: int = None
    stabilized: bool = None


@dataclass(frozen=True)
class RootReport:
    p: int
    m: int
    verified_to_level: int
    den_bound: int
    num_bound: int
    roots: tuple
    unresolved: tuple
    tree: ResidueTree


@dataclass(frozen=True)
class StrengthResult:
    alpha: PAdicRational
    value: int
    stabilized: bool
    per_level: tuple  # (e, value) pairs actually computed


@dataclass(frozen=True)
class CrosscheckResult:
    report: RootReport
    report_mod_p: RootReport
    mismatches: tuple

    @property
    def ok(self):
        return not self.mismatches


def _default_top_level(p: int, m: int, den_bound: int, num_bound: int) -> int:
    need = 2 * den_bound * num_bound
    k = 0
    power = 1
    while power <= need:
        power *= p
        k += 1
    return max(3, k + 1 - m)


def candidate_residues(f: Poly, lift: FrobeniusLift, top_level: int) -> ResidueTree:
    """Surviving residues at levels 0..top_level, by the pruned walk.

    Level 0 is the whole window [0, p^m). At level e only the refinements
    n = s + k*p^(e-1+m), k < p, of the level-(e-1) survivors s are
    jump-tested, in ascending order, and n survives when it is a level-e
    invariant. Each survivor carries the basis elements of its descents
    one level down at f^s and f^(s+1), and the level-e bases of f^n and
    f^(n+1) are their level-1 descents after multiplying by f^(p^m*k)
    (``nu.descent_step``); the basis of f^(n+1) is reused when n+1 is the
    next candidate.
    """
    require_nonzerodivisor(f)
    if top_level < 1:
        raise ValueError("top level must be >= 1")
    ctx = f.ctx
    p, m = ctx.p, ctx.m
    card_bound = (m + 1) * math.comb(int(f.degree()) * p**m + f.nvars, f.nvars)
    powers, shifts = shift_powers(f)
    # survivor s -> level-(e-1) basis elements at f^s and f^(s+1)
    below = {s: ((powers[s],), (powers[s + 1],)) for s in range(p**m)}
    survivors = [tuple(below)]
    for e in range(1, top_level + 1):
        step = p ** (e - 1 + m)
        kept = {}
        next_n = next_elems = None
        for k in range(p):
            shift = shifts[k]
            for s, (at_s, at_s1) in below.items():
                n = s + k * step
                if n == next_n:
                    elems = next_elems
                else:
                    elems = descent_step(at_s, shift, lift).elements
                next_n = n + 1
                next_elems = descent_step(at_s1, shift, lift).elements
                if elems != next_elems:  # the top level's bases are never read
                    kept[n] = (elems, next_elems) if e < top_level else None
        if len(kept) > card_bound:
            raise InvariantError("level set exceeded cardinality bound")
        survivors.append(tuple(kept))
        below = kept
    return ResidueTree(p=p, m=m, top_level=top_level, survivors=tuple(survivors))


def require_reconstruction_bound(
    ctx: ChainRingCtx, top_level: int, den_bound: int, num_bound: int
):
    """Refuse a top level at which bounded reconstruction could be ambiguous.

    Bounded fractions are unique modulo p^(top_level+m) only when it exceeds
    2 * num_bound * den_bound; the default top level always does.
    """
    if ctx.p ** (top_level + ctx.m) <= 2 * den_bound * num_bound:
        raise ValueError(
            "p^(top_level+m) must exceed 2 * num_bound * den_bound "
            "for unambiguous reconstruction"
        )


def detect_roots(
    f: Poly,
    lift: FrobeniusLift,
    top_level: int = None,
    den_bound: int = 50,
    num_bound: int = 100,
) -> RootReport:
    """Identify bounded rational roots from the residue tree at ``top_level``.

    Every returned root has its full truncation chain inside the level sets.
    Surviving residues that match no bounded fraction are reported in
    ``unresolved``; they are never promoted or silently dropped.
    """
    ctx = f.ctx
    p, m = ctx.p, ctx.m
    if den_bound < 1 or num_bound < 1:
        raise ValueError("bounds must be positive")
    if top_level is None:
        top_level = _default_top_level(p, m, den_bound, num_bound)
    require_reconstruction_bound(ctx, top_level, den_bound, num_bound)
    modulus = p ** (top_level + m)
    tree = candidate_residues(f, lift, top_level)
    survivor_sets = [set(level) for level in tree.survivors]
    roots = []
    unresolved = []
    for r in tree.survivors[top_level]:
        verified = [
            alpha
            for alpha in reconstruct(r, modulus, den_bound, num_bound)
            if all(
                alpha.truncate_below(e + m) in survivor_sets[e]
                for e in range(top_level + 1)
            )
        ]
        if len(verified) > 1:
            raise InvariantError("reconstruction bound violated")
        if verified:
            roots.append(RootEntry(alpha=verified[0], residue=r))
        else:
            unresolved.append(r)
    roots.sort(key=lambda entry: entry.alpha.frac)
    for entry in roots:
        shift = -(math.floor(entry.alpha.frac) + 1)
        if not Fraction(-1) <= entry.alpha.frac + shift < 0:
            raise InvariantError("no integral translate")
    if lift.is_standard and set(f.terms.values()) == {1} and len(f.terms) == 1:
        if not all(entry.alpha < 0 for entry in roots):
            raise InvariantError("positive root of a monomial")
    return RootReport(
        p=p,
        m=m,
        verified_to_level=top_level,
        den_bound=den_bound,
        num_bound=num_bound,
        roots=tuple(roots),
        unresolved=tuple(sorted(unresolved)),
        tree=tree,
    )


def strength(f: Poly, lift: FrobeniusLift, alpha, e_stop: int = 4) -> StrengthResult:
    """Largest p-power gap left by the descent of f^a, a the truncation.

    At each level e, a = truncate_below(alpha, e+m) and the value is the
    least t with p^t * I_e(f^a) inside I_e(f^(a+1)): the maximum over the
    basis elements g of I_e(f^a) of the least t with p^t * g inside. The
    ideal (I_e(f^(a+1)) : p^t) does not depend on a generating set, so this
    is also the maximum over the coordinates of f^a. The walk runs from
    level 1 to ``e_stop`` along a_e = a_(e-1) + k_e * p^(e-1+m), building
    both bases from the level below (``nu.descent_step``). The level
    sequence is nonincreasing; the walk stops early once two consecutive
    levels agree or the value 0 is reached, both of which are final. A
    ``PAdicRational`` over a prime other than the ring's is refused.
    """
    require_nonzerodivisor(f)
    if not isinstance(alpha, PAdicRational):
        alpha = PAdicRational(f.ctx.p, alpha)
    elif alpha.p != f.ctx.p:
        raise ValueError(f"alpha is {alpha.p}-adic but the ring has p={f.ctx.p}")
    if e_stop < 1:
        raise ValueError("need e_stop >= 1")
    p, m = f.ctx.p, f.ctx.m
    powers, shifts = shift_powers(f)
    a = alpha.truncate_below(m)
    at_a, at_a1 = (powers[a],), (powers[a + 1],)
    computed = []
    stabilized = False
    for e in range(1, e_stop + 1):
        a_e = alpha.truncate_below(e + m)
        shift = shifts[(a_e - a) // p ** (e - 1 + m)]
        a = a_e
        at_a = descent_step(at_a, shift, lift).elements
        gb = descent_step(at_a1, shift, lift)
        at_a1 = gb.elements
        value = max(min_p_power_in(gb, g) for g in at_a)
        if computed and value > computed[-1][1]:
            raise InvariantError("strength increased with the level")
        computed.append((e, value))
        if value == 0 or (len(computed) >= 2 and computed[-2][1] == value):
            stabilized = True
            break
    return StrengthResult(
        alpha=alpha,
        value=computed[-1][1],
        stabilized=stabilized,
        per_level=tuple(computed),
    )


def bfunction_report(
    f: Poly,
    lift: FrobeniusLift,
    top_level: int = None,
    den_bound: int = 50,
    num_bound: int = 100,
) -> RootReport:
    """Root report with strengths attached: the structured b-function data.

    Each strength walks levels 1..min(4, verified_to_level).
    """
    report = detect_roots(f, lift, top_level, den_bound, num_bound)
    e_stop = min(4, report.verified_to_level)
    graded = []
    for entry in report.roots:
        res = strength(f, lift, entry.alpha, e_stop)
        if res.value < 1:
            raise InvariantError("verified root with vanishing strength")
        graded.append(
            replace(entry, strength=res.value, stabilized=res.stabilized)
        )
    return replace(report, roots=tuple(graded))


def crosscheck_mod_p(
    f: Poly,
    lift: FrobeniusLift,
    top_level: int = None,
    den_bound: int = 50,
    num_bound: int = 100,
) -> CrosscheckResult:
    """Compare roots over V with roots of f mod p over Z/p.

    Checks: the negative roots agree exactly with the mod-p roots, every
    positive root is an integer translate of a negative one, and the two
    root sets agree modulo Z. Failures come back as structured mismatch
    strings, not exceptions.
    """
    report = bfunction_report(f, lift, top_level, den_bound, num_bound)
    ctx0 = ChainRingCtx(f.ctx.p, 0)
    f0 = f.with_ctx(ctx0)
    lift0 = FrobeniusLift.standard(ctx0, f.nvars)
    report0 = bfunction_report(
        f0, lift0, report.verified_to_level + f.ctx.m, den_bound, num_bound
    )
    mismatches = []
    ours = {entry.alpha.frac for entry in report.roots}
    negatives = {a for a in ours if a < 0}
    mod_p = {entry.alpha.frac for entry in report0.roots}
    if negatives != mod_p:
        mismatches.append(
            f"negative roots {sorted(negatives)} != mod-p roots {sorted(mod_p)}"
        )
    for a in sorted(ours - negatives):
        if not any((a - b).denominator == 1 for b in negatives):
            mismatches.append(f"positive root {a} is not an integer translate")
    if {a - math.floor(a) for a in ours} != {a - math.floor(a) for a in mod_p}:
        mismatches.append("root sets differ modulo Z")
    return CrosscheckResult(
        report=report, report_mod_p=report0, mismatches=tuple(mismatches)
    )


@dataclass(frozen=True)
class StrengthVsBRow:
    m: int
    alpha: PAdicRational
    strength: int
    stabilized: bool
    b_valuation: float
    satisfies_bound: bool
    nondecreasing_in_m: bool


def strength_vs_bsato(
    f: Poly,
    lift: FrobeniusLift,
    b_values,
    m_range,
    e_stop: int = 4,
):
    """Compare strengths against the p-adic size of classical root data.

    ``b_values`` pairs each alpha with the value of a classical polynomial
    invariant at alpha; the comparison is val_p(value) >= strength, with
    val_p(0) = +inf. ``f`` acts as an integer template re-read over each
    Z/p^(m+1); rows also track that strengths never decrease as m grows.
    """
    p = f.ctx.p
    rows = []
    previous = {}
    for m in sorted(m_range):
        ctx_m = ChainRingCtx(p, m)
        f_m = f.with_ctx(ctx_m)
        lift_m = FrobeniusLift(
            ctx_m,
            f.nvars,
            [None if h is None else h.with_ctx(ctx_m) for h in lift.corrections],
        )
        for alpha_in, b_value in b_values:
            alpha = PAdicRational(p, alpha_in)
            res = strength(f_m, lift_m, alpha, e_stop)
            b_val = fraction_val(p, b_value)
            prev = previous.get(alpha.frac)
            rows.append(
                StrengthVsBRow(
                    m=m,
                    alpha=alpha,
                    strength=res.value,
                    stabilized=res.stabilized,
                    b_valuation=b_val,
                    satisfies_bound=b_val >= res.value,
                    nondecreasing_in_m=prev is None or res.value >= prev,
                )
            )
            previous[alpha.frac] = res.value
    return rows
