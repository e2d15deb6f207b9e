"""Root detection, strengths, and cross-checks.

A candidate root is a p-adically integral rational alpha all of whose
truncations land in the level sets: truncate_below(alpha, e+m) must be a
level-e invariant for every e. The level sets of the run walk
(``nu.nu_levels``) are nested by truncation, and the walk checks it, so each
member at a chosen level E has its whole truncation chain in the levels
below. Members at level E are lifted back to bounded fractions; when
p^(E+m) exceeds twice the bound box, at most one fraction fits per residue.
A root is such a fraction whose truncations lie in the level sets up to E; a
deeper level can drop it.

The strength of a root grades how strongly the jump certifying each
truncation holds: the least power of p that pushes the coordinates of f^a
into the descent image of (f^(a+1)), maximized over coordinates. Strengths
are nonincreasing in the level and are reported at their stable value when
two consecutive levels agree (or the value hits 0, which is final).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .chainring import ChainRingCtx
from .errors import InvariantError
from .groebner import GroebnerBasis, min_p_power_in
from .nu import DescentContext, descent_context, nu_levels, require_nonzerodivisor
from .padic import PAdicRational, reconstruct
from .poly import FrobeniusLift, Poly

# the levels a strength walks unless told otherwise: the CLI's strength mode
# and the strengths of a b-function report stop here
STRENGTH_LEVELS = 4


RootEntry = namedtuple(
    "RootEntry", "alpha residue strength stabilized", defaults=(None, None)
)

# levels: the nu.NuLevelSet of each level 1..verified_to_level
RootReport = namedtuple(
    "RootReport", "p m verified_to_level den_bound num_bound roots unresolved levels"
)

# per_level: the (e, value) pairs actually computed
StrengthResult = namedtuple("StrengthResult", "alpha value stabilized per_level")


class CrosscheckResult(
    namedtuple("CrosscheckResult", "report report_mod_p mismatches")
):
    __slots__ = ()

    @property
    def ok(self):
        return not self.mismatches


def reconstruction_level(p: int, m: int, den_bound: int, num_bound: int) -> int:
    """The least e with p^(e+m) > 2 * num_bound * den_bound: from level e
    on, at most one bounded fraction fits a residue. Never forms a p-power
    past the bound, so a huge top level costs nothing to check."""
    need = 2 * den_bound * num_bound
    k = 0
    power = 1
    while power <= need:
        power *= p
        k += 1
    return k - m


def _default_top_level(p: int, m: int, den_bound: int, num_bound: int) -> int:
    return max(3, reconstruction_level(p, m, den_bound, num_bound) + 1)


def require_reconstruction_bound(
    ctx: ChainRingCtx, top_level: int, den_bound: int, num_bound: int
):
    """Refuse a top level at which bounded reconstruction could be ambiguous:
    one below ``reconstruction_level``. The default top level never is.
    """
    if top_level < reconstruction_level(ctx.p, ctx.m, den_bound, num_bound):
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
    descent: DescentContext = None,
) -> RootReport:
    """Identify bounded rational roots from the level set at ``top_level``.

    The level sets 1..top_level are walked on ``descent`` (``nu.nu_levels``,
    which checks that they nest). A fraction reconstructed from a member r
    of the top level is r mod p^(top_level+m), so every returned root has
    its full truncation chain inside the level sets. Members matching no
    bounded fraction are reported in ``unresolved``, never promoted or
    silently dropped. ``InvariantError`` is raised when a monic monomial f
    under the standard lift has a root >= 0.
    """
    ctx = f.ctx
    p, m = ctx.p, ctx.m
    if den_bound < 1 or num_bound < 1:
        raise ValueError("bounds must be positive")
    if top_level is None:
        top_level = _default_top_level(p, m, den_bound, num_bound)
    require_reconstruction_bound(ctx, top_level, den_bound, num_bound)
    levels = nu_levels(f, lift, top_level, descent)
    roots = []
    unresolved = []
    for r in levels[-1].members:
        alpha = reconstruct(r, p, top_level + m, den_bound, num_bound)
        if alpha is None:
            unresolved.append(r)
        else:
            roots.append(RootEntry(alpha=alpha, residue=r))
    roots.sort(key=lambda entry: entry.alpha.frac)
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
        levels=levels,
    )


def strength(
    f: Poly,
    lift: FrobeniusLift,
    alpha,
    e_stop: int = STRENGTH_LEVELS,
    descent: DescentContext = None,
) -> StrengthResult:
    """Largest p-power gap left by the descent of f^a, a the truncation.

    At each level e, a = truncate_below(alpha, e+m) and the value is the
    least t with p^t * I_e(f^a) inside I_e(f^(a+1)): the maximum over the
    basis elements g of I_e(f^a) of the least t with p^t * g inside. The
    ideal (I_e(f^(a+1)) : p^t) does not depend on a generating set, so this
    is also the maximum over the coordinates of f^a. The walk runs from
    level 1 to ``e_stop`` along a_e = a_(e-1) + k_e * p^(e-1+m), taking
    both bases as steps from the level below on ``descent`` (a new
    ``nu.DescentContext`` when None). On the context of a level walk that
    reached e_stop, the bases of a root's truncations are steps the walk
    already took. The level sequence is nonincreasing; the walk
    stops early once two consecutive levels agree or the value 0 is
    reached, both of which are final. A ``PAdicRational`` over a prime
    other than the ring's is refused.
    """
    require_nonzerodivisor(f)
    if not isinstance(alpha, PAdicRational):
        alpha = PAdicRational(f.ctx.p, alpha)
    elif alpha.p != f.ctx.p:
        raise ValueError(f"alpha is {alpha.p}-adic but the ring has p={f.ctx.p}")
    if e_stop < 1:
        raise ValueError("need e_stop >= 1")
    p, m = f.ctx.p, f.ctx.m
    descent = descent_context(f, lift, descent)
    a = alpha.truncate_below(m)
    at_a, at_a1 = descent.bottom[a], descent.bottom[a + 1]
    computed = []
    stabilized = False
    for e in range(1, e_stop + 1):
        a_e = alpha.truncate_below(e + m)
        k = (a_e - a) // p ** (e - 1 + m)
        a = a_e
        at_a = descent.step(at_a, k)
        at_a1 = descent.step(at_a1, k)
        gb = GroebnerBasis(f.ctx, f.nvars, at_a1)
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

    The level sets are walked on a new ``nu.DescentContext``, and each
    strength walks levels 1..min(STRENGTH_LEVELS, verified_to_level) on the
    same context, so it shares the walk's steps and completes only
    the few the walk did not take.
    """
    descent = DescentContext(f, lift)
    report = detect_roots(f, lift, top_level, den_bound, num_bound, descent)
    e_stop = min(STRENGTH_LEVELS, report.verified_to_level)
    graded = []
    for entry in report.roots:
        res = strength(f, lift, entry.alpha, e_stop, descent)
        if res.value < 1:
            raise InvariantError("verified root with vanishing strength")
        graded.append(entry._replace(strength=res.value, stabilized=res.stabilized))
    return report._replace(roots=tuple(graded))


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
    strings, not exceptions. At m = 0 under the standard lift, f mod p is f
    under the same lift, at the same level and bounds, so the mod-p report is
    the report over V. Otherwise the mod-p report walks a
    ``nu.DescentContext`` of its own, to level verified_to_level + m.
    """
    report = bfunction_report(f, lift, top_level, den_bound, num_bound)
    if f.ctx.m == 0 and lift.is_standard:
        report0 = report
    else:
        ctx0 = ChainRingCtx(f.ctx.p, 0)
        report0 = bfunction_report(
            f.with_ctx(ctx0),
            FrobeniusLift.standard(ctx0, f.nvars),
            report.verified_to_level + f.ctx.m,
            den_bound,
            num_bound,
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
