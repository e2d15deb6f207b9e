"""Level-e nu-invariants of a nonzerodivisor f.

An exponent n is a level-e invariant when the descent image of (f^n) jumps:
the ideal I_e(f^n) generated by the level-e coordinates of f^n differs from
I_e(f^(n+1)). Membership only depends on n mod p^(e+m), so a level is a
finite window.

The windows are walked level by level, never along the powers f^n. Two
exact identities carry one level to the next:

  * composition: I_e(J) = I_1(I_(e-1)(J)), because R is free over F^e(R)
    on the products x^alpha * F^(e-1)(x^beta), and the ideal of the
    coordinates does not depend on the free basis;
  * shift: f^(p^(e-1+m)) = F^(e-1)(f^(p^m)) exactly over Z/p^(m+1), since
    f^p = F(f) mod p and (A + pB)^(p^m) = A^(p^m) mod p^(m+1). The
    level-(e-1) coordinates of F^(e-1)(g) * h are g times those of h, so
    I_(e-1)(f^(a + k*p^(e-1+m))) = f^(p^m*k) * I_(e-1)(f^a), for every lift
    (the Cartier identity phi^e(g^(p^e) h) = g phi^e(h) in characteristic p;
    Blickle, Mustata and Smith, "Discreteness and rationality of
    F-thresholds", 2008).

So for n = a + k*p^(e-1+m), a < p^(e-1+m), k < p, the level-e basis of
f^n is the completed level-1 descent of f^(p^m*k) times the basis of f^a
one level down; level 0 is (f^a) itself. At a = 0, k = 1 the shift identity
gives the end of every window in closed form, the wrap
I_e(f^(p^(e+m))) = f^(p^m) * I_e(1) = (f^(p^m)). The only powers built are
f^a, a <= p^m, and the shifts f^(p^m*k), 0 < k < p, once each, on first
use (``DescentContext.power``), the shift at k = 1 being the wrap's: the
walk uses every f^a, a query at one n (``descent_path``) f^a, f^(a+1)
and the shifts of the digits it steps by.

A level is walked by its runs, the maximal stretches of n that share one
basis, so a run ending at n is the jump n. One step per run one level down
and per k is enough: the level-e basis of f^n depends on n only through the
basis of f^a one level down and on k, and equal bases have equal descents.
The chain is monotone: along the powers of f the descent ideals only shrink,
I_e(f^(n+1)) inside I_e(f^n), so a basis once left never returns. That
gives the sandwich rule: for x < y < z, I_e(f^x) = I_e(f^z) forces
I_e(f^y) to the same ideal, as I_e(f^z) is inside I_e(f^y), which is inside
I_e(f^x). So the candidate run starts of a level are a + k*p^(e-1+m), for
run i of the size runs of level e-1 that start below p^(e-1+m) and k < p,
numbered k*size + i, and the wrap at p^(e+m), numbered p*size: the numbers
ascend with n, and no list of them is built. Two ends are known without a
step: n = 0, whose basis is (1) as I_1((1)) = (1), and the wrap. A level
reads off the candidates whose steps its runs below already hold, then
bisects each gap between known numbers: a gap whose ends hold one basis is
one run and costs no step, and otherwise its midpoint (k and i by divmod)
is stepped. So a level costs its runs below and the steps it holds and
completes, not p, and completes only the steps that locate a run boundary.

A midpoint is certified against the upper end of its gap before its step
is completed. If each Cartier generator of the step at mid lies in
I_e(f^hi), held as the completed basis at hi, then I_e(f^mid) is inside
I_e(f^hi), and the monotone chain puts I_e(f^hi) inside I_e(f^mid), as
hi > mid. So the ideals are equal, and as the reduced strong basis of an
ideal is unique (``groebner``), the basis at hi is the tuple the completion
would give. A generator outside it ends its membership test at the first
term that survives reduction, and the step is completed.

A step is taken once per call. Each public entry point makes one
``DescentContext``, or takes the caller's, and the walk, ``is_nu`` and the
strengths of roots (``bsr.strength``) take their steps on it, the last two
along ``descent_path``. The context keeps every step taken, as basis one
level down -> {k: basis}: a level-e basis equal to one of level e-1, or a
basis of a root's truncation that the walk already stepped, costs no second
completion. It also keeps the level-1 coordinates of each (element g of a
completed basis, k) it formed, those of g * f^(p^m*k), for as long as it
lives: distinct bases share elements, so a step whose elements earlier
steps used forms no product and no coordinates, and only its certificate or
completion runs. A level-0 basis (f^a) is
stepped at most once per k, so the coordinates of f^a are formed for its
step and not kept. On every anchor the level sets stop growing after a few
levels; from there on each level steps the bases the level below already
stepped, and a level whose bases all repeat costs no completion, while its
window grows by a factor p.

The level sets are nested by truncation, for every lift: at
n = a + k*p^(e-1+m), a < p^(e-1+m), the level-e bases at n and n+1 are the
steps by k of the level-(e-1) bases at a and a+1 (at a+1 = p^(e-1+m) the
wrap, whose step is the basis at n+1), so a jump at n forces a jump at a.
``nu_levels`` checks that nesting from level 2 up, and the cardinality
bound at every level, raising ``InvariantError``, also under ``python -O``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import InvariantError
from .groebner import GroebnerBasis, IdealGens, strong_groebner
from .poly import FrobeniusLift, Poly, phi_decompose


def require_nonzerodivisor(f: Poly):
    """f is a nonzerodivisor on V[x] exactly when some coefficient is a unit."""
    if not f.has_unit_coeff():
        raise ValueError("f must be a nonzerodivisor (some unit coefficient)")


class NuLevelSet(namedtuple("NuLevelSet", "e window members")):
    """All level-e invariants in the canonical window [0, p^(e+m))."""

    __slots__ = ()

    def __contains__(self, n):
        return n % self.window in self.members


def descent_basis(coords, inside=None) -> GroebnerBasis:
    """Completed basis of the ideal generated by ``coords``, the level-1
    coordinates of the generators of an ideal: its level-1 descent.

    R is free over F(R) on the x^alpha, alpha in [0, p)^n, and the level-1
    descent operators are the projections onto these coordinates
    (``phi_decompose``). The image of an ideal J under all of them is
    generated by the coordinates of any generating set of J; under the
    standard lift a coordinate of g has degree at most deg g / p.

    Bases are canonical, so two descent ideals are equal exactly when their
    bases are. ``inside``, the completed basis of an ideal inside the
    descent, is returned with no completion when it holds every coordinate,
    as the two ideals are then equal.
    """
    gens = IdealGens(coords)
    if inside is not None and all(map(inside.contains, gens.gens)):
        return inside
    return strong_groebner(gens)


class DescentContext:
    """The descent steps of one (f, lift), each taken once; a zerodivisor f
    is refused before any work, so no caller of a context checks f again.

    Builds each power f^n it is asked for once, in one table (``power``):
    the level-0 bases (f^a,), a <= p^m, the wrap f^(p^m) and the shifts
    f^(p^m*k), 0 < k < p, the shift at k = 1 being the wrap's. ``steps``
    keeps every step taken for as long as the context lives, as basis
    elements one level down -> {shift index k: basis elements}, the digit
    transitions of the p-automatic view: a repeated step returns the basis
    found the first time. Equal bases are kept as one tuple, interned with
    their ``GroebnerBasis``, whose index a step certified against that basis
    reuses. The step from the unit basis at k = 0 is known from the start,
    as I_1((1)) = (1).

    ``coordinates`` keeps the level-1 coordinates of each (basis element g,
    shift index k) it formed, those of g * f^(p^m*k) or of g at k = 0, for
    as long as the context lives, which is one job: a step whose elements
    earlier steps used forms none of them again. A step from a tuple that is
    not an interned basis, a level-0 basis (f^a,), is taken at most once per
    k, so it forms its coordinates and neither reads nor keeps any.
    """

    def __init__(self, f: Poly, lift: FrobeniusLift):
        require_nonzerodivisor(f)
        self.f, self.lift = f, lift
        one = Poly.one(f.ctx, f.nvars)
        unit = (one,)  # I_1((1)) = (1): it descends to itself
        self._powers = {0: one}  # n -> f^n, built on first use
        self.steps = {unit: {0: unit}}  # elements one level down -> {k: elements}
        self._interned = {unit: GroebnerBasis(f.ctx, f.nvars, unit)}  # tuple -> basis
        self._coordinates = {}  # (element, k) -> its coordinates, alpha ascending

    def power(self, n: int) -> Poly:
        """f^n, built the first time it is asked for: f^(n-1) * f when that
        is held, else f ** n."""
        if n not in self._powers:
            below = self._powers.get(n - 1)
            self._powers[n] = self.f**n if below is None else below * self.f
        return self._powers[n]

    def _intern(self, gb) -> tuple:
        return self._interned.setdefault(gb.elements, gb).elements

    @cached_property
    def wrap(self) -> tuple:
        """Basis elements of (f^(p^m)), the last run of every level."""
        top = IdealGens((self.power(self.f.ctx.p**self.f.ctx.m),))
        return self._intern(strong_groebner(top))

    def basis(self, elems: tuple) -> GroebnerBasis:
        """The interned ``GroebnerBasis`` of the basis elements ``elems``."""
        return self._interned[elems]

    def _formed(self, g: Poly, k: int) -> tuple:
        shifted = g * self.power(self.f.ctx.p**self.f.ctx.m * k) if k else g
        return tuple(phi_decompose(shifted, self.lift).values())

    def coordinates(self, g: Poly, k: int) -> tuple:
        """The level-1 coordinates of g * f^(p^m*k), or of g at k = 0, alpha
        ascending; formed the first time (g, k) is asked for, and kept."""
        coords = self._coordinates.get((g, k))
        if coords is None:
            coords = self._coordinates[g, k] = self._formed(g, k)
        return coords

    def step(self, elems, k: int, inside: tuple = None) -> tuple:
        """Basis elements of level e at f^(a + k*p^(e-1+m)), from ``elems``,
        the basis elements of level e-1 at f^a: the ``descent_basis`` of the
        ``coordinates`` of each element under the shift f^(p^m*k), element
        by element. ``inside``, interned elements of level e at a higher
        power of f, is returned as it is when it holds every coordinate of
        the step."""
        held = self.steps.setdefault(elems, {})
        done = held.get(k)
        if done is None:
            # (f^a,), not interned, is stepped once per k: formed, not kept
            formed = self.coordinates if elems in self._interned else self._formed
            coords = [c for g in elems for c in formed(g, k)]
            gb = descent_basis(coords, self._interned.get(inside))
            done = held[k] = self._intern(gb)
        return done


def descent_context(
    f: Poly, lift: FrobeniusLift, descent: DescentContext = None
) -> DescentContext:
    """``descent`` when given, else a new context for (f, lift); a context
    made for another f or lift, whose steps are another pair's, is refused."""
    if descent is None:
        return DescentContext(f, lift)
    if descent.f != f or descent.lift != lift:
        raise ValueError("the descent context was made for another f or lift")
    return descent


def descent_runs(descent: DescentContext, top: int):
    """Yield (e, runs) for e = 1..top: level e of ``descent`` as its runs.

    A run is (first n, basis elements of I_e(f^n)), a maximal stretch of n
    that share one basis. The runs of a level cover n = 0..p^(e+m) in
    ascending order, and neighbouring runs hold different bases. The
    candidate run start a + k*p^(e-1+m), for run i = (a, basis) of the size
    runs of level e-1 with a < p^(e-1+m) and k < p, is numbered k*size + i,
    and the wrap p*size. The candidates whose steps ``descent`` already holds
    (``DescentContext.steps``) are read off it, n = 0 included; then each
    gap between known numbers is bisected by the sandwich rule: equal ends
    make the gap one run, and otherwise the midpoint is stepped, certified
    against the basis at the gap's upper end: when that basis holds every
    Cartier generator of the step, it is the step's basis and no completion
    runs (the module docstring has the proof). Every step goes through
    ``descent``, so a step the walk or an earlier walk on the same context
    already took is not taken again.
    """
    p, m = descent.f.ctx.p, descent.f.ctx.m
    runs = [(a, (descent.power(a),)) for a in range(p**m)]
    for e in range(1, top + 1):
        step = p ** (e - 1 + m)
        below = [run for run in runs if run[0] < step]
        size = len(below)
        bases = {p * size: descent.wrap}
        for i, (_, elems) in enumerate(below):
            for k, done in descent.steps.get(elems, {}).items():
                bases[k * size + i] = done
        known = sorted(bases)
        gaps = list(zip(known, known[1:]))
        while gaps:
            lo, hi = gaps.pop()
            if hi - lo > 1 and bases[lo] != bases[hi]:
                mid = (lo + hi) // 2
                k, i = divmod(mid, size)
                bases[mid] = descent.step(below[i][1], k, bases[hi])
                gaps += ((lo, mid), (mid, hi))
        runs = []
        for index in sorted(bases):
            # index p*size, the wrap, reads as k = p on the run at n = 0
            k, i = divmod(index, size)
            if not runs or bases[index] != runs[-1][1]:
                runs.append((below[i][0] + k * step, bases[index]))
        yield e, runs


def descent_path(descent: DescentContext, n: int, top: int):
    """Yield (e, basis elements of I_e(f^n), of I_e(f^(n+1))) for e = 1..top,
    n taken mod p^(e+m): the level-0 bases at a = n mod p^m and a+1, stepped
    on ``descent`` by each base-p digit of n above p^m. The shift identity
    holds for every a, so the carry at n+1 = p^(e+m) is no special case."""
    p = descent.f.ctx.p
    rest, a = divmod(n, p**descent.f.ctx.m)
    lower, upper = (descent.power(a),), (descent.power(a + 1),)
    for e in range(1, top + 1):
        rest, k = divmod(rest, p)
        lower, upper = descent.step(lower, k), descent.step(upper, k)
        yield e, lower, upper


def nu_levels(
    f: Poly, lift: FrobeniusLift, top: int, descent: DescentContext = None
) -> tuple:
    """The level sets of f at e = 1..top, read off the runs of each level.

    A run ending at n, before the next basis starts at n+1, is the jump n.
    The runs are walked on ``descent``, or on a new context. A level set
    with more than (m+1)*C(deg f*p^m + nvars, nvars) members, or one whose
    members do not all truncate into the level set below, raises
    ``InvariantError``.
    """
    if top < 1:
        raise ValueError("level must be >= 1")
    descent = descent_context(f, lift, descent)
    p, m = f.ctx.p, f.ctx.m
    card_bound = (m + 1) * math.comb(int(f.degree()) * p**m + f.nvars, f.nvars)
    levels = []
    for e, runs in descent_runs(descent, top):
        members = tuple(n - 1 for n, _ in runs[1:])
        if len(members) > card_bound:
            raise InvariantError("level set exceeded cardinality bound")
        if levels:
            below = levels[-1]
            if not {n % below.window for n in members} <= set(below.members):
                raise InvariantError("level set not nested in the level below")
        levels.append(NuLevelSet(e, p ** (e + m), members))
    return tuple(levels)


def is_nu(f: Poly, lift: FrobeniusLift, e: int, n: int) -> bool:
    """Whether n is a level-e invariant of f; periodic mod p^(e+m): whether
    the last pair of ``descent_path`` on a new context differs."""
    if e < 1:
        raise ValueError("level must be >= 1")
    *_, (_, lower, upper) = descent_path(DescentContext(f, lift), n, e)
    return lower != upper


def nu_set(f: Poly, lift: FrobeniusLift, e: int) -> NuLevelSet:
    """All level-e invariants of f, walked up from level 1."""
    return nu_levels(f, lift, e)[-1]
