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

So for n = a + k*p^(e-1+m), a < p^(e-1+m), k <= p, the level-e basis of
f^n is the completed level-1 descent of f^(p^m*k) times the basis of f^a
one level down; level 0 is (f^a) itself. The only powers built are f^a,
a < p^m, and the shifts f^(p^m*k), k <= p.

``nu_of_ideal`` is the relative variant: the largest n with f^n outside the
e-fold Frobenius pullback of a fixed ideal J. Nonmembership is downward
closed along the powers of f, so the first membership hit decides it, and
the result always lands in the level-e invariant set of f (checked per call
by ``is_nu``, the direct definition).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartier import IdealGens, cartier_generators, frobenius_pullback_ideal
from .errors import InvariantError
from .groebner import GroebnerBasis, strong_groebner
from .poly import FrobeniusLift, Poly


def require_nonzerodivisor(f: Poly):
    """f is a nonzerodivisor on V[x] exactly when some coefficient is a unit."""
    if not f.has_unit_coeff():
        raise ValueError("f must be a nonzerodivisor (some unit coefficient)")


@dataclass(frozen=True)
class NuLevelSet:
    """All level-e invariants in the canonical window [0, p^(e+m))."""

    f: Poly
    lift: FrobeniusLift
    e: int
    window: int
    members: tuple

    def __contains__(self, n):
        return n % self.window in self.members


def descent_basis(gens, lift: FrobeniusLift, e: int) -> GroebnerBasis:
    """Completed basis of the level-e descent of the ideal generated by ``gens``.

    ``gens`` is a nonempty list of polynomials. Bases are canonical, so two
    descent ideals are equal exactly when their bases are.
    """
    g = gens[0]
    return strong_groebner(
        cartier_generators(IdealGens(gens, ctx=g.ctx, nvars=g.nvars), lift, e)
    )


def descent_step(below, shift, lift: FrobeniusLift) -> GroebnerBasis:
    """Level-e basis of f^(a + k*p^(e-1+m)) from the level below.

    ``below`` holds the basis elements of level e-1 at f^a and ``shift`` is
    f^(p^m*k), or None for k = 0.
    """
    if shift is not None:
        below = [g * shift for g in below]
    return descent_basis(below, lift, 1)


def shift_powers(f: Poly):
    """([f^a for a <= p^m], [None, f^(p^m), f^(2*p^m), ..., f^(p^(m+1))])."""
    p, m = f.ctx.p, f.ctx.m
    powers = [Poly.one(f.ctx, f.nvars)]
    for _ in range(p**m):
        powers.append(powers[-1] * f)
    shifts = [None, powers[-1]]
    for _ in range(p - 1):
        shifts.append(shifts[-1] * powers[-1])
    return powers, shifts


def descent_walk(f: Poly, lift: FrobeniusLift, top: int):
    """Yield (e, n, basis elements of I_e(f^n)) for e = 1..top, n = 0..p^(e+m).

    n ascends within each level, and consecutive equal bases are one tuple,
    so a kept level holds few distinct tuples. Only the level below is
    kept, one entry per a < p^(e-1+m); the top level is not kept at all.
    """
    p, m = f.ctx.p, f.ctx.m
    powers, shifts = shift_powers(f)
    below = [(g,) for g in powers[:-1]]
    for e in range(1, top + 1):
        step = p ** (e - 1 + m)
        level = [] if e < top else None
        last = None
        for k in range(p):
            shift = shifts[k]
            for a in range(step):
                elems = descent_step(below[a], shift, lift).elements
                if elems == last:
                    elems = last
                last = elems
                if level is not None:
                    level.append(elems)
                yield e, a + k * step, elems
        yield e, p * step, descent_step(below[0], shifts[p], lift).elements
        below = level


def nu_levels(f: Poly, lift: FrobeniusLift, top: int) -> tuple:
    """The level sets of f at e = 1..top, by one level-by-level walk."""
    require_nonzerodivisor(f)
    if top < 1:
        raise ValueError("level must be >= 1")
    sets = []
    for e, n, elems in descent_walk(f, lift, top):
        if n == 0:
            window = f.ctx.p ** (e + f.ctx.m)
            members = []
        elif elems != previous:
            members.append(n - 1)
        previous = elems
        if n == window:
            sets.append(
                NuLevelSet(f=f, lift=lift, e=e, window=window, members=tuple(members))
            )
    return tuple(sets)


def is_nu(f: Poly, lift: FrobeniusLift, e: int, n: int) -> bool:
    """Whether n is a level-e invariant of f; periodic mod p^(e+m).

    The direct definition: the descents of f^n and f^(n+1) themselves.
    """
    require_nonzerodivisor(f)
    if e < 1:
        raise ValueError("level must be >= 1")
    n %= f.ctx.p ** (e + f.ctx.m)
    f_n = f**n
    return descent_basis([f_n], lift, e) != descent_basis([f_n * f], lift, e)


def nu_set(f: Poly, lift: FrobeniusLift, e: int) -> NuLevelSet:
    """All level-e invariants of f, walked up from level 1."""
    return nu_levels(f, lift, e)[-1]


def nu_of_ideal(f: Poly, J: IdealGens, lift: FrobeniusLift, e: int) -> int:
    """max{n >= 0 : f^n not in the e-fold pullback of J}.

    Scans upward to the first member; the set of members is upward closed
    along the powers of f, so first membership decides the maximum. Raises
    when f^0 is already inside (the maximum does not exist) or when no power
    up to 4 * p^(e+m) + 4 lands inside the pullback (J does not become full
    after inverting f, so the invariant is undefined).
    """
    require_nonzerodivisor(f)
    if e < 1:
        raise ValueError("level must be >= 1")
    cap = 4 * f.ctx.p ** (e + f.ctx.m) + 4
    pulled = strong_groebner(frobenius_pullback_ideal(J, lift, e))
    power = Poly.one(f.ctx, f.nvars)
    n = 0
    while not pulled.contains(power):
        power = power * f
        n += 1
        if n > cap:
            raise ValueError("J does not become full along powers of f")
    if n == 0:
        raise ValueError("f^0 already lies in the pulled-back ideal")
    result = n - 1
    if not is_nu(f, lift, e, result):
        raise InvariantError("relative invariant escaped the level set")
    return result
