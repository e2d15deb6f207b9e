"""Level-e nu-invariants of a nonzerodivisor f.

An exponent n is a level-e invariant when the descent image of (f^n) jumps:
the ideal generated by the level-e coordinates of f^n differs from that of
f^(n+1). Membership only depends on n mod p^(e+m), so the whole level is a
finite window walked once, with the power chain and its Groebner bases
shared between consecutive steps.

``nu_of_ideal`` is the relative variant: the largest n with f^n outside the
e-fold Frobenius pullback of a fixed ideal J. Nonmembership is downward
closed along the chain, so the first membership hit decides it, and the
result always lands in the level-e invariant set of f (checked per call).
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


def descent_basis(f_power: Poly, lift: FrobeniusLift, e: int) -> GroebnerBasis:
    """Completed basis of the level-e descent ideal of (f_power).

    Bases are canonical, so two descent ideals are equal exactly when their
    bases are.
    """
    gens = cartier_generators(
        IdealGens([f_power], ctx=f_power.ctx, nvars=f_power.nvars), lift, e
    )
    return strong_groebner(gens)


def is_nu(f: Poly, lift: FrobeniusLift, e: int, n: int) -> bool:
    """Whether n is a level-e invariant of f; periodic mod p^(e+m)."""
    require_nonzerodivisor(f)
    if e < 1:
        raise ValueError("level must be >= 1")
    n %= f.ctx.p ** (e + f.ctx.m)
    f_n = f**n
    return descent_basis(f_n, lift, e) != descent_basis(f_n * f, lift, e)


def nu_set(f: Poly, lift: FrobeniusLift, e: int) -> NuLevelSet:
    """All level-e invariants of f, by one walk of the power chain."""
    require_nonzerodivisor(f)
    if e < 1:
        raise ValueError("level must be >= 1")
    window = f.ctx.p ** (e + f.ctx.m)
    members = []
    power = Poly.one(f.ctx, f.nvars)
    gb = descent_basis(power, lift, e)
    for n in range(window):
        power = power * f
        next_gb = descent_basis(power, lift, e)
        if gb != next_gb:
            members.append(n)
        gb = next_gb
    return NuLevelSet(f=f, lift=lift, e=e, window=window, members=tuple(members))


def nu_of_ideal(f: Poly, J: IdealGens, lift: FrobeniusLift, e: int) -> int:
    """max{n >= 0 : f^n not in the e-fold pullback of J}.

    Scans upward to the first member; the set of members is upward closed
    along the power chain, so first membership decides the maximum. Raises
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
