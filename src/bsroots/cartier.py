"""Descent operators on ideals of V[x1..xn].

For a lift F and level e the polynomial ring is free over its image under
F^e with basis the monomials x^alpha, alpha in [0, p^e)^n. Projection onto
each basis coordinate defines the descent operators, and the image of an
ideal J under all of them is again an ideal: it is generated by the
coordinates of the generators of J. ``cartier_generators`` returns exactly
those coordinate polynomials, with no interreduction, so the raw output is
reproducible; canonicalization happens later in the Groebner layer.

Degrees drop by the factor p^e, which is the engine's source of finiteness.
"""

from __future__ import annotations

from .chainring import ChainRingCtx
from .poly import FrobeniusLift, frobenius_apply, head_key, phi_decompose


class IdealGens:
    """Generating set of an ideal, sorted by leading term (``head_key``).

    Zeros and duplicates are dropped. Generators that tie on the leading
    term keep their input order, so the tuple is as deterministic as the
    input; the canonical object of an ideal is its completed basis. Equal
    generators tie on the leading term, so duplicates are found by comparing
    terms within each run of ties, and no generator is hashed.
    """

    __slots__ = ("ctx", "nvars", "gens")

    def __init__(self, gens, ctx: ChainRingCtx = None, nvars: int = None):
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            ctx = gens[0].ctx if ctx is None else ctx
            nvars = gens[0].nvars if nvars is None else nvars
        if ctx is None or nvars is None:
            raise ValueError("empty generator list needs explicit ctx and nvars")
        for g in gens:
            if (g.ctx is not ctx and g.ctx != ctx) or g.nvars != nvars:
                raise ValueError("mixed polynomial rings")
        self.ctx = ctx
        self.nvars = nvars
        keys = [head_key(g) for g in gens]
        kept = []
        ties = last = None
        for i in sorted(range(len(gens)), key=keys.__getitem__):
            g = gens[i]
            if keys[i] != last:
                last, ties = keys[i], []
            elif any(g.terms == t.terms for t in ties):
                continue
            ties.append(g)
            kept.append(g)
        self.gens = tuple(kept)

    def __eq__(self, other):
        return (
            isinstance(other, IdealGens)
            and other.ctx == self.ctx
            and other.nvars == self.nvars
            and other.gens == self.gens
        )

    def __hash__(self):
        return hash((self.ctx, self.nvars, self.gens))

    def __repr__(self):
        return f"IdealGens({list(self.gens)!r})"


def frobenius_pullback_ideal(J: IdealGens, lift: FrobeniusLift, e: int) -> IdealGens:
    """Generators of the extension of F^e(J) to the whole ring."""
    return IdealGens(
        [frobenius_apply(g, lift, e) for g in J.gens], ctx=J.ctx, nvars=J.nvars
    )


def cartier_generators(J: IdealGens, lift: FrobeniusLift, e: int) -> IdealGens:
    """Generators of the image of J under all level-e descent operators.

    These are the coordinates g_alpha of every generator of J in the free
    basis over the e-fold Frobenius image.
    """
    if e < 0:
        raise ValueError("negative level")
    comps = []
    for g in J.gens:
        comps.extend(phi_decompose(g, lift, e).values())
    return IdealGens(comps, ctx=J.ctx, nvars=J.nvars)
