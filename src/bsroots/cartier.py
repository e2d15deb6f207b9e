"""Level-1 descent of ideals of V[x1..xn].

For a lift F the polynomial ring is free over its image F(R) with basis the
monomials x^alpha, alpha in [0, p)^n. Projection onto each basis coordinate
defines the level-1 descent operators, and the image of an ideal J under all
of them is again an ideal: it is generated by the coordinates of the
generators of J. ``cartier_generators`` returns exactly those coordinate
polynomials, with no interreduction, so the raw output is reproducible;
canonicalization happens later in the Groebner layer.

Degrees drop by the factor p, which is the engine's source of finiteness.
Level e is level 1 taken e times, by the composition identity
I_e(J) = I_1(I_(e-1)(J)) of ``bsroots.nu``.
"""

from __future__ import annotations

from .chainring import ChainRingCtx
from .poly import FrobeniusLift, head_key, phi_decompose


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

    def __repr__(self):
        return f"IdealGens({list(self.gens)!r})"


def cartier_generators(gens, lift: FrobeniusLift) -> IdealGens:
    """Generators of the image of the ideal (gens) under all level-1 descent
    operators: the coordinates g_alpha of each polynomial of ``gens``, taken
    as given, in the free basis over the Frobenius image.
    """
    comps = []
    for g in gens:
        comps.extend(phi_decompose(g, lift).values())
    return IdealGens(comps, ctx=lift.ctx, nvars=lift.nvars)
