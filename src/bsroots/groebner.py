"""Strong Groebner bases over V = Z/p^(m+1).

Over a coefficient ring with zerodivisors a basis must certify leading
terms, not only leading monomials: the term c * x^b reduces by g only when
lm(g) divides x^b and val(lc(g)) <= val(c). Completion therefore closes the
generators under two kinds of syzygies:

  * S-polynomials match leading monomials at the lcm and leading
    coefficients at the common power p^max(val, val);
  * annihilator multiples p^(m+1-j) * g, with j running through the distinct
    coefficient valuations of g from the top down, expose what survives of g
    after its deepest coefficient layer dies. They are inserted unreduced:
    their leading terms are often reducible while their tails carry new
    information, and reduction first would lose it.

Completion is incremental and keeps the basis minimal. One basis grows by
insertion, and its leading-term index with it. A new element h with leading
term (lm, v = val(lc)) retires every unretired g with v <= val(lc(g)) and
lm | lm(g); if an unretired element dominates h in the same way, h starts
out retired. h is paired with every unretired element before anything
retires: the S-polynomial g - c * x^a * h of a g that h dominates carries
g's tail, and dropping that pair loses it. Retired elements keep the pairs
already queued for them, but they form no new pairs and drop out of the
index that reduction scans (Buchberger's minimal-basis step with the update
of Gebauer and Moeller, for strong bases over a chain ring as in Norton and
Salagean).

Elements are unit-normalized (leading coefficient an exact power of p); the
result holds the unretired elements only, each tail reduced by them, sorted.
No two share a leading term, and the unit ideal completes to (1,). The
result is deterministic for a given generating set but still not canonical
across generating sets: reduced tails are not coefficient-canonical, so two
generating sets of one ideal can complete to tuples that differ in the
tails.
"""

from __future__ import annotations

import heapq
import itertools

from .cartier import _sorted_gens
from .errors import InvariantError
from .poly import (
    Poly,
    grevlex_desc_key,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
)


class GroebnerBasis:
    """Completed strong basis; supports membership queries.

    ``_lts`` is the leading-term index that reduction scans: one
    (lm, val(lc), lc, element) entry per unretired element, in basis order.
    A completed basis retires nothing, so its index covers ``elements``;
    during completion only the index grows and shrinks.
    """

    __slots__ = ("ctx", "nvars", "elements", "_lts")

    def __init__(self, ctx, nvars, elements):
        self.ctx = ctx
        self.nvars = nvars
        self.elements = tuple(elements)
        self._lts = []
        for g in self.elements:
            lm, lc = g.leading_term()
            self._lts.append((lm, ctx.val(lc), lc, g))

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and other.ctx == self.ctx
            and other.nvars == self.nvars
            and other.elements == self.elements
        )

    def __hash__(self):
        return hash((self.ctx, self.nvars, self.elements))

    def __repr__(self):
        return f"GroebnerBasis({list(self.elements)!r})"

    def contains(self, g: Poly) -> bool:
        return normal_form(g, self).is_zero()

    def is_unit_ideal(self) -> bool:
        one = Poly.one(self.ctx, self.nvars)
        return len(self.elements) == 1 and self.elements[0] == one


def _normalize_unit(g: Poly) -> Poly:
    u = g.ctx.unit_part(g.leading_coeff())
    if u == 1:
        return g
    return g * g.ctx.invert(u)


def normal_form(g: Poly, basis: GroebnerBasis) -> Poly:
    """Fully reduced remainder of g; zero exactly on (certified) members.

    Repeatedly reduces the current leading term by the first basis element
    whose leading term divides it; irreducible leading terms move to the
    output and reduction continues on the strictly smaller rest. The rest is
    one mutable term dict with a heap of its monomials, largest first; a
    monomial can sit in the heap twice after it cancels and reappears, and
    the stale entry finds no term left.
    """
    ctx = g.ctx
    mod = ctx.modulus
    work = dict(g.terms)
    heap = [(grevlex_desc_key(mono), mono) for mono in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        c = work.pop(mono, 0)
        if not c:
            continue
        cval = ctx.val(c)
        for lm, lval, lc, b in basis._lts:
            if lval <= cval and mono_divides(lm, mono):
                # q * lc = c exactly, so the term at mono cancels
                q = ctx.divide_exact(c, lc)
                shift = mono_quot(lm, mono)
                for bm, bc in b.terms.items():
                    if bm == lm:
                        continue
                    t = mono_mul(bm, shift)
                    old = work.get(t)
                    new = ((old or 0) - q * bc) % mod
                    if new:
                        work[t] = new
                        if old is None:
                            heapq.heappush(heap, (grevlex_desc_key(t), t))
                    elif old is not None:
                        del work[t]
                break
        else:
            out[mono] = c
    return Poly._from_terms(ctx, g.nvars, out)


def _s_poly(f: Poly, g: Poly) -> Poly:
    ctx = f.ctx
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    gamma = mono_lcm(lmf, lmg)
    jf, jg = ctx.val(lcf), ctx.val(lcg)
    j = max(jf, jg)
    # elements are unit-normalized, so scaling by p powers alone matches lts
    sf = f.term_mul(mono_quot(lmf, gamma), ctx.p ** (j - jf))
    sg = g.term_mul(mono_quot(lmg, gamma), ctx.p ** (j - jg))
    return sf - sg


def _annihilator_step(g: Poly):
    """p^(m+1-jmax) * g for jmax the largest coefficient valuation.

    Zero (returned as None) when all coefficient valuations agree, which
    terminates the chain.
    """
    ctx = g.ctx
    jmax = g.max_coeff_val()
    a = g * ctx.p ** (ctx.m + 1 - jmax)
    return None if a.is_zero() else a


def strong_groebner(J) -> GroebnerBasis:
    if isinstance(J, GroebnerBasis):
        return J
    ctx, nvars = J.ctx, J.nvars
    live = GroebnerBasis(ctx, nvars, ())
    lts = live._lts
    seen = set()
    pairs = []
    counter = itertools.count()

    def add(h: Poly, reduce_first: bool):
        if reduce_first:
            h = normal_form(h, live)
        if h.is_zero():
            return
        h = _normalize_unit(h)
        if h in seen:
            return
        seen.add(h)
        lm, lc = h.leading_term()
        v = ctx.val(lc)
        # pair h with every unretired element before anything retires: the
        # pair (g, h) of an element g that h dominates carries g's tail
        dominated = dominates = False
        for glm, gval, _, g in lts:
            heapq.heappush(pairs, (sum(mono_lcm(glm, lm)), next(counter), g, h))
            if gval <= v and mono_divides(glm, lm):
                dominated = True
            elif v <= gval and mono_divides(lm, glm):
                dominates = True
        if not dominated:
            if dominates:
                lts[:] = [
                    t for t in lts if not (v <= t[1] and mono_divides(lm, t[0]))
                ]
            lts.append((lm, v, lc, h))
        a = _annihilator_step(h)
        if a is not None:
            add(a, reduce_first=False)

    for g in J.gens:
        add(g, reduce_first=False)
    while pairs:
        _, _, g, h = heapq.heappop(pairs)
        add(_s_poly(g, h), reduce_first=True)

    tidied = []
    for lm, _, lc, g in lts:
        head = Poly.monomial(ctx, nvars, lm, lc)
        tidied.append(head + normal_form(g - head, live))
    return GroebnerBasis(ctx, nvars, _sorted_gens(tidied))


def ideal_contains(J, g: Poly) -> bool:
    return strong_groebner(J).contains(g)


def ideal_equal(A, B) -> bool:
    ga, gb = strong_groebner(A), strong_groebner(B)
    if ga.elements == gb.elements:
        return True
    return all(ga.contains(h) for h in gb.elements) and all(
        gb.contains(h) for h in ga.elements
    )


def min_p_power_in(J, g: Poly) -> int:
    """Least t with p^t * g in J; always <= m+1 since p^(m+1) = 0."""
    gb = strong_groebner(J)
    ctx = g.ctx
    for t in range(ctx.m + 2):
        if gb.contains(g * ctx.p**t):
            return t
    raise InvariantError("p^(m+1) annihilates everything")
