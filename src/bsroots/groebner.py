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
index that reduction scans (Buchberger's minimal-basis step, for strong
bases over a chain ring as in Norton and Salagean). Every pair formed is
reduced: no criterion skips a pair that would reduce to zero.

Elements are unit-normalized (leading coefficient an exact power of p); the
result holds the unretired elements only, each tail reduced by them, sorted
by leading term, which no two elements share (completion checks it); the
unit ideal completes to (1,). Reduction leaves every remaining coefficient
at its canonical coset representative, so the result is the reduced strong
basis of the ideal. It is unique over a finite chain ring (Norton and
Salagean, "Strong Groebner bases and cyclic codes over a finite-chain
ring", 2001): two generating sets of one ideal complete to the same tuple,
and ideal equality is a tuple comparison.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add

from .errors import InvariantError
from .poly import Poly, grevlex_desc_key, head_key, mono_divides, mono_lcm, mono_quot


class GroebnerBasis:
    """Completed strong basis; supports membership queries.

    ``_lts`` is the leading-term index that reduction scans: one
    (lm, val(lc), lc, element) entry per unretired element, in basis order.
    A completed basis retires nothing, so its index covers ``elements``;
    during completion only the index grows and shrinks. Every leading
    coefficient must be an exact power of p, which reduction relies on.
    """

    __slots__ = ("ctx", "nvars", "elements", "_lts")

    def __init__(self, ctx, nvars, elements):
        self.ctx = ctx
        self.nvars = nvars
        self.elements = tuple(elements)
        self._lts = []
        for g in self.elements:
            lm, lc = g.leading_term()
            v = ctx.val(lc)
            if lc != ctx.p**v:
                raise ValueError(
                    f"leading coefficient {lc} of a basis element "
                    f"is not a power of p={ctx.p}"
                )
            self._lts.append((lm, v, lc, g))

    def __eq__(self, other):
        """Equality of the ideals, for completed bases.

        A completed basis is the reduced strong basis of its ideal, so two
        of them hold the same tuple exactly when their ideals are equal.
        """
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


def _normalize_unit(g: Poly) -> Poly:
    u = g.ctx.unit_part(g.leading_coeff())
    if u == 1:
        return g
    return g * g.ctx.invert(u)


def normal_form(g: Poly, basis: GroebnerBasis) -> Poly:
    """Canonical remainder of g; zero exactly on (certified) members.

    Each term c * x^b, largest first, is divided by the basis elements whose
    leading monomial divides x^b, in basis order: with lc = p^v, c becomes
    c mod p^v and the quotient times the element's shifted tail joins the
    rest. The term goes to the output if a coefficient is left, which is
    c mod p^w for w the least such v. Over a completed basis p^w generates
    the leading coefficients of the ideal at x^b, so the remainder is the
    same for every g in one coset of the ideal. The rest is one mutable term
    dict with a heap of its monomials, largest first; a monomial can sit in
    the heap twice after it cancels and reappears, and the stale entry finds
    no term left.
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
        for lm, _, lc, b in basis._lts:
            # c < lc leaves the quotient 0: nothing to do
            if lc > c or not mono_divides(lm, mono):
                continue
            q, c = divmod(c, lc)
            shift = mono_quot(lm, mono)
            for bm, bc in b.terms.items():
                if bm == lm:
                    continue
                t = tuple(map(add, bm, shift))
                old = work.get(t)
                new = ((old or 0) - q * bc) % mod
                if new:
                    work[t] = new
                    if old is None:
                        heapq.heappush(heap, (grevlex_desc_key(t), t))
                elif old is not None:
                    del work[t]
            if not c:
                break
        else:
            out[mono] = c
    return Poly._from_terms(ctx, g.nvars, out)


def _s_poly(f: Poly, g: Poly) -> Poly:
    """p^(j-jf) * x^uf * f - p^(j-jg) * x^ug * g, built in one term dict.

    x^uf * lm(f) = x^ug * lm(g) = lcm(lm(f), lm(g)), jf and jg are the
    valuations of the leading coefficients and j = max(jf, jg). Both
    arguments must be unit-normalized, lc = p^v exactly: then both scaled
    leading terms are p^j at the lcm and cancel exactly, so neither is built.
    """
    ctx = f.ctx
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    gamma = mono_lcm(lmf, lmg)
    jf, jg = ctx.val(lcf), ctx.val(lcg)
    j = max(jf, jg)
    uf, cf = mono_quot(lmf, gamma), ctx.p ** (j - jf)
    ug, cg = mono_quot(lmg, gamma), ctx.p ** (j - jg)
    acc = {tuple(map(add, m, uf)): c * cf for m, c in f.terms.items() if m != lmf}
    get = acc.get
    for m, c in g.terms.items():
        if m != lmg:
            t = tuple(map(add, m, ug))
            acc[t] = get(t, 0) - c * cg
    return Poly._from_terms(ctx, f.nvars, acc)


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
    """The reduced strong basis of the ideal the generators ``J`` span."""
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
    tidied.sort(key=head_key)
    if any(head_key(a) == head_key(b) for a, b in zip(tidied, tidied[1:])):
        raise InvariantError("two basis elements share a leading term")
    return GroebnerBasis(ctx, nvars, tidied)


def min_p_power_in(gb: GroebnerBasis, g: Poly) -> int:
    """Least t with p^t * g in the ideal of ``gb``; <= m+1 since p^(m+1) = 0."""
    ctx = g.ctx
    for t in range(ctx.m + 2):
        if gb.contains(g * ctx.p**t):
            return t
    raise InvariantError("p^(m+1) annihilates everything")
