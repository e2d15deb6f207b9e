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

Completion is incremental: one basis grows by appending, and its
leading-term index with it. Elements are unit-normalized (leading
coefficient an exact power of p), each tail is reduced by the completed
basis at the end, and the result is sorted. The result is deterministic for
a given generating set, but no redundant element is removed, so generating
sets of one ideal can complete to different tuples: (x) gives (x,) while
(x, x*y) gives (x*y, x). Tuples become canonical across generating sets only
once bases are reduced.
"""

from __future__ import annotations

import heapq
import itertools

from .cartier import _gen_sort_key
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

    ``_lts`` is the leading-term index that reduction scans, one
    (lm, val(lc), lc, element) entry per element in basis order.
    """

    __slots__ = ("ctx", "nvars", "elements", "_lts")

    def __init__(self, ctx, nvars, elements):
        self.ctx = ctx
        self.nvars = nvars
        self.elements = ()
        self._lts = []
        for g in elements:
            self._append(g)

    def _append(self, g: Poly):
        """Grow the basis by g; only completion calls this, before it returns."""
        lm, lc = g.leading_term()
        self.elements += (g,)
        self._lts.append((lm, self.ctx.val(lc), lc, g))

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
    return Poly(ctx, g.nvars, out)


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
    seen = set()
    pairs = []
    counter = itertools.count()

    def push_pairs(h):
        elements = live.elements
        k = len(elements) - 1
        for i in range(k):
            gamma = mono_lcm(elements[i].leading_monomial(), h.leading_monomial())
            heapq.heappush(pairs, (sum(gamma), next(counter), i, k))

    def add(h: Poly, reduce_first: bool):
        if reduce_first:
            h = normal_form(h, live)
        if h.is_zero():
            return
        h = _normalize_unit(h)
        if h in seen:
            return
        seen.add(h)
        live._append(h)
        push_pairs(h)
        a = _annihilator_step(h)
        if a is not None:
            add(a, reduce_first=False)

    for g in J.gens:
        add(g, reduce_first=False)
    while pairs:
        _, _, i, k = heapq.heappop(pairs)
        add(_s_poly(live.elements[i], live.elements[k]), reduce_first=True)

    tidied = []
    for g in live.elements:
        mono, c = g.leading_term()
        head = Poly.monomial(ctx, nvars, mono, c)
        tidied.append(head + normal_form(g - head, live))
    tidied.sort(key=_gen_sort_key)
    return GroebnerBasis(ctx, nvars, tidied)


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
