"""Strong Groebner bases over V = Z/p^(m+1).

Over a coefficient ring with zerodivisors a basis must certify leading
terms, not only leading monomials: the term c * x^b reduces by g only when
lm(g) divides x^b and val(lc(g)) <= val(c). Completion therefore closes the
generators under two kinds of syzygies:

  * S-polynomials match leading monomials at the lcm and leading
    coefficients at the common power p^max(val, val);
  * the annihilator multiple Ann(lc(g)) * g = p^(m+1-v) * g of an element
    g with lc(g) = p^v (the A-polynomial of Norton and Salagean) kills the
    leading term and keeps the terms of valuation below v. It is inserted
    as soon as g is, and unreduced: its leading term is often reducible
    while its tail carries new information, and reduction first would lose
    it. Its own multiple follows, until a unit leading coefficient ends the
    chain. A multiple p^s * g that kills only a lower layer keeps lm(g), so
    g dominates it, S(g, p^s * g) = 0, and S(p^s * g, k) = p^c * S(g, k)
    with c = max(v+s, v_k) - max(v, v_k), as both pairs share the lcm
    monomial: a representation of S(g, k) gives one of S(p^s * g, k), and
    such multiples are never inserted.

Completion follows the sugar strategy (Giovini, Mora, Niesi, Robbiano and
Traverso, ISSAC 1991). One queue holds the generators and the pairs, lowest
sugar first: a generator's sugar is its degree, a pair's the degree of the
lcm of its leading monomials, and a generator pops ahead of the pairs of its
sugar. A popped generator is reduced by the basis built so far, as an
S-polynomial is, and only a nonzero remainder is inserted, so a generator
already in the ideal built so far forms no pairs. The first generator to pop
meets an empty basis and goes in as it is.

The basis is kept minimal. It grows by insertion, and its leading-term index
with it. A new element h with leading term (lm, v = val(lc)) retires every
unretired g with v <= val(lc(g)) and lm | lm(g); if an unretired element
dominates h in the same way, h starts out retired. h is paired with every
unretired element before anything retires: the S-polynomial g - c * x^a * h
of a g that h dominates carries g's tail, and dropping that pair loses it.
Retired elements keep the pairs already queued for them, but they form no
new pairs and drop out of the index that reduction scans (Buchberger's
minimal-basis step, for strong bases over a chain ring as in Norton and
Salagean).

Buchberger's chain criterion, in the form of Gebauer and Moeller (J. Symb.
Comp. 1988), skips pairs. Elements are numbered by insertion. A popped pair
(i, j) is first marked treated; it is then skipped when an unretired element
k outside {i, j} has a leading term dividing the pair's lcm term
T_ij = p^max(v_i, v_j) * x^lcm and both (i, k) and (j, k) are treated. Every
leading coefficient is an exact power of p, so T_ik and T_kj divide T_ij
with quotients p^a * x^b, and the S-polynomials satisfy

  S_ij = (T_ij / T_ik) * S_ik + (T_ij / T_kj) * S_kj

exactly: a representation of S_ik and of S_kj below their lcm terms gives one
of S_ij below T_ij. A skip rests only on pairs treated before it, so the
argument is well founded. It also keeps every retired element's tail: that
tail is carried by a pair (g, d) with d dominating g, whose lcm term is
lt(g), so a k that skips it dominates g as well and (g, k) was treated
earlier. The first treated of these pairs is therefore reduced. Pairs
through g that would have formed after g retired were never formed, so they
are never treated and never allow a skip.

No insertion is checked against the earlier ones. A reduced insertion is a
nonzero normal form, whose leading term no unretired element certifies,
while every earlier element is certified by an unretired one (itself, or
what retired it). So it never repeats an earlier element, and it enlarges
the ideal of leading terms, which can grow only finitely often; each link
of an annihilator chain is a multiple of the one before by p^(m+1-v) with
v <= m, so an insertion brings at most m of them, and completion ends.

Elements are unit-normalized (leading coefficient an exact power of p); the
result holds the unretired elements only, each tail reduced by them, sorted
by leading term, which no two elements share (completion checks it); the
unit ideal completes to (1,). Reduction leaves every remaining coefficient
at its canonical coset representative, so the result is the reduced strong
basis of the ideal. It is unique over a finite chain ring (Norton and
Salagean, "Strong Groebner bases and cyclic codes over a finite-chain
ring", 2001): two generating sets of one ideal complete to the same tuple,
and ideal equality is a tuple comparison.

Completion works on plain term dicts, packed monomial to coefficient, and
builds a ``Poly`` only for what it keeps. One reducer, ``_reduce``, serves
completion, the tidy step and membership: it consumes a term dict whose
coefficients may be any ints, reduces each mod p^(m+1) as its monomial pops
from the heap, and yields the remainder's terms in descending monomial
order, so the first is the leading term; a membership query stops there.
S-polynomials reach it as such dicts, with unreduced coefficients. An
inserted remainder is unit-normalized in one pass over its terms and becomes
a ``Poly`` once, leading monomial preset; its annihilator multiple is built
from the terms of valuation below the leading coefficient's, and not at all
when that is a unit. The tidy step reduces each element's tail dict and puts
the head back in front of it.
"""

from __future__ import annotations

import heapq
import itertools

from .chainring import ChainRingCtx
from .errors import InvariantError
from .poly import Poly, guard_bits, head_key, lcm, mono_degree


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


class GroebnerBasis:
    """Completed strong basis; supports membership queries.

    ``_lts`` is the leading-term index that reduction scans: one
    (lm, val(lc), lc, element, index) entry per unretired element, in basis
    order. A completed basis retires nothing, so its index covers
    ``elements``, each numbered by its position; during completion only the
    index grows and shrinks, and the numbers are insertion indices. Every
    leading coefficient must be an exact power of p, which reduction relies
    on.
    """

    __slots__ = ("ctx", "nvars", "elements", "_lts")

    def __init__(self, ctx, nvars, elements):
        self.ctx = ctx
        self.nvars = nvars
        self.elements = tuple(elements)
        self._lts = []
        for i, g in enumerate(self.elements):
            lm, lc = g.leading_term()
            v = ctx.val(lc)
            if lc != ctx.p**v:
                raise ValueError(
                    f"leading coefficient {lc} of a basis element "
                    f"is not a power of p={ctx.p}"
                )
            self._lts.append((lm, v, lc, g, i))

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

    def __repr__(self):
        return f"GroebnerBasis({list(self.elements)!r})"

    def contains(self, g: Poly) -> bool:
        """Whether g is in the ideal; stops at the first term that survives
        reduction, as one nonzero remainder term refutes membership."""
        rest = _reduce(dict(g.terms), self._lts, g.ctx.modulus, guard_bits(g.nvars))
        return next(rest, None) is None


def _reduce(work, lts, mod, guards):
    """Canonical remainder of the term dict ``work`` by the index ``lts``.

    ``work`` is consumed, and its coefficients may be any ints: each is
    reduced mod p^(m+1) when its monomial pops, and a zero one is dropped.
    A term c * x^b is divided by each element whose lm divides x^b, in index
    order, and left as c mod lc; over a completed basis the least such lc
    generates the leading coefficients of the ideal at x^b, so the remainder
    is one on each coset of the ideal, and zero on it. Yields its terms
    (monomial, coefficient), reduced and nonzero, in descending monomial
    order, so the first is its leading term; a caller that stops early
    leaves the lower terms unreduced.
    """
    heap = [-mono for mono in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        mono = -pop(heap)
        c = work.pop(mono) % mod
        if not c:
            continue
        for lm, _, lc, b, _ in lts:
            # c < lc leaves the quotient 0: nothing to do
            if lc > c or (lm - mono) & guards:
                continue
            q, c = divmod(c, lc)
            shift = mono - lm
            for bm, bc in b.terms.items():
                if bm == lm:
                    continue
                # every new monomial is below mono, so none has popped yet
                t = bm + shift
                old = work.get(t)
                if old is None:
                    work[t] = -q * bc
                    push(heap, -t)
                else:
                    work[t] = old - q * bc
            if not c:
                break
        else:
            yield mono, c


def _s_poly(f: Poly, g: Poly, gamma) -> dict:
    """p^(j-jf) * x^uf * f - p^(j-jg) * x^ug * g, as a term dict.

    x^uf * lm(f) = x^ug * lm(g) = gamma, the packed lcm(lm(f), lm(g)) that
    the pair's queue entry already holds; jf and jg are the valuations of
    the leading coefficients and j = max(jf, jg). Both
    arguments must be unit-normalized, lc = p^v exactly: then both scaled
    leading terms are p^j at the lcm and cancel exactly, so neither is built.
    The coefficients are left unreduced, for the reducer.
    """
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    top = max(lcf, lcg)  # p^j
    uf, cf = gamma - lmf, top // lcf
    ug, cg = gamma - lmg, top // lcg
    acc = {m + uf: c * cf for m, c in f.terms.items() if m != lmf}
    get = acc.get
    for m, c in g.terms.items():
        if m != lmg:
            t = m + ug
            acc[t] = get(t, 0) - c * cg
    return acc


def _annihilator(terms, lc, mod):
    """Terms of Ann(lc) * g = p^(m+1-v) * g, for ``terms`` those of the
    unit-normalized g with lc = p^v: those that lc does not divide, the
    valuations below v, multiplied. None when lc is a unit ends the chain.
    """
    k = mod // lc
    return {mono: c * k % mod for mono, c in terms.items() if c % lc} or None


def strong_groebner(J) -> GroebnerBasis:
    """The reduced strong basis of the ideal the ``IdealGens`` ``J`` span."""
    ctx, nvars = J.ctx, J.nvars
    p, mod = ctx.p, ctx.modulus
    guards = guard_bits(nvars)
    lts = []  # the leading-term index, as in GroebnerBasis._lts
    elements = []  # (element, val(lc)) of every insertion, by insertion index
    treated = set()  # pairs (i, j), i < j, of insertion indices
    counter = itertools.count()
    # a queue entry is (sugar, tie, i, j, lcm) for the pair of elements i < j
    # and (degree, tie, g, None, None) for a generator g; generators are
    # pushed first, so each pops ahead of the pairs of its sugar
    queue = [(g.degree(), next(counter), g, None, None) for g in J.gens]
    heapq.heapify(queue)

    def add(h, lm):
        """Insert the reduced nonzero terms h, leading monomial lm, and then
        the annihilator multiples of the insertion."""
        while h is not None:
            # lc = u * p^v: find both in one pass, and scale h by 1/u
            u, v = h[lm], 0
            while not u % p:
                u //= p
                v += 1
            if u != 1:
                inv = pow(u, -1, mod)
                h = {mono: c * inv % mod for mono, c in h.items()}
            lc = h[lm]
            g = Poly._from_reduced(ctx, nvars, h, lm)
            j = len(elements)
            elements.append((g, v))
            # pair g with every unretired element before anything retires:
            # the pair (d, g) of an element d that g dominates carries d's tail
            dominated = dominates = False
            for glm, gval, _, _, i in lts:
                gamma = lcm(glm, lm, nvars)
                heapq.heappush(
                    queue, (mono_degree(gamma, nvars), next(counter), i, j, gamma)
                )
                if gval <= v and not ((glm - lm) & guards):
                    dominated = True
                elif v <= gval and not ((lm - glm) & guards):
                    dominates = True
            if not dominated:
                if dominates:
                    lts[:] = [t for t in lts if t[1] < v or (lm - t[0]) & guards]
                lts.append((lm, v, lc, g, j))
            # the annihilator multiple goes in unreduced
            h = _annihilator(h, lc, mod)
            if h is not None:
                lm = max(h)

    while queue:
        _, _, i, j, gamma = heapq.heappop(queue)
        if gamma is None:  # a generator, held in the slot of i
            if lts:
                h = dict(_reduce(dict(i.terms), lts, mod, guards))
                if h:
                    add(h, next(iter(h)))
            else:  # nothing to reduce by: the generator goes in as it is
                add(i.terms, i.leading_monomial())
            continue
        treated.add((i, j))
        (gi, vi), (gj, vj) = elements[i], elements[j]
        v = max(vi, vj)
        # the chain criterion: an unretired k whose leading term divides the
        # lcm term p^v * x^gamma, with (i, k) and (j, k) both treated
        for klm, kval, _, _, k in lts:
            if (
                kval <= v
                and not ((klm - gamma) & guards)
                and k != i
                and k != j
                and ((i, k) if i < k else (k, i)) in treated
                and ((j, k) if j < k else (k, j)) in treated
            ):
                break
        else:
            h = dict(_reduce(_s_poly(gi, gj, gamma), lts, mod, guards))
            if h:
                add(h, next(iter(h)))

    # each tail reduced by the others; a tail's monomials all lie below its
    # head, and reduction only lowers them, so the head stays first
    tidied = []
    for lm, _, lc, g, _ in lts:
        tail = {m: c for m, c in g.terms.items() if m != lm}
        h = {lm: lc}
        h.update(_reduce(tail, lts, mod, guards))
        tidied.append(Poly._from_reduced(ctx, nvars, h, lm))
    tidied.sort(key=head_key)
    if any(head_key(a) == head_key(b) for a, b in zip(tidied, tidied[1:])):
        raise InvariantError("two basis elements share a leading term")
    return GroebnerBasis(ctx, nvars, tidied)


def min_p_power_in(gb: GroebnerBasis, g: Poly) -> int:
    """Least t with p^t * g in the ideal of ``gb``; m+1 when no t <= m
    works, as p^(m+1) * g = 0."""
    ctx = g.ctx
    for t in range(ctx.m + 1):
        if gb.contains(g * ctx.p**t):
            return t
    return ctx.m + 1
