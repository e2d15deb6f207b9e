"""Independent oracles the test suite checks the engine against.

Everything here is deliberately naive and engine-free: exhaustive
enumeration, double loops, and closed-form floor arithmetic for powers of a
single variable. Slow but obviously correct on small inputs. Two pieces
are more than naive. The Howell normal form (Storjohann & Mulders 1998)
decides row spans over V, and the brute-force membership search reduces to
it; exhaustive span enumeration checks it in turn. The reference Frobenius
substitution applies a lift one step at a time, as the engine once did,
and reads nothing the lift has memoized. The Frobenius pullback of an
ideal, F^e(J) extended to the whole ring, is that substitution on each
generator; no mode needs it, and the tests check that e descents take it
back to J. Every reference reads a polynomial
through ``exponent_terms``, on exponent tuples, never the engine's packed
monomials. The reference product is the schoolbook double loop with
generator exponent sums and a reduction at every step. The tuple normal
form and digit split are the engine's own algorithms as they ran on tuples,
so their results must match exactly. The reference decomposition is the
engine's earlier correction rounds on whole polynomials, over that digit
split and the reference substitution, so at level 1 the coordinates must
match the engine's exactly too. The engine descends one level at a time;
level e lives here only. The reference decomposition at level e writes f
in the free basis over F^e(R) directly, and the tests check the engine's
level 1 taken e times against it. The reference Groebner completion at
the end is the engine's earlier, non-incremental code that
never retires an element; the engine's minimal bases must generate the same
ideals and give the same membership verdicts. The reference descent bases
follow the definition, with none of the engine's walk: each power f^n,
its reference coordinates at level e, and their completion. The per-n walk is the
engine's earlier level walk, one descent step for every n of every window,
against which the run walk must give the same basis at every n. The
reference residue tree is the engine's earlier full walk over the direct
bases: every level set in full, then the survivors filtered out of it by
the definition, each truncation a survivor one level down. The engine no
longer filters, as the level sets nest by truncation; the filter stays as
the independent check of that, so the tests assert that it keeps every
member and that the engine's level sets, roots and unresolved residues
are the same.
"""

import functools
import heapq
import itertools
import math
import random
from fractions import Fraction
from itertools import product

from bsroots import ChainRingCtx, FrobeniusLift, Poly, nu
from bsroots.errors import InvariantError
from bsroots.groebner import IdealGens, strong_groebner


# Degrevlex with x1 > x2 > ... > xn, spelled here from its definition so
# that an ordering bug in the engine cannot hide in a shared key: the larger
# of two monomials has the larger total degree, or, at equal degree, the
# smaller exponent at the last variable where they differ.


def grevlex_reference_key(mono):
    """Ascending key for degrevlex: the maximum over a support is the lead."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def exhaustive_span(rows, ncols, modulus):
    """Every V-linear combination of the rows, as a frozenset of tuples."""
    span = set()
    for coeffs in product(range(modulus), repeat=len(rows)):
        vec = [0] * ncols
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                vec[i] = (vec[i] + c * x) % modulus
        span.add(tuple(vec))
    if not rows:
        span.add((0,) * ncols)
    return frozenset(span)


def reconstruct_double_loop(residue, modulus, den_bound, num_bound, p):
    """All bounded fractions matching the residue, by scanning the whole box."""
    out = []
    for v in range(1, den_bound + 1):
        if v % p == 0:
            continue
        for u in range(-num_bound, num_bound + 1):
            if math.gcd(u, v) != 1:
                continue
            if (u - residue * v) % modulus == 0:
                out.append(Fraction(u, v))
    return sorted(set(out))


def direct_descent_bases(f, lift, e):
    """Reduced strong bases of I_e(f^n) for n = 0..p^(e+m), straight from
    the definition: the power f^n, its reference coordinates at level e,
    completion."""
    window = f.ctx.p ** (e + f.ctx.m)
    bases = []
    power = Poly.one(f.ctx, f.nvars)
    for n in range(window + 1):
        coords = phi_decompose_reference(power, lift, e).values()
        bases.append(strong_groebner(IdealGens(coords, ctx=f.ctx, nvars=f.nvars)))
        power = power * f
    return bases


def descent_walk(f, lift, top):
    """Yield (e, n, basis elements of I_e(f^n)) for e = 1..top, n = 0..p^(e+m).

    One ``nu.descent_basis`` for every n, in ascending n: the level-e basis
    at n = a + k*p^(e-1+m), a < p^(e-1+m), is the descent of the level-(e-1)
    basis at a times the shift f^(p^m*k) (unshifted at k = 0), and the wrap
    n = p^(e+m) that of the basis at 0 times f^(p^(m+1)). The walk reads
    the powers f^a, a < p^m, and the coordinates of each element times its
    shift off a ``DescentContext`` of its own, whose steps it never takes.
    ``descent_basis`` is read off the module and ``coordinates``, which
    forms through ``DescentContext._formed``, off the class at each call,
    so a test that replaces them replaces them here too.
    """
    p, m = f.ctx.p, f.ctx.m
    descent = nu.DescentContext(f, lift)
    below = [(descent.power(a),) for a in range(p**m)]

    def descend(elems, k):
        coords = [c for g in elems for c in descent.coordinates(g, k)]
        return nu.descent_basis(coords).elements

    for e in range(1, top + 1):
        step = p ** (e - 1 + m)
        level = []
        for k in range(p):
            for a in range(step):
                level.append(descend(below[a], k))
                yield e, a + k * step, level[-1]
        yield e, p * step, descend(below[0], p)
        below = level


def direct_level_set(f, lift, e):
    """Level-e invariants of f from the direct descent bases of its powers."""
    bases = direct_descent_bases(f, lift, e)
    return tuple(n for n in range(len(bases) - 1) if bases[n] != bases[n + 1])


def residue_tree_reference(f, lift, top_level):
    """(level sets, survivors) per level 0..top_level, by full windows.

    Level 0 is the whole window [0, p^m). Level e is the direct level set
    over [0, p^(e+m)); a member survives when it refines a survivor below.
    """
    p, m = f.ctx.p, f.ctx.m
    base = tuple(range(p**m))
    level_sets, survivors = [base], [base]
    for e in range(1, top_level + 1):
        members = direct_level_set(f, lift, e)
        below = set(survivors[-1])
        step = p ** (e - 1 + m)
        level_sets.append(members)
        survivors.append(tuple(r for r in members if r % step in below))
    return tuple(level_sets), tuple(survivors)


def roots_reference(f, lift, top_level, den_bound, num_bound):
    """(roots, unresolved) of the full walk: roots as sorted (fraction,
    residue) pairs, each fraction found by the double loop and with every
    truncation mod p^(e+m) inside the full level-e set."""
    p, m = f.ctx.p, f.ctx.m
    level_sets, survivors = residue_tree_reference(f, lift, top_level)
    roots, unresolved = [], []
    for r in survivors[top_level]:
        fits = [
            a
            for a in reconstruct_double_loop(
                r, p ** (top_level + m), den_bound, num_bound, p
            )
            if all(
                a.numerator * pow(a.denominator, -1, p ** (e + m)) % p ** (e + m)
                in level_sets[e]
                for e in range(top_level + 1)
            )
        ]
        roots.extend((a, r) for a in fits)
        if not fits:
            unresolved.append(r)
    return sorted(roots), tuple(sorted(unresolved))


def monomial_nu_member(a, p, e, n):
    """n is a level-e invariant of x^a iff floor(a*n/p^e) < floor(a*(n+1)/p^e)."""
    return (a * n) // p**e < (a * (n + 1)) // p**e


def monomial_root_set(a, p, m, den_bound, num_bound, depth=12):
    """Bounded fractions whose every truncation is a level invariant of x^a."""
    roots = set()
    for v in range(1, den_bound + 1):
        if v % p == 0:
            continue
        for u in range(-num_bound, num_bound + 1):
            if math.gcd(u, v) != 1:
                continue
            ok = True
            for e in range(1, depth + 1):
                q = p ** (e + m)
                n = (u * pow(v, -1, q)) % q
                if not monomial_nu_member(a, p, e, n):
                    ok = False
                    break
            if ok:
                roots.add(Fraction(u, v))
    return roots


# Exponent arithmetic on exponent tuples, as the engine spelled it before its
# monomials were packed into ints: one generator over ``zip`` per operation.


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_quot(divisor, dividend):
    return tuple(y - x for x, y in zip(divisor, dividend))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def poly_mul_reference(f, g):
    """Schoolbook product, every accumulation reduced mod p^(m+1)."""
    mod = f.ctx.modulus
    acc = {}
    for m1, c1 in f.exponent_terms().items():
        for m2, c2 in g.exponent_terms().items():
            key = mono_mul(m1, m2)
            acc[key] = (acc.get(key, 0) + c1 * c2) % mod
    return Poly(f.ctx, f.nvars, acc)


def random_poly(rng: random.Random, ctx: ChainRingCtx, nvars, max_deg, max_terms):
    """Sparse random polynomial; may be zero or a zerodivisor."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = rng.randrange(ctx.modulus)
    return Poly(ctx, nvars, terms)


def random_unit_poly(rng, ctx, nvars, max_deg, max_terms):
    """Random polynomial guaranteed to have a unit coefficient."""
    while True:
        f = random_poly(rng, ctx, nvars, max_deg, max_terms)
        if f.has_unit_coeff():
            return f


def descent_lifts(ctx):
    """The standard lift of two variables and the lifts of the lift-descent
    workload: corrections x:y, x:x*y, x:x*y+y^2, y:x^2 and y:x+y, alone and
    in pairs."""
    x, y = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
    for_x, for_y = [y, x * y, x * y + y * y], [x * x, x + y]
    return (
        [FrobeniusLift.standard(ctx, 2)]
        + [FrobeniusLift(ctx, 2, [h, None]) for h in for_x]
        + [FrobeniusLift(ctx, 2, [None, h]) for h in for_y]
        + [FrobeniusLift(ctx, 2, [a, b]) for a in for_x for b in for_y]
    )


def int_val(p, n, cap):
    if n % (p**cap) == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@functools.lru_cache(maxsize=16)
def frobenius_reference(lift, e):
    """The map f -> F^e(f), by e single substitution steps xi -> xi^p + p*hi.

    Rebuilds F(xi) from the corrections and keeps its own tables, for every
    call of the map, so it never reads the lift's memo: the powers of each
    F(xi), and the image of each monomial as the product of those powers. A
    power is the square of the power at half the exponent, times F(xi) for
    an odd one, so exponents near 2^30 cost 30 squarings. Equal lifts share
    the map, as F depends on the corrections only.
    """
    ctx, n = lift.ctx, lift.nvars
    images = []
    for i, h in enumerate(lift.corrections):
        xi_p = Poly.monomial(ctx, n, tuple(ctx.p if k == i else 0 for k in range(n)))
        images.append(xi_p if h is None else xi_p + h * ctx.p)
    powers, monomials = {}, {}

    def power(i, k):
        if (i, k) not in powers:
            if k == 0:
                powers[i, k] = Poly.one(ctx, n)
            else:
                half = power(i, k // 2)
                powers[i, k] = half * half * images[i] if k & 1 else half * half
        return powers[i, k]

    def monomial_image(mono):
        if mono not in monomials:
            t = Poly.one(ctx, n)
            for i, k in enumerate(mono):
                t = t * power(i, k)
            monomials[mono] = t.exponent_terms()
        return monomials[mono]

    def apply(f):
        for _ in range(e):
            acc = {}
            for mono, c in f.exponent_terms().items():
                for key, d in monomial_image(mono).items():
                    acc[key] = acc.get(key, 0) + c * d
            f = Poly(ctx, n, acc)
        return f

    return apply


def frobenius_apply_reference(f, lift, e):
    """F^e(f) by ``frobenius_reference``."""
    if f.ctx != lift.ctx or f.nvars != lift.nvars:
        raise ValueError("mixed polynomial rings")
    return frobenius_reference(lift, e)(f)


def frobenius_pullback_ideal(J: IdealGens, lift: FrobeniusLift, e: int) -> IdealGens:
    """Generators of the extension of F^e(J) to the whole ring."""
    return IdealGens(
        [frobenius_apply_reference(g, lift, e) for g in J.gens],
        ctx=J.ctx,
        nvars=J.nvars,
    )


# Matrices over V = Z/p^(m+1) and the Howell normal form.
#
# Row spans over a chain ring are not determined by ordinary echelon forms:
# unit row operations cannot expose the submodule hiding below a pivot like
# 2 * (2, 1) = (0, 2) over Z/4. The Howell form repairs this by adjoining the
# annihilator multiples of every pivot row and is canonical: two matrices
# have the same row span exactly when their Howell forms agree entrywise.
# Span membership reduces to greedy elimination against the form.


class Matrix:
    """Immutable matrix over V with rows reduced into [0, modulus)."""

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: ChainRingCtx, ncols: int, rows):
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        mod = ctx.modulus
        norm = []
        for r in rows:
            r = tuple(int(x) % mod for x in r)
            if len(r) != ncols:
                raise ValueError("row length does not match ncols")
            norm.append(r)
        self.ctx = ctx
        self.ncols = ncols
        self.rows = tuple(norm)
        self.nrows = len(norm)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ctx == self.ctx
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.ctx, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.ctx!r}, ncols={self.ncols}, rows={list(self.rows)})"


def howell_form(mat: Matrix) -> Matrix:
    """Canonical Howell normal form of the row span of ``mat``.

    Worklist elimination: each pending row is reduced against the current
    pivot rows by exact division at the pivot column; a row that improves a
    pivot (smaller valuation) displaces it and the old pivot is re-queued.
    Every installed pivot row p^j * (unit row) contributes its annihilator
    multiple p^(m+1-j) * row back to the worklist, which is what closes the
    span. A final pass reduces entries above each pivot modulo p^j.
    """
    ctx = mat.ctx
    p, mod = ctx.p, ctx.modulus
    pivots = {}  # column -> row (leading entry at that column is p^j)
    pending = [list(r) for r in mat.rows if any(r)]
    while pending:
        r = pending.pop()
        while True:
            lead = next((c for c, x in enumerate(r) if x), None)
            if lead is None:
                break
            v = ctx.val(r[lead])
            q = pivots.get(lead)
            if q is None or ctx.val(q[lead]) > v:
                u_inv = pow(unit_part(ctx, r[lead]), -1, mod)
                r = [(x * u_inv) % mod for x in r]
                pivots[lead] = r
                ann = mod // p**v
                if ann % mod:
                    pending.append([(x * ann) % mod for x in r])
                if q is not None:
                    pending.append(q)
                break
            scale = r[lead] // q[lead]
            r = [(x - scale * y) % mod for x, y in zip(r, q)]
    cols = sorted(pivots)
    out = [list(pivots[c]) for c in cols]
    for i, c in enumerate(cols):
        pj = out[i][c]
        for k in range(i):
            scale = out[k][c] // pj
            if scale:
                out[k] = [(x - scale * y) % mod for x, y in zip(out[k], out[i])]
    return Matrix(ctx, mat.ncols, out)


def spans_equal(a: Matrix, b: Matrix) -> bool:
    if a.ctx != b.ctx or a.ncols != b.ncols:
        raise ValueError("span comparison requires matching ring and width")
    return howell_form(a).rows == howell_form(b).rows


def span_contains(mat: Matrix, vec) -> bool:
    """Whether ``vec`` lies in the row span of ``mat``.

    Reduces the vector greedily against the Howell form: at each pivot
    column the entry must be divisible by the pivot p^j, otherwise the
    vector escapes the span.
    """
    ctx = mat.ctx
    mod = ctx.modulus
    v = [int(x) % mod for x in vec]
    if len(v) != mat.ncols:
        raise ValueError("vector length does not match ncols")
    for row in howell_form(mat).rows:
        c = next((i for i, x in enumerate(row) if x), None)
        if c is None:
            continue
        if v[c] == 0:
            continue
        if v[c] % row[c]:
            return False
        scale = v[c] // row[c]
        v = [(x - scale * y) % mod for x, y in zip(v, row)]
    return not any(v)


def _monomials_upto(nvars, cap):
    for total in range(cap + 1):
        for bars in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            parts = []
            for b in bars:
                parts.append(b - prev - 1)
                prev = b
            parts.append(total + nvars - 1 - prev - 1)
            yield tuple(parts)


def membership_bruteforce(J, g, degree_cap):
    """Certificate search: is g a V-combination of mu * f_i, deg(mu) <= cap?

    Returns True on success and None when no certificate exists within the
    cap; None is inconclusive, not a refutation. Independent of the Groebner
    machinery: reduces to a row-span membership over V.
    """
    ctx, nvars = J.ctx, J.nvars
    if g.is_zero():
        return True
    products = []
    for f in J.gens:
        for mu in _monomials_upto(nvars, degree_cap):
            products.append(f * Poly.monomial(ctx, nvars, mu))
    products = [q.exponent_terms() for q in products]
    g_terms = g.exponent_terms()
    columns = sorted(
        {m for q in products for m in q} | set(g_terms),
        key=grevlex_reference_key,
        reverse=True,
    )
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for q in products:
        row = [0] * len(columns)
        for m, c in q.items():
            row[index[m]] = c
        rows.append(row)
    vec = [0] * len(columns)
    for m, c in g_terms.items():
        vec[index[m]] = c
    if span_contains(Matrix(ctx, len(columns), rows), vec):
        return True
    return None


# Strong Groebner completion and normal form as they were before completion
# became incremental and minimal: the basis index is rebuilt on every
# insertion, each reduction step builds new polynomials, and no element is
# ever retired. Completion and reduction recompute leading terms from the
# support, so they do not read Poly's cache.


def _lt(g):
    """Leading exponent tuple and coefficient, from the decoded support."""
    terms = g.exponent_terms()
    if not terms:
        raise ValueError("zero polynomial has no leading term")
    mono = max(terms, key=grevlex_reference_key)
    return mono, terms[mono]


def head_key_reference(g):
    """Descending degrevlex on the leading monomial, then ascending coefficient."""
    lm, lc = _lt(g)
    degree, rest = grevlex_reference_key(lm)
    return ((-degree, tuple(-e for e in rest)), lc)


def gen_sort_key(g):
    """A total order on polynomials: the head key, then every term, largest
    first. The reference basis keeps elements that share a leading term, so
    its sort needs the tail to be deterministic."""
    terms = g.exponent_terms()
    monos = sorted(terms, key=grevlex_reference_key, reverse=True)
    tail = tuple((grevlex_reference_key(m), terms[m]) for m in monos)
    return head_key_reference(g) + (tail,)


class ReferenceBasis:
    """Element tuple plus the (lm, lc, element) index, built in one go."""

    def __init__(self, ctx, nvars, elements):
        self.ctx = ctx
        self.nvars = nvars
        self.elements = tuple(elements)
        self._lts = tuple(_lt(g) + (g,) for g in self.elements)


def _normalize_unit_reference(g):
    u = unit_part(g.ctx, _lt(g)[1])
    if u == 1:
        return g
    return g * pow(u, -1, g.ctx.modulus)


def unit_part(ctx, x):
    """The unit u with x = u * p^val(x) in V; unit_part(ctx, 0) = 1."""
    x %= ctx.modulus
    if x == 0:
        return 1
    while x % ctx.p == 0:
        x //= ctx.p
    return x


def divide_exact(ctx, a, b):
    """Least nonnegative q with q*b = a in V, or None if none exists.

    A quotient exists exactly when val(b) <= val(a). The solution class is
    q0 + p^(m+1-val(b)) * V; the least representative is returned.
    """
    a %= ctx.modulus
    b %= ctx.modulus
    jb = ctx.val(b)
    if ctx.val(a) < jb:
        return None
    if b == 0:
        return 0
    q = (a * pow(unit_part(ctx, b), -1, ctx.modulus)) % ctx.modulus
    q //= ctx.p**jb
    return q % (ctx.modulus // ctx.p**jb)


def normal_form_reference(g, basis):
    """Remainder of g by a ReferenceBasis, first divisor first."""
    ctx = g.ctx
    out = {}
    work = g
    while not work.is_zero():
        mono, c = _lt(work)
        cval = ctx.val(c)
        hit = None
        for lm, lc, b in basis._lts:
            if ctx.val(lc) <= cval and mono_divides(lm, mono):
                hit = (lm, lc, b)
                break
        if hit is None:
            out[mono] = c
            work = work - Poly.monomial(ctx, g.nvars, mono, c)
        else:
            lm, lc, b = hit
            q = divide_exact(ctx, c, lc)
            work = work - b * Poly.monomial(ctx, g.nvars, mono_quot(lm, mono), q)
    return Poly(ctx, g.nvars, out)


def normal_form_tuple_reference(g, elements):
    """The engine's normal form as it ran on exponent tuples, before its
    monomials were packed: the same division order and the same canonical
    remainders, with tuple keys, a tuple heap and the tuple kernels above."""
    ctx = g.ctx
    mod = ctx.modulus
    index = [_lt(b) + (b.exponent_terms(),) for b in elements]

    def heap_key(mono):  # ascending order is descending degrevlex
        return (-sum(mono), mono[::-1]), mono

    work = g.exponent_terms()
    heap = [heap_key(mono) for mono in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        c = work.pop(mono, 0)
        if not c:
            continue
        for lm, lc, terms in index:
            if lc > c or not mono_divides(lm, mono):
                continue
            q, c = divmod(c, lc)
            shift = mono_quot(lm, mono)
            for bm, bc in terms.items():
                if bm == lm:
                    continue
                t = mono_mul(bm, shift)
                old = work.get(t)
                new = ((old or 0) - q * bc) % mod
                if new:
                    work[t] = new
                    if old is None:
                        heapq.heappush(heap, heap_key(t))
                elif old is not None:
                    del work[t]
            if not c:
                break
        else:
            out[mono] = c
    return Poly(ctx, g.nvars, out)


def split_base_q_reference(f, q):
    """Sorted (alpha, {beta: c}) digit classes of x^(q*beta + alpha) terms."""
    comps = {}
    for mono, c in f.exponent_terms().items():
        alpha = tuple(e % q for e in mono)
        comps.setdefault(alpha, {})[tuple(e // q for e in mono)] = c
    return sorted(comps.items())


def phi_decompose_reference(f, lift, e):
    """Coordinates {alpha: g_alpha} of f in the free basis over F^e(R),
    alpha in [0, p^e)^n, by the engine's earlier rounds on whole
    polynomials.

    Each round splits the pending remainder into its digit classes, adds
    each class g into the coordinate at alpha, and subtracts the sum of the
    rebuilt F^e(g) * x^alpha (``frobenius_reference``); after m+1 rounds
    nothing may be left.
    """
    ctx, n = f.ctx, f.nvars
    frobenius = frobenius_reference(lift, e)
    acc = {}
    pending = f
    for _ in range(ctx.m + 1):
        rebuilt = Poly.zero(ctx, n)
        for alpha, terms in split_base_q_reference(pending, ctx.p**e):
            g = Poly(ctx, n, terms)
            acc[alpha] = acc.get(alpha, Poly.zero(ctx, n)) + g
            shift = Poly.monomial(ctx, n, alpha)
            rebuilt = rebuilt + frobenius(g) * shift
        pending = pending - rebuilt
    if not pending.is_zero():
        raise InvariantError("decomposition failed to converge")
    return {alpha: g for alpha, g in sorted(acc.items()) if not g.is_zero()}


def _s_poly_reference(f, g):
    ctx = f.ctx
    lmf, lcf = _lt(f)
    lmg, lcg = _lt(g)
    gamma = mono_lcm(lmf, lmg)
    jf, jg = ctx.val(lcf), ctx.val(lcg)
    j = max(jf, jg)
    sf = poly_mul_reference(
        f, Poly.monomial(ctx, f.nvars, mono_quot(lmf, gamma), ctx.p ** (j - jf))
    )
    sg = poly_mul_reference(
        g, Poly.monomial(ctx, g.nvars, mono_quot(lmg, gamma), ctx.p ** (j - jg))
    )
    return sf - sg


def _annihilator_step_reference(g):
    ctx = g.ctx
    jmax = max(ctx.val(c) for c in g.terms.values())
    a = g * ctx.p ** (ctx.m + 1 - jmax)
    return None if a.is_zero() else a


def strong_groebner_reference(J):
    """Completed, tidied and sorted strong basis of the IdealGens J."""
    ctx, nvars = J.ctx, J.nvars
    elements = []
    seen = set()
    pairs = []
    counter = itertools.count()

    def push_pairs(h):
        k = len(elements) - 1
        for i in range(k):
            gamma = mono_lcm(_lt(elements[i])[0], _lt(h)[0])
            heapq.heappush(pairs, (sum(gamma), next(counter), i, k))

    def add(h, reduce_first):
        if reduce_first:
            h = normal_form_reference(h, ReferenceBasis(ctx, nvars, elements))
        if h.is_zero():
            return
        h = _normalize_unit_reference(h)
        if h in seen:
            return
        seen.add(h)
        elements.append(h)
        push_pairs(h)
        a = _annihilator_step_reference(h)
        if a is not None:
            add(a, reduce_first=False)

    for g in J.gens:
        add(g, reduce_first=False)
    while pairs:
        _, _, i, k = heapq.heappop(pairs)
        add(_s_poly_reference(elements[i], elements[k]), reduce_first=True)

    final = ReferenceBasis(ctx, nvars, elements)
    tidied = []
    for g in elements:
        mono, c = _lt(g)
        head = Poly.monomial(ctx, nvars, mono, c)
        tidied.append(head + normal_form_reference(g - head, final))
    tidied.sort(key=gen_sort_key)
    return ReferenceBasis(ctx, nvars, tidied)
