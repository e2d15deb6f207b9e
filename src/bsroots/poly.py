"""Sparse multivariate polynomials over V = Z/p^(m+1).

A polynomial is a map from monomials to nonzero residues. The ambient
monomial order everywhere is degree reverse lexicographic with
x1 > x2 > ... > xn: the total degree first, then, among monomials of equal
degree, the least reversed exponent tuple (xn, ..., x1) is the largest.

A monomial x^e in n variables is stored as one int, its packed key, after
Monagan and Pearce ("Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007). The exponents sit in fields of
W = 32 bits, x1 in the lowest: L = sum e_i << (i*W). The key is
P = (deg << n*W) - L, and

  * P is linear in the exponents: a product of monomials is ``+`` and an
    exact quotient is ``-``;
  * P orders like degrevlex: the degree first, then the smaller L, which is
    the least reversed tuple. So the leading monomial is ``max(terms)`` and
    ``sorted(terms, reverse=True)`` is descending order;
  * the fields come back as L = (-P) & (2^(n*W) - 1), and the top bit of
    each field is a guard bit: a divides b exactly when (a - b) & guards is
    0, since a field of b below the same field of a borrows and sets its
    guard.

Every exponent and every total degree stays below ``EXPONENT_LIMIT`` = 2^31,
so no field ever reaches its guard bit. The public constructor, ``term_mul``,
products, powers and S-pair lcms check this from their operands' degrees and
raise ``DegreeLimitError``, a ``ValueError``; nothing wraps. The public entry
points take exponent tuples, and ``exponent_terms`` is the one decoded view
of the packed ``terms``. ``head_key`` extends the order to polynomials by
their leading term, the one order that generator lists and completed bases
are kept in.

``FrobeniusLift`` models ring endomorphisms F with F(xi) = xi^p + p*hi and
F identity on coefficients. ``phi_decompose`` inverts the induced module
structure: it writes f uniquely as sum over alpha in [0, p^e)^n of
F^e(g_alpha) * x^alpha, the coordinates the descent operators act on.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from .chainring import ChainRingCtx
from .errors import DegreeLimitError, InvariantError

NEG_INF = float("-inf")

FIELD_BITS = 32
FIELD_MASK = (1 << FIELD_BITS) - 1
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)


@lru_cache(maxsize=None)
def _layout(nvars):
    """(mask of the n fields, their guard bits, struct of n uint32 fields)."""
    return (
        (1 << nvars * FIELD_BITS) - 1,
        sum(EXPONENT_LIMIT << i * FIELD_BITS for i in range(nvars)),
        struct.Struct(f"<{nvars}I"),
    )


def guard_bits(nvars):
    """Guard mask of n fields: a divides b exactly when (a - b) & mask == 0."""
    return _layout(nvars)[1]


def _check_degree(deg):
    if deg >= EXPONENT_LIMIT:
        raise DegreeLimitError(
            f"total degree {deg} reaches 2^31, the limit of packed monomials"
        )


def _pack(exps, nvars):
    """Packed key of nonnegative exponents; refuses a degree >= 2^31."""
    deg = sum(exps)
    _check_degree(deg)
    low = int.from_bytes(_layout(nvars)[2].pack(*exps), "little")
    return (deg << nvars * FIELD_BITS) - low


def pack(mono, nvars):
    """Packed key of an exponent tuple, which is validated."""
    mono = tuple(int(e) for e in mono)
    if len(mono) != nvars or any(e < 0 for e in mono):
        raise ValueError(f"bad exponent tuple {mono} for {nvars} variables")
    return _pack(mono, nvars)


def unpack(mono, nvars):
    """Exponent tuple of a packed key."""
    low, _, fields = _layout(nvars)
    return fields.unpack((-mono & low).to_bytes(4 * nvars, "little"))


def mono_degree(mono, nvars):
    """Total degree of a packed key: P / 2^(n*W), rounded up."""
    return -(-mono >> nvars * FIELD_BITS)


def lcm(a, b, nvars):
    """Packed least common multiple of two packed keys; refuses a degree
    >= 2^31.

    The field-wise max works on all fields at once: (a | guards) - b leaves
    the guard bit of a field set exactly where a's exponent is the larger or
    equal one, with no borrow between fields, and that bit widens into a
    mask of the whole field. The degree is the sum of the fields, which is
    the fields mod 2^W - 1 because 2^W = 1 there; the sum is at most
    deg(a) + deg(b) < 2^W - 1, so the residue is the sum itself.
    """
    low, guards, _ = _layout(nvars)
    a, b = -a & low, -b & low
    ge = ((a | guards) - b) & guards
    ge |= ge - (ge >> FIELD_BITS - 1)
    top = (a & ge) | (b & ~ge)
    deg = top % FIELD_MASK
    _check_degree(deg)
    return (deg << nvars * FIELD_BITS) - top


def head_key(g):
    """Sort key of a nonzero polynomial by its leading term: leading monomials
    in descending degrevlex, then leading coefficients in ascending order."""
    lm = g.leading_monomial()
    return -lm, g.terms[lm]


class Poly:
    """Immutable sparse polynomial; ``terms`` maps packed monomials to
    coefficients.

    The hash and the leading monomial are computed on first use and cached.
    """

    __slots__ = ("ctx", "nvars", "terms", "_hash", "_lm")

    def __init__(self, ctx: ChainRingCtx, nvars: int, terms=None):
        mod = ctx.modulus
        clean = {}
        for mono, c in (terms or {}).items():
            c = int(c) % mod
            if c:
                clean[pack(mono, nvars)] = c
        self.ctx = ctx
        self.nvars = nvars
        self.terms = clean
        self._hash = None
        self._lm = None

    @classmethod
    def _from_terms(cls, ctx: ChainRingCtx, nvars: int, terms) -> "Poly":
        """Internal constructor for the results of arithmetic on polynomials.

        Reduces coefficients mod p^(m+1) and drops zeros like the public
        constructor, but trusts the packed monomials, which arithmetic on
        valid polynomials keeps valid; re-checking them dominated the cost of
        small products and sums.
        """
        mod = ctx.modulus
        return cls._from_reduced(
            ctx, nvars, {mono: r for mono, c in terms.items() if (r := c % mod)}
        )

    @classmethod
    def _from_reduced(cls, ctx: ChainRingCtx, nvars: int, terms, lm=None) -> "Poly":
        """Internal constructor that keeps ``terms`` as it is: packed
        monomials with coefficients already reduced mod p^(m+1) and nonzero.
        A caller that knows the leading monomial passes it as ``lm``."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.nvars = nvars
        self.terms = terms
        self._hash = None
        self._lm = lm
        return self

    @classmethod
    def zero(cls, ctx, nvars):
        return cls(ctx, nvars)

    @classmethod
    def const(cls, ctx, nvars, c):
        return cls(ctx, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, ctx, nvars):
        return cls.const(ctx, nvars, 1)

    @classmethod
    def variable(cls, ctx, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        mono = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(ctx, nvars, {mono: 1})

    @classmethod
    def monomial(cls, ctx, nvars, mono, c=1):
        return cls(ctx, nvars, {tuple(mono): c})

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return mono_degree(self.leading_monomial(), self.nvars)

    def exponent_terms(self):
        """The terms keyed by exponent tuples instead of packed monomials."""
        n = self.nvars
        return {unpack(mono, n): c for mono, c in self.terms.items()}

    def sorted_terms(self):
        """Terms in descending monomial order, keyed by packed monomials."""
        return sorted(self.terms.items(), reverse=True)

    def leading_monomial(self):
        """Packed leading monomial, the largest key."""
        # only the monomial is cached: a (monomial, coefficient) pair per
        # polynomial raised peak memory measurably
        if self._lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            self._lm = max(self.terms)
        return self._lm

    def leading_term(self):
        mono = self.leading_monomial()
        return mono, self.terms[mono]

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def has_unit_coeff(self):
        """True iff f is a nonzerodivisor on V[x], i.e. some coefficient is a unit."""
        p = self.ctx.p
        return any(c % p for c in self.terms.values())

    def with_ctx(self, ctx: ChainRingCtx) -> "Poly":
        """Reinterpret the integer coefficients over another chain ring."""
        return Poly._from_terms(ctx, self.nvars, self.terms)

    def _binop(self, other, sign):
        if isinstance(other, int):
            other = Poly.const(self.ctx, self.nvars, other)
        if (other.ctx is not self.ctx and other.ctx != self.ctx) or (
            other.nvars != self.nvars
        ):
            raise ValueError("mixed polynomial rings")
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            acc[mono] = acc.get(mono, 0) + sign * c
        return Poly._from_terms(self.ctx, self.nvars, acc)

    def __add__(self, other):
        return self._binop(other, 1)

    def __radd__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return Poly._from_terms(
            self.ctx, self.nvars, {m: -c for m, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if other % self.ctx.modulus == 0:
                return Poly.zero(self.ctx, self.nvars)
            return Poly._from_terms(
                self.ctx, self.nvars, {m: c * other for m, c in self.terms.items()}
            )
        if (other.ctx is not self.ctx and other.ctx != self.ctx) or (
            other.nvars != self.nvars
        ):
            raise ValueError("mixed polynomial rings")
        if not self.terms or not other.terms:
            return Poly.zero(self.ctx, self.nvars)
        _check_degree(
            mono_degree(self.leading_monomial() + other.leading_monomial(), self.nvars)
        )
        acc = {}
        get = acc.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                key = m1 + m2
                acc[key] = get(key, 0) + c1 * c2
        return Poly._from_terms(self.ctx, self.nvars, acc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def term_mul(self, mono, c):
        """Multiply by the single term c * x^mono, mono an exponent tuple."""
        shift = pack(mono, self.nvars)
        if self.terms:
            _check_degree(mono_degree(self.leading_monomial() + shift, self.nvars))
        return Poly._from_terms(
            self.ctx, self.nvars, {m + shift: cc * c for m, cc in self.terms.items()}
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        # refused up front: the squarings would build huge powers first
        _check_degree(max(self.degree(), 0) * n)
        result = Poly.one(self.ctx, self.nvars)
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and (other.ctx is self.ctx or other.ctx == self.ctx)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self.nvars, frozenset(self.terms.items())))
        return self._hash

    def to_string(self, names=None):
        """Render in the surface syntax accepted by the expression parser."""
        if names is None:
            names = [f"x{i+1}" for i in range(self.nvars)]
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            mono = unpack(mono, self.nvars)
            factors = [str(c)] if (c != 1 or sum(mono) == 0) else []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<Poly {self.to_string()} over Z/{self.ctx.modulus}>"


class FrobeniusLift:
    """Endomorphism of V[x1..xn] with F(xi) = xi^p + p*hi, identity on V.

    Equality and hashing read the corrections, never the memo of images.
    """

    __slots__ = ("ctx", "nvars", "corrections", "_powers")

    def __init__(self, ctx: ChainRingCtx, nvars: int, corrections=None):
        if corrections is None:
            corrections = [None] * nvars
        corrections = list(corrections)
        if len(corrections) != nvars:
            raise ValueError("one correction slot per variable")
        for h in corrections:
            if h is not None and (h.ctx != ctx or h.nvars != nvars):
                raise ValueError("correction in wrong ring")
        self.ctx = ctx
        self.nvars = nvars
        self.corrections = tuple(
            None if (h is None or h.is_zero()) else h for h in corrections
        )
        self._powers = {}

    @classmethod
    def standard(cls, ctx, nvars):
        return cls(ctx, nvars)

    @property
    def is_standard(self):
        return all(h is None for h in self.corrections)

    def image(self, i) -> Poly:
        """F(xi) as a polynomial."""
        n = self.nvars
        return self._power(pack(tuple(int(k == i) for k in range(n)), n), 1)

    def _power(self, beta, e) -> Poly:
        """F^e(x^beta) for a packed beta, memoized on the lift.

        x^beta splits into x^head * xi^k at its last variable xi, xi^k into
        two halves, and F^e(xi) = F^(e-1)(F(xi)); so the stack grows with
        log(degree), never with the degree.
        """
        img = self._powers.get((beta, e))
        if img is not None:
            return img
        n, p = self.nvars, self.ctx.p
        exps = unpack(beta, n)
        i = max((j for j in range(n) if exps[j]), default=0)
        head = exps[:i] + (0,) * (n - i)
        if e == 0 or not exps[i]:
            img = Poly._from_terms(self.ctx, n, {beta: 1})
        elif any(head) or exps[i] > 1:
            a = head if any(head) else head[:i] + (exps[i] // 2,) + head[i + 1 :]
            a = _pack(a, n)
            img = self._power(a, e) * self._power(beta - a, e)
        elif e > 1:
            img = frobenius_apply(self._power(beta, 1), self, e - 1)
        else:
            h = self.corrections[i]
            img = Poly.monomial(self.ctx, n, tuple(p * x for x in exps))
            img = img if h is None else img + h * p
        self._powers[(beta, e)] = img
        return img

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusLift)
            and other.ctx == self.ctx
            and other.nvars == self.nvars
            and other.corrections == self.corrections
        )

    def __hash__(self):
        return hash((self.ctx, self.nvars, self.corrections))


def frobenius_apply(f: Poly, lift: FrobeniusLift, e: int) -> Poly:
    """F^e(f) as the sum of c * F^e(x^beta) over the terms c*x^beta of f.

    F^e is additive and fixes coefficients, so one loop serves every lift.
    """
    if e < 0:
        raise ValueError("negative iteration count")
    if f.ctx != lift.ctx or f.nvars != lift.nvars:
        raise ValueError("mixed polynomial rings")
    acc = {}
    for beta, c in f.terms.items():
        for mono, d in lift._power(beta, e).terms.items():
            acc[mono] = acc.get(mono, 0) + c * d
    return Poly._from_terms(f.ctx, f.nvars, acc)


def _split_base_q(f: Poly, q: int):
    """Naive digit split f = sum_alpha (x^q-substituted g_alpha) * x^alpha.

    Exact for the standard lift; the first-order approximation otherwise.
    The digit classes are keyed by the exponent tuples alpha, in ascending
    order. A term x^(q*beta + alpha) lands in class alpha at the packed key
    (P - P_alpha) / q of x^beta, with f's own coefficient, which is already
    reduced and nonzero. P_alpha is packed inline, without ``_pack``'s
    degree check: each digit is at most the exponent it comes from.
    """
    n = f.nvars
    low, _, fields = _layout(n)
    top = n * FIELD_BITS
    terms = f.terms
    lows = [-mono & low for mono in terms]
    # one pass per field over every term: the digits of x1, x2, ...
    digits = [
        [(x >> shift & FIELD_MASK) % q for x in lows]
        for shift in range(0, top, FIELD_BITS)
    ]
    alphas = zip(*digits) if n else [()] * len(lows)  # zip() of no fields is empty
    comps = {}
    for (mono, c), alpha in zip(terms.items(), alphas):
        digit = comps.get(alpha)
        if digit is None:
            packed = (sum(alpha) << top) - int.from_bytes(fields.pack(*alpha), "little")
            digit = comps[alpha] = (packed, {})
        digit[1][(mono - digit[0]) // q] = c
    return {
        alpha: Poly._from_reduced(f.ctx, n, beta_terms)
        for alpha, (_, beta_terms) in sorted(comps.items())
    }


def phi_decompose(f: Poly, lift: FrobeniusLift, e: int) -> dict:
    """Coordinates of f in the free basis {F^e(g) * x^alpha, alpha in [0,p^e)^n}.

    Returns {alpha: g_alpha} with zero components omitted. For a general lift
    the naive split is corrected iteratively: subtracting the exact lift of
    the current coordinates leaves a remainder of strictly larger coefficient
    valuation, so at most m+1 rounds are needed.
    """
    if e < 0:
        raise ValueError("negative level")
    if f.ctx != lift.ctx or f.nvars != lift.nvars:
        raise ValueError("mixed polynomial rings")
    q = lift.ctx.p**e
    if lift.is_standard:
        return _split_base_q(f, q)
    acc = {}
    pending = f
    rounds = 0
    while not pending.is_zero():
        if rounds > lift.ctx.m:
            raise InvariantError("decomposition failed to converge")
        rounds += 1
        step = _split_base_q(pending, q)
        rebuilt = Poly.zero(f.ctx, f.nvars)
        for alpha, g in step.items():
            acc[alpha] = acc.get(alpha, Poly.zero(f.ctx, f.nvars)) + g
            rebuilt = rebuilt + frobenius_apply(g, lift, e).term_mul(alpha, 1)
        pending = pending - rebuilt
    return {alpha: g for alpha, g in sorted(acc.items()) if not g.is_zero()}
