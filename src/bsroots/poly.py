"""Sparse multivariate polynomials over V = Z/p^(m+1).

A polynomial is a map from exponent tuples to nonzero residues. The ambient
monomial order everywhere is degree reverse lexicographic with
x1 > x2 > ... > xn, spelled once: ``grevlex_desc_key`` sorts monomials
largest first. ``head_key`` extends it to polynomials by their leading term,
the one order that generator lists and completed bases are kept in. The
leading monomial is found in one scan: the total degrees of the support,
then, among the monomials of top degree, the least reversed exponent tuple,
which is the degrevlex tie-break.

``FrobeniusLift`` models ring endomorphisms F with F(xi) = xi^p + p*hi and
F identity on coefficients. ``phi_decompose`` inverts the induced module
structure: it writes f uniquely as sum over alpha in [0, p^e)^n of
F^e(g_alpha) * x^alpha, the coordinates the descent operators act on.
"""

from __future__ import annotations

from operator import add, le, sub

from .chainring import ChainRingCtx
from .errors import InvariantError

NEG_INF = float("-inf")


def grevlex_desc_key(mono):
    """Sort key whose ascending order is descending degrevlex; a heap key."""
    return (-sum(mono), mono[::-1])


def head_key(g):
    """Sort key of a nonzero polynomial by its leading term: leading monomials
    in descending degrevlex, then leading coefficients in ascending order."""
    lm = g.leading_monomial()
    return grevlex_desc_key(lm), g.terms[lm]


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_quot(divisor, dividend):
    """Exponent difference dividend - divisor (caller checks divisibility)."""
    return tuple(map(sub, dividend, divisor))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


class Poly:
    """Immutable sparse polynomial; ``terms`` maps monomial -> coefficient.

    The hash and the leading monomial are computed on first use and cached.
    """

    __slots__ = ("ctx", "nvars", "terms", "_hash", "_lm")

    def __init__(self, ctx: ChainRingCtx, nvars: int, terms=None):
        mod = ctx.modulus
        clean = {}
        for mono, c in (terms or {}).items():
            c = int(c) % mod
            if c == 0:
                continue
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for {nvars} variables")
            clean[mono] = c
        self.ctx = ctx
        self.nvars = nvars
        self.terms = clean
        self._hash = None
        self._lm = None

    @classmethod
    def _from_terms(cls, ctx: ChainRingCtx, nvars: int, terms) -> "Poly":
        """Internal constructor for the results of arithmetic on polynomials.

        Reduces coefficients mod p^(m+1) and drops zeros like the public
        constructor, but trusts the exponent tuples, which arithmetic on
        valid polynomials keeps valid; re-checking them dominated the cost of
        small products and sums.
        """
        mod = ctx.modulus
        self = object.__new__(cls)
        self.ctx = ctx
        self.nvars = nvars
        self.terms = {mono: r for mono, c in terms.items() if (r := c % mod)}
        self._hash = None
        self._lm = None
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
        return max(sum(m) for m in self.terms)

    def sorted_terms(self):
        """Terms in descending monomial order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_desc_key(t[0]))

    def leading_monomial(self):
        # only the monomial is cached: a (monomial, coefficient) pair per
        # polynomial raised peak memory measurably
        if self._lm is None:
            terms = self.terms
            if not terms:
                raise ValueError("zero polynomial has no leading term")
            # one pass for the total degrees; among the monomials of top
            # degree the largest in degrevlex has the least reversed tuple
            degs = list(map(sum, terms))
            top = max(degs)
            self._lm = min(
                (m for m, d in zip(terms, degs) if d == top), key=lambda m: m[::-1]
            )
        return self._lm

    def leading_term(self):
        mono = self.leading_monomial()
        return mono, self.terms[mono]

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def max_coeff_val(self):
        if not self.terms:
            return self.ctx.m + 1
        return max(self.ctx.val(c) for c in self.terms.values())

    def has_unit_coeff(self):
        """True iff f is a nonzerodivisor on V[x], i.e. some coefficient is a unit."""
        p = self.ctx.p
        return any(c % p for c in self.terms.values())

    def with_ctx(self, ctx: ChainRingCtx) -> "Poly":
        """Reinterpret the integer coefficients over another chain ring."""
        return Poly(ctx, self.nvars, dict(self.terms))

    def _binop(self, other, sign):
        if isinstance(other, int):
            other = Poly.const(self.ctx, self.nvars, other)
        if other.ctx != self.ctx or other.nvars != self.nvars:
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
        if other.ctx != self.ctx or other.nvars != self.nvars:
            raise ValueError("mixed polynomial rings")
        acc = {}
        get = acc.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                key = tuple(map(add, m1, m2))
                acc[key] = get(key, 0) + c1 * c2
        return Poly._from_terms(self.ctx, self.nvars, acc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def term_mul(self, mono, c):
        """Multiply by the single term c * x^mono."""
        mono = tuple(mono)
        if len(mono) != self.nvars or any(e < 0 for e in mono):
            raise ValueError(f"bad exponent tuple {mono} for {self.nvars} variables")
        return Poly._from_terms(
            self.ctx,
            self.nvars,
            {tuple(map(add, m, mono)): cc * c for m, cc in self.terms.items()},
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
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
            and other.ctx == self.ctx
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
        return self._power(tuple(int(k == i) for k in range(self.nvars)), 1)

    def _power(self, beta, e) -> Poly:
        """F^e(x^beta), memoized on the lift.

        x^beta splits into x^head * xi^k at its last variable xi, xi^k into
        two halves, and F^e(xi) = F^(e-1)(F(xi)); so the stack grows with
        log(degree), never with the degree.
        """
        if (beta, e) in self._powers:
            return self._powers[(beta, e)]
        n, p = self.nvars, self.ctx.p
        i = max((j for j in range(n) if beta[j]), default=0)
        head = beta[:i] + (0,) * (n - i)
        if e == 0 or not beta[i]:
            img = Poly.monomial(self.ctx, n, beta)
        elif any(head) or beta[i] > 1:
            a = head if any(head) else head[:i] + (beta[i] // 2,) + head[i + 1 :]
            img = self._power(a, e) * self._power(mono_quot(a, beta), e)
        elif e > 1:
            img = frobenius_apply(self._power(beta, 1), self, e - 1)
        else:
            h = self.corrections[i]
            img = Poly.monomial(self.ctx, n, tuple(p * x for x in beta))
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
    """
    comps = {}
    for mono, c in f.terms.items():
        alpha = tuple(map(q.__rmod__, mono))
        beta = tuple(map(q.__rfloordiv__, mono))
        comps.setdefault(alpha, {})[beta] = c
    return {
        alpha: Poly._from_terms(f.ctx, f.nvars, terms)
        for alpha, terms in sorted(comps.items())
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
