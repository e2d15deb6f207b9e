"""Arithmetic in the chain ring V = Z/p^(m+1).

Every coefficient in the engine lives in V. Its ideals are totally ordered,
(1) > (p) > (p^2) > ... > (0), and every element is a unit times a power of
p, so valuation data decides divisibility. Operations take plain Python
integers and reduce them into [0, modulus).

Conventions:
  * val(0) = m+1, not infinity, so strength values stay in [0, m+1].
  * divide_exact returns the least nonnegative quotient, which makes the
    reduction steps of the Groebner machinery reproducible.
"""

from __future__ import annotations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = 41
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class ChainRingCtx:
    """Context for V = Z/p^(m+1): prime p, nilpotency degree m, modulus p^(m+1)."""

    __slots__ = ("p", "m", "modulus")

    def __init__(self, p: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        modulus = p ** (m + 1)
        if modulus > 2**63:
            raise ValueError("modulus p^(m+1) exceeds 2^63")
        self.p = p
        self.m = m
        self.modulus = modulus

    def __repr__(self):
        return f"ChainRingCtx(p={self.p}, m={self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, ChainRingCtx)
            and other.p == self.p
            and other.m == self.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def val(self, x: int) -> int:
        """p-adic valuation of x in V; val(0) = m+1 by convention."""
        x %= self.modulus
        if x == 0:
            return self.m + 1
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def unit_part(self, x: int) -> int:
        """The unit u with x = u * p^val(x); unit_part(0) = 1."""
        x %= self.modulus
        if x == 0:
            return 1
        while x % self.p == 0:
            x //= self.p
        return x

    def is_unit(self, x: int) -> bool:
        return x % self.p != 0

    def invert(self, x: int) -> int:
        x %= self.modulus
        if x % self.p == 0:
            raise ValueError("not a unit")
        return pow(x, -1, self.modulus)

    def divide_exact(self, a: int, b: int):
        """Least nonnegative q with q*b = a in V, or None if none exists.

        A quotient exists exactly when val(b) <= val(a). The solution class is
        q0 + p^(m+1-val(b)) * V; the least representative is returned.
        """
        a %= self.modulus
        b %= self.modulus
        jb = self.val(b)
        if self.val(a) < jb:
            return None
        if b == 0:
            return 0
        q = (a * pow(self.unit_part(b), -1, self.modulus)) % self.modulus
        q //= self.p**jb
        return q % (self.modulus // self.p**jb)
