"""Arithmetic in the chain ring V = Z/p^(m+1).

Every coefficient in the engine lives in V. Its ideals are totally ordered,
(1) > (p) > (p^2) > ... > (0), and every element is a unit times a power of
p, so valuation data decides divisibility. Operations take plain Python
integers and reduce them into [0, modulus).

Convention: val(0) = m+1, not infinity, so strength values stay in
[0, m+1].
"""

from __future__ import annotations


def smallest_prime_factor(n: int) -> int:
    """Least prime dividing n >= 2, by trial division."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


class ChainRingCtx:
    """Context for V = Z/p^(m+1): prime p, nilpotency degree m, modulus p^(m+1)."""

    __slots__ = ("p", "m", "modulus")

    def __init__(self, p: int, m: int):
        if p < 2 or smallest_prime_factor(p) != p:
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
