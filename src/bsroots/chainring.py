"""Arithmetic in the chain ring V = Z/p^(m+1).

Every coefficient in the engine lives in V. Its ideals are totally ordered,
(1) > (p) > (p^2) > ... > (0), and every element is a unit times a power of
p, so valuation data decides divisibility. Operations take plain Python
integers and reduce them into [0, modulus).

Convention: val(0) = m+1, not infinity, so strength values stay in
[0, m+1].
"""

from __future__ import annotations


# Miller-Rabin with these bases decides primality exactly for every
# n < 3.18*10^23 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", 2017), so for every p whose modulus p^(m+1) fits in 2^63
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; exact below 3.18*10^23."""
    if n < 2:
        return False
    if any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ChainRingCtx:
    """Context for V = Z/p^(m+1): prime p, nilpotency degree m, modulus p^(m+1)."""

    __slots__ = ("p", "m", "modulus")

    def __init__(self, p: int, m: int):
        if p < 2:
            raise ValueError(f"p must be prime, got {p}")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        # p^(m+1) >= 2^((m+1)*(bit length - 1)), so the power is formed only
        # when it is below 2^127, and primality is tested only at p <= 2^63
        if (m + 1) * (p.bit_length() - 1) > 63 or p ** (m + 1) > 2**63:
            raise ValueError("modulus p^(m+1) exceeds 2^63")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.m = m
        self.modulus = p ** (m + 1)

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
