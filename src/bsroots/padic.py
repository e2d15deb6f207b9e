"""Rational numbers inside Z_p: fractions with denominator prime to p.

These are the candidate roots the detector reconstructs. A value alpha has a
well defined residue mod p^k for every k (``truncate_below``) and a digit
expansion.

``reconstruct`` inverts truncation under size bounds: it lists every bounded
fraction whose residue matches. When 2 * num_bound * den_bound < modulus the
answer has at most one element, which is what makes root identification from
a single residue sound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chainring import smallest_prime_factor


def prime_power_base(modulus: int) -> tuple[int, int]:
    """(p, k) with modulus = p^k; raises for non prime powers."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    n = modulus
    p = smallest_prime_factor(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"{modulus} is not a prime power")
    return p, k


class PAdicRational:
    """Fraction in lowest terms with denominator prime to p."""

    __slots__ = ("p", "frac")

    def __init__(self, p: int, value, den=None):
        if den is not None:
            value = Fraction(value, den)
        else:
            value = Fraction(value)
        if value.denominator % p == 0:
            raise ValueError("denominator divisible by p")
        self.p = p
        self.frac = value

    @property
    def numerator(self):
        return self.frac.numerator

    @property
    def denominator(self):
        return self.frac.denominator

    def digits(self, k: int) -> list[int]:
        """First k base-p digits of the canonical expansion."""
        out = []
        cur = self.frac
        p = self.p
        for _ in range(k):
            d = (cur.numerator * pow(cur.denominator, -1, p)) % p
            out.append(d)
            cur = (cur - d) / p
        return out

    def truncate_below(self, k: int) -> int:
        """Residue in [0, p^k) congruent to the value mod p^k."""
        if k < 0:
            raise ValueError("negative digit count")
        q = self.p**k
        return (self.frac.numerator * pow(self.frac.denominator, -1, q)) % q

    def __eq__(self, other):
        return (
            isinstance(other, PAdicRational)
            and other.p == self.p
            and other.frac == self.frac
        )

    def __hash__(self):
        return hash((self.p, self.frac))

    def __lt__(self, other):
        return self.frac < (other.frac if isinstance(other, PAdicRational) else other)

    def __repr__(self):
        return f"PAdicRational({self.p}, {self.frac})"

    def __str__(self):
        return str(self.frac)


def fraction_val(p: int, x) -> float:
    """p-adic valuation of a Fraction or int; +inf for zero."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def reconstruct(residue: int, modulus: int, den_bound: int, num_bound: int):
    """All u/v in lowest terms with p not dividing v, 0 < v <= den_bound,
    |u| <= num_bound and u = residue * v mod modulus; sorted by (v, u)."""
    p, _ = prime_power_base(modulus)
    residue %= modulus
    found = []
    for v in range(1, den_bound + 1):
        if v % p == 0:
            continue
        target = (residue * v) % modulus
        k_lo = -((num_bound + target) // modulus)
        k_hi = (num_bound - target) // modulus
        for k in range(k_lo, k_hi + 1):
            u = target + k * modulus
            if abs(u) > num_bound:
                continue
            if math.gcd(u, v) != 1:
                continue
            found.append((v, u))
    return [PAdicRational(p, u, v) for v, u in sorted(found)]
