"""Rational numbers inside Z_p: fractions with denominator prime to p.

These are the candidate roots the detector reconstructs. A value alpha has a
well defined residue mod p^k for every k (``truncate_below``) and a digit
expansion.

``reconstruct`` inverts truncation under size bounds: it lists every bounded
fraction whose residue mod p^k matches. When 2 * num_bound * den_bound < p^k
the answer has at most one element, which is what makes root identification
from a single residue sound.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def reconstruct(residue: int, p: int, k: int, den_bound: int, num_bound: int):
    """All u/v in lowest terms with p not dividing v, 0 < v <= den_bound,
    |u| <= num_bound and u = residue * v mod p^k; sorted by (v, u)."""
    modulus = p**k
    residue %= modulus
    found = []
    for v in range(1, den_bound + 1):
        if v % p == 0:
            continue
        target = (residue * v) % modulus
        j_lo = -((num_bound + target) // modulus)
        j_hi = (num_bound - target) // modulus
        for j in range(j_lo, j_hi + 1):
            u = target + j * modulus
            if abs(u) > num_bound:
                continue
            if math.gcd(u, v) != 1:
                continue
            found.append((v, u))
    return [PAdicRational(p, u, v) for v, u in sorted(found)]
