"""Rational numbers inside Z_p: fractions with denominator prime to p.

These are the candidate roots the detector reconstructs. A value alpha has a
well defined residue mod p^k for every k (``truncate_below``) and a digit
expansion.

``reconstruct`` inverts truncation under size bounds: it finds the one
bounded fraction whose residue mod p^k matches, if there is one. It requires
2 * num_bound * den_bound < p^k, under which at most one fraction fits, which
is what makes root identification from a single residue sound.
"""

from __future__ import annotations

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
        """First k base-p digits of the canonical expansion: the digits of
        ``truncate_below(k)``, least significant first."""
        low, p = self.truncate_below(k), self.p
        return [low // p**i % p for i in range(k)]

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
    """The u/v with p not dividing v, 0 < v <= den_bound, |u| <= num_bound
    and u = residue * v mod p^k, as a ``PAdicRational``; None when none fits.

    Two such fractions make u*v' - u'*v a nonzero multiple of p^k of size
    at most 2 * num_bound * den_bound, so ``ValueError`` unless p^k exceeds
    that. The extended Euclidean algorithm on (p^k, residue) keeps
    r_i = t_i * residue mod p^k; the first r_i <= num_bound gives the only
    candidate u = +-r_i, v = |t_i| (Wang, Guy and Davenport 1982), in lowest
    terms when p does not divide v, as gcd(r_i, t_i) divides p^k.
    """
    modulus = p**k
    if modulus <= 2 * num_bound * den_bound:
        raise ValueError("p^k must exceed 2 * num_bound * den_bound")
    r0, r1 = modulus, residue % modulus
    t0, t1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    v = abs(t1)
    if v > den_bound or v % p == 0:
        return None
    return PAdicRational(p, r1 if t1 > 0 else -r1, v)
