import random
from fractions import Fraction

import pytest

from bsroots.padic import PAdicRational, reconstruct

from _oracles import reconstruct_double_loop


def test_frozen_digits_and_truncations():
    a = PAdicRational(3, -1, 2)
    assert a.digits(3) == [1, 1, 1]
    assert a.truncate_below(3) == 13
    assert PAdicRational(3, 13).truncate_below(2) == 4


def test_truncation_identity():
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        v = rng.randint(1, 30)
        while v % p == 0:
            v += 1
        u = rng.randint(-40, 40)
        a = PAdicRational(p, Fraction(u, v))
        for k in (0, 1, 3):
            low = a.truncate_below(k)
            assert 0 <= low < p**k
            # alpha = low + p^k * t with t a p-adic integer
            assert (a.numerator - low * a.denominator) % p**k == 0


def test_digits_stream_matches_truncations():
    a = PAdicRational(5, Fraction(7, 3))
    digits = a.digits(6)
    total = 0
    for k, d in enumerate(digits):
        assert 0 <= d < 5
        total += d * 5**k
    assert total == a.truncate_below(6)


def test_denominator_divisible_by_p_rejected():
    with pytest.raises(ValueError, match="denominator"):
        PAdicRational(3, Fraction(1, 3))
    with pytest.raises(ValueError, match="denominator"):
        PAdicRational(2, 1, 6)


def test_equality_with_a_number_is_false():
    # equal objects must hash equal, so a p-adic rational never equals a number
    a = PAdicRational(3, -1)
    assert a != -1 and not a == -1 and a != Fraction(-1)
    assert len({a, -1}) == 2
    b = PAdicRational(3, Fraction(-2, 2))
    assert a == b and hash(a) == hash(b)


def test_reconstruct_frozen():
    # -1/2 mod 3^5: residue 121
    got = reconstruct(121, 3, 5, 10, 10)
    assert [a.frac for a in got] == [Fraction(-1, 2)]
    got = reconstruct(242, 3, 5, 10, 10)
    assert [a.frac for a in got] == [Fraction(-1)]


def test_reconstruct_matches_double_loop():
    rng = random.Random(31)
    cases = []
    for p, k in ((3, 3), (3, 5), (2, 6), (2, 4), (5, 3)):
        for _ in range(12):
            cases.append(
                (rng.randrange(p**k), p, k, rng.randint(1, 8), rng.randint(1, 12))
            )
    for residue, p, k, den_bound, num_bound in cases:
        want = reconstruct_double_loop(residue, p**k, den_bound, num_bound, p)
        got = reconstruct(residue, p, k, den_bound, num_bound)
        assert sorted(a.frac for a in got) == want
        # the advertised sort order is (denominator, numerator)
        keyed = [(a.denominator, a.numerator) for a in got]
        assert keyed == sorted(keyed)


def test_reconstruct_unique_under_injectivity_bound():
    # 2 * num * den < 3^5 forces at most one hit
    rng = random.Random(32)
    for _ in range(60):
        residue = rng.randrange(243)
        got = reconstruct(residue, 3, 5, 10, 10)
        assert len(got) <= 1


def test_reconstruct_small_modulus_lists_all():
    got = reconstruct(1, 2, 2, 3, 5)
    assert Fraction(1) in [a.frac for a in got]
    assert Fraction(5) in [a.frac for a in got]
    assert Fraction(-3) in [a.frac for a in got]
