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
    with pytest.raises(ValueError, match="negative digit count"):
        a.truncate_below(-1)


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
    rng = random.Random(33)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        v = rng.randint(1, 50)
        while v % p == 0:
            v += 1
        a = PAdicRational(p, Fraction(rng.randint(-200, 200), v))
        k = rng.randint(0, 40)
        digits = a.digits(k)
        assert len(digits) == k and all(0 <= d < p for d in digits)
        assert sum(d * p**i for i, d in enumerate(digits)) == a.truncate_below(k)


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
    assert reconstruct(121, 3, 5, 10, 10).frac == Fraction(-1, 2)
    assert reconstruct(242, 3, 5, 10, 10).frac == Fraction(-1)


def _agrees_with_double_loop(residue, p, k, den_bound, num_bound):
    want = reconstruct_double_loop(residue, p**k, den_bound, num_bound, p)
    got = reconstruct(residue, p, k, den_bound, num_bound)
    return want == ([] if got is None else [got.frac])


def test_reconstruct_matches_double_loop():
    rng = random.Random(31)
    for p, k in ((3, 3), (3, 5), (2, 6), (2, 4), (5, 3)):
        drawn = 0
        while drawn < 12:
            den_bound, num_bound = rng.randint(1, 8), rng.randint(1, 12)
            if 2 * num_bound * den_bound >= p**k:
                continue
            drawn += 1
            residue = rng.randrange(p**k)
            assert _agrees_with_double_loop(residue, p, k, den_bound, num_bound)


def test_reconstruct_matches_double_loop_exhaustively():
    """Every residue of small moduli p^k, under every bound pair with
    2 * N * D < p^k, 1 <= D <= 39 and 1 <= N <= 59."""
    checked = 0
    for p, k in ((2, 1), (2, 3), (2, 5), (2, 7), (3, 1), (3, 2), (3, 4),
                 (5, 2), (5, 3), (7, 2), (11, 2)):
        modulus = p**k
        for den_bound in range(1, 40):
            for num_bound in range(1, 60):
                if 2 * num_bound * den_bound >= modulus:
                    break
                for residue in range(modulus):
                    checked += 1
                    assert _agrees_with_double_loop(
                        residue, p, k, den_bound, num_bound
                    ), (residue, p, k, den_bound, num_bound)
    assert checked == 109_667


def test_reconstruct_refuses_ambiguous_bounds():
    # 1, 5 and -3 all fit residue 1 mod 4 under bounds 3/5
    for residue, p, k, den_bound, num_bound in (
        (1, 2, 2, 3, 5), (0, 2, 1, 1, 1), (7, 3, 2, 1, 5), (0, 2, 5, 4, 4)
    ):
        assert p**k <= 2 * num_bound * den_bound
        with pytest.raises(ValueError, match="must exceed"):
            reconstruct(residue, p, k, den_bound, num_bound)
    # just past the bound the answer is unique: 2 * 5 * 3 < 2^5
    assert reconstruct(31, 2, 5, 3, 5).frac == Fraction(-1)
