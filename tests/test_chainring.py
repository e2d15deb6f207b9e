import pytest

from bsroots import ChainRingCtx
from bsroots.chainring import is_prime

from _oracles import divide_exact, unit_part


def test_frozen_normalize_z9():
    # inputs outside [0, 9) are reduced first: -1 -> 8, 12 -> 3, 9 -> 0
    z9 = ChainRingCtx(3, 1)
    assert (z9.val(-1), unit_part(z9, -1)) == (0, 8)
    assert (z9.val(12), unit_part(z9, 12)) == (1, 1)
    assert (z9.val(9), unit_part(z9, 9)) == (2, 1)


def test_frozen_invert_and_divide_z9():
    z9 = ChainRingCtx(3, 1)
    assert divide_exact(z9, 6, 3) == 2
    assert divide_exact(z9, 3, 6) == 2
    assert divide_exact(z9, 1, 3) is None


def test_val_convention():
    z9 = ChainRingCtx(3, 1)
    assert z9.val(0) == 2
    assert z9.val(9) == 2
    assert z9.val(3) == 1
    assert z9.val(5) == 0
    z8 = ChainRingCtx(2, 2)
    assert z8.val(0) == 3
    assert z8.val(4) == 2


def test_ctx_validation():
    with pytest.raises(ValueError, match="prime"):
        ChainRingCtx(4, 1)
    with pytest.raises(ValueError, match="prime"):
        ChainRingCtx(1, 0)
    with pytest.raises(ValueError):
        ChainRingCtx(2, -1)
    with pytest.raises(ValueError, match="2\\^63"):
        ChainRingCtx(2, 63)
    ChainRingCtx(2, 62)  # 2^63 itself is allowed


def test_ctx_accepts_a_61_bit_prime():
    # 2^61 - 1 is a Mersenne prime; trial division would take 2^30 steps
    assert ChainRingCtx(2**61 - 1, 0).modulus == 2**61 - 1


@pytest.mark.parametrize(
    "p",
    [
        (2**31 - 1) ** 2,  # the square of a prime, with no factor below 2^31
        561,  # Carmichael numbers: Fermat liars for every base prime to them
        41041,
        3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # a strong pseudoprime to the first nine primes
    ],
)
def test_ctx_refuses_composites_with_no_small_factor(p):
    with pytest.raises(ValueError, match="prime"):
        ChainRingCtx(p, 0)


@pytest.mark.parametrize("p,m", [(3, 10**8), (2**127 - 1, 0), (2**61 - 1, 1)])
def test_ctx_refuses_a_huge_modulus_without_forming_it(p, m):
    # 3^(10^8 + 1) has about 48 million digits, and 2^127 - 1 is prime: the
    # modulus is refused by bit lengths, before the power or a primality test
    with pytest.raises(ValueError, match="2\\^63"):
        ChainRingCtx(p, m)


def test_is_prime_matches_trial_division():
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for q in range(2, 142):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if sieve[n]
    ]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_val_product_rule_exhaustive(p, m):
    ctx = ChainRingCtx(p, m)
    top = ctx.m + 1
    for x in range(ctx.modulus):
        for y in range(ctx.modulus):
            assert ctx.val(x * y) == min(top, ctx.val(x) + ctx.val(y))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_divide_exact_exhaustive(p, m):
    ctx = ChainRingCtx(p, m)
    for a in range(ctx.modulus):
        for b in range(ctx.modulus):
            q = divide_exact(ctx, a, b)
            solutions = [c for c in range(ctx.modulus) if (c * b - a) % ctx.modulus == 0]
            if ctx.val(b) <= ctx.val(a):
                assert q == min(solutions)
            else:
                assert q is None and not solutions


def test_unit_part_factorization():
    ctx = ChainRingCtx(3, 2)
    for x in range(1, ctx.modulus):
        u = unit_part(ctx, x)
        assert u % ctx.p
        assert (u * ctx.p ** ctx.val(x)) % ctx.modulus == x
