import random

import pytest

from bsroots import ChainRingCtx

from _oracles import Matrix, exhaustive_span, howell_form, span_contains, spans_equal


def test_frozen_howell_z4():
    z4 = ChainRingCtx(2, 1)
    h = howell_form(Matrix(z4, 2, [(2, 1)]))
    assert h.rows == ((2, 1), (0, 2))


def test_howell_identity_and_zero():
    z4 = ChainRingCtx(2, 1)
    ident = Matrix(z4, 2, [(1, 0), (0, 1)])
    assert howell_form(ident).rows == ((1, 0), (0, 1))
    assert howell_form(Matrix(z4, 3, [])).rows == ()
    assert howell_form(Matrix(z4, 3, [(0, 0, 0)])).rows == ()


def test_howell_idempotent():
    z9 = ChainRingCtx(3, 1)
    m = Matrix(z9, 3, [(3, 1, 0), (0, 6, 2), (1, 1, 1)])
    h = howell_form(m)
    assert howell_form(h) == h


def _random_matrix(rng, ctx, nrows, ncols):
    return Matrix(
        ctx, ncols, [[rng.randrange(ctx.modulus) for _ in range(ncols)] for _ in range(nrows)]
    )


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_howell_against_exhaustive_span(p, m):
    """The Howell form spans exactly the original rows, canonically."""
    rng = random.Random(1000 + p * 10 + m)
    ctx = ChainRingCtx(p, m)
    for _ in range(12):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        mat = _random_matrix(rng, ctx, nrows, ncols)
        h = howell_form(mat)
        want = exhaustive_span(mat.rows, ncols, ctx.modulus)
        got = exhaustive_span(h.rows, ncols, ctx.modulus)
        assert want == got
        # membership agrees with the enumerated span on every vector
        vectors = list(want)[:40] + [
            tuple(rng.randrange(ctx.modulus) for _ in range(ncols)) for _ in range(20)
        ]
        for v in vectors:
            assert span_contains(mat, v) == (tuple(v) in want)


def test_howell_canonical_under_row_mixing():
    rng = random.Random(77)
    ctx = ChainRingCtx(2, 2)
    for _ in range(10):
        mat = _random_matrix(rng, ctx, 3, 3)
        rows = [list(r) for r in mat.rows]
        rng.shuffle(rows)
        # unit-scale one row and add a multiple of another
        rows[0] = [(x * 3) % ctx.modulus for x in rows[0]]
        rows[1] = [(a + 2 * b) % ctx.modulus for a, b in zip(rows[1], rows[2])]
        mixed = Matrix(ctx, 3, rows)
        assert spans_equal(mat, mixed)
        assert howell_form(mat) == howell_form(mixed)


def test_spans_equal_distinguishes():
    z4 = ChainRingCtx(2, 1)
    a = Matrix(z4, 2, [(2, 1)])
    b = Matrix(z4, 2, [(2, 0), (0, 1)])
    assert not spans_equal(a, b)
    assert spans_equal(a, Matrix(z4, 2, [(2, 1), (0, 2)]))


def test_mismatched_shapes_rejected():
    z4 = ChainRingCtx(2, 1)
    z9 = ChainRingCtx(3, 1)
    with pytest.raises(ValueError):
        spans_equal(Matrix(z4, 2, [(1, 0)]), Matrix(z9, 2, [(1, 0)]))
    with pytest.raises(ValueError):
        span_contains(Matrix(z4, 2, [(1, 0)]), (1, 0, 0))
    with pytest.raises(ValueError):
        Matrix(z4, 2, [(1, 0, 0)])
