"""Exceptions shared by the engine layers."""


class InvariantError(AssertionError):
    """An internal invariant of the engine failed: a bug, not bad input.

    Raised explicitly instead of by ``assert``, so the checks also run under
    ``python -O``. The CLI maps it to exit code 3.
    """


class DegreeLimitError(ValueError):
    """A monomial would reach total degree 2^31, past the packed encoding.

    A ``ValueError``, so the CLI refuses such input as a configuration error
    with exit code 2.
    """
