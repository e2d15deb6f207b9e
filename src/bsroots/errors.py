"""Exceptions shared by the engine layers."""


class InvariantError(AssertionError):
    """An internal invariant of the engine failed: a bug, not bad input.

    Raised explicitly instead of by ``assert``, so the checks also run under
    ``python -O``. The CLI maps it to exit code 3.
    """
