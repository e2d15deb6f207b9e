"""``python -m bsroots``: the same entry point as the ``bsroots`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
