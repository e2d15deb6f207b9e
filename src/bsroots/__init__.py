"""Exact computation of root and level-set invariants over Z/p^(m+1).

The engine walks the descent images of the powers of a polynomial level by
level, extracts the levelwise invariant sets, identifies the bounded rational
roots they cut out, and grades each root by its strength. All arithmetic
is exact over the chain ring Z/p^(m+1).

The package exports the engine's entry points. The level-function layer
(``LevelFunction``, ``chi``, ``refine``, ``stalk``, ``support_module``,
``bfunction_contains``) is imported from ``bsroots.cfun``, and the layers
underneath from their modules: generating sets and Groebner bases from
``bsroots.groebner``, the level-1 descent from ``bsroots.nu``, p-adic
rationals from ``bsroots.padic``, and so on.
"""

from .bsr import bfunction_report, detect_roots, strength
from .chainring import ChainRingCtx
from .errors import InvariantError
from .nu import is_nu, nu_levels, nu_set
from .poly import FrobeniusLift, Poly

__version__ = "0.1.0"

__all__ = [
    "ChainRingCtx",
    "InvariantError",
    "Poly",
    "FrobeniusLift",
    "is_nu",
    "nu_set",
    "nu_levels",
    "detect_roots",
    "strength",
    "bfunction_report",
    "__version__",
]
