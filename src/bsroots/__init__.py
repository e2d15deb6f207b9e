"""Exact computation of root and level-set invariants over Z/p^(m+1).

The engine walks power chains of a polynomial through descent operators,
extracts the levelwise invariant sets, identifies the bounded rational
roots they cut out, and grades each root by its strength. All arithmetic
is exact over the chain ring Z/p^(m+1).
"""

from .bsr import (
    CrosscheckResult,
    ResidueTree,
    RootEntry,
    RootReport,
    StrengthResult,
    StrengthVsBRow,
    bfunction_report,
    candidate_residues,
    crosscheck_mod_p,
    detect_roots,
    strength,
    strength_vs_bsato,
)
from .cartier import IdealGens, cartier_generators, frobenius_pullback_ideal
from .cfun import (
    FiniteSupportModule,
    LevelFunction,
    bfunction_contains,
    chi,
    refine,
    stalk,
    support_module,
)
from .chainring import ChainRingCtx
from .errors import InvariantError
from .groebner import (
    GroebnerBasis,
    ideal_contains,
    ideal_equal,
    min_p_power_in,
    normal_form,
    strong_groebner,
)
from .nu import NuLevelSet, is_nu, nu_of_ideal, nu_set
from .padic import PAdicRational, fraction_val, reconstruct
from .poly import FrobeniusLift, Poly, frobenius_apply, phi_decompose

__version__ = "0.1.0"

__all__ = [
    "ChainRingCtx",
    "InvariantError",
    "Poly",
    "FrobeniusLift",
    "frobenius_apply",
    "phi_decompose",
    "PAdicRational",
    "fraction_val",
    "reconstruct",
    "IdealGens",
    "cartier_generators",
    "frobenius_pullback_ideal",
    "GroebnerBasis",
    "strong_groebner",
    "normal_form",
    "ideal_contains",
    "ideal_equal",
    "min_p_power_in",
    "NuLevelSet",
    "is_nu",
    "nu_set",
    "nu_of_ideal",
    "ResidueTree",
    "RootEntry",
    "RootReport",
    "StrengthResult",
    "StrengthVsBRow",
    "CrosscheckResult",
    "candidate_residues",
    "detect_roots",
    "strength",
    "bfunction_report",
    "crosscheck_mod_p",
    "strength_vs_bsato",
    "LevelFunction",
    "FiniteSupportModule",
    "chi",
    "refine",
    "stalk",
    "support_module",
    "bfunction_contains",
    "__version__",
]
