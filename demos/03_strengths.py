"""
Strengths: grading the roots
============================

The strength of a root alpha is the largest p-power gap between the
coordinates of f^a (a = truncation of alpha) and the descent ideal of
f^(a+1), walked level by level until the value stabilizes.
"""

from fractions import Fraction

from bsroots import ChainRingCtx, FrobeniusLift, Poly, bfunction_report, strength
from bsroots.cfun import stalk, support_module

ctx = ChainRingCtx(3, 1)
f = Poly(ctx, 2, {(2, 0): 1, (0, 1): 3})
lift = FrobeniusLift.standard(ctx, 2)

# per-level walks; nonincreasing, final once two consecutive levels agree
for alpha in (Fraction(-1), Fraction(-1, 2), Fraction(1, 2)):
    res = strength(f, lift, alpha)
    print(f"alpha = {alpha}: levels {res.per_level} -> strength {res.value}"
          f" (stabilized={res.stabilized})")

# a non-root has strength 0
print("alpha = -2:", strength(f, lift, Fraction(-2)).value)

# the full structured report bundles roots and strengths
report = bfunction_report(f, lift, top_level=4, den_bound=10, num_bound=10)
print("\nstructured data:")
for entry in report.roots:
    print(f"  ({entry.alpha.frac}, strength {entry.strength})")

# the same data as a finite-support module: vanishing order per point
module = support_module(ctx, report)
print("\nstalk at -1:", stalk(module, Fraction(-1)))
print("stalk at 7 (off support):", stalk(module, Fraction(7)))
