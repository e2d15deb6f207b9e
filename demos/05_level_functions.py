"""
Level functions and the containment query
==========================================

Locally constant functions on p-adic integers at level e are value tables
indexed by residues mod p^e. Refining to a finer level is a ring map, and
the structured root data answers whether a function vanishes to the
required order at every root.
"""

from bsroots import ChainRingCtx, FrobeniusLift, Poly, bfunction_report
from bsroots.cfun import LevelFunction, bfunction_contains, chi, refine

ctx = ChainRingCtx(3, 1)

# indicator of one residue class, and its refinement one level up
phi = chi(ctx, 1, 2)
print("chi(1, 2) values:", phi.values)
print("refined to level 2:", refine(phi, 2).values)

# pointwise ring structure
psi = LevelFunction(ctx, 1, [3, 1, 0])
print("(phi + psi):", (phi + psi).values, " (phi * psi):", (phi * psi).values)

# the containment query against the running example's graded roots
f = Poly(ctx, 2, {(2, 0): 1, (0, 1): 3})
report = bfunction_report(f, FrobeniusLift.standard(ctx, 2),
                          top_level=4, den_bound=10, num_bound=10)
print("\nroots:", [(str(e.alpha.frac), e.strength) for e in report.roots])

# level 1 cannot separate -1 from 1/2 (both are 2 mod 3), so it is refused
try:
    bfunction_contains(report, chi(ctx, 1, 0))
except ValueError as exc:
    print("level 1 refused:", exc)

# level 2 separates the roots: truncations are 8, 4, 5 mod 9.
# val(values[8]) >= 2, val(values[4]) >= 1, val(values[5]) >= 1 passes;
# weakening the first to val 1 fails.
values = [1] * 9
values[8], values[4], values[5] = 0, 3, 6
print("member:", bfunction_contains(report, LevelFunction(ctx, 2, values)))
values[8] = 3
print("after weakening at -1:", bfunction_contains(report, LevelFunction(ctx, 2, values)))
