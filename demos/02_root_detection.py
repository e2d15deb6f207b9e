"""
Detecting rational roots from the level sets
============================================

A root is a p-adic integer whose truncation mod p^(e+m) lies in every level
window. The windows are nested by truncation, so each residue at the top
level has its whole truncation chain in the level sets below. Those
residues are matched against bounded fractions; what cannot be matched is
reported as unresolved. A matched fraction is a root up to the top level
only: a deeper level can drop it.
"""

from bsroots import ChainRingCtx, FrobeniusLift, Poly, detect_roots

ctx = ChainRingCtx(3, 1)
f = Poly(ctx, 2, {(2, 0): 1, (0, 1): 3})
lift = FrobeniusLift.standard(ctx, 2)

# the level sets the roots are read from, each member truncating to a member
# of the level below (every mode checks this nesting)
report = detect_roots(f, lift, top_level=4, den_bound=10, num_bound=10)
for level in report.levels:
    print(f"level {level.e} survivors (mod {level.window}): {level.members}")

# reconstruct bounded fractions from the top-level residues
print("\nroots found:")
for entry in report.roots:
    print(f"  alpha = {entry.alpha.frac}   residue {entry.residue}"
          f"   digits {entry.alpha.digits(6)}")

# honesty about the rest: these lie in every level set but match no
# fraction with denominator <= 10 and |numerator| <= 10
print("unresolved residues:", report.unresolved)

# the same walk for f = x over Z/4 shows why unresolved happens: the level
# sets only pin the low e+m digits, so a second all-ones branch never resolves
ctx4 = ChainRingCtx(2, 1)
x = Poly.variable(ctx4, 1, 0)
rep4 = detect_roots(x, FrobeniusLift.standard(ctx4, 1), top_level=7,
                    den_bound=10, num_bound=10)
print("\nf = x over Z/4:")
print("  roots:", [str(e.alpha.frac) for e in rep4.roots])
print("  unresolved:", rep4.unresolved)
