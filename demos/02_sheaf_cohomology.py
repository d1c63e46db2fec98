"""Cohomology of sheaves of rational sections on the projective line.

Sheaves are prescribed by pole bounds, value constraints at marked points and
a twist at infinity.  Sections and first cohomology are exact rational linear
algebra; Serre duality is realized as a residue pairing.
"""

from fractions import Fraction as F

from framedhiggs import (RatContext, global_sections, h1_presentation,
                         make_spec, serre_dual_spec, serre_pairing)
from framedhiggs.exactlinalg import rank

points = (F(1), F(2), F(3))
ctx = RatContext(points, 1)

print("One-forms with at most simple poles at three marked points,")
print("holomorphic at infinity (the canonical-with-poles model):")
spec_kd = make_spec(1, [1, 1, 1], None, -2, is_form=True)
basis = global_sections(ctx, spec_kd)
print(f"  h0 = {len(basis)}")
for s in basis:
    # the residue of s dz at x_i is the Laurent coefficient of (z - x_i)^-1;
    # at infinity it is minus the coefficient of u = 1/z
    res = [s.laurent_coeff(i, -1)[0] for i in range(3)]
    print(f"  residues at the marked points: {res}, at infinity: "
          f"{-s.infinity_coeff(1)[0]} (sum = {sum(res)})")

print()
print("A negative line bundle: sections forced to vanish at all three points.")
spec_neg = make_spec(1, [-1, -1, -1], None, 0)
pres = h1_presentation(ctx, spec_neg)
print(f"  h0 = {len(global_sections(ctx, spec_neg))}, h1 = {pres.dim}, "
      f"chi = {spec_neg.euler_char()}")

print()
print("Serre duality: H^1 of the negative bundle pairs perfectly with the")
print("sections of the dual twisted by the canonical model.")
dual = serre_dual_spec(spec_neg)
dual_secs = global_sections(ctx, dual)
mat = [[serre_pairing(r, d) for d in dual_secs] for r in pres.representatives()]
print(f"  pairing matrix: {[[str(x) for x in row] for row in mat]}")
print(f"  rank = {rank(mat)} (= h1 = {pres.dim})")

print()
print("Value constraints: a rank-2 sheaf whose value at the first point is")
print("confined to a line; the Euler characteristic bookkeeping stays exact.")
ctx2 = RatContext(points, 2)
spec_con = make_spec(2, [0, 0, 0], [[(F(1), F(1))], None, None], 0)
h0 = len(global_sections(ctx2, spec_con))
h1 = h1_presentation(ctx2, spec_con).dim
print(f"  h0 = {h0}, h1 = {h1}, chi = {spec_con.euler_char()} "
      f"(h0 - h1 = {h0 - h1})")
