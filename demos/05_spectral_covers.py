"""Spectral curves: discriminants, branch data, and the genus identity.

The characteristic coefficients of the Higgs field are exact rational
functions; branch points are roots of an exact discriminant numerator.
Ramification over the marked points and smoothness are decided exactly, and
the smooth-curve genus matches the fiber dimension formula on a whole grid.
"""

from fractions import Fraction as F

from framedhiggs import seeded_model, spectral_data, spectral_genus, torsor_fiber_report
from framedhiggs.liealg import AlgebraModel
from framedhiggs.sampling import random_algebra_element
import random

points = (F(1), F(2), F(3))
model = seeded_model("sl(2)", points, "trivial", 3, 5)
algebra = AlgebraModel("sl(2)")

rep = spectral_data(algebra, points, model.residues)
print("Generic sl(2) model on three points:")
print(f"  discriminant numerator degree : {len(rep.disc_numerator) - 1}")
print(f"  branch divisor degree         : {rep.branch_degree}")
print(f"  residue discriminants at D    : {[str(v) for v in rep.disc_at_marked]}")
print(f"  unramified over marked points : {rep.unramified_over_marked}")
print(f"  square-free / smooth          : {rep.squarefree} / {rep.smooth}")
print(f"  rational branch points        : {rep.rational_branch_points}")
for box in rep.isolated_branch_boxes:
    if box[0] == "real":
        print(f"  real branch point in ({float(box[1]):.9f}, {float(box[2]):.9f})")
    else:
        print(f"  complex branch point in box {box[1]} .. {box[2]}")
print(f"  genus of the spectral curve   : {rep.genus}")

print()
print("Torsor dimension count over this fiber (genus-0 diagnostic):")
tr = torsor_fiber_report(rep, genus=0)
print(f"  base {tr.base_dim}, fiber {tr.fiber_dim}, framed fiber "
      f"{tr.framed_fiber_dim}, relatively framed {tr.relative_fiber_dim}")
for note in tr.notes:
    print(f"  note: {note}")

print()
print("A nilpotent residue forces ramification over its marked point:")
rng = random.Random(5)
nil = algebra.element([[0, 1], [0, 0]])
b = random_algebra_element(algebra, rng, 3)
rep2 = spectral_data(algebra, points, [nil, b, (nil + b).scale(-1)])
print(f"  residue discriminants at D: {[str(v) for v in rep2.disc_at_marked]}")
print(f"  inside the smooth unramified locus: {rep2.in_nonramified_smooth_locus()}")

print()
print("Genus identity grid (Riemann-Hurwitz count == fiber dimension):")
for r in range(2, 6):
    row = [spectral_genus(r, g, 3) for g in range(0, 5)]
    print(f"  rank {r}: genera over g=0..4 with n=3: {row}")
