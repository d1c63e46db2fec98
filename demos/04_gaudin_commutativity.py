"""The Hitchin map on residue tuples, exact commutativity, and flows.

Residue matrices at marked points with zero sum define a Higgs field on the
trivialized rational curve.  Its invariant-polynomial coefficients are the
commuting Hamiltonians; the quadratic ones are the classical Gaudin
Hamiltonians.  Brackets are exact; flows are floating point with monitored
conservation.
"""

import random
from fractions import Fraction as F

from framedhiggs import GaudinSystem, seeded_model
from framedhiggs.liealg import AlgebraModel
from framedhiggs.sampling import random_residue_tuple

points = (F(1), F(2), F(3))
model = seeded_model("sl(2)", points, "trivial", 7, 5)
algebra = AlgebraModel("sl(2)")
system = GaudinSystem(algebra, points)

print("Residue matrices (sum is zero):")
for i, el in enumerate(model.residues):
    print(f"  A_{i} = {[[str(x) for x in row] for row in el.matrix]}")

hp = system.hitchin_point(model.residues)
print()
print("Invariant coefficients of the quadratic component (site, pole order):")
for (i, j), v in sorted(hp.coeffs[0].items()):
    print(f"  ({i}, {j}): {v}")
print("  normalization: trace form on the defining representation")

print()
print("Exact Poisson commutativity of all coefficient pairs at the model")
print("point and at 5 random rational points:")
rng = random.Random(7)
tuples = [list(model.residues)] + [
    random_residue_tuple(algebra, rng, 3, 10, zero_sum=False) for _ in range(5)]
worst, pair = system.commutativity_check(tuples)
print(f"  max |{{H_a, H_b}}| = {abs(worst)}")

print()
print("Hamiltonian flow of one Gaudin Hamiltonian (fourth-order, 10^4 steps):")
ham = system.coefficient_functions(0)[0, 1]
traj, drift = system.integrate_flow(model.residues, ham, 1.0, 10 ** 4)
worst_drift = max(r["relative_drift"] for r in drift)
print(f"  worst relative drift of any conserved coefficient: {worst_drift:.3e}")
start, end = ([x for site in sites for row in site for x in row] for sites in traj)
moved = max(abs(a - b) for a, b in zip(start, end))
print(f"  largest residue-entry displacement along the flow: {moved:.3f}")

print()
print("A non-invariant observable is not conserved (negative control):")
(a01, a10), (b01, b10) = [(sites[0][0][1], sites[0][1][0]) for sites in traj]
print(f"  (A_0)_01 (A_0)_10 goes from {a01 * a10:.6f} to {b01 * b10:.6f}")
