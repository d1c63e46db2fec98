"""Deformation complexes, the symplectic pairing, and the forgetful map.

For a seeded framed model on the rational curve this walks through the
hypercohomology of the three complexes, the skew pairing on the framed one,
and the exact matrix identity expressing that the forgetful map takes the
inverse pairing to the inclusion-induced anchor.
"""

from framedhiggs import (FRAMED, TWISTED, TWISTED_DUAL, DeformationTheory,
                         seeded_model, verify_poisson_map)
from framedhiggs.exactlinalg import rank

model = seeded_model("sl(2)", [1, 2, 3, -1], "trivial", 44, 4)
print(f"model: sl(2), points {[str(p) for p in model.curve.points]}, "
      "trivial framings, seeded residues")
theory = DeformationTheory(model)

print()
print("Hypercohomology dimensions (h0, h1, h2) and Euler identities:")
for kind in (TWISTED, FRAMED, TWISTED_DUAL):
    d = theory.cone(kind)
    print(f"  {kind:13s}: ({d.h0}, {d.h1}, {d.h2})   "
          f"chi(F0) - chi(F1) = {d.chi0 - d.chi1}   euler ok: {d.euler_identity}")

# each matrix comes as (d, integer rows): the matrix times one denominator d
den, phi = theory.symplectic_matrix()
print()
print(f"pairing matrix on the framed classes: {len(phi)} x {len(phi)} over {den}, "
      f"rank {rank(phi)}")
print(f"  exactly skew: {all(phi[i][j] == -phi[j][i] for i in range(len(phi)) for j in range(len(phi)))}")

_, p = theory.poisson_matrix()
print()
print(f"anchor matrix on the twisted classes: {len(p)} x {len(p)}, rank {rank(p)}")

check = verify_poisson_map(theory)
print()
print("matrix identity  forgetful o pairing^(-1) o adjoint == anchor:")
print(f"  residual exactly zero: {check.ok}")

class NegatedAdjoint(DeformationTheory):
    """The same model with the forgetful adjoint's sign flipped."""

    def forgetful_adjoint_matrix(self):
        den, adj = super().forgetful_adjoint_matrix()
        return den, tuple(tuple(-x for x in row) for row in adj)


bad = verify_poisson_map(NegatedAdjoint(model))
print(f"  negative control (adjoint sign flipped) fails as it should: "
      f"{not bad.ok}")

print()
print("Torus framing variant: value constraints at the marked points,")
model_t = seeded_model("sl(2)", [1, 2], "torus", 102, 4)
theory_t = DeformationTheory(model_t)
d = theory_t.cone(FRAMED)
_, phi_t = theory_t.symplectic_matrix()
print(f"  framed dims ({d.h0}, {d.h1}, {d.h2}); pairing rank {rank(phi_t)}")
