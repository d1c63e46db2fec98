"""Exact oracles for the tests: definitions no `hfb` job runs, against which
the tests check the code that the jobs do run.

- `mat_is_zero` and `mat_commutator` on matrices, and `check_invariance`
  and `perp_subspace`: Lie-algebra identities in the defining
  representation;
- `sigma_gradient_at` and `bracket_at`: the product Lie-Poisson bracket of
  two polynomial observables at a point, from their exact sigma-gradients at
  each site, against which the sample-point bracket table is checked;
- `NegatedAdjointTheory`: the negative control of `verify_poisson_map`.
"""

from framedhiggs.deformation import DeformationTheory
from framedhiggs.exactlinalg import ONE, ZERO, mat_comb, mat_mul, mat_vec
from framedhiggs.liealg import bracket, mat_trace, perp_coordinates


def mat_is_zero(a):
    return all(x == 0 for row in a for x in row)


def mat_commutator(a, b):
    """ab - ba, for matrices of Fractions or of polynomial observables."""
    return mat_comb([ONE, -ONE], [mat_mul(a, b), mat_mul(b, a)])


def check_invariance(form, a, b, c):
    """Invariance residual sigma([a,c], b) + sigma(c, [a,b]); zero for valid forms."""
    return form(bracket(a, c), b) + form(c, bracket(a, b))


def perp_subspace(form, subspace, model):
    """Basis of the annihilator, the elements of `liealg.perp_coordinates`."""
    return [model.from_coords(c) for c in perp_coordinates(form, subspace, model)]


def sigma_gradient_at(system, fn, site, values):
    """The algebra element nabla_site fn with tr(nabla xi) = D_xi fn, for a
    polynomial observable fn of the `GaudinSystem` at the flattened point
    values."""
    s = system.s
    flat_t = [fn.diff(system.var(site, a, b))(values) for b in range(s) for a in range(s)]
    return system.model.from_coords(mat_vec(system._grad_rows, flat_t))


def bracket_at(system, f, g, residues):
    """{f, g} = sum_i tr(A_i [nabla_i f, nabla_i g]) at the given residue tuple."""
    values = system.flatten_point(residues)
    acc = ZERO
    for i, el in enumerate(residues):
        df = sigma_gradient_at(system, f, i, values)
        dg = sigma_gradient_at(system, g, i, values)
        acc += mat_trace(mat_mul(el.matrix, mat_commutator(df.matrix, dg.matrix)))
    return acc


class NegatedAdjointTheory(DeformationTheory):
    """A theory whose forgetful adjoint is negated: `verify_poisson_map` must
    then fail wherever the anchor is nonzero, since F φ^{-1} (-A) - P = -2P."""

    def forgetful_adjoint_matrix(self):
        den, adj = super().forgetful_adjoint_matrix()
        return den, tuple(tuple(-x for x in row) for row in adj)
