import random
from fractions import Fraction as F

import numpy as np
import pytest

from framedhiggs.gaudin import FlowToleranceError, GaudinSystem, PolyObservable
from framedhiggs.liealg import AlgebraModel, mat_trace, matrix_invariants
from framedhiggs.sampling import random_algebra_element, random_residue_tuple

PTS3 = (F(1), F(2), F(3))


def balanced_tuple(model, rng, n, h=5):
    els = [random_algebra_element(model, rng, h) for _ in range(n - 1)]
    total = els[0]
    for e in els[1:]:
        total = total + e
    els.append(total.scale(-1))
    return els


# ---------------------------------------------------------------------------
# the Hitchin map on residue data
# ---------------------------------------------------------------------------

def test_zero_residues_map_to_zero():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    z = model.zero()
    assert system.hitchin_point([z, z, z]).is_zero()


def test_quadratic_residues_are_gaudin_hamiltonians():
    # oracle: Res_{x_i} e_2(theta) = -sum_{j != i} tr(A_i A_j)/(x_i - x_j)
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(7)
    els = balanced_tuple(model, rng, 3)
    hp = system.hitchin_point(els)
    for i in range(3):
        acc = F(0)
        for j in range(3):
            if j != i:
                prod = tuple(tuple(sum(els[i].matrix[a][k] * els[j].matrix[k][b]
                                       for k in range(2)) for b in range(2))
                             for a in range(2))
                acc += mat_trace(prod) / (PTS3[i] - PTS3[j])
        assert hp.coeffs[0].get((i, 1), F(0)) == -acc


def test_gl2_trace_component():
    model = AlgebraModel("gl(2)")
    system = GaudinSystem(model, (F(1), F(2)))
    a = model.element([[1, 2], [3, 4]])
    hp = system.hitchin_point([a, a.scale(-1)])
    tr = F(5)
    assert hp.coeffs[0].get((0, 1)) == tr
    assert hp.coeffs[0].get((1, 1)) == -tr
    assert (0, 2) not in hp.coeffs[0] and (1, 2) not in hp.coeffs[0]


def test_hitchin_map_requires_zero_sum():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    a = model.element([[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="sum of residues"):
        system.hitchin_point([a, a, a])


def test_hitchin_map_conjugation_invariance():
    model = AlgebraModel("sl(3)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(19)
    els = balanced_tuple(model, rng, 3, 3)
    hp = system.hitchin_point(els)
    g = [[F(1), F(1), F(0)], [F(0), F(1), F(2)], [F(0), F(0), F(1)]]
    from framedhiggs.exactlinalg import inverse
    gi = inverse([list(r) for r in g])
    conj = []
    for el in els:
        gm = [[sum(g[i][k] * el.matrix[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        mat = [[sum(gm[i][k] * gi[k][j] for k in range(3)) for j in range(3)]
               for i in range(3)]
        conj.append(model.element(mat))
    assert system.hitchin_point(conj) == hp


def test_agreement_of_symbolic_and_numeric_expansion():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(23)
    els = balanced_tuple(model, rng, 3)
    vals = system.flatten_point(els)
    hp = system.hitchin_point(els)
    fns = system.coefficient_functions()
    for (i, j), fn in fns[0].items():
        assert fn(vals) == hp.coeffs[0].get((i, j), F(0))


# ---------------------------------------------------------------------------
# Lie-Poisson bracket
# ---------------------------------------------------------------------------

def test_bracket_antisymmetry():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    f = system.coordinate(0, 0, 1) * system.coordinate(1, 1, 0)
    assert system.bracket_symbolic(f, f).is_zero()


def test_single_site_structure_constants():
    # coordinates paired against e and f bracket to the pairing against [e, f] = h
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1),))
    e = model.element([[0, 1], [0, 0]])
    f = model.element([[0, 0], [1, 0]])
    h = model.element([[1, 0], [0, -1]])
    obs_e = system.pairing_observable(0, e)
    obs_f = system.pairing_observable(0, f)
    obs_h = system.pairing_observable(0, h)
    assert (system.bracket_symbolic(obs_e, obs_f) - obs_h).is_zero()


def test_bracket_leibniz_rule():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1), F(2)))
    x = system.coordinate(0, 0, 1)
    y = system.coordinate(1, 1, 0)
    w = system.coordinate(0, 0, 0)
    lhs = system.bracket_symbolic(x, y * w)
    rhs = system.bracket_symbolic(x, y) * w + y * system.bracket_symbolic(x, w)
    assert (lhs - rhs).is_zero()


def test_bracket_jacobi_identity():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1), F(2)))
    rng = random.Random(5)

    def random_obs():
        obs = PolyObservable()
        for _ in range(3):
            term = PolyObservable.constant(F(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * system.coordinate(rng.randint(0, 1),
                                                rng.randint(0, 1), rng.randint(0, 1))
            obs = obs + term
        return obs

    for _ in range(3):
        x, y, w = random_obs(), random_obs(), random_obs()
        jac = (system.bracket_symbolic(system.bracket_symbolic(x, y), w)
               + system.bracket_symbolic(system.bracket_symbolic(y, w), x)
               + system.bracket_symbolic(system.bracket_symbolic(w, x), y))
        assert jac.is_zero()


def test_commutativity_small_and_negative_control():
    rng = random.Random(11)
    for gid in ["sl(2)", "gl(2)"]:
        model = AlgebraModel(gid)
        system = GaudinSystem(model, PTS3)
        tuples = [random_residue_tuple(model, rng, 3, 4, zero_sum=False)
                  for _ in range(3)]
        worst, _ = system.commutativity_check(tuples)
        assert worst == 0
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    fns = system.coefficient_function_list()
    noninv = system.coordinate(0, 0, 1) * system.coordinate(0, 1, 0)
    point = random_residue_tuple(model, rng, 3, 4, zero_sum=False)
    assert system.bracket_at(fns[0][3], noninv, point) != 0


def test_commutativity_so5_spot():
    rng = random.Random(29)
    model = AlgebraModel("so(5)")
    system = GaudinSystem(model, (F(1), F(2)))
    tuples = [random_residue_tuple(model, rng, 2, 2, zero_sum=False)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0


def test_commutativity_so4_spot():
    # so(4) is the one family whose last generator is a Pfaffian; its gradients
    # come from the symbolic Pfaffian coefficient functions alone.
    rng = random.Random(41)
    model = AlgebraModel("so(4)")
    system = GaudinSystem(model, PTS3)
    tuples = [random_residue_tuple(model, rng, 3, 3, zero_sum=False)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0
    assert list(system._coeff_functions) == [1]


@pytest.mark.parametrize("gid", ["gl(3)", "sl(3)", "sp(4)", "so(5)", "so(4)"])
def test_invariants_agree_on_symbolic_and_numeric_matrices(gid):
    model = AlgebraModel(gid)
    system = GaudinSystem(model, (F(1),))
    el = random_algebra_element(model, random.Random(43), 4)
    values = system.flatten_point([el])
    symbolic = matrix_invariants(model.group, system.site_matrix(0))
    numeric = matrix_invariants(model.group, el.matrix)
    assert len(symbolic) == len(numeric) == model.group.rank
    assert [p(values) for p in symbolic] == numeric


# ---------------------------------------------------------------------------
# Hamiltonian flow
# ---------------------------------------------------------------------------

def test_flow_conserves_invariant_coefficients():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(3)
    els = balanced_tuple(model, rng, 3, 3)
    ham = system.coefficient_function_list()[0][3]
    traj, report = system.integrate_flow(els, ham, 1.0, 2000)
    assert max(r["relative_drift"] for r in report) < 1e-8
    assert not np.allclose(traj[0], traj[-1])  # genuine motion


def test_flow_zero_time_is_identity():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(3)
    els = balanced_tuple(model, rng, 3, 3)
    ham = system.coefficient_function_list()[0][3]
    traj, _ = system.integrate_flow(els, ham, 0.0, 5)
    assert np.array_equal(traj[0], traj[-1])


def test_casimir_flow_is_stationary():
    # single site with the zero-sum constraint relaxed: p_2 generates nothing
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1),))
    rng = random.Random(31)
    el = random_algebra_element(model, rng, 3)
    cas = system.coefficient_function_list()[0][3]
    traj, _ = system.integrate_flow([el], cas, 1.0, 50)
    assert np.allclose(traj[0], traj[-1])


def test_flow_tolerance_error():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(3)
    els = balanced_tuple(model, rng, 3, 3)
    ham = system.coefficient_function_list()[0][3]
    with pytest.raises(FlowToleranceError, match="drift"):
        system.integrate_flow(els, ham, 20.0, 3, drift_tolerance=1e-12)


def test_commutativity_sp4_spot():
    rng = random.Random(37)
    model = AlgebraModel("sp(4)")
    system = GaudinSystem(model, (F(1), F(2)))
    tuples = [random_residue_tuple(model, rng, 2, 3, zero_sum=False)
              for _ in range(2)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0


def test_model_level_wrappers():
    from framedhiggs.gaudin import commutativity_check, hamiltonian_flow, hitchin_map
    from framedhiggs.sampling import seeded_model
    model = seeded_model("sl(2)", (F(1), F(2), F(3)), "trivial", 7, 5)
    hp = hitchin_map(model)
    assert not hp.is_zero()
    worst, _ = commutativity_check(model, random_points=2, seed=1)
    assert worst == 0
    system = GaudinSystem(model.algebra, model.curve.points)
    ham = system.coefficient_functions()[0][(0, 1)]
    _, drift = hamiltonian_flow(model, ham, 0.5, 500)
    assert max(r["relative_drift"] for r in drift) < 1e-8
