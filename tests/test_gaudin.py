import random
from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedhiggs.exactlinalg import (identity, mat_comb, mat_mul, mat_vec,
                                     over_common_denominator)
from framedhiggs import gaudin
from framedhiggs.gaudin import (GaudinSystem, PolyObservable, _term_table, _term_values,
                               worst_drift)
from framedhiggs.liealg import (PFAFFIAN, AlgebraModel, char_poly_elementary, flatten,
                                mat_commutator, mat_trace, matrix_invariants,
                                newton_elementary, theta_at, theta_char_polys)
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

def pairing_observable(system, site, el):
    """The linear observable A_site |-> tr(A_site el)."""
    obs = PolyObservable()
    for a in range(system.s):
        for b in range(system.s):
            if el.matrix[b][a]:
                obs = obs + system.coordinate(site, a, b).scale(el.matrix[b][a])
    return obs


def bracket_symbolic(system, f, g):
    """Oracle: {f, g} as an exact polynomial observable."""
    acc = PolyObservable()
    for i in range(system.n):
        comm = mat_commutator(system._symbolic_gradient(f, i), system._symbolic_gradient(g, i))
        for a in range(system.s):
            for b in range(system.s):
                acc = acc + (system.coordinate(i, a, b) * comm[b][a])
    return acc


def test_bracket_antisymmetry():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    f = system.coordinate(0, 0, 1) * system.coordinate(1, 1, 0)
    assert bracket_symbolic(system, f, f).is_zero()


def test_single_site_structure_constants():
    # coordinates paired against e and f bracket to the pairing against [e, f] = h
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1),))
    e = model.element([[0, 1], [0, 0]])
    f = model.element([[0, 0], [1, 0]])
    h = model.element([[1, 0], [0, -1]])
    obs_e = pairing_observable(system, 0, e)
    obs_f = pairing_observable(system, 0, f)
    obs_h = pairing_observable(system, 0, h)
    assert (bracket_symbolic(system, obs_e, obs_f) - obs_h).is_zero()


def test_bracket_leibniz_rule():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1), F(2)))
    x = system.coordinate(0, 0, 1)
    y = system.coordinate(1, 1, 0)
    w = system.coordinate(0, 0, 0)
    lhs = bracket_symbolic(system, x, y * w)
    rhs = bracket_symbolic(system, x, y) * w + y * bracket_symbolic(system, x, w)
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
        jac = (bracket_symbolic(system, bracket_symbolic(system, x, y), w)
               + bracket_symbolic(system, bracket_symbolic(system, y, w), x)
               + bracket_symbolic(system, bracket_symbolic(system, w, x), y))
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


# Reference bracket table: every coefficient's site gradient combined and
# projected on its own in Fractions, and every pair's bracket as two full
# matrix products per site, O(K^2 n s^3) for K coefficient functions.

def _char_gradient_matrices(x):
    """P_m(X) = sum_{j<=m} (-1)^j e_{m-j}(X) X^j in Fractions, from the
    powers of X and Newton's identities, so that the directional derivative
    of e_{m+1} at X along V is tr(P_m(X) V)."""
    s = len(x)
    powers = [identity(s)]
    for _ in range(s):
        powers.append(mat_mul(powers[-1], x))
    e = [F(1)] + newton_elementary([mat_trace(p) for p in powers[1:]])
    return [mat_comb([(-1) ** j * e[m - j] for j in range(m + 1)], powers)
            for m in range(s)]


def _reference_gradients(system, residues):
    out = []
    mats = [el.matrix for el in residues]
    grad_cache = {}
    for k, index in enumerate(system._indices):
        cols, ts, vinv = system._interp_data(k)
        if index == PFAFFIAN:
            values = system.flatten_point(residues)
            for col, fn in sorted(system._coefficient_functions_of(k).items()):
                grads = [[[entry(values) for entry in row]
                          for row in system._symbolic_gradient(fn, l)]
                         for l in range(system.n)]
                out.append(((k, col[0], col[1]), grads))
            continue
        for t in ts:
            if t not in grad_cache:
                grad_cache[t] = _char_gradient_matrices(theta_at(system.points, mats, t))
        for row, col in zip(vinv, cols):
            grads = []
            for x in system.points:
                combo = mat_comb([w / (t - x) for w, t in zip(row, ts)],
                                 [grad_cache[t][index - 1] for t in ts])
                coords = mat_vec(system._grad_rows, flatten(combo))
                grads.append([list(r) for r in system.model.from_coords(coords).matrix])
            out.append(((k, col[0], col[1]), grads))
    return out


def _reference_check(residue_tuples, gradients_at):
    worst, worst_pair = F(0), None
    for residues in residue_tuples:
        data = gradients_at(residues)
        for ia in range(len(data)):
            for ib in range(ia + 1, len(data)):
                val = F(0)
                for i, el in enumerate(residues):
                    comm = mat_commutator(data[ia][1][i], data[ib][1][i])
                    val += mat_trace(mat_mul(el.matrix, comm))
                if abs(val) > abs(worst):
                    worst, worst_pair = val, (data[ia][0], data[ib][0])
    return worst, worst_pair


def _as_matrices(system, data):
    s = system.s
    return [(key, [[[F(x, d) for x in m[r * s:(r + 1) * s]] for r in range(s)]
                   for d, m in grads])
            for key, grads in data]


def _random_matrix(rng, s, kind):
    """A seeded s x s rational matrix: zero, nilpotent (strictly upper
    triangular), singular (last row a combination of the others) or general,
    with mixed denominators."""
    def entry():
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12]))
    if kind == "zero":
        return [[F(0)] * s for _ in range(s)]
    if kind == "nilpotent":
        return [[entry() if b > a else F(0) for b in range(s)] for a in range(s)]
    m = [[entry() for _ in range(s)] for _ in range(s)]
    if kind == "singular":
        m[-1] = [F(0)] * s if s == 1 else [2 * x - y for x, y in zip(m[0], m[-2])]
    return m


KERNEL_KINDS = ["zero", "nilpotent", "singular", "general"]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_char_poly_kernel_matches_the_fraction_oracle(s, kind):
    # theta(1) = X for the single residue X at 0, so the kernel's e_m / D^m and
    # Q_m / D^m must be char_poly_elementary(X) and P_m(X).
    rng = random.Random(61 + 7 * s + KERNEL_KINDS.index(kind))
    for _ in range(4):
        x = _random_matrix(rng, s, kind)
        [(den, e, qs)] = theta_char_polys([F(0)], [x], [F(1)])
        assert all(isinstance(v, int) for v in [den, *e] + [y for q in qs for y in q])
        assert [F(v, den ** m) for m, v in enumerate(e, start=1)] == char_poly_elementary(x)
        assert ([[F(v, den ** m) for v in q] for m, q in enumerate(qs)]
                == [flatten(p) for p in _char_gradient_matrices(x)])
        if kind == "zero":
            assert (den, e) == (1, [0] * s)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_char_poly_kernel_on_residue_tuples_with_mixed_denominators(s):
    rng = random.Random(67 + s)
    points = [F(1, 2), F(-3), F(7, 3)]
    ts = [F(4), F(9, 2), F(-5, 7)]
    for kinds in (["general", "singular", "nilpotent"], ["zero", "general", "zero"],
                  ["nilpotent"] * 3):
        mats = [_random_matrix(rng, s, kind) for kind in kinds]
        for t, (den, e, qs) in zip(ts, theta_char_polys(points, mats, ts)):
            theta = theta_at(points, mats, t)
            assert den == over_common_denominator(flatten(theta))[0]
            assert [F(v, den ** m) for m, v in enumerate(e, start=1)] \
                == char_poly_elementary(theta)
            assert ([[F(v, den ** m) for v in q] for m, q in enumerate(qs)]
                    == [flatten(p) for p in _char_gradient_matrices(theta)])


BRACKET_CASES = [("sl(3)", PTS3, 2), ("gl(2)", PTS3, 3), ("sp(4)", (F(1), F(2)), 2),
                 ("so(5)", (F(1), F(2)), 1), ("so(4)", PTS3, 1)]


@pytest.mark.parametrize("gid, points, count", BRACKET_CASES,
                         ids=[case[0] for case in BRACKET_CASES])
def test_bracket_table_matches_reference(gid, points, count):
    model = AlgebraModel(gid)
    system = GaudinSystem(model, points)
    rng = random.Random(53)
    tuples = [random_residue_tuple(model, rng, len(points), 4, zero_sum=False)
              for _ in range(count)]
    for residues in tuples:
        assert (_as_matrices(system, system.coefficient_gradients_at(residues))
                == _reference_gradients(system, residues))
    expected = _reference_check(tuples, lambda r: _reference_gradients(system, r))
    assert system.commutativity_check(tuples) == expected == (0, None)


@pytest.mark.parametrize("gid, points, count", BRACKET_CASES,
                         ids=[case[0] for case in BRACKET_CASES])
def test_bracket_table_reference_catches_an_off_by_one_gradient(monkeypatch, gid, points,
                                                                count):
    # Reading Q_(m-1) where Q_m belongs gives every gradient of e_m, m >= 2,
    # the wrong matrix; the reference comparison must see it.
    def shifted(points, matrices, ts):
        return [(den, e, [qs[0]] + qs[:-1])
                for den, e, qs in theta_char_polys(points, matrices, ts)]
    monkeypatch.setattr(gaudin, "theta_char_polys", shifted)
    with pytest.raises(AssertionError):
        test_bracket_table_matches_reference(gid, points, count)


@pytest.mark.parametrize("gid, points, count", BRACKET_CASES,
                         ids=[case[0] for case in BRACKET_CASES])
def test_bracket_table_negative_control(monkeypatch, gid, points, count):
    # A_0[0][1] A_0[1][0] is not invariant: with its gradient appended, the
    # exact-zero gate must fail, and both tables must name the same bracket.
    model = AlgebraModel(gid)
    system = GaudinSystem(model, points)
    noninv = system.coordinate(0, 0, 1) * system.coordinate(0, 1, 0)
    key = ("non-invariant",)

    def noninv_gradients(residues):
        values = system.flatten_point(residues)
        return [[list(r) for r in system.sigma_gradient_at(noninv, l, values).matrix]
                for l in range(system.n)]

    original = GaudinSystem.coefficient_gradients_at

    def with_noninv(self, residues):
        extra = [over_common_denominator(flatten(m)) for m in noninv_gradients(residues)]
        return original(self, residues) + [(key, extra)]

    monkeypatch.setattr(GaudinSystem, "coefficient_gradients_at", with_noninv)
    rng = random.Random(59)
    tuples = [random_residue_tuple(model, rng, len(points), 4, zero_sum=False)
              for _ in range(count)]
    worst, pair = system.commutativity_check(tuples)
    expected = _reference_check(
        tuples, lambda r: _reference_gradients(system, r) + [(key, noninv_gradients(r))])
    assert (worst, pair) == expected
    assert worst != 0 and pair[1] == key


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


# Reference flow: one closure per polynomial, summing c * x_v ** e * ... term
# by term, and the commutator taken one site at a time.

def _compiled(poly):
    data = [(float(c), list(m)) for m, c in poly.terms.items()]

    def run(values):
        acc = 0.0
        for c, mono in data:
            t = c
            for v, e in mono:
                t *= values[v] ** e
            acc += t
        return acc
    return run


def _reference_flow(system, residues, hamiltonian, t_end, steps):
    s = system.s
    grad = [[[_compiled(x) for x in row] for row in system._symbolic_gradient(hamiltonian, i)]
            for i in range(system.n)]
    fns = [(k, i, j, _compiled(fn)) for k, i, j, fn in system.coefficient_function_list()]
    state = np.array([[[float(x) for x in row] for row in el.matrix] for el in residues])

    def rhs(st):
        flat = st.reshape(-1)
        out = np.empty_like(st)
        for i in range(system.n):
            g = np.array([[grad[i][a][b](flat) for b in range(s)] for a in range(s)])
            out[i] = st[i] @ g - g @ st[i]
        return out

    h = t_end / steps
    start = [fn(state.reshape(-1)) for *_, fn in fns]
    scale = max(1.0, max(abs(v) for v in start))
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    end = [fn(state.reshape(-1)) for *_, fn in fns]
    report = [{"degree_index": k, "site": i, "order": j, "start": v0, "end": v1,
               "relative_drift": abs(v1 - v0) / max(abs(v0), 1e-3 * scale)}
              for (k, i, j, _), v0, v1 in zip(fns, start, end)]
    return state, report


# The coefficient functions are multilinear in the entries; the squared
# Hamiltonian's gradient has squared entries, which take the power path.
FLOW_CASES = [("sl(2)", 3, 0, (0, 1), 1, 1.0, 300), ("sl(2)", 3, 0, (1, 1), 2, 0.05, 100),
              ("sl(3)", 3, 1, (1, 2), 1, 0.02, 40), ("so(4)", 2, 1, (1, 2), 1, 0.02, 20)]


@pytest.mark.parametrize("gid, n, k, col, power, t_end, steps", FLOW_CASES,
                         ids=["sl(2)", "sl(2)-squared", "sl(3)", "so(4)"])
def test_flow_matches_term_by_term_reference(gid, n, k, col, power, t_end, steps):
    model = AlgebraModel(gid)
    system = GaudinSystem(model, PTS3[:n])
    els = balanced_tuple(model, random.Random(61), n, 3)
    ham = system.coefficient_functions()[k][col]
    if power == 2:
        ham = ham * ham
        assert any(e > 1 for m in ham.diff(0).terms for _, e in m)
    traj, report = system.integrate_flow(els, ham, t_end, steps)
    state, expected = _reference_flow(system, els, ham, t_end, steps)
    assert np.isfinite(state).all()
    assert np.array_equal(traj[-1], state)
    assert report == expected


def test_term_table_matches_term_by_term_loop():
    # Squares and cubes included: the numpy array power rounds some of them
    # differently from the scalar power the loop uses.
    rng = random.Random(67)
    polys = [PolyObservable({tuple(sorted({rng.randrange(6): rng.randint(1, 3)
                                           for _ in range(rng.randint(0, 3))}.items())):
                             F(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(rng.randint(0, 6))})
             for _ in range(12)]
    loops = [_compiled(p) for p in polys]
    points = np.random.default_rng(67).standard_normal((2000, 6)) * 7.0
    # one batch member per point
    for point, values in zip(points, _term_values(_term_table([polys] * len(points), 6), points)):
        assert all(v == loop(point) for v, loop in zip(values, loops))


@cache
def _flow_system(gid, n):
    return GaudinSystem(AlgebraModel(gid), PTS3[:n])


@st.composite
def _hamiltonians(draw, nvars):
    """A sparse polynomial of degree <= 2, or the product of two: products
    put several factors and powers x ** e into the gradient's terms."""
    def poly():
        return PolyObservable({
            tuple(sorted(draw(st.dictionaries(st.integers(0, nvars - 1), st.integers(1, 2),
                                              max_size=2)).items())):
            F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 3)))})
    ham = poly()
    return ham * poly() if draw(st.booleans()) else ham


@st.composite
def _flow_batches(draw):
    gid, n = draw(st.sampled_from([("sl(2)", 3), ("sl(3)", 2)]))
    system = _flow_system(gid, n)
    flows = [(balanced_tuple(system.model, random.Random(draw(st.integers(0, 99))), n, 3),
              draw(_hamiltonians(n * system.s * system.s)))
             for _ in range(draw(st.integers(1, 3)))]
    return system, flows, draw(st.sampled_from([0.001, 0.005])), draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_flow_batches())
def test_a_batch_of_flows_is_bit_for_bit_each_flow_alone(batch):
    system, flows, t_end, steps = batch
    for (residues, ham), (traj, report) in zip(flows, system.integrate_flows(flows, t_end,
                                                                             steps)):
        state, expected = _reference_flow(system, residues, ham, t_end, steps)
        solo_traj, solo_report = system.integrate_flow(residues, ham, t_end, steps)
        assert np.isfinite(state).all()
        assert np.array_equal(traj[-1], state) and report == expected
        assert traj[-1].tobytes() == solo_traj[-1].tobytes() and report == solo_report


def test_an_overflowing_member_leaves_the_other_members_bits():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    els = balanced_tuple(model, random.Random(3), 3, 3)
    ham = system.coefficient_function_list()[0][3]
    flows = [(els, PolyObservable()), (els, ham), ([model.zero()] * 3, ham * ham)]
    batch = system.integrate_flows(flows, 1e300, 1)
    assert np.isnan(worst_drift(batch[1][1]))
    for (residues, h), (traj, report) in zip(flows[::2], batch[::2]):
        solo_traj, solo_report = system.integrate_flow(residues, h, 1e300, 1)
        assert np.isfinite(traj[-1]).all() and report == solo_report
        assert traj[-1].tobytes() == solo_traj[-1].tobytes()


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
    # its gradient has no term, so its term table is the zero row alone,
    # alone or padded next to a member with terms
    other = system.coefficient_function_list()[1][3]
    assert not cas and other
    batch = system.integrate_flows([([el], cas), ([el], other)], 0.01, 20)
    for (traj, report), ham in zip(batch, (cas, other)):
        state, expected = _reference_flow(system, [el], ham, 0.01, 20)
        assert np.array_equal(traj[-1], state) and report == expected


def test_non_finite_drift_exceeds_every_tolerance():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    els = balanced_tuple(model, random.Random(3), 3, 3)
    ham = system.coefficient_function_list()[0][3]
    _, report = system.integrate_flow(els, ham, 1e300, 1)
    assert np.isnan(worst_drift(report))
    assert np.isnan(worst_drift([{"relative_drift": 0.5}, {"relative_drift": float("nan")}]))


def test_commutativity_sp4_spot():
    rng = random.Random(37)
    model = AlgebraModel("sp(4)")
    system = GaudinSystem(model, (F(1), F(2)))
    tuples = [random_residue_tuple(model, rng, 2, 3, zero_sum=False)
              for _ in range(2)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0


def test_seeded_model_point_brackets_and_flow():
    from framedhiggs.sampling import seeded_model
    model = seeded_model("sl(2)", (F(1), F(2), F(3)), "trivial", 7, 5)
    system = GaudinSystem(model.algebra, model.curve.points)
    assert not system.hitchin_point(model.residues).is_zero()
    rng = random.Random(1)
    tuples = [list(model.residues)] + [
        random_residue_tuple(model.algebra, rng, 3, 10, zero_sum=False) for _ in range(2)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0
    ham = system.coefficient_functions()[0][(0, 1)]
    _, drift = system.integrate_flow(model.residues, ham, 0.5, 500)
    assert max(r["relative_drift"] for r in drift) < 1e-8


def test_hitchin_point_refuses_a_pole_at_infinity(monkeypatch):
    """A coefficient of 1/(z - x_0) moved by one leaves a 1/z term at infinity."""
    import framedhiggs.gaudin as gaudin
    model = AlgebraModel("sl(2)")
    residues = balanced_tuple(model, random.Random(3), 3)
    solve = gaudin.mat_vec
    monkeypatch.setattr(gaudin, "mat_vec", lambda m, v: [x + (k == 0) for k, x in
                                                         enumerate(solve(m, v))])
    with pytest.raises(AssertionError,
                       match="holomorphy at infinity fails at order 1 for degree 2"):
        GaudinSystem(model, PTS3).hitchin_point(residues)
