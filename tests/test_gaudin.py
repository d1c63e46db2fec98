import math
import random
import struct
from fractions import Fraction as F
from functools import cache
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from framedhiggs.exactlinalg import (identity, mat_comb, mat_mul, mat_vec,
                                     over_common_denominator)
from framedhiggs import gaudin
from framedhiggs.gaudin import GaudinSystem, worst_drift
from framedhiggs.liealg import (PFAFFIAN, AlgebraModel, antidiagonal, balanced_digits,
                                char_poly_elementary, flatten, generator_indices, mat_trace,
                                matrix_invariant, newton_elementary, pfaffian, theta_char_polys,
                                theta_majorants)
from framedhiggs.sampling import random_algebra_element, random_residue_tuple
from framedhiggs.spectral import elementary_numerators
from oracles import (PolyObservable, algebra_sigma_gradients_at, algebra_site_matrix,
                     bracket_at, coefficient_columns, coefficient_polys, coordinate, grad_rows,
                     gradient_function, fraction_residue_tuple, mat_commutator, random_fraction,
                     sample_points, sampled_inverse, sigma_gradient_at, site_matrix,
                     symbolic_gradient, theta_at)

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
    assert not any(v for c in system.hitchin_point([z, z, z]).coeffs for v in c.values())


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
    for (i, j), fn in coefficient_polys(system, 0).items():
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
                obs = obs + coordinate(system, site, a, b).scale(el.matrix[b][a])
    return obs


def bracket_symbolic(system, f, g):
    """Oracle: {f, g} as an exact polynomial observable."""
    acc = PolyObservable()
    for i in range(system.n):
        comm = mat_commutator(symbolic_gradient(system, f, i), symbolic_gradient(system, g, i))
        for a in range(system.s):
            for b in range(system.s):
                acc = acc + (coordinate(system, i, a, b) * comm[b][a])
    return acc


def test_bracket_antisymmetry():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    f = coordinate(system, 0, 0, 1) * coordinate(system, 1, 1, 0)
    assert not bracket_symbolic(system, f, f)


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
    assert not bracket_symbolic(system, obs_e, obs_f) - obs_h


def test_bracket_leibniz_rule():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1), F(2)))
    x = coordinate(system, 0, 0, 1)
    y = coordinate(system, 1, 1, 0)
    w = coordinate(system, 0, 0, 0)
    lhs = bracket_symbolic(system, x, y * w)
    rhs = bracket_symbolic(system, x, y) * w + y * bracket_symbolic(system, x, w)
    assert not lhs - rhs


def test_bracket_jacobi_identity():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1), F(2)))
    rng = random.Random(5)

    def random_obs():
        obs = PolyObservable()
        for _ in range(3):
            term = PolyObservable.constant(F(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * coordinate(system, rng.randint(0, 1),
                                         rng.randint(0, 1), rng.randint(0, 1))
            obs = obs + term
        return obs

    for _ in range(3):
        x, y, w = random_obs(), random_obs(), random_obs()
        jac = (bracket_symbolic(system, bracket_symbolic(system, x, y), w)
               + bracket_symbolic(system, bracket_symbolic(system, y, w), x)
               + bracket_symbolic(system, bracket_symbolic(system, w, x), y))
        assert not jac


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
    noninv = coordinate(system, 0, 0, 1) * coordinate(system, 0, 1, 0)
    point = random_residue_tuple(model, rng, 3, 4, zero_sum=False)
    assert bracket_at(system, coefficient_polys(system, 0)[0, 1], noninv, point) != 0


def test_commutativity_so5_spot():
    rng = random.Random(29)
    model = AlgebraModel("so(5)")
    system = GaudinSystem(model, (F(1), F(2)))
    tuples = [random_residue_tuple(model, rng, 2, 2, zero_sum=False)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0


def test_commutativity_so4_spot(monkeypatch):
    # so(4) is the one family whose last generator is a Pfaffian; its gradient
    # at the certificate point comes from the integer minors of Q M, and no
    # gradient program is built for a clean tuple.
    def refuse(self, k):
        raise AssertionError("a clean tuple built a coefficient function")
    monkeypatch.setattr(GaudinSystem, "coefficient_functions", refuse)
    rng = random.Random(41)
    model = AlgebraModel("so(4)")
    system = GaudinSystem(model, PTS3)
    tuples = [random_residue_tuple(model, rng, 3, 3, zero_sum=False)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0


# Reference brackets: every coefficient's site gradient combined from the
# sample-point gradients and projected on its own in Fractions, and every
# pair's bracket as two full matrix products per site, O(K^2 n s^3) for K
# coefficient functions.

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
        cols, ts = coefficient_columns(system, k), sample_points(system, k)
        vinv = sampled_inverse(system, k)
        if index == PFAFFIAN:
            # the coefficients of Pf(Q theta(z)) as symbolic functions of the
            # residue entries, differentiated symbolically
            values = system.flatten_point(residues)
            sites = [site_matrix(system, i) for i in range(system.n)]
            pfs = [pfaffian(mat_mul(antidiagonal(system.s), theta_at(system.points, sites, t)))
                   for t in ts]
            for col, c in sorted(zip(cols, mat_vec(vinv, pfs))):
                grads = [[[entry(values) for entry in row]
                          for row in symbolic_gradient(system, PolyObservable.lift(c), l)]
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
                coords = mat_vec(grad_rows(system), flatten(combo))
                grads.append([list(r) for r in system.model.from_coords(coords).matrix])
            out.append(((k, col[0], col[1]), grads))
    return out


def _reference_brackets(residues, data):
    """[((key_a, key_b), {H_a, H_b})] for the pairs a < b of the site
    gradients data, as `_reference_gradients` lays them out."""
    out = []
    for ia in range(len(data)):
        for ib in range(ia + 1, len(data)):
            val = F(0)
            for i, el in enumerate(residues):
                comm = mat_commutator(data[ia][1][i], data[ib][1][i])
                val += mat_trace(mat_mul(el.matrix, comm))
            out.append(((data[ia][0], data[ib][0]), val))
    return out


def _reference_check(residue_tuples, gradients_at):
    worst, worst_pair = F(0), None
    for residues in residue_tuples:
        for pair, val in _reference_brackets(residues, gradients_at(residues)):
            if abs(val) > abs(worst):
                worst, worst_pair = val, pair
    return worst, worst_pair


def _per_site(system, x):
    """Flattened site gradients, laid out as `flatten_point`, as one s x s
    matrix per site."""
    s = system.s
    return [[x[v:v + s] for v in range(l, l + s * s, s)] for l in range(0, len(x), s * s)]


def _site_gradients(system, residues):
    """`GaudinSystem._site_gradients` at a tuple, in the layout of
    `_reference_gradients`."""
    return [(key, _per_site(system, x))
            for key, x in system._site_gradients(system.flatten_point(residues))]

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


def _site(x):
    """The site (d, a) of a Fraction matrix x = a / d, a row-major."""
    return over_common_denominator(flatten(x))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_char_poly_kernel_matches_the_fraction_oracle(s, kind):
    # theta(1) = X for the single residue X at 0, so the kernel's e_m / D^m and
    # Q_m / D^m must be char_poly_elementary(X) and P_m(X).
    rng = random.Random(61 + 7 * s + KERNEL_KINDS.index(kind))
    for _ in range(4):
        x = _random_matrix(rng, s, kind)
        den, num, e, qs = theta_char_polys([F(0)], [_site(x)], 1)
        assert all(isinstance(v, int) for v in [den, *num, *e] + [y for q in qs for y in q])
        assert [F(v, den) for v in num] == flatten(x)
        assert [F(v, den ** m) for m, v in enumerate(e, start=1)] == char_poly_elementary(x)
        assert ([[F(v, den ** m) for v in q] for m, q in enumerate(qs)]
                == [flatten(p) for p in _char_gradient_matrices(x)])
        if kind == "zero":
            assert (den, e) == (1, [0] * s)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_char_poly_kernel_on_residue_tuples_with_mixed_denominators(s):
    # D = L prod_j (q_j t - p_j) over the lcm L of the residue denominators,
    # and N(t) = D theta(t), unreduced; t is an integer off the marked points,
    # on either side of them.
    rng = random.Random(67 + s)
    points = [F(1, 2), F(-3), F(7, 3)]
    for kinds in (["general", "singular", "nilpotent"], ["zero", "general", "zero"],
                  ["nilpotent"] * 3):
        mats = [_random_matrix(rng, s, kind) for kind in kinds]
        sites = [_site(m) for m in mats]
        big = math.lcm(*(d for d, _ in sites))
        for t in (4, 1, -5):
            den, num, e, qs = theta_char_polys(points, sites, t)
            theta = theta_at(points, mats, t)
            assert den == big * math.prod(x.denominator * t - x.numerator for x in points)
            assert [F(v, den) for v in num] == flatten(theta)
            assert [F(v, den ** m) for m, v in enumerate(e, start=1)] \
                == char_poly_elementary(theta)
            assert ([[F(v, den ** m) for v in q] for m, q in enumerate(qs)]
                    == [flatten(p) for p in _char_gradient_matrices(theta)])


BRACKET_CASES = [("sl(3)", PTS3, 2), ("gl(2)", PTS3, 3), ("sp(4)", (F(1), F(2)), 2),
                 ("so(5)", (F(1), F(2)), 1), ("so(4)", PTS3, 1)]


@pytest.mark.parametrize("gid, points, count", BRACKET_CASES,
                         ids=[case[0] for case in BRACKET_CASES])
def test_bracket_table_matches_reference(gid, points, count):
    # The exact site gradients of the bracket check's fallback, and its
    # brackets pair by pair in coefficient order, against the reference's;
    # the certified check against the reference check.
    model = AlgebraModel(gid)
    system = GaudinSystem(model, points)
    rng = random.Random(53)
    tuples = [random_residue_tuple(model, rng, len(points), 4, zero_sum=False)
              for _ in range(count)]
    for residues in tuples:
        reference = _reference_gradients(system, residues)
        assert _site_gradients(system, residues) == reference
        assert system._brackets(residues) == _reference_brackets(residues, reference)
    expected = _reference_check(tuples, lambda r: _reference_gradients(system, r))
    assert system.commutativity_check(tuples) == expected == (0, None)


@pytest.mark.parametrize("gid, points, count", BRACKET_CASES,
                         ids=[case[0] for case in BRACKET_CASES])
def test_bracket_table_reference_catches_an_off_by_one_gradient(monkeypatch, gid, points,
                                                                count):
    # Expanding P_(m-2) where P_(m-1) belongs gives every gradient program of
    # e_m, m >= 2, the gradient of e_(m-1): an invariant's, which still
    # commutes, but the wrong one; the reference comparison must see it.
    build = gaudin._char_gradient
    monkeypatch.setattr(gaudin, "_char_gradient",
                        lambda prog, x, m: build(prog, x, max(m - 1, 1)))
    with pytest.raises(AssertionError):
        test_bracket_table_matches_reference(gid, points, count)


@pytest.mark.parametrize("gid, points, count", BRACKET_CASES,
                         ids=[case[0] for case in BRACKET_CASES])
def test_bracket_table_negative_control(monkeypatch, gid, points, count):
    # f(theta) = theta_01 theta_10 is not invariant: with the certificate
    # forced to fail and the exact site gradients of the partial-fraction
    # coefficients of f(theta(z)) appended to the fallback's, the check must
    # report a nonzero bracket, the one the reference check names.
    model = AlgebraModel(gid)
    system = GaudinSystem(model, points)
    k = model.group.degrees.index(2)
    cols, ts = coefficient_columns(system, k), sample_points(system, k)
    keys = [("non-invariant", i, j) for i, j in cols]
    thetas = [theta_at(points, [site_matrix(system, l) for l in range(len(points))], t)
              for t in ts]
    noninv = [PolyObservable.lift(c) for c in mat_vec(
        sampled_inverse(system, k), [theta[0][1] * theta[1][0] for theta in thetas])]

    def noninv_site_gradients(state):
        return [(key, [x for l in range(system.n)
                       for row in sigma_gradient_at(system, fn, l, state).matrix for x in row])
                for key, fn in zip(keys, noninv)]

    original = GaudinSystem._site_gradients
    monkeypatch.setattr(GaudinSystem, "_site_gradients",
                        lambda self, state: original(self, state) + noninv_site_gradients(state))
    monkeypatch.setattr(GaudinSystem, "_certified", lambda self, m, ys: False)
    rng = random.Random(59)
    tuples = [random_residue_tuple(model, rng, len(points), 4, zero_sum=False)
              for _ in range(count)]
    worst, pair = system.commutativity_check(tuples)
    expected = _reference_check(tuples, lambda r: _reference_gradients(system, r) + [
        (key, _per_site(system, x)) for key, x in noninv_site_gradients(system.flatten_point(r))])
    assert (worst, pair) == expected
    assert worst != 0 and pair[1][0] == "non-invariant"


GRID_POINTS = (F(1, 2), F(-3), F(7, 3))
GRID_CASES = [("sl(2)", 3), ("sl(3)", 3), ("gl(2)", 3), ("gl(3)", 2), ("sp(4)", 2),
              ("so(4)", 3), ("so(5)", 2)]


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("gid, n", GRID_CASES, ids=[case[0] for case in GRID_CASES])
def test_bracket_table_grid_matches_reference(monkeypatch, gid, n, faulted):
    # The check against the per-site Fraction reference, on tuples that do
    # not sum to zero.  The fault adds a fixed integer matrix to the
    # Faddeev-LeVerrier matrix that degree index 0 reads in the certificate's
    # kernel, so that its gradient stops commuting with theta(T): every tuple
    # then fails the certificate, and its exact brackets, which the kernel
    # does not reach, still vanish.
    model = AlgebraModel(gid)
    points = GRID_POINTS[:n]
    system = GaudinSystem(model, points)
    fault_at = system._indices[0] - 1
    kernel = gaudin.theta_char_polys

    def with_fault(points, sites, t):
        s = math.isqrt(len(sites[0][1]))
        fault = [(3 * a - 2 * b) % 7 - 3 for a in range(s) for b in range(s)]
        den, m, e, qs = kernel(points, sites, t)
        return den, m, e, [[x + f for x, f in zip(q, fault)] if i == fault_at else q
                           for i, q in enumerate(qs)]

    if faulted:
        monkeypatch.setattr(gaudin, "theta_char_polys", with_fault)
    fallbacks = []
    brackets = GaudinSystem._brackets
    monkeypatch.setattr(GaudinSystem, "_brackets",
                        lambda self, r: fallbacks.append(r) or brackets(self, r))
    rng = random.Random(71 + 3 * GRID_CASES.index((gid, n)))
    tuples = [random_residue_tuple(model, rng, n, 4, zero_sum=False) for _ in range(2)]
    expected = _reference_check(tuples, lambda r: _reference_gradients(system, r))
    assert system.commutativity_check(tuples) == expected == (0, None)
    assert fallbacks == (tuples if faulted else [])


@pytest.mark.parametrize("gid, points, count", BRACKET_CASES,
                         ids=[case[0] for case in BRACKET_CASES])
def test_the_certificate_kernel_is_the_projected_gradient_at_a_point(gid, points, count):
    # `_gradient` on the integer kernel's output at theta(t), at the
    # certificate point T and at two integer t off the marked points, against
    # pi(P_(m-1)(theta(t))) in Fractions, and for the Pfaffian of so(4)
    # against the sigma-gradient of the symbolic Pf(Q X).
    model = AlgebraModel(gid)
    system = GaudinSystem(model, points)
    pf = matrix_invariant(site_matrix(system, 0), PFAFFIAN)
    rng = random.Random(53)
    for _ in range(count):
        residues = random_residue_tuple(model, rng, len(points), 4, zero_sum=False)
        sites = [el.integer_form for el in residues]
        for t in (system._certificate_point(sites), 7, -5):
            chars = theta_char_polys(points, sites, t)
            theta = theta_at(points, [el.matrix for el in residues], t)
            for index in system._indices:
                if index == PFAFFIAN:
                    expected = sigma_gradient_at(system, pf, 0, flatten(theta))
                else:
                    expected = model.from_coords(mat_vec(grad_rows(system), flatten(
                        _char_gradient_matrices(theta)[index - 1])))
                d, y = system._gradient(index, chars)
                assert [F(v, d) for v in y] == flatten(expected.matrix)


FALLBACK_CASES = BRACKET_CASES + [("sl(4)", PTS3, 1)]


@pytest.mark.parametrize("gid, points, count", FALLBACK_CASES,
                         ids=[case[0] for case in FALLBACK_CASES])
def test_the_exact_brackets_of_clean_tuples_vanish(gid, points, count):
    # The fallback alone, with no certificate, on tuples that do not sum to
    # zero: one bracket per pair of coefficients, in coefficient order, and
    # every one exactly 0.
    model = AlgebraModel(gid)
    system = GaudinSystem(model, points)
    keys = [(k, i, j) for k in range(model.group.rank) for i, j in system._interp_data(k)[0]]
    rng = random.Random(137)
    for _ in range(count):
        brackets = system._brackets(
            random_residue_tuple(model, rng, len(points), 4, zero_sum=False))
        assert [pair for pair, _ in brackets] == list(combinations(keys, 2))
        assert all(val == 0 for _, val in brackets)


def _nu(entries):
    """The largest coefficient 1-norm of the polynomials in t among entries."""
    return max(sum(map(abs, sympy.Poly(e, T_SYM).coeffs())) for e in entries)


def _sym_pfaffian(m):
    if not m:
        return sympy.Integer(1)
    return sympy.expand(sum((-1) ** (j + 1) * m[0][j] * _sym_pfaffian(
        [[m[a][b] for b in range(1, len(m)) if b != j] for a in range(1, len(m)) if a != j])
        for j in range(1, len(m))))


T_SYM = sympy.Symbol("t")


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("gid, n", GRID_CASES, ids=[case[0] for case in GRID_CASES])
def test_certificate_majorants_dominate_the_true_norms(gid, n, faulted):
    # N(t) = theta(t) L prod_j (q_j t - p_j), its Faddeev-LeVerrier matrices
    # Q_m, each degree index's projected gradient pi G_k, U_k = [N, pi G_k]
    # and Z_ef = [pi G_e, pi G_f] as polynomials in t, in sympy; each
    # coefficient 1-norm must lie within its majorant, the certificate
    # point above twice that of U and Z, and the value point, at most the
    # certificate point and above every marked point's numerator, above
    # twice every coefficient of each invariant's numerator, e_m(N) from
    # sympy's characteristic polynomial or Pf(Q N).  The fault reads the first gradient other than
    # Q_0 = I at N^T, whose entries have the same majorants, so that its U
    # and its Z with the other such gradients stop vanishing.
    model = AlgebraModel(gid)
    points = GRID_POINTS[:n]
    system = GaudinSystem(model, points)
    s, (_, prows) = system.s, system._projection
    seed = 131 + 3 * GRID_CASES.index((gid, n))
    residues = random_residue_tuple(model, random.Random(seed), n, 4, zero_sum=False)
    sites = [el.integer_form for el in residues]
    mu, q = theta_majorants(points, sites)
    # the same tuple drawn as Fraction matrices, its integer forms read off them
    rebuilt = fraction_residue_tuple(model, random.Random(seed), n, 4, zero_sum=False)
    assert rebuilt == residues
    assert theta_majorants(points, [el.integer_form for el in rebuilt]) == (mu, q)
    # rho, the largest row 1-norm of the integer projection, and the bound g
    # on each entry of every degree index's gradient, as `_certificate_point`
    # takes them
    rho, r = max(sum(map(abs, row)) for row in prows), s // 2
    g = [math.prod(range(1, 2 * r - 2, 2)) * mu ** (r - 1) if index == PFAFFIAN
         else q[index - 1] for index in system._indices]
    t, tv = system._certificate_point(sites), system._value_point(sites)
    assert tv <= t and all(tv > abs(x.numerator) for x in points)
    big = math.lcm(*(over_common_denominator(flatten(el.matrix))[0] for el in residues))
    scale = big * math.prod(x.denominator * T_SYM - x.numerator for x in points)
    theta = sympy.Matrix(s, s, lambda a, b: sum(sympy.Rational(el.matrix[a][b]) / (T_SYM - x)
                                               for el, x in zip(residues, points)))
    big_n = theta.applyfunc(lambda e: sympy.cancel(e * scale))
    assert all(sympy.Poly(e, T_SYM).domain == sympy.ZZ for e in big_n)
    assert _nu(big_n) <= mu

    def gradients(x):
        """Q_0 .. Q_(s-1) of x, and the projected gradient of each index."""
        qs = [sympy.eye(s)]
        for m in range(1, s):
            prod = (x * qs[-1]).applyfunc(sympy.expand)
            qs.append((sympy.expand(prod.trace() / m) * sympy.eye(s) - prod).applyfunc(
                sympy.expand))
        out = []
        for index in system._indices:
            if index == PFAFFIAN:
                y = [[x[s - 1 - a, b] for b in range(s)] for a in range(s)]
                flat = gaudin._pfaffian_minor_gradient(s, lambda keep, sign: sign * _sym_pfaffian(
                    [[y[a][b] for b in keep] for a in keep]), 0)
            else:
                flat = list(qs[index - 1])
            out.append([sympy.expand(sum(c * f for c, f in zip(row, flat))) for row in prows])
        return qs, out

    qs, grads = gradients(big_n)
    moving = [k for k, index in enumerate(system._indices) if index != 1]
    if faulted:
        grads[moving[0]] = gradients(big_n.T)[1][moving[0]]
    for m, qm in enumerate(qs):
        assert _nu(qm) <= q[m]
    for grad, bound in zip(grads, g):
        assert _nu(grad) <= rho * bound
    us = [(big_n * sympy.Matrix(s, s, y) - sympy.Matrix(s, s, y) * big_n).applyfunc(
        sympy.expand) for y in grads]
    zs = [(sympy.Matrix(s, s, y) * sympy.Matrix(s, s, y2) - sympy.Matrix(s, s, y2)
           * sympy.Matrix(s, s, y)).applyfunc(sympy.expand) for y, y2 in combinations(grads, 2)]
    for u, bound in zip(us, g):
        assert _nu(u) <= 2 * s * mu * rho * bound
    for z, (bound, bound2) in zip(zs, combinations(g, 2)):
        assert _nu(z) <= 2 * s * rho * rho * bound * bound2
    assert t > 2 * max(map(_nu, us + zs))
    char = big_n.charpoly(sympy.Symbol("lam")).all_coeffs()
    for index in system._indices:
        if index == PFAFFIAN:
            value, bound = _sym_pfaffian([[big_n[s - 1 - a, b] for b in range(s)]
                                          for a in range(s)]), math.prod(range(1, s, 2)) * mu ** r
        else:
            value, bound = (-1) ** index * char[index], s * s * mu * q[index - 1]
        coeffs = sympy.Poly(sympy.expand(value), T_SYM).coeffs()
        assert sum(map(abs, coeffs)) <= bound and all(2 * abs(c) < tv for c in coeffs)
    assert any(e != 0 for m in us + zs for e in m) == faulted
    if faulted:
        pairs = list(combinations(range(len(g)), 2))
        assert any(e != 0 for e in us[moving[0]])
        assert all(any(e != 0 for e in z) for z, (e, f) in zip(zs, pairs)
                   if moving[0] in (e, f) and e in moving and f in moving)


@pytest.mark.parametrize("gid", ["gl(3)", "sl(3)", "sp(4)", "so(5)", "so(4)"])
def test_invariants_agree_on_symbolic_and_numeric_matrices(gid):
    model = AlgebraModel(gid)
    system = GaudinSystem(model, (F(1),))
    el = random_algebra_element(model, random.Random(43), 4)
    values = system.flatten_point([el])
    symbolic = [matrix_invariant(site_matrix(system, 0), i) for i in system._indices]
    numeric = [matrix_invariant(el.matrix, i) for i in system._indices]
    assert len(symbolic) == len(numeric) == model.group.rank
    assert [p(values) for p in symbolic] == numeric == _all_invariants(model.group, el.matrix)


# ---------------------------------------------------------------------------
# Hamiltonian flow
# ---------------------------------------------------------------------------

def _flat(sites):
    return [x for site in sites for row in site for x in row]


def _bits(xs):
    """The bytes of a list of floats: equal exactly when every float has the
    same bits, NaN and the sign of zero included."""
    return struct.pack(f"<{len(xs)}d", *xs)


def _report_bits(report):
    return [(r["degree_index"], r["site"], r["order"],
             _bits([r["start"], r["end"], r["relative_drift"]])) for r in report]


def test_flow_conserves_invariant_coefficients():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(3)
    els = balanced_tuple(model, rng, 3, 3)
    ham = system.coefficient_functions(0)[0, 1]
    traj, report = system.integrate_flow(els, ham, 1.0, 2000)
    assert max(r["relative_drift"] for r in report) < 1e-8
    # genuine motion: some entry moves by more than numpy.allclose's tolerance
    assert any(abs(a - b) > 1e-8 + 1e-5 * abs(b)
               for a, b in zip(_flat(traj[0]), _flat(traj[-1])))


# Reference flow: the documented loop in plain Python floats.  The gradient
# is the program's statements run as one function with float constants, and
# the commutator is taken one entry at a time, each product entry summed from
# 0.0.  The drift values are every coefficient polynomial evaluated exactly at
# the Fraction of each float state, then rounded.

def _all_invariants(group, m):
    """p_1(m), ..., p_r(m) from every e_m(m) at once, and the Pfaffian."""
    e = char_poly_elementary(m)
    return [e[i - 1] if i != PFAFFIAN else pfaffian(mat_mul(antidiagonal(len(m)), m))
            for i in generator_indices(group)]


@cache
def _all_coefficient_polys(system):
    """((k, i, j), polynomial) for every partial-fraction coefficient of every
    p_k(theta(z)): all the invariants of the symbolic theta(t) at every
    sample point (`_all_invariants`), combined by `sampled_inverse`."""
    sites = [site_matrix(system, i) for i in range(system.n)]
    invariants = {t: _all_invariants(system.group, theta_at(system.points, sites, t))
                  for t in sample_points(system)}
    out = []
    for k in range(system.group.rank):
        cols, ts = coefficient_columns(system, k), sample_points(system, k)
        out += [((k, i, j), PolyObservable.lift(c)) for (i, j), c in zip(
            cols, mat_vec(sampled_inverse(system, k), [invariants[t][k] for t in ts]))]
    return out


@cache
def _programs(system, k):
    return system.coefficient_functions(k)


def _rounded(x):
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _exact_values(system, state):
    if not all(map(math.isfinite, state)):
        return [math.nan] * len(_all_coefficient_polys(system))
    point = [F(x) for x in state]
    return [_rounded(fn(point)) for _, fn in _all_coefficient_polys(system)]


def _reference_flow(system, residues, program, t_end, steps):
    s = system.s
    state = [float(x) for el in residues for row in el.matrix for x in row]
    gradient = gradient_function(program, len(state), float)

    def rhs(x):
        g = gradient(*x)
        out = []
        for site in range(0, len(x), s * s):
            for a in range(s):
                for b in range(s):
                    xg = gx = 0.0
                    for c in range(s):
                        xg += x[site + a * s + c] * g[site + c * s + b]
                        gx += g[site + a * s + c] * x[site + c * s + b]
                    out.append(xg - gx)
        return out

    h = t_end / steps
    start = _exact_values(system, state)
    scale = max(1.0, max(abs(v) for v in start))
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs([x + 0.5 * h * k for x, k in zip(state, k1)])
        k3 = rhs([x + 0.5 * h * k for x, k in zip(state, k2)])
        k4 = rhs([x + h * k for x, k in zip(state, k3)])
        state = [x + (h / 6.0) * (a + 2 * b + 2 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4)]
    end = _exact_values(system, state)
    report = [{"degree_index": k, "site": i, "order": j, "start": v0, "end": v1,
               "relative_drift": abs(v1 - v0) / max(abs(v0), 1e-3 * scale)}
              for ((k, i, j), _), v0, v1 in zip(_all_coefficient_polys(system), start, end)]
    return state, report


def _assert_flow_is_the_reference(system, residues, program, t_end, steps, finite=True):
    traj, report = system.integrate_flow(residues, program, t_end, steps)
    state, expected = _reference_flow(system, residues, program, t_end, steps)
    assert _bits(_flat(traj[0])) == _bits([float(x) for x in system.flatten_point(residues)])
    assert _bits(_flat(traj[-1])) == _bits(state)
    assert _report_bits(report) == _report_bits(expected)
    assert all(map(math.isfinite, state)) == finite
    return traj, report


FLOW_CASES = [("sl(2)", 3, 0, (0, 1), 1.0, 300), ("sl(3)", 3, 1, (1, 2), 0.02, 40),
              ("so(4)", 2, 1, (1, 2), 0.02, 20)]


@pytest.mark.parametrize("gid, n, k, col, t_end, steps", FLOW_CASES,
                         ids=["sl(2)", "sl(3)", "so(4)"])
def test_flow_matches_term_by_term_reference(gid, n, k, col, t_end, steps):
    model = AlgebraModel(gid)
    system = GaudinSystem(model, PTS3[:n])
    els = balanced_tuple(model, random.Random(61), n, 3)
    _assert_flow_is_the_reference(system, els, system.coefficient_functions(k)[col], t_end, steps)


@cache
def _flow_system(gid, n):
    return GaudinSystem(AlgebraModel(gid), PTS3[:n])


@st.composite
def _flows(draw):
    """One to three flows of random coefficients from random tuples."""
    gid, n = draw(st.sampled_from([("sl(2)", 3), ("sl(3)", 2)]))
    system = _flow_system(gid, n)

    def program():
        k = draw(st.integers(0, system.group.rank - 1))
        return _programs(system, k)[draw(st.sampled_from(sorted(_programs(system, k))))]
    flows = [(balanced_tuple(system.model, random.Random(draw(st.integers(0, 99))), n, 3),
              program()) for _ in range(draw(st.integers(1, 3)))]
    return system, flows, draw(st.sampled_from([0.001, 0.005])), draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_flows())
def test_random_flows_match_the_reference_loop(case):
    system, flows, t_end, steps = case
    for residues, program in flows:
        _assert_flow_is_the_reference(system, residues, program, t_end, steps)


def test_an_overflowing_flow_matches_the_reference_loop():
    # A step of 1e300 overflows products to infinities, and their differences
    # to NaN; the zero tuple stays at zero.
    for gid, k in [("sl(2)", 0), ("sl(3)", 1)]:
        model = AlgebraModel(gid)
        system = GaudinSystem(model, PTS3)
        els = balanced_tuple(model, random.Random(3), 3, 3)
        program = system.coefficient_functions(k)[0, 1]
        for residues, finite in [(els, False), ([model.zero()] * 3, True)]:
            _, report = _assert_flow_is_the_reference(system, residues, program, 1e300, 1,
                                                      finite)
            assert math.isnan(worst_drift(report)) != finite


def test_flow_zero_time_is_identity():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(3)
    els = balanced_tuple(model, rng, 3, 3)
    program = system.coefficient_functions(0)[0, 1]
    traj, _ = _assert_flow_is_the_reference(system, els, program, 0.0, 5)
    assert traj[0] == traj[-1]


def test_casimir_flow_is_stationary():
    # single site with the zero-sum constraint relaxed: p_2 generates nothing
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1),))
    rng = random.Random(31)
    el = random_algebra_element(model, rng, 3)
    cas = system.coefficient_functions(0)[0, 1]
    traj, _ = system.integrate_flow([el], cas, 1.0, 50)
    # stationary within numpy.allclose's default tolerance
    assert all(abs(a - b) <= 1e-8 + 1e-5 * abs(b)
               for a, b in zip(_flat(traj[0]), _flat(traj[-1])))
    # its gradient is the constant 0, and that of the other coefficient is not
    other = system.coefficient_functions(0)[0, 2]
    point = system.flatten_point([el])
    assert not any(gradient_function(cas, 4)(*point))
    assert any(gradient_function(other, 4)(*point))
    for program in (cas, other):
        _assert_flow_is_the_reference(system, [el], program, 0.01, 20)


BUILD_CASES = [("sl(3)", 3), ("gl(3)", 2), ("sp(4)", 1), ("so(4)", 2), ("so(5)", 1)]


@pytest.mark.parametrize("gid, n", BUILD_CASES, ids=[case[0] for case in BUILD_CASES])
def test_one_degree_index_builds_the_all_index_polynomials(gid, n):
    # The gradient programs of one degree index, run in Fractions, are the
    # sigma-gradients of the coefficient polynomials built from every
    # invariant at once, at points off the zero-sum locus.
    system = GaudinSystem(AlgebraModel(gid), PTS3[:n])
    rng = random.Random(113 + BUILD_CASES.index((gid, n)))
    points = [system.flatten_point(random_residue_tuple(system.model, rng, n, 5, zero_sum=False))
              for _ in range(2)]
    for (k, i, j), fn in _all_coefficient_polys(system):
        gradient = gradient_function(_programs(system, k)[i, j], len(points[0]))
        for values in points:
            assert gradient(*values) == [x for l in range(n) for row in sigma_gradient_at(
                system, fn, l, values).matrix for x in row]


# The exact oracle of the Laurent route: each coefficient as a polynomial in
# the algebra coordinates of every site (`algebra_site_matrix`), built from
# the symbolic invariant at the sample points, and its sigma-gradient by the
# inverse Gram matrix of the trace form.
EXACT_CASES = [("sl(2)", 3, 0), ("sl(3)", 3, 1), ("gl(3)", 2, 0), ("gl(3)", 2, 1),
               ("gl(3)", 2, 2), ("sp(4)", 2, 1), ("so(5)", 2, 1), ("so(4)", 3, 0),
               ("so(4)", 3, 1)]


@pytest.mark.parametrize("gid, n, k", EXACT_CASES, ids=[f"{g}-k{k}" for g, _, k in EXACT_CASES])
def test_gradient_programs_are_the_exact_sigma_gradients(gid, n, k):
    model = AlgebraModel(gid)
    system = GaudinSystem(model, (F(2), F(-1), F(1, 3))[:n])
    polys = coefficient_polys(system, k, algebra_site_matrix)
    programs = system.coefficient_functions(k)
    rng = random.Random(127 + EXACT_CASES.index((gid, n, k)))
    for _ in range(3):
        residues = [model.from_coords([random_fraction(rng, 9) for _ in model.basis])
                    for _ in range(n)]
        values = system.flatten_point(residues)
        for col, program in programs.items():
            assert gradient_function(program, len(values))(*values) == [
                x for g in algebra_sigma_gradients_at(system, polys[col], residues)
                for row in g.matrix for x in row]


def test_the_flow_starts_at_the_hitchin_point():
    # integer entries are exact floats, so the start values are the rounded
    # coefficients of the Hitchin point, zeros included
    model = AlgebraModel("sl(3)")
    system = GaudinSystem(model, PTS3)
    rng = random.Random(107)
    els = []
    for _ in range(2):
        m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        m[2][2] = -m[0][0] - m[1][1]
        els.append(model.element(m))
    residues = els + [(els[0] + els[1]).scale(-1)]
    hp = system.hitchin_point(residues)
    _, report = system.integrate_flow(residues, system.coefficient_functions(1)[2, 3], 0.01, 5)
    assert len(report) == sum(3 * d for d in model.group.degrees)
    for r in report:
        assert r["start"] == float(hp.coeffs[r["degree_index"]].get((r["site"], r["order"]), 0))
    assert worst_drift(report) < 1e-8


def test_non_finite_drift_exceeds_every_tolerance():
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, PTS3)
    els = balanced_tuple(model, random.Random(3), 3, 3)
    ham = system.coefficient_functions(0)[0, 1]
    _, report = system.integrate_flow(els, ham, 1e300, 1)
    assert math.isnan(worst_drift(report))
    assert math.isnan(worst_drift([{"relative_drift": 0.5}, {"relative_drift": float("nan")}]))


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
    assert any(v for c in system.hitchin_point(model.residues).coeffs for v in c.values())
    rng = random.Random(1)
    tuples = [list(model.residues)] + [
        random_residue_tuple(model.algebra, rng, 3, 10, zero_sum=False) for _ in range(2)]
    worst, _ = system.commutativity_check(tuples)
    assert worst == 0
    ham = system.coefficient_functions(0)[0, 1]
    _, drift = system.integrate_flow(model.residues, ham, 0.5, 500)
    assert max(r["relative_drift"] for r in drift) < 1e-8


def _moved_digits(n, degree, order):
    """`liealg.balanced_digits` with T^(n d - order) added to the value of
    the invariant of degree d, e_index(N(T)) or Pf(Q N(T)): the only one
    read as n d digits, since the degrees of a group are distinct."""
    def moved(value, base, count):
        return balanced_digits(value + base ** (count - order) if count == n * degree else value,
                    base, count)
    return moved


def test_hitchin_point_refuses_a_pole_at_infinity(monkeypatch):
    """p_2's value at T moved by T^(n d - 1) leaves a 1/z term at infinity."""
    model = AlgebraModel("sl(2)")
    residues = balanced_tuple(model, random.Random(3), 3)
    monkeypatch.setattr(gaudin, "balanced_digits", _moved_digits(3, 2, 1))
    with pytest.raises(AssertionError,
                       match="holomorphy at infinity fails at order 1 for degree 2"):
        GaudinSystem(model, PTS3).hitchin_point(residues)


# ---------------------------------------------------------------------------
# partial fractions from the digits at T, against the inverse oracle
# ---------------------------------------------------------------------------

ORACLE_GROUPS = ["gl(2)", "sl(3)", "gl(3)", "sp(4)", "so(4)", "so(5)"]
ORACLE_POINTS = {"integer": PTS3, "rational": (F(-1, 2), F(2, 3), F(3))}


@pytest.mark.parametrize("points", list(ORACLE_POINTS.values()), ids=list(ORACLE_POINTS))
@pytest.mark.parametrize("gid", ORACLE_GROUPS)
def test_partial_fractions_match_the_inverse_oracle(gid, points):
    model = AlgebraModel(gid)
    system = GaudinSystem(model, points)
    rng = random.Random(83 + ORACLE_GROUPS.index(gid))
    residues = balanced_tuple(model, rng, len(points), 3)
    hp = system.hitchin_point(residues)
    for k in range(model.group.rank):
        oracle = sampled_inverse(system, k)
        cols, ts = coefficient_columns(system, k), sample_points(system, k)
        d = model.group.degrees[k]
        # an arbitrary integer polynomial P of degree below n d and a
        # denominator: f = P / (den prod_i (z - x_i)^d) need not vanish to
        # order 2 d at infinity
        poly, den = [rng.randint(-50, 50) for _ in ts], rng.randint(1, 9)
        values = [sum(c * t ** o for o, c in enumerate(poly))
                  / (den * math.prod((t - x) ** d for x in points)) for t in ts]
        assert system._partial_fractions(k, poly, den) == mat_vec(oracle, values)
        # the Hitchin coefficients: values p_k(theta(t)) from Fraction matrices
        exact = [matrix_invariant(theta_at(points, [el.matrix for el in residues], t),
                                  system._indices[k]) for t in ts]
        assert hp.coeffs[k] == {col: c for col, c in zip(cols, mat_vec(oracle, exact)) if c}


MOVED_GROUPS = ["sl(2)", "gl(2)", "sl(3)", "gl(3)", "sp(4)", "so(4)", "so(5)"]


@pytest.mark.parametrize("gid", MOVED_GROUPS)
def test_a_sample_value_moved_by_one_fails_at_order_1(monkeypatch, gid):
    # The one sample value, P = e_index(N) or Pf(Q N) at T, moved by one unit
    # of its top digit: P gains z^(n d - 1), so p_k(theta) ~ 1/z at infinity,
    # for every degree index, the Pfaffian's included
    model = AlgebraModel(gid)
    residues = balanced_tuple(model, random.Random(97), 3, 3)
    for d in model.group.degrees:
        monkeypatch.setattr(gaudin, "balanced_digits", _moved_digits(3, d, 1))
        with pytest.raises(AssertionError,
                           match=f"holomorphy at infinity fails at order 1 for degree {d}$"):
            GaudinSystem(model, PTS3).hitchin_point(residues)


@pytest.mark.parametrize("gid", MOVED_GROUPS)
def test_only_the_second_highest_difference_fails_at_order_2(monkeypatch, gid):
    # Only the second highest digit of P moves: P gains z^(n d - 2), so
    # p_k(theta) ~ z^(-2) at infinity, a failure at order 2 for degree d >=
    # 2; degree 1 checks only its top digit, and its moved point is a
    # holomorphic one with a changed coefficient
    model = AlgebraModel(gid)
    system = GaudinSystem(model, PTS3)
    residues = balanced_tuple(model, random.Random(101), 3, 3)
    hp = system.hitchin_point(residues)
    for k, d in enumerate(model.group.degrees):
        monkeypatch.setattr(gaudin, "balanced_digits", _moved_digits(3, d, 2))
        if d == 1:
            assert GaudinSystem(model, PTS3).hitchin_point(residues).coeffs[k] != hp.coeffs[k]
            continue
        with pytest.raises(AssertionError,
                           match=f"holomorphy at infinity fails at order 2 for degree {d}$"):
            GaudinSystem(model, PTS3).hitchin_point(residues)


def test_a_value_point_below_twice_a_coefficient_misreads_the_digits(monkeypatch):
    # The digit read rests on T > 2 |c| for every coefficient c of every
    # numerator P_k, T the value point: with T = 2^b for the bit length b of
    # the largest one, T / 2 falls below it, and the read either overflows
    # its n d digits or gives a Hitchin point other than the inverse oracle's.
    model = AlgebraModel("sl(3)")
    system = GaudinSystem(model, PTS3)
    residues = balanced_tuple(model, random.Random(103), 3, 5)
    largest = max(abs(c) for digits, _ in system._expansions(
        [el.integer_form for el in residues]) for c in digits)
    oracle = []
    for k in range(model.group.rank):
        exact = [matrix_invariant(theta_at(PTS3, [el.matrix for el in residues], t),
                                  system._indices[k]) for t in sample_points(system, k)]
        oracle.append({col: c for col, c in zip(coefficient_columns(system, k),
                                                mat_vec(sampled_inverse(system, k), exact)) if c})
    assert list(system.hitchin_point(residues).coeffs) == oracle
    monkeypatch.setattr(GaudinSystem, "_value_point",
                        lambda self, sites: 2 ** largest.bit_length())
    try:
        misread = list(system.hitchin_point(residues).coeffs)
    except AssertionError:
        return
    assert misread != oracle


def _poly_mul(f, g):
    """The product of two polynomials, coefficient lists highest first."""
    out = [F(0)] * (len(f) + len(g) - 1)
    for a, u in enumerate(f):
        for b, v in enumerate(g):
            out[a + b] += u * v
    return out


@pytest.mark.parametrize("gid", ["gl(2)", "sl(2)", "gl(3)", "sl(3)"])
def test_the_hitchin_point_recombines_to_the_spectral_numerators(gid):
    # One model, two engines: sum c_(i,j) (z - x_i)^(-j) prod_l (z - x_l)^d
    # over the Hitchin point's coefficients of degree d is e_d(N(z)) / D^d,
    # N and D as `spectral.elementary_numerators` gives them.
    model = AlgebraModel(gid)
    rng = random.Random(109)
    for points in (PTS3, (F(1, 2), F(-3), F(7, 3), F(5))):
        residues = balanced_tuple(model, rng, len(points), 5)
        hp = GaudinSystem(model, points).hitchin_point(residues)
        den, e_nums = elementary_numerators(model, points, residues)
        for k, d in enumerate(model.group.degrees):
            total = [F(0)] * (len(points) * d)
            for (i, j), c in hp.coeffs[k].items():
                term = [c]
                for l, x in enumerate(points):
                    for _ in range(d - j if l == i else d):
                        term = _poly_mul(term, [F(1), -x])
                total = [u + v for u, v in zip(total, [F(0)] * (len(total) - len(term)) + term)]
            while total and total[0] == 0:
                total.pop(0)
            assert total == [F(c, den ** d) for c in e_nums[d - 1]]


def test_the_certificate_reads_the_brackets_of_pairs_of_gradients():
    # With M = 0 every [M, y] vanishes, so only the second half of the
    # certificate, the commutators [y_e, y_f], sees that E_01 and E_10 do not
    # commute; gradients that do commute pass.
    system = GaudinSystem(AlgebraModel("sl(2)"), PTS3)
    assert not system._certified([0] * 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert system._certified([0] * 4, [[0, 1, 0, 0], [0, 2, 0, 0]])


def test_a_scalar_theta_with_non_commuting_gradients_fails_the_certificate():
    # theta(T) = M / D scalar commutes with every gradient, so [M, y] vanishes
    # for all three degree indices of gl(3); only the commutators [y_e, y_f]
    # see that E_12 and E_21 do not commute.  With them commuting it passes.
    system = GaudinSystem(AlgebraModel("gl(3)"), PTS3)
    scalar = [5, 0, 0, 0, 5, 0, 0, 0, 5]
    e12, e21 = [0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert not system._certified(scalar, [scalar, e12, e21])
    assert not system._certified(scalar, [e12, e21, e12])
    assert system._certified(scalar, [scalar, e12, [2 * x for x in e12]])
