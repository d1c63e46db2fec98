import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest
import sympy

from framedhiggs.exactlinalg import rank
from framedhiggs.liealg import (AlgebraElement, AlgebraModel, FramingSpec,
                                UnsupportedGroupError, balanced_digits, bracket, group_data,
                                invariant_polynomials, to_matrix, torus_framing,
                                trace_form, trivial_framing)
from oracles import ad_matrix, check_invariance, perp_subspace

ALL_MATRIX_GROUPS = ["gl(2)", "gl(3)", "sl(2)", "sl(3)", "so(3)", "so(4)",
                     "so(5)", "sp(2)", "sp(4)"]


def rand_el(model, rng, h=5):
    return model.from_coords(
        [F(rng.randint(-h, h), rng.randint(1, h)) for _ in range(model.group.dim)])


# ---------------------------------------------------------------------------
# group data tables
# ---------------------------------------------------------------------------

def test_group_data_examples():
    sl2 = group_data("sl(2)")
    assert (sl2.dim, sl2.rank, sl2.degrees, sl2.dim_center_alg) == (3, 1, (2,), 0)
    gl3 = group_data("gl(3)")
    assert (gl3.dim, gl3.rank, gl3.degrees, gl3.dim_center_alg) == (9, 3, (1, 2, 3), 1)
    sp4 = group_data("sp(4)")
    assert (sp4.dim, sp4.dim_borel, sp4.dim_torus, sp4.degrees) == (10, 6, 2, (2, 4))


def test_group_data_invariants_all_supported():
    for gid in ALL_MATRIX_GROUPS + ["g2", "f4", "e6", "e7", "e8", "so(6)", "sp(6)"]:
        g = group_data(gid)
        assert 2 * g.dim_borel == g.dim + g.dim_torus
        assert sum(2 * d - 1 for d in g.degrees) == g.dim
        assert len(g.degrees) == g.rank


def test_unsupported_group_id():
    with pytest.raises(UnsupportedGroupError, match="nonsense"):
        group_data("nonsense")
    with pytest.raises(UnsupportedGroupError):
        group_data("so(2)")
    with pytest.raises(UnsupportedGroupError):
        group_data("sp(3)")


def test_positive_root_count_oracle():
    # brute force: weights of a generic torus element acting on the basis
    for gid in ALL_MATRIX_GROUPS:
        model = AlgebraModel(gid)
        g = model.group
        h = model.zero()
        for k, t in enumerate(model.torus):
            h = h + AlgebraElement(t, g.group_id).scale(F(10 ** (k + 1)))
        positive = 0
        zero = 0
        for b in model.basis:
            el = AlgebraElement(b, g.group_id)
            img = bracket(h, el)
            coords = model.coords(img)
            base = model.coords(el)
            # basis elements are weight vectors for the diagonal torus
            ratios = {c / b0 for c, b0 in zip(coords, base) if b0 != 0}
            assert len(ratios) == 1, "basis element is not a torus weight vector"
            w = ratios.pop()
            if w > 0:
                positive += 1
            elif w == 0:
                zero += 1
        assert zero == g.dim_torus + (g.dim_center_alg if g.family == "gl" else 0) \
            or zero == g.dim_torus
        assert g.dim_torus + positive == g.dim_borel


def test_matrix_model_membership():
    for gid in ALL_MATRIX_GROUPS:
        model = AlgebraModel(gid)
        assert len(model.basis) == model.group.dim
        if model.group.family == "sl":
            with pytest.raises(ValueError):
                model.element([[1 if i == j else 0 for j in range(model.n)]
                               for i in range(model.n)])


def test_exceptional_groups_have_no_matrix_model():
    with pytest.raises(UnsupportedGroupError, match="dimension"):
        AlgebraModel("e6")


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_antisymmetry_and_sl2_relations():
    m = AlgebraModel("sl(2)")
    e = m.element([[0, 1], [0, 0]])
    f = m.element([[0, 0], [1, 0]])
    h = m.element([[1, 0], [0, -1]])
    assert bracket(e, e).is_zero()
    assert bracket(e, f).matrix == h.matrix
    assert bracket(h, e).matrix == e.scale(2).matrix


def test_bracket_gl2_matrix_product_oracle():
    m = AlgebraModel("gl(2)")
    a = m.element([[0, 1], [0, 0]])
    b = m.element([[1, 0], [0, 0]])
    # oracle: direct matrix products ab and ba
    ab = [[sum(a.matrix[i][k] * b.matrix[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    ba = [[sum(b.matrix[i][k] * a.matrix[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    expected = tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(ab, ba))
    assert bracket(a, b).matrix == expected
    assert expected == ((F(0), F(-1)), (F(0), F(0)))


def test_bracket_group_mismatch():
    a = AlgebraModel("sl(2)").element([[0, 1], [0, 0]])
    b = AlgebraModel("gl(2)").element([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        bracket(a, b)


# ---------------------------------------------------------------------------
# invariant form
# ---------------------------------------------------------------------------

def test_invariance_residual_zero_on_basis_sl2():
    m = AlgebraModel("sl(2)")
    form = trace_form("sl(2)")
    els = [AlgebraElement(b, "sl(2)") for b in m.basis]
    for a, b, c in itertools.product(els, repeat=3):
        assert check_invariance(form, a, b, c) == 0


def test_invariance_residual_zero_random_gl3():
    m = AlgebraModel("gl(3)")
    form = trace_form("gl(3)")
    rng = random.Random(23)
    for _ in range(10):
        a, b, c = (rand_el(m, rng) for _ in range(3))
        assert check_invariance(form, a, b, c) == 0


def test_corrupted_form_has_nonzero_residual():
    class CorruptForm:
        def __call__(self, a, b):
            weight = tuple(tuple(F(i + 2 * j + 1) for j in range(2)) for i in range(2))
            total = F(0)
            for i in range(2):
                for j in range(2):
                    total += weight[i][j] * a.matrix[i][j] * b.matrix[j][i]
            return total

    m = AlgebraModel("sl(2)")
    bad = CorruptForm()
    els = [AlgebraElement(b, "sl(2)") for b in m.basis]
    residuals = [bad(bracket(a, c), b) + bad(c, bracket(a, b))
                 for a, b, c in itertools.product(els, repeat=3)]
    assert any(r != 0 for r in residuals)


def test_gram_full_rank_and_symmetry():
    for gid in ALL_MATRIX_GROUPS:
        m = AlgebraModel(gid)
        form = trace_form(gid)
        els = [AlgebraElement(b, m.group.group_id) for b in m.basis]
        g = form.gram(els)
        assert rank(g) == m.group.dim
        assert all(g[i][j] == g[j][i] for i in range(len(g)) for j in range(len(g)))


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------

def test_perp_of_zero_and_full():
    m = AlgebraModel("sl(2)")
    form = trace_form("sl(2)")
    assert len(perp_subspace(form, [], m)) == 3
    full = [AlgebraElement(b, "sl(2)") for b in m.basis]
    assert perp_subspace(form, full, m) == []


def test_perp_of_torus_is_nilpotent_span():
    m = AlgebraModel("sl(2)")
    form = trace_form("sl(2)")
    h = m.element([[1, 0], [0, -1]])
    perp = perp_subspace(form, [h], m)
    assert len(perp) == 2
    for p in perp:
        assert form(p, h) == 0
        assert p.matrix[0][0] == 0 and p.matrix[1][1] == 0


def test_perp_rejects_dependent_basis():
    m = AlgebraModel("sl(2)")
    form = trace_form("sl(2)")
    h = m.element([[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="dependent"):
        perp_subspace(form, [h, h.scale(2)], m)


def test_perp_is_involution():
    rng = random.Random(5)
    for gid in ["sl(2)", "gl(2)", "sp(4)"]:
        m = AlgebraModel(gid)
        form = trace_form(gid)
        for size in (1, 2):
            els = []
            while len(els) < size:
                cand = rand_el(m, rng, 3)
                if rank([m.coords(e) for e in els + [cand]]) == len(els) + 1:
                    els.append(cand)
            perp = perp_subspace(form, els, m)
            double = perp_subspace(form, perp, m)
            span = [m.coords(e) for e in els]
            assert rank(span + [m.coords(d) for d in double]) == len(els)


# ---------------------------------------------------------------------------
# invariant polynomials
# ---------------------------------------------------------------------------

def _charpoly_oracle(matrix):
    """The coefficients of det(tI - M), lowest degree first, from sympy."""
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in matrix])
    return [F(int(c.p), int(c.q)) for c in reversed(m.charpoly().all_coeffs())]


def test_invariant_polynomials_examples():
    gl2 = AlgebraModel("gl(2)")
    assert invariant_polynomials("gl(2)", gl2.element([[1, 2], [3, 4]])) == (F(5), F(-2))
    sl2 = AlgebraModel("sl(2)")
    assert invariant_polynomials("sl(2)", sl2.element([[0, 1], [0, 0]])) == (F(0),)


def test_invariant_polynomials_sp4_charpoly_oracle():
    rng = random.Random(31)
    m = AlgebraModel("sp(4)")
    el = rand_el(m, rng, 3)
    p2, p4 = invariant_polynomials("sp(4)", el)
    cp = _charpoly_oracle(el.matrix)
    # det(tI - M) = t^4 + e2 t^2 + e4 on sp(4): odd coefficients vanish
    assert cp[3] == 0 and cp[1] == 0
    assert cp[2] == p2 and cp[0] == p4


def test_invariant_polynomials_homogeneity():
    rng = random.Random(7)
    for gid in ["gl(2)", "sl(3)", "sp(4)", "so(5)", "so(4)"]:
        m = AlgebraModel(gid)
        el = rand_el(m, rng, 3)
        c = F(3, 2)
        vals = invariant_polynomials(gid, el)
        scaled = invariant_polynomials(gid, el.scale(c))
        for d, v, s in zip(m.group.degrees, vals, scaled):
            assert s == c ** d * v


def test_invariant_polynomials_conjugation_invariance():
    rng = random.Random(13)
    for gid in ["gl(2)", "sl(2)", "sl(3)"]:
        m = AlgebraModel(gid)
        el = rand_el(m, rng, 3)
        n = m.n
        while True:
            g = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                 for _ in range(n)]
            cp = _charpoly_oracle(g)
            if cp[0] != 0:  # nonzero determinant
                break
        gm = [[sum(g[i][k] * el.matrix[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        from framedhiggs.exactlinalg import inverse as minv
        gi = minv([list(r) for r in g])
        conj = AlgebraElement(to_matrix([[sum(gm[i][k] * gi[k][j] for k in range(n))
                                          for j in range(n)] for i in range(n)]),
                              m.group.group_id)
        assert invariant_polynomials(gid, conj) == invariant_polynomials(gid, el)


def test_so4_pfaffian_squares_to_determinant():
    rng = random.Random(41)
    m = AlgebraModel("so(4)")
    el = rand_el(m, rng, 3)
    p2, pf = invariant_polynomials("so(4)", el)
    cp = _charpoly_oracle(el.matrix)
    assert pf * pf == cp[0]  # e_4 = det


def test_invariant_polynomials_exceptional_rejected():
    dummy = AlgebraModel("sl(2)").element([[0, 1], [0, 0]])
    with pytest.raises(UnsupportedGroupError, match="not supported for evaluation"):
        invariant_polynomials("g2", dummy)


# ---------------------------------------------------------------------------
# framings
# ---------------------------------------------------------------------------

def test_framing_bracket_stability_all_groups():
    for gid in ["sl(2)", "gl(2)", "sl(3)", "sp(4)", "so(5)"]:
        m = AlgebraModel(gid)
        form = trace_form(gid)
        for fr in (trivial_framing(m, form), torus_framing(m, form)):
            assert fr.dim + len(fr.perp) == m.group.dim
            # [h, h_perp] ⊆ h_perp is validated inside the constructor;
            # recheck on a spanning set explicitly
            from framedhiggs.exactlinalg import Echelon
            ech = Echelon(m.group.dim)
            for p in fr.perp:
                ech.insert(m.coords(p))
            for a in fr.subalgebra:
                for p in fr.perp:
                    assert ech.contains(m.coords(bracket(a, p)))


def test_framing_rejects_non_subalgebra():
    m = AlgebraModel("sl(2)")
    form = trace_form("sl(2)")
    e = m.element([[0, 1], [0, 0]])
    f = m.element([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="closed under the bracket"):
        FramingSpec(m, form, [e, f])


@pytest.mark.parametrize("gid, diagonals", [
    ("sl(2)", [[1, -1], [2, -2]]),
    ("sl(3)", [[1, -1, 0], [0, 1, -1], [1, 0, -1]]),
])
def test_framing_rejects_dependent_basis(gid, diagonals):
    m = AlgebraModel(gid)
    basis = [m.element([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])
             for d in diagonals]
    with pytest.raises(ValueError, match="^framing subalgebra basis is linearly dependent$"):
        FramingSpec(m, trace_form(gid), basis)


def test_framing_rejects_full_algebra():
    m = AlgebraModel("sl(2)")
    form = trace_form("sl(2)")
    full = [AlgebraElement(b, "sl(2)") for b in m.basis]
    with pytest.raises(ValueError, match="proper"):
        FramingSpec(m, form, full)


@pytest.mark.parametrize("base", [2, 3, 10, 2 ** 40])
def test_balanced_digits_round_trip(base):
    # the digits of sum_o c_o base^o with every |c_o| < base / 2, and with a
    # digit of exactly base / 2 when base is even, which reads as itself
    rng = random.Random(base)
    half = base // 2
    for _ in range(20):
        count = rng.randint(1, 6)
        digits = [rng.randint(-((base - 1) // 2), half) for _ in range(count)]
        if base % 2 == 0:
            digits[rng.randrange(count)] = half
        value = sum(c * base ** o for o, c in enumerate(digits))
        assert balanced_digits(value, base, count) == digits
        assert balanced_digits(value, base, count + 2) == digits + [0, 0]
    assert balanced_digits(0, base, 3) == [0, 0, 0]


def test_balanced_digits_refuse_a_value_with_one_digit_too_many():
    base = 2 ** 20
    assert balanced_digits(base ** 3 - 1, base, 4) == [-1, 0, 0, 1]
    for value in (base ** 3 - 1, -(base ** 3) // 2 - 1, 3 * base ** 3):
        with pytest.raises(AssertionError, match="more than 3 balanced base-1048576 digits"):
            balanced_digits(value, base, 3)


# ---------------------------------------------------------------------------
# ad in integers
# ---------------------------------------------------------------------------

AD_GROUPS = ["sl(2)", "sl(3)", "sl(4)", "gl(1)", "gl(2)", "gl(3)",
             "so(3)", "so(4)", "so(5)", "so(6)", "sp(4)", "sp(6)"]


@pytest.mark.parametrize("gid", AD_GROUPS)
def test_the_integer_ad_tensor_gives_the_bracket_oracles_ad(gid):
    # ad_columns, read off an element's integer form through the integer
    # tensor, against ad(X) from Fraction brackets and solves, on elements
    # with rational entries; e is the least common denominator
    model = AlgebraModel(gid)
    m = model.group.dim
    tden, tensor = model.ad_tensor
    assert all(type(t) is int for row in tensor.values() for _, _, t in row)
    rng = random.Random(61)
    for _ in range(3):
        el = rand_el(model, rng, 7)
        assert any(x.denominator > 1 for row in el.matrix for x in row) or m == 1
        e, cols = model.ad_columns(el)
        got = [[F(0)] * m for _ in range(m)]
        for a, col in enumerate(cols):
            assert [b for b, _ in col] == sorted(b for b, _ in col)
            for b, y in col:
                assert y != 0
                got[b][a] = F(y, e)
        expected = ad_matrix(model, el)
        assert got == expected
        assert e == lcm(*(x.denominator for row in expected for x in row))


@pytest.mark.parametrize("gid", AD_GROUPS)
def test_membership_by_the_integer_equations_agrees_with_the_solve(gid):
    # contains tests g's integer equations (`LinSolver.equations`); a solve
    # of the coordinates (`LinSolver.int_coords`) must agree on elements with
    # rational entries, on each moved by one in one entry and on random
    # integer matrices.  Only gl(r) has no equation and holds every matrix.
    model = AlgebraModel(gid)
    s, rng, seen = model.n, random.Random(67), set()
    for _ in range(4):
        el = rand_el(model, rng, 7)
        den, nums = el.integer_form
        moved = list(nums)
        moved[rng.randrange(s * s)] += den
        for flat in (nums, moved, [rng.randint(-9, 9) for _ in range(s * s)]):
            candidate = AlgebraElement.from_integers(den, flat, gid)
            expected = model._coord_solver.int_coords(flat) is not None
            assert model.contains(candidate) is expected
            seen.add(expected)
    assert seen == ({True} if gid.startswith("gl") else {True, False})
    assert (model._coord_solver.equations == []) is gid.startswith("gl")
