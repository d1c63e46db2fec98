import itertools
import random
from fractions import Fraction as F

import pytest

from framedhiggs import curve, intpoly, rationalfn
from framedhiggs.curve import (H1Presentation, Layout, MarkedCurve, Window,
                               dot_gram, global_sections,
                               h1_presentation, make_spec,
                               sections_off_divisor, sections_on_affine_chart,
                               serre_dual_spec, serre_pairing)
from framedhiggs.exactlinalg import ZERO, Echelon, dense, identity, nullspace_sparse, rank
from framedhiggs.rationalfn import (Poly, RatContext, pairing_residue_at_infinity,
                                    pairing_residue_at_point)
from oracles import VSection, from_layout, to_layout

PTS3 = (F(1), F(2), F(3))
PTS2 = (F(1), F(2))


def test_marked_curve_validation():
    with pytest.raises(ValueError):
        MarkedCurve(0, ())
    with pytest.raises(ValueError):
        MarkedCurve(0, (F(1), F(1)))
    with pytest.raises(ValueError):
        MarkedCurve(0, (F(0),))
    with pytest.raises(ValueError):
        MarkedCurve(-1, (F(1),))


# ---------------------------------------------------------------------------
# global sections
# ---------------------------------------------------------------------------

def test_vanishing_twist_has_no_sections():
    # rank-3 sheaf of sections vanishing at two points: no global sections
    ctx = RatContext(PTS2, 3)
    spec = make_spec(3, [-1, -1], None, 0)
    assert global_sections(ctx, spec) == []


def test_simple_pole_forms_on_three_points():
    # one-forms with at most simple poles at three points, regular at infinity
    ctx = RatContext(PTS3, 1)
    spec = make_spec(1, [1, 1, 1], None, -2, is_form=True)
    basis = global_sections(ctx, spec)
    assert len(basis) == 2
    # oracle: the space is cut out by the residue-sum-zero linear system
    for s in basis:
        residues = [s.laurent_coeff(i, -1)[0] for i in range(3)]
        assert sum(residues) == 0
        assert s.poly_degree() == -1
    # the stated spanning elements lie in the computed span
    ech = Echelon(3)
    for s in basis:
        ech.insert([s.laurent_coeff(i, -1)[0] for i in range(3)])
    assert ech.contains([F(1), F(0), F(-1)])
    assert ech.contains([F(0), F(1), F(-1)])


def test_integer_points_give_the_sections_of_their_fractions():
    # the closed forms divide by differences of points, so an int point
    # would make them floats
    spec = make_spec(1, [-1, 1, 1], None, 0)
    ints = RatContext((1, 4, 7), 1)
    assert all(type(x) is F for x in ints.points)
    secs = global_sections(ints, spec)
    assert [s.coords for s in secs] == \
        [s.coords for s in global_sections(RatContext((F(1), F(4), F(7)), 1), spec)]
    assert all(type(x) is F for s in secs for i in range(3) for x in s.laurent_coeff(i, 0))


def test_value_constraint_kills_constants():
    ctx = RatContext(PTS3, 1)
    spec = make_spec(1, [0, 0, 0], [[], None, None], 0)
    assert global_sections(ctx, spec) == []


# ---------------------------------------------------------------------------
# chart sections against the partial-fraction oracle
# ---------------------------------------------------------------------------

def vsection_sections(ctx, spec, poles, degree, at_points):
    """Oracle: the chart basis as combinations of candidate partial-fraction
    sections, with condition rows read off their own `laurent_coeff` and
    `infinity_coeff`."""
    m = spec.m
    units = identity(m)
    candidates = [VSection.principal(ctx, i, j, v)
                  for i, p in enumerate(poles) for j in range(1, p + 1) for v in units]
    candidates += [VSection.monomial(ctx, l, v) for l in range(degree + 1) for v in units]

    def rows_for(values, functionals):
        return [[sum((p * v[a] for a, p in enumerate(phi) if p), ZERO) for v in values]
                for phi in functionals]

    rows = []
    for i in range(spec.n if at_points else 0):
        k, cons = spec.pole_orders[i], spec.constraints[i]
        for order in range(0, -k):
            rows += rows_for([c.laurent_coeff(i, order) for c in candidates], units)
        if cons is not None:
            functionals = [dense(v, m) for v in nullspace_sparse(cons, ncols=m)]
            rows += rows_for([c.laurent_coeff(i, -k) for c in candidates], functionals)
    for order in range(1, -degree):
        rows += rows_for([c.infinity_coeff(order) for c in candidates], units)
    out = []
    for combo in nullspace_sparse(rows, ncols=len(candidates)):
        s = VSection.zero(ctx)
        for c, x in combo.items():
            s = s + candidates[c].scale(x)
        out.append(s)
    return out


def _random_spec(rng):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    pts = tuple(F(x) for x in rng.sample([1, 2, 3, -1, F(1, 2), F(-5, 3)], n))
    orders, cons = [], []
    for _ in range(n):
        orders.append(rng.randint(-2, 2))
        kind = rng.random()
        if kind < 0.4 or m == 1:
            cons.append(None)
        else:
            dim = rng.randint(1, m - 1)
            cons.append([[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
                         for _ in range(dim)])
    spec = make_spec(m, orders, cons, rng.randint(-4, 1), is_form=rng.random() < 0.5)
    return RatContext(pts, m), spec


def test_layout_chart_sections_equal_the_vsection_oracle():
    rng = random.Random(909)
    kinds = set()
    for _ in range(220):
        ctx, spec = _random_spec(rng)
        window = curve.default_window([spec]).bumped(rng.randint(0, 1))
        for chart, poles, degree, at_points in (
                (sections_on_affine_chart, spec.pole_orders, window.degree, True),
                (sections_off_divisor, [window.pole] * spec.n, spec.inf_order, False)):
            expected = [to_layout(s, window)
                        for s in vsection_sections(ctx, spec, poles, degree, at_points)]
            assert list(chart(ctx, spec, window)) == expected
        glob = global_sections(ctx, spec)
        expected = vsection_sections(ctx, spec, spec.pole_orders, spec.inf_order, True)
        glob_window = Window(max(0, *spec.pole_orders), max(spec.inf_order, 0))
        assert all(s.window == glob_window for s in glob)
        assert [s.coords for s in glob] == [to_layout(s, glob_window) for s in expected]
        kinds.update(k for k, on in (("constraint", any(c is not None for c in spec.constraints)),
                                     ("negative pole order", min(spec.pole_orders) < 0),
                                     ("vanishing at infinity", spec.inf_order < -1),
                                     ("global sections", bool(glob))) if on)
    assert kinds == {"constraint", "negative pole order", "vanishing at infinity",
                     "global sections"}


def test_a_perturbed_laurent_row_breaks_the_chart_sections(monkeypatch):
    honest = curve.laurent_row

    def perturbed(points, window, i, order):
        row = honest(points, window, i, order)
        if order == 0 and row:
            row[max(row)] += 1          # the top polynomial coefficient
        return row

    monkeypatch.setattr(curve, "laurent_row", perturbed)
    ctx = RatContext(PTS3, 2)
    spec = make_spec(2, [-1, 0, 1], [None, [(F(1), F(2))], None], -1)
    window = curve.default_window([spec])
    expected = [to_layout(s, window)
                for s in vsection_sections(ctx, spec, spec.pole_orders, window.degree, True)]
    assert list(sections_on_affine_chart(ctx, spec, window)) != expected


def _row_mismatches(points, window):
    """Where the closed-form rows and the oracle's expansions of the scalar
    layout unit sections of a rank-one context disagree, as (kind, point,
    order, layout index): `laurent_row` against `laurent_coeff` and
    `infinity_row` against `infinity_coeff`, at every order the window
    reaches and one beyond it on either side."""
    ctx = RatContext(points, 1)
    units = [from_layout(ctx, window, {idx: F(1)})
             for idx in range(Layout(ctx, window).dim)]
    out = []
    for i in range(len(points)):
        for order in range(-window.pole - 1, window.degree + 2):
            row = rationalfn.laurent_row(points, window, i, order)
            out += [("laurent", i, order, idx) for idx, s in enumerate(units)
                    if s.laurent_coeff(i, order) != [row.get(idx, 0)]]
    for order in range(-window.degree - 1, window.pole + 2):
        row = rationalfn.infinity_row(points, window, order)
        out += [("infinity", None, order, idx) for idx, s in enumerate(units)
                if s.infinity_coeff(order) != [row.get(idx, 0)]]
    return out


def _random_points_and_windows(rng, count):
    for _ in range(count):
        values = {F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 3))}
        yield tuple(sorted(values)), Window(rng.randint(0, 3), rng.randint(0, 3))


def test_the_laurent_rows_are_the_vsection_expansions_of_the_layout_units():
    # the two closed forms of the Laurent coefficients, row by row
    for points, window in _random_points_and_windows(random.Random(31), 40):
        assert _row_mismatches(points, window) == [], (points, window)


def test_an_off_by_one_binomial_in_the_laurent_row_is_caught_row_by_row(monkeypatch):
    from math import comb
    monkeypatch.setattr(rationalfn, "comb", lambda a, b: comb(a + 1, b))
    cases = list(_random_points_and_windows(random.Random(31), 40))
    caught = [case for case in cases
              if any(kind == "laurent" for kind, *_ in _row_mismatches(*case))]
    assert len(caught) >= 30


# ---------------------------------------------------------------------------
# the exact window bound
# ---------------------------------------------------------------------------

def truncated_h0_h1(ctx, spec, window):
    """(h0, h1) of the truncated complex F(U0)_W + F(U1)_W -> layout_W, with
    no check of the window against the bound; ValueError if the window cannot
    hold the chart sections."""
    u0, u1 = (chart(ctx, spec, window) for chart in (sections_on_affine_chart,
                                                     sections_off_divisor))
    span = rank([*u0.scaled, *u1.scaled])
    return len(u0) + len(u1) - span, Layout(ctx, window).dim - span


def _independent_spec(rng):
    """A `_random_spec` whose constraint bases are linearly independent."""
    while True:
        ctx, spec = _random_spec(rng)
        if all(c is None or rank(c) == len(c) for c in spec.constraints):
            return ctx, spec


def test_the_default_window_is_exact_and_tight_on_random_sheaves():
    rng = random.Random(2020)
    tight = {"pole": 0, "degree": 0}
    for _ in range(200):
        ctx, spec = _independent_spec(rng)
        window = curve.default_window([spec])
        h0, h1 = truncated_h0_h1(ctx, spec, window)
        assert (h0, h1) == truncated_h0_h1(ctx, spec, window.bumped(2))
        assert h0 == len(global_sections(ctx, spec))
        assert h1 == H1Presentation(ctx, spec).dim
        assert h0 - h1 == spec.euler_char()
        for side, smaller in (("pole", Window(window.pole - 1, window.degree)),
                              ("degree", Window(window.pole, window.degree - 1))):
            if min(smaller.pole, smaller.degree) >= 0:
                try:
                    tight[side] += truncated_h0_h1(ctx, spec, smaller)[1] != h1
                except ValueError:      # the window cannot hold the chart sections
                    tight[side] += 1
    assert min(tight.values()) > 0, tight


@pytest.mark.parametrize("points, orders, inf_order, bound, smaller", [
    # O(-3) by its twist at infinity: the pole side
    ((F(1),), [0], -3, Window(2, 0), Window(1, 0)),
    # O(-3) by vanishing at three points: the degree side
    (PTS3, [-1, -1, -1], 0, Window(0, 2), Window(0, 1)),
])
def test_one_pole_or_one_degree_below_the_bound_changes_h1(points, orders, inf_order,
                                                            bound, smaller):
    ctx, spec = RatContext(points, 1), make_spec(1, orders, None, inf_order)
    assert curve.default_window([spec]) == bound
    assert truncated_h0_h1(ctx, spec, bound) == truncated_h0_h1(ctx, spec, bound.bumped(2)) \
        == (0, 2)
    assert truncated_h0_h1(ctx, spec, smaller) == (0, 1)


def test_h1_presentation_refuses_a_window_below_the_bound():
    ctx = RatContext(PTS3, 1)
    spec = make_spec(1, [-1, -1, -1], None, 0)  # O(-3): h1 = 2
    with pytest.raises(ValueError, match=r"below the exact Laurent window "
                                         r"Window\(pole=0, degree=2\)"):
        H1Presentation(ctx, spec, Window(0, 1))
    for window in (None, Window(0, 2), Window(1, 2), Window(0, 4), Window(3, 3)):
        assert H1Presentation(ctx, spec, window).dim == 2


# ---------------------------------------------------------------------------
# first cohomology
# ---------------------------------------------------------------------------

def test_h1_of_negative_line_bundle():
    ctx = RatContext(PTS3, 1)
    spec = make_spec(1, [-1, -1, -1], None, 0)  # degree -3
    pres = h1_presentation(ctx, spec)
    assert pres.dim == 2
    assert spec.euler_char() == -2


def test_h1_vanishes_in_nonnegative_degree():
    ctx = RatContext(PTS2, 1)
    for d_extra in range(3):
        spec = make_spec(1, [1, 0], None, d_extra - 1)  # degrees 0, 1, 2
        assert h1_presentation(ctx, spec).dim == 0


def test_h1_adjoint_vanishing_twist():
    ctx = RatContext(PTS2, 3)
    spec = make_spec(3, [-1, -1], None, 0)
    assert h1_presentation(ctx, spec).dim == 3  # 3 (n - 1)


def test_chi_identity_and_window_stability():
    rng = random.Random(2)
    ctx = RatContext(PTS2, 2)
    for k1, k2, t in itertools.product([-2, -1, 0, 1, 2], repeat=3):
        spec = make_spec(2, [k1, k2], None, t)
        h0 = len(global_sections(ctx, spec))
        pres = h1_presentation(ctx, spec)
        assert h0 - pres.dim == spec.euler_char()
        assert H1Presentation(ctx, spec, pres.window.bumped(1)).dim == pres.dim


def test_chi_identity_with_constraints():
    ctx = RatContext(PTS2, 2)
    sub = [[(F(1), F(0))], [(F(1), F(1))], None, []]
    for c1, c2 in itertools.product(sub, repeat=2):
        for k1, k2 in itertools.product([-1, 0, 1], repeat=2):
            spec = make_spec(2, [k1, k2], [c1, c2], 0)
            h0 = len(global_sections(ctx, spec))
            assert h0 - h1_presentation(ctx, spec).dim == spec.euler_char()


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def residue(s, i):
    """Res_{x_i} of the rank-one form s dz: its Laurent coefficient of order -1."""
    return s.laurent_coeff(i, -1)[0]


def residue_at_infinity(s):
    """Res_infinity of the rank-one form s dz, minus its u^1 coefficient (u = 1/z)."""
    return -s.infinity_coeff(1)[0]


def test_defining_residues():
    ctx = RatContext(PTS3, 1)
    s = VSection.principal(ctx, 0, 1, [F(1)])
    assert residue(s, 0) == 1
    assert residue(s, 1) == 0
    assert residue_at_infinity(s) == -1


def test_partial_fraction_residues():
    # z dz / ((z-1)(z-2)) has residues (-1, 2) and -1 at infinity
    ctx = RatContext(PTS2, 1)
    s = VSection(ctx, pp={0: {1: [F(-1)]}, 1: {1: [F(2)]}})
    assert s.evaluate(F(5))[0] == F(5) / 12
    assert (residue(s, 0), residue(s, 1), residue_at_infinity(s)) == (F(-1), F(2), F(-1))
    assert residue(s, 0) + residue(s, 1) + residue_at_infinity(s) == 0


def test_residue_theorem_on_stored_forms():
    rng = random.Random(8)
    ctx = RatContext(PTS3, 1)
    for _ in range(10):
        pp = {i: {j: [F(rng.randint(-4, 4))] for j in range(1, 3)} for i in range(3)}
        s = VSection(ctx, pp=pp)
        total = sum(residue(s, i) for i in range(3)) + residue_at_infinity(s)
        assert total == 0


# ---------------------------------------------------------------------------
# Serre pairing
# ---------------------------------------------------------------------------

def total_residue_pairing(f, g, gram_apply):
    """Sum of residues of <f, g> dz over D and infinity.

    For a product with poles only along D and at infinity this vanishes by
    the residue theorem; it is the cross-check functional, not the pairing.
    """
    acc = ZERO
    for i in range(f.ctx.n):
        acc += pairing_residue_at_point(f, g, gram_apply, i)
    acc += pairing_residue_at_infinity(f, g, gram_apply)
    return acc


def test_serre_pairing_zero_class():
    ctx = RatContext(PTS3, 1)
    spec = make_spec(1, [-1, -1, -1], None, 0)
    dual = serre_dual_spec(spec)
    dual_secs = global_sections(ctx, dual)
    zero = rationalfn.VSection(ctx, Window(0, 0), {})
    assert all(serre_pairing(zero, d) == 0 for d in dual_secs)


def test_serre_pairing_full_rank_and_coboundary():
    ctx = RatContext(PTS3, 1)
    spec = make_spec(1, [-1, -1, -1], None, 0)
    pres = h1_presentation(ctx, spec)
    dual = serre_dual_spec(spec)
    dual_secs = global_sections(ctx, dual)
    assert len(dual_secs) == pres.dim == 2
    mat = [[serre_pairing(r, d) for d in dual_secs] for r in pres.representatives()]
    assert rank(mat) == 2
    for cob in (list(sections_on_affine_chart(ctx, spec, pres.window))
                + list(sections_off_divisor(ctx, spec, pres.window))):
        cob = rationalfn.VSection(ctx, pres.window, cob)
        for d in dual_secs:
            assert serre_pairing(cob, d) == 0
    # the total-residue functional annihilates everything global
    for r in pres.representatives():
        for d in dual_secs:
            assert total_residue_pairing(r, d, dot_gram) == 0


def test_serre_pairing_perfect_across_spec_family():
    ctx = RatContext(PTS2, 2)
    constraint_options = [None, [(F(1), F(0))], [(F(2), F(1))]]
    for k1, c1 in itertools.product([-1, 0, 1], constraint_options):
        spec = make_spec(2, [k1, 0], [c1, None], 0)
        dual = serre_dual_spec(spec)
        pres = h1_presentation(ctx, spec)
        dual_secs = global_sections(ctx, dual)
        assert pres.dim == len(dual_secs)
        if pres.dim:
            mat = [[serre_pairing(r, d) for d in dual_secs]
                   for r in pres.representatives()]
            assert rank(mat) == pres.dim


def test_serre_dual_is_involution():
    for k1, k2, t in itertools.product([-1, 0, 2], [-2, 1], [-2, 0, 1]):
        spec = make_spec(2, [k1, k2], [[(F(1), F(0))], None], t)
        assert serre_dual_spec(serre_dual_spec(spec)) == spec


# ---------------------------------------------------------------------------
# sections arithmetic
# ---------------------------------------------------------------------------

def test_mul_pole_partial_fractions():
    ctx = RatContext(PTS2, 1)
    s = VSection.monomial(ctx, 2, [F(1)])  # z^2
    t = s.mul_pole(0)  # z^2/(z-1) = z + 1 + 1/(z-1)
    assert t.poly == [[F(1)], [F(1)]]
    assert t.pp[0][1] == [F(1)]
    u = VSection.principal(ctx, 1, 2, [F(1)]).mul_pole(0)
    # 1/((z-1)(z-2)^2): residues must sum to zero, no polynomial part
    assert not u.poly
    assert sum(u.laurent_coeff(i, -1)[0] for i in range(2)) == 0
    for point in (F(5), F(-3)):
        expected = 1 / ((point - 1) * (point - 2) ** 2)
        assert u.evaluate(point)[0] == expected


def test_poly_helpers():
    p = Poly([F(-2), F(0), F(1)])  # z^2 - 2
    assert p.is_squarefree() and p(F(3, 2)) == F(1, 4)
    sq = intpoly.mul([1, 0, -2], [1, 0, -2])  # highest coefficient first
    assert not Poly(sq[::-1]).is_squarefree()
    assert Poly([F(-6), F(1), F(1)]).rational_roots() == [(F(-3), 1), (F(2), 1)]
    mixed = intpoly.mul(intpoly.mul([3, 1], [3, 1]), intpoly.mul([1, 0], [1, 0, 2]))
    assert Poly(mixed[::-1]).rational_roots() == [(F(-1, 3), 2), (F(0), 1)]


def test_serre_pairing_rejects_incompatible_specs():
    from framedhiggs.curve import check_serre_dual
    ctx = RatContext(PTS3, 1)
    spec = make_spec(1, [-1, -1, -1], None, 0)
    wrong = make_spec(1, [1, 1, 1], None, 0, is_form=True)
    with pytest.raises(ValueError, match="incompatible"):
        check_serre_dual(spec, wrong)
    pres = h1_presentation(ctx, spec)
    dual = serre_dual_spec(spec)
    sec = global_sections(ctx, dual)[0]
    rep = pres.representatives()[0]
    assert serre_pairing(rep, sec, specs=(spec, dual)) == serre_pairing(rep, sec)
    with pytest.raises(ValueError, match="incompatible"):
        serre_pairing(rep, sec, specs=(spec, wrong))
