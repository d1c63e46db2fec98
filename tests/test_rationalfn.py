"""The closed forms of `rationalfn` and the `VSection` view against the
partial-fraction sections of `tests/oracles.py`, which expand and multiply
by their own closed forms."""

import random
from fractions import Fraction as F

from framedhiggs import rationalfn
from framedhiggs.curve import Layout
from framedhiggs.exactlinalg import over_common_denominator
from framedhiggs.rationalfn import RatContext, Window
from oracles import from_layout, to_layout, vec_add


def bumped(window):
    return Window(window.pole + 1, window.degree)


# ---------------------------------------------------------------------------
# the S_i columns, unit by unit
# ---------------------------------------------------------------------------

def column_mismatches(points, window, columns):
    """(k, i) for each column k of S_i in `columns` that is not the oracle's
    product of the k-th scalar layout unit with 1/(z - x_i), in the layout of
    the pole-bumped window; each column must be integers over their least
    common denominator."""
    ctx = RatContext(points, 1)
    assert len(columns) == Layout(ctx, window).dim
    out = []
    for k, cols_k in enumerate(columns):
        assert len(cols_k) == len(points)
        unit = from_layout(ctx, window, {k: F(1)})
        for i, (sigma, col) in enumerate(cols_k):
            assert sigma >= 1 and all(type(y) is int for _, y in col)
            assert F(sigma) == over_common_denominator(F(y, sigma) for _, y in col)[0]
            if {q: F(y, sigma) for q, y in col if y} != to_layout(unit.mul_pole(i),
                                                                bumped(window)):
                out.append((k, i))
    return out


def off_by_one_power(columns, points, window):
    """A copy of `columns` with one entry off by one power: in the column of
    z^D (D = window.degree) under S_i, for the first point with |x_i| != 1,
    the (z - x_i)^-1 entry x_i^(D+1) in place of x_i^D."""
    i = next(i for i, x in enumerate(points) if abs(x) != 1)
    k = len(points) * window.pole + window.degree
    sigma, col = columns[k][i]
    values = {q: F(y, sigma) for q, y in col}
    values[i * (window.pole + 1)] *= points[i]
    out = [list(cols_k) for cols_k in columns]
    den, nums = over_common_denominator(values.values())
    out[k][i] = (den, list(zip(values, nums)))
    return out


POINT_SETS = [(F(3),), (F(1), F(2), F(3)), (F(-2), F(5)), (F(1, 2), F(-7, 3), F(5, 4)),
              (F(1), F(-1), F(2, 3))]
WINDOWS = [Window(0, 0), Window(1, 0), Window(0, 2), Window(2, 3), Window(3, 1)]


def test_the_scalar_columns_are_the_oracle_products_of_the_layout_units():
    for points in POINT_SETS:
        for window in WINDOWS:
            assert column_mismatches(points, window,
                                     rationalfn.scalar_columns(points, window)) == [], \
                (points, window)


def test_an_off_by_one_power_in_one_scalar_column_is_caught(monkeypatch):
    # the check reads the columns, and the view multiplies, through the
    # module global that `VSection.mul_pole` calls
    points, window = (F(1), F(-2), F(3, 2)), Window(2, 2)
    honest = rationalfn.scalar_columns
    monkeypatch.setattr(rationalfn, "scalar_columns",
                        lambda p, w: off_by_one_power(honest(p, w), p, w))
    top = len(points) * window.pole + window.degree
    assert column_mismatches(points, window, rationalfn.scalar_columns(points, window)) == \
        [(top, 1)]
    ctx = RatContext(points, 2)
    coords = {top * 2 + 1: F(1)}
    oracle = from_layout(ctx, window, coords).mul_pole(1)
    assert rationalfn.VSection(ctx, window, coords).mul_pole(1).coords != \
        to_layout(oracle, bumped(window))


# ---------------------------------------------------------------------------
# the view against the oracle on random sections
# ---------------------------------------------------------------------------

def random_section(rng):
    """(ctx, window, sparse layout coordinates) with fiber dimension 1-3 and
    1-3 distinct nonzero points, integers or not."""
    points, n = [], rng.randint(1, 3)
    while len(points) < n:
        x = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 4]))
        if x not in points:
            points.append(x)
    ctx = RatContext(tuple(points), rng.randint(1, 3))
    window = Window(rng.randint(0, 3), rng.randint(0, 3))
    density = rng.choice([0.1, 0.3, 0.8])
    coords = {idx: F(rng.randint(-5, 5), rng.randint(1, 3))
              for idx in range(Layout(ctx, window).dim) if rng.random() < density}
    return ctx, window, coords


def finite_residues(s):
    acc = [F(0)] * s.ctx.m
    for i in range(s.ctx.n):
        acc = vec_add(acc, s.laurent_coeff(i, -1))
    return acc


def test_the_view_reads_the_oracles_coefficients_and_products():
    rng = random.Random(4507)
    kinds = set()
    for _ in range(150):
        ctx, window, coords = random_section(rng)
        view, oracle = rationalfn.VSection(ctx, window, coords), from_layout(ctx, window, coords)
        kinds.add(("integer points" if all(x.denominator == 1 for x in ctx.points)
                   else "rational points", ctx.m))
        assert view.poly_degree() == oracle.poly_degree()
        for i in range(ctx.n):
            assert view.pole_order(i) == oracle.pole_order(i)
            for order in range(-window.pole - 1, window.degree + 2):
                assert view.laurent_coeff(i, order) == oracle.laurent_coeff(i, order)
        for order in range(-window.degree - 1, window.pole + 2):
            assert view.infinity_coeff(order) == oracle.infinity_coeff(order)
        for i in range(ctx.n):
            image, expected = view.mul_pole(i), oracle.mul_pole(i)
            assert image.window == bumped(window)
            assert image.coords == to_layout(expected, bumped(window))
            # the residue theorem: the residues at the marked points sum to
            # the u^1 coefficient at infinity, minus the residue there
            for s in (image, expected):
                assert finite_residues(s) == s.infinity_coeff(1)
    assert kinds == {(kind, m) for kind in ("integer points", "rational points")
                     for m in (1, 2, 3)}
