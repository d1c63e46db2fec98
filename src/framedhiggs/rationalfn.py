"""Vector-valued rational sections on P^1 with poles at marked points.

A Laurent window W = (P, D) bounds the pole order at every marked point by
P and the polynomial degree by D.  Its layout has one coordinate per scalar
basis function, (z - x_i)^-j for 1 <= j <= P at each point, then z^l for
0 <= l <= D, tensored with the fiber (position-major, fiber-minor).  A
section (`VSection`) is a view over its sparse coordinates in that layout.
The marked points are finite, nonzero and pairwise distinct; the point at
infinity is handled through the chart u = 1/z.  One-forms are stored through
their coefficient function (s = f means the form f dz); form semantics only
enter residue bookkeeping at infinity (dz = -du/u^2).

Sections are read through three closed forms, the package's one copy of
each: `laurent_row`, the coefficient of (z - x_i)^k in the Laurent expansion
at x_i of each scalar basis function; `infinity_row`, its coefficient of u^k
at infinity; and `scalar_columns`, the columns of S_i, multiplication by
1/(z - x_i), kept per process by the points and the window.  The chart bases
of `curve`, the pairing form and Theta of `deformation` and the `VSection`
view all read them.

`Poly` is a Fraction front-end over `intpoly`, the one polynomial kernel,
with no arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from typing import Sequence

from .exactlinalg import (MEMO_SIZE, Vec, ZERO, ONE, add_scaled, frac,
                          over_common_denominator, sparse, vec_is_zero, zeros)
from .intpoly import factor_list, linear_roots


@dataclass(frozen=True)
class RatContext:
    """Marked points shared by a family of sections, read as Fractions so
    that the closed forms stay exact; m is the fiber dimension."""
    points: tuple[Fraction, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(map(frac, self.points)))
        if len(set(self.points)) != len(self.points):
            raise ValueError("marked points must be pairwise distinct")
        if any(p == 0 for p in self.points):
            raise ValueError("marked points must be nonzero (0 and infinity are chart points)")

    @cached_property
    def _hash(self) -> int:
        return hash((self.points, self.m))

    def __hash__(self) -> int:      # the Fraction points are hashed once per context
        return self._hash

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Window:
    pole: int      # pole-order bound at every marked point
    degree: int    # polynomial degree bound

    def bumped(self, extra: int = 1) -> "Window":
        return Window(self.pole + extra, self.degree + extra)


def laurent_row(points: Sequence[Fraction], window: Window, i: int,
                order: int) -> dict[int, Fraction]:
    """lambda_{i,order}: the coefficient of (z - x_i)^order in the Laurent
    expansion at x_i of each scalar basis function of the window's layout,
    as {scalar index: value}."""
    n, pole, x = len(points), window.pole, points[i]
    if order < 0:
        return {i * pole - order - 1: ONE} if -order <= pole else {}
    row = {}
    for k, xk in enumerate(points):
        if k != i:
            d = x - xk
            for j in range(1, pole + 1):
                row[k * pole + j - 1] = \
                    (-1) ** order * comb(j - 1 + order, order) / d ** (j + order)
    for l in range(order, window.degree + 1):
        row[n * pole + l] = comb(l, order) * x ** (l - order)
    return row


def infinity_row(points: Sequence[Fraction], window: Window, order: int) -> dict[int, Fraction]:
    """The coefficient of u^order (u = 1/z) in each scalar basis function of
    the window's layout."""
    n, pole = len(points), window.pole
    if order <= 0:
        return {n * pole - order: ONE} if -order <= window.degree else {}
    return {i * pole + j - 1: comb(order - 1, j - 1) * x ** (order - j)
            for i, x in enumerate(points) for j in range(1, min(pole, order) + 1)}


@lru_cache(maxsize=MEMO_SIZE)
def scalar_columns(points: tuple[Fraction, ...], window: Window
                   ) -> list[list[tuple[int, list[tuple[int, int]]]]]:
    """Per scalar basis function k of the layout of `window`, the columns k
    of S_1, ..., S_n, S_i the multiplication by 1/(z - x_i) into the layout
    of the pole-bumped window, each as (sigma, [(q, sigma S_i[q][k])]) over
    its least common denominator sigma; kept per process by the points and
    the window.  In closed form, with d = x_i - x_k:
    (z-x_i)^-j -> (z-x_i)^-(j+1);
    (z-x_k)^-j -> d^-j (z-x_i)^-1 - sum_{t<j} d^-(t+1) (z-x_k)^(t-j);
    z^l -> x_i^l (z-x_i)^-1 + sum_{t<l} x_i^(l-1-t) z^t."""
    n, pole = len(points), window.pole
    s_cols = []
    for k in range(n * pole + window.degree + 1):
        kp, j = divmod(k, pole) if k < n * pole else (n, 0)   # (z - x_kp)^-(j+1)
        cols_k = []
        for i, x in enumerate(points):
            if kp >= n:
                l = k - n * pole
                s_col = {n * (pole + 1) + t: x ** (l - 1 - t) for t in range(l)}
                s_col[i * (pole + 1)] = x ** l
            elif kp == i:
                s_col = {k + i + 1: ONE}
            else:
                d = x - points[kp]
                s_col = {kp * (pole + 1) + j - t: -1 / d ** (t + 1) for t in range(j + 1)}
                s_col[i * (pole + 1)] = 1 / d ** (j + 1)
            sigma, nums = over_common_denominator(s_col.values())
            cols_k.append((sigma, list(zip(s_col, nums))))
        s_cols.append(cols_k)
    return s_cols


class VSection:
    """A vector-valued section: its sparse coordinates {layout index: value}
    in the layout of `window`, read through the closed forms above.

    Treated as immutable after construction.
    """

    __slots__ = ("ctx", "window", "coords")

    def __init__(self, ctx: RatContext, window: Window, coords: dict[int, Fraction]):
        self.ctx, self.window, self.coords = ctx, window, sparse(coords)

    def _terms(self) -> set[int]:
        """The scalar basis functions with a nonzero coefficient vector."""
        return {idx // self.ctx.m for idx in self.coords}

    def pole_order(self, i: int) -> int:
        pole = self.window.pole
        return max((k - i * pole + 1 for k in self._terms() if 0 <= k - i * pole < pole),
                   default=0)

    def poly_degree(self) -> int:
        """Degree of the polynomial part, -1 if absent."""
        base = self.ctx.n * self.window.pole
        return max((k - base for k in self._terms() if k >= base), default=-1)

    def _read(self, row: dict[int, Fraction]) -> Vec:
        """sum_k row[k] s_k over the coefficient vectors s_k of the section."""
        m = self.ctx.m
        acc = zeros(m)
        for idx, x in self.coords.items():
            k, a = divmod(idx, m)
            if k in row:
                acc[a] += row[k] * x
        return acc

    def laurent_coeff(self, i: int, order: int) -> Vec:
        """Coefficient of (z - x_i)^order in the Laurent expansion at x_i."""
        return self._read(laurent_row(self.ctx.points, self.window, i, order))

    def infinity_coeff(self, order: int) -> Vec:
        """Coefficient of u^order in the expansion at infinity (u = 1/z)."""
        return self._read(infinity_row(self.ctx.points, self.window, order))

    def mul_pole(self, i: int) -> "VSection":
        """The section times (z - x_i)^(-1), in the layout of the pole-bumped
        window."""
        m, out = self.ctx.m, {}
        cols = scalar_columns(self.ctx.points, self.window)
        for idx, x in self.coords.items():
            k, a = divmod(idx, m)
            sigma, col = cols[k][i]
            add_scaled(out, x / sigma, {q * m + a: y for q, y in col})
        return VSection(self.ctx, Window(self.window.pole + 1, self.window.degree), out)


def pairing_residue_at_point(f: VSection, g: VSection, gram_apply, i: int) -> Fraction:
    """Residue at x_i of <f, g> dz for a bilinear pairing given by gram_apply.

    gram_apply(a, b) evaluates the fiber pairing of coefficient vectors.
    """
    pf, pg = f.pole_order(i), g.pole_order(i)
    if pf + pg == 0:
        return ZERO
    acc = ZERO
    for a in range(-pf, pg):
        b = -1 - a
        va = f.laurent_coeff(i, a)
        if vec_is_zero(va):
            continue
        vb = g.laurent_coeff(i, b)
        if vec_is_zero(vb):
            continue
        acc += gram_apply(va, vb)
    return acc


def pairing_residue_at_infinity(f: VSection, g: VSection, gram_apply) -> Fraction:
    """Residue at infinity of <f, g> dz (the product is a one-form)."""
    lf, lg = f.poly_degree(), g.poly_degree()
    acc = ZERO
    for a in range(-lf, 2 + lg):
        b = 1 - a
        va = f.infinity_coeff(a)
        if vec_is_zero(va):
            continue
        vb = g.infinity_coeff(b)
        if vec_is_zero(vb):
            continue
        acc += gram_apply(va, vb)
    return -acc


# ---------------------------------------------------------------------------
# univariate polynomials over Fraction, read through intpoly
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial over Fraction, lowest coefficient first, factored by
    `intpoly`; kept for the methods `bench/tracer.py` times and test inputs."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence[Fraction] | None = None):
        c = [frac(x) for x in (coeffs or [])]
        while c and c[-1] == 0:
            c.pop()
        self.c = c

    def __call__(self, t) -> Fraction:
        t = frac(t)
        acc = ZERO
        for coeff in reversed(self.c):
            acc = acc * t + coeff
        return acc

    def is_squarefree(self) -> bool:
        return len(self.c) < 2 or all(m == 1 for _, m in self.integer_factors()[1])

    def integer_factors(self) -> tuple[int, list[tuple[list[int], int]]]:
        """`intpoly.factor_list` of the integer polynomial d p, d the least
        common denominator of the coefficients."""
        return factor_list(over_common_denominator(reversed(self.c))[1])

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, in increasing order.

        They are read off the linear factors of the integer polynomial
        (`integer_factors`), which takes no divisor enumeration of the
        constant term.
        """
        return linear_roots(self.integer_factors()[1])

