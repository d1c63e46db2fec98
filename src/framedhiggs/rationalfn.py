"""Vector-valued rational functions on P^1 with poles at marked points.

A section is stored in canonical partial-fraction form

    s(z) = sum_l poly[l] z^l  +  sum_i sum_j pp[i][j] (z - x_i)^(-j)

with exact rational coefficient vectors.  The marked points are finite,
nonzero and pairwise distinct; the point at infinity is handled through the
chart u = 1/z.  One-forms are stored through their coefficient function
(s = f means the form f dz); form semantics only enter residue bookkeeping
at infinity (dz = -du/u^2).

`Poly` is a Fraction front-end over `intpoly`, the one polynomial kernel,
with no arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Sequence

from .exactlinalg import (Vec, ZERO, ONE, frac, over_common_denominator, vec_add,
                          vec_is_zero, vec_scale, zeros)
from .intpoly import factor_list, linear_roots


@dataclass(frozen=True)
class RatContext:
    """Marked points shared by a family of sections; m is the fiber dimension."""
    points: tuple[Fraction, ...]
    m: int

    def __post_init__(self):
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


class VSection:
    """Canonical partial-fraction representation of a vector-valued section.

    Treated as immutable after construction; coefficient extraction is cached.
    """

    __slots__ = ("ctx", "poly", "pp", "_cache")

    def __init__(self, ctx: RatContext, poly: list[Vec] | None = None,
                 pp: dict[int, dict[int, Vec]] | None = None):
        self.ctx = ctx
        self.poly = [list(v) for v in (poly or [])]
        self.pp = {i: {j: list(v) for j, v in parts.items() if not vec_is_zero(v)}
                   for i, parts in (pp or {}).items()}
        self._cache: dict = {}
        self._normalize()

    def _normalize(self):
        while self.poly and vec_is_zero(self.poly[-1]):
            self.poly.pop()
        self.pp = {i: parts for i, parts in self.pp.items() if parts}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: RatContext) -> "VSection":
        return cls(ctx)

    @classmethod
    def monomial(cls, ctx: RatContext, degree: int, v: Sequence[Fraction]) -> "VSection":
        poly = [zeros(ctx.m) for _ in range(degree)] + [list(v)]
        return cls(ctx, poly=poly)

    @classmethod
    def principal(cls, ctx: RatContext, i: int, order: int, v: Sequence[Fraction]) -> "VSection":
        if order < 1:
            raise ValueError("principal parts have order >= 1")
        return cls(ctx, pp={i: {order: list(v)}})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "VSection") -> "VSection":
        poly = [list(v) for v in self.poly]
        for l, v in enumerate(other.poly):
            while len(poly) <= l:
                poly.append(zeros(self.ctx.m))
            poly[l] = vec_add(poly[l], v)
        pp: dict[int, dict[int, Vec]] = {i: {j: list(v) for j, v in parts.items()}
                                         for i, parts in self.pp.items()}
        for i, parts in other.pp.items():
            tgt = pp.setdefault(i, {})
            for j, v in parts.items():
                tgt[j] = vec_add(tgt[j], v) if j in tgt else list(v)
        return VSection(self.ctx, poly, pp)

    def __sub__(self, other: "VSection") -> "VSection":
        return self + other.scale(-ONE)

    def scale(self, c) -> "VSection":
        c = frac(c)
        return VSection(self.ctx,
                        [vec_scale(v, c) for v in self.poly],
                        {i: {j: vec_scale(v, c) for j, v in parts.items()}
                         for i, parts in self.pp.items()})

    def is_zero(self) -> bool:
        return not self.poly and not self.pp

    # -- structure queries ---------------------------------------------------

    def pole_order(self, i: int) -> int:
        return max(self.pp.get(i, {0: None}).keys(), default=0) if i in self.pp else 0

    def poly_degree(self) -> int:
        """Degree of the polynomial part, -1 if absent."""
        return len(self.poly) - 1

    # -- coefficient extraction ----------------------------------------------

    def laurent_coeff(self, i: int, order: int) -> Vec:
        """Coefficient of (z - x_i)^order in the Laurent expansion at x_i."""
        if order < 0:
            return list(self.pp.get(i, {}).get(-order, zeros(self.ctx.m)))
        key = (i, order)
        cached = self._cache.get(key)
        if cached is not None:
            return list(cached)
        x = self.ctx.points[i]
        acc = zeros(self.ctx.m)
        # polynomial part: Taylor shift
        for l, v in enumerate(self.poly):
            if l >= order:
                acc = vec_add(acc, vec_scale(v, frac(comb(l, order)) * x ** (l - order)))
        # principal parts at other points: (z-x_k)^(-j) expanded around x_i
        for k, parts in self.pp.items():
            if k == i:
                continue
            d = x - self.ctx.points[k]
            for j, v in parts.items():
                c = frac((-1) ** order * comb(j - 1 + order, order)) / d ** (j + order)
                acc = vec_add(acc, vec_scale(v, c))
        self._cache[key] = acc
        return list(acc)

    def infinity_coeff(self, order: int) -> Vec:
        """Coefficient of u^order in the expansion at infinity (u = 1/z)."""
        acc = zeros(self.ctx.m)
        if order <= 0:
            if -order < len(self.poly):
                acc = vec_add(acc, self.poly[-order])
            return acc
        key = ("inf", order)
        cached = self._cache.get(key)
        if cached is not None:
            return list(cached)
        for i, parts in self.pp.items():
            x = self.ctx.points[i]
            for j, v in parts.items():
                if order >= j:
                    acc = vec_add(acc, vec_scale(v, frac(comb(order - 1, j - 1)) * x ** (order - j)))
        self._cache[key] = acc
        return list(acc)

    def evaluate(self, t: Fraction) -> Vec:
        """Exact value at a rational point away from the poles."""
        acc = zeros(self.ctx.m)
        power = ONE
        for v in self.poly:
            acc = vec_add(acc, vec_scale(v, power))
            power *= t
        for i, parts in self.pp.items():
            d = t - self.ctx.points[i]
            if d == 0:
                raise ZeroDivisionError("evaluation at a pole")
            for j, v in parts.items():
                acc = vec_add(acc, vec_scale(v, ONE / d ** j))
        return acc

    # -- multiplication by 1/(z - x_i) ----------------------------------------

    def mul_pole(self, i: int) -> "VSection":
        """Multiply by (z - x_i)^(-1), keeping the canonical form; with
        d = x_i - x_k for k != i,
            z^l        -> x_i^l (z-x_i)^-1 + sum_{t<l} x_i^(l-1-t) z^t,
            (z-x_i)^-j -> (z-x_i)^-(j+1),
            (z-x_k)^-j -> d^-j (z-x_i)^-1 - sum_{s<j} d^-(s+1) (z-x_k)^(s-j)."""
        ctx, x = self.ctx, self.ctx.points[i]
        poly = [zeros(ctx.m) for _ in self.poly[1:]]
        pp: dict[int, dict[int, Vec]] = {k: {} for k in range(ctx.n)}

        def add(part, key, v, c):
            part[key] = vec_add(part.get(key, zeros(ctx.m)), vec_scale(v, c))
        for l, v in enumerate(self.poly):
            add(pp[i], 1, v, x ** l)
            for t in range(l):
                poly[t] = vec_add(poly[t], vec_scale(v, x ** (l - 1 - t)))
        for k, parts in self.pp.items():
            d = x - ctx.points[k]
            for j, v in parts.items():
                if k == i:
                    add(pp[i], j + 1, v, ONE)
                    continue
                add(pp[i], 1, v, ONE / d ** j)
                for s in range(j):
                    add(pp[k], j - s, v, -ONE / d ** (s + 1))
        return VSection(ctx, poly, pp)


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

