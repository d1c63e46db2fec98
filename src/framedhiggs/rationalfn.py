"""Vector-valued rational functions on P^1 with poles at marked points.

A section is stored in canonical partial-fraction form

    s(z) = sum_l poly[l] z^l  +  sum_i sum_j pp[i][j] (z - x_i)^(-j)

with exact rational coefficient vectors.  The marked points are finite,
nonzero and pairwise distinct; the point at infinity is handled through the
chart u = 1/z.  One-forms are stored through their coefficient function
(s = f means the form f dz); form semantics only enter residue bookkeeping
at infinity (dz = -du/u^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Sequence

from .exactlinalg import (Vec, ZERO, ONE, frac, over_common_denominator, vec_add,
                          vec_is_zero, vec_scale, zeros)
from .intpoly import factor_squarefree, squarefree_parts


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
# exact univariate polynomials (dense, over Fraction)
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over the rationals."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence[Fraction] | None = None):
        c = [frac(x) for x in (coeffs or [])]
        while c and c[-1] == 0:
            c.pop()
        self.c = c

    @classmethod
    def x_minus(cls, a) -> "Poly":
        return cls([-frac(a), ONE])

    @classmethod
    def interpolate(cls, ts: Sequence[Fraction], ys: Sequence[Fraction]) -> "Poly":
        """The polynomial of degree < len(ts) through the points (t, y), from
        Newton's divided differences; the ts must be distinct."""
        d = list(ys)
        for j in range(1, len(ts)):
            for i in range(len(ts) - 1, j - 1, -1):
                d[i] = (d[i] - d[i - 1]) / (ts[i] - ts[i - j])
        c: list[Fraction] = []
        for t, a in zip(reversed(ts), reversed(d)):  # c <- c (z - t) + a
            c = [a - t * c[0]] + [lo - t * hi for lo, hi in zip(c, c[1:])] + c[-1:] \
                if c else [a]
        return cls(c)

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __add__(self, o: "Poly") -> "Poly":
        n = max(len(self.c), len(o.c))
        return Poly([(self.c[i] if i < len(self.c) else ZERO) +
                     (o.c[i] if i < len(o.c) else ZERO) for i in range(n)])

    def __sub__(self, o: "Poly") -> "Poly":
        return self + o.scale(-ONE)

    def __mul__(self, o: "Poly") -> "Poly":
        if self.is_zero() or o.is_zero():
            return Poly()
        out = [ZERO] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    def scale(self, a) -> "Poly":
        a = frac(a)
        return Poly([a * x for x in self.c])

    def __call__(self, t) -> Fraction:
        t = frac(t)
        acc = ZERO
        for coeff in reversed(self.c):
            acc = acc * t + coeff
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * x for i, x in enumerate(self.c)][1:])

    def divmod(self, o: "Poly") -> tuple["Poly", "Poly"]:
        if o.is_zero():
            raise ZeroDivisionError
        r = list(self.c)
        q = [ZERO] * max(0, len(r) - len(o.c) + 1)
        while len(r) >= len(o.c) and any(x != 0 for x in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(o.c):
                break
            f = r[-1] / o.c[-1]
            shift = len(r) - len(o.c)
            q[shift] += f
            for i, b in enumerate(o.c):
                r[shift + i] -= f * b
        return Poly(q), Poly(r)

    def gcd(self, o: "Poly") -> "Poly":
        a, b = self, o
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.scale(ONE / a.c[-1])

    def squarefree_part(self) -> "Poly":
        if self.degree < 1:
            return self
        g = self.gcd(self.derivative())
        return self.divmod(g)[0]

    def is_squarefree(self) -> bool:
        return self.degree < 1 or self.gcd(self.derivative()).degree == 0

    def integer_factors(self) -> tuple[int, list[tuple[list[int], int]]]:
        """The factorization over Z of the integer polynomial d p, d the
        least common denominator of the coefficients: sympy's ``factor_list``.

        Returns the sign of the leading coefficient and the irreducible
        factors with their multiplicities, each factor as its integer
        coefficients (highest first), primitive with a positive leading
        coefficient, in sympy's order (``_sort_factors``: by length, then
        multiplicity, then coefficients).  A power of z is split off first.
        A primitive part square-free modulo a small prime is square-free;
        otherwise Yun's algorithm over Q splits it into square-free parts.
        Each part is factored by `intpoly.factor_squarefree`.
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        low = next(i for i, a in enumerate(self.c) if a)
        ic = over_common_denominator(reversed(self.c[low:]))[1]
        sign = 1 if ic[0] > 0 else -1
        content = sign * gcd(*ic)
        factors = [(g, m) for part, m in squarefree_parts([a // content for a in ic])
                   for g in factor_squarefree(part)]
        if low:
            factors.append(([1, 0], low))
        return sign, sorted(factors, key=lambda fm: (len(fm[0]), fm[1], fm[0]))

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, in increasing order.

        They are read off the linear factors of the integer polynomial
        (`integer_factors`), which takes no divisor enumeration of the
        constant term.
        """
        return linear_roots(self.integer_factors()[1])


def linear_roots(factors: list[tuple[list[int], int]]) -> list[tuple[Fraction, int]]:
    """The roots of the linear factors among (coefficients, multiplicity)
    pairs (`Poly.integer_factors`), with multiplicities, in increasing order."""
    return sorted((Fraction(-f[1], f[0]), m) for f, m in factors if len(f) == 2)
