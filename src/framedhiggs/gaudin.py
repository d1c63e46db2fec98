"""The Hitchin map on residue data and the product Lie-Poisson bracket.

Residue tuples (A_1, ..., A_n) with sum zero describe the Higgs field
theta(z) = sum_i A_i dz/(z - x_i) on the trivialized rational curve.  The
partial-fraction coefficients of the invariants p_k(theta(z)) come from the
integer forward differences of their values at sample points t one apart
(`GaudinSystem._partial_fractions`); the Poisson structure is the product
Lie-Poisson bracket transported by the trace form.  At each t, with theta(t)
= M / D, the invariants and their gradients come from one integer
Faddeev-LeVerrier run on M, and the bracket table is formed in that basis of
sample points (`commutativity_check`), with no per-site gradient; no bracket
of two arbitrary observables is formed at a point.  Only the flow integrator
uses floats; it builds its Hamiltonian's coefficients only, and its drift
values are exact values rounded once.
"""

from __future__ import annotations

import math
from collections import UserList
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from functools import cached_property
from itertools import accumulate, combinations_with_replacement
from typing import Callable, NamedTuple, Sequence

from .exactlinalg import (ZERO, ONE, frac, identity, integer_solve, mat_comb, mat_vec,
                          over_common_denominator, transpose)
from .liealg import (PFAFFIAN, AlgebraElement, AlgebraModel, flatten, generator_indices,
                     matrix_invariant, pfaffian, theta_at, theta_char_polys)

Monomial = tuple[tuple[int, int], ...]   # sorted ((var, exp), ...)


class PolyObservable:
    """Sparse multivariate polynomial with exact rational coefficients.

    Variables index the entries of the residue matrices; the site layout is
    owned by the ambient GaudinSystem.  A rational scalar acts as a constant
    polynomial in +, - and *, so that the matrix routines of `exactlinalg`
    and `liealg` serve observables as well as Fractions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def constant(cls, c) -> "PolyObservable":
        c = frac(c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, idx: int) -> "PolyObservable":
        return cls({((idx, 1),): ONE})

    @classmethod
    def lift(cls, x) -> "PolyObservable":
        """x itself, or the constant polynomial of a scalar x."""
        return x if isinstance(x, PolyObservable) else cls.constant(x)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, o) -> "PolyObservable":
        out = dict(self.terms)
        for m, c in PolyObservable.lift(o).terms.items():
            out[m] = out.get(m, ZERO) + c
        return PolyObservable(out)

    def __radd__(self, o) -> "PolyObservable":
        return PolyObservable.lift(o) + self

    def __neg__(self) -> "PolyObservable":
        return self.scale(-ONE)

    def __sub__(self, o) -> "PolyObservable":
        return self + -o

    def __rsub__(self, o) -> "PolyObservable":
        return o + -self

    def scale(self, c) -> "PolyObservable":
        c = frac(c)
        return PolyObservable({m: c * x for m, x in self.terms.items()})

    def __mul__(self, o) -> "PolyObservable":
        if not isinstance(o, PolyObservable):
            return self.scale(o)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                vars_: dict[int, int] = dict(m1)
                for v, e in m2:
                    vars_[v] = vars_.get(v, 0) + e
                key = tuple(sorted(vars_.items()))
                out[key] = out.get(key, ZERO) + c1 * c2
        return PolyObservable(out)

    __rmul__ = __mul__

    def diff(self, var: int) -> "PolyObservable":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == var:
                    rest = m[:i] + ((v, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                    out[rest] = out.get(rest, ZERO) + c * e
                    break
        return PolyObservable(out)

    def __call__(self, values: Sequence[Fraction]) -> Fraction:
        acc = ZERO
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                term *= values[v] ** e
            acc += term
        return acc


# Terms per statement of a generated sum: CPython's compiler recurses once per
# chained +, and raises RecursionError at about 3,000 of them.
_TERMS_PER_LINE = 256


def _pow(x: float, e: int) -> float:
    """x ** e, with an overflow as the signed infinity it rounds to."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


def _float(x: Fraction) -> float:
    """x rounded to a float, a value beyond the float range to the signed infinity."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _poly_lines(polys: Sequence[PolyObservable], name: str) -> list[str]:
    """Statements that set the locals name0, name1, ... to the float values of
    polys at the locals x0, x1, ...

    Each value is its terms summed from 0.0 in the order of the terms dict,
    each term c * x_v1 ** e1 * ... taken left to right with c the float of
    the coefficient.  The powers x ** e, e > 1, are computed once, first.  A
    long sum is continued in further statements name = name + ..., which
    adds in the same order.
    """
    powers: dict[tuple[int, int], str] = {}
    sums = []
    for q, p in enumerate(polys):
        terms = [" * ".join([repr(float(c))] + [
                     f"x{v}" if e == 1 else powers.setdefault((v, e), f"p{len(powers)}")
                     for v, e in m])
                 for m, c in p.terms.items()]
        head = "0.0"
        for i in range(0, max(len(terms), 1), _TERMS_PER_LINE):
            sums.append(f"{name}{q} = " + " + ".join([head] + terms[i:i + _TERMS_PER_LINE]))
            head = f"{name}{q}"
    return [f"{p} = _pow(x{v}, {e})" for (v, e), p in powers.items()] + sums


def _flow_program(s: int, gradient: Sequence[PolyObservable]) -> dict:
    """The RK4 flow of `GaudinSystem.integrate_flow`, compiled from generated
    Python source.

    The state is one float per entry of the site matrices, row-major site
    after site, and gradient lists the gradient's entries in the same
    layout.  Returns a namespace with the functions
    - rhs(x0, x1, ...): the entries of [A_i, G_i] = A_i G_i - G_i A_i, each
      product entry summed from 0.0 over the inner index;
    - run(steps, h, x0, x1, ...): the state after `steps` RK4 steps of h.
    """
    nvars, block = len(gradient), s * s
    xs = "".join(f"x{v}, " for v in range(nvars))

    def entry(v: int) -> str:
        site, a, b = v - v % block, v % block // s, v % s
        xg = " + ".join(["0.0"] + [f"x{site + a * s + c} * g{site + c * s + b}"
                                   for c in range(s)])
        gx = " + ".join(["0.0"] + [f"g{site + a * s + c} * x{site + c * s + b}"
                                   for c in range(s)])
        return f"({xg}) - ({gx})"

    def stage(out: str, step: str, k: str) -> str:
        return ("".join(f"{out}{v}, " for v in range(nvars)) + "= rhs("
                + "".join(f"x{v} + {step} * {k}{v}, " for v in range(nvars)) + ")")

    lines = [f"def rhs({xs}):", *_poly_lines(gradient, "g"),
             "return (" + "".join(f"{entry(v)}, " for v in range(nvars)) + ")",
             f"def run(steps, h, {xs}):",
             "half = 0.5 * h", "sixth = h / 6.0", "for _ in range(steps):",
             " " + "".join(f"a{v}, " for v in range(nvars)) + f"= rhs({xs})",
             " " + stage("b", "half", "a"), " " + stage("c", "half", "b"),
             " " + stage("d", "h", "c"),
             *(f" x{v} = x{v} + sixth * (((a{v} + 2.0 * b{v}) + 2.0 * c{v}) + d{v})"
               for v in range(nvars)),
             f"return ({xs})"]
    source = "\n".join(line if line.startswith("def ") else " " + line for line in lines)
    program: dict = {"_pow": _pow}
    exec(compile(source, "<gaudin flow>", "exec"), program)
    return program


def _flat_commutator(a: list[int], b: list[int], s: int) -> list[int]:
    """[a, b] of two row-major flattened s x s matrices, flattened."""
    rows_a = [a[i * s:(i + 1) * s] for i in range(s)]
    rows_b = [b[i * s:(i + 1) * s] for i in range(s)]
    cols_a = [a[j::s] for j in range(s)]
    cols_b = [b[j::s] for j in range(s)]
    return [sum(map(mul, ra, cb)) - sum(map(mul, rb, ca))
            for ra, rb in zip(rows_a, rows_b) for cb, ca in zip(cols_b, cols_a)]


def _trace(a: Sequence, b: Sequence, s: int):
    """tr(a b) of two row-major flattened s x s matrices."""
    return sum(a[i * s + j] * b[j * s + i] for i in range(s) for j in range(s))


def _drift_key(d: float) -> tuple[bool, float]:
    """Orders drifts with NaN above every number."""
    return math.isnan(d), d


def worst_drift(report: Sequence[dict]) -> float:
    """The largest relative drift of a flow report; NaN if any drift is NaN."""
    return max((r["relative_drift"] for r in report), key=_drift_key, default=0.0)


@dataclass(frozen=True)
class HitchinPoint:
    """Partial-fraction coefficients of the invariant polynomials of theta.

    coeffs[k][(i, j)] is the coefficient of (z - x_i)^(-j) in p_k(theta(z)),
    in the basis dual to the standard partial-fraction frame of pluri-forms
    with poles bounded by d_k D.  Normalization: trace form on the defining
    representation.
    """
    group_id: str
    degrees: tuple[int, ...]
    coeffs: tuple[dict[tuple[int, int], Fraction], ...]


class SampleGradients(NamedTuple):
    """Sigma-gradients of the partial-fraction coefficients of a function f
    of theta(z) in the sample-point basis, over the first len(grads) sample
    points t_l of the system: coefficient keys[a] is sum_l vinv[a][l]
    f(theta(t_l)), and grads[l] = (d, y) is the projected gradient pi(grad
    f)(theta(t_l)) as y / d, y its row-major numerators."""
    keys: list
    vinv: Sequence[list[Fraction]]
    grads: list[tuple[int, list[int]]]


@dataclass(eq=False)
class _Rows(UserList):
    """A matrix whose rows build() makes when they are first read."""
    build: Callable[[], list]
    data = cached_property(lambda self: self.build())


class GaudinSystem:
    """Residue-tuple phase space for a classical group and marked points."""

    def __init__(self, model: AlgebraModel, points: Sequence[Fraction]):
        self.model = model
        self.points = tuple(frac(p) for p in points)
        if len(set(self.points)) != len(self.points) or any(p == 0 for p in self.points):
            raise ValueError("marked points must be distinct, finite and nonzero")
        self.n = len(self.points)
        self.s = model.n
        self.group = model.group
        # projection: coords(pi(Y)) = R flatten(Y^T), G R = T for G[a][b] = tr(B_a B_b),
        # T_a = flatten(B_a^T); R = c X for b_a = c B_a integers, and P = sum_a b_a X_a.
        s = self.s
        c, flat = over_common_denominator(x for b in model.basis for x in flatten(b))
        basis = [flat[q:q + s * s] for q in range(0, len(flat), s * s)]
        den, x = integer_solve([[_trace(a, b, s) for b in basis] for a in basis],
                               [[v for i in range(s) for v in a[i::s]] for a in basis])
        self._grad_scale, self._grad_ints = Fraction(c, den), x
        self._projection = (den, [[sum(map(mul, bcol, xcol)) for xcol in zip(*x)]
                                  for bcol in zip(*basis)])
        self._indices = generator_indices(self.group)
        # integer points as ints, so that the Horner pass runs in integers
        self._xs = [x.numerator if x.denominator == 1 else x for x in self.points]
        # the sample points t_l = max(x) + l; degree index k uses the first n d_k
        self._ts = [max(self._xs) + l for l in range(1, self.n * max(self.group.degrees) + 1)]
        self._chars: tuple = (None, None)   # (flattened tuple, its char polys), the last read
        self._interp_cache: dict[int, tuple] = {}

    @cached_property
    def _grad_rows(self) -> list[list[Fraction]]:   # R, for the flow's symbolic gradient
        return [[self._grad_scale * y for y in row] for row in self._grad_ints]

    # -- variable layout ------------------------------------------------------

    def var(self, site: int, a: int, b: int) -> int:
        return site * self.s * self.s + a * self.s + b

    def coordinate(self, site: int, a: int, b: int) -> PolyObservable:
        return PolyObservable.variable(self.var(site, a, b))

    def flatten_point(self, residues: Sequence[AlgebraElement]) -> list[Fraction]:
        return [x for el in residues for x in flatten(el.matrix)]

    # -- the Hitchin coefficient functions --------------------------------------

    def site_matrix(self, site: int) -> list[list[PolyObservable]]:
        return [[self.coordinate(site, a, b) for b in range(self.s)] for a in range(self.s)]

    def _interp_data(self, k: int):
        """(cols, ts, vinv) for degree index k, N = n d_k: the coefficients (i,
        j) of (z - x_i)^(-j), j <= d_k, the first N sample points t_l, and
        vinv = V^-1 for V[l][(i, j)] = (t_l - x_i)^(-j), built from
        `_partial_fractions` of unit vectors when first read; the cache also
        keeps what `_partial_fractions` reads."""
        if k not in self._interp_cache:
            d = self.group.degrees[k]
            cols = [(i, j) for i in range(self.n) for j in range(1, d + 1)]
            xs, ts = self._xs, self._ts[:len(cols)]
            sites = []
            for x in xs:
                g, gden = [1] + [0] * (d - 1), math.factorial(len(ts) - 1)
                for c in (x - y for y in xs if y != x):   # g <- g c^(2d-1) / (c + w)^d
                    gden *= c ** (2 * d - 1)
                    term = [(-1) ** m * math.comb(d + m - 1, m) * c ** (d - 1 - m)
                            for m in range(d)]
                    g = [sum(g[r] * term[m - r] for r in range(m + 1)) for m in range(d)]
                sites.append(([x - t for t in reversed(ts[:-1])], g, gden))
            vinv = _Rows(lambda: transpose([self._partial_fractions(k, unit)[1]
                                            for unit in identity(len(ts))]))
            weights = [math.prod((t - x) ** d for x in xs) for t in ts]
            self._interp_cache[k] = (cols, ts, vinv, d, sites, weights)
        return self._interp_cache[k][:3]

    def _partial_fractions(self, k: int, values: Sequence[Fraction]) -> tuple[list, list]:
        """(diffs, c) for the values at the sample points t_l of degree index k
        of f = sum c_(i,j) (z - x_i)^(-j): c = vinv values, and the differences
        D^m y_1 (m < N) of y_l = f(t_l) prod_i (t_l - x_i)^d times den (N-1)! / m!,
        den making them integers.  P = sum_m D^m y_1 binom(z - t_1, m) = f prod_i
        (z - x_i)^d, so f ~ z^(-o) at infinity when D^(N-o) y_1 is the top nonzero
        one.  A Horner pass in w = z - x_i gives Q = (N-1)! den P(x_i + w) below
        w^d, and c_(i,j) = (Q g)[d-j] / (den gden) with g / gden the series of
        1 / prod_(l != i) (x_i - x_l + w)^d."""
        self._interp_data(k)
        d, sites, weights = self._interp_cache[k][3:]
        den, ys = over_common_denominator(v * w for v, w in zip(values, weights))
        big, diffs = len(ys) - 1, []
        for m in range(big + 1):
            diffs.append(math.perm(big, big - m) * ys[0])   # (N-1)! / m! D^m y_1
            ys = [b - a for a, b in zip(ys, ys[1:])]
        coeffs = []
        for shifts, g, gden in sites:
            q = [diffs[-1]] + [0] * (d - 1)
            for c, a in zip(shifts, reversed(diffs[:-1])):   # q <- q (w + c) + a
                q = [c * u + v for u, v in zip(q, [0] + q[:-1])]
                q[0] += a
            coeffs += [Fraction(sum(map(mul, q, reversed(g[:d + 1 - j]))), den * gden)
                       for j in range(1, d + 1)]
        return diffs, coeffs

    def coefficient_functions(self, k: int) -> dict[tuple[int, int], PolyObservable]:
        """The partial-fraction coefficients (i, j) of p_k(theta(z)) as
        polynomials in the residue entries, for degree index k only: vinv
        combines the symbolic p_k(theta(t)) at k's sample points t
        (`matrix_invariant`).  Nothing is cached."""
        cols, ts, vinv = self._interp_data(k)
        sites = [self.site_matrix(i) for i in range(self.n)]
        values = [matrix_invariant(theta_at(self.points, sites, t), self._indices[k]) for t in ts]
        return {col: PolyObservable.lift(c) for col, c in zip(cols, mat_vec(vinv, values))}

    def _char_polys_at(self, residues: Sequence[AlgebraElement]) -> list[tuple]:
        """`theta_char_polys` of a residue tuple at the sample points, kept for
        the last tuple read, so that its Hitchin point, gradients and bracket
        table share one run."""
        point = self.flatten_point(residues)
        if self._chars[0] != point:
            self._chars = point, theta_char_polys(self.points, [el.matrix for el in residues],
                                                  self._ts)
        return self._chars[1]

    def _expansions(self, chars: Sequence[tuple]) -> list[tuple[list, list]]:
        """`_partial_fractions` of p_k(theta(t)), per degree index k, from the
        `theta_char_polys` output chars: e_m(theta(t)) = e_m(M) / D^m."""
        s, out = self.s, []
        for k, index in enumerate(self._indices):
            ts = self._interp_data(k)[1]
            # the Pfaffian is Pf(Q M) / D^(s/2), and Q M is M upside down
            values = [Fraction(es[index - 1], den ** index) if index != PFAFFIAN else
                      Fraction(pfaffian([m[a:a + s] for a in range(s * s - s, -1, -s)]),
                               den ** (s // 2)) for den, m, es, _ in chars[:len(ts)]]
            out.append(self._partial_fractions(k, values))
        return out

    def hitchin_point(self, residues: Sequence[AlgebraElement]) -> HitchinPoint:
        """Evaluate the map at a residue tuple; requires sum A_i = 0.

        The invariants at the sample points are read off the integer
        characteristic polynomials of theta(t) (`_char_polys_at`), and
        `_expansions` expands them.  Verifies holomorphy at infinity:
        p_k(theta) vanishes to order 2 d_k iff the top 2 d_k - 1 differences do.
        """
        if not sum(residues[1:], residues[0]).is_zero():
            raise ValueError("sum of residues must vanish (holomorphy at infinity)")
        coeffs = []
        for k, (diffs, solved) in enumerate(self._expansions(self._char_polys_at(residues))):
            d = self.group.degrees[k]
            for order, a in enumerate(reversed(diffs[1 - 2 * d:]), start=1):
                if a:
                    raise AssertionError(
                        f"holomorphy at infinity fails at order {order} for degree {d}")
            coeffs.append({key: v for key, v in zip(self._interp_data(k)[0], solved) if v != 0})
        return HitchinPoint(self.group.group_id, self.group.degrees, tuple(coeffs))

    # -- Lie-Poisson structure ---------------------------------------------------

    def _symbolic_gradient(self, fn: PolyObservable, site: int) -> list[list[PolyObservable]]:
        partials = [fn.diff(self.var(site, a, b)) for b in range(self.s) for a in range(self.s)]
        coords = mat_vec(self._grad_rows, partials)
        return [[PolyObservable.lift(x) for x in row]
                for row in mat_comb(coords, self.model.basis)]

    @cached_property
    def _pfaffian_gradient(self) -> list[PolyObservable]:
        """Flattened G(X) with tr(G(X) V) = D_V Pf(Q X), X the variables of site
        0; G is homogeneous, so G(theta(t)) = G(M) / D^(r-1) for so(2r)."""
        pf = matrix_invariant(self.site_matrix(0), PFAFFIAN)
        return [pf.diff(self.var(0, a, b)) for b in range(self.s) for a in range(self.s)]

    def coefficient_gradients_at(self, residues: Sequence[AlgebraElement]
                                 ) -> list[SampleGradients]:
        """The gradients of every invariant coefficient at a point in the
        sample-point basis, one SampleGradients per degree index k with
        Y_t = pi(grad p_k(theta(t))).

        Coefficient (k, i, j) is sum_t vinv[row][t] p_k(theta(t)), so its
        gradient at site l would be sum_t vinv[row][t] Y_t / (t - x_l); no
        site gradient is formed.  At theta(t) = M / D the gradient of e_m is
        P_(m-1)(theta(t)) = Q_(m-1) / D^(m-1), Q_(m-1) an integer
        Faddeev-LeVerrier matrix of M (`theta_char_polys`), and that of the
        Pfaffian is G(M) / D^(r-1) (`_pfaffian_gradient`); the projection, an
        integer matrix over pden, costs s^4 integer products per k and t.
        """
        out, chars = [], self._char_polys_at(residues)
        pden, prows = self._projection
        for k, index in enumerate(self._indices):
            cols, ts, vinv = self._interp_data(k)
            grads = []
            for den, m, _, qs in chars[:len(ts)]:
                if index == PFAFFIAN:
                    power, g = self.s // 2 - 1, [int(p(m)) for p in self._pfaffian_gradient]
                else:
                    power, g = index - 1, qs[index - 1]
                grads.append((den ** power * pden, [sum(map(mul, r, g)) for r in prows]))
            out.append(SampleGradients([(k, i, j) for i, j in cols], vinv, grads))
        return out

    def commutativity_check(self, residue_tuples: Sequence[Sequence[AlgebraElement]]):
        """Max |{H_a, H_b}| over all pairs of coefficient functions and points.

        The site gradients X^l_a = sum_t V[a][t] Y_t / (t - x_l) make {H_a, H_b}
        = sum_l tr(A_l [X^l_a, X^l_b]) the entry (a, b) of V C V'^T.  By the
        partial-fraction identity sum_l A_l / ((t - x_l)(t' - x_l)) = (theta(t)
        - theta(t')) / (t' - t) and tr(X [Y, Z]) = tr([X, Y] Z), C(t, t') =
        (tr(U_t Y'_t') + tr(Y_t U'_t')) / (t' - t) with U_t = [theta(t), Y_t]
        for t != t', and C(t, t) = tr(S(t) [Y_t, Y'_t]) with S(t) = sum_l A_l /
        (t - x_l)^2.  An invariant's gradient commutes with theta(t), so on a
        clean tuple these commutators all vanish: per tuple, one integer s x s
        commutator per degree index and sample point and one per pair of
        degree indices at a shared point.  Brackets are summed in Fractions
        over the nonzero entries of C and scanned in the coefficient order, so
        the first of equally large brackets is the one reported.
        """
        worst, worst_pair = ZERO, None
        for residues in residue_tuples:
            blocks = self.coefficient_gradients_at(residues)
            keys = [key for block in blocks for key in block.keys]
            for (ia, ib), val in sorted(self._bracket_table(residues, blocks).items()):
                if abs(val) > abs(worst):
                    worst, worst_pair = val, (keys[ia], keys[ib])
        return worst, worst_pair

    def _bracket_table(self, residues: Sequence[AlgebraElement],
                       blocks: Sequence[SampleGradients]) -> dict[tuple[int, int], Fraction]:
        """The nonzero brackets of `commutativity_check` by the positions a < b
        of the coefficients in the blocks, with theta(t) = M / D read as (D, M)
        off `_char_polys_at`."""
        s, mats, ts = self.s, [el.matrix for el in residues], self._ts
        theta = [(den, m) for den, m, _, _ in self._char_polys_at(residues)]
        # U_t = [M, y] / (D d) for theta(t) = M / D and Y_t = y / d; None if zero
        comm = [[(den * d, u) if any(u := _flat_commutator(m, y, s)) else None
                 for (den, m), (d, y) in zip(theta, block.grads)] for block in blocks]
        offsets = list(accumulate((len(block.keys) for block in blocks), initial=0))
        table: dict[tuple[int, int], Fraction] = {}
        for e, f in combinations_with_replacement(range(len(blocks)), 2):
            be, bf = blocks[e], blocks[f]
            c = {}   # the nonzero entries C(t_i, t_j) of the pair of blocks
            for i, ((d, y), (d2, y2)) in enumerate(zip(be.grads, bf.grads)):
                if e != f and any(z := _flat_commutator(y, y2, s)):
                    sq = flatten(mat_comb([ONE / (ts[i] - x) ** 2 for x in self.points], mats))
                    c[i, i] = _trace(sq, z, s) / (d * d2)
            if any(comm[e]) or any(comm[f]):
                for i, ((d, y), ue) in enumerate(zip(be.grads, comm[e])):
                    for j, ((d2, y2), uf) in enumerate(zip(bf.grads, comm[f])):
                        num = Fraction(_trace(ue[1], y2, s), ue[0] * d2) if ue else ZERO
                        if uf:
                            num += Fraction(_trace(y, uf[1], s), d * uf[0])
                        if num and i != j:
                            c[i, j] = num / (ts[j] - ts[i])
            for (i, j), cij in c.items():
                for a, row in enumerate(be.vinv):
                    for b, row2 in enumerate(bf.vinv):
                        if row[i] and row2[j] and (e != f or a < b):
                            key = (offsets[e] + a, offsets[f] + b)
                            table[key] = table.get(key, ZERO) + row[i] * cij * row2[j]
        return {key: val for key, val in table.items() if val}

    # -- Hamiltonian flow (floating point) ----------------------------------------

    def integrate_flow(self, residues: Sequence[AlgebraElement], hamiltonian: PolyObservable,
                       t_end: float, steps: int):
        """Fixed-step RK4 integration of dA_i/dt = [A_i, nabla_i H].

        Returns ((start, end), drift report): the site matrices A_i at 0 and
        at t_end as nested float lists, and the relative drift of every
        Hitchin coefficient along the trajectory.  The floats are those of
        the plain loop

            k1 = rhs(A), k2 = rhs(A + 0.5 * h * k1), k3 = rhs(A + 0.5 * h * k2),
            k4 = rhs(A + h * k3), A += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4),
            rhs(X) = X @ G(X) - G(X) @ X with G the gradient of H,

        in which every product and sum is taken left to right, and each
        polynomial and each entry of a matrix product is summed from 0.0
        (`_poly_lines`).  The loop is generated as straight-line Python over
        one local float per matrix entry (`_flow_program`), so no library
        kernel picks the order of an operation, and the floats are the same
        on every host.  A power x ** e that overflows is the signed infinity
        it rounds to, and every other float operation overflows silently, so
        a flow that overflows is reported through its non-finite drift.

        The drift values are every coefficient at the exact rationals of the
        float start and end states (`_expansions`), each rounded once by
        `_float`, as is each residue entry; a non-finite state has NaN values.
        """
        s, block = self.s, self.s * self.s
        gradient = [x for i in range(self.n)
                    for row in self._symbolic_gradient(hamiltonian, i) for x in row]
        start = [_float(x) for x in self.flatten_point(residues)]
        end = _flow_program(s, gradient)["run"](steps, t_end / steps, *start)
        sites = [[[list(x[r:r + s]) for r in range(i, i + block, s)]
                  for i in range(0, len(x), block)] for x in (start, end)]
        keys = [(k, i, j) for k in range(len(self._indices)) for i, j in self._interp_data(k)[0]]

        def values(flat: list[float], state: list) -> list[float]:
            if not all(map(math.isfinite, flat)):
                return [math.nan] * len(keys)
            mats = [[[Fraction(x) for x in row] for row in site] for site in state]
            chars = theta_char_polys(self.points, mats, self._ts)
            return [_float(c) for _, coeffs in self._expansions(chars) for c in coeffs]

        v0s, v1s = values(start, sites[0]), values(end, sites[1])
        scale = max(1.0, *map(abs, v0s))
        report = [{"degree_index": k, "site": i, "order": j, "start": v0, "end": v1,
                   "relative_drift": abs(v1 - v0) / max(abs(v0), 1e-3 * scale)}
                  for (k, i, j), v0, v1 in zip(keys, v0s, v1s)]
        return sites, report
