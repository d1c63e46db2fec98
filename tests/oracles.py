"""Exact oracles for the tests: definitions no `hfb` job runs, against which
the tests check the code that the jobs do run.

- `mat_is_zero` and `mat_commutator` on matrices, and `check_invariance`
  and `perp_subspace`: Lie-algebra identities in the defining
  representation;
- `ad_matrix` and `ad_matrices`: ad(X) on basis coordinates in Fractions,
  column a the coordinates of the bracket [X, B_a], against which the
  integer ad tensor of `liealg.AlgebraModel` is checked;
- `PolyObservable`, the symbolic polynomials in the residue entries
  (`coordinate`, `site_matrix`) or in the algebra coordinates
  (`algebra_site_matrix`), and `coefficient_polys`, the Hitchin coefficients
  as such polynomials, combined from the invariants of the symbolic
  theta(t) (`theta_at`) at the oracle's own sample points (`sample_points`)
  by `sampled_inverse`;
- `sigma_gradient_at` and `bracket_at`: the product Lie-Poisson bracket of
  two polynomial observables at a point, from their exact sigma-gradients at
  each site, against which the gradient programs, and the brackets the
  bracket check computes from them, are checked;
- `gradient_function`: the statements of a `gaudin.GradientProgram` as a
  function, run exactly or in floats;
- `cup_matrix_by_entries`: the cup-product pairing matrix of
  `deformation._cup_matrix`, each entry its own sum over one sparse vector;
- `d1_kernel_by_elimination`: ker d1 of a cone by one `Staircase.kernel` of
  d1's integer rows, against which the read-off off the shape's chart
  echelon (`exactlinalg.BlockEchelon.kernel`) is checked;
- `NegatedAdjointTheory`: the negative control of `verify_poisson_map`;
- `fraction_residue_tuple`: the residue sampler of `sampling` in Fraction
  matrices, making the same rng calls (`random_fraction`);
- `randint_draw`: `sampling._draw` through ``rng.randint``, against which
  its direct reads of ``rng.getrandbits`` are checked;
- `lmq_upper_bound`, `lmq_lower_bound_int` and `step_refine_real_root`:
  sympy 1.14's ``dup_root_upper_bound``, ``dup_root_lower_bound`` and
  ``dup_step_refine_real_root`` as sympy writes them (the lower bound through
  the reversed polynomial, a general Taylor shift by 1), against which the
  one-pass bound and step of `intpoly` are checked;
- `jsonable` and `json_report_text`: the report as JSON through
  ``json.dumps(indent=2)``, against which `cli`'s one-pass writer is checked;
- `VSection`: a vector-valued section in partial-fraction form, with its own
  closed forms of the Laurent expansion at x_i, the expansion at infinity
  and multiplication by 1/(z - x_i), and `from_layout` and `to_layout`
  between it and the coordinates of a window's layout, against which
  `rationalfn.laurent_row`, `infinity_row`, `scalar_columns` and the
  `rationalfn.VSection` view are checked.
"""

import json
import math
import random
from fractions import Fraction
from functools import cache
from math import comb
from typing import Sequence

from framedhiggs.curve import Layout
from framedhiggs.deformation import DeformationTheory, _apply
from framedhiggs.exactlinalg import (ONE, ZERO, Staircase, Vec, frac, inverse, mat_comb, mat_mul,
                                     mat_vec, sparse, vec_is_zero, zeros)
from framedhiggs.intpoly import _reverse, _shift, _sign_variations
from framedhiggs.liealg import (AlgebraElement, bracket, mat_trace, matrix_invariant,
                                perp_coordinates, to_matrix)
from framedhiggs.rationalfn import RatContext, Window


def mat_is_zero(a):
    return all(x == 0 for row in a for x in row)


def mat_commutator(a, b):
    """ab - ba, for matrices of Fractions or of polynomial observables."""
    return mat_comb([ONE, -ONE], [mat_mul(a, b), mat_mul(b, a)])


def check_invariance(form, a, b, c):
    """Invariance residual sigma([a,c], b) + sigma(c, [a,b]); zero for valid forms."""
    return form(bracket(a, c), b) + form(c, bracket(a, b))


def perp_subspace(form, subspace, model):
    """Basis of the annihilator, the elements of `liealg.perp_coordinates`."""
    return [model.from_coords(c) for c in perp_coordinates(form, subspace, model)]


def ad_matrix(algebra, el):
    """ad(el) on basis coordinates as a Fraction matrix: column a holds the
    coordinates of [el, B_a], one Fraction bracket and one solve each."""
    cols = [algebra.coords(bracket(el, AlgebraElement(b, algebra.group.group_id)))
            for b in algebra.basis]
    return [list(row) for row in zip(*cols)]


def ad_matrices(model):
    """ad(A_i) of each residue of a `FramedHiggsModel`, by `ad_matrix`."""
    return [ad_matrix(model.algebra, el) for el in model.residues]


Monomial = tuple[tuple[int, int], ...]   # sorted ((var, exp), ...)


class PolyObservable:
    """Sparse multivariate polynomial with exact rational coefficients.

    Variables index the entries of the residue matrices in the layout of
    `coordinate`, or the algebra coordinates of `algebra_site_matrix`.  A
    rational scalar acts as a constant polynomial in +, - and *, so that the
    matrix routines of `exactlinalg` and `liealg` serve observables as well
    as Fractions.
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



def coordinate(system, site, a, b):
    """The entry (a, b) of residue site as a variable: site s^2 + a s + b."""
    return PolyObservable.variable(site * system.s * system.s + a * system.s + b)


def site_matrix(system, site):
    return [[coordinate(system, site, a, b) for b in range(system.s)] for a in range(system.s)]


def algebra_site_matrix(system, site):
    """sum_a xi_a B_a over the basis B_a of the algebra, xi_a the variable
    site dim + a."""
    basis, dim = system.model.basis, len(system.model.basis)
    return mat_comb([PolyObservable.variable(site * dim + a) for a in range(dim)], basis)


def theta_at(points, matrices, t):
    """theta(t) = sum_i M_i / (t - x_i), of Fractions or of polynomial observables."""
    return mat_comb([ONE / (t - x) for x in points], matrices)


def sample_points(system, k=None):
    """The n d_k sample points t_l = max(x) + l, l = 1, 2, ..., of degree
    index k, by default those of the largest degree, which every degree
    index's start: enough values to fix a function sum_(i, j <= d_k) c_(i,j)
    (z - x_i)^(-j)."""
    d = max(system.group.degrees) if k is None else system.group.degrees[k]
    return [max(system.points) + l for l in range(1, system.n * d + 1)]


def coefficient_columns(system, k):
    """The coefficients (i, j), j <= d_k, of degree index k in the order of
    `GaudinSystem.coefficient_functions`."""
    return [(i, j) for i in range(system.n) for j in range(1, system.group.degrees[k] + 1)]


def sampled_inverse(system, k):
    """`exactlinalg.inverse` of V[l][(i, j)] = (t_l - x_i)^(-j) over the
    sample points t_l and coefficients (i, j) of degree index k: row (i, j)
    of its product with the values f(t_l) is the coefficient of (z -
    x_i)^(-j) in f."""
    return inverse([[ONE / (t - system.points[i]) ** j for i, j in coefficient_columns(system, k)]
                    for t in sample_points(system, k)])


def coefficient_polys(system, k, sites=site_matrix):
    """{(i, j): coefficient (k, i, j) as a polynomial}: `sampled_inverse`
    combines p_k(theta(t)) of the symbolic site matrices at k's sample points."""
    cols, ts = coefficient_columns(system, k), sample_points(system, k)
    mats = [sites(system, i) for i in range(system.n)]
    values = [matrix_invariant(theta_at(system.points, mats, t), system._indices[k]) for t in ts]
    return {col: PolyObservable.lift(c)
            for col, c in zip(cols, mat_vec(sampled_inverse(system, k), values))}


@cache
def _gram_inverse(system):
    basis = system.model.basis
    return inverse([[mat_trace(mat_mul(a, b)) for b in basis] for a in basis])


@cache
def grad_rows(system):
    """R with coords(pi(G)) = R flatten(G) for the trace-dual gradient G
    (tr(G V) = D_V f): R = Gram^-1 T, Gram[a][b] = tr(B_a B_b), T_a =
    flatten(B_a^T)."""
    basis = system.model.basis
    t = [[row[b] for b in range(system.s) for row in m] for m in basis]
    return mat_mul(_gram_inverse(system), t)


def symbolic_gradient(system, fn, site):
    """The sigma-gradient of fn at site as a matrix of polynomial observables."""
    s = system.s
    partials = [fn.diff(site * s * s + a * s + b) for b in range(s) for a in range(s)]
    coords = mat_vec(grad_rows(system), partials)
    return [[PolyObservable.lift(x) for x in row] for row in mat_comb(coords, system.model.basis)]


def sigma_gradient_at(system, fn, site, values):
    """The algebra element nabla_site fn with tr(nabla xi) = D_xi fn, for a
    polynomial observable fn of the entries (`coordinate`) at the flattened
    point values."""
    s = system.s
    flat_t = [fn.diff(site * s * s + a * s + b)(values) for b in range(s) for a in range(s)]
    return system.model.from_coords(mat_vec(grad_rows(system), flat_t))


def algebra_sigma_gradients_at(system, fn, residues):
    """The sigma-gradients at every site of a polynomial fn of the algebra
    coordinates (`algebra_site_matrix`), at a residue tuple:
    sum_b (Gram^-1 d fn / d xi)_b B_b."""
    dim = len(system.model.basis)
    values = [x for el in residues for x in system.model.coords(el)]
    return [system.model.from_coords(mat_vec(_gram_inverse(system), [
        fn.diff(site * dim + a)(values) for a in range(dim)])) for site in range(system.n)]


def gradient_function(program, nvars, number=Fraction):
    """The statements of a `GradientProgram` as the function x0, x1, ... ->
    [g0, g1, ...], its constants converted by number."""
    namespace = {name: number(c) for name, c in program.constants.items()}
    xs = ", ".join(f"x{v}" for v in range(nvars))
    body = [*program.lines, "return [" + ", ".join(f"g{v}" for v in range(nvars)) + "]"]
    exec(f"def gradient({xs}):\n" + "\n".join(" " + line for line in body), namespace)
    return namespace["gradient"]


def bracket_at(system, f, g, residues):
    """{f, g} = sum_i tr(A_i [nabla_i f, nabla_i g]) at the given residue tuple."""
    values = system.flatten_point(residues)
    acc = ZERO
    for i, el in enumerate(residues):
        df = sigma_gradient_at(system, f, i, values)
        dg = sigma_gradient_at(system, g, i, values)
        acc += mat_trace(mat_mul(el.matrix, mat_commutator(df.matrix, dg.matrix)))
    return acc


def cup_matrix_by_entries(model, window, left, right):
    """`deformation._cup_matrix` entry by entry: <a, b> = B(u0_a, c_b) -
    B(u1_b, c_a), each pairing a sum over the entries of one sparse vector."""
    def dot(u, w):
        return sum(x * w[k] for k, x in u.items() if k in w)

    fden, table = model.pairing_form(window)
    (lden, lefts), (rden, rights) = left, right
    b_left = [_apply(table, c) for c, _, _ in lefts]
    b_right = [_apply(table, c) for c, _, _ in rights]
    return fden * lden * rden, tuple(
        tuple(dot(u0_a, bc_b) - dot(u1_b, bc_a) for (_, _, u1_b), bc_b in zip(rights, b_right))
        for (_, u0_a, _), bc_a in zip(lefts, b_left))


def d1_kernel_by_elimination(model, spec, window) -> Staircase:
    """ker d1 of the cone with F1 = spec and c in the layout of `window`:
    d1(c, u0, u1) = (u1 - u0) - [theta, c] in T^2 coordinates, with u0 and
    u1 in the F1 chart bases of the pole-bumped window, as integer rows over
    the one denominator of the three blocks, eliminated whole."""
    bumped = Window(window.pole + 1, window.degree)
    u0, u1 = (model.chart_basis(spec, bumped, chart) for chart in (0, 1))
    tden, theta = model.theta_columns(window)
    den = math.lcm(u0.den, u1.den, tden)
    rows = [{} for _ in range(Layout(model.context, bumped).dim)]
    j = 0
    for f, cols in ((-den // u0.den, u0.scaled), (den // u1.den, u1.scaled),
                    (-den // tden, theta)):
        for col in cols:
            for r, x in col.items():
                rows[r][j] = f * x
            j += 1
    return Staircase.kernel(rows, j)


class NegatedAdjointTheory(DeformationTheory):
    """A theory whose forgetful adjoint is negated: `verify_poisson_map` must
    then fail wherever the anchor is nonzero, since F φ^{-1} (-A) - P = -2P."""

    def forgetful_adjoint_matrix(self):
        den, adj = super().forgetful_adjoint_matrix()
        return den, tuple(tuple(-x for x in row) for row in adj)


def random_fraction(rng: random.Random, height: int = 10) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def randint_draw(rng: random.Random, count: int, height: int) -> tuple[int, list[int]]:
    """count fractions p / q from rng.randint(-height, height) and then
    rng.randint(1, height) each, as their integer numerators over the lcm of
    the q."""
    pairs = [(rng.randint(-height, height), rng.randint(1, height)) for _ in range(count)]
    den = math.lcm(*(q for _, q in pairs))
    return den, [p * (den // q) for p, q in pairs]


def _fraction_element(model, coords) -> AlgebraElement:
    """sum_j coords[j] basis[j] as a Fraction matrix."""
    return AlgebraElement(to_matrix(mat_comb(coords, model.basis)), model.group.group_id)


def fraction_algebra_element(model, rng: random.Random, height: int = 10,
                             subspace=None) -> AlgebraElement:
    """A random element from Fraction coordinates, or from one Fraction
    coefficient per vector of subspace summed in Fraction coordinates."""
    if subspace is None:
        return _fraction_element(model, [random_fraction(rng, height) for _ in model.basis])
    acc = [ZERO] * len(model.basis)
    for vec in subspace:
        c = random_fraction(rng, height)
        acc = [a + c * v for a, v in zip(acc, vec)]
    return _fraction_element(model, acc)


def fraction_residue_tuple(model, rng: random.Random, n: int, height: int = 10,
                           subspaces=None, zero_sum: bool = True) -> list[AlgebraElement]:
    """`sampling.random_residue_tuple` in Fraction matrices: n random
    residues, the last the negated Fraction sum of the others when zero_sum."""
    count = n - 1 if zero_sum else n
    out = [fraction_algebra_element(model, rng, height,
                                    None if subspaces is None else subspaces[i])
           for i in range(count)]
    if zero_sum:
        size = model.n
        total = mat_comb([ONE] * len(out), [el.matrix for el in out]) if out else \
            [[ZERO] * size for _ in range(size)]
        out.append(AlgebraElement(to_matrix([[-x for x in row] for row in total]),
                                  model.group.group_id))
    return out


def lmq_upper_bound(f: list[int]) -> int | None:
    """e with 2^e the LMQ bound on the positive roots (``dup_root_upper_bound``),
    or None when there is none."""
    n, P = len(f), []
    t = n * [1]
    if f[0] < 0:
        f = [-a for a in f]
    f = f[::-1]
    logs = [int(math.log(a, 2)) if a > 0 else None for a in f]
    for i in range(0, n):
        if f[i] >= 0:
            continue
        a, QL = int(math.log(-f[i], 2)), []
        for j in range(i + 1, n):
            if f[j] <= 0:
                continue
            q = t[j] + a - logs[j]
            QL.append([q // (j - i), j])
        if not QL:
            continue
        q = min(QL)
        t[q[1]] = t[q[1]] + 1
        P.append(q[0])
    if not P:
        return None
    return max(P) + 1


def lmq_lower_bound_int(f: list[int]) -> int:
    """``K(int(dup_root_lower_bound(f)))``: int(1 / 2^e) for the LMQ bound
    2^e of x^n f(1/x), 0 when there is none."""
    e = lmq_upper_bound(_reverse(f))
    return 0 if e is None or e > 0 else 1 << -e


def step_refine_real_root(f: list[int], M: tuple) -> tuple[list[int], tuple]:
    """One step of positive real root refinement (``dup_step_refine_real_root``)."""
    a, b, c, d = M
    if a == b and c == d:
        return f, (a, b, c, d)
    A = lmq_lower_bound_int(f)
    if A >= 1:
        f = _shift(f, A)
        b, d = A * a + b, A * c + d
        if not f[-1]:
            return f, (b, b, d, d)
    f, g = _shift(f, 1), f
    a1, b1, c1, d1 = a, a + b, c, c + d
    if not f[-1]:
        return f, (b1, b1, d1, d1)
    k = _sign_variations(f)
    if k == 1:
        a, b, c, d = a1, b1, c1, d1
    else:
        f = _shift(_reverse(g), 1)
        if not f[-1]:
            f = f[:-1]
        a, b, c, d = b, a + b, d, c + d
    return f, (a, b, c, d)


def jsonable(x):
    """The report value as plain JSON values: a Fraction as "p/q" ("p" when
    q = 1), a tuple as a list, a finite float to 17 significant digits and a
    non-finite one as the string "nan", "inf" or "-inf"."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float):
        return float(f"{x:.17g}") if math.isfinite(x) else str(float(x))
    return x


def json_report_text(report: dict) -> str:
    """The report as ``json.dumps(..., indent=2, sort_keys=True)`` writes it."""
    return json.dumps(jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_scale(a, c):
    return [c * x for x in a]


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


def from_layout(ctx: RatContext, window: Window, coords) -> VSection:
    """The partial-fraction section with these dense or sparse coordinates in
    the layout of `window`: coordinate (P i + j - 1) m + a is entry a of the
    (z - x_i)^-j part and (P n + l) m + a entry a of the z^l part, P the
    window's pole bound."""
    m, pole = ctx.m, window.pole
    coords = sparse(coords)

    def get(k):
        return [coords.get(k * m + a, ZERO) for a in range(m)]
    pp = {i: {j: get(i * pole + j - 1) for j in range(1, pole + 1)} for i in range(ctx.n)}
    poly = [get(ctx.n * pole + l) for l in range(window.degree + 1)]
    return VSection(ctx, poly=poly, pp=pp)


def to_layout(s: VSection, window: Window) -> dict:
    """The sparse coordinates of a partial-fraction section in the layout of
    `window`; ValueError if it does not fit the window."""
    m, pole = s.ctx.m, window.pole
    if s.poly_degree() > window.degree:
        raise ValueError("section exceeds the polynomial window")
    out = {}
    for i, parts in s.pp.items():
        for j, v in parts.items():
            if j > pole:
                raise ValueError("section exceeds the pole window")
            out.update(((i * pole + j - 1) * m + a, x) for a, x in enumerate(v) if x)
    for l, v in enumerate(s.poly):
        out.update(((s.ctx.n * pole + l) * m + a, x) for a, x in enumerate(v) if x)
    return out
