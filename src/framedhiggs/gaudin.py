"""The Hitchin map on residue data and the product Lie-Poisson bracket.

Residue tuples (A_1, ..., A_n) with sum zero describe the Higgs field
theta(z) = sum_i A_i dz/(z - x_i) on the trivialized rational curve.  The
invariant-polynomial coefficients of theta are exact polynomial functions of
the matrix entries; the chart Poisson structure is the product Lie-Poisson
bracket transported by the trace form, with gradients projected into the
algebra.  At each interpolation sample point t, the invariants of
theta(t) = M / D and their gradients come from one integer
Faddeev-LeVerrier run on M (`theta_char_polys`), so the Hitchin point and
the bracket table are computed in integers over one denominator per point;
the symbolic coefficient functions and the Pfaffian of so(2r) stay in exact
Fractions.  Brackets are exact; floating point appears only in the flow
integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .curve import Window, infinity_row
from .exactlinalg import (ZERO, ONE, frac, mat_comb, mat_mul, mat_vec,
                          over_common_denominator, sample_inverse, solve, transpose)
from .liealg import (PFAFFIAN, AlgebraElement, AlgebraModel, antidiagonal, flatten,
                     generator_indices, mat_commutator, mat_trace, matrix_invariants,
                     pfaffian, theta_at, theta_char_polys)

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

    def is_zero(self) -> bool:
        return not self.terms

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


def _term_table(members: Sequence[Sequence[PolyObservable]], nvars: int):
    """Float evaluation of a batch of polynomial lists, from one term table.

    Member b of the batch evaluates its polynomials at its own point of
    R^nvars.  The points sit one after the other in a flat buffer `ext`,
    followed by 1.0 and by the powers x ** e, e > 1, that the terms use:
    ext = [points | 1.0 | powers], of length `width`.  Term t of polynomial
    p (member-major over the batch) sits in row t + 1 of a numpy table: its
    coefficient, and per factor the slot in ext of the value it multiplies.
    Short terms are padded with the slot of 1.0, short polynomials with
    coefficient 0, and row 0 is the 0.0 the sum starts from.  A padded
    factor multiplies by 1.0, which changes no float, and a padded term adds
    0.0 to a sum that started from +0.0 and so is never -0.0, which changes
    no float either; so one member's padding leaves every bit of its values
    as in a table of its own.  Factors are multiplied and terms added in the
    order of the terms dict, so each value is the same float as the loop
    sum(c * x_v1 ** e1 * ...) from 0.0.  The powers are numpy scalar
    powers: the array power may round differently.

    Returns (evaluate, shape, width).  evaluate(ext, out) reads the points
    from ext[:len(members) * nvars], writes the powers into ext and the
    running sums of the terms into out, an array of the given shape (term
    rows, polynomials): out[-1] holds the values.
    """
    import numpy as np
    size = len(members) * nvars
    powers: dict[tuple[int, int], int] = {}
    rows = [[(float(c), [b * nvars + v if e == 1
                         else size + 1 + powers.setdefault((b * nvars + v, e), len(powers))
                         for v, e in m])
             for m, c in p.terms.items()] for b, polys in enumerate(members) for p in polys]
    nterms = 1 + max(map(len, rows), default=0)
    nfactors = max((len(f) for terms in rows for _, f in terms), default=0)
    coef = np.zeros((nterms, len(rows)))
    slots = np.full((max(nfactors, 1), nterms, len(rows)), size)
    for p, terms in enumerate(rows):
        for t, (c, factors) in enumerate(terms, start=1):
            coef[t, p] = c
            slots[:len(factors), t, p] = factors
    power_slots = np.array([v for v, _ in powers], dtype=np.intp)
    power_exps = [e for _, e in powers]
    first, *more = slots
    gathered = np.empty_like(coef)

    # The output buffers are passed by position, which numpy parses faster
    # than the out= keyword.
    def evaluate(ext: np.ndarray, out: np.ndarray) -> None:
        if power_exps:
            ext[size + 1:] = [x ** e for x, e in zip(ext[power_slots], power_exps)]
        ext.take(first, None, gathered, "clip")
        np.multiply(coef, gathered, out)
        for factor in more:
            ext.take(factor, None, gathered, "clip")
            np.multiply(out, gathered, out)
        np.add.accumulate(out, 0, None, out)
    return evaluate, coef.shape, size + 1 + len(powers)


def _term_values(table, points):
    """The values of a term table's polynomials at its members' points
    (an array of one point per member), one row per member."""
    import numpy as np
    evaluate, shape, width = table
    ext = np.ones(width)
    ext[:points.size] = points.reshape(-1)
    out = np.empty(shape)
    evaluate(ext, out)
    return out[-1].reshape(len(points), -1)


def _common_scale(blocks: Sequence[tuple[int, list[int]]]) -> tuple[int, list[list[int]]]:
    """Integer blocks (d, m), each standing for m / d, over their least common d."""
    den = math.lcm(*(d for d, _ in blocks))
    return den, [m if d == den else [x * (den // d) for x in m] for d, m in blocks]


def _flat_commutator(a: list[int], b: list[int], s: int) -> list[int]:
    """[a, b] of two row-major flattened s x s matrices, flattened."""
    rows_a = [a[i * s:(i + 1) * s] for i in range(s)]
    rows_b = [b[i * s:(i + 1) * s] for i in range(s)]
    cols_a = [a[j::s] for j in range(s)]
    cols_b = [b[j::s] for j in range(s)]
    return [sum(map(mul, ra, cb)) - sum(map(mul, rb, ca))
            for ra, rb in zip(rows_a, rows_b) for cb, ca in zip(cols_b, cols_a)]


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

    def is_zero(self) -> bool:
        return all(v == 0 for c in self.coeffs for v in c.values())


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
        # trace-orthogonal projection onto the algebra, as a map of basis
        # coordinates: coords(pi(Y)) = R @ flatten(Y^T)' with rows tr(B_j Y).
        basis = model.basis
        gram = [[mat_trace(mat_mul(a, b)) for b in basis] for a in basis]
        tmat = [flatten(transpose(b)) for b in basis]
        self._grad_rows = solve(gram, tmat)   # dim x s^2
        # The projection on flattened matrices, flatten(pi(Y)) = P flatten(Y),
        # as (d, integer rows of d P).
        proj = mat_mul(transpose([flatten(b) for b in basis]), self._grad_rows)
        pden, pflat = over_common_denominator(flatten(proj))
        self._projection = (pden, [pflat[r * len(proj):(r + 1) * len(proj)]
                                   for r in range(len(proj))])
        self._indices = generator_indices(self.group)
        self._coeff_functions: dict[int, dict[tuple[int, int], PolyObservable]] = {}
        self._interp_cache: dict[int, tuple] = {}
        self._weight_cache: dict[int, list[tuple[int, list[list[int]]]]] = {}
        self._symbolic_invariants: dict[Fraction, list[PolyObservable]] = {}

    # -- variable layout ------------------------------------------------------

    def var(self, site: int, a: int, b: int) -> int:
        return site * self.s * self.s + a * self.s + b

    def coordinate(self, site: int, a: int, b: int) -> PolyObservable:
        return PolyObservable.variable(self.var(site, a, b))

    def flatten_point(self, residues: Sequence[AlgebraElement]) -> list[Fraction]:
        vals: list[Fraction] = []
        for el in residues:
            vals.extend(flatten(el.matrix))
        return vals

    # -- the Hitchin coefficient functions --------------------------------------

    def site_matrix(self, site: int) -> list[list[PolyObservable]]:
        return [[self.coordinate(site, a, b) for b in range(self.s)] for a in range(self.s)]

    def _interp_data(self, k: int):
        """Sample points and the inverse interpolation matrix for degree index k.

        p_k(theta(z)) decays at infinity, so it is an exact combination of
        (z - x_i)^(-j), j <= d_k; coefficients are recovered from values at
        fresh sample points by solving the exact interpolation system.
        """
        if k not in self._interp_cache:
            d = self.group.degrees[k]
            cols = [(i, j) for i in range(self.n) for j in range(1, d + 1)]
            ts, vinv = sample_inverse(
                self.points, len(cols),
                lambda t: [ONE / (t - self.points[i]) ** j for (i, j) in cols])
            self._interp_cache[k] = (cols, ts, vinv)
        return self._interp_cache[k]

    def _symbolic_invariant(self, k: int, t: Fraction) -> PolyObservable:
        """p_k(theta(t)) as a polynomial in the residue entries.

        The Pfaffian of so(2r) is built on its own unless every generator at
        t is already known: it costs a small fraction of the characteristic
        polynomial that the other generators share.
        """
        if t not in self._symbolic_invariants:
            theta = theta_at(self.points, [self.site_matrix(i) for i in range(self.n)], t)
            if self._indices[k] == PFAFFIAN:
                return pfaffian(mat_mul(antidiagonal(self.s), theta))
            self._symbolic_invariants[t] = matrix_invariants(self.group, theta)
        return self._symbolic_invariants[t][k]

    def _coefficient_functions_of(self, k: int) -> dict[tuple[int, int], PolyObservable]:
        if k not in self._coeff_functions:
            cols, ts, vinv = self._interp_data(k)
            values = [self._symbolic_invariant(k, t) for t in ts]
            self._coeff_functions[k] = {col: PolyObservable.lift(c)
                                        for col, c in zip(cols, mat_vec(vinv, values))}
        return self._coeff_functions[k]

    def coefficient_functions(self) -> dict[int, dict[tuple[int, int], PolyObservable]]:
        """Symbolic partial-fraction coefficient functions of p_k(theta(z)),
        built and cached one degree index k at a time."""
        return {k: self._coefficient_functions_of(k) for k in range(len(self._indices))}

    def coefficient_function_list(self) -> list[tuple[int, int, int, PolyObservable]]:
        fns = self.coefficient_functions()
        out = []
        for k in sorted(fns):
            for (i, j) in sorted(fns[k]):
                out.append((k, i, j, fns[k][(i, j)]))
        return out

    def _char_polys_at(self, residues: Sequence[AlgebraElement]) -> dict[Fraction, tuple]:
        """`theta_char_polys` of a residue tuple by sample point.  The sample
        points of a degree index are the first ones of the longest list
        (`sample_inverse`), so that list covers every degree index."""
        ts = max((self._interp_data(k)[1] for k in range(len(self._indices))), key=len)
        return dict(zip(ts, theta_char_polys(self.points, [el.matrix for el in residues], ts)))

    def hitchin_point(self, residues: Sequence[AlgebraElement]) -> HitchinPoint:
        """Evaluate the map at a residue tuple; requires sum A_i = 0.

        At each sample point t, e_m(theta(t)) = e_m(M) / D^m is read off the
        integer characteristic polynomial of theta(t) = M / D
        (`theta_char_polys`); the Pfaffian of so(2r) is taken of theta(t)
        in Fractions.  Verifies holomorphy at infinity: p_k(theta) must
        vanish to order 2 d_k, which is checked exactly on the
        partial-fraction expansion.
        """
        total = residues[0]
        for el in residues[1:]:
            total = total + el
        if not total.is_zero():
            raise ValueError("sum of residues must vanish (holomorphy at infinity)")
        chars = self._char_polys_at(residues)
        coeffs = []
        for k, (d, index) in enumerate(zip(self.group.degrees, self._indices)):
            cols, ts, vinv = self._interp_data(k)
            if index == PFAFFIAN:
                q = antidiagonal(self.s)
                mats = [el.matrix for el in residues]
                values = [pfaffian(mat_mul(q, theta_at(self.points, mats, t))) for t in ts]
            else:
                values = [Fraction(chars[t][1][index - 1], chars[t][0] ** index) for t in ts]
            solved = mat_vec(vinv, values)
            coeffs.append({key: v for key, v in zip(cols, solved) if v != 0})
            # the coefficient of u^order at infinity (u = 1/z) is a dot product
            # with the layout of Window(d, 0), where (z - x_i)^-j sits at i d + j - 1
            layout = {i * d + j - 1: v for (i, j), v in coeffs[-1].items()}
            for order in range(1, 2 * d):
                row = infinity_row(self.points, Window(d, 0), order)
                if sum(x * layout.get(q, ZERO) for q, x in row.items()):
                    raise AssertionError(
                        f"holomorphy at infinity fails at order {order} for degree {d}")
        return HitchinPoint(self.group.group_id, self.group.degrees, tuple(coeffs))

    # -- Lie-Poisson structure ---------------------------------------------------

    def sigma_gradient_at(self, fn: PolyObservable, site: int,
                          values: Sequence[Fraction]) -> AlgebraElement:
        """The algebra element nabla_site fn with tr(nabla xi) = D_xi fn."""
        flat_t = []
        for b in range(self.s):
            for a in range(self.s):
                flat_t.append(fn.diff(self.var(site, a, b))(values))
        coords = mat_vec(self._grad_rows, flat_t)
        return self.model.from_coords(coords)

    def bracket_at(self, f: PolyObservable, g: PolyObservable,
                   residues: Sequence[AlgebraElement]) -> Fraction:
        """{f, g} = sum_i tr(A_i [nabla_i f, nabla_i g]) at the given point."""
        values = self.flatten_point(residues)
        acc = ZERO
        for i, el in enumerate(residues):
            df = self.sigma_gradient_at(f, i, values)
            dg = self.sigma_gradient_at(g, i, values)
            acc += mat_trace(mat_mul(el.matrix, mat_commutator(df.matrix, dg.matrix)))
        return acc

    def _symbolic_gradient(self, fn: PolyObservable, site: int) -> list[list[PolyObservable]]:
        partials = []
        for b in range(self.s):
            for a in range(self.s):
                partials.append(fn.diff(self.var(site, a, b)))
        coords = mat_vec(self._grad_rows, partials)
        return [[PolyObservable.lift(x) for x in row]
                for row in mat_comb(coords, self.model.basis)]

    def _site_weights(self, k: int) -> list[tuple[int, list[list[int]]]]:
        """Per site x, the matrix vinv[row][t] / (t - x) of degree index k
        as (d, integer rows of its d multiple)."""
        if k not in self._weight_cache:
            cols, ts, vinv = self._interp_data(k)
            size = len(ts)
            out = []
            for x in self.points:
                den, flat = over_common_denominator(
                    w / (t - x) for row in vinv for w, t in zip(row, ts))
                out.append((den, [flat[r * size:(r + 1) * size] for r in range(len(vinv))]))
            self._weight_cache[k] = out
        return self._weight_cache[k]

    def coefficient_gradients_at(self, residues: Sequence[AlgebraElement]):
        """Site sigma-gradients of every invariant coefficient at a point.

        Returns a list of ((degree_index, site, order), grads), where
        grads[l] = (d, m) gives the gradient at site l as m / d, m the
        row-major list of its integer numerators.  Everything is computed in
        integers: the derivative of e_m at theta(t) = M / D is
        P_(m-1)(theta(t)) = Q_(m-1) / D^(m-1), with Q_(m-1) an integer
        Faddeev-LeVerrier matrix of M (`theta_char_polys`), and the
        projection onto the algebra, an integer matrix over pden, is applied
        to it once per sample point t.  The gradients of degree index k at
        site x are then one integer product of the weights vinv[row][t] /
        (t - x) with the stacked projected matrices.  The Pfaffian component
        of so(2r) falls back to symbolic differentiation of its coefficient
        functions alone.
        """
        out = []
        chars = self._char_polys_at(residues)
        pden, prows = self._projection
        for k, index in enumerate(self._indices):
            cols, ts, vinv = self._interp_data(k)
            if index == PFAFFIAN:
                values = self.flatten_point(residues)
                for col, fn in sorted(self._coefficient_functions_of(k).items()):
                    grads = [over_common_denominator(
                                 entry(values) for row in self._symbolic_gradient(fn, l)
                                 for entry in row)
                             for l in range(self.n)]
                    out.append(((k, col[0], col[1]), grads))
                continue
            projected = []
            for t in ts:
                den, _, qs = chars[t]
                projected.append((den ** (index - 1) * pden,
                                  [sum(map(mul, r, qs[index - 1])) for r in prows]))
            qden, stacked = _common_scale(projected)
            columns = list(zip(*stacked))
            blocks = [(wden * qden, [[sum(map(mul, w, c)) for c in columns] for w in weights])
                      for wden, weights in self._site_weights(k)]
            for r, col in enumerate(cols):
                out.append(((k, col[0], col[1]), [(den, rows[r]) for den, rows in blocks]))
        return out

    def commutativity_check(self, residue_tuples: Sequence[Sequence[AlgebraElement]]):
        """Max |{H_a, H_b}| over all pairs of coefficient functions and points.

        {H_a, H_b} = sum_i tr(A_i [X_a, X_b]) = sum_i tr([A_i, X_a] X_b) for
        the site gradients X_a, X_b.  Per tuple, every flattened [A_i, X_a]
        and every flattened transpose of X_b is put over one common
        denominator, so each pair costs one integer dot product, and a
        Fraction is built only for a nonzero one.  Pairs are scanned in
        order, so the first of equally large brackets is the one reported.
        """
        worst = ZERO
        worst_pair = None
        s, n = self.s, self.n
        for residues in residue_tuples:
            data = self.coefficient_gradients_at(residues)
            aden, a_flat = over_common_denominator(
                x for el in residues for x in flatten(el.matrix))
            sites = [a_flat[i * s * s:(i + 1) * s * s] for i in range(n)]
            gden, grads = _common_scale([g for _, site_grads in data for g in site_grads])
            left, right = [], []
            for a in range(len(data)):
                commuted, transposed = [], []
                for site, g in zip(sites, grads[a * n:(a + 1) * n]):
                    commuted.extend(_flat_commutator(site, g, s))
                    transposed.extend(x for c in range(s) for x in g[c::s])
                left.append(commuted)
                right.append(transposed)
            den = aden * gden * gden
            for ia in range(len(data)):
                for ib in range(ia + 1, len(data)):
                    num = sum(map(mul, left[ia], right[ib]))
                    if num:
                        val = Fraction(num, den)
                        if abs(val) > abs(worst):
                            worst = val
                            worst_pair = (data[ia][0], data[ib][0])
        return worst, worst_pair

    # -- Hamiltonian flow (floating point) ----------------------------------------

    def integrate_flow(self, residues: Sequence[AlgebraElement], hamiltonian: PolyObservable,
                       t_end: float, steps: int):
        """Fixed-step RK4 integration of dA_i/dt = [A_i, nabla_i H].

        Returns (trajectory endpoints, drift report).  The drift report lists
        the relative drift of every Hitchin coefficient along the trajectory.
        This is `integrate_flows` on a batch of one.
        """
        return self.integrate_flows([(residues, hamiltonian)], t_end, steps)[0]

    def integrate_flows(self, flows: Sequence[tuple[Sequence[AlgebraElement], PolyObservable]],
                        t_end: float, steps: int):
        """`integrate_flow` for a batch of (residues, hamiltonian) pairs at once.

        Returns one (trajectory endpoints, drift report) per pair; each is
        bit for bit the one the pair gets on its own, and the same floats as
        the term-by-term RK4 loop

            k1 = rhs(A), k2 = rhs(A + 0.5 * h * k1), k3 = rhs(A + 0.5 * h * k2),
            k4 = rhs(A + h * k3), A += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4),
            rhs(X) = X @ G(X) - G(X) @ X with G the gradient of H,

        in which every product and sum is taken left to right.  Every float
        operation below is that loop's operation, in its order, on a leading
        batch axis, over buffers allocated once:

        - One buffer holds the gradient's running term sums and, after them,
          [x | 1.0 | powers], the flat `_term_table` input with the stage
          state x.  Its last two slots are G and x, so the stack [x, G] (a
          reversed view) times [G, x] is one matmul call whose slices are the
          products x @ G and G @ x of the loop, and k = x @ G - G @ x.
        - A stage input is (0.5 * h) * k, then state + that, as the loop
          groups 0.5 * h * k.
        - 2 * k2 and 2 * k3 are exact; accumulating the four stages in order
          gives ((k1 + 2 k2) + 2 k3) + k4, which is then multiplied by h / 6
          and added to the state.
        - Members are padded to one term table, which changes no bit
          (`_term_table`).
        """
        # Imported here: numpy is most of the package's import time, and only
        # the flow needs it.
        import numpy as np
        batch, n, s = len(flows), self.n, self.s
        nvars = n * s * s
        size = batch * nvars
        gradient, (rows, _), width = _term_table(
            [[x for i in range(n) for row in self._symbolic_gradient(hamiltonian, i)
              for x in row] for _, hamiltonian in flows], nvars)
        fns = self.coefficient_function_list()
        coefficients = _term_table([[fn for (_, _, _, fn) in fns]] * batch, nvars)

        state = np.array([[[[float(x) for x in row] for row in el.matrix] for el in residues]
                          for residues, _ in flows])  # (batch, n, s, s)
        buffer = np.empty(rows * size + width)
        buffer[(rows + 1) * size] = 1.0
        stack = buffer[:(rows + 1) * size].reshape(rows + 1, batch, n, s, s)
        sums, ext, x = stack[:rows].reshape(rows, size), buffer[rows * size:], stack[rows]
        pair = stack[rows - 1:]
        swapped = pair[::-1]   # not stack[rows:rows - 2:-1], empty when rows == 1
        products = np.empty_like(pair)
        xg, gx = products
        ks = np.empty((4,) + state.shape)   # the stages k1..k4
        k1, k2, k3, k4 = ks
        k2k3 = ks[1:3]

        # Output buffers are passed by position, as in `_term_table`.
        def rhs(out: np.ndarray) -> None:
            gradient(ext, sums)
            np.matmul(swapped, pair, products)
            np.subtract(xg, gx, out)

        # A flow that overflows is reported through its non-finite drift.
        with np.errstate(all="ignore"):
            h = t_end / steps
            stage_steps = ((k1, k2, 0.5 * h), (k2, k3, 0.5 * h), (k3, k4, h))
            sixth = h / 6.0
            start_vals = _term_values(coefficients, state)
            traj = [[el.copy()] for el in state]
            for _ in range(steps):
                x[...] = state
                rhs(k1)
                for k, k_next, c in stage_steps:
                    np.multiply(c, k, x)
                    np.add(state, x, x)
                    rhs(k_next)
                k2k3 *= 2
                np.add.accumulate(ks, 0, None, ks)
                np.multiply(sixth, k4, k4)
                state += k4
            end_vals = _term_values(coefficients, state)
            out = []
            for member, el, v0s, v1s in zip(traj, state, start_vals, end_vals):
                member.append(el.copy())
                scale = max(1.0, max(abs(v) for v in v0s)) if fns else 1.0
                report = []
                for (k, i, j, _), v0, v1 in zip(fns, v0s, v1s):
                    rel = abs(v1 - v0) / max(abs(v0), 1e-3 * scale)
                    report.append({"degree_index": k, "site": i, "order": j,
                                   "start": v0, "end": v1, "relative_drift": rel})
                out.append((member, report))
        return out
