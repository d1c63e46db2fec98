"""Reductive Lie algebra arithmetic in exact rationals.

Matrix models for the classical families gl(r), sl(r), so(r), sp(2r) in their
defining representations, the trace form, annihilator subspaces, invariant
polynomials, and per-marked-point framing data.  Exceptional types carry
tabulated numerical data only (no matrix model).

Conventions:
  * so(r) is realized with the symmetric form antidiag(1,...,1), so its
    standard torus is diagonal and all structure constants are rational.
  * sp(2r) uses J = [[0, I], [-I, 0]]; the torus is diag(t, -t).
  * The invariant form is the trace form of the defining representation; on
    the one-dimensional center of gl(r) this restricts to sigma'(z, z') =
    tr(z z'), which is nondegenerate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence

from .exactlinalg import (Echelon, LinSolver, Mat, Vec, ZERO, ONE, dense, frac,
                          mat_comb, mat_mul, nullspace_sparse, over_common_denominator)

Matrix = tuple[tuple[Fraction, ...], ...]

_EXCEPTIONAL = {
    # dim, rank, degrees
    "g2": (14, 2, (2, 6)),
    "f4": (52, 4, (2, 6, 8, 12)),
    "e6": (78, 6, (2, 5, 6, 8, 9, 12)),
    "e7": (133, 7, (2, 6, 8, 10, 12, 14, 18)),
    "e8": (248, 8, (2, 8, 12, 14, 18, 20, 24, 30)),
}

_ID_RE = re.compile(r"^\s*(gl|sl|so|sp)\s*\(?\s*(\d+)\s*\)?\s*$")


class UnsupportedGroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupData:
    """Numeric invariants of a connected reductive group."""
    group_id: str
    family: str                 # gl | sl | so | sp | exceptional
    matrix_size: int | None     # size of the defining representation, if any
    dim: int
    rank: int
    dim_borel: int
    dim_torus: int
    dim_center_alg: int         # dim Z(g)
    dim_center_grp: int         # dim Z(G)
    degrees: tuple[int, ...]

    def __post_init__(self):
        assert 2 * self.dim_borel == self.dim + self.dim_torus
        assert len(self.degrees) == self.rank
        assert sum(2 * d - 1 for d in self.degrees) == self.dim


def parse_group_id(group_id: str) -> tuple[str, int | None]:
    gid = group_id.strip().lower()
    if gid in _EXCEPTIONAL:
        return gid, None
    m = _ID_RE.match(gid)
    if not m:
        raise UnsupportedGroupError(f"unsupported group id {group_id!r}")
    family, num = m.group(1), int(m.group(2))
    if family in ("gl", "sl") and num < 1 or family == "sl" and num < 2:
        raise UnsupportedGroupError(f"{family}({num}) is not supported (need rank >= 1)")
    if family == "so" and num < 3:
        raise UnsupportedGroupError(f"so({num}) is not supported (need r >= 3)")
    if family == "sp":
        if num < 2 or num % 2:
            raise UnsupportedGroupError(f"sp({num}) requires an even size >= 2")
    return family, num


def group_data(group_id: str) -> GroupData:
    """Tabulated Lie data for a supported group id such as 'sl(2)' or 'so5'."""
    family, num = parse_group_id(group_id)
    canon = family if num is None else f"{family}({num})"
    if family in _EXCEPTIONAL:
        dim, rk, degs = _EXCEPTIONAL[family]
        return GroupData(canon, "exceptional", None, dim, rk, (dim + rk) // 2,
                         rk, 0, 0, degs)
    r = num
    if family == "gl":
        dim, rk, degs = r * r, r, tuple(range(1, r + 1))
        torus, zalg, zgrp = r, 1, 1
    elif family == "sl":
        dim, rk, degs = r * r - 1, r - 1, tuple(range(2, r + 1))
        torus, zalg, zgrp = r - 1, 0, 0
    elif family == "so":
        k = r // 2
        dim, rk = r * (r - 1) // 2, k
        if r % 2:
            degs = tuple(2 * i for i in range(1, k + 1))
        else:
            degs = tuple(2 * i for i in range(1, k)) + (k,)
        torus, zalg, zgrp = k, 0, 0
    else:  # sp
        r2 = num
        k = r2 // 2
        dim, rk, degs = k * (2 * k + 1), k, tuple(2 * i for i in range(1, k + 1))
        torus, zalg, zgrp = k, 0, 0
    return GroupData(canon, family, num, dim, rk, (dim + torus) // 2, torus,
                     zalg, zgrp, degs)


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------

def _unit(n: int, a: int, b: int) -> Matrix:
    return tuple(tuple(ONE if (i, j) == (a, b) else ZERO for j in range(n)) for i in range(n))


def _cartan(n: int, i: int, j: int) -> Matrix:
    """E_ii - E_jj."""
    return to_matrix(mat_comb([ONE, -ONE], [_unit(n, i, i), _unit(n, j, j)]))

def _mzero(n: int) -> Matrix:
    return tuple(tuple(ZERO for _ in range(n)) for _ in range(n))

def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)

def mat_commutator(a, b) -> Mat:
    return mat_comb([ONE, -ONE], [mat_mul(a, b), mat_mul(b, a)])

def flatten(a: Matrix) -> Vec:
    return [x for row in a for x in row]

def to_matrix(entries) -> Matrix:
    return tuple(tuple(frac(x) for x in row) for row in entries)


def antidiagonal(n: int) -> Matrix:
    """Q = antidiag(1, ..., 1), the symmetric form of the so(n) model."""
    return tuple(tuple(ONE if i + j == n - 1 else ZERO for j in range(n)) for i in range(n))


def algebra_basis(group: GroupData) -> list[Matrix]:
    """Deterministic basis of the algebra in the defining representation."""
    if group.family == "exceptional":
        raise UnsupportedGroupError(f"{group.group_id} has no matrix model (dimension data only)")
    n = group.matrix_size
    basis: list[Matrix] = []
    if group.family == "gl":
        for a in range(n):
            for b in range(n):
                basis.append(_unit(n, a, b))
    elif group.family == "sl":
        for a in range(n):
            for b in range(n):
                if a != b:
                    basis.append(_unit(n, a, b))
        for i in range(n - 1):
            basis.append(_cartan(n, i, i + 1))
    elif group.family == "so":
        # so(Q) = Q * (skew matrices) for Q = antidiag(1..1), since Q^2 = I.
        q = antidiagonal(n)
        for a in range(n):
            for b in range(a + 1, n):
                skew = mat_comb([ONE, -ONE], [_unit(n, a, b), _unit(n, b, a)])
                basis.append(to_matrix(mat_mul(q, skew)))
    else:  # sp
        k = n // 2
        minus_j = [[ZERO] * n for _ in range(n)]     # -J, J = [[0, I], [-I, 0]]
        for i in range(k):
            minus_j[i][k + i] = -ONE
            minus_j[k + i][i] = ONE
        for a in range(n):
            for b in range(a, n):
                sym = mat_comb([ONE, ONE], [_unit(n, a, b), _unit(n, b, a)])
                basis.append(to_matrix(mat_mul(minus_j, sym)))
    assert len(basis) == group.dim
    return basis


def torus_basis(group: GroupData) -> list[Matrix]:
    """Basis of the fixed (diagonal) Cartan torus of the matrix model."""
    n = group.matrix_size
    if group.family == "gl":
        return [_unit(n, i, i) for i in range(n)]
    if group.family == "sl":
        return [_cartan(n, i, i + 1) for i in range(n - 1)]
    if group.family == "so":
        return [_cartan(n, i, n - 1 - i) for i in range(n // 2)]
    if group.family == "sp":
        k = n // 2
        return [_cartan(n, i, k + i) for i in range(k)]
    raise UnsupportedGroupError(group.group_id)


@dataclass(frozen=True)
class AlgebraElement:
    """A matrix in the defining representation with its algebra tag."""
    matrix: Matrix
    group_id: str

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return AlgebraElement(_entrywise(add, self.matrix, other.matrix), self.group_id)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return AlgebraElement(_entrywise(sub, self.matrix, other.matrix), self.group_id)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-ONE)

    def scale(self, c) -> "AlgebraElement":
        c = frac(c)
        return AlgebraElement(tuple(tuple(c * x for x in row) for row in self.matrix),
                              self.group_id)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)


def _entrywise(op, a, b) -> Matrix:
    """op applied entry by entry to two Fraction matrices of one size."""
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))


def _check_same(a: AlgebraElement, b: AlgebraElement):
    if a.group_id != b.group_id:
        raise ValueError(f"algebra mismatch: {a.group_id} vs {b.group_id}")
    if len(a.matrix) != len(b.matrix):
        raise ValueError("matrix size mismatch")


class AlgebraModel:
    """A group plus its basis, coordinate maps and membership tests."""

    def __init__(self, group_id: str):
        self.group = group_data(group_id)
        if self.group.family == "exceptional":
            raise UnsupportedGroupError(
                f"{self.group.group_id} is not supported for evaluation (dimension data only)")
        self.n = self.group.matrix_size
        self.basis = algebra_basis(self.group)
        self.torus = torus_basis(self.group)
        self._coord_solver = LinSolver([flatten(m) for m in self.basis], self.n * self.n)
        # the nonzero entries of each basis matrix, by flat index
        self._support = [[(q, x) for q, x in enumerate(flatten(m)) if x] for m in self.basis]

    def element(self, entries, validate: bool = True) -> AlgebraElement:
        m = to_matrix(entries)
        if len(m) != self.n or any(len(r) != self.n for r in m):
            raise ValueError(f"expected a {self.n}x{self.n} matrix for {self.group.group_id}")
        el = AlgebraElement(m, self.group.group_id)
        if validate and not self.contains(el):
            raise ValueError(f"matrix is not an element of {self.group.group_id}")
        return el

    def zero(self) -> AlgebraElement:
        return AlgebraElement(_mzero(self.n), self.group.group_id)

    def contains(self, el: AlgebraElement) -> bool:
        return self._coord_solver.coords(flatten(el.matrix)) is not None

    def coords(self, el: AlgebraElement) -> Vec:
        c = self._coord_solver.coords(flatten(el.matrix))
        if c is None:
            raise ValueError(f"matrix is not an element of {self.group.group_id}")
        return c

    def from_coords(self, coords: Sequence[Fraction]) -> AlgebraElement:
        """sum_j coords[j] basis[j], over the nonzero entries of the basis."""
        flat = [ZERO] * (self.n * self.n)
        for w, support in zip(coords, self._support):
            if w:
                for q, x in support:
                    y = w if x == 1 else w * x
                    flat[q] = flat[q] + y if flat[q] else y
        return AlgebraElement(to_matrix(flat[r:r + self.n]
                                        for r in range(0, len(flat), self.n)),
                              self.group.group_id)


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Commutator ab - ba."""
    _check_same(a, b)
    ab, ba = mat_mul(a.matrix, b.matrix), mat_mul(b.matrix, a.matrix)
    return AlgebraElement(_entrywise(sub, ab, ba), a.group_id)


@dataclass(frozen=True)
class InvariantForm:
    """Nondegenerate invariant symmetric bilinear form.

    The default is the trace form of the defining representation.  The form
    on the center is a free choice; center_scale rescales it (the evaluation
    becomes tr(ab) + (center_scale - 1) tr(a) tr(b) / size, which changes
    nothing on trace-free algebras).  Downstream dimension results must not
    depend on this choice, which the test suite checks.
    """
    group_id: str
    center_scale: Fraction = ONE

    def __post_init__(self):
        if self.center_scale == 0:
            raise ValueError("center_scale must be nonzero (nondegeneracy)")

    def __call__(self, a: AlgebraElement, b: AlgebraElement) -> Fraction:
        _check_same(a, b)
        if a.group_id != self.group_id:
            raise ValueError(f"form for {self.group_id} applied to {a.group_id} elements")
        val = mat_trace(mat_mul(a.matrix, b.matrix))
        if self.center_scale != 1:
            val += (self.center_scale - 1) * mat_trace(a.matrix) * mat_trace(b.matrix) \
                / len(a.matrix)
        return val

    def gram(self, elements: Sequence[AlgebraElement]) -> Mat:
        return [[self(a, b) for b in elements] for a in elements]


def trace_form(group_id: str, center_scale: Fraction = ONE) -> InvariantForm:
    return InvariantForm(group_data(group_id).group_id, center_scale)


def check_invariance(form: InvariantForm, a: AlgebraElement, b: AlgebraElement,
                     c: AlgebraElement) -> Fraction:
    """Invariance residual sigma([a,c], b) + sigma(c, [a,b]); zero for valid forms."""
    return form(bracket(a, c), b) + form(c, bracket(a, b))


def perp_subspace(form: InvariantForm, subspace: Sequence[AlgebraElement],
                  model: AlgebraModel) -> list[AlgebraElement]:
    """Basis of the annihilator {v : sigma(v, h) = 0 for all h in the span}.
    sigma is nondegenerate, so the basis is independent exactly when the
    kernel of its rows sigma(h, .) has dimension dim g - len(subspace)."""
    basis = [AlgebraElement(b, model.group.group_id) for b in model.basis]
    kernel = nullspace_sparse([[form(h, b) for b in basis] for h in subspace],
                              ncols=model.group.dim)
    if len(subspace) + len(kernel) != model.group.dim:
        raise ValueError("subspace basis is linearly dependent")
    return [model.from_coords(dense(v, model.group.dim)) for v in kernel]


# ---------------------------------------------------------------------------
# invariant polynomials
# ---------------------------------------------------------------------------

# Entries of the table `generator_indices`: the subscript m of e_m, or this
# marker for the Pfaffian.
PFAFFIAN = 0


def generator_indices(group: GroupData) -> tuple[int, ...]:
    """How each generator p_1, ..., p_r of degrees d_1 < ... < d_r is realized.

    Entry k is the subscript m of the elementary symmetric function e_m of the
    eigenvalues that gives p_k, or PFAFFIAN.  gl(r): e_1..e_r; sl(r): the
    trace is dropped; sp and so: the even ones, with the Pfaffian replacing
    e_2k for so(2k).
    """
    r = group.matrix_size
    if group.family == "gl":
        return tuple(range(1, r + 1))
    if group.family == "sl":
        return tuple(range(2, r + 1))
    if group.family not in ("sp", "so"):
        raise UnsupportedGroupError(f"{group.group_id} is not supported for evaluation")
    even = tuple(range(2, r + 1, 2))
    return even[:-1] + (PFAFFIAN,) if group.family == "so" and r % 2 == 0 else even


def newton_elementary(power_sums: Sequence) -> list:
    """e_1..e_n from the power sums p_1..p_n by Newton's identities."""
    e = [ONE]
    for k in range(1, len(power_sums) + 1):
        acc = ZERO
        for i in range(1, k + 1):
            term = e[k - i] * power_sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(acc * Fraction(1, k))
    return e[1:]


def char_poly_elementary(m: Matrix) -> list:
    """Elementary symmetric functions e_1..e_n of the eigenvalues of m.

    det(tI - m) = sum_k (-1)^k e_k t^(n-k); computed by Newton's identities
    from exact power traces.  The entries may be Fractions or polynomial
    observables.
    """
    power = m
    psums = [mat_trace(m)]
    for _ in range(len(m) - 1):
        power = mat_mul(power, m)
        psums.append(mat_trace(power))
    return newton_elementary(psums)


def pfaffian(m: Matrix):
    """Pfaffian of the skew matrix with the strict upper triangle of m
    (recursive first-row expansion; the other entries are not read)."""
    n = len(m)
    if n % 2:
        return ZERO
    if n == 0:
        return ONE
    if n == 2:
        return m[0][1]
    total = ZERO
    for j in range(1, n):
        if m[0][j]:
            keep = [i for i in range(1, n) if i != j]
            term = m[0][j] * pfaffian([[m[a][b] for b in keep] for a in keep])
            total = total + term if j % 2 else total - term
    return total


def matrix_invariants(group: GroupData, m: Matrix) -> list:
    """p_1(m), ..., p_r(m) as listed by `generator_indices`, for a matrix of
    Fractions or of polynomial observables.

    The Pfaffian of so(2k) is that of Q m (Q = `antidiagonal`), which is skew
    for m in so(2k); for a symbolic m with independent entries it is the
    polynomial in the strict upper triangle of Q m.
    """
    indices = generator_indices(group)
    e = char_poly_elementary(m)
    return [e[i - 1] if i != PFAFFIAN else pfaffian(mat_mul(antidiagonal(len(m)), m))
            for i in indices]


def invariant_polynomials(group_id: str, el: AlgebraElement) -> tuple[Fraction, ...]:
    """Values p_1(m), ..., p_r(m) of the generators of degrees d_1 < ... < d_r."""
    g = group_data(group_id)
    if g.family == "exceptional":
        raise UnsupportedGroupError(f"{g.group_id} is not supported for evaluation")
    if el.group_id != g.group_id:
        raise ValueError(f"element tagged {el.group_id} passed to {g.group_id}")
    if PFAFFIAN in generator_indices(g):
        qm = mat_mul(antidiagonal(g.matrix_size), el.matrix)
        if any(qm[i][j] + qm[j][i] for i in range(len(qm)) for j in range(i, len(qm))):
            raise ValueError("pfaffian of a non-skew matrix")
    return tuple(matrix_invariants(g, el.matrix))


def theta_at(points: Sequence[Fraction], matrices: Sequence[Matrix], t: Fraction) -> Mat:
    """theta(t) = sum_i M_i / (t - x_i) for residue matrices M_i at points x_i,
    of Fractions or of polynomial observables."""
    return mat_comb([ONE / (t - x) for x in points], matrices)


def theta_numerators(points: Sequence[Fraction], matrices: Sequence[Matrix],
                     ts: Sequence[Fraction]) -> list[tuple[int, list[int]]]:
    """theta(t) = sum_i M_i / (t - x_i) in integers, at each sample point t
    of ts, for Fraction residue matrices M_i: per t the pair (D, M), where
    theta(t) = M / D, M is flattened row-major and D is the least common
    denominator of the entries of theta(t)."""
    sites = [(x.numerator, x.denominator) + over_common_denominator(flatten(m))
             for x, m in zip(points, matrices)]
    out = []
    for t in ts:
        # 1 / (t - x_i) over the denominator d_i of M_i is u_i / v_i below
        tn, td = t.numerator, t.denominator
        weights = [(td * xd, d * (tn * xd - xn * td)) for xn, xd, d, _ in sites]
        den = lcm(*(v for _, v in weights))
        m = [0] * len(sites[0][3])
        for (u, v), (_, _, _, a) in zip(weights, sites):
            c = u * (den // v)
            m = [x + c * y for x, y in zip(m, a)]
        g = gcd(den, *m)
        if g > 1:
            den //= g
            m = [x // g for x in m]
        out.append((den, m))
    return out


def theta_char_polys(points: Sequence[Fraction], matrices: Sequence[Matrix],
                     ts: Sequence[Fraction]
                     ) -> list[tuple[int, list[int], list[int], list[list[int]]]]:
    """The characteristic polynomial of theta(t) = sum_i M_i / (t - x_i) in
    integers, at each sample point t of ts, for Fraction residue matrices M_i.

    theta(t) = M / D as in `theta_numerators`.  Faddeev-LeVerrier on M
    (Faddeev 1963): Q_0 = I, e_m = tr(M Q_(m-1)) / m and Q_m = e_m I -
    M Q_(m-1), where each division by m is exact, e_m = e_m(M) and Q_m =
    sum_(j<=m) (-1)^j e_(m-j)(M) M^j.  Per t the result is (D, M, [e_1,
    ..., e_s], [Q_0, ..., Q_(s-1)]), matrices flattened row-major, so that
    e_m(theta(t)) = e_m / D^m and P_m(theta(t)) = Q_m / D^m, the matrix
    whose trace against V is the derivative of e_(m+1) at theta(t) along V.
    """
    s = len(matrices[0])
    ident = [int(a == b) for a in range(s) for b in range(s)]
    out = []
    for den, m in theta_numerators(points, matrices, ts):
        rows = [m[a * s:(a + 1) * s] for a in range(s)]
        q, qs, es = ident, [ident], []
        for k in range(1, s + 1):
            cols = [q[b::s] for b in range(s)]
            if k == s:      # only the trace of M Q_(s-1) is needed
                es.append(sum(map(mul, m, [x for col in cols for x in col])) // k)
                break
            mq = m if k == 1 else [sum(map(mul, r, col)) for r in rows for col in cols]
            e = sum(mq[::s + 1]) // k
            q = [-x for x in mq]
            for a in range(0, s * s, s + 1):
                q[a] += e
            es.append(e)
            qs.append(q)
        out.append((den, m, es, qs))
    return out


# ---------------------------------------------------------------------------
# framings
# ---------------------------------------------------------------------------

@dataclass
class FramingSpec:
    """Per-marked-point framing subalgebra with derived annihilator data."""
    model: AlgebraModel
    form: InvariantForm
    subalgebra: list[AlgebraElement]        # basis of h_x; empty for a trivial framing
    perp: list[AlgebraElement] = field(init=False)
    coords: list[Vec] = field(init=False)       # coordinates of subalgebra and perp,
    perp_coords: list[Vec] = field(init=False)  # each element solved once

    def __post_init__(self):
        g = self.model.group
        if len(self.subalgebra) >= g.dim:
            raise ValueError("framing subgroup must be a proper subgroup (dim h_x < dim g)")
        self.coords = [self.model.coords(h) for h in self.subalgebra]
        ech = Echelon(g.dim)
        if not all(ech.insert(c) for c in self.coords):
            raise ValueError("framing subalgebra basis is linearly dependent")
        for a in self.subalgebra:
            for b in self.subalgebra:
                if not ech.contains(self.model.coords(bracket(a, b))):
                    raise ValueError("framing subspace is not closed under the bracket")
        self.perp = perp_subspace(self.form, self.subalgebra, self.model)
        self.perp_coords = [self.model.coords(p) for p in self.perp]
        # [h, h^perp] ⊆ h^perp by invariance: sigma([a, p], b) = -sigma(p, [a, b]) = 0

    @property
    def dim(self) -> int:
        return len(self.subalgebra)


def trivial_framing(model: AlgebraModel, form: InvariantForm) -> FramingSpec:
    return FramingSpec(model, form, [])


def torus_framing(model: AlgebraModel, form: InvariantForm) -> FramingSpec:
    gid = model.group.group_id
    return FramingSpec(model, form, [AlgebraElement(t, gid) for t in model.torus])


def framing_specs(model: AlgebraModel, form: InvariantForm, framing,
                  n: int) -> tuple[FramingSpec, ...]:
    """The framings of n marked points from a selector; the one place a
    selector is read.

    framing: 'trivial' or 'torus' (one FramingSpec shared by every point), or
    a per-point list of subalgebra bases, each a list of matrices (one
    FramingSpec per point; an empty basis is a trivial framing).
    """
    if framing == "trivial":
        return (trivial_framing(model, form),) * n
    if framing == "torus":
        return (torus_framing(model, form),) * n
    if isinstance(framing, str):
        raise ValueError(f"unknown framing selector {framing!r}")
    return tuple(FramingSpec(model, form, [model.element(b) for b in basis])
                 for basis in framing)
