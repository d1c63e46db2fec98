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

What depends on the group alone is built once per process: `algebra_model`
returns one `AlgebraModel` per group id, whose integer ad tensor and
trace-form projection are computed when first read, `framing_spec` returns
one `FramingSpec` per (model, form, subalgebra basis), with the integer
support of its annihilator and the integer functionals that test it, and
`gram_matrix` the Gram matrix of a form per (model, form).  What depends on
the marked points alone, each point's factor in `theta_majorants`, is kept
per set of points (`_point_weights`).  The memos are `functools.lru_cache`s
of at most `exactlinalg.MEMO_SIZE` entries, filled on first use.

ad(X) on basis coordinates is read in integers: `AlgebraModel.ad_tensor`
holds the coordinates of the integer brackets [E_q, B_a] of matrix units
with the integer basis, read by the coordinate solver's integer
functionals, and `ad_columns` applies it to an element's integer form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from operator import mul, sub
from typing import Sequence

from .exactlinalg import (MEMO_SIZE, Echelon, LinSolver, Mat, Vec, ZERO, ONE, dense, frac,
                          integer_solve, mat_comb, mat_mul, nullspace_sparse,
                          over_common_denominator)

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

def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)

def flatten(a: Matrix) -> Vec:
    return [x for row in a for x in row]

def flat_trace(a: Sequence, b: Sequence, s: int):
    """tr(a b) of two row-major flattened s x s matrices."""
    return sum(a[i * s + j] * b[j * s + i] for i in range(s) for j in range(s))

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


class AlgebraElement:
    """A matrix in the defining representation with its algebra tag.

    The element is held as its integer form (den, nums): den is the least
    common denominator of its entries and nums their row-major numerators
    over it, so that the matrix is nums / den.  An element made from
    integers (`from_integers`), as the samplers, `AlgebraModel.from_coords`
    and the arithmetic below make it, builds its Fraction `matrix` only when
    that is first read; one made from a matrix computes its integer form
    once, when that is first read.  Equality and hashing read the integer
    form.
    """

    __slots__ = ("group_id", "_form", "_matrix")

    def __init__(self, matrix: Matrix, group_id: str):
        self.group_id, self._form, self._matrix = group_id, None, matrix

    @classmethod
    def from_integers(cls, den: int, nums: Sequence[int], group_id: str) -> "AlgebraElement":
        """The element with row-major entries nums / den, for den > 0."""
        el = cls.__new__(cls)
        g = gcd(den, *nums)
        el.group_id, el._matrix = group_id, None
        el._form = (den, tuple(nums)) if g == 1 else (den // g, tuple(x // g for x in nums))
        return el

    @property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        if self._form is None:
            den, nums = over_common_denominator(flatten(self._matrix))
            self._form = den, tuple(nums)
        return self._form

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._matrix = _fraction_matrix(*self._form)
        return self._matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.group_id == other.group_id and self.integer_form == other.integer_form

    def __hash__(self) -> int:
        return hash((self.group_id, self.integer_form))

    def __repr__(self) -> str:
        return f"AlgebraElement(matrix={self.matrix!r}, group_id={self.group_id!r})"

    def _plus(self, other: "AlgebraElement", sign: int) -> "AlgebraElement":
        """self + sign other, over the lcm of the two denominators."""
        _check_same(self, other)
        (d, a), (d2, a2) = self.integer_form, other.integer_form
        big = lcm(d, d2)
        f, f2 = big // d, sign * (big // d2)
        return AlgebraElement.from_integers(big, [f * x + f2 * y for x, y in zip(a, a2)],
                                            self.group_id)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, 1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, -1)

    def __neg__(self) -> "AlgebraElement":
        den, nums = self.integer_form
        return AlgebraElement.from_integers(den, [-x for x in nums], self.group_id)

    def scale(self, c) -> "AlgebraElement":
        c, (den, nums) = frac(c), self.integer_form
        return AlgebraElement.from_integers(den * c.denominator,
                                            [c.numerator * x for x in nums], self.group_id)

    def is_zero(self) -> bool:
        return not any(self.integer_form[1])


def _fraction_matrix(den: int, nums: Sequence[int]) -> Matrix:
    """The square Fraction matrix with row-major entries nums / den."""
    n = isqrt(len(nums))
    return tuple(tuple(Fraction(x, den) for x in nums[r:r + n]) for r in range(0, len(nums), n))


def _entrywise(op, a, b) -> Matrix:
    """op applied entry by entry to two Fraction matrices of one size."""
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))


def _entries(el: AlgebraElement) -> int:
    """The number of entries of el, read off whichever form it holds."""
    return len(el._form[1]) if el._form is not None else len(el._matrix) ** 2


def _check_same(a: AlgebraElement, b: AlgebraElement):
    if a.group_id != b.group_id:
        raise ValueError(f"algebra mismatch: {a.group_id} vs {b.group_id}")
    if _entries(a) != _entries(b):
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
        # the nonzero entries of each basis matrix, by flat index, as integers
        # over one denominator
        self._support_den, flat = over_common_denominator(
            x for m in self.basis for x in flatten(m))
        size = self.n * self.n
        self._support = [[(q, x) for q, x in enumerate(flat[k:k + size]) if x]
                         for k in range(0, len(flat), size)]

    def element(self, entries) -> AlgebraElement:
        m = to_matrix(entries)
        if len(m) != self.n or any(len(r) != self.n for r in m):
            raise ValueError(f"expected a {self.n}x{self.n} matrix for {self.group.group_id}")
        el = AlgebraElement(m, self.group.group_id)
        if not self.contains(el):
            raise ValueError(f"matrix is not an element of {self.group.group_id}")
        return el

    def zero(self) -> AlgebraElement:
        return AlgebraElement.from_integers(1, [0] * (self.n * self.n), self.group.group_id)

    def contains(self, el: AlgebraElement) -> bool:
        # g's integer equations (`LinSolver.equations`: the trace on sl(r),
        # none on gl(r)) on the integer numerators, with no solve
        nums = el.integer_form[1]
        return all(sum(e * nums[q] for q, e in eq) == 0 for eq in self._coord_solver.equations)

    def coords(self, el: AlgebraElement) -> Vec:
        c = self._coord_solver.coords(flatten(el.matrix))
        if c is None:
            raise ValueError(f"matrix is not an element of {self.group.group_id}")
        return c

    def integer_support(self, vectors: Sequence[Sequence[Fraction]]
                        ) -> tuple[int, list[list[tuple[int, int]]]]:
        """(den, images): per coordinate vector v of vectors, the nonzero
        entries of sum_j v_j basis[j] by flat index, as integers over one
        denominator den."""
        vectors = [list(v) for v in vectors]
        vden = lcm(*{x.denominator for v in vectors for x in v})
        images = []
        for v in vectors:
            acc: dict[int, int] = {}
            for x, support in zip(v, self._support):
                if x:
                    w = x.numerator * (vden // x.denominator)
                    for q, y in support:
                        acc[q] = acc.get(q, 0) + w * y
            images.append([(q, y) for q, y in acc.items() if y])
        return vden * self._support_den, images

    def from_integer_coords(self, den: int, coeffs: Sequence[int],
                            support: tuple[int, list] | None = None) -> AlgebraElement:
        """sum_k (coeffs[k] / den) S_k for the images S_k of an
        `integer_support` (sden, [S_k]), by default that of the basis, where
        the coefficients are coordinates."""
        sden, images = (self._support_den, self._support) if support is None else support
        flat = [0] * (self.n * self.n)
        for c, image in zip(coeffs, images):
            if c:
                for q, x in image:
                    flat[q] += c * x
        return AlgebraElement.from_integers(den * sden, flat, self.group.group_id)

    def from_coords(self, coords: Sequence[Fraction]) -> AlgebraElement:
        """sum_j coords[j] basis[j], in integers over the coordinates' common
        denominator."""
        return self.from_integer_coords(*over_common_denominator(coords))

    @cached_property
    def ad_tensor(self) -> tuple[int, dict[int, list[tuple[int, int, int]]]]:
        """(D, T) with ad(X)[b][a] = sum_q X_q T_q[b, a] / D for every X in g
        with row-major entries X_q, as T = {q: [(b, a, T_q[b, a]) nonzero]}.
        ad(X)[b][a], coordinate b of [X, B_a], is linear in X: T_q[b, a] / D
        is coordinate b of [E_q, B_a] for the matrix unit E_q, read by the
        coordinate solver's integer functionals (`LinSolver.functionals`,
        linear on every matrix) off the integer basis, so no Fraction is
        made."""
        s = self.n
        fden, by_entry = self._coord_solver.functionals
        tensor = {}
        for q in range(s * s):
            i, j = divmod(q, s)
            acc: dict[tuple[int, int], int] = {}
            for a, support in enumerate(self._support):
                # [E_q, B_a] over the basis denominator: row j of B_a moved
                # to row i, less column i of B_a moved to column j
                br: dict[int, int] = {}
                for p, y in support:
                    r, c = divmod(p, s)
                    if r == j:
                        br[i * s + c] = br.get(i * s + c, 0) + y
                    if c == i:
                        br[r * s + j] = br.get(r * s + j, 0) - y
                for e, y in br.items():
                    for b, f in by_entry.get(e, ()):
                        acc[b, a] = acc.get((b, a), 0) + f * y
            tensor[q] = [(b, a, t) for (b, a), t in acc.items() if t]
        den = fden * self._support_den
        g = gcd(den, *(t for row in tensor.values() for _, _, t in row))
        return den // g, {q: [(b, a, t // g) for b, a, t in row]
                          for q, row in tensor.items() if row}

    def ad_columns(self, el: AlgebraElement) -> tuple[int, list[list[tuple[int, int]]]]:
        """ad(el) on basis coordinates as (e, columns) over the least common
        denominator e of its entries: column a is [(b, e ad(el)[b][a])] over
        the nonzero entries, b increasing.  Read off el's integer form
        through `ad_tensor` in integers, so el must lie in g (unchecked)."""
        den, nums = el.integer_form
        tden, tensor = self.ad_tensor
        m = self.group.dim
        acc = [0] * (m * m)         # acc[a m + b] = den tden ad(el)[b][a]
        for q, x in enumerate(nums):
            if x:
                for b, a, t in tensor.get(q, ()):
                    acc[a * m + b] += x * t
        g = gcd(den * tden, *acc)
        return den * tden // g, [[(b, y // g) for b, y in enumerate(acc[a * m:a * m + m]) if y]
                                 for a in range(m)]

    @cached_property
    def trace_projection(self) -> tuple[int, list[list[int]]]:
        """The orthogonal projection pi onto g under the trace form, pi(Y) in
        g with tr(pi(Y) B) = tr(Y B) for B in g, as (den, P) with flatten(pi(Y))
        = P flatten(Y) / den: P = sum_a b_a X_a for the integer basis b_a =
        c B_a and G X = den T, G[a][b] = tr(b_a b_b), T_a = flatten(b_a^T)."""
        s = self.n
        _, flat = over_common_denominator(x for b in self.basis for x in flatten(b))
        basis = [flat[q:q + s * s] for q in range(0, len(flat), s * s)]
        den, x = integer_solve([[flat_trace(a, b, s) for b in basis] for a in basis],
                               [[v for i in range(s) for v in a[i::s]] for a in basis])
        return den, [[sum(map(mul, bcol, xcol)) for xcol in zip(*x)] for bcol in zip(*basis)]


@lru_cache(maxsize=MEMO_SIZE)
def _algebra_model(group_id: str) -> AlgebraModel:
    return AlgebraModel(group_id)


def algebra_model(group_id: str) -> AlgebraModel:
    """The one `AlgebraModel` of a group id in this process, so that the
    basis, its elimination and the data derived from it are built once;
    UnsupportedGroupError for an unknown id or a group with dimension data
    only."""
    return _algebra_model(group_data(group_id).group_id)


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

    def integer_functional(self, a: AlgebraElement) -> list[tuple[int, int]]:
        """[(q, f_q)] with sum_q f_q b_q a positive multiple of sigma(a, b)
        for the row-major entries b_q of every b, in integers: tr(a b) reads
        a_ij at b_ji, and the center term (center_scale - 1) tr(a) / size
        each diagonal entry."""
        _, nums = a.integer_form
        s, c = isqrt(len(nums)), self.center_scale
        f = [s * c.denominator * nums[q % s * s + q // s] for q in range(s * s)]
        centre = (c.numerator - c.denominator) * sum(nums[::s + 1])
        for q in range(0, s * s, s + 1):
            f[q] += centre
        return [(q, x) for q, x in enumerate(f) if x]


@lru_cache(maxsize=MEMO_SIZE)
def gram_matrix(model: AlgebraModel, form: InvariantForm) -> tuple[tuple[Fraction, ...], ...]:
    """The Gram matrix of the form on the model's basis, computed once per
    process per model object and form value."""
    gid = model.group.group_id
    return tuple(map(tuple, form.gram([AlgebraElement(b, gid) for b in model.basis])))


def trace_form(group_id: str, center_scale: Fraction = ONE) -> InvariantForm:
    return InvariantForm(group_data(group_id).group_id, center_scale)


def perp_coordinates(form: InvariantForm, subspace: Sequence[AlgebraElement],
                     model: AlgebraModel) -> list[Vec]:
    """Coordinates of a basis of the annihilator {v : sigma(v, h) = 0 for all
    h in the span}, the kernel of the rows sigma(h, .); sigma is nondegenerate,
    so the basis is independent exactly when that kernel has dim g - len(subspace)."""
    basis = [AlgebraElement(b, model.group.group_id) for b in model.basis]
    kernel = nullspace_sparse([[form(h, b) for b in basis] for h in subspace],
                              ncols=model.group.dim)
    if len(subspace) + len(kernel) != model.group.dim:
        raise ValueError("subspace basis is linearly dependent")
    return [dense(v, model.group.dim) for v in kernel]


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


def char_poly_elementary(m: Matrix, count: int | None = None) -> list:
    """Elementary symmetric functions e_1..e_count of the eigenvalues of m, by
    default all n: det(tI - m) = sum_k (-1)^k e_k t^(n-k), by Newton's
    identities from the exact power traces up to tr(m^count).  The entries
    may be Fractions or any values with +, - and *, such as symbolic
    polynomials."""
    power = m
    psums = [mat_trace(m)]
    for _ in range((len(m) if count is None else count) - 1):
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


def matrix_invariant(m: Matrix, index: int):
    """The generator of `generator_indices` entry index at a matrix of
    Fractions or of symbolic polynomials: e_index(m), or the Pfaffian of Q m
    (Q = `antidiagonal`; Q m is skew for m in so(2k), and for a symbolic m it
    is the polynomial in the strict upper triangle of Q m)."""
    if index == PFAFFIAN:
        return pfaffian(mat_mul(antidiagonal(len(m)), m))
    return char_poly_elementary(m, index)[-1]


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
    return tuple(matrix_invariant(el.matrix, i) for i in generator_indices(g))


def theta_char_polys(points: Sequence[Fraction], sites: Sequence[tuple[int, Sequence[int]]],
                     t: int) -> tuple[int, list[int], list[int], list[list[int]]]:
    """The characteristic polynomial of theta(t) = sum_i A_i / (t - x_i) in
    integers at one integer t that is no marked point, for the residues A_i
    = a_i / d_i given as sites (d_i, a_i), a_i row-major integers
    (`AlgebraElement.integer_form`).

    With x_j = p_j / q_j and L = lcm d_i, theta(t) = N(t) / D for D = L
    prod_j (q_j t - p_j) and the integer matrix polynomial N(z) = sum_i (L /
    d_i) q_i a_i prod_(j != i) (q_j z - p_j).  Faddeev-LeVerrier on N(t)
    (Faddeev 1963): Q_0 = I, e_m = tr(N Q_(m-1)) / m, each division exact,
    and Q_m = e_m I - N Q_(m-1).  Returns (D, N(t), [e_1, ..., e_s], [Q_0,
    ..., Q_(s-1)]), matrices flattened row-major: e_m(theta(t)) = e_m / D^m
    and P_m(theta(t)) = Q_m / D^m, whose trace against V is the derivative
    of e_(m+1) at theta(t) along V.
    """
    s, big = isqrt(len(sites[0][1])), lcm(*(d for d, _ in sites))
    factors = [x.denominator * t - x.numerator for x in points]
    m = [0] * (s * s)
    for i, ((d, a), x) in enumerate(zip(sites, points)):
        c = big // d * x.denominator * prod(factors[:i] + factors[i + 1:])
        m = [u + c * v for u, v in zip(m, a)]
    rows = [m[a * s:(a + 1) * s] for a in range(s)]
    q = [int(a == b) for a in range(s) for b in range(s)]
    qs, es = [q], []
    for k in range(1, s + 1):
        cols = [q[b::s] for b in range(s)]
        if k == s:      # only the trace of N Q_(s-1) is needed
            es.append(sum(map(mul, m, [x for col in cols for x in col])) // k)
            break
        mq = m if k == 1 else [sum(map(mul, r, col)) for r in rows for col in cols]
        e = sum(mq[::s + 1]) // k
        q = [-x for x in mq]
        for a in range(0, s * s, s + 1):
            q[a] += e
        es.append(e)
        qs.append(q)
    return big * prod(factors), m, es, qs


@lru_cache(maxsize=MEMO_SIZE)
def _point_weights(points: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """q_i prod_(j != i) (q_j + |p_j|) per marked point x_i = p_i / q_i,
    given as the pair (p_i, q_i) (integers, which hash faster than Fractions):
    the 1-norm of q_i prod_(j != i) (q_j z - p_j), the factor of a_i in N(z)
    (`theta_char_polys`), read once per set of points."""
    return tuple(q * prod(v + abs(u) for j, (u, v) in enumerate(points) if j != i)
                 for i, (_, q) in enumerate(points))


def theta_mus(points: Sequence[Fraction], batch: Sequence[Sequence[tuple[int, Sequence[int]]]]
              ) -> list[int]:
    """The mu of `theta_majorants` of each tuple of residue sites in batch,
    the points' factors (`_point_weights`) read once."""
    weights = _point_weights(tuple([(x.numerator, x.denominator) for x in points]))
    return [sum([w * (big // d) * max(max(a), -min(a)) for w, (d, a) in zip(weights, sites)])
            for sites in batch for big in [lcm(*[d for d, _ in sites])]]


def theta_majorants(points: Sequence[Fraction], sites: Sequence[tuple[int, Sequence[int]]]
                    ) -> tuple[int, list[int]]:
    """(mu, q): bounds on the 1-norm nu, the sum of the absolute values of a
    polynomial's coefficients (nu(f + f') <= nu(f) + nu(f'), nu(f f') <=
    nu(f) nu(f')), of each entry of the N(z) of `theta_char_polys` and of
    each entry of its Faddeev-LeVerrier matrices Q_m: nu(e_m(N)) <= s^2 mu
    q[m-1] / m.  Pf(Q N) on so(2r), (2r-1)!! products of r entries, has nu
    at most (2r-1)!! mu^r.  mu is sum_i w_i (L / d_i) max |a_i| for the
    1-norms w_i of the points' factors (`theta_mus`)."""
    s, (mu,) = isqrt(len(sites[0][1])), theta_mus(points, [sites])
    q = [1]
    for m in range(1, s):
        q.append(-(-s * s * mu * q[-1] // m) + s * mu * q[-1])
    return mu, q


def balanced_digits(value: int, base: int, count: int) -> list[int]:
    """The digits c_o in (-base / 2, base / 2] of value = sum_(o < count) c_o
    base^o, lowest first: the coefficients of the integer polynomial f with
    f(base) = value if they lie below base / 2 (Kronecker substitution).
    AssertionError if value needs more than count digits."""
    digits = []
    for _ in range(count):
        c = value % base
        if 2 * c > base:
            c -= base
        digits.append(c)
        value = (value - c) // base
    if value:
        raise AssertionError(f"value has more than {count} balanced base-{base} digits")
    return digits


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
    coords: list[Vec] = field(init=False)       # coordinates of subalgebra, each solved
    perp_coords: list[Vec] = field(init=False)  # once, and of perp, as the kernel gives them

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
        self.perp_coords = perp_coordinates(self.form, self.subalgebra, self.model)
        self.perp = [self.model.from_coords(c) for c in self.perp_coords]
        # [h, h^perp] ⊆ h^perp by invariance: sigma([a, p], b) = -sigma(p, [a, b]) = 0

    @property
    def dim(self) -> int:
        return len(self.subalgebra)

    @cached_property
    def perp_support(self) -> tuple[int, list[list[tuple[int, int]]]]:
        """The integer support of h_x^perp (`AlgebraModel.integer_support` of
        `perp_coords`), from which residues are drawn."""
        return self.model.integer_support(self.perp_coords)

    @cached_property
    def annihilator(self) -> list[list[tuple[int, int]]]:
        """One integer functional on row-major entries per basis element h of
        h_x, a positive multiple of sigma(h, .) (`InvariantForm.integer_functional`):
        v lies in h_x^perp iff each vanishes at v."""
        return [self.form.integer_functional(h) for h in self.subalgebra]

    def annihilates(self, el: AlgebraElement) -> bool:
        """Whether el lies in h_x^perp, read off its integer numerators."""
        nums = el.integer_form[1]
        return not any(sum(f * nums[q] for q, f in phi) for phi in self.annihilator)


@lru_cache(maxsize=MEMO_SIZE)
def framing_spec(model: AlgebraModel, form: InvariantForm,
                 subalgebra: tuple[AlgebraElement, ...]) -> FramingSpec:
    """The one `FramingSpec` of (model, form, subalgebra basis) in this
    process, keyed by the model object, the form's value and the basis
    elements in order, so that its coordinates and annihilator are solved
    once; ValueError, each time, for a basis that frames nothing."""
    return FramingSpec(model, form, list(subalgebra))


def trivial_framing(model: AlgebraModel, form: InvariantForm) -> FramingSpec:
    return framing_spec(model, form, ())


def torus_framing(model: AlgebraModel, form: InvariantForm) -> FramingSpec:
    gid = model.group.group_id
    return framing_spec(model, form, tuple(AlgebraElement(t, gid) for t in model.torus))


def framing_specs(model: AlgebraModel, form: InvariantForm, framing,
                  n: int) -> tuple[FramingSpec, ...]:
    """The framings of n marked points from a selector; the one place a
    selector is read.

    framing: 'trivial' or 'torus' (one FramingSpec shared by every point), or
    a per-point list of subalgebra bases, each a list of matrices (one
    FramingSpec per point; an empty basis is a trivial framing).  Each
    FramingSpec comes from `framing_spec`.
    """
    if framing == "trivial":
        return (trivial_framing(model, form),) * n
    if framing == "torus":
        return (torus_framing(model, form),) * n
    if isinstance(framing, str):
        raise ValueError(f"unknown framing selector {framing!r}")
    return tuple(framing_spec(model, form, tuple(map(model.element, basis)))
                 for basis in framing)
