"""Exact linear algebra over the rationals.

Vectors are lists/tuples of Fraction, matrices are lists of rows.  Everything
here is deterministic: pivots are always chosen as the first nonzero entry in
column order, so bases produced from the same input are reproducible.

`mat_mul`, `mat_vec` and `mat_comb` only add, multiply and test entries for
zero, so they serve any entries with those operations: the symbolic
`gaudin.PolyObservable` matrices as well as Fractions.  A sum all of whose
terms vanish is the Fraction ZERO.

Kernels are found modulo the prime P = 2^61 - 1 and accepted only after an
exact check over Z.  `nullspace_sparse` scales each row to integers, takes
the RREF mod P with machine-size ints, and lifts each kernel entry by
rational reconstruction (Wang, Guy and Davenport, SIGSAM Bull. 1982) with
numerator and denominator bounded by 2^30.  The lift K has one vector per
column that is free mod P, with entry 1 there, 0 at the other free columns
and nonzero entries only further left: the staircase form.  It is returned
only if A K = 0 holds exactly over Z (Dixon, Numer. Math. 40, 1982), and then
it is exactly the basis the Fraction elimination gives:

* rank_P(A) <= rank_Q(A), since every minor of the integer rows reduces mod
  P.  K is independent (staircase) and lies in ker_Q, so ncols - rank_P <=
  dim ker_Q = ncols - rank_Q <= ncols - rank_P: K spans ker_Q.
* A subspace has exactly one staircase basis: its free columns are the
  positions where the dimension of ker ∩ span(e_0..e_j) grows, and a vector
  of it is fixed by its entries there.  So K equals the exact answer.

A rank mod P equal to the column count certifies an empty kernel with no
lift.  When a lift or the check fails, the kernel comes from the exact
Fraction elimination instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)

P = 2 ** 61 - 1         # the prime of modular elimination
LIFT_BOUND = 2 ** 30    # numerator and denominator bound of a lifted entry


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(n: int) -> Vec:
    return [ZERO] * n


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return [x + y for x, y in zip(a, b)]

def vec_scale(a: Sequence[Fraction], c: Fraction) -> Vec:
    return [c * x for x in a]

def vec_is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * cols
        for rk, brow in zip(row, b):
            if rk:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + rk * y
        out.append(acc)
    return out


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    return [sum((rk * vk for rk, vk in zip(row, v) if rk and vk), ZERO) for row in a]


def mat_comb(weights: Sequence, mats: Sequence[Mat]) -> Mat:
    """sum_j weights[j] mats[j]; zero weights and entries are skipped."""
    out = [[ZERO] * len(row) for row in mats[0]]
    for w, m in zip(weights, mats):
        if w:
            for orow, mrow in zip(out, m):
                for j, x in enumerate(mrow):
                    if x:
                        orow[j] = orow[j] + w * x
    return out


def over_common_denominator(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, [v d for v in values]) with d the least common denominator."""
    values = list(values)
    den = lcm(*{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_is_zero(a: Mat) -> bool:
    return all(vec_is_zero(r) for r in a)


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def inverse(a: Mat) -> Mat:
    n = len(a)
    aug = [list(row) + list(idr) for row, idr in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def sample_inverse(points: Sequence[Fraction], size: int, row) -> tuple[Vec, Mat]:
    """Sample points t_l = max(points) + l, l = 1..size, which avoid every
    point, and the inverse of the matrix whose rows are row(t_l)."""
    ts = [max(points) + l for l in range(1, size + 1)]
    return ts, inverse([row(t) for t in ts])


def sparse(v) -> dict[int, Fraction]:
    """The nonzero entries {column: value} of a dense or sparse vector."""
    if isinstance(v, dict):
        return {c: x for c, x in v.items() if x}
    return {c: x for c, x in enumerate(v) if x}


def sparse_rows(columns: Iterable, nrows: int) -> list[dict[int, Fraction]]:
    """The rows, as {column: value} dicts, of the matrix with these columns."""
    rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in sparse(col).items():
            rows[i][j] = x
    return rows


class Echelon:
    """Incrementally maintained echelon basis of a subspace of Q^n.

    Rows are stored sparsely (column -> value).  Supports reduction of
    vectors modulo the subspace and membership tests; insertion order plus
    smallest-column pivoting keeps results deterministic.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[dict[int, Fraction]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_sparse(self, v) -> dict[int, Fraction]:
        w = sparse(v)
        for row, p in zip(self.rows, self.pivots):
            f = w.get(p)
            if f:
                for c, y in row.items():
                    nv = w.get(c, ZERO) - f * y
                    if nv:
                        w[c] = nv
                    else:
                        w.pop(c, None)
        return w

    def reduce(self, v: Sequence[Fraction]) -> Vec:
        w = self.reduce_sparse(v)
        out = zeros(self.n)
        for c, x in w.items():
            out[c] = x
        return out

    def contains(self, v) -> bool:
        return not self.reduce_sparse(v)

    def insert(self, v) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        w = self.reduce_sparse(v)
        if not w:
            return False
        p = min(w)
        pv = w[p]
        if pv != 1:
            w = {c: x / pv for c, x in w.items()}
        for row in self.rows:
            f = row.get(p)
            if f:
                for c, y in w.items():
                    nv = row.get(c, ZERO) - f * y
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        self.rows.append(w)
        self.pivots.append(p)
        return True


def span_dim(vectors: Iterable[Sequence[Fraction]], n: int) -> int:
    ech = Echelon(n)
    for v in vectors:
        ech.insert(v)
    return ech.dim


def nullspace_sparse(rows: Iterable, ncols: int) -> list[Vec]:
    """Staircase basis of the right kernel {v : A v = 0}: one vector per free
    column, with unit entry at the free column, in column order.

    Rows are dense sequences or sparse {column: value} dicts.  The kernel is
    found mod P and lifted; it is returned only after A K = 0 is checked over
    Z, and the exact elimination answers whenever the lift or the check fails.
    """
    rows = [sparse(r) for r in rows]
    basis = _modular_kernel(rows, ncols)
    return _nullspace_exact(rows, ncols) if basis is None else basis


def _nullspace_exact(rows: Iterable, ncols: int) -> list[Vec]:
    """`nullspace_sparse` by sparse Fraction elimination and back-substitution."""
    ech = Echelon(ncols)
    for r in rows:
        ech.insert(r)
    pivset = set(ech.pivots)
    basis = []
    order = list(range(len(ech.rows)))
    for free in range(ncols):
        if free in pivset:
            continue
        v: dict[int, Fraction] = {free: ONE}
        for i in reversed(order):
            row = ech.rows[i]
            p = ech.pivots[i]
            s = ZERO
            for c, y in row.items():
                if c != p:
                    xv = v.get(c)
                    if xv:
                        s += y * xv
            if s:
                v[p] = -s / row[p]
        dense = zeros(ncols)
        for c, x in v.items():
            dense[c] = x
        basis.append(dense)
    return basis


def _rational_lift(x: int) -> Fraction | None:
    """n/d with n = d x mod P and |n|, d <= LIFT_BOUND, read off Euclid's
    remainder sequence of (P, x); None when the sequence offers none."""
    r0, r1, t0, t1 = P, x, 0, 1
    while r1 > LIFT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > LIFT_BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _modular_kernel(rows: list[dict[int, Fraction]], ncols: int) -> list[Vec] | None:
    """The staircase kernel from the RREF of A mod P, lifted entrywise and
    checked against A over Z; None when a lift or the check fails."""
    int_rows = []
    for r in rows:
        if r:
            int_rows.append(dict(zip(r, over_common_denominator(r.values())[1])))
    # RREF mod P, rows kept reduced: a pivot row is 1 at its pivot and
    # nonzero only there and at non-pivot columns to its right.
    red: dict[int, dict[int, int]] = {}
    for r in int_rows:
        w = {c: x % P for c, x in r.items() if x % P}
        for p in [c for c in w if c in red]:
            f = w.pop(p)
            for c, y in red[p].items():
                if c != p:
                    nv = (w.get(c, 0) - f * y) % P
                    if nv:
                        w[c] = nv
                    else:
                        w.pop(c, None)
        if not w:
            continue
        q = min(w)
        inv = pow(w[q], -1, P)
        w = {c: x * inv % P for c, x in w.items()}
        for row in red.values():
            f = row.pop(q, 0)
            if f:
                for c, y in w.items():
                    if c != q:
                        nv = (row.get(c, 0) - f * y) % P
                        if nv:
                            row[c] = nv
                        else:
                            row.pop(c, None)
        red[q] = w
    # K[free] = e_free - sum_p R[p][free] e_p, lifted entrywise; with no
    # free column, rank_P = ncols certifies the empty kernel.
    kernel = {c: {c: ONE} for c in range(ncols) if c not in red}
    if not kernel:
        return []
    for p, row in red.items():
        for c, y in row.items():
            if c != p:
                x = _rational_lift(P - y)
                if x is None:
                    return None
                kernel[c][p] = x
    # A K = 0 over Z, walking the columns of A that each kernel vector meets.
    a_cols: dict[int, list[tuple[int, int]]] = {}
    for i, r in enumerate(int_rows):
        for c, x in r.items():
            a_cols.setdefault(c, []).append((i, x))
    basis = []
    for v in kernel.values():
        nums = over_common_denominator(v.values())[1]
        acc: dict[int, int] = {}
        for c, x in zip(v, nums):
            for i, a in a_cols.get(c, ()):
                acc[i] = acc.get(i, 0) + a * x
        if any(acc.values()):
            return None
        dense = zeros(ncols)
        for c, x in v.items():
            dense[c] = x
        basis.append(dense)
    return basis


class LinSolver:
    """Repeated exact solves of C x = v for a fixed column collection C."""

    def __init__(self, columns: Sequence[Sequence[Fraction]], n: int):
        self.n = n
        self.k = len(columns)
        # Row-reduce [C | I_k-tracking] once; each solve is a reduction pass.
        self._ech = Echelon(n + self.k)
        for j, col in enumerate(columns):
            ext = list(col) + [ZERO] * self.k
            ext[n + j] = ONE
            self._ech.insert(ext)

    def coords(self, v: Sequence[Fraction]) -> Vec | None:
        """Coefficients x with sum_j x_j C_j = v, or None if v not in span."""
        w = self._ech.reduce(list(v) + [ZERO] * self.k)
        if not vec_is_zero(w[: self.n]):
            return None
        return [-c for c in w[self.n:]]


class Quotient:
    """Quotient ker / sub of subspaces sub ⊆ ker of Q^n, with projection.

    `kernel_vectors` is a basis of ker in staircase form: each vector has
    entry 1 at its own free column, which is its last nonzero entry, and
    entry 0 at the free columns of the others.  `nullspace_sparse` returns
    such a basis, and so does any list of distinct unit vectors; any other
    input raises ValueError.  A vector v of ker is then fixed by its entries
    at the free columns, v = sum_j v[free_j] K_j, so the quotient is one
    elimination of the `sub_vectors` (which must lie in ker) restricted to
    those columns.

    The quotient basis is chosen greedily from `kernel_vectors` in the order
    given: K_j is kept when it is independent of sub and of K_0..K_{j-1}.
    Restricted column j is keyed k-1-j, so the smallest-key pivots of the
    elimination are exactly the columns the greedy choice drops.
    """

    def __init__(self, n: int, sub_vectors: Sequence[Sequence[Fraction]],
                 kernel_vectors: Sequence[Sequence[Fraction]]):
        self.n = n
        k = len(kernel_vectors)
        kernel = [sparse(v) for v in kernel_vectors]
        free = [max(v) if v else None for v in kernel]
        self._key = {c: k - 1 - j for j, c in enumerate(free)}
        for j, (v, c) in enumerate(zip(kernel, free)):
            key = k - 1 - j
            if (c is None or v[c] != 1 or self._key[c] != key
                    or any(self._key.get(col, key) != key for col in v)):
                raise ValueError(f"kernel vector {j} is not in staircase form")
        # Entries off the free columns, by key.
        self._tails = [{col: x for col, x in v.items() if col != c}
                       for v, c in zip(reversed(kernel), reversed(free))]
        self._ech = Echelon(k)
        for v in sub_vectors:
            r = self._restrict(v)
            if r is None:
                raise ValueError("sub vector does not lie in the span of the kernel vectors")
            self._ech.insert(r)
        pivots = set(self._ech.pivots)
        self._kept = [k - 1 - j for j in range(k) if k - 1 - j not in pivots]
        self.basis: list[Vec] = [list(kernel_vectors[k - 1 - key]) for key in self._kept]
        self.dim = len(self.basis)

    def _restrict(self, v) -> dict[int, Fraction] | None:
        """Free-column entries of v by key, or None if v is not in ker."""
        rest = {}
        r = {}
        for c, x in sparse(v).items():
            key = self._key.get(c)
            if key is None:
                rest[c] = x
            else:
                r[key] = x
        for key, x in r.items():
            for c, y in self._tails[key].items():
                nv = rest.get(c, ZERO) - x * y
                if nv:
                    rest[c] = nv
                else:
                    rest.pop(c, None)
        return None if rest else r

    def coords(self, v) -> Vec | None:
        """Coefficients x with sum_j x_j kernel_vectors[j] = v, or None if v
        is not in their span: read off the free columns, checked exactly."""
        r = self._restrict(v)
        if r is None:
            return None
        return [r.get(key, ZERO) for key in range(len(self._tails) - 1, -1, -1)]

    def project(self, v: Sequence[Fraction]) -> Vec:
        """Class coordinates of v in the quotient basis."""
        r = self._restrict(v)
        if r is None:
            raise ValueError("vector does not lie in the span of the quotient presentation")
        w = self._ech.reduce_sparse(r)
        return [w.get(key, ZERO) for key in self._kept]
