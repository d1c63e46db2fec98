"""Exact linear algebra over the rationals.

Vectors are lists/tuples of Fraction, matrices are lists of rows.  Everything
here is deterministic: pivots are always chosen as the first nonzero entry in
column order, so bases produced from the same input are reproducible.

`mat_mul`, `mat_vec` and `mat_comb` only add, multiply and test entries for
zero, so they serve any entries with those operations: the symbolic
`gaudin.PolyObservable` matrices as well as Fractions.  A sum all of whose
terms vanish is the Fraction ZERO.

A sparse vector is a dict {column: value} of the nonzero entries (`sparse`
and `dense` convert); kernels are sparse.  `nullspace_sparse` scales each row
to integers, takes the RREF mod P = 2^61 - 1 with machine-size ints and lifts
each kernel entry by rational reconstruction (Wang, Guy and Davenport, SIGSAM
Bull. 1982) with numerator and denominator at most floor(sqrt(M / 2)), for
the modulus M = P.  The lift K has one vector per column that is free mod P,
with entry 1 there, 0 at the other free columns and nonzero entries only
further left: the staircase form.  It is returned only if A K = 0 holds
exactly over Z (Dixon, Numer. Math. 40, 1982), and then it is exactly the
basis the Fraction elimination gives:

* rank_P(A) <= rank_Q(A), since every minor of the integer rows reduces mod
  P.  K is independent (staircase) and lies in ker_Q, so ncols - rank_P <=
  dim ker_Q = ncols - rank_Q <= ncols - rank_P: K spans ker_Q.
* A subspace has exactly one staircase basis: its free columns are the
  positions where the dimension of ker ∩ span(e_0..e_j) grows, and a vector
  of it is fixed by its entries there.  So K equals the exact answer.

A rank mod P equal to the column count certifies an empty kernel with no
lift.  When a lift or the check fails, the RREF is repeated mod the next of
PRIMES, combined by the Chinese remainder theorem, and lifted and checked
again with M the product of the primes so far.  Pivots that differ from
those mod P, or the end of PRIMES, leave the kernel to the exact Fraction
elimination.  `rank` is the column count less the dimension of this kernel,
and `Quotient` takes its elimination from it too.

Rows and vectors may hold ints where Fractions would be: an integer sparse
vector times a denominator is how the hot paths (`Quotient`, the
deformation cone) keep their arithmetic out of `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)

# The primes of modular elimination, tried in this order.
PRIMES = (2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45, 2 ** 61 - 229)
P = PRIMES[0]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(n: int) -> Vec:
    return [ZERO] * n


def dense(v: dict[int, Fraction], n: int) -> Vec:
    """The dense vector of length n with the entries of the sparse vector v."""
    out = zeros(n)
    for c, x in v.items():
        out[c] = x
    return out


def add_scaled(acc: dict[int, Fraction], f, v: dict) -> None:
    """acc += f v for sparse vectors, in place; entries that cancel are dropped."""
    for c, y in v.items():
        x = acc.get(c)
        nv = f * y if x is None else x + f * y
        if nv:
            acc[c] = nv
        else:
            acc.pop(c, None)


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


def integer_vectors(vectors: Iterable) -> tuple[int, list[dict[int, int]]]:
    """(d, [d v for v in vectors]) for dense or sparse vectors v, as sparse
    integer vectors, with d the least common denominator of all entries."""
    vectors = [sparse(v) for v in vectors]
    den = lcm(*{x.denominator for v in vectors for x in v.values()})
    return den, [{c: x.numerator * (den // x.denominator) for c, x in v.items()}
                 for v in vectors]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_is_zero(a: Mat) -> bool:
    return all(vec_is_zero(r) for r in a)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a matrix given by dense rows: the column count less the
    dimension of the kernel from `nullspace_sparse`, which is exact because
    that kernel is checked over Z."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    return ncols - len(nullspace_sparse(rows, ncols))


def inverse(a: Mat) -> Mat:
    """The inverse of a square matrix, by fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968) in integers.

    Row i of a is scaled to integers, r_i = d_i a_i, so a^-1 = r^-1 diag(d).
    Step k takes the first row at or below k with a nonzero entry p_k in
    column k as pivot row and replaces every other row of [r | I] by
    (p_k row - row[k] pivot_row) / p_(k-1), an exact division (p_(-1) = 1).
    At the end the left block is p I and the right block p r^-1, for the
    last pivot p; only the n^2 entries of the result are Fractions.  Raises
    ValueError if a is singular.
    """
    n = len(a)
    dens, rows = [], []
    for i, row in enumerate(a):
        d, ints = over_common_denominator(row)
        dens.append(d)
        rows.append(ints + [int(i == j) for j in range(n)])
    prev = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if rows[i][k]), None)
        if pr is None:
            raise ValueError("matrix is singular")
        rows[k], rows[pr] = rows[pr], rows[k]
        pivot_row = rows[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = p
    return [[Fraction(x * d, prev) for x, d in zip(row[n:], dens)] for row in rows]


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
                add_scaled(w, -f, row)
        return w

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
                add_scaled(row, -f, w)
        self.rows.append(w)
        self.pivots.append(p)
        return True


def nullspace_sparse(rows: Iterable, ncols: int) -> list[dict[int, Fraction]]:
    """Staircase basis of the right kernel {v : A v = 0}, as sparse vectors:
    one per free column, with unit entry at the free column, in column order.

    Rows are dense sequences or sparse {column: value} dicts, with Fraction
    or int entries; each row is scaled to integers.  The kernel is found mod
    PRIMES and lifted; it is returned only after A K = 0 is checked
    over Z, and the exact elimination answers whenever that fails.
    """
    rows = [sparse(r) for r in rows]
    basis = _modular_kernel(rows, ncols)
    return _nullspace_exact(rows, ncols) if basis is None else basis


def _nullspace_exact(rows: Iterable, ncols: int) -> list[dict[int, Fraction]]:
    """`nullspace_sparse` by sparse Fraction elimination.  `Echelon` keeps its
    rows reduced (1 at the pivot, 0 at every other pivot), so the kernel
    vector of a free column c is e_c - sum_p row_p[c] e_p."""
    ech = Echelon(ncols)
    for r in rows:
        ech.insert({c: frac(x) for c, x in sparse(r).items()})      # int rows too
    pivots = set(ech.pivots)
    basis = {c: {c: ONE} for c in range(ncols) if c not in pivots}
    for row, p in zip(ech.rows, ech.pivots):
        for c, y in row.items():
            if c != p:
                basis[c][p] = -y
    return list(basis.values())


def _integer_row(r: dict) -> dict[int, int]:
    """The sparse vector r times the least common denominator of its entries;
    a row of ints as it is."""
    if all(type(x) is int for x in r.values()):
        return r
    den = lcm(*{x.denominator for x in r.values()})
    return {c: x.numerator * (den // x.denominator) for c, x in r.items()}


def _rational_lift(x: int, m: int = P) -> Fraction | None:
    """n/d with n = d x mod m and |n|, d <= floor(sqrt(m / 2)), read off
    Euclid's remainder sequence of (m, x); None when the sequence offers none."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _rref_mod(int_rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """RREF mod p, by pivot column: a pivot row is 1 at its pivot and nonzero
    only there and at non-pivot columns to its right."""
    red: dict[int, dict[int, int]] = {}
    for r in int_rows:
        w = {c: x % p for c, x in r.items() if x % p}
        for q in [c for c in w if c in red]:
            _sub_mod(w, w.pop(q), red[q], q, p)
        if not w:
            continue
        q = min(w)
        inv = pow(w[q], -1, p)
        w = {c: x * inv % p for c, x in w.items()}
        for row in red.values():
            f = row.pop(q, 0)
            if f:
                _sub_mod(row, f, w, q, p)
        red[q] = w
    return red


def _sub_mod(acc: dict[int, int], f: int, row: dict[int, int], skip: int, p: int) -> None:
    """acc -= f row mod p in place, leaving out the column `skip`."""
    for c, y in row.items():
        if c != skip:
            nv = (acc.get(c, 0) - f * y) % p
            if nv:
                acc[c] = nv
            else:
                acc.pop(c, None)


def _modular_kernel(rows: list[dict[int, Fraction]],
                    ncols: int) -> list[dict[int, Fraction]] | None:
    """The staircase kernel from the RREF of A mod PRIMES, combined by CRT,
    lifted entrywise and checked against A over Z; None when the pivots of
    two primes differ or no number of PRIMES gives a checked lift."""
    int_rows = [_integer_row(r) for r in rows if r]
    a_cols: dict[int, list[tuple[int, int]]] = {}
    for i, r in enumerate(int_rows):
        for c, x in r.items():
            a_cols.setdefault(c, []).append((i, x))
    modulus, pivots, residues = 1, None, {}
    for p in PRIMES:
        red = _rref_mod(int_rows, p)
        if pivots is None:
            pivots = set(red)
            # K[free] = e_free - sum_q R[q][free] e_q; with no free column,
            # rank_P = ncols certifies the empty kernel.
            if len(pivots) == ncols:
                return []
        elif set(red) != pivots:
            return None
        # residues of -R[q][free] mod the primes so far, combined by CRT
        new = {(q, c): -y % p for q, row in red.items() for c, y in row.items() if c != q}
        if modulus == 1:
            residues = new
        else:
            inv = pow(modulus, -1, p)
            for key in residues.keys() | new.keys():
                x = residues.get(key, 0)
                residues[key] = x + modulus * ((new.get(key, 0) - x) * inv % p)
        modulus *= p
        kernel = {c: {c: ONE} for c in range(ncols) if c not in pivots}
        for (q, c), x in residues.items():
            y = _rational_lift(x, modulus)
            if y is None:
                break
            if y:
                kernel[c][q] = y
        else:
            # A K = 0 over Z, walking the columns of A that each vector meets
            for v in kernel.values():
                acc: dict[int, int] = {}
                for c, x in zip(v, over_common_denominator(v.values())[1]):
                    for i, a in a_cols.get(c, ()):
                        acc[i] = acc.get(i, 0) + a * x
                if any(acc.values()):
                    break
            else:
                return list(kernel.values())
    return None


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
        w = self._ech.reduce_sparse(list(v) + [ZERO] * self.k)
        if any(c < self.n for c in w):
            return None
        return [-w.get(self.n + j, ZERO) for j in range(self.k)]


class Quotient:
    """Quotient ker / sub of subspaces sub ⊆ ker of Q^n, with projection.

    `kernel_vectors` (dense or sparse) is a basis of ker in staircase form:
    each vector has entry 1 at its own free column, which is its last
    nonzero entry, and entry 0 at the free columns of the others.
    `nullspace_sparse` returns such a basis, and so does any list of
    distinct unit vectors; any other input raises ValueError.  A vector v of
    ker is then fixed by its entries at the free columns, v = sum_j v[free_j]
    K_j.  `basis` holds kernel vectors as given.

    Everything past the input is held in integers.  The entries of the K_j
    off their free columns, the tails, are kept over one common denominator
    L, as integer tails T_j.  A vector v, scaled to integers, lies in ker
    exactly when L (v off the free columns) = sum_j v[free_j] T_j holds over
    Z, with no modulus and no tolerance; its coordinates are then its
    free-column entries (`int_coords`, `coords`).

    The `sub_vectors` (which must lie in ker) restricted to the free columns
    are the rows of one elimination, `nullspace_sparse` on k columns.
    Restriction is injective on ker, so `rank` is the dimension of sub: when
    the sub vectors are the columns of a map into ker, its kernel has
    dimension len(sub_vectors) - rank with no second elimination.
    Restricted column j is keyed k-1-j.  The kernel of those rows has one
    staircase vector R_f per non-pivot key f, and the pivots are the
    smallest keys of the row space, which are exactly the columns the greedy
    choice below drops: K_j is kept when it is independent of sub and of
    K_0..K_{j-1}.  The class coordinate of v at a kept key f is the dot
    product of v's restricted entries with R_f.
    """

    def __init__(self, n: int, sub_vectors: Sequence[Sequence[Fraction]],
                 kernel_vectors: Sequence[Sequence[Fraction]]):
        self.n = n
        k = len(kernel_vectors)
        kernel = [sparse(v) for v in kernel_vectors]
        free = [max(v) if v else None for v in kernel]
        self._index = {c: j for j, c in enumerate(free)}
        for j, (v, c) in enumerate(zip(kernel, free)):
            if (c is None or v[c] != 1 or self._index[c] != j
                    or any(self._index.get(col, j) != j for col in v)):
                raise ValueError(f"kernel vector {j} is not in staircase form")
        # L and the integer tails T_j
        den = self._den = lcm(*{x.denominator for v in kernel for x in v.values()})
        self._tails = [{col: x.numerator * (den // x.denominator)
                        for col, x in v.items() if col != c} for v, c in zip(kernel, free)]
        rows = []
        for v in sub_vectors:       # each scaled to integers: only their span counts
            x = self.int_coords(_integer_row(sparse(v)))
            if x is None:
                raise ValueError("sub vector does not lie in the span of the kernel vectors")
            rows.append({k - 1 - j: y for j, y in x.items()})
        reducers = nullspace_sparse(rows, k)
        self.rank = k - len(reducers)
        # (d, d R_f) for the kept keys f, largest key first, indexed like the kernel
        self._reducers = [integer_vectors([{k - 1 - key: y for key, y in v.items()}])
                          for v in reversed(reducers)]
        self.basis = [kernel_vectors[k - 1 - max(v)] for v in reversed(reducers)]
        self.dim = len(self.basis)

    def int_coords(self, v: dict[int, int]) -> dict[int, int] | None:
        """Coefficients x with sum_j x_j kernel_vectors[j] = v for an integer
        sparse vector v, as the sparse integer vector {j: x_j} of v's
        free-column entries, or None if v is not in the span."""
        den, index, tails = self._den, self._index, self._tails
        rest, x = {}, {}
        for c, y in v.items():
            if y:
                j = index.get(c)
                if j is None:
                    rest[c] = den * y
                else:
                    x[j] = y
        for j, y in x.items():
            for c, t in tails[j].items():
                rest[c] = rest.get(c, 0) - y * t
        return None if any(rest.values()) else x

    def coords(self, v) -> dict[int, Fraction] | None:
        """`int_coords` of a dense or sparse rational vector v, as Fractions."""
        d, [w] = integer_vectors([v])
        x = self.int_coords(w)
        return None if x is None else {j: Fraction(y, d) for j, y in x.items()}

    def project(self, v: Sequence[Fraction]) -> Vec:
        """Class coordinates of v in the quotient basis."""
        d, [w] = integer_vectors([v])
        x = self.int_coords(w)
        if x is None:
            raise ValueError("vector does not lie in the span of the quotient presentation")
        return [Fraction(sum(y * x.get(j, 0) for j, y in red.items()), d * rden)
                for rden, [red] in self._reducers]
