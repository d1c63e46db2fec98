"""Exact linear algebra over the rationals.

Vectors are lists/tuples of Fraction, matrices are lists of rows.  Everything
here is deterministic: pivots are always chosen as the first nonzero entry in
column order, so bases produced from the same input are reproducible.

`mat_mul`, `mat_vec` and `mat_comb` only add, multiply and test entries for
zero, so they serve any entries with those operations, symbolic polynomials
as well as Fractions.  A sum all of whose
terms vanish is the Fraction ZERO.

A sparse vector is a dict {column: value} of the nonzero entries (`sparse`
and `dense` convert); kernels are sparse.  There is one elimination,
`_eliminate`: fraction-free Gauss-Jordan in Python integers, with each row's
content divided out where Bareiss (Math. Comp. 22, 1968) divides by the
previous pivot.  `Staircase.kernel` (in integers; `nullspace_sparse` reads
its vectors as Fractions), `rank`, `Quotient` and `integer_solve` (which
`inverse` calls on [a | I]) run it on a matrix, `Echelon` row by row, and
`LinSolver` solves against its rows.  `BlockEchelon` runs it once on
[A | I] for a fixed block A, and then reads ker [A | B] for each B off
those rows with one elimination of the rows of B that A's cokernel sees.
An integer row enters `_eliminate` as a copy (`_integer_vector`).
Nothing is rounded or taken modulo a prime, so no certificate is needed, and
the reduced echelon form is unique, so any exact method gives the same kernels.

Rows and vectors may hold ints where Fractions would be: an integer sparse
vector times a denominator is how the hot paths (`Staircase`, `Quotient`,
the deformation cone) keep their arithmetic out of `Fraction`.  A kernel
stays a `Staircase`, integer tails over one denominator, from the
elimination to `Quotient`, which takes its kernel in that form only and
makes Fractions only for the basis vectors that are read.  A matrix over
one denominator d is the pair (d, integer rows), as `integer_solve`
returns its solution; the deformation matrices keep that form from the
cup product to the checks, and `rank` and `integer_solve` take its rows as
they are.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)

# The entries each per-process memo of the package keeps (`liealg`, `curve`,
# `deformation`): more than the group, framing and point shapes one batch of
# jobs meets, so that a batch hits, and few enough that the memos stay small.
MEMO_SIZE = 32


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


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rank(rows: Iterable) -> int:
    """Rank of a matrix given by dense or sparse rows: its number of pivots."""
    return len(_eliminate(rows))


def integer_solve(a: Mat, b: Mat) -> tuple[int, list[list[int]]]:
    """(d, d X) with integer entries, for X with a X = b and square a: the
    right block of the reduced row echelon form of [a | b], from one
    `_eliminate`, over the lcm d of its pivots.  ValueError if a is singular."""
    n, k = len(a), len(b[0]) if b else 0
    red = _eliminate({**sparse(row), **{n + j: x for j, x in enumerate(brow) if x}}
                     for row, brow in zip(a, b))
    if any(q not in red for q in range(n)):
        raise ValueError("matrix is singular")
    den = lcm(*(red[q][q] for q in range(n)))
    return den, [[red[q].get(n + j, 0) * (den // red[q][q]) for j in range(k)]
                 for q in range(n)]


def inverse(a: Mat) -> Mat:
    """The inverse of a square matrix, `integer_solve(a, I)` as Fractions;
    ValueError if singular."""
    den, x = integer_solve(a, identity(len(a)))
    return [[Fraction(y, den) for y in row] for row in x]


def sparse(v) -> dict[int, Fraction]:
    """The nonzero entries {column: value} of a dense or sparse vector."""
    if isinstance(v, dict):
        return {c: x for c, x in v.items() if x}
    return {c: x for c, x in enumerate(v) if x}


class Echelon:
    """A subspace of Q^n built one vector at a time by `_eliminate`'s step."""

    def __init__(self, n: int):
        self.n = n
        self._red: dict[int, dict[int, int]] = {}

    def contains(self, v) -> bool:
        return not _reduce(self._red, _integer_vector(v)[1])

    def insert(self, v) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        return _insert(self._red, _integer_vector(v)[1])


def nullspace_sparse(rows: Iterable, ncols: int) -> list[dict[int, Fraction]]:
    """Staircase basis of the right kernel {v : A v = 0}, as sparse Fraction
    vectors: the vectors of `Staircase.kernel`, in column order.  Rows are
    dense sequences or sparse {column: value} dicts, with Fraction or int
    entries.
    """
    return list(Staircase.kernel(rows, ncols))


class Staircase:
    """A basis K_0, ..., K_{k-1} of a subspace of Q^n in staircase form, held
    in integers: K_j has entry 1 at its free column free[j], which is its
    last nonzero entry, and entry 0 at the free columns of the others.  The
    entries of the K_j off their free columns, the tails, are kept over one
    common denominator `den` as integer tails T_j: K_j = e_free[j] + T_j / den.

    A vector v of the span is fixed by its free-column entries, v = sum_j
    v[free_j] K_j, so an integer vector v lies in the span exactly when
    den (v off the free columns) = sum_j v[free_j] T_j holds over Z, with no
    modulus and no tolerance (`int_coords`).

    `kernel` reads a right kernel off `_eliminate`'s integer rows with no
    Fraction; the unit vectors e_c, c in cs, are
    `Staircase(cs, 1, [{} for _ in cs])`.
    """

    def __init__(self, free: list[int], den: int, tails: list[dict[int, int]]):
        self.free, self.den, self.tails = free, den, tails
        self._index = {c: j for j, c in enumerate(free)}

    @classmethod
    def kernel(cls, rows: Iterable, ncols: int) -> "Staircase":
        """The right kernel of the matrix with the given dense or sparse rows:
        one vector per free column c of the reduced echelon form,
        K_c = e_c - sum_q (R_q[c] / R_q[q]) e_q over its pivot rows R_q, in
        column order.  Each R_q is primitive, so den, the lcm of the pivots,
        is the least common denominator of the tails."""
        red = _eliminate(rows)
        den = lcm(*(row[q] for q, row in red.items()))
        tails = {c: {} for c in range(ncols) if c not in red}
        for q, row in red.items():
            f = den // row[q]
            for c, y in row.items():
                if c != q:
                    tails[c][q] = -f * y
        return cls(list(tails), den, list(tails.values()))

    def __len__(self) -> int:
        return len(self.free)

    def vector(self, j: int) -> dict[int, Fraction]:
        """K_j as a sparse Fraction vector."""
        den = self.den
        return {self.free[j]: ONE, **{c: Fraction(t, den) for c, t in self.tails[j].items()}}

    def __iter__(self):
        """The vectors K_j in order, each made by `vector` when read."""
        return map(self.vector, range(len(self)))

    @cached_property
    def scaled(self) -> list[dict[int, int]]:
        """The integer vectors den K_j."""
        return [{c: self.den, **tail} for c, tail in zip(self.free, self.tails)]

    def int_coords(self, v: dict[int, int]) -> dict[int, int] | None:
        """Coefficients x with sum_j x_j K_j = v for an integer sparse vector
        v, as the sparse integer vector {j: x_j} of v's free-column entries,
        or None if v is not in the span."""
        den, index, tails = self.den, self._index, self.tails
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
        d, w = _integer_vector(v)
        x = self.int_coords(w)
        return None if x is None else {j: Fraction(y, d) for j, y in x.items()}


def _integer_vector(v) -> tuple[int, dict[int, int]]:
    """(d, d v) as a new sparse integer vector, for a dense or sparse vector
    v and d the least common denominator of its entries.  A dict of ints is
    copied with its zeros dropped in one pass, with d = 1."""
    if isinstance(v, dict):
        w = {}
        for c, x in v.items():
            if type(x) is not int:
                break
            if x:
                w[c] = x
        else:
            return 1, w
    w = sparse(v)
    if all(type(x) is int for x in w.values()):
        return 1, w
    den = lcm(*{x.denominator for x in w.values()})
    return den, {c: x.numerator * (den // x.denominator) for c, x in w.items()}


def _eliminate(rows: Iterable) -> dict[int, dict[int, int]]:
    """The reduced row echelon form of the matrix with the given dense or
    sparse rows, in integers, as {pivot column q: R_q}: each R_q is primitive
    with R_q[q] > 0, zero at every other pivot column and nonzero only at q
    and at free columns to its right."""
    red: dict[int, dict[int, int]] = {}
    for r in rows:
        _insert(red, _integer_vector(r)[1])
    return red


def _insert(red: dict[int, dict[int, int]], w: dict[int, int]) -> bool:
    """One step of `_eliminate`: add the integer sparse row w (used up) to its
    pivot rows red in place; returns True if the rank grew.  w is cleared at
    every pivot column, divided by its content (the gcd of its entries, signed
    so that its first nonzero entry is positive) and takes that column q as
    its pivot; q is cleared from the other pivot rows, as is their content."""
    if not _reduce(red, w):
        return False
    q = min(w)
    _divide_content(w, q)
    for q0, row in red.items():
        f = row.pop(q, 0)
        if f:
            _clear(row, f, w, q)
            _divide_content(row, q0)
    red[q] = w
    return True


def _reduce(red: dict[int, dict[int, int]], w: dict[int, int]) -> dict[int, int]:
    """w cleared in place at every pivot column of red; empty iff in their span."""
    for q in [c for c in w if c in red]:
        _clear(w, w.pop(q), red[q], q)
    return w


def _clear(w: dict[int, int], f: int, row: dict[int, int], q: int) -> None:
    """w <- (p / g) w - (f / g) row in place, for the pivot p = row[q] and
    g = gcd(p, f), where f is the entry of w at q, already taken out of w."""
    p = row[q]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for c in w:
            w[c] *= a
    for c, y in row.items():
        if c != q:
            nv = w.get(c, 0) - b * y
            if nv:
                w[c] = nv
            else:
                del w[c]


def _divide_content(w: dict[int, int], q: int) -> None:
    """Divide w in place by the gcd of its entries, signed like w[q]."""
    g = gcd(*w.values())
    if w[q] < 0:
        g = -g
    if g != 1:
        for c in w:
            w[c] //= g


class BlockEchelon:
    """ker [A | f C / d] for one integer matrix A, given by its sparse rows
    over its first n_a columns, one integer f and any integer columns C over
    their denominator d, read off one elimination of A.

    [A | f C / d] has the row space of [d A | f C].  One `_eliminate` of
    [A | I] gives an invertible integer M with M A = [R; 0]: pivot rows
    [R_q | E_q] with pivots q in A's columns, and cokernel rows [0 | psi_p].
    So [d A | f C] has the row space of [d R | f E C] and [0 | f psi C], and
    its reduced echelon form (`kernel`) needs one elimination of the small
    psi C alone (none where A has no cokernel), whose pivot rows are cleared
    from the rows [d R_q | f E_q C].  Each stays R_q times a scale beside its
    C part, since the cleared rows are zero on A's columns, so its tails at
    the free columns of A are -den R_q[c] / R_q[q] whatever the scale.  The
    reduced echelon form is unique, so the `Staircase` is the one
    `Staircase.kernel` gives for [A | f C / d]."""

    def __init__(self, rows: Sequence[dict[int, int]], n_a: int, f: int):
        self.n_a = n_a
        t = len(rows)
        red = _eliminate({**row, n_a + r: 1} for r, row in enumerate(rows))
        pivots = self.pivots = sorted(q for q in red if q < n_a)
        self.leads = [red[q][q] for q in pivots]
        self.contents = [gcd(*(y for c, y in red[q].items() if c < n_a)) for q in pivots]
        self.free = [c for c in range(n_a) if c not in red]
        # free column c of A -> [(q, num, e)] with num / e = R_q[c] / R_q[q] in lowest terms
        self.free_tails: dict[int, list[tuple[int, int, int]]] = {c: [] for c in self.free}
        for q in pivots:
            row = red[q]
            for c, y in row.items():
                if c < n_a and c != q:
                    g = gcd(y, row[q])
                    self.free_tails[c].append((q, y // g, row[q] // g))
        # row r of C -> [(i, f E_{pivots[i]}[r])], and [(p, psi_p[r])]
        self.uses: list[list[tuple[int, int]]] = [[] for _ in range(t)]
        for i, q in enumerate(pivots):
            for c, y in red[q].items():
                if c >= n_a:
                    self.uses[c - n_a].append((i, f * y))
        cokernel = [row for q, row in red.items() if q >= n_a]
        self.n_cokernel = len(cokernel)
        self.cokernel_uses: list[list[tuple[int, int]]] = [[] for _ in range(t)]
        for p, row in enumerate(cokernel):
            for c, y in row.items():
                self.cokernel_uses[c - n_a].append((p, y))

    def kernel(self, den: int, cols: Sequence[dict[int, int]]) -> Staircase:
        """ker [A | f C / d] for d = den and the integer columns C = cols."""
        n_a = self.n_a
        parts = self._products(self.uses, len(self.pivots), cols)   # f E_q C
        low = _eliminate(self._products(self.cokernel_uses, self.n_cokernel, cols))
        leads, contents = [], []
        for i, part in enumerate(parts):
            scale = den
            for p, row in low.items():
                x = part.pop(p, 0)
                if x:
                    scale *= row[p] // gcd(row[p], x)
                    _clear(part, x, row, p)
            g = gcd(scale * self.contents[i], *part.values())
            leads.append(scale * self.leads[i] // g)
            contents.append(g)
        big = lcm(*leads, *(row[p] for p, row in low.items()))
        tails = {c: {q: -(big // e) * num for q, num, e in entries}
                 for c, entries in self.free_tails.items()}
        for c in range(n_a, n_a + len(cols)):
            if c not in low:
                tails[c] = {}
        for q, part, lead, g in zip(self.pivots, parts, leads, contents):
            h = big // lead
            for c, y in part.items():
                if y:
                    tails[c][q] = -h * (y // g)
        for p, row in low.items():
            h = big // row[p]
            for c, y in row.items():
                if c != p:
                    tails[c][p] = -h * y
        return Staircase(list(tails), big, list(tails.values()))

    def _products(self, uses, count: int, cols) -> list[dict[int, int]]:
        """The rows sum_r w[r] C[r] for the row vectors w that `uses` lists
        by r, keyed by C's columns after A's."""
        out: list[dict[int, int]] = [{} for _ in range(count)]
        if count:
            for k, col in enumerate(cols, self.n_a):
                for r, x in col.items():
                    for i, e in uses[r]:
                        row = out[i]
                        row[k] = row.get(k, 0) + e * x
        return out


class LinSolver:
    """Repeated exact solves of C x = v for a fixed column collection C.

    `_eliminate` reduces the rows [C_j | e_j] once.  A solve reads its pivot
    rows R_q, q < n, as S_q = (L / R_q[q]) R_q for the lcm L of their pivots;
    each is zero at every other pivot column, so acc = L d v - sum_q (d v)[q]
    S_q for v scaled to integers d v is zero below n exactly when v is in the
    span, and then x_j = -acc[n + j] / (L d)."""

    def __init__(self, columns: Sequence[Sequence[Fraction]], n: int):
        self.n = n
        self.k = len(columns)
        red = _eliminate({**sparse(col), n + j: 1} for j, col in enumerate(columns))
        den = self._den = lcm(*(row[q] for q, row in red.items() if q < n))
        self._rows = [(q, {c: den // row[q] * y for c, y in row.items()})
                      for q, row in red.items() if q < n]

    def int_coords(self, v: Sequence) -> tuple[int, list[int]] | None:
        """(e, e x) with integer entries, for the coefficients x with
        sum_j x_j C_j = v, or None if v is not in the span."""
        d, w = _integer_vector(v)
        n, den = self.n, self._den
        acc = {c: den * y for c, y in w.items()}
        for q, row in self._rows:
            f = w.get(q)
            if f:
                for c, y in row.items():
                    acc[c] = acc.get(c, 0) - f * y
        if any(y for c, y in acc.items() if c < n):
            return None
        return den * d, [-acc.get(n + j, 0) for j in range(self.k)]

    def coords(self, v: Sequence[Fraction]) -> Vec | None:
        """Coefficients x with sum_j x_j C_j = v, or None if v not in span."""
        solved = self.int_coords(v)
        return None if solved is None else [Fraction(x, solved[0]) for x in solved[1]]

    @cached_property
    def functionals(self) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """(L, {q: [(j, F_j[q])]}) with x_j = sum_q v_q F_j[q] / L the
        coefficients of every v in the span, read off the pivot rows: the
        integer functionals that `int_coords` applies."""
        n = self.n
        return self._den, {q: [(c - n, y) for c, y in row.items() if c >= n]
                           for q, row in self._rows}


class Quotient:
    """Quotient ker / sub of subspaces sub ⊆ ker of Q^n, with projection.

    `kernel_vectors` is a basis of ker in staircase form, a `Staircase`,
    taken as it is; its length is the number of kernel vectors.  Membership
    and coordinates are the staircase's integer check (`coords`).  `basis`
    holds the kept kernel vectors, as sparse Fraction vectors made when read.

    The `sub_vectors` (which must lie in ker) restricted to the free columns
    are the integer rows of one `_eliminate` on k columns.  Restriction is
    injective on ker, so `rank`, the number of pivots, is the dimension of
    sub: when the sub vectors are the columns of a map into ker, its kernel
    has dimension len(sub_vectors) - rank with no second elimination.
    Restricted column j is keyed k-1-j.  The pivots are the smallest keys of
    the row space, which are exactly the columns the greedy choice below
    drops: K_j is kept when it is independent of sub and of K_0..K_{j-1}.
    Each kept key f has the staircase kernel vector R_f of those rows, read
    off the pivot rows and held as an integer vector over `class_den`, the
    lcm of their pivots, and the class coordinate of v at f is the dot
    product of v's restricted entries with R_f.  `int_project` walks the
    support of those entries, through the R_f entries of each kernel index.
    """

    def __init__(self, n: int, sub_vectors: Sequence[Sequence[Fraction]],
                 kernel_vectors: Staircase):
        self.n = n
        kernel = self.kernel = kernel_vectors
        k = len(kernel)
        red: dict[int, dict[int, int]] = {}
        for v in sub_vectors:       # each scaled to integers: only their span counts
            x = kernel.int_coords(_integer_vector(v)[1])
            if x is None:
                raise ValueError("sub vector does not lie in the span of the kernel vectors")
            _insert(red, {k - 1 - j: y for j, y in x.items()})
        self.rank = len(red)
        # class_den R_f = class_den e_f - sum_q (class_den / P_q[q]) P_q[f] e_q
        # for the kept keys f, largest key first, over the pivot rows P_q
        kept = [f for f in reversed(range(k)) if f not in red]
        position = {f: i for i, f in enumerate(kept)}
        den = self.class_den = lcm(*(row[q] for q, row in red.items()))
        # kernel index j -> [(i, class_den R_f at j's key)] for the kept f = kept[i]
        self._columns = {k - 1 - f: [(i, den)] for f, i in position.items()}
        for q, row in red.items():
            g = den // row[q]
            self._columns[k - 1 - q] = [(position[f], -g * y) for f, y in row.items() if f != q]
        self.kept = [k - 1 - f for f in kept]
        self.dim = len(kept)

    @cached_property
    def basis(self) -> list:
        """The kept kernel vectors, in kernel order."""
        return [self.kernel.vector(j) for j in self.kept]

    def coords(self, v) -> dict[int, Fraction] | None:
        """Coordinates of v in the kernel vectors (`Staircase.coords`), or None."""
        return self.kernel.coords(v)

    def int_project(self, v: dict[int, int]) -> list[int]:
        """Class coordinates of an integer sparse vector v, times `class_den`;
        ValueError if v is not in ker."""
        x = self.kernel.int_coords(v)
        if x is None:
            raise ValueError("vector does not lie in the span of the quotient presentation")
        out = [0] * self.dim
        columns = self._columns
        for j, y in x.items():
            for i, r in columns[j]:
                out[i] += r * y
        return out

    def project(self, v: Sequence[Fraction]) -> Vec:
        """Class coordinates of v in the quotient basis."""
        d, w = _integer_vector(v)
        den = d * self.class_den
        return [Fraction(y, den) for y in self.int_project(w)]
