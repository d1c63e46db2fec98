import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from framedhiggs import exactlinalg
from framedhiggs.exactlinalg import (ONE, Echelon, LinSolver, Quotient, Staircase, dense,
                                     inverse, mat_mul, nullspace_sparse, rank, sparse, zeros)

# Inputs below that vanish modulo this prime, or whose kernel entries do not
# lift from it, show that `nullspace_sparse` and `rank` work over Z, not mod P
P = 2 ** 61 - 1


def rref(rows):
    """Oracle: reduced row echelon form in Fractions; returns (matrix, pivot
    columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def nullspace(rows, ncols):
    """Oracle: the kernel basis from the dense `rref`, ordered by free column."""
    red, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = zeros(ncols)
        v[free] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        basis.append(v)
    return basis


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_rank_from_the_certified_kernel_matches_the_rref_oracle():
    rng = random.Random(29)
    ranks = set()
    for trial in range(200):
        n, m = rng.randint(0, 7), rng.randint(1, 7)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
                 for _ in range(m)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:        # a dependent row
            rows[-1] = [F(2, 3) * x - y for x, y in zip(rows[0], rows[1])]
        expected = len(rref(rows)[1])
        assert rank(rows) == expected
        assert rank([[int(x * 18) for x in row] for row in rows]) == expected   # rows of ints
        ranks.add((expected, n, m))
    assert rank([]) == 0 and rank([[]]) == 0
    assert any(r < min(n, m) for r, n, m in ranks) and any(r == min(n, m) > 0 for r, n, m in ranks)


def test_nullspace_matches_sparse_on_random():
    rng = random.Random(17)
    for _ in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
        assert nullspace(rows, ncols=m) == [dense(v, m) for v in nullspace_sparse(rows, ncols=m)]


def test_nullspace_vectors_are_kernel():
    rng = random.Random(3)
    rows = [[F(rng.randint(-5, 5)) for _ in range(6)] for _ in range(3)]
    for v in nullspace_sparse(rows, ncols=6):
        v = dense(v, 6)
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)


def test_solve_and_inverse():
    a = [[F(2), F(1)], [F(1), F(3)]]
    ainv = inverse(a)
    assert mat_mul(a, ainv) == [[F(1), F(0)], [F(0), F(1)]]


def fraction_inverse(a):
    """Oracle: Gauss-Jordan in Fractions, the `rref` of [a | I]."""
    n = len(a)
    red, pivots = rref([list(row) + [F(int(i == j)) for j in range(n)]
                        for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def fraction_solve(a, b):
    """Oracle: Gauss-Jordan in Fractions, the `rref` of [a | b] for square a."""
    n = len(a)
    red, pivots = rref([list(row) + list(brow) for row, brow in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def test_inverse_matches_fraction_gauss_jordan():
    rng = random.Random(31)
    singular = 0
    for trial in range(150):
        n = rng.randint(0, 7)
        a = [[F(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.7 else F(0)
              for _ in range(n)] for _ in range(n)]
        if trial % 4 == 0 and n > 1:       # a dependent row
            a[-1] = [F(-3, 2) * x + y for x, y in zip(a[0], a[1])]
        try:
            expected = fraction_inverse(a)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                inverse(a)
            continue
        got = inverse(a)
        assert got == expected
        assert all(type(x) is F for row in got for x in row)
    assert singular >= 30


def test_inverse_needs_row_swaps_and_refuses_singular_matrices():
    a = [[F(0), F(1, 3), F(0)], [F(2, 5), F(0), F(0)], [F(0), F(0), F(-7, 2)]]
    assert inverse(a) == [[F(0), F(5, 2), F(0)], [F(3), F(0), F(0)], [F(0), F(0), F(-2, 7)]]
    for bad in ([[F(0)]], [[F(1), F(2)], [F(1, 2), F(1)]],
                [[F(1), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(1)]]):
        with pytest.raises(ValueError, match="singular"):
            inverse(bad)


def test_echelon_membership_and_insert():
    ech = Echelon(3)
    assert ech.insert([F(1), F(1), F(0)])
    assert not ech.insert([F(2), F(2), F(0)])
    assert ech.insert([F(0), F(1), F(1)])
    assert ech.contains([F(1), F(2), F(1)])
    assert not ech.contains([F(0), F(0), F(1)])


def test_linsolver_roundtrip():
    cols = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    s = LinSolver(cols, 3)
    c = s.coords([F(2), F(3), F(5)])
    assert c == [F(2), F(3)]
    assert s.coords([F(1), F(0), F(0)]) is None


def unit_staircase(n):
    """The unit vectors e_0, ..., e_(n-1) as a `Staircase`."""
    return Staircase(list(range(n)), 1, [{} for _ in range(n)])


def test_quotient_projection():
    sub = [[F(1), F(0), F(0)]]
    q = Quotient(3, sub, unit_staircase(3))
    assert q.dim == 2
    assert q.project([F(7), F(2), F(3)]) == [F(2), F(3)]


def _oracle_rank(rows):
    return len(rref(rows)[1])


def solve(columns, v):
    """Oracle: x with sum_j x_j columns[j] = v, zero at every free column,
    or None if v is not in their span; the `rref` of [C | v]."""
    k = len(columns)
    red, pivots = rref([[c[i] for c in columns] + [v[i]] for i in range(len(v))])
    if k in pivots:
        return None
    x = [F(0)] * k
    for row, p in zip(red, pivots):
        x[p] = row[k]
    return x


class ReferenceQuotient:
    """The quotient by the Fraction `rref` oracle: each sub vector, then each
    kernel vector, is kept when it raises the rank of those kept before it,
    and a class is read off the coordinates over the kept vectors."""

    def __init__(self, n, sub_vectors, kernel_vectors):
        self._kept = []
        self._n_sub = sum(self._keep(v) for v in sub_vectors)
        self.basis = [list(v) for v in kernel_vectors if self._keep(v)]
        self.dim = len(self.basis)

    def _keep(self, v):
        grew = _oracle_rank(self._kept + [list(v)]) > len(self._kept)
        if grew:
            self._kept.append(list(v))
        return grew

    def project(self, v):
        x = solve(self._kept, v)
        if x is None:
            raise ValueError("vector does not lie in the span of the quotient presentation")
        return x[self._n_sub:]


def _combination(rng, vectors, n, terms):
    out = [F(0)] * n
    for v in rng.sample(vectors, min(terms, len(vectors))):
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        out = [a + c * b for a, b in zip(out, v)]
    return out


def _random_nullspace_case(rng):
    n = rng.randint(1, 9)
    rows = [[F(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.6 else F(0)
             for _ in range(n)] for _ in range(rng.randint(0, n))]
    staircase = Staircase.kernel(rows, n)
    kernel = [dense(v, n) for v in staircase]
    sub = [_combination(rng, kernel, n, rng.randint(1, 3))
           for _ in range(rng.randint(0, len(kernel) + 1))] if kernel else []
    return n, sub, kernel, staircase


def _random_unit_case(rng):
    n = rng.randint(1, 8)
    kernel = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    sub = [[F(rng.randint(-2, 2)) if rng.random() < 0.4 else F(0) for _ in range(n)]
           for _ in range(rng.randint(0, n + 1))]
    return n, sub, kernel, unit_staircase(n)


def test_quotient_matches_the_rref_reference():
    rng = random.Random(2024)
    for case in range(400):
        make = _random_nullspace_case if case % 2 else _random_unit_case
        n, sub, kernel, staircase = make(rng)
        q, ref = Quotient(n, sub, staircase), ReferenceQuotient(n, sub, kernel)
        assert q.dim == ref.dim and [dense(v, n) for v in q.basis] == ref.basis
        for _ in range(4):
            v = _combination(rng, kernel, n, rng.randint(1, 4)) if kernel else [F(0)] * n
            assert q.project(v) == ref.project(v)
        for v in sub:
            assert q.project(v) == ref.project(v) == [F(0)] * q.dim


def test_quotient_rejects_vectors_outside_the_kernel():
    kernel = Staircase.kernel([[F(1), F(1), F(0)]], 3)  # (-1, 1, 0), (0, 0, 1)
    q = Quotient(3, [], kernel)
    assert q.project([F(-2), F(2), F(5)]) == [F(2), F(5)]
    with pytest.raises(ValueError, match="does not lie in the span"):
        q.project([F(1), F(1), F(0)])
    with pytest.raises(ValueError, match="sub vector"):
        Quotient(3, [[F(1), F(0), F(0)]], kernel)


# ---------------------------------------------------------------------------
# the integer elimination against the Fraction oracles
# ---------------------------------------------------------------------------

def _random_sparse_matrix(rng, nrows, ncols, density):
    rows = [[F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density else F(0)
             for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):                    # zero rows
        rows.insert(rng.randint(0, len(rows)), [F(0)] * ncols)
    if len(rows) >= 2 and rng.random() < 0.5:            # a dependent row
        a, b = rng.sample(range(len(rows)), 2)
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    return rows


def _assert_matches_the_oracle(rows, ncols):
    """`nullspace_sparse` on dense and sparse rows, and `rank`, against `rref`."""
    expected = nullspace(rows, ncols)
    for given_rows in (rows, [sparse(r) for r in rows]):
        got = nullspace_sparse(given_rows, ncols)
        assert [dense(v, ncols) for v in got] == expected
        assert all(type(x) is F for v in got for x in v.values())
    assert rank(rows) == ncols - len(expected)
    return expected


def test_nullspace_sparse_matches_the_rref_oracle_on_random_sparse_matrices():
    rng = random.Random(808)
    cases = [([], 4), ([[F(0)] * 3] * 2, 3), ([[F(2), F(1, 3)], [F(-1), F(5)]], 2),
             ([[F(1), F(2), F(0), F(-3)], [F(0), F(1), F(1, 2), F(4)]], 4)]
    for _ in range(300):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        cases.append((_random_sparse_matrix(rng, nrows, ncols, rng.choice([0.2, 0.5, 0.9])),
                      ncols))
    assert _assert_matches_the_oracle(*cases[3]) == [
        [F(1), F(-1, 2), F(1), F(0)], [F(11), F(-4), F(0), F(1)]]
    kinds = set()
    for rows, ncols in cases:
        rank_ = ncols - len(_assert_matches_the_oracle(rows, ncols))
        kinds.add("zero" if rank_ == 0 else "full" if rank_ == ncols else "deficient")
    assert kinds == {"zero", "full", "deficient"}


def test_the_exact_path_takes_integer_rows():
    rows = [[F(2, 3), F(1), F(0), F(-5, 2)], [F(0), F(4), F(1, 3), F(1)]]
    int_rows = [{0: 4, 1: 6, 3: -15}, {1: 12, 2: 1, 3: 3}]     # each row times its lcm
    expected = nullspace_sparse(rows, 4)
    assert nullspace_sparse(int_rows, 4) == expected and len(expected) == 2
    assert [dense(v, 4) for v in expected] == nullspace(rows, 4)
    assert all(type(x) is F for v in nullspace_sparse(int_rows, 4) for x in v.values())
    assert rank(int_rows) == 2
    assert int_rows == [{0: 4, 1: 6, 3: -15}, {1: 12, 2: 1, 3: 3}]      # left as given


def test_entries_beyond_the_lift_bound_take_the_exact_path():
    # entries that rational reconstruction modulo four 61-bit primes cannot
    # recover: it bounds numerators and denominators by 2^122
    big = F(2) ** 200
    assert [dense(v, 2) for v in nullspace_sparse([[F(1), -big]], 2)] == [[big, F(1)]]
    assert [dense(v, 2) for v in nullspace_sparse([[F(2) ** 150, F(1)]], 2)] == \
        [[F(-1, 2 ** 150), F(1)]]
    _assert_matches_the_oracle([[F(1), -big], [F(3), F(0)]], 2)
    _assert_matches_the_oracle([[F(2) ** 150, F(1), big], [F(1, 2) ** 200, F(0), F(7)]], 3)


@pytest.mark.parametrize("row, kernel", [
    # 2^40 = 1/2^21 mod P: one prime's reconstruction gives the wrong entry
    ([F(1), -F(2) ** 40], [F(2) ** 40, F(1)]),
    # a 2^35 denominator, beyond one prime's reconstruction bound
    ([F(2) ** 35, F(1)], [F(-1, 2 ** 35), F(1)]),
    # a 77-bit numerator over a 69-bit denominator, beyond two primes' bound
    ([F(2 ** 68 + 1), F(-3 ** 48)], [F(3 ** 48, 2 ** 68 + 1), F(1)]),
])
def test_entries_beyond_one_prime_match_the_rref_oracle(row, kernel):
    assert _assert_matches_the_oracle([row], 2) == [kernel]


def test_primes_with_different_pivots_take_the_exact_path():
    # the first column vanishes mod P only: its pivots mod P and mod any
    # other prime differ
    rows = [[F(P) * 2 ** 40, F(1), F(2) ** 40]]
    assert [dense(v, 3) for v in nullspace_sparse(rows, 3)] == nullspace(rows, 3)
    assert [dense(v, 3) for v in nullspace_sparse(rows, 3)][0][0] == F(-1, P * 2 ** 40)
    _assert_matches_the_oracle(rows, 3)


def test_a_rank_drop_mod_p_is_rejected_by_the_check_over_z():
    # the first row vanishes mod P, so e_0 is in the kernel mod P only
    rows = [[F(P), F(0), F(0)], [F(0), F(1), F(1)], [F(3 * P), F(2), F(1)]]
    assert nullspace_sparse(rows, 3) == nullspace(rows, 3) == []
    assert rank(rows) == 3 and rank([[P, 0], [0, 0]]) == 1
    assert inverse(rows) == fraction_inverse(rows)



# entries are small or up to 2^200, as Fractions or, for whole rows, ints
_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200),
                   st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200)))


@st.composite
def _matrices(draw, square=False):
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    dense_rows = [[F(x) for x in draw(st.lists(st.one_of(st.just(0), _ENTRY),
                                               min_size=ncols, max_size=ncols))]
                  for _ in range(nrows)]
    # a dependent row makes the matrix singular
    if nrows >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        c = F(draw(_ENTRY))
        dense_rows[-1] = [x + c * y for x, y in zip(dense_rows[a], dense_rows[b])]
    return dense_rows, ncols


def _as_ints(rows):
    """Each row times the lcm of its denominators, as a row of ints."""
    return [[int(x * lcm(*(y.denominator for y in r))) for x in r] for r in rows]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices(), st.booleans())
def test_nullspace_and_rank_match_the_rref_oracle(matrix, sparse_rows):
    rows, ncols = matrix
    expected = nullspace(rows, ncols)
    for given_rows in (rows, _as_ints(rows)):
        if sparse_rows:
            given_rows = [sparse(r) for r in given_rows]
        got = nullspace_sparse(given_rows, ncols)
        assert [dense(v, ncols) for v in got] == expected
        assert rank(given_rows) == ncols - len(expected)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_matrices(square=True))
def test_inverse_matches_the_fraction_oracle(matrix):
    a, _ = matrix
    try:
        expected = fraction_inverse(a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return
    got = inverse(a)
    assert got == expected and all(type(x) is F for row in got for x in row)


@st.composite
def _kernel_cases(draw):
    """(rows, ncols, sub weights, probe weights): a matrix of `_matrices`
    and weight lists on the oracle basis of its kernel, each making a sub
    vector or a probe."""
    rows, ncols = draw(_matrices())
    k = len(nullspace(rows, ncols))
    weights = st.lists(st.lists(st.one_of(st.just(0), _ENTRY).map(F), min_size=k, max_size=k),
                       max_size=4)
    return rows, ncols, draw(weights), draw(weights)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_kernel_cases())
@example(([[F(1), F(1), F(0), F(2)]], 4, [[F(1), F(0), F(0)]], [[F(0), F(1, 3), F(-2)]]))
@example(([[F(2), F(4)], [F(1), F(2)]], 2, [], [[F(5, 7)]]))
def test_the_integer_kernel_is_the_fraction_kernel_and_gives_the_same_quotient(case):
    rows, ncols, sub_weights, probe_weights = case
    kernel = Staircase.kernel(rows, ncols)
    fractions = nullspace_sparse(rows, ncols)
    oracle = nullspace(rows, ncols)
    # entry for entry: the Fraction kernel and the rref oracle
    assert [kernel.vector(j) for j in range(len(kernel))] == fractions
    assert [dense(kernel.vector(j), ncols) for j in range(len(kernel))] == oracle
    # integer tails over the least common denominator, read back unchanged
    assert kernel.den == lcm(*(x.denominator for v in fractions for x in v.values()))
    assert kernel.scaled == [{c: kernel.den * x for c, x in v.items()} for v in fractions]

    def combine(w):
        return [sum((x * v[i] for x, v in zip(w, oracle)), F(0)) for i in range(ncols)]
    sub = [combine(w) for w in sub_weights]
    probes = [combine(w) for w in probe_weights] + [[F(int(i == j)) for j in range(ncols)]
                                                    for i in range(ncols)]
    # the quotient of the integer kernel against the Fraction rref reference
    q_int, ref = Quotient(ncols, sub, kernel), ReferenceQuotient(ncols, sub, oracle)
    assert (q_int.dim, q_int.rank, [dense(v, ncols) for v in q_int.basis]) == \
        (ref.dim, ref._n_sub, ref.basis)
    for v in probes:
        x = solve(oracle, v)            # unique: the kernel vectors are independent
        assert q_int.coords(v) == (None if x is None else {j: y for j, y in enumerate(x) if y})
        if x is None:
            for q in (q_int, ref):
                with pytest.raises(ValueError, match="does not lie in the span"):
                    q.project(v)
        else:
            assert q_int.project(v) == ref.project(v)


@st.composite
def _systems(draw):
    """(a, b): a square, singular when `_matrices` adds a dependent row, and b
    with as many rows and 0-3 columns."""
    a, n = draw(_matrices(square=True))
    k = draw(st.integers(0, 3))
    b = [[F(x) for x in draw(st.lists(st.one_of(st.just(0), _ENTRY), min_size=k, max_size=k))]
         for _ in range(n)]
    return a, b


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_systems())
@example(([[F(0), F(2)], [F(3), F(1)]], [[F(1), F(0)], [F(-1, 2), F(7)]]))   # nonsingular
@example(([[F(1), F(2)], [F(1, 2), F(1)]], [[F(1)], [F(1, 2)]]))   # singular, yet consistent
@example(([[F(2), F(1)], [F(1), F(3)]], [[], []]))                 # b with no columns
def test_integer_solve_matches_the_rref_oracle(system):
    a, b = system
    try:
        expected = fraction_solve(a, b)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            exactlinalg.integer_solve(a, b)
        return
    den, x = exactlinalg.integer_solve(a, b)
    got = [[F(y, den) for y in row] for row in x]
    assert got == expected and len(got) == len(a) and type(den) is int and den > 0
    assert all(len(row) == len(brow) and all(type(y) is int for y in row)
               for row, brow in zip(x, b))
    if got and got[0]:
        assert mat_mul(a, got) == b


@st.composite
def _spans(draw):
    """(n, vectors, probes): vectors in Q^n, some of them zero or dependent,
    and probes both in and out of their span."""
    n = draw(st.integers(1, 6))
    vector = st.lists(st.one_of(st.just(0), _ENTRY).map(F), min_size=n, max_size=n)
    vectors = draw(st.lists(vector, max_size=5))

    def combination():
        out = [F(0)] * n
        for v in vectors:
            c = F(draw(_ENTRY))
            out = [a + c * b for a, b in zip(out, v)]
        return out

    if vectors and draw(st.booleans()):
        vectors.append(combination())
    member = combination()
    return n, vectors, [member, [member[0] + 1] + member[1:], draw(vector)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_spans(), st.booleans())
def test_echelon_and_linsolver_match_the_rref_oracle(span, sparse_rows):
    n, vectors, probes = span
    ech = Echelon(n)
    for i, v in enumerate(vectors):
        grew = _oracle_rank(vectors[:i + 1]) > _oracle_rank(vectors[:i])
        assert ech.insert(sparse(v) if sparse_rows else v) is grew
    solver = LinSolver(vectors, n)
    independent = _oracle_rank(vectors) == len(vectors)
    for v in vectors + probes:
        member = _oracle_rank(vectors + [v]) == _oracle_rank(vectors)
        assert ech.contains(sparse(v) if sparse_rows else v) is member
        x = solver.coords(v)
        if not member:
            assert x is None
            continue
        assert [sum((xj * c[i] for xj, c in zip(x, vectors)), F(0)) for i in range(n)] == v
        assert all(type(xj) is F for xj in x)
        if independent:                 # the solution is unique
            assert x == solve(vectors, v)


def test_quotient_coords_read_off_a_staircase_basis():
    q = Quotient(4, [], Staircase.kernel([[F(1), F(1), F(0), F(2)]], 4))
    v = [F(-2) - F(6), F(2), F(5), F(3)]
    assert q.coords(v) == {0: F(2), 1: F(5), 2: F(3)}
    assert q.coords([F(1), F(0), F(0), F(0)]) is None


@pytest.mark.parametrize("seed", range(40))
def test_a_block_echelon_reads_off_the_kernel_of_the_whole_matrix(seed):
    # [A | f C / d] for a sparse integer A with dependent rows (so a
    # cokernel) and dependent columns (so free columns of A), eliminated
    # whole by `Staircase.kernel`, against the read-off of `BlockEchelon`
    rng = random.Random(seed)
    t, n_a, k = rng.randint(2, 7), rng.randint(1, 7), rng.randint(1, 5)
    base = [{c: rng.randint(-4, 4) for c in range(n_a) if rng.random() < 0.5}
            for _ in range(rng.randint(1, t))]
    rows = [{} for _ in range(t)]
    for row in rows:
        for b in base:
            w = rng.randint(-2, 2)
            for c, x in b.items():
                row[c] = row.get(c, 0) + w * x
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    f, d = rng.choice([-3, -1, 2]), rng.randint(1, 6)
    cols = [{r: rng.randint(-5, 5) for r in range(t) if rng.random() < 0.4} for _ in range(k)]
    whole = [{**{c: F(x) for c, x in row.items()},
              **{n_a + j: F(f * col[r], d) for j, col in enumerate(cols) if col.get(r)}}
             for r, row in enumerate(rows)]
    oracle = Staircase.kernel(whole, n_a + k)
    echelon = exactlinalg.BlockEchelon(rows, n_a, f)
    kernel = echelon.kernel(d, cols)
    assert (kernel.free, kernel.den, kernel.tails) == (oracle.free, oracle.den, oracle.tails)


def test_an_integer_dict_row_is_copied_without_its_zeros():
    row = {0: 3, 2: 0, 5: -4}
    copy = exactlinalg._integer_row(row)
    assert copy == {0: 3, 5: -4} and copy is not row and row == {0: 3, 2: 0, 5: -4}
    assert exactlinalg._integer_row({1: F(1, 2), 3: 2, 4: F(0)}) == {1: 1, 3: 4}
    assert exactlinalg._integer_row([F(2, 3), 0, 1]) == {0: 2, 2: 3}
    # `_insert` uses its row up: `Echelon.insert` copies what it is given
    ech, v = Echelon(6), {0: 3, 5: -4}
    assert ech.insert(v) and v == {0: 3, 5: -4}
