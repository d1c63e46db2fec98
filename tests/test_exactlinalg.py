import random
from fractions import Fraction as F

import pytest

from framedhiggs.exactlinalg import (Echelon, LinSolver, Quotient, inverse,
                                     mat_mul, nullspace, nullspace_sparse,
                                     rank, rref)


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_nullspace_matches_sparse_on_random():
    rng = random.Random(17)
    for _ in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
        assert nullspace(rows, ncols=m) == nullspace_sparse(rows, ncols=m)


def test_nullspace_vectors_are_kernel():
    rng = random.Random(3)
    rows = [[F(rng.randint(-5, 5)) for _ in range(6)] for _ in range(3)]
    for v in nullspace_sparse(rows, ncols=6):
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)


def test_solve_and_inverse():
    a = [[F(2), F(1)], [F(1), F(3)]]
    ainv = inverse(a)
    assert mat_mul(a, ainv) == [[F(1), F(0)], [F(0), F(1)]]


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


def test_quotient_projection():
    sub = [[F(1), F(0), F(0)]]
    kernel = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    q = Quotient(3, sub, kernel)
    assert q.dim == 2
    assert q.project([F(7), F(2), F(3)]) == [F(2), F(3)]


class ReferenceQuotient:
    """The three-elimination quotient: sub, then kernel, then a LinSolver."""

    def __init__(self, n, sub_vectors, kernel_vectors):
        ech = Echelon(n)
        self._sub_basis = [list(v) for v in sub_vectors if ech.insert(v)]
        self.basis = [list(v) for v in kernel_vectors if ech.insert(v)]
        self.dim = len(self.basis)
        self._solver = LinSolver(self._sub_basis + self.basis, n)

    def project(self, v):
        x = self._solver.coords(v)
        if x is None:
            raise ValueError("vector does not lie in the span of the quotient presentation")
        return x[len(self._sub_basis):]


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
    kernel = nullspace_sparse(rows, ncols=n)
    sub = [_combination(rng, kernel, n, rng.randint(1, 3))
           for _ in range(rng.randint(0, len(kernel) + 1))] if kernel else []
    return n, sub, kernel


def _random_unit_case(rng):
    n = rng.randint(1, 8)
    kernel = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    sub = [[F(rng.randint(-2, 2)) if rng.random() < 0.4 else F(0) for _ in range(n)]
           for _ in range(rng.randint(0, n + 1))]
    return n, sub, kernel


def test_quotient_matches_three_elimination_reference():
    rng = random.Random(2024)
    for case in range(400):
        make = _random_nullspace_case if case % 2 else _random_unit_case
        n, sub, kernel = make(rng)
        q, ref = Quotient(n, sub, kernel), ReferenceQuotient(n, sub, kernel)
        assert q.dim == ref.dim and q.basis == ref.basis
        for _ in range(4):
            v = _combination(rng, kernel, n, rng.randint(1, 4)) if kernel else [F(0)] * n
            assert q.project(v) == ref.project(v)
        for v in sub:
            assert q.project(v) == ref.project(v) == [F(0)] * q.dim


def test_quotient_rejects_vectors_outside_the_kernel():
    kernel = nullspace_sparse([[F(1), F(1), F(0)]], ncols=3)  # (-1, 1, 0), (0, 0, 1)
    q = Quotient(3, [], kernel)
    assert q.project([F(-2), F(2), F(5)]) == [F(2), F(5)]
    with pytest.raises(ValueError, match="does not lie in the span"):
        q.project([F(1), F(1), F(0)])
    with pytest.raises(ValueError, match="sub vector"):
        Quotient(3, [[F(1), F(0), F(0)]], kernel)


@pytest.mark.parametrize("kernel", [
    [[F(1), F(2)]],                               # last nonzero entry is not 1
    [[F(1), F(0)], [F(1), F(1)]],                 # nonzero at another free column
    [[F(0), F(1)], [F(1), F(1)]],                 # two vectors share a free column
    [[F(0), F(0)]],                               # zero vector
])
def test_quotient_rejects_non_staircase_kernels(kernel):
    with pytest.raises(ValueError, match="staircase"):
        Quotient(2, [], kernel)
