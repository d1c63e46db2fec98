"""The integer-polynomial port against sympy 1.14 itself.

`Poly.integer_factors` must return sympy's ``factor_list`` (factors, order
and multiplicities), and the real-root isolation port the intervals sympy's
``ComplexRootOf._get_reals`` and ``RealInterval.refine_size`` give, on
seeded random polynomials built to reach every branch: repeated factors,
products of known factors, large constant terms, powers of z, and
polynomials that split modulo every prime.
"""

import random
from fractions import Fraction as F

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.polyroots import _integer_basis
from sympy.polys.rootoftools import ComplexRootOf

from framedhiggs import intpoly, spectral
from framedhiggs.rationalfn import Poly
from oracles import lmq_lower_bound_int, step_refine_real_root

Z = sympy.Symbol("z")
SEEDS = range(6)


def _sympy_factor_list(ic):
    content, factors = sympy.Poly(ic, Z).factor_list()
    return (1 if content > 0 else -1,
            [([int(a) for a in f.rep.to_list()], m) for f, m in factors])


def _integer_factors(ic):
    return Poly([F(a) for a in reversed(ic)]).integer_factors()


def _random_poly(rng, degree, height):
    c = [rng.randint(-height, height) for _ in range(degree + 1)]
    c[0] = c[0] or 1
    return c


def _product(*fs):
    out = [1]
    for f in fs:
        out = intpoly.mul(out, f)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_factors_match_sympy_factor_list(seed):
    rng = random.Random(seed)
    for _ in range(30):
        factors = [_random_poly(rng, rng.randint(1, 5), rng.choice([3, 30, 10 ** 4]))
                   for _ in range(rng.randint(1, 4))]
        ic = _product([rng.choice([1, -1]) * rng.randint(1, 6)],
                      *(f for f in factors for _ in range(rng.choice([1, 1, 2, 3]))))
        ic += [0] * rng.choice([0, 0, 0, 1, 2])
        assert _integer_factors(ic) == _sympy_factor_list(ic), ic


# The minimal polynomials of sqrt(2) + sqrt(3) and sqrt(2) + sqrt(3) + sqrt(5)
# (Swinnerton-Dyer): irreducible, yet they split modulo every prime, so only
# Hensel lifting and recombination can show it.
SD4 = [1, 0, -10, 0, 1]
SD8 = [1, 0, -40, 0, 352, 0, -960, 0, 576]


@pytest.mark.parametrize("ic", [
    SD4, SD8, _product(SD4, SD4), _product(SD4, [1, -2, 2]), _product(SD4, [3, 0, -2], [3, 0, -2]),
    [1, 0, 0, 0, 0, 0, 2 ** 67 + 1], _product([2, 1], [1, 0, 0, 2 ** 61 - 1], [1, 0, 0, 2 ** 61 - 1]),
    [1] + [0] * 11 + [-1], [6], [-3], [1, 0, 0, 0], [-2, 0, 0], [4, 4, 1],
], ids=["sd4", "sd8", "sd4-squared", "sd4-times-quadratic", "sd4-times-square",
        "large-constant", "large-constant-square", "z12-1", "constant", "negative-constant",
        "power-of-z", "negative-monomial", "square-of-linear"])
def test_integer_factors_match_sympy_on_explicit_polynomials(ic):
    assert _integer_factors(ic) == _sympy_factor_list(ic)


def test_squarefree_modulo_p_certifies_only_square_free_polynomials():
    square = _product([1, 0, 3], [1, 0, 3], [1, 1])
    assert not any(intpoly.squarefree_mod_p(square, p) for p in (3, 5, 7, 11, 13))
    assert intpoly.squarefree_parts(square) == [([1, 1], 1), ([1, 0, 3], 2)]
    assert intpoly.squarefree_mod_p(SD4, 5)


def _square_free_product(rng):
    """sympy's irreducible factors of a random product, each once, in its
    order, one coefficient set to +-(2^k - 1)."""
    while True:
        f = _product(*(_random_poly(rng, rng.randint(2, 6), rng.choice([5, 300, 2 ** 20]))
                       for _ in range(rng.randint(1, 3))))
        f[rng.randrange(len(f))] = rng.choice([-1, 1]) * (2 ** rng.randint(30, 62) - 1)
        factors = [g for g, _ in _sympy_factor_list(f)[1] if len(g) > 2]
        if factors:
            return factors


def _check_reals(factors, tol):
    """The isolating intervals and refined centres of the port equal sympy's
    for the irreducible factors, taken in the given order by both."""
    ComplexRootOf.clear_cache()
    reals = ComplexRootOf._get_reals([(sympy.PurePoly(g, Z), 1) for g in factors])
    qtol = QQ(tol.numerator, tol.denominator)
    expected = [[(F(int(q.numerator), int(q.denominator))) for q in (i.a, i.b, i.refine_size(qtol).center)]
                for i, _, _ in reals]
    ComplexRootOf.clear_cache()
    ours = intpoly.reals_sorted([(interval, g) for g in factors
                                 for interval in intpoly.isolate_real_roots_sqf(g)])
    assert [[i.a, i.b, i.refine_size(tol).center] for i, _ in ours] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_real_intervals_match_sympy_get_reals_and_refine_size(seed):
    rng = random.Random(seed)
    for _ in range(6):
        _check_reals(_square_free_product(rng), F(1, 10 ** rng.randint(3, 12)))


@pytest.mark.parametrize("factors", [
    # ZZ.log is int(math.log(a, 2)); for a = 2^k - 1 with k > 52 it is k, not
    # floor(log2 a) = k - 1, and the LMQ bound and so the boxes follow it.
    [[9, -4611686018427387903, -4]],
    [[7, 1152921504606846975, 8, -2]],
    # roots sqrt(2) and sqrt(2.0001): the first intervals of the two factors
    # overlap, so `reals_sorted` must refine both until they are disjoint.
    [[1, 0, -2], [10000, 0, -20001]],
    [[1, 0, -2], [1, -3, 1], [1, 0, -3, -1]],
], ids=["log-rounds-up", "log-rounds-up-cubic", "close-roots", "three-factors"])
def test_real_intervals_match_sympy_on_explicit_factors(factors):
    _check_reals(factors, F(1, 10 ** 9))


def _fraction_refine_size(interval, dx):
    """Oracle for ``RealInterval.refine_size``: sympy's loop on the
    Fraction width ``dx``."""
    while not (interval.dx < dx):
        interval = interval._inner_refine()
    return interval


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_refine_size_equals_the_fraction_width_loop(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 12:
        f = _random_poly(rng, rng.randint(2, 7), rng.choice([5, 100, 10 ** 6]))
        if not f[-1] or not sympy.Poly(f, Z).is_sqf:
            continue
        for interval in intpoly.isolate_real_roots_sqf(f):
            for tol in (F(1, 10), F(3, 7 * 10 ** 5), F(1, 10 ** 9), F(5, 10 ** 18),
                        F(1, 10 ** 30)):
                fast, slow = interval.refine_size(tol), _fraction_refine_size(interval, tol)
                assert (fast.mobius, fast.neg, fast.f) == (slow.mobius, slow.neg, slow.f)
                assert fast.dx < tol
            checked += 1


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_basis_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(40):
        q = _random_poly(rng, rng.randint(2, 7), rng.choice([3, 50]))
        q[-1] = q[-1] or 1
        b = rng.choice([1, 2, 3, 4, 6, 12, 35])
        n = len(q) - 1
        p = [a * b ** k for k, a in enumerate(q)]       # b^n q(z / b)
        if rng.random() < 0.3:
            p = [p[0], *([0] * (n - 1)), p[-1]]         # two terms
        if rng.random() < 0.3:
            p = p[::-1]
        assert spectral._integer_basis(p) == _integer_basis(sympy.Poly(p, Z)), p
    assert spectral._integer_basis([1, 0, 0, 0, 512, 1024]) == 4
    assert spectral._integer_basis([1, 0, 1024]) == 32
    assert spectral._integer_basis([1, 0, 1023]) is None


def _refinement_states(rng):
    """(f, Mobius) pairs a refinement passes through: the isolating states
    of a random square-free polynomial's real roots, then 40 steps of each;
    some with a coefficient +-(2^k - 1), k > 52, where ZZ.log rounds up."""
    while True:
        f = _random_poly(rng, rng.randint(2, 7), rng.choice([5, 100, 10 ** 6]))
        if rng.random() < 0.3:
            f[rng.randrange(len(f))] = rng.choice([-1, 1]) * (2 ** rng.randint(53, 70) - 1)
        if f[-1] and sympy.Poly(f, Z).is_sqf:
            break
    states = []
    for interval in intpoly.isolate_real_roots_sqf(f):
        g, mobius = interval.f, interval.mobius
        for _ in range(40):
            states.append((g, mobius))
            g, mobius = step_refine_real_root(g, mobius)
    return states


@pytest.mark.parametrize("seed", SEEDS)
def test_the_one_pass_lmq_bound_and_step_equal_sympys(seed):
    # The LMQ bound read off f equals sympy's through the reversed
    # polynomial, and so the step equals sympy's step, on refinement states,
    # on random polynomials of every sign pattern (trailing zeros included)
    # and on the first isolation states.
    rng = random.Random(seed)
    polys = []
    for _ in range(40):
        f = _random_poly(rng, rng.randint(1, 8), rng.choice([3, 10 ** 3, 2 ** 64]))
        polys.append(f + [0] * rng.choice([0, 0, 0, 1, 2]))
    for f in polys:
        assert intpoly._lower_bound_int(f) == lmq_lower_bound_int(f), f
    states = [s for _ in range(4) for s in _refinement_states(rng)]
    states += [(f, (1, 0, 0, 1)) for f in polys if f[-1]]
    assert any(lmq_lower_bound_int(f) >= 1 for f, _ in states)
    for f, mobius in states:
        assert intpoly._lower_bound_int(f) == lmq_lower_bound_int(f), f
        assert intpoly._step(f, mobius) == step_refine_real_root(f, mobius), (f, mobius)


def test_the_lmq_bound_keeps_the_float_logarithm():
    # 2^61 - 1 has int(math.log(a, 2)) = 61 but floor(log2 a) = 60: the bound
    # follows the float logarithm, as sympy's does.
    for f in ([9, -4611686018427387903, -4], [-4, -4611686018427387903, 9],
              [1, -(2 ** 61 - 1), 2 ** 61 - 1, 5], [2 ** 61 - 1, -1, -(2 ** 61 - 1), 3]):
        assert intpoly._lower_bound_int(f) == lmq_lower_bound_int(f), f
