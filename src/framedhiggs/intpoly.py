"""Integer polynomials in one variable: factoring over Z, real-root isolation.

A polynomial is a list of Python ints, highest coefficient first, with no
leading zero (sympy's dense ``dup`` form), so every result here is the
integer list sympy's own functions would return.

`factor_squarefree` factors a primitive square-free polynomial over Z.
Distinct-degree factorization modulo a few small primes gives, per prime,
the degrees of the irreducible factors modulo p; a factor over Z has a
degree that is a sum of some of them for every prime, so intersecting the
possible sums often proves the polynomial irreducible at once.  Otherwise
the factors modulo the prime with fewest of them are split by
Cantor-Zassenhaus, Hensel-lifted past a Mignotte bound and recombined
(Zassenhaus, J. Number Theory 1, 1969); every factor found is confirmed by
exact division, so the result is exact whichever prime is chosen.

`isolate_real_roots_sqf` and `RealInterval` port sympy 1.14's continued
fraction real-root isolation (Akritas and Strzebonski, Nonlinear Analysis:
Modelling and Control 10, 2005) and refinement line for line:
``dup_isolate_real_roots_sqf``, ``dup_step_refine_real_root``, the LMQ
bound ``dup_root_upper_bound`` with its float ``int(math.log(v, 2))``, and
``RealInterval.refine_disjoint``/``refine_size``/``center``, so the
intervals are sympy's to the bit.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

# Distinct-degree factorizations tried before Hensel lifting.
_DDF_PRIMES = 5


# ---------------------------------------------------------------------------
# arithmetic modulo a prime p (coefficients in 0..p-1)
# ---------------------------------------------------------------------------

def _strip(f: list[int]) -> list[int]:
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:]


def _mod(f: list[int], p: int) -> list[int]:
    return _strip([a % p for a in f])


def mul(f: list[int], g: list[int]) -> list[int]:
    """The product over Z."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _add(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    f, g = [0] * (n - len(f)) + f, [0] * (n - len(g)) + g
    return _strip([a + b for a, b in zip(f, g)])


def _sub(f: list[int], g: list[int]) -> list[int]:
    return _add(f, [-b for b in g])


def _divmod_p(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo p; g has a leading coefficient prime to p."""
    inv = pow(g[0], -1, p)
    r = list(f)
    q = []
    for i in range(len(f) - len(g) + 1):
        c = r[i] * inv % p
        q.append(c)
        if c:
            for j in range(1, len(g)):
                r[i + j] = (r[i + j] - c * g[j]) % p
    return _strip(q), _mod(r[max(0, len(f) - len(g) + 1):], p)


def _monic(f: list[int], p: int) -> list[int]:
    inv = pow(f[0], -1, p)
    return [a * inv % p for a in f]


def _gcd_p(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd modulo p."""
    while g:
        f, g = g, _divmod_p(f, g, p)[1]
    return _monic(f, p) if f else f


def _gcdex_p(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s f + t g = 1 modulo p, for coprime f and g."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return _mod([a * inv for a in s0], p), _mod([a * inv for a in t0], p)


def _powmod_p(f: list[int], e: int, g: list[int], p: int) -> list[int]:
    """f^e modulo g and p."""
    out, f = [1], _divmod_p(f, g, p)[1]
    while e:
        if e & 1:
            out = _divmod_p(mul(out, f), g, p)[1]
        e >>= 1
        if e:
            f = _divmod_p(mul(f, f), g, p)[1]
    return out


def _derivative(f: list[int]) -> list[int]:
    n = len(f) - 1
    return [a * (n - i) for i, a in enumerate(f[:-1])]


def _odd_primes():
    """3, 5, 7, 11, ...: 2 is left out, as Cantor-Zassenhaus splitting needs
    an odd characteristic.  A square-free f stays square-free modulo all but
    finitely many of them."""
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def squarefree_mod_p(f: list[int], p: int) -> bool:
    """f keeps its degree modulo p and is square-free there; then f is
    square-free over Q too, as a square factor would survive the reduction."""
    return f[0] % p != 0 and len(_gcd_p(_mod(f, p), _mod(_derivative(f), p), p)) == 1


def _primitive(f: list[int]) -> list[int]:
    """f over its content, with a positive leading coefficient."""
    c = math.gcd(*f) if f[0] > 0 else -math.gcd(*f)
    return [a // c for a in f]


def _gcd_z(f: list[int], g: list[int]) -> list[int]:
    """The primitive gcd over Z with a positive leading coefficient, by the
    primitive pseudo-remainder sequence."""
    f = _primitive(f)
    while g:
        g = _primitive(g)
        r = list(f)
        while len(r) >= len(g):
            r = _sub([g[0] * a for a in r[1:]],
                     [r[0] * b for b in g[1:]] + [0] * (len(r) - len(g)))
        f, g = g, r
    return f


def squarefree_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """The square-free parts (a_i, i), deg a_i > 0, of a primitive f with a
    positive leading coefficient: f = prod a_i^i, each a_i primitive with a
    positive leading coefficient.  f square-free modulo one of a few small
    primes is its own part; otherwise Yun's algorithm over Z splits it."""
    if len(f) < 2:
        return []
    if any(squarefree_mod_p(f, p) for p in (3, 5, 7, 11, 13)):
        return [(f, 1)]
    df = _derivative(f)
    g = _gcd_z(f, df)
    c, d = _exact_quotient(f, g), _exact_quotient(df, g)
    d = _sub(d, _derivative(c))
    parts, i = [], 1
    while len(c) > 1:
        a = _gcd_z(c, d) if d else c
        c = _exact_quotient(c, a)
        d = _sub(_exact_quotient(d, a) if d else [], _derivative(c))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, d) with g the product of the monic irreducible factors of degree d
    of f modulo p, f square-free modulo p."""
    f = _monic(_mod(f, p), p)
    out = []
    h, x, d = [1, 0], [1, 0], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod_p(h, p, f, p)
        g = _gcd_p(f, _mod(_sub(h, x), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_p(f, g, p)[0]
            h = _divmod_p(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors of g modulo p, all of degree d
    (Cantor-Zassenhaus, p odd)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _strip([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _mod(_sub(_powmod_p(a, (p ** d - 1) // 2, g, p), [1]), p)
        h = _gcd_p(g, b, p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod_p(g, h, p)[0], d, p, rng))


# ---------------------------------------------------------------------------
# Hensel lifting and recombination over Z
# ---------------------------------------------------------------------------

def _trunc(f: list[int], m: int) -> list[int]:
    """f modulo m with coefficients in the symmetric range."""
    half = m // 2
    return _strip([c - m if c > half else c for c in (a % m for a in f)])


def _divmod_monic(f: list[int], h: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder over Z by a monic h."""
    r = list(f)
    q = []
    for i in range(len(f) - len(h) + 1):
        c = r[i]
        q.append(c)
        if c:
            for j in range(1, len(h)):
                r[i + j] -= c * h[j]
    return _strip(q), _strip(r[max(0, len(f) - len(h) + 1):])


def _hensel_step(m, f, g, h, s, t):
    """From f = g h and s g + t h = 1 modulo m, h monic, the same modulo m^2
    (von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 15.10;
    sympy's ``dup_zz_hensel_step``)."""
    M = m * m
    e = _trunc(_sub(f, mul(g, h)), M)
    q, r = _divmod_monic(mul(s, e), h)
    G = _trunc(_add(g, _add(mul(t, e), mul(q, g))), M)
    H = _trunc(_add(h, r), M)
    b = _trunc(_sub(_add(mul(s, G), mul(t, H)), [1]), M)
    c, d = _divmod_monic(mul(s, b), H)
    S = _trunc(_sub(s, d), M)
    T = _trunc(_sub(t, _add(mul(t, b), mul(c, G))), M)
    return G, H, S, T


def _hensel_lift(p: int, f: list[int], fs: list[list[int]], k: int) -> list[list[int]]:
    """Monic factors modulo p^(2^k) lifting the monic fs, with
    f = lc(f) prod(fs) modulo p."""
    m = p ** (1 << k)
    if len(fs) == 1:
        inv = pow(f[0], -1, m)
        return [_trunc([a * inv for a in f], m)]
    half = len(fs) // 2
    g = [f[0] % p]
    for a in fs[:half]:
        g = _mod(mul(g, a), p)
    h = [1]
    for a in fs[half:]:
        h = _mod(mul(h, a), p)
    s, t = _gcdex_p(g, h, p)
    g, h, s, t = (_trunc(a, p) for a in (g, h, s, t))
    q = p
    for _ in range(k):
        g, h, s, t = _hensel_step(q, f, g, h, s, t)
        q *= q
    return _hensel_lift(p, g, fs[:half], k) + _hensel_lift(p, h, fs[half:], k)


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g over Z, or None when g does not divide f."""
    if f[-1] % g[-1]:
        return None
    r = list(f)
    q = []
    for i in range(len(f) - len(g) + 1):
        c, rem = divmod(r[i], g[0])
        if rem:
            return None
        q.append(c)
        if c:
            for j in range(1, len(g)):
                r[i + j] -= c * g[j]
    return q if not any(r[len(q):]) else None


def factor_squarefree(f: list[int]) -> list[list[int]]:
    """The irreducible factors over Z of a primitive square-free f with a
    positive leading coefficient and a nonzero constant term, each primitive
    with a positive leading coefficient, in no particular order."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    degrees = (1 << (n + 1)) - 1      # bit d: a factor of degree d is possible
    images = []
    for p in _odd_primes():
        if not squarefree_mod_p(f, p):
            continue
        parts = _distinct_degree(f, p)
        sums = 1
        for g, d in parts:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        degrees &= sums
        if degrees == 1 | 1 << n:
            return [f]
        images.append((sum((len(g) - 1) // d for g, d in parts), p, parts))
        if len(images) == _DDF_PRIMES:
            break
    _, p, parts = min(images, key=lambda image: image[0])
    rng = random.Random(p)
    modular = [a for g, d in parts for a in _equal_degree(g, d, p, rng)]
    # A factor of f has coefficients at most 2^n |f|_2 (Mignotte), and
    # lc(f) times it, the product of some lifted factors, needs twice that
    # below p^(2^k).
    bound = 2 * abs(f[0]) * (math.isqrt(sum(a * a for a in f)) + 1) << n
    k = 0
    while p ** (1 << k) <= bound:
        k += 1
    lifted = _hensel_lift(p, f, modular, k)
    m = p ** (1 << k)
    factors = []
    left = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            g = [f[0]]
            for i in subset:
                g = _trunc(mul(g, lifted[i]), m)
            g = _primitive(g)
            q = _exact_quotient(f, g)
            if q is not None:
                factors.append(g)
                f = q
                left = [i for i in left if i not in subset]
                break
        else:
            size += 1
    return factors + [f]


# ---------------------------------------------------------------------------
# real roots: sympy 1.14's continued-fraction isolation and refinement
# ---------------------------------------------------------------------------

def _shift(f: list[int], a: int) -> list[int]:
    """f(x + a) (``dup_shift``)."""
    f, n = list(f), len(f) - 1
    for i in range(n, 0, -1):
        for j in range(0, i):
            f[j + 1] += a * f[j]
    return f


def _reverse(f: list[int]) -> list[int]:
    """x^n f(1/x) without leading zeros (``dup_reverse``)."""
    return _strip(f[::-1])


def _mirror(f: list[int]) -> list[int]:
    """f(-x) (``dup_mirror``)."""
    f = list(f)
    for i in range(len(f) - 2, -1, -2):
        f[i] = -f[i]
    return f


def _transform(f: list[int], p: list[int], q: list[int]) -> list[int]:
    """q^n f(p / q) (``dup_transform``)."""
    if not f:
        return []
    h, Q = [f[0]], [[1]]
    for _ in range(len(f) - 1):
        Q.append(mul(Q[-1], q))
    for c, qi in zip(f[1:], Q[1:]):
        h = _add(mul(h, p), [c * x for x in qi])
    return h


def _sign_variations(f: list[int]) -> int:
    prev, k = 0, 0
    for coeff in f:
        if coeff * prev < 0:
            k += 1
        if coeff:
            prev = coeff
    return k


def _upper_bound(f: list[int]) -> int | None:
    """e with 2^e the LMQ bound on the positive roots (``dup_root_upper_bound``),
    or None when there is none."""
    n, P = len(f), []
    t = n * [1]
    if f[0] < 0:
        f = [-a for a in f]
    f = f[::-1]
    # ZZ.log is int(math.log(a, 2)), a float logarithm: not floor(log2 a)
    # near powers of 2, which is why it is kept.
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


def _lower_bound_int(f: list[int]) -> int:
    """``K(int(dup_root_lower_bound(f)))``: int(1 / 2^e) for the LMQ bound
    2^e of x^n f(1/x), 0 when there is none."""
    e = _upper_bound(_reverse(f))
    return 0 if e is None or e > 0 else 1 << -e


def _step(f: list[int], M: tuple) -> tuple[list[int], tuple]:
    """One step of positive real root refinement (``dup_step_refine_real_root``)."""
    a, b, c, d = M
    if a == b and c == d:
        return f, (a, b, c, d)
    A = _lower_bound_int(f)
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


def _refine_to_finite(f: list[int], M: tuple) -> tuple[list[int], tuple]:
    """``dup_inner_refine_real_root(f, M, mobius=True)`` with no eps or steps."""
    while not M[2]:
        f, M = _step(f, M)
    return f, M


def _inner_isolate(f: list[int]) -> list[tuple]:
    """Mobius transforms of the positive roots (``dup_inner_isolate_real_roots``)."""
    a, b, c, d = 1, 0, 0, 1
    k = _sign_variations(f)
    if k == 0:
        return []
    if k == 1:
        return [_refine_to_finite(f, (a, b, c, d))]
    roots, stack = [], [(a, b, c, d, f, k)]
    while stack:
        a, b, c, d, f, k = stack.pop()
        A = _lower_bound_int(f)
        if A >= 1:
            f = _shift(f, A)
            b, d = A * a + b, A * c + d
            if not f[-1]:
                roots.append((f, (b, b, d, d)))
                f = f[:-1]
            k = _sign_variations(f)
            if k == 0:
                continue
            if k == 1:
                roots.append(_refine_to_finite(f, (a, b, c, d)))
                continue
        f1 = _shift(f, 1)
        a1, b1, c1, d1, r = a, a + b, c, c + d, 0
        if not f1[-1]:
            roots.append((f1, (b1, b1, d1, d1)))
            f1, r = f1[:-1], 1
        k1 = _sign_variations(f1)
        k2 = k - k1 - r
        a2, b2, c2, d2 = b, a + b, d, c + d
        if k2 > 1:
            f2 = _shift(_reverse(f), 1)
            if not f2[-1]:
                f2 = f2[:-1]
            k2 = _sign_variations(f2)
        else:
            f2 = None
        if k1 < k2:
            a1, a2, b1, b2 = a2, a1, b2, b1
            c1, c2, d1, d2 = c2, c1, d2, d1
            f1, f2, k1, k2 = f2, f1, k2, k1
        if not k1:
            continue
        if f1 is None:
            f1 = _shift(_reverse(f), 1)
            if not f1[-1]:
                f1 = f1[:-1]
        if k1 == 1:
            roots.append(_refine_to_finite(f1, (a1, b1, c1, d1)))
        else:
            stack.append((a1, b1, c1, d1, f1, k1))
        if not k2:
            continue
        if f2 is None:
            f2 = _shift(_reverse(f), 1)
            if not f2[-1]:
                f2 = f2[:-1]
        if k2 == 1:
            roots.append(_refine_to_finite(f2, (a2, b2, c2, d2)))
        else:
            stack.append((a2, b2, c2, d2, f2, k2))
    return roots


def _interval(M: tuple) -> tuple[Fraction, Fraction]:
    """``_mobius_to_interval``."""
    a, b, c, d = M
    s, t = Fraction(a, c), Fraction(b, d)
    return (s, t) if s <= t else (t, s)


class RealInterval:
    """sympy's ``RealInterval``: an isolating interval of a real root of the
    integer polynomial f, as a Mobius transform of the positive roots of
    f or of f(-x)."""

    __slots__ = ("mobius", "neg", "f")

    def __init__(self, mobius: tuple, neg: bool, f: list[int]):
        self.mobius, self.neg, self.f = mobius, neg, f

    @classmethod
    def of(cls, s: Fraction, t: Fraction, f: list[int]) -> "RealInterval":
        """``RealInterval((s, t), f, ZZ)``."""
        neg = False
        if s < 0:
            f, s, t, neg = _mirror(f), -t, -s, True
        a, c, b, d = s.numerator, s.denominator, t.numerator, t.denominator
        return cls((a, b, c, d), neg, _transform(f, _strip([a, b]), _strip([c, d])))

    @property
    def a(self) -> Fraction:
        a, b, c, d = self.mobius
        if not self.neg:
            return Fraction(a, c) if a * d < b * c else Fraction(b, d)
        return -Fraction(a, c) if a * d > b * c else -Fraction(b, d)

    @property
    def b(self) -> Fraction:
        a, b, c, d = self.mobius
        if self.neg:
            return -Fraction(a, c) if a * d < b * c else -Fraction(b, d)
        return Fraction(a, c) if a * d > b * c else Fraction(b, d)

    @property
    def dx(self) -> Fraction:
        return self.b - self.a

    @property
    def center(self) -> Fraction:
        return (self.a + self.b) / 2

    def is_disjoint(self, other: "RealInterval") -> bool:
        return self.b < other.a or other.b < self.a

    def _inner_refine(self) -> "RealInterval":
        f, mobius = _refine_to_finite(self.f, self.mobius)
        f, mobius = _step(f, mobius)
        return RealInterval(mobius, self.neg, f)

    def refine_disjoint(self, other: "RealInterval") -> tuple:
        expr = self
        while not expr.is_disjoint(other):
            expr, other = expr._inner_refine(), other._inner_refine()
        return expr, other

    def refine_size(self, dx: Fraction) -> "RealInterval":
        expr = self
        while not (expr.dx < dx):
            expr = expr._inner_refine()
        return expr


def isolate_real_roots_sqf(f: list[int]) -> list[RealInterval]:
    """``dup_isolate_real_roots_sqf(f, ZZ, blackbox=True)`` for an f with a
    nonzero constant term, so that 0 is not a root."""
    if len(f) <= 1:
        return []
    roots = [(-v, -u) for u, v in (_interval(M) for _, M in _inner_isolate(_mirror(f)))]
    roots += [_interval(M) for _, M in _inner_isolate(f)]
    return [RealInterval.of(s, t, f) for s, t in sorted(roots)]


def reals_sorted(reals: list[tuple]) -> list[tuple]:
    """``ComplexRootOf._reals_sorted``: (interval, factor) pairs made pairwise
    disjoint in list order, then sorted by left end."""
    for i, (u, f) in enumerate(reals):
        for j, (v, g) in enumerate(reals[i + 1:]):
            u, v = u.refine_disjoint(v)
            reals[i + j + 1] = (v, g)
        reals[i] = (u, f)
    return sorted(reals, key=lambda r: r[0].a)
