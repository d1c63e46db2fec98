"""Spectral curves of matrix-group Higgs fields on the rational curve.

The characteristic coefficients of theta(z) are exact rational functions with
denominator powers of prod(z - x_i); their numerators, up to a power of one
integer D, are the balanced base-T digits of the invariants of an integer
multiple of theta(T) prod(T - x_i) at one integer T (`elementary_numerators`).
The discriminant numerator, up to the same kind of factor, is an integer
polynomial whose roots are the finite branch points (`_disc_numerator`).
Every polynomial on this path is an integer list in `intpoly`'s format,
highest coefficient first.  Flags (globally degenerate, unramified over the
marked points, smooth) are decided exactly; branch-point locations are exact
where rational and isolated to width 2 `ISOLATION_EPS` otherwise.

One factorization of the discriminant numerator over Z
(`intpoly.factor_list`) serves the whole analysis: its linear factors are
the rational branch points, its multiplicities decide square-freeness, and
its other factors are the irreducible factors sympy's root isolation would
find again by factoring, so they go to it directly.

The isolating boxes are the ones sympy 1.14's ``all_roots`` and
``eval_rational`` give, computed without sympy.  The real roots are
isolated and refined by a line-for-line port of sympy's continued-fraction
method (`intpoly.isolate_real_roots_sqf`); the non-real rectangles are
sympy's Collins-Krandick quadtree and refinement replayed on an integer
grid, each root count an exact comparison with a certified Henrici disk or
a quadratic's exact roots (`_replay_rectangles`).  Newton starts for the
disks are Durand-Kerner floats, then ``mpmath.polyroots`` at 30 digits
(`_certified_boxes`).  sympy is imported only where the port cannot decide
exactly (`_isolate_irrational_roots` names the three cases).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .exactlinalg import ZERO, frac
from .liealg import (AlgebraElement, AlgebraModel, GroupData, balanced_digits,
                     char_poly_elementary, theta_char_polys, theta_majorants)
from .dimensions import hitchin_base_dim, hitchin_fiber_dim, torsor_dims
from .intpoly import add, factor_list, isolate_real_roots_sqf, linear_roots, mul, reals_sorted

# Half-width of the isolating boxes of the irrational branch points.
ISOLATION_EPS = Fraction(1, 10 ** 9)


def elementary_numerators(model: AlgebraModel, points: Sequence[Fraction],
                          residues: Sequence[AlgebraElement]) -> tuple[int, list[list[int]]]:
    """(D, [e_1(N), ..., e_r(N)]) with e_k(theta(z)) prod(z - x_i)^k =
    e_k(N(z)) / D^k, each e_k(N) an integer polynomial, highest coefficient
    first.

    With x_j = p_j / q_j, A_i = a_i / d_i, L = lcm d_i and D = L prod q_j,
    N(z) = D theta(z) prod(z - x_j) is the integer matrix polynomial of
    `liealg.theta_char_polys`.  e_k(N) has degree at most (n - 1) k and
    coefficients within s^2 mu q[k-1] (`liealg.theta_majorants`), so at T =
    2^B above twice those bounds and above every |p_j|, e_k(N(T)) carries
    them as its (n - 1) k + 1 balanced base-T digits.
    """
    pts = [frac(p) for p in points]
    sites = [el.integer_form for el in residues]
    s, (mu, q) = model.n, theta_majorants(pts, sites)
    t = 2 ** max(2 * s * s * mu * max(q), *(abs(x.numerator) for x in pts)).bit_length()
    _, _, es, _ = theta_char_polys(pts, sites, t)
    out = []
    for k, e in enumerate(es, 1):
        digits = balanced_digits(e, t, (len(pts) - 1) * k + 1)
        while digits and not digits[-1]:
            digits.pop()
        out.append(digits[::-1])
    return math.lcm(*(d for d, _ in sites)) * math.prod(x.denominator for x in pts), out


def _disc_numerator(e_nums: list[list[int]], r: int) -> list[int]:
    """disc_lambda(lambda^r - e_1 lambda^(r-1) + e_2 lambda^(r-2) - ...) as an
    integer polynomial, for the integer polynomials e_k.

    The discriminant is homogeneous of weight r(r-1) when e_k has weight k,
    so on the e_k(N) of `elementary_numerators` it is D^(r(r-1)) times the
    numerator N with disc(char theta(z)) = N / prod(z - x_i)^(r(r-1)).
    """
    if r == 2:
        e1, e2 = e_nums
        return add(mul(e1, e1), mul([-4], e2))
    if r == 3:
        e1, e2, e3 = e_nums
        e1e1, e2e2 = mul(e1, e1), mul(e2, e2)
        terms = [mul([18], mul(mul(e1, e2), e3)), mul([-4], mul(mul(e1e1, e1), e3)),
                 mul(e1e1, e2e2), mul([-4], mul(e2e2, e2)), mul([-27], mul(e3, e3))]
        return reduce(add, terms)
    raise ValueError("spectral discriminants are implemented for ranks 2 and 3")


@dataclass
class SpectralCurveReport:
    group_id: str
    r: int
    n: int
    disc_numerator: list[int]             # D^(r(r-1)) N(z), highest coefficient first
    degenerate: bool                      # N identically zero
    disc_at_marked: list[Fraction]        # disc(char A_i)
    unramified_over_marked: bool
    squarefree: bool
    branch_degree: int                    # r(r-1)(n-2): total branch divisor degree
    infinity_multiplicity: int | None     # branch multiplicity in the infinity chart
    smooth: bool
    rational_branch_points: list[tuple[Fraction, int]]
    isolated_branch_boxes: list[tuple]    # sympy isolating intervals/rectangles
    genus: int | None

    def in_nonramified_smooth_locus(self) -> bool:
        return self.smooth and self.unramified_over_marked and not self.degenerate


def spectral_supported(group: GroupData) -> bool:
    """Whether `spectral_data` handles the group: gl(r) or sl(r), r in {2, 3}."""
    return group.family in ("gl", "sl") and group.matrix_size in (2, 3)


def spectral_data(model: AlgebraModel, points: Sequence[Fraction],
                  residues: Sequence[AlgebraElement]) -> SpectralCurveReport:
    """Spectral-curve analysis for gl(r)/sl(r), r in {2, 3}."""
    g = model.group
    if not spectral_supported(g):
        raise ValueError("spectral data requires gl(r) or sl(r) with r in {2, 3}")
    r = g.matrix_size
    weight = r * (r - 1)
    pts = [frac(p) for p in points]
    n = len(pts)
    den, e_nums = elementary_numerators(model, pts, residues)
    disc = _disc_numerator(e_nums, r)
    branch_degree = weight * (n - 2)
    if not disc:
        return SpectralCurveReport(g.group_id, r, n, disc, True, [ZERO] * n, False,
                                   False, branch_degree, None, False, [], [], None)
    # The ramification test over a marked point is intrinsic: the residue
    # matrix has repeated eigenvalues iff its own characteristic discriminant
    # vanishes.  N(x_i) differs from it by the nonzero factor
    # prod_{j != i}(x_i - x_j)^(r(r-1)), which cross-checks the
    # Faddeev-LeVerrier numerators and their digit read against each residue
    # on its own: Newton's identities on d_i A_i, d_i the denominator of A_i,
    # give the integers e_k(d_i A_i) = d_i^k e_k(A_i).
    disc_at = []
    for i, (x, el) in enumerate(zip(pts, residues)):
        d = el.integer_form[0]
        e = char_poly_elementary(el.matrix)
        scaled = [int(c * d ** k) for k, c in enumerate(e, 1)]
        # the discriminant of constants is [] or [value]
        direct = Fraction(sum(_disc_numerator([[c] if c else [] for c in scaled], r)),
                          d ** weight)
        factor = math.prod((x - y) ** weight for j, y in enumerate(pts) if j != i)
        if reduce(lambda acc, c: acc * x + c, disc, ZERO) / den ** weight != direct * factor:
            raise AssertionError("Faddeev-LeVerrier discriminant disagrees with the "
                                 "pointwise residue discriminant")
        disc_at.append(direct)
    unramified = all(v != 0 for v in disc_at)
    sign, factors = factor_list(disc)
    squarefree = all(m == 1 for _, m in factors)
    inf_mult = branch_degree - (len(disc) - 1)
    smooth = squarefree and inf_mult <= 1 and inf_mult >= 0
    rational = linear_roots(factors)
    boxes = _isolate_irrational_roots(sign, [f for f, _ in factors if len(f) > 2],
                                      ISOLATION_EPS)
    genus = spectral_genus(r, 0, n) if smooth else None
    return SpectralCurveReport(g.group_id, r, n, disc, False, disc_at, unramified,
                               squarefree, branch_degree, inf_mult, smooth, rational,
                               boxes, genus)


def _isolate_irrational_roots(sign: int, factors: list[list[int]],
                              eps: Fraction) -> list[tuple]:
    """Isolating boxes of width 2*eps for the roots of sign * prod(factors).

    factors are the non-linear irreducible factors of the discriminant
    numerator, each taken once, from the one factorization that also gave
    the rational roots and the squarefree flag (`intpoly.factor_list`):
    their product is the square-free part of the numerator with the rational
    roots divided out, and its roots are the irrational branch points.
    Returns ("real", lo, hi) intervals and ("complex", (re_lo, im_lo),
    (re_hi, im_hi)) rectangles with exact rational endpoints: the boxes
    sympy's ``Poly.all_roots`` followed by ``eval_rational`` gives, in its
    order.  The real roots are isolated and refined by the port of sympy's
    continued-fraction method (`intpoly.isolate_real_roots_sqf`,
    `intpoly.reals_sorted`, ``RealInterval.refine_size``) on sympy's scaled
    factors (`_scaled_factors`), and the non-real rectangles are replayed on
    an integer grid against certified disks or a quadratic's exact roots
    (`_replay_complexes`).

    sympy is imported only where the port cannot decide exactly:
    - two or more factors have non-real roots: their order is
      ``sympy.ordered``'s (`_sympy_ordered`);
    - the coefficient gcd of `_integer_basis` has a prime factor beyond
      trial division: ``sympy.divisors`` lists its divisors;
    - the replay cannot decide a step (a disk meets a cut; a quadratic has
      purely imaginary roots; the disks are not certified from the float
      starts nor from mpmath's): sympy's own complex isolation
      (``all_roots``) and refinement (``eval_rational``) run for the whole
      polynomial (`_sympy_complexes`).
    """
    if not factors:
        return []
    scale, pure = _scaled_factors(factors)
    reals = reals_sorted([(interval, i) for i, f in enumerate(pure)
                          for interval in isolate_real_roots_sqf(f)])
    # sympy returns each root as scale * CRootOf(f, k), f one of the scaled
    # factors; isolating the CRootOf to eps / scale keeps each box of width eps.
    tol = eps / scale
    nreal = [0] * len(pure)
    for _, i in reals:
        nreal[i] += 1
    order = range(len(pure))
    if sum(len(f) - 1 > k for f, k in zip(pure, nreal)) > 1:
        order = _sympy_ordered(pure)
    centres = _replay_complexes([pure[i] for i in order], [nreal[i] for i in order], tol)
    if centres is None:
        centres = _sympy_complexes(sign, factors, tol, len(reals))
    out: list[tuple] = []
    for interval, _ in reals:
        re = scale * interval.refine_size(tol).center
        out.append(("real", re - eps, re + eps))
    for re, im in centres:
        re, im = scale * re, scale * im
        out.append(("complex", (re - eps, im - eps), (re + eps, im + eps)))
    return out


def _scaled_factors(factors: list[list[int]]) -> tuple[Fraction, list[list[int]]]:
    """(b, pure) with pure the factors of Q, P(z) = c Q(z / b) for P the
    product of the factors, as sympy's root isolation finds them.

    sympy's ``preprocess_roots`` takes b from ``_integer_basis(P)``; its
    root isolation then factors Q (``_pure_factors``).  Here the factors of
    Q are derived from the known ones: the primitive part of f(b w) for each
    f, sorted as ``_sort_factors`` sorts them.
    """
    product = reduce(mul, factors)
    b = _integer_basis(product) or 1
    scaled = []
    for f in factors:
        g = [a * b ** k for k, a in enumerate(reversed(f))][::-1]
        content = math.gcd(*g)
        scaled.append([a // content for a in g])
    return Fraction(b), sorted(scaled, key=lambda g: (len(g), g))


def _integer_basis(poly: list[int]) -> int | None:
    """sympy 1.14's ``polyroots._integer_basis``: the integer b such that
    substituting z = b w gives p(z) = m q(w) with smaller coefficients, or
    None."""
    monoms = [len(poly) - 1 - i for i, a in enumerate(poly) if a]
    coeffs = [abs(a) for a in poly if a]
    if coeffs[0] < coeffs[-1]:
        coeffs = list(reversed(coeffs))
        n = monoms[0]
        monoms = [n - i for i in reversed(monoms)]
    else:
        return None
    monoms = monoms[:-1]
    coeffs = coeffs[:-1]
    # Special case for two-term polynomials
    if len(monoms) == 1:
        r = _integer_root(coeffs[0], monoms[0])
        return r if r ** monoms[0] == coeffs[0] else None
    divs = reversed(_divisors(math.gcd(*coeffs))[1:])
    try:
        div = next(divs)
    except StopIteration:
        return None
    while True:
        for monom, coeff in zip(monoms, coeffs):
            if coeff % div ** monom != 0:
                try:
                    div = next(divs)
                except StopIteration:
                    return None
                else:
                    break
        else:
            return div


def _integer_root(c: int, k: int) -> int:
    """The largest r with r^k <= c."""
    lo, hi = 0, 1 << (c.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= c:
            lo = mid
        else:
            hi = mid - 1
    return lo


# Trial division up to this bound factors the coefficient gcd of
# `_integer_basis` whenever what is left is 1 or below its square.
_TRIAL_BOUND = 1 << 12


def _divisors(n: int) -> list[int]:
    """The positive divisors of n in increasing order (``sympy.divisors``),
    from trial division up to `_TRIAL_BOUND`; past it, sympy's own."""
    primes, m, p = {}, n, 2
    while p * p <= m:
        if p > _TRIAL_BOUND:
            from sympy import divisors
            return [int(d) for d in divisors(n)]
        while m % p == 0:
            primes[p] = primes.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes[m] = primes.get(m, 0) + 1
    divs = [1]
    for p, e in primes.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _sympy_ordered(pure: list[list[int]]) -> list[int]:
    """The positions of the factors in ``sympy.ordered`` order, the order
    in which sympy's complex isolation takes them
    (``ComplexRootOf._get_complexes``)."""
    import sympy
    x = sympy.Symbol("x")
    return [pure.index([int(a) for a in f.rep.to_list()]) for f, _ in
            sympy.ordered([(sympy.PurePoly(g, x), 1) for g in pure])]


def _sympy_complexes(sign: int, factors: list[list[int]], tol: Fraction,
                     nreal: int) -> list[tuple[Fraction, Fraction]]:
    """The centres of the non-real roots of sign * prod(factors) by sympy's
    own complex isolation (``all_roots``) and refinement (``eval_rational``),
    each over the scale of the root: where the replay declines."""
    import sympy
    x = sympy.Symbol("x")
    sp = sympy.Poly(sign, x)
    for f in factors:
        sp *= sympy.Poly(f, x)
    stol = sympy.Rational(tol.numerator, tol.denominator)
    centres = []
    for rt in sp.all_roots(radicals=False)[nreal:]:
        approx = rt.as_coeff_Mul()[1].eval_rational(dx=stol, dy=stol)
        centres.append((_fraction(sympy.re(approx)), _fraction(sympy.im(approx))))
    return centres


def _fraction(q) -> Fraction:
    """A sympy Rational as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def _float_roots(coeffs: list[int]) -> list[complex]:
    """Float approximations of the roots of the polynomial with the given
    integer coefficients (highest first), or [] if they do not settle.

    Durand-Kerner iteration on complex floats from a circle of radius
    2 max |a_i / a_0|^(1/i), which holds every root.  It stops once every
    correction is below 2^-40 of its root, and at most after 100 sweeps;
    clustered roots can leave float noise above that, so the roots count as
    settled once every correction is below 2^-20.  They only choose where
    `_henrici_box` starts.
    """
    n = len(coeffs) - 1
    try:
        a = [c / coeffs[0] for c in coeffs]
        radius = 2 * max(abs(a[i]) ** (1 / i) for i in range(1, n + 1))
        roots = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
        for _ in range(100):
            worst = 0.0
            for i, z in enumerate(roots):
                w = 0j
                for c in a:
                    w = w * z + c
                for j, other in enumerate(roots):
                    if j != i:
                        w /= z - other
                roots[i] = z - w
                worst = max(worst, abs(w) / max(1.0, abs(z)))
            if worst < 2.0 ** -40:
                break
        if worst < 2.0 ** -20 and all(map(cmath.isfinite, roots)):
            return roots
    except (OverflowError, ZeroDivisionError):
        pass
    return []


def _mp_roots(coeffs: list[int]) -> list[complex]:
    """The roots of the integer polynomial by ``mpmath.polyroots`` at 30
    digits as complex floats, or [] if they do not converge or overflow.
    More digits round to the same floats, up to order.  mpmath's global
    precision, which sympy shares, is left as it was."""
    # Imported here: importing the CLI loads no numeric library.
    import mpmath
    bits = max(map(abs, coeffs)).bit_length()
    with mpmath.workdps(30):
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=4 * bits + 200)
        except mpmath.libmp.NoConvergence:
            return []
    roots = [complex(w) for w in roots]
    return roots if all(map(cmath.isfinite, roots)) else []


# A box (x0, y0, x1, y1, d, ex, ey) is [x0, x1] x [y0, y1] over the
# denominator d > 0, about one root.  ex = 1 when x0 = x1 is the root's
# exact real part and ey = 1 when y0 = y1 is its exact imaginary part; both
# are 0 for the square about a certified disk.
#
# The quadtree of a factor lives on an integer grid: a rectangle (U, V, S, T,
# k) is [U, S] x [V, T] times B / 2^k, B the factor's bound (`_bound`), as
# sympy's (a, b) corners, and its boxes are taken in units of B
# (`_in_units`).  A root on a cut counts where sympy's rectangles count it,
# in [u, s) x (v, t]: ``_traverse_quadrants(exclude=True)`` leaves out the
# east and south edges.

def _henrici_box(coeffs: list[int], z0: complex, r: Fraction) -> tuple | None:
    """The square of half-side r about z0 polished by exact Newton steps, or
    None if Newton does not converge to a simple root.

    Newton stops once the disk D(z, rho) with rho = n |P(z)| / |P'(z)| has
    rho < r.  D holds a root of the degree-n P (Henrici, Applied and
    Computational Complex Analysis I, 1974), and the square holds D.  Floats
    only choose where Newton starts: z = (X + iY) / 2^k with integers X, Y.
    """
    n = len(coeffs) - 1
    k = 64
    X, Y = round(Fraction(z0.real) * 2 ** k), round(Fraction(z0.imag) * 2 ** k)
    while True:
        # 2^(kn) P(z) and 2^(k(n-1)) P'(z) by Horner's rule on integers.
        pr = pi = dr = di = 0
        for j, a in enumerate(coeffs):
            dr, di = dr * X - di * Y + pr, dr * Y + di * X + pi
            pr, pi = pr * X - pi * Y + (a << (k * j)), pr * Y + pi * X
        norm2 = dr * dr + di * di
        if not norm2:
            return None
        # rho^2 = n^2 |P|^2 / |P'|^2 < r^2
        if n * n * (pr * pr + pi * pi) * r.denominator ** 2 < \
                (r.numerator ** 2 * norm2) << (2 * k):
            break
        if k > 4096:
            return None
        # z - P/P' = (Z P' - P) / (2^k P') in the scaled values, rounded
        # to the grid 2^-2k.
        nr, ni = X * dr - Y * di - pr, X * di + Y * dr - pi
        X = ((nr * dr + ni * di) << (k + 1)) // norm2 + 1 >> 1
        Y = ((ni * dr - nr * di) << (k + 1)) // norm2 + 1 >> 1
        k *= 2
    h, d = r.numerator << k, r.denominator
    return X * d - h, Y * d - h, X * d + h, Y * d + h, d << k, 0, 0


def _quadratic_boxes(coeffs: list[int], nreal: int, r: Fraction) -> list[tuple] | None:
    """The boxes of the non-real roots of a z^2 + b z + c (a > 0) from its
    closed form, or None when nreal is not its real root count or a root
    is purely imaginary (sympy isolates those another way).

    The roots -b / 2a +- i sqrt(m) / 2a, m = 4ac - b^2 > 0, have an exact
    real part; the imaginary part is exact too when m is a square, and lies
    strictly between consecutive multiples of 1 / (2a 2^K), 2^K > 1 / r,
    otherwise.
    """
    a, b, c = coeffs
    m = 4 * a * c - b * b
    if 2 * (m < 0) != nreal or m > 0 and not b:
        return None
    if m < 0:
        return []
    K = (r.denominator // r.numerator).bit_length()
    s = math.isqrt(m << 2 * K)
    ey = int(s * s == m << 2 * K)
    x, d = -b << K, a << (K + 1)
    return [(x, s, x, s + 1 - ey, d, 1, ey), (x, ey - s - 1, x, -s, d, 1, ey)]


def _disjoint(a, b) -> bool:
    """The closed boxes are disjoint."""
    return (a[2] * b[4] < b[0] * a[4] or b[2] * a[4] < a[0] * b[4]
            or a[3] * b[4] < b[1] * a[4] or b[3] * a[4] < a[1] * b[4])


def _certified_boxes(coeffs: list[int], nreal: int, r: Fraction) -> list[tuple] | None:
    """One box about each root of the square-free integer polynomial, or None.

    A quadratic's boxes come from its closed form (`_quadratic_boxes`).
    Otherwise each box holds a root (`_henrici_box`).  When there are as
    many boxes as the degree and they are pairwise disjoint, each holds
    exactly one root.  Each real root's box then meets the real axis; when
    exactly nreal boxes do (sympy's count of real roots), no box of a
    non-real root does.  Newton starts from the float roots, then from
    mpmath's (`_mp_roots`), until a set of boxes passes.
    """
    if len(coeffs) == 3:
        return _quadratic_boxes(coeffs, nreal, r)
    for starts in (_float_roots, _mp_roots):
        boxes = []
        for z0 in starts(coeffs):
            box = _henrici_box(coeffs, z0, r)
            if box is None:
                break
            boxes.append(box)
        if (len(boxes) == len(coeffs) - 1
                and all(_disjoint(a, b) for i, a in enumerate(boxes) for b in boxes[:i])
                and sum(box[1] <= 0 <= box[3] for box in boxes) == nreal):
            return boxes
    return None


def _bound(coeffs: list[int]) -> Fraction:
    """sympy's B = 2 max |a / lc|: [-B, B] x [0, B] holds the upper roots."""
    return Fraction(2 * max(map(abs, coeffs)), abs(coeffs[0]))


def _in_units(box, bound: Fraction) -> tuple:
    """The box in units of the bound: each corner c as c / B."""
    x0, y0, x1, y1, d, ex, ey = box
    m = bound.denominator
    return x0 * m, y0 * m, x1 * m, y1 * m, d * bound.numerator, ex, ey


def _corners(rect, bound: Fraction) -> tuple[Fraction, ...]:
    """The grid rectangle as sympy's corners (u, v, s, t)."""
    scale = bound / (1 << rect[4])
    return tuple(scale * c for c in rect[:4])


def _holds(rect, box) -> bool:
    """The rectangle counts the root of the box (in units of its bound)."""
    U, V, S, T, k = rect
    x0, y0, x1, y1, d, ex, ey = box
    return (U * d < (x0 << k) + ex and x1 << k < S * d
            and V * d < y0 << k and y1 << k < T * d + ey)


def _misses(rect, box) -> bool:
    """The rectangle does not count the root of the box."""
    U, V, S, T, k = rect
    x0, y0, x1, y1, d, ex, ey = box
    return (x1 << k < U * d or S * d < (x0 << k) + ex
            or y1 << k < V * d + ey or T * d < y0 << k)


def _halves(rect) -> tuple:
    """sympy's bisection of a rectangle at the midpoint of its wider side,
    of its height on a tie: the halves one level down the grid."""
    U, V, S, T, k = rect
    if S - U > T - V:
        return (2 * U, 2 * V, U + S, 2 * T, k + 1), (U + S, 2 * V, 2 * S, 2 * T, k + 1)
    return (2 * U, 2 * V, 2 * S, V + T, k + 1), (2 * U, V + T, 2 * S, 2 * T, k + 1)


def _refine(rect, box):
    """``ComplexInterval._inner_refine`` of a rectangle that isolates the root
    of box: the half that counts it, or None if the box meets the cut."""
    for half in _halves(rect):
        if _holds(half, box):
            return half
    return None


def _held(rect, boxes) -> list[tuple] | None:
    """The boxes whose roots the rectangle counts, or None if one is
    undecided."""
    held = []
    for box in boxes:
        if _holds(rect, box):
            held.append(box)
        elif not _misses(rect, box):
            return None
    return held


def _quadtree(boxes: list[tuple]) -> list[tuple] | None:
    """``dup_isolate_complex_roots_sqf(f, blackbox=True)`` replayed on the
    boxes of the upper-half-plane roots of f, in units of its bound: the
    (grid rectangle, box) pairs in its order, or None when a count cannot
    be decided.

    sympy starts from [-B, B] x [0, B], B = 2 max |a / lc|, bisects it and
    keeps each half by its root count N: dropped at 0, accepted at 1,
    bisected again above; it then sorts the accepted rectangles by their
    south-west corner.  Its count leaves out roots on the south edge, so the
    real roots never count; every other root counts where its box lies
    strictly inside the half and not where it lies strictly outside.  Which
    rectangle sympy bisects next (the least in area) does not matter: each
    rectangle's fate depends on itself alone.  The first cut is Re = 0, so a
    replayed factor has no purely imaginary root.
    """
    if not boxes:
        return []
    top = (-1, 0, 1, 1, 0)
    held = _held(top, boxes)
    if held is None or len(held) != len(boxes):
        return None
    todo, found = [top], []
    while todo:
        for half in _halves(todo.pop()):
            held = _held(half, boxes)
            if held is None:
                return None
            if len(held) == 1:
                found.append((half, held[0]))
            elif held:
                todo.append(half)
    found.sort(key=lambda f: (Fraction(f[0][0], 1 << f[0][4]),
                              Fraction(f[0][1], 1 << f[0][4])))
    return found


def _apart(a, b) -> bool:
    """The closed rectangles of two states are disjoint
    (``ComplexInterval.is_disjoint``); on the grid when the bounds agree."""
    if a[3] != b[3]:
        (u, v, s, t), (p, q, w, z) = _corners(a[0], a[3]), _corners(b[0], b[3])
        return s < p or w < u or t < q or z < v
    (U, V, S, T, k), (P, Q, W, Z, j) = a[0], b[0]
    return S << j < P << k or W << k < U << j or T << j < Q << k or Z << k < V << j


def _replay_rectangles(factors: list[list[int]], nreal: list[int],
                       r: Fraction) -> list[list] | None:
    """sympy's complex isolating rectangles after ``_complexes_sorted``, as
    [grid rectangle, conj, box, bound] in its order, or None when a step is
    undecided.

    factors are sympy's irreducible factors in its order, nreal their real
    root counts, and r the half-side of the certified boxes.  Each factor
    gives [conjugate, root] per upper root (`_quadtree`).  Then
    ``_refine_complexes`` is replayed: rectangles of the same half-plane
    are refined in pairs until disjoint, each rectangle until its x-range
    misses 0 (sympy's count of purely imaginary roots is 0, as no box meets
    Re = 0) and until its y-range misses 0.
    """
    states: list[list] = []
    for coeffs, count in zip(factors, nreal):
        boxes = _certified_boxes(coeffs, count, r)
        if boxes is None:
            return None
        bound = _bound(coeffs)
        found = _quadtree([_in_units(box, bound) for box in boxes if box[1] > 0])
        if found is None:
            return None
        for rect, box in found:
            states += [[rect, True, box, bound], [rect, False, box, bound]]

    def step(state) -> bool:
        state[0] = _refine(state[0], state[2])
        return state[0] is not None

    for i, a in enumerate(states):
        for b in states[i + 1:]:
            while a[1] == b[1] and not _apart(a, b):
                if not (step(a) and step(b)):
                    return None
    for state in states:
        while state[0][0] * state[0][2] <= 0:
            if not step(state):
                return None
    for state in states:
        while state[0][1] * state[0][3] <= 0:
            if not step(state):
                return None
    return states


def _replay_complexes(factors: list[list[int]], nreal: list[int],
                      tol: Fraction) -> list[tuple[Fraction, Fraction]] | None:
    """The centres ``eval_rational(dx=tol, dy=tol)`` gives for the non-real
    roots, in sympy's order, from `_replay_rectangles` with boxes of half-side
    tol / 2^50; None when a step is undecided."""
    states = _replay_rectangles(factors, nreal, tol / 2 ** 50)
    if states is None:
        return None
    out = []
    for rect, conj, box, bound in states:
        centre = _centre(rect, box, bound, tol)
        if centre is None:
            return None
        re, im = centre
        out.append((re, -im if conj else im))
    return out


def _centre(rect, box, bound: Fraction, tol: Fraction) -> tuple[Fraction, Fraction] | None:
    """The centre of ``ComplexInterval.refine_size(tol, tol)`` of a grid
    rectangle that isolates the root of box, or None if the box meets a cut.

    sympy cuts the longer side at its midpoint while not (both sides < tol).
    The side it cuts is always at least tol long, so each side is halved
    exactly while it is at least tol, whatever the order: on each axis the
    final side is the cell of a dyadic grid that holds the root, and every
    cut on the way is a line of that grid.
    """
    U, V, S, T, k = rect
    x0, y0, x1, y1, d, ex, ey = box
    n, m = bound.numerator * tol.denominator, bound.denominator * tol.numerator
    centre = []
    for lo, hi, b0, b1, e0, e1 in ((U, S, x0, x1, ex, 0), (V, T, y0, y1, 0, ey)):
        w = hi - lo
        halvings = (w * n // (m << k)).bit_length()
        level = k + halvings
        # the cell [edge, edge + w] / 2^level that counts the root
        j = ((b0 << level) - (lo * d << halvings) - e1) // (d * w)
        edge = (lo << halvings) + j * w
        if not (edge * d < (b0 << level) + e0 and b1 << level < (edge + w) * d + e1):
            return None
        centre.append(Fraction(bound.numerator * (2 * edge + w),
                               bound.denominator << (level + 1)))
    return centre[0], centre[1]


def riemann_hurwitz_genus(r: int, g: int, n: int) -> int:
    """Genus g_s of the smooth rank-r spectral curve by Riemann-Hurwitz with
    simple ramification: 2 g_s - 2 = r (2g - 2) + r(r-1)(2g - 2 + n)."""
    if r < 2 or g < 0 or n < 1:
        raise ValueError("need r >= 2, g >= 0, n >= 1")
    rh_edges = r * (2 * g - 2) + r * (r - 1) * (2 * g - 2 + n)
    if rh_edges % 2:
        raise RuntimeError("Riemann-Hurwitz parity failure (formula bug)")
    return rh_edges // 2 + 1


def spectral_genus(r: int, g: int, n: int) -> int:
    """Riemann-Hurwitz genus of the smooth rank-r spectral curve, which must
    agree exactly with its closed form and the gl(r) fiber dimension formula."""
    gs = riemann_hurwitz_genus(r, g, n)
    closed = r * (g - 1) + 1 + (r * (r - 1) // 2) * (2 * g - 2 + n)
    fiber = hitchin_fiber_dim(f"gl({r})", g, n, allow_genus_zero=True)
    if not (gs == closed == fiber):
        raise RuntimeError(
            f"spectral genus identity failure for r={r}, g={g}, n={n}: "
            f"Riemann-Hurwitz {gs}, closed form {closed}, fiber formula {fiber}")
    return gs


@dataclass
class TorsorFiberReport:
    group_id: str
    genus: int
    n: int
    in_nonramified_smooth_locus: bool
    base_dim: int | None = None
    fiber_dim: int | None = None
    framed_fiber_dim: int | None = None
    relative_fiber_dim: int | None = None
    notes: tuple[str, ...] = ()


def torsor_fiber_report(report: SpectralCurveReport, genus: int = 0) -> TorsorFiberReport:
    """Torsor dimension count over a spectral model's Hitchin fiber.

    Only emitted for models inside the smooth locus unramified over the marked
    points.  The relatively framed fiber dimension should equal the base
    dimension N; `hfb spectral` reports that comparison as a check, which
    fails when they differ.  Genus-zero inputs are formula-level diagnostics.
    """
    if not report.in_nonramified_smooth_locus():
        return TorsorFiberReport(report.group_id, genus, report.n, False,
                                 notes=("model is outside the smooth unramified locus; "
                                        "no torsor dimensions emitted",))
    gd = report.group_id
    n = report.n
    base = hitchin_base_dim(gd, genus, n)
    fiber = hitchin_fiber_dim(gd, genus, n, allow_genus_zero=True)
    tors = torsor_dims(gd, n)
    framed = fiber + tors.framed_over_unframed
    relative = fiber + tors.relative_over_unframed
    notes = []
    if genus < 1:
        notes.append("genus 0 diagnostic: moduli-level hypotheses do not apply; "
                     "the identity is formula-level")
    return TorsorFiberReport(gd, genus, n, True, base, fiber, framed, relative,
                             tuple(notes))
