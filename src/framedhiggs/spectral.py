"""Spectral curves of matrix-group Higgs fields on the rational curve.

The characteristic coefficients of theta(z) are exact rational functions with
denominator powers of prod(z - x_i); the discriminant numerator is an exact
polynomial whose roots are the finite branch points.  Flags (globally
degenerate, unramified over the marked points, smooth) are decided exactly;
branch-point locations are exact where rational and isolated to a
configurable width otherwise.

One sympy factorization of the discriminant numerator over Z
(`Poly.integer_factors`) serves the whole analysis: its linear factors are
the rational branch points, its multiplicities decide square-freeness, and
its other factors are the irreducible factors sympy's root isolation would
find again by factoring, so they go to it directly.

The isolating boxes are the ones sympy's ``all_roots`` and ``eval_rational``
give.  sympy isolates and refines the real roots of those factors; the
non-real rectangles are sympy's Collins-Krandick quadtree and refinement
replayed on certified Henrici disks, each root count an exact comparison with
the disks (`_replay_rectangles`).  A step the disks cannot decide sends the
polynomial back to sympy end to end: its own complex isolation and
refinement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlinalg import ZERO, ONE, frac
from .liealg import (AlgebraElement, AlgebraModel, GroupData, char_poly_elementary,
                     theta_char_polys)
from .dimensions import hitchin_base_dim, hitchin_fiber_dim, torsor_dims
from .rationalfn import Poly, linear_roots


def elementary_numerators(model: AlgebraModel, points: Sequence[Fraction],
                          residues: Sequence[AlgebraElement]) -> list[Poly]:
    """Numerators E_k(z) with e_k(theta(z)) = E_k(z) / prod(z - x_i)^k.

    E_k has degree at most k n.  It is recovered by exact interpolation
    (`Poly.interpolate`) from the values of e_k on the matrix theta(t) at the
    rational sample points t = max(x_i) + 1, ..., max(x_i) + k n + 1, where
    theta(t) = M / D and e_k(theta(t)) q(t)^k = e_k(M) (q(t) / D)^k, with
    e_k(M) from the integer characteristic polynomial (`theta_char_polys`).
    """
    pts = [frac(p) for p in points]
    n = len(pts)
    q = Poly([ONE])
    for x in pts:
        q = q * Poly.x_minus(x)
    ts = [max(pts) + l for l in range(1, model.n * n + 2)]
    samples = [(e, q(t) / den) for t, (den, e, _) in
               zip(ts, theta_char_polys(pts, [el.matrix for el in residues], ts))]
    return [Poly.interpolate(ts[:k * n + 1],
                             [e[k - 1] * qd ** k for e, qd in samples[:k * n + 1]])
            for k in range(1, model.n + 1)]


def _disc_numerator(e_nums: list[Poly], r: int) -> Poly:
    """Discriminant numerator N with disc_lambda(char) = N / prod(z-x_i)^(r(r-1)).

    char(lambda) = lambda^r - e1 lambda^(r-1) + e2 lambda^(r-2) - ...
    """
    if r == 2:
        a1, a2 = e_nums[0], e_nums[1]
        return a1 * a1 - a2.scale(4)
    if r == 3:
        # monic cubic t^3 + b t^2 + c t + d with b = -e1/q, c = e2/q^2, d = -e3/q^3
        b, c, d = e_nums[0].scale(-1), e_nums[1], e_nums[2].scale(-1)
        term = (b * c * d).scale(18)
        term = term - (b * b * b * d).scale(4)
        term = term + b * b * c * c
        term = term - (c * c * c).scale(4)
        term = term - (d * d).scale(27)
        return term
    raise ValueError("spectral discriminants are implemented for ranks 2 and 3")


@dataclass
class SpectralCurveReport:
    group_id: str
    r: int
    n: int
    coeff_numerators: list[Poly]          # E_k, k = 1..r
    disc_numerator: Poly                  # N(z)
    degenerate: bool                      # N identically zero
    disc_at_marked: list[Fraction]        # N(x_i) = disc(char A_i)
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
                  residues: Sequence[AlgebraElement],
                  isolation_eps: Fraction = Fraction(1, 10 ** 9)) -> SpectralCurveReport:
    """Spectral-curve analysis for gl(r)/sl(r), r in {2, 3}."""
    g = model.group
    if not spectral_supported(g):
        raise ValueError("spectral data requires gl(r) or sl(r) with r in {2, 3}")
    r = g.matrix_size
    pts = [frac(p) for p in points]
    n = len(pts)
    e_nums = elementary_numerators(model, pts, residues)
    disc = _disc_numerator(e_nums, r)
    branch_degree = r * (r - 1) * (n - 2)
    if disc.is_zero():
        return SpectralCurveReport(g.group_id, r, n, e_nums, disc, True,
                                   [ZERO] * n, False, False, branch_degree,
                                   None, False, [], [], None)
    # The ramification test over a marked point is intrinsic: the residue
    # matrix has repeated eigenvalues iff its own characteristic discriminant
    # vanishes.  N(x_i) differs from it by the nonzero factor
    # prod_{j != i}(x_i - x_j)^(r(r-1)), which is the interpolation cross-check.
    disc_at = []
    for i, (x, el) in enumerate(zip(pts, residues)):
        e = char_poly_elementary(el.matrix)
        direct = _disc_numerator([Poly([c]) for c in e], r)(ZERO)
        factor = ONE
        for j, y in enumerate(pts):
            if j != i:
                factor *= (x - y) ** (r * (r - 1))
        if disc(x) != direct * factor:
            raise AssertionError("discriminant interpolation disagrees with the "
                                 "pointwise residue discriminant")
        disc_at.append(direct)
    unramified = all(v != 0 for v in disc_at)
    sign, factors = disc.integer_factors()
    squarefree = all(m == 1 for _, m in factors)
    inf_mult = branch_degree - disc.degree
    smooth = squarefree and inf_mult <= 1 and inf_mult >= 0
    rational = linear_roots(factors)
    boxes = _isolate_irrational_roots(sign, [f for f, _ in factors if len(f) > 2],
                                      isolation_eps)
    genus = spectral_genus(r, 0, n) if smooth else None
    return SpectralCurveReport(g.group_id, r, n, e_nums, disc, False, disc_at,
                               unramified, squarefree, branch_degree, inf_mult,
                               smooth, rational, boxes, genus)


def _isolate_irrational_roots(sign: int, factors: list[list[int]],
                              eps: Fraction) -> list[tuple]:
    """Isolating boxes of width 2*eps for the roots of sign * prod(factors).

    factors are the non-linear irreducible factors of the discriminant
    numerator, each taken once, from the one factorization that also gave
    the rational roots and the squarefree flag (`Poly.integer_factors`):
    their product is the square-free part of the numerator with the rational
    roots divided out, and its roots are the irrational branch points.  The
    real isolation and the replay both work on these factors.  Returns ("real", lo, hi) intervals and ("complex", (re_lo,
    im_lo), (re_hi, im_hi)) rectangles with exact rational endpoints: the
    boxes ``Poly.all_roots`` followed by ``eval_rational`` gives, in its
    order.  sympy's factors are derived from the known ones, not factored
    again (`_sympy_factors`); sympy isolates and refines their real roots
    (``ComplexRootOf._get_reals``, ``RealInterval.refine_size``), and the
    non-real rectangles are replayed on certified disks
    (`_replay_complexes`).  When the replay cannot decide a step, sympy's own
    complex isolation (``all_roots``) and refinement (``eval_rational``) run
    for the whole polynomial.
    """
    if not factors:
        return []
    # Imported here: sympy is most of the package's import time, and only
    # root finding needs it.
    import sympy
    from sympy.polys.domains import QQ
    from sympy.polys.rootoftools import ComplexRootOf

    scale, sp, pure = _sympy_factors(sign, factors)
    reals = ComplexRootOf._get_reals(pure)
    # sympy returns each root as scale * CRootOf(f, k), f one of the pure
    # factors; isolating the CRootOf to eps / scale keeps each box of width eps.
    tol = eps / scale
    ordered = [f for f, _ in sympy.ordered(pure)]
    centres = _replay_complexes(
        [[int(a) for a in f.rep.to_list()] for f in ordered],
        [sum(g == f for _, g, _ in reals) for f in ordered], tol)
    if centres is None:
        stol = sympy.Rational(tol.numerator, tol.denominator)
        centres = []
        for rt in sp.all_roots(radicals=False)[len(reals):]:
            approx = rt.as_coeff_Mul()[1].eval_rational(dx=stol, dy=stol)
            centres.append((_fraction(sympy.re(approx)), _fraction(sympy.im(approx))))
    out: list[tuple] = []
    qtol = QQ(tol.numerator, tol.denominator)
    for interval, _, _ in reals:
        re = scale * _fraction(interval.refine_size(qtol).center)
        out.append(("real", re - eps, re + eps))
    for re, im in centres:
        re, im = scale * re, scale * im
        out.append(("complex", (re - eps, im - eps), (re + eps, im + eps)))
    return out


def _sympy_factors(sign: int, factors: list[list[int]]) -> tuple:
    """(b, P, pure) for P = sign * prod(factors) as a sympy Poly.

    sympy's ``preprocess_roots`` writes P(z) as a multiple of Q(z / b) with
    Q an integer polynomial; its root isolation then factors Q
    (``_pure_factors``).  Here b comes from ``preprocess_roots``, which does
    no factoring, and the factors of Q from the known ones: the primitive
    part of f(b w) for each f, as PurePolys in ``_sort_factors`` order.
    """
    import sympy
    from sympy.polys.polyroots import preprocess_roots
    from sympy.polys.polyutils import _sort_factors

    x = sympy.Symbol("x")
    sp = sympy.Poly(sign, x)
    for f in factors:
        sp *= sympy.Poly(f, x)
    b = int(preprocess_roots(sp)[0])
    scaled = []
    for f in factors:
        g = [a * b ** k for k, a in enumerate(reversed(f))][::-1]
        content = math.gcd(*g)
        scaled.append(([a // content for a in g], 1))
    return (Fraction(b), sp,
            [(sympy.PurePoly(g, x), m) for g, m in _sort_factors(scaled)])


def _fraction(q) -> Fraction:
    """A sympy Rational or a polys-domain rational as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def _float_roots(coeffs: list[int]) -> list[complex]:
    """Float approximations of the roots of the polynomial with the given
    integer coefficients (highest first), or [] if floats cannot hold them.

    Durand-Kerner iteration on complex floats from a circle of radius
    2 max |a_i / a_0|^(1/i), which holds every root.  It stops once every
    correction is below 2^-40 of its root, and at most after 100 sweeps;
    clustered roots can leave float noise above that, so the roots count as
    settled once every correction is below 2^-20.  When they do not settle,
    the approximations are the eigenvalues of the companion matrix
    (``numpy.roots``).  Either way they only choose where `_henrici_box`
    starts.
    """
    n = len(coeffs) - 1
    try:
        a = [c / coeffs[0] for c in coeffs]
    except OverflowError:
        return []
    try:
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
    # Imported here: only a stalled iteration needs numpy, and importing the
    # CLI loads no numeric library.
    import numpy
    try:
        roots = [complex(w) for w in numpy.roots(a)]
    except numpy.linalg.LinAlgError:
        return []
    return roots if all(map(cmath.isfinite, roots)) else []


# A rectangle (u, v, s, t) is [u, s] x [v, t], as sympy's (a, b) corners.
# A box is the rectangle of a square about a certified disk.

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
    x, y = Fraction(X, 1 << k), Fraction(Y, 1 << k)
    return x - r, y - r, x + r, y + r


def _holds(rect, box) -> bool:
    """The box lies strictly inside the rectangle."""
    return rect[0] < box[0] and box[2] < rect[2] and rect[1] < box[1] and box[3] < rect[3]


def _apart(a, b) -> bool:
    """The closed rectangles are disjoint (``ComplexInterval.is_disjoint``)."""
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


def _halves(rect) -> tuple:
    """sympy's bisection of a rectangle at the midpoint of its wider side,
    of its height on a tie."""
    u, v, s, t = rect
    if s - u > t - v:
        m = (u + s) / 2
        return (u, v, m, t), (m, v, s, t)
    m = (v + t) / 2
    return (u, v, s, m), (u, m, s, t)


def _refine(rect, box):
    """``ComplexInterval._inner_refine`` of a rectangle that isolates the root
    in box: the half that holds the box, or None if the box meets the cut."""
    for half in _halves(rect):
        if _holds(half, box):
            return half
    return None


def _certified_boxes(coeffs: list[int], nreal: int, r: Fraction) -> list[tuple] | None:
    """One box about each root of the square-free integer polynomial, or None.

    Each box holds a root (`_henrici_box`).  When there are as many boxes as
    the degree and they are pairwise disjoint, each holds exactly one root.
    Each real root's box then meets the real axis; when exactly nreal boxes
    do (sympy's count of real roots), no box of a non-real root does.
    """
    boxes = []
    for z0 in _float_roots(coeffs):
        box = _henrici_box(coeffs, z0, r)
        if box is None:
            return None
        boxes.append(box)
    if len(boxes) != len(coeffs) - 1:
        return None
    if not all(_apart(a, b) for i, a in enumerate(boxes) for b in boxes[:i]):
        return None
    if sum(box[1] <= 0 <= box[3] for box in boxes) != nreal:
        return None
    return boxes


def _quadtree(coeffs: list[int], boxes: list[tuple]) -> list[tuple] | None:
    """``dup_isolate_complex_roots_sqf(coeffs, blackbox=True)`` replayed on the
    boxes of the upper-half-plane roots: the (rectangle, box) pairs in its
    order, or None when a count cannot be decided.

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
    lc = abs(coeffs[0])
    bound = 2 * max(Fraction(abs(a), lc) for a in coeffs)
    todo = [(-bound, ZERO, bound, bound)]
    held = _held(todo[0], boxes)
    if held is None or len(held) != len(boxes):
        return None
    found = []
    while todo:
        for half in _halves(todo.pop()):
            held = _held(half, boxes)
            if held is None:
                return None
            if len(held) == 1:
                found.append((half, held[0]))
            elif held:
                todo.append(half)
    found.sort(key=lambda f: (f[0][0], f[0][1]))
    return found


def _held(rect, boxes) -> list[tuple] | None:
    """The boxes strictly inside the rectangle, or None if one meets its
    boundary."""
    held = []
    for box in boxes:
        if _holds(rect, box):
            held.append(box)
        elif not _apart(rect, box):
            return None
    return held


def _replay_rectangles(factors: list[list[int]], nreal: list[int],
                       r: Fraction) -> list[list] | None:
    """sympy's complex isolating rectangles after ``_complexes_sorted``, as
    [rectangle, conj, box] in its order, or None when a step is undecided.

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
        found = _quadtree(coeffs, [box for box in boxes if box[1] > 0])
        if found is None:
            return None
        for rect, box in found:
            states += [[rect, True, box], [rect, False, box]]

    def step(state) -> bool:
        state[0] = _refine(state[0], state[2])
        return state[0] is not None

    for i, a in enumerate(states):
        for b in states[i + 1:]:
            while a[1] == b[1] and not _apart(a[0], b[0]):
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
    for rect, conj, box in states:
        centre = _centre(rect, box, tol)
        if centre is None:
            return None
        re, im = centre
        out.append((re, -im if conj else im))
    return out


def _centre(rect, box, tol: Fraction) -> tuple[Fraction, Fraction] | None:
    """The centre of ``ComplexInterval.refine_size(tol, tol)`` of a rectangle
    that isolates the root in box, or None if the box meets a cut.

    sympy cuts the longer side at its midpoint while not (both sides < tol).
    The side it cuts is always at least tol long, so each side is halved
    exactly while it is at least tol, whatever the order: on each axis the
    final side is the cell of a dyadic grid that holds the box, and every
    cut on the way is a line of that grid.
    """
    centre = []
    for lo, hi, b0, b1 in ((rect[0], rect[2], box[0], box[2]),
                           (rect[1], rect[3], box[1], box[3])):
        cell = (hi - lo) / (1 << int((hi - lo) / tol).bit_length())
        j = (b0 - lo) // cell
        if not (lo + j * cell < b0 and b1 < lo + (j + 1) * cell):
            return None
        centre.append(lo + (j + Fraction(1, 2)) * cell)
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
    points; the relatively framed fiber dimension is asserted equal to the base
    dimension N.  Genus-zero inputs are formula-level diagnostics.
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
    if relative != base:
        raise AssertionError(
            f"relatively framed fiber dimension {relative} != base dimension {base}")
    return TorsorFiberReport(gd, genus, n, True, base, fiber, framed, relative,
                             tuple(notes))
