"""Spectral curves of matrix-group Higgs fields on the rational curve.

The characteristic coefficients of theta(z) are exact rational functions with
denominator powers of prod(z - x_i); the discriminant numerator is an exact
polynomial whose roots are the finite branch points.  Flags (globally
degenerate, unramified over the marked points, smooth) are decided exactly;
branch-point locations are exact where rational and isolated to a
configurable width otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlinalg import ZERO, ONE, frac, mat_vec, sample_inverse
from .liealg import (AlgebraElement, AlgebraModel, GroupData, char_poly_elementary,
                     theta_at)
from .dimensions import hitchin_base_dim, hitchin_fiber_dim, torsor_dims
from .rationalfn import Poly


def elementary_numerators(model: AlgebraModel, points: Sequence[Fraction],
                          residues: Sequence[AlgebraElement]) -> list[Poly]:
    """Numerators E_k(z) with e_k(theta(z)) = E_k(z) / prod(z - x_i)^k.

    Recovered by exact polynomial interpolation from values of e_k on the
    matrix theta(t) at fresh rational sample points.
    """
    pts = [frac(p) for p in points]
    n = len(pts)
    mats = [el.matrix for el in residues]
    q = Poly([ONE])
    for x in pts:
        q = q * Poly.x_minus(x)
    e_at: dict[Fraction, list[Fraction]] = {}
    out = []
    for k in range(1, model.n + 1):
        deg = k * n
        ts, vinv = sample_inverse(pts, deg + 1, lambda t: [t ** e for e in range(deg + 1)])
        for t in ts:
            if t not in e_at:
                e_at[t] = char_poly_elementary(theta_at(pts, mats, t))
        out.append(Poly(mat_vec(vinv, [e_at[t][k - 1] * q(t) ** k for t in ts])))
    return out


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
        if r == 2:
            direct = e[0] * e[0] - 4 * e[1]
        else:
            b, c, d = -e[0], e[1], -e[2]
            direct = 18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3 - 27 * d * d
        factor = ONE
        for j, y in enumerate(pts):
            if j != i:
                factor *= (x - y) ** (r * (r - 1))
        if disc(x) != direct * factor:
            raise AssertionError("discriminant interpolation disagrees with the "
                                 "pointwise residue discriminant")
        disc_at.append(direct)
    unramified = all(v != 0 for v in disc_at)
    squarefree = disc.is_squarefree()
    inf_mult = branch_degree - disc.degree
    smooth = squarefree and inf_mult <= 1 and inf_mult >= 0
    rational = disc.rational_roots()
    boxes = _isolate_irrational_roots(disc, rational, isolation_eps)
    genus = spectral_genus(r, 0, n) if smooth else None
    return SpectralCurveReport(g.group_id, r, n, e_nums, disc, False, disc_at,
                               unramified, squarefree, branch_degree, inf_mult,
                               smooth, rational, boxes, genus)


def _isolate_irrational_roots(p: Poly, rational: list[tuple[Fraction, int]],
                              eps: Fraction) -> list[tuple]:
    """Isolating boxes of width 2*eps for the non-rational roots.

    Returns ("real", lo, hi) intervals and ("complex", (re_lo, im_lo),
    (re_hi, im_hi)) rectangles with exact rational endpoints; the rational
    roots are divided out first and the remainder made square-free.
    """
    reduced = p
    for root, mult in rational:
        for _ in range(mult):
            reduced = reduced.divmod(Poly.x_minus(root))[0]
    reduced = reduced.squarefree_part()
    if reduced.degree < 1:
        return []
    # Imported here: sympy is most of the package's import time, and only
    # root finding needs it.
    import sympy
    x = sympy.Symbol("z")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(reduced.c))
    sp = sympy.Poly(expr, x)
    starts = _float_roots(reduced)
    out: list[tuple] = []
    for rt in sp.all_roots(radicals=False):
        # sympy may rescale the variable and return c*CRootOf(...); isolate
        # the CRootOf to eps/|c| and scale back, so the box still has width eps.
        c, root = rt.as_coeff_Mul()
        c = _fraction(c)
        tol = eps / abs(c)
        # root.is_real reads sympy's root count; on the Mul rt it would
        # evaluate the root numerically and refine its cached interval.
        centre = None if root.is_real else _certified_centre(
            root, tol, [w / float(c) for w in starts])
        if centre is None:
            stol = sympy.Rational(tol.numerator, tol.denominator)
            approx = root.eval_rational(dx=stol, dy=stol)
            centre = (_fraction(sympy.re(approx)), _fraction(sympy.im(approx)))
        re, im = c * centre[0], c * centre[1]
        if root.is_real:
            out.append(("real", re - eps, re + eps))
        else:
            out.append(("complex", (re - eps, im - eps), (re + eps, im + eps)))
    return out


def _fraction(q) -> Fraction:
    """A sympy Rational or a polys-domain rational as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def _float_roots(p: Poly) -> list[complex]:
    """Float approximations of the roots of p, or [] if mpmath's
    Durand-Kerner iteration does not converge."""
    import mpmath
    from mpmath.libmp import NoConvergence

    try:
        roots = mpmath.polyroots([mpmath.mpf(a.numerator) / a.denominator
                                  for a in reversed(p.c)], extraprec=60)
    except NoConvergence:
        return []
    return [complex(w) for w in roots]


def _certified_centre(root, tol: Fraction,
                      starts: list[complex]) -> tuple[Fraction, Fraction] | None:
    """The centre that ``root.eval_rational(dx=tol, dy=tol)`` returns for a
    non-real CRootOf, found without sympy's Collins-Krandick steps.

    sympy keeps the upper-half-plane rectangle [u, s] x [v, t], which holds
    exactly one root of ``root.poly`` (the conjugate one when ``conj``), and
    while not (s - u < tol and t - v < tol) it cuts the longer side at its
    midpoint and keeps the half that holds the root.  The side it cuts is
    always at least tol long, so each side is halved exactly while it is at
    least tol, whatever the order: the two axes are replayed one after the
    other.  The float start nearest the rectangle's centre, polished by exact
    Newton steps, gives a disk D(z, rho) with
    rho^2 = n^2 |P(z)|^2 / |P'(z)|^2, which holds a root of the degree-n P
    (Henrici, Applied and Computational Complex Analysis I, 1974).  If D lies
    strictly inside the rectangle it holds the isolated root, and each
    midpoint line that misses D fixes the half sympy's exact count keeps.
    Floats only choose where Newton starts; every decision is exact.  Returns
    None when a step cannot be certified (D not inside the rectangle, D
    meeting a midpoint line, no start, P'(z) = 0) and for a purely imaginary
    root, whose real part sympy reports as exactly 0: the caller then runs
    sympy's refinement.
    """
    if not starts or root.is_imaginary:
        return None
    ivl = root._get_interval()
    u, v = map(_fraction, ivl.a)
    s, t = map(_fraction, ivl.b)
    coeffs = [_fraction(a) for a in root.poly.all_coeffs()]
    n = len(coeffs) - 1
    mid = complex((u + s) / 2, (v + t) / 2)
    z0 = min(starts, key=lambda w: abs(w - mid))
    x, y = Fraction(z0.real), Fraction(z0.imag)
    # rho < 2^-50 tol keeps D far narrower than any box the bisection visits.
    target2 = (tol / 2 ** 50) ** 2
    k = 64
    while True:
        pr, pi, dr, di = _value_and_derivative(coeffs, x, y)
        norm2 = dr * dr + di * di
        if not norm2:
            return None
        rho2 = n * n * (pr * pr + pi * pi) / norm2
        if rho2 < target2:
            break
        if k > 4096:  # Newton is not converging to a simple root
            return None
        scale = 2 ** k
        x -= (pr * dr + pi * di) / norm2
        y -= (pi * dr - pr * di) / norm2
        x, y = Fraction(round(x * scale), scale), Fraction(round(y * scale), scale)
        k *= 2

    def misses(d: Fraction) -> bool:
        """D lies strictly on the far side of a line at signed distance d."""
        return d > 0 and d * d > rho2

    centre = []
    for lo, hi, c in ((u, s, x), (v, t, y)):
        if not (misses(c - lo) and misses(hi - c)):
            return None
        while hi - lo >= tol:
            m = (lo + hi) / 2
            if misses(m - c):
                hi = m
            elif misses(c - m):
                lo = m
            else:
                return None
        centre.append((lo + hi) / 2)
    re, im = centre
    return re, -im if ivl.conj else im


def _value_and_derivative(coeffs: list[Fraction], x: Fraction, y: Fraction):
    """Re and Im of P(x + iy) and of P'(x + iy), coefficients highest first."""
    pr = pi = dr = di = ZERO
    for a in coeffs:
        dr, di = dr * x - di * y + pr, dr * y + di * x + pi
        pr, pi = pr * x - pi * y + a, pr * y + pi * x
    return pr, pi, dr, di


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
