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
from .liealg import AlgebraElement, AlgebraModel, char_poly_elementary, theta_at
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


def spectral_data(model: AlgebraModel, points: Sequence[Fraction],
                  residues: Sequence[AlgebraElement],
                  isolation_eps: Fraction = Fraction(1, 10 ** 9)) -> SpectralCurveReport:
    """Spectral-curve analysis for gl(r)/sl(r), r in {2, 3}."""
    g = model.group
    if g.family not in ("gl", "sl") or g.matrix_size not in (2, 3):
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
    tol = sympy.Rational(eps.numerator, eps.denominator)
    out: list[tuple] = []
    for rt in sp.all_roots(radicals=False):
        # sympy may rescale the variable and return c*CRootOf(...); isolate
        # the CRootOf to tol/|c| and scale back, so the box still has width tol.
        c, root = rt.as_coeff_Mul()
        approx = c * root.eval_rational(dx=tol / abs(c), dy=tol / abs(c))
        re = Fraction(int(sympy.re(approx).p), int(sympy.re(approx).q))
        im = Fraction(int(sympy.im(approx).p), int(sympy.im(approx).q))
        if rt.is_real:
            out.append(("real", re - eps, re + eps))
        else:
            out.append(("complex", (re - eps, im - eps), (re + eps, im + eps)))
    return out


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
