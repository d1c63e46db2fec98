"""Deformation complexes of framed Higgs data and their hypercohomology.

For an explicit model on the rational curve (trivial bundle, residue matrices
A_i at marked points x_i, theta(z) = sum A_i dz/(z - x_i)) this module builds
the two-term complexes

    twisted:       ad           --[theta, .]-->  ad ⊗ K(D)
    framed:        ad_fr        --[theta, .]-->  ad_fr^perp ⊗ K(D)
    twisted_dual:  ad(-D)       --[theta, .]-->  ad ⊗ K

where ad_fr consists of sections valued in the framing subalgebra h_x at each
marked point and ad_fr^perp of one-forms with residues in the annihilator
h_x^perp.  Hypercohomology is the cohomology of the mapping cone over the
two-chart Cech presentation; everything is exact rational linear algebra.

[theta, .] acts on window coordinates (position-major, fiber-minor) as the
layout operator Theta = sum_i S_i ⊗ ad(A_i), where S_i is the scalar layout
matrix of multiplication by 1/(z - x_i).  Theta depends on the model and the
window only, not on the complex kind, so the model builds it once per window
and the three cones of a `DeformationTheory` share it.

Chart sections are kernel combinations of candidate sections, each candidate
one unit layout coordinate, in increasing order.  So the chart-section
coordinates are a staircase basis, and writing a vector in them is reading
it off the free columns plus an exact membership check (`Quotient.coords`),
with no elimination.  ker d1 and ker d0 come from `nullspace_sparse`, mod P
with an exact certificate.

The cup-product pairing on first hypercohomology contracts the mixed
components with the invariant form and evaluates the class in H^1(K) by the
sum of residues over the marked points:

    <a, b> = sum_i Res_{x_i} [ sigma(u0_a, c_b) - sigma(c_a, u1_b) ]

for cocycles a = (c_a, u0_a, u1_a).  Skew-symmetry and representative
independence are exact consequences of the invariance identity and the
annihilator pairing conditions, and both are asserted in the test suite
rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curve import (Layout, MarkedCurve, SheafSpec, Window, default_window,
                    make_spec, sections_off_divisor, sections_on_affine_chart)
from .exactlinalg import (Echelon, Mat, Quotient, Vec, ZERO, ONE, inverse,
                          mat_vec, mat_is_zero, mat_mul, nullspace_sparse,
                          sparse, sparse_rows, transpose, zeros)
from .liealg import (AlgebraElement, AlgebraModel, FramingSpec, InvariantForm,
                     bracket, trace_form)
from .rationalfn import RatContext, VSection, pairing_residue_at_point

TWISTED = "twisted"            # deformations of the underlying twisted pair
FRAMED = "framed"              # deformations of the framed triple
TWISTED_DUAL = "twisted_dual"  # Serre dual of the twisted complex


class ModelError(ValueError):
    pass


@dataclass
class FramedHiggsModel:
    """Explicit rational-curve model: marked points, framings, residues."""
    algebra: AlgebraModel
    form: InvariantForm
    curve: MarkedCurve
    framings: tuple[FramingSpec, ...]
    residues: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if self.curve.genus != 0:
            raise ModelError("the explicit engine runs on the rational curve (genus 0)")
        n = self.curve.n
        if len(self.framings) != n or len(self.residues) != n:
            raise ModelError("one framing and one residue matrix per marked point")
        dim = self.algebra.group.dim
        self._h_coords = []
        self._perp_coords = []
        for fr in self.framings:
            self._h_coords.append([self.algebra.coords(h) for h in fr.subalgebra])
            self._perp_coords.append([self.algebra.coords(p) for p in fr.perp])
        for i, (el, fr) in enumerate(zip(self.residues, self.framings)):
            ech = Echelon(dim)
            for v in self._perp_coords[i]:
                ech.insert(v)
            if not ech.contains(self.algebra.coords(el)):
                raise ModelError(
                    f"residue matrix at point {i} is not compatible with the framing "
                    "(it must lie in the annihilator of the framing subalgebra)")
        total = self.residues[0]
        for el in self.residues[1:]:
            total = total + el
        if not total.is_zero():
            raise ModelError("residue matrices must sum to zero "
                             "(holomorphy of the Higgs field at infinity)")
        basis_els = [AlgebraElement(b, self.algebra.group.group_id)
                     for b in self.algebra.basis]
        self._gram = [[self.form(a, b) for b in basis_els] for a in basis_els]
        self.ad = [self._ad_matrix(el) for el in self.residues]
        self.context = RatContext(self.curve.points, dim)
        self._theta: dict[Window, list[dict[int, Fraction]]] = {}

    def _ad_matrix(self, el: AlgebraElement) -> Mat:
        return transpose([self.algebra.coords(bracket(el, AlgebraElement(b, el.group_id)))
                          for b in self.algebra.basis])

    @property
    def dim(self) -> int:
        return self.algebra.group.dim

    def theta_columns(self, window: Window) -> list[dict[int, Fraction]]:
        """Sparse columns of Theta from the layout of `window` to that of its
        pole-bumped window; every complex kind shares them."""
        if window not in self._theta:
            self._theta[window] = self._theta_columns(window)
        return self._theta[window]

    def _theta_columns(self, window: Window) -> list[dict[int, Fraction]]:
        """S_i is read off `mul_pole` on the scalar unit sections."""
        m, ads = self.dim, self.ad
        bumped = Window(window.pole + 1, window.degree)
        scalar = RatContext(self.curve.points, 1)
        lay0, lay1 = Layout(scalar, window), Layout(scalar, bumped)
        cols = []
        for p in range(lay0.dim):
            unit = zeros(lay0.dim)
            unit[p] = ONE
            sec = lay0.from_coords(unit)
            s_cols = [[(q, x) for q, x in enumerate(lay1.to_coords(sec.mul_pole(i))) if x]
                      for i in range(self.curve.n)]
            for a in range(m):
                col: dict[int, Fraction] = {}
                for s_col, ad in zip(s_cols, ads):
                    for q, x in s_col:
                        for b in range(m):
                            if ad[b][a]:
                                col[q * m + b] = col.get(q * m + b, ZERO) + x * ad[b][a]
                cols.append(sparse(col))
        return cols

    def gram_apply(self, a: Vec, b: Vec) -> Fraction:
        gb = mat_vec(self._gram, b)
        return sum((x * y for x, y in zip(a, gb) if x and y), ZERO)

    def complex_specs(self, kind: str) -> tuple[SheafSpec, SheafSpec]:
        m = self.dim
        n = self.curve.n
        if kind == TWISTED:
            return (make_spec(m, [0] * n, None, 0),
                    make_spec(m, [1] * n, None, -2, is_form=True))
        if kind == FRAMED:
            return (make_spec(m, [0] * n, self._h_coords, 0),
                    make_spec(m, [1] * n, self._perp_coords, -2, is_form=True))
        if kind == TWISTED_DUAL:
            return (make_spec(m, [-1] * n, None, 0),
                    make_spec(m, [0] * n, None, -2, is_form=True))
        raise ValueError(f"unknown complex kind {kind!r}")

    def all_specs(self) -> list[SheafSpec]:
        out = []
        for kind in (TWISTED, FRAMED, TWISTED_DUAL):
            out.extend(self.complex_specs(kind))
        return out


def framed_higgs_model(group_id: str, points: Sequence, residues: Sequence,
                       framing: str | Sequence = "trivial") -> FramedHiggsModel:
    """Convenience constructor from matrix entries and a framing selector.

    framing: 'trivial', 'torus', or a per-point list of subalgebra bases
    (each a list of matrices; an empty list is a trivial framing).
    """
    from .liealg import torus_framing, trivial_framing
    algebra = AlgebraModel(group_id)
    form = trace_form(group_id)
    pts = tuple(Fraction(p) if not isinstance(p, Fraction) else p for p in points)
    curve = MarkedCurve(0, pts)
    if isinstance(framing, str):
        if framing == "trivial":
            frs = tuple(trivial_framing(algebra, form) for _ in pts)
        elif framing == "torus":
            frs = tuple(torus_framing(algebra, form) for _ in pts)
        else:
            raise ValueError(f"unknown framing selector {framing!r}")
    else:
        frs = tuple(
            FramingSpec(algebra, form,
                        [algebra.element(b) for b in per_point])
            for per_point in framing)
    res = tuple(el if isinstance(el, AlgebraElement) else algebra.element(el)
                for el in residues)
    return FramedHiggsModel(algebra, form, curve, frs, res)


class Hypercohomology:
    """Mapping-cone computation shared by the complexes of one model."""

    def __init__(self, model: FramedHiggsModel, kind: str,
                 window: Window | None = None):
        self.model = model
        self.kind = kind
        f0, f1 = model.complex_specs(kind)
        self.f0, self.f1 = f0, f1
        base = window or default_window(model.all_specs())
        self.window0 = base
        self.window1 = Window(base.pole + 1, base.degree)
        ctx = model.context
        self.ctx = ctx

        self.f0_u0 = sections_on_affine_chart(ctx, f0, self.window0)
        self.f0_u1 = sections_off_divisor(ctx, f0, self.window0)
        self.f1_u0 = sections_on_affine_chart(ctx, f1, self.window1)
        self.f1_u1 = sections_off_divisor(ctx, f1, self.window1)
        self.c_layout = Layout(ctx, self.window0)
        self.t2_layout = Layout(ctx, self.window1)
        self._theta_cols = model.theta_columns(self.window0)
        self._assemble()

    def theta(self, coords: Sequence[Fraction]) -> Vec:
        """[theta, .] from c_layout to t2_layout coordinates."""
        out = zeros(self.t2_layout.dim)
        for x, col in zip(coords, self._theta_cols):
            if x:
                for r, y in col.items():
                    out[r] += x * y
        return out

    def _d0_columns(self) -> list[Vec]:
        """d0(s0, s1) = (s1 - s0, [theta, s0], [theta, s1]) in T^1 parameters,
        one column per F0 chart section; [theta, .] must map F0 chart sections
        into F1 ones."""
        n_u0, n_u1 = len(self.f1_u0), len(self.f1_u1)
        d0_cols: list[Vec] = []
        for s in self.f0_u0:
            c = self.c_layout.to_coords(s)
            u0c = self._u0.coords(self.theta(c))
            if u0c is None:
                raise AssertionError(
                    f"[theta, .] does not preserve the {self.kind} subsheaf structure")
            d0_cols.append(u0c + zeros(n_u1) + [-x for x in c])
        for s in self.f0_u1:
            c = self.c_layout.to_coords(s)
            u1c = self._u1.coords(self.theta(c))
            if u1c is None:
                raise AssertionError(
                    f"[theta, .] does not preserve the {self.kind} subsheaf structure "
                    "off the divisor")
            d0_cols.append(zeros(n_u0) + u1c + c)
        return d0_cols

    def _assemble(self):
        t2 = self.t2_layout
        u0_coords = [t2.to_coords(s) for s in self.f1_u0]
        u1_coords = [t2.to_coords(s) for s in self.f1_u1]
        # staircase bases (module docstring): a solve reads off free columns
        self._u0 = Quotient(t2.dim, [], u0_coords)
        self._u1 = Quotient(t2.dim, [], u1_coords)
        self.t1_params = len(u0_coords) + len(u1_coords) + self.c_layout.dim

        # d1(c, u0, u1) = (u1 - u0) - [theta, c] in T^2 coordinates
        d1_cols = ([{r: -x for r, x in sparse(v).items()} for v in u0_coords]
                   + u1_coords
                   + [{r: -x for r, x in col.items()} for col in self._theta_cols])
        kernel = nullspace_sparse(sparse_rows(d1_cols, t2.dim), ncols=self.t1_params)
        self._d0_cols = self._d0_columns()
        self.quotient = Quotient(self.t1_params, self._d0_cols, kernel)
        self.h1 = self.quotient.dim

        # H^0 = ker d0
        self.h0 = len(nullspace_sparse(sparse_rows(self._d0_cols, self.t1_params),
                                       ncols=len(self._d0_cols)))

        # H^2 = T^2 / im d1; rank d1 = t1 - dim ker d1
        self.h2 = t2.dim - (self.t1_params - len(kernel))

        self.chi0 = self.f0.euler_char()
        self.chi1 = self.f1.euler_char()
        if self.h0 - self.h1 + self.h2 != self.chi0 - self.chi1:
            raise AssertionError(
                f"Euler characteristic identity fails for the {self.kind} complex: "
                f"{self.h0} - {self.h1} + {self.h2} != {self.chi0} - {self.chi1} "
                "(Laurent window too small?)")

    # -- cocycles ---------------------------------------------------------------

    def rep_of_params(self, params: Sequence[Fraction]) -> tuple[VSection, VSection, VSection]:
        n_u0, n_u1 = len(self.f1_u0), len(self.f1_u1)
        u0 = VSection.zero(self.ctx)
        for x, s in zip(params[:n_u0], self.f1_u0):
            if x:
                u0 = u0 + s.scale(x)
        u1 = VSection.zero(self.ctx)
        for x, s in zip(params[n_u0:n_u0 + n_u1], self.f1_u1):
            if x:
                u1 = u1 + s.scale(x)
        c = self.c_layout.from_coords(list(params[n_u0 + n_u1:]))
        return (c, u0, u1)

    def basis_reps(self) -> list[tuple[VSection, VSection, VSection]]:
        return [self.rep_of_params(p) for p in self.quotient.basis]

    def project_cocycle(self, c: VSection, u0: VSection, u1: VSection) -> Vec:
        x0 = self._u0.coords(self.t2_layout.to_coords(u0))
        x1 = self._u1.coords(self.t2_layout.to_coords(u1))
        if x0 is None or x1 is None:
            raise ValueError("cochain components do not satisfy the sheaf conditions")
        params = x0 + x1 + self.c_layout.to_coords(c)
        return self.quotient.project(params)

    def random_coboundary(self, rng) -> tuple[VSection, VSection, VSection]:
        """d0 of a random 0-cochain, for representative-independence tests."""
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in self._d0_cols]
        return self.rep_of_params(mat_vec(transpose(self._d0_cols), weights))

    def result(self) -> "HypercohResult":
        return HypercohResult(self.kind, self.h0, self.h1, self.h2,
                              self.chi0, self.chi1)


@dataclass(frozen=True)
class HypercohResult:
    kind: str
    h0: int
    h1: int
    h2: int
    chi0: int
    chi1: int

    @property
    def euler_identity(self) -> bool:
        return self.h0 - self.h1 + self.h2 == self.chi0 - self.chi1


def hyper_pair(model: FramedHiggsModel,
               rep_a: tuple[VSection, VSection, VSection],
               rep_b: tuple[VSection, VSection, VSection]) -> Fraction:
    """Cup-product pairing of two first-hypercohomology cocycles.

    sum over marked points of Res [ sigma(u0_a, c_b) - sigma(c_a, u1_b) ];
    the value depends only on the classes.
    """
    c_a, u0_a, _ = rep_a
    c_b, _, u1_b = rep_b
    acc = ZERO
    for i in range(model.curve.n):
        acc += pairing_residue_at_point(u0_a, c_b, model.gram_apply, i)
        acc -= pairing_residue_at_point(c_a, u1_b, model.gram_apply, i)
    return acc


class DeformationTheory:
    """All hypercohomology data of one model, with the derived matrices."""

    def __init__(self, model: FramedHiggsModel):
        self.model = model
        self.window = default_window(model.all_specs())
        self._cones: dict[str, Hypercohomology] = {}
        self._phi: Mat | None = None
        self._anchor: Mat | None = None

    def cone(self, kind: str) -> Hypercohomology:
        if kind not in self._cones:
            self._cones[kind] = Hypercohomology(self.model, kind, self.window)
        return self._cones[kind]

    def dims(self, kind: str) -> HypercohResult:
        return self.cone(kind).result()

    # -- matrices -------------------------------------------------------------

    def symplectic_matrix(self) -> Mat:
        """Gram matrix of the pairing on the framed first hypercohomology.

        Computed once per theory; each call returns a fresh copy.
        """
        if self._phi is None:
            reps = self.cone(FRAMED).basis_reps()
            phi = [[hyper_pair(self.model, a, b) for b in reps] for a in reps]
            for i in range(len(phi)):
                for j in range(len(phi)):
                    if phi[i][j] != -phi[j][i]:
                        raise AssertionError("symplectic pairing is not exactly skew "
                                             "(assembly bug)")
            self._phi = phi
        return [list(row) for row in self._phi]

    def forgetful_matrix(self) -> Mat:
        """Classes of framed cocycles inside the twisted hypercohomology."""
        tw = self.cone(TWISTED)
        cols = [tw.project_cocycle(*rep) for rep in self.cone(FRAMED).basis_reps()]
        return [[cols[j][i] for j in range(len(cols))]
                for i in range(tw.h1)] if cols else [[] for _ in range(tw.h1)]

    def poisson_matrix(self) -> Mat:
        """Map induced by inclusion from the dual twisted complex to the
        twisted one; realizes the Poisson anchor in these bases.

        Computed once per theory; each call returns a fresh copy.
        """
        if self._anchor is None:
            tw = self.cone(TWISTED)
            cols = [tw.project_cocycle(*rep)
                    for rep in self.cone(TWISTED_DUAL).basis_reps()]
            self._anchor = [[cols[j][i] for j in range(len(cols))]
                            for i in range(tw.h1)] if cols else [[] for _ in range(tw.h1)]
        return [list(row) for row in self._anchor]

    def forgetful_adjoint_matrix(self) -> Mat:
        """Covector matrix of the adjoint of the forgetful map.

        Entry (i, j) pairs the i-th framed basis class against the j-th dual
        twisted basis class under the cup pairing; reps include directly.
        """
        framed_reps = self.cone(FRAMED).basis_reps()
        dual_reps = self.cone(TWISTED_DUAL).basis_reps()
        return [[hyper_pair(self.model, fa, wb) for wb in dual_reps]
                for fa in framed_reps]


@dataclass
class PoissonMapCheck:
    ok: bool
    residual: Mat
    phi_rank: int
    framed_dims: HypercohResult
    twisted_dims: HypercohResult
    dual_dims: HypercohResult
    degenerate_directions: list[Vec]


def verify_poisson_map(theory: DeformationTheory, corrupt_sign: bool = False) -> PoissonMapCheck:
    """Exact matrix identity: forgetful ∘ pairing^{-1} ∘ forgetful-adjoint
    equals the inclusion-induced map on the twisted hypercohomology.

    Requires the framed pairing to be invertible (vanishing h^0 and h^2 of the
    framed complex); otherwise the degenerate directions are reported.
    corrupt_sign flips the adjoint for negative-control testing.
    """
    framed = theory.dims(FRAMED)
    twisted = theory.dims(TWISTED)
    dual = theory.dims(TWISTED_DUAL)
    phi = theory.symplectic_matrix()
    degenerate = nullspace_sparse(phi, ncols=len(phi))
    if framed.h0 != 0 or framed.h2 != 0 or degenerate:
        return PoissonMapCheck(False, [], len(phi) - len(degenerate),
                               framed, twisted, dual, degenerate)
    dphi = theory.forgetful_matrix()
    p = theory.poisson_matrix()
    adj = theory.forgetful_adjoint_matrix()
    if corrupt_sign:
        adj = [[-x for x in row] for row in adj]
    lhs = mat_mul(mat_mul(dphi, inverse(phi)), adj)
    residual = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(lhs, p)]
    return PoissonMapCheck(mat_is_zero(residual), residual, len(phi),
                           framed, twisted, dual, [])
