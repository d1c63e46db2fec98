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

The cone is truncated to a Laurent window W: the 0-cochains and c live in
the layout of W, and the F1 cochains u0 and u1 in that of W with one more
pole, so F1's pole bound is shifted down by one (`cone_window`).  W is the
smallest window in which the truncated Cech complexes of F0 and F1 have
their true H^0 and H^1 (`curve.default_window` states the bound and proves
it), and then the cone has its true h0, h1 and h2 by the five lemma.  A
cone refuses a window below its own bound.  The three complexes of a model
share one window, the largest of their bounds (`FramedHiggsModel.window`),
so that their classes pair and include in one layout.

[theta, .] acts on layout coordinates (position-major, fiber-minor) as
Theta = sum_i S_i ⊗ ad(A_i), with S_i the closed-form scalar layout matrix of
multiplication by 1/(z - x_i).  The model builds Theta once per window, and
ker d1 once per (F1 spec, window), so the three cones of a
`DeformationTheory` share them: with trivial framing the framed F1 is the
twisted F1, so d1 is eliminated twice, not three times, and two chart bases
serve two complexes each.  Cochains, Theta images, d0 columns and kernels
are sparse layout vectors.

What reads the residues lives on the model and goes with it: ad(A_i),
Theta, ker d1, each cone's quotient and the matrices of a
`DeformationTheory`.  A residue is read through its integer form only:
the model tests membership with the integer coordinate solver and
h_x-compatibility with the framing's integer functionals
(`FramingSpec.annihilates`), and ad(A_i) is one integer pass through the
group's ad tensor (`AlgebraModel.ad_columns`), so no Fraction matrix of a
residue is built.  What does not read the residues is kept per process, in
`functools.lru_cache` memos of at most `exactlinalg.MEMO_SIZE` entries,
filled on first use, each keyed by the values it reads: the chart bases
(`curve.sections_on_affine_chart` and `curve.sections_off_divisor`, by
points, fiber, spec and window), the S_i columns of Theta
(`_scalar_columns`, by points and window), the Gram matrix
(`liealg.gram_matrix`, by group model and form), the pairing form B
(`_pairing_form`, by points, window and the Gram matrix's entries, so a
model whose Gram matrix differs gets its own B), the framings
(`liealg.framing_spec`) and the group's `AlgebraModel`
(`liealg.algebra_model`).  The model also keeps what it read from a memo,
per (spec, window, chart) and per window, its own copy of the Gram matrix
and the two specs of each complex kind, so a cone looks each up once and
every lookup hashes the same spec objects.

The cone's linear algebra runs in Python integers over one denominator.
Theta is built as integer columns over one denominator and applied by integer
multiply-adds.  Chart bases are staircase (`curve`) and held as a
`Staircase`, so writing a vector in them is reading off free columns with an
exact integer membership check (`Staircase.int_coords`), and their integer
form (`Staircase.scaled`) is made once.  The d0 columns are integer vectors,
each a positive multiple of the true column, which changes neither im d0 nor
rank d0; the d1 rows are d1 times one common denominator.  ker d1 is read
off the integer echelon form of d1 as a `Staircase` (free columns, one
denominator, integer tails) and passed to `Quotient` as it is, with no
Fraction, no modulus and no certificate.  h0 = dim ker d0 needs no second
elimination: the quotient ker d1 / im d0 has checked every d0 column against
ker d1, on which restriction to the free columns is injective, so rank d0 is
the rank of its own integer elimination and h0 = #d0 columns - rank.  Each
basis class is summed over the integer chart bases once (`classes`) and kept
as integers over one denominator, and the forgetful and anchor columns write
those integer classes in the twisted quotient (`Staircase.int_coords` on the
chart parts, then `Quotient.int_project`).  Every matrix leaves the cone as
(d, integer rows) over one denominator d, the format of
`exactlinalg.integer_solve`, and the checks read it as it is.

The cup-product pairing on first hypercohomology contracts the mixed
components with the invariant form and sums residues over the marked points:

    <a, b> = sum_i Res_{x_i} [ sigma(u0_a, c_b) - sigma(c_a, u1_b) ]

for cocycles a = (c_a, u0_a, u1_a).  In layout coordinates this is
<a, b> = B(u0_a, c_b) - B(u1_b, c_a) for one form per points, window and
Gram matrix,

    B = sum_i sum_{a+b=-1} lambda_{i,a} ⊗ lambda_{i,b} ⊗ Gram,

from the pole-bumped layout of u0 and u1 to the layout of c, with lambda the
Laurent rows of `curve.laurent_row`.  B and each cone's basis classes are
kept as integers over one denominator, so a pairing matrix is integer dot
products over the product of the three denominators.  Skew-symmetry and
representative independence follow from the invariance identity and the
annihilator conditions; the report checks the first and the test suite both.

The Poisson identity forgetful ∘ φ^{-1} ∘ adjoint = anchor is checked as
F Y = P, where Y solves φ Y = A in one elimination of [φ | A]
(`exactlinalg.integer_solve`), so the pairing matrix φ is never inverted.
φ, A, F, Y and P are integer matrices over one denominator each, so the
solve, the product and the residual are integer arithmetic, and the skew
check and the ranks of φ and P read the integer rows.  The check reads the
matrices off the `DeformationTheory` only, so a negative control overrides
one of them (say, negates the adjoint) in a subclass.

A cone carries its own dimensions: `DeformationTheory.cone(kind)` returns
the `Hypercohomology` of the `kind` complex, whose h0, h1, h2, chi0 and chi1
the Euler check (`Hypercohomology.euler_identity`) and the report read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .curve import (Layout, MarkedCurve, SheafSpec, Window, check_window,
                    default_window, laurent_row, make_spec, sections_off_divisor,
                    sections_on_affine_chart)
from .exactlinalg import (MEMO_SIZE, Mat, Quotient, Staircase, Vec, ONE, add_scaled, dense,
                          frac, integer_solve, integer_vectors, nullspace_sparse,
                          over_common_denominator)
from .liealg import (AlgebraElement, AlgebraModel, FramingSpec, InvariantForm,
                     algebra_model, framing_specs, gram_matrix, trace_form)
from .rationalfn import RatContext, VSection

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
        for i, (el, fr) in enumerate(zip(self.residues, self.framings)):
            # both tests read the integer numerators alone
            if not self.algebra.contains(el):
                raise ModelError(f"residue matrix at point {i} is not an element of "
                                 f"{self.algebra.group.group_id}")
            if not fr.annihilates(el):
                raise ModelError(
                    f"residue matrix at point {i} is not compatible with the framing "
                    "(it must lie in the annihilator of the framing subalgebra)")
        if not sum(self.residues[1:], self.residues[0]).is_zero():
            raise ModelError("residue matrices must sum to zero "
                             "(holomorphy of the Higgs field at infinity)")
        self._cache: dict[tuple, object] = {}

    @cached_property
    def _gram(self) -> Mat:
        """The invariant form on the basis, this model's own copy of the
        process's Gram matrix (`liealg.gram_matrix`); only the pairing form
        reads it."""
        return [list(row) for row in gram_matrix(self.algebra, self.form)]

    @cached_property
    def context(self) -> RatContext:
        return RatContext(self.curve.points, self.dim)

    @cached_property
    def _ad_columns(self) -> list[tuple[int, list[list[tuple[int, int]]]]]:
        """ad(A_i) in integers (`AlgebraModel.ad_columns`), one per residue;
        built on first use, since only the Theta columns read them."""
        return [self.algebra.ad_columns(el) for el in self.residues]

    @property
    def dim(self) -> int:
        return self.algebra.group.dim

    def _cached(self, key: tuple, compute):     # compute(), once per model and key
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def theta_columns(self, window: Window) -> tuple[int, list[dict[int, int]]]:
        """Theta from the layout of `window` to that of its pole-bumped
        window, as (d, the sparse columns of d Theta) with integer entries;
        every complex kind shares them."""
        return self._cached(("theta", window), lambda: self._theta_columns(window))

    def _theta_columns(self, window: Window) -> tuple[int, list[dict[int, int]]]:
        """Theta = sum_i S_i ⊗ ad(A_i), each S_i column and each ad(A_i) an
        integer vector or matrix over its own least common denominator
        (`_scalar_columns`, `AlgebraModel.ad_columns`), so the tensor
        products are integer products, summed over the lcm d of all their
        denominators."""
        m, ads = self.dim, self._ad_columns
        s_cols = _scalar_columns(self.curve.points, window)
        den = lcm(*{sigma * e for cols_k in s_cols
                    for (sigma, _), (e, _) in zip(cols_k, ads)})
        cols = []
        for cols_k in s_cols:
            for a in range(m):
                col: dict[int, int] = {}
                for (sigma, s_col), (e, ad_cols) in zip(cols_k, ads):
                    f = den // (sigma * e)
                    for b, y in ad_cols[a]:
                        fy = f * y
                        for q, x in s_col:
                            col[q * m + b] = col.get(q * m + b, 0) + x * fy
                cols.append({r: x for r, x in col.items() if x})
        return den, cols

    def chart_basis(self, spec: SheafSpec, window: Window, chart: int) -> Staircase:
        """Basis of F(U0) (chart 0) or F(U1) (chart 1) for F = spec, in the
        layout of `window`, as the `Staircase` that `curve` eliminates: its
        `int_coords` write an integer layout vector in the basis, and `scaled`
        is the basis as integer vectors over `den`.  Read from the process's
        memo once per model and (spec, window, chart), and shared by the
        cones."""
        sections = sections_on_affine_chart if chart == 0 else sections_off_divisor
        return self._cached(("chart", spec, window, chart),
                            lambda: sections(self.context, spec, window))

    def d1_kernel(self, spec: SheafSpec, window: Window) -> Staircase:
        """ker d1 of the cone with F1 = spec and c in the layout of `window`,
        built once per model and (spec, window): complexes with the same F1
        share it (with trivial framing, the framed and twisted ones)."""
        return self._cached(("ker d1", spec, window), lambda: self._d1_kernel(spec, window))

    def _d1_kernel(self, spec: SheafSpec, window: Window) -> Staircase:
        """d1(c, u0, u1) = (u1 - u0) - [theta, c] in T^2 coordinates, with u0
        and u1 in the F1 chart bases of the pole-bumped window, as integer
        rows over the one denominator of the three blocks; its kernel is read
        off their integer echelon form."""
        bumped = Window(window.pole + 1, window.degree)
        u0, u1 = (self.chart_basis(spec, bumped, chart) for chart in (0, 1))
        tden, theta = self.theta_columns(window)
        den = lcm(u0.den, u1.den, tden)
        rows: list[dict[int, int]] = [{} for _ in range(Layout(self.context, bumped).dim)]
        j = 0
        for f, cols in ((-den // u0.den, u0.scaled), (den // u1.den, u1.scaled),
                        (-den // tden, theta)):
            for col in cols:
                for r, x in col.items():
                    rows[r][j] = f * x
                j += 1
        return Staircase.kernel(rows, j)

    def pairing_form(self, window: Window) -> tuple[int, dict[int, dict[int, int]]]:
        """B from the layout of the pole-bumped window to that of `window`, as
        (d, {c index: {u index: d B[u][c]}}) with integer entries; B reads the
        points, the window and the Gram matrix alone (`_pairing_form`)."""
        return self._cached(("form", window), lambda: _pairing_form(
            self.curve.points, window, tuple(map(tuple, self._gram))))

    def complex_specs(self, kind: str) -> tuple[SheafSpec, SheafSpec]:
        """(F0, F1) of the `kind` complex, built once per model, so that the
        chart lookups of its cones hash and compare one spec object."""
        return self._cached(("specs", kind), lambda: self._complex_specs(kind))

    def _complex_specs(self, kind: str) -> tuple[SheafSpec, SheafSpec]:
        m, n = self.dim, self.curve.n
        if kind == TWISTED:
            return (make_spec(m, [0] * n, None, 0),
                    make_spec(m, [1] * n, None, -2, is_form=True))
        if kind == FRAMED:
            return (make_spec(m, [0] * n, [fr.coords for fr in self.framings], 0),
                    make_spec(m, [1] * n, [fr.perp_coords for fr in self.framings], -2,
                              is_form=True))
        if kind == TWISTED_DUAL:
            return (make_spec(m, [-1] * n, None, 0),
                    make_spec(m, [0] * n, None, -2, is_form=True))
        raise ValueError(f"unknown complex kind {kind!r}")

    @cached_property
    def window(self) -> Window:
        """The cone window of the model's three complexes, which share it, so
        that their classes pair and include in one layout."""
        return cone_window(self.complex_specs(kind) for kind in (TWISTED, FRAMED, TWISTED_DUAL))


def cone_window(pairs: Iterable[tuple[SheafSpec, SheafSpec]]) -> Window:
    """The smallest window W in which each cone F0 --[theta, .]--> F1 of
    `pairs` has its true h0, h1 and h2.  F0 lives in W and F1 in W with one
    more pole, so F1's pole need (`curve.default_window`) is shifted down by
    one.  In W, the truncated F0 and F1 Cech complexes are exact, and the
    sequence 0 -> F1-Cech[-1] -> cone -> F0-Cech -> 0 is exact for the
    truncated complexes as for the whole ones, so by the five lemma the cone
    is exact too."""
    pairs = list(pairs)
    w0 = default_window([f0 for f0, _ in pairs])
    w1 = default_window([f1 for _, f1 in pairs])
    return Window(max(w0.pole, w1.pole - 1), max(w0.degree, w1.degree))


@lru_cache(maxsize=MEMO_SIZE)
def _scalar_columns(points: tuple[Fraction, ...], window: Window
                    ) -> list[list[tuple[int, list[tuple[int, int]]]]]:
    """Per scalar basis function k of the layout of `window`, the columns k
    of S_1, ..., S_n, S_i the multiplication by 1/(z - x_i) into the layout
    of the pole-bumped window, each as (sigma, [(q, sigma S_i[q][k])]) over
    its least common denominator sigma; kept per process by the points and
    the window.  In closed form, with d = x_i - x_k:
    (z-x_i)^-j -> (z-x_i)^-(j+1);
    (z-x_k)^-j -> d^-j (z-x_i)^-1 - sum_{t<j} d^-(t+1) (z-x_k)^(t-j);
    z^l -> x_i^l (z-x_i)^-1 + sum_{t<l} x_i^(l-1-t) z^t."""
    n, pole = len(points), window.pole
    s_cols = []
    for k in range(n * pole + window.degree + 1):
        kp, j = divmod(k, pole) if k < n * pole else (n, 0)   # (z - x_kp)^-(j+1)
        cols_k = []
        for i, x in enumerate(points):
            if kp >= n:
                l = k - n * pole
                s_col = {n * (pole + 1) + t: x ** (l - 1 - t) for t in range(l)}
                s_col[i * (pole + 1)] = x ** l
            elif kp == i:
                s_col = {k + i + 1: ONE}
            else:
                d = x - points[kp]
                s_col = {kp * (pole + 1) + j - t: -1 / d ** (t + 1) for t in range(j + 1)}
                s_col[i * (pole + 1)] = 1 / d ** (j + 1)
            sigma, nums = over_common_denominator(s_col.values())
            cols_k.append((sigma, list(zip(s_col, nums))))
        s_cols.append(cols_k)
    return s_cols


@lru_cache(maxsize=MEMO_SIZE)
def _pairing_form(points: tuple[Fraction, ...], window: Window,
                 gram: tuple[tuple[Fraction, ...], ...]
                 ) -> tuple[int, dict[int, dict[int, int]]]:
    """B from the layout of the pole-bumped window to that of `window` for
    the marked points and the Gram matrix of the invariant form on the basis,
    as (d, {c index: {u index: d B[u][c]}}) with integer entries, kept per
    process by those values.  The Laurent rows and the Gram matrix are
    integers over their own least common denominators, so B is summed in
    integers over one denominator and reduced to the least one at the end."""
    m = len(gram)
    bumped = Window(window.pole + 1, window.degree)
    pairs = []                      # (d, d0 lambda_{i,-1-a}, d1 lambda_{i,a}), d = d0 d1
    for i in range(len(points)):
        for a in range(-window.pole - 1, window.pole):
            (d0, [r0]), (d1, [r1]) = (integer_vectors([laurent_row(points, window, i, -1 - a)]),
                                      integer_vectors([laurent_row(points, bumped, i, a)]))
            pairs.append((d0 * d1, r0, r1))
    gden, [flat] = integer_vectors([{(a, b): g for a, row in enumerate(gram)
                                     for b, g in enumerate(row)}])
    sden = lcm(*{d for d, _, _ in pairs})
    scalar: dict[tuple[int, int], int] = {}     # (k0, k1) -> sden scalar B
    for d, r0, r1 in pairs:
        f = sden // d
        for k1, x in r1.items():
            fx = f * x
            for k0, y in r0.items():
                scalar[k0, k1] = scalar.get((k0, k1), 0) + fx * y
    table: dict[int, dict[int, int]] = {}
    for (k0, k1), x in scalar.items():
        if x:
            for (a, b), g in flat.items():
                table.setdefault(k0 * m + b, {})[k1 * m + a] = x * g
    den = sden * gden
    g = gcd(den, *(x for row in table.values() for x in row.values()))
    return den // g, {c: {u: x // g for u, x in row.items()} for c, row in table.items()}


def framed_higgs_model(group: str | AlgebraModel, points: Sequence, residues: Sequence,
                       framing: str | Sequence = "trivial") -> FramedHiggsModel:
    """Convenience constructor from matrix entries and a framing selector.

    group: a group id, or the AlgebraModel of one.  framing: a selector,
    read by `liealg.framing_specs`: 'trivial', 'torus', or a per-point list
    of subalgebra bases (each a list of matrices; an empty list is a trivial
    framing).
    """
    algebra = group if isinstance(group, AlgebraModel) else algebra_model(group)
    form = trace_form(algebra.group.group_id)
    pts = tuple(map(frac, points))
    frs = framing_specs(algebra, form, framing, len(pts))
    res = tuple(el if isinstance(el, AlgebraElement) else algebra.element(el)
                for el in residues)
    return FramedHiggsModel(algebra, form, MarkedCurve(0, pts), frs, res)


class Hypercohomology:
    """Mapping-cone computation shared by the complexes of one model, in the
    model's window or a given one at least the cone window of this complex
    (`cone_window`; ValueError below it)."""

    def __init__(self, model: FramedHiggsModel, kind: str,
                 window: Window | None = None):
        self.model = model
        self.kind = kind
        self.f0, self.f1 = f0, f1 = model.complex_specs(kind)
        self.window0 = base = check_window(window or model.window, cone_window([(f0, f1)]),
                                           f"the {kind} complex")
        self.window1 = Window(base.pole + 1, base.degree)
        self.ctx = ctx = model.context

        # the F1 chart bases, staircase (module docstring): a solve reads off
        # free columns
        self.f1_u0 = model.chart_basis(f1, self.window1, 0)
        self.f1_u1 = model.chart_basis(f1, self.window1, 1)
        self.c_layout = Layout(ctx, self.window0)
        self.t2_layout = Layout(ctx, self.window1)
        self._theta_den, self._theta_cols = model.theta_columns(self.window0)
        self._classes: tuple | None = None
        self._assemble()

    def theta(self, coords) -> dict[int, Fraction]:
        """[theta, .] from c_layout to t2_layout coordinates, sparse."""
        den, [v] = integer_vectors([coords])
        return {r: Fraction(x, den * self._theta_den) for r, x in self._theta_int(v).items()}

    def _theta_int(self, v: dict[int, int]) -> dict[int, int]:
        """d Theta v for an integer vector v, with d = `_theta_den`: integer
        multiply-adds, with cancelled entries dropped."""
        out: dict[int, int] = {}
        cols = self._theta_cols
        for k, x in v.items():
            for r, y in cols[k].items():
                out[r] = out.get(r, 0) + x * y
        return {r: x for r, x in out.items() if x}

    def _d0_columns(self) -> list[dict[int, int]]:
        """d0(s0, s1) = (s1 - s0, [theta, s0], [theta, s1]) in T^1 parameters,
        one column per F0 chart section s, times d_s d for d_s the common
        denominator of its chart basis and d that of Theta; [theta, .] must
        map F0 chart sections into F1 ones."""
        base, den = self._base, self._theta_den
        d0_cols = []
        for f0_chart, chart, offset, sign, where in (
                (0, self.f1_u0, 0, -1, ""),
                (1, self.f1_u1, self._n_u0, 1, " off the divisor")):
            for v in self.model.chart_basis(self.f0, self.window0, f0_chart).scaled:
                coords = chart.int_coords(self._theta_int(v))
                if coords is None:
                    raise AssertionError(f"[theta, .] does not preserve the {self.kind} "
                                         f"subsheaf structure{where}")
                d0_cols.append({**{offset + j: x for j, x in coords.items()},
                                **{base + k: sign * den * x for k, x in v.items()}})
        return d0_cols

    def _assemble(self):
        t2 = self.t2_layout
        # T^1 parameters: u0 chart coordinates, then u1's from _n_u0, then c's from _base
        self._n_u0 = len(self.f1_u0)
        self._base = self._n_u0 + len(self.f1_u1)
        self.t1_params = self._base + self.c_layout.dim

        kernel = self.model.d1_kernel(self.f1, self.window0)
        self._d0_cols = self._d0_columns()
        self.quotient = Quotient(self.t1_params, self._d0_cols, kernel)
        self.h1 = self.quotient.dim
        # H^0 = ker d0.  `Quotient` has checked every d0 column against ker d1,
        # on which restriction to the free columns is injective, so rank d0 is
        # the rank of its own elimination and needs no second one.
        self.h0 = len(self._d0_cols) - self.quotient.rank

        # H^2 = T^2 / im d1; rank d1 = t1 - dim ker d1.  Whether the Euler
        # identity holds is the caller's check (`euler_identity`).
        self.h2 = t2.dim - (self.t1_params - len(kernel))
        self.chi0 = self.f0.euler_char()
        self.chi1 = self.f1.euler_char()

    # -- cocycles ---------------------------------------------------------------

    def classes(self) -> tuple[int, list[tuple[dict, dict, dict]]]:
        """(d, cocycles): the quotient basis classes as layout cocycles
        (c, u0, u1) of integer vectors over their least common denominator d,
        computed once.  A kept kernel vector times the kernel's denominator L
        has integer parameters, and the chart parts are summed over the
        integer chart bases (over d0 and d1), so the cocycles are integer
        vectors over D = L d0 d1, reduced by the gcd of D and their entries."""
        if self._classes is None:
            n_u0, base = self._n_u0, self._base
            kernel = self.quotient.kernel
            (d0, s0), (d1, s1) = ((chart.den, chart.scaled) for chart in (self.f1_u0, self.f1_u1))
            cocycles = []
            for j in self.quotient.kept:
                c, u0, u1 = {}, {}, {}
                for i, x in {kernel.free[j]: kernel.den, **kernel.tails[j]}.items():
                    if i >= base:
                        c[i - base] = x * d0 * d1
                    elif i >= n_u0:
                        add_scaled(u1, x * d0, s1[i - n_u0])
                    else:
                        add_scaled(u0, x * d1, s0[i])
                cocycles.append((c, u0, u1))
            g = gcd(kernel.den * d0 * d1,
                    *(x for cocycle in cocycles for v in cocycle for x in v.values()))
            self._classes = (kernel.den * d0 * d1 // g,
                             [tuple({k: x // g for k, x in v.items()} for v in cocycle)
                              for cocycle in cocycles])
        return self._classes

    def class_of(self, c: dict, u0: dict, u1: dict) -> list[int]:
        """Class coordinates, times `quotient.class_den`, of a cocycle given as
        sparse integer layout vectors."""
        x0, x1 = self.f1_u0.int_coords(u0), self.f1_u1.int_coords(u1)
        if x0 is None or x1 is None:
            raise ValueError("cochain components do not satisfy the sheaf conditions")
        return self.quotient.int_project({**x0, **{self._n_u0 + j: x for j, x in x1.items()},
                                          **{self._base + k: x for k, x in c.items()}})

    @property
    def euler_identity(self) -> bool:
        return self.h0 - self.h1 + self.h2 == self.chi0 - self.chi1


def _apply(table: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for c, x in v.items():
        add_scaled(out, x, table.get(c, {}))
    return out


def _by_position(vectors: Sequence[dict[int, int]]) -> dict[int, list[tuple[int, int]]]:
    """{k: [(b, v_b[k]) for each vector v_b with an entry at k]}."""
    out: dict[int, list[tuple[int, int]]] = {}
    for b, v in enumerate(vectors):
        for k, x in v.items():
            out.setdefault(k, []).append((b, x))
    return out


def _cup_matrix(model: FramedHiggsModel, window: Window, left, right) -> tuple[int, tuple]:
    """(d, rows): the matrix [<a, b>] times d, with integer rows, for the
    layout cocycles a of `left` and b of `right`, each a (d, integer
    cocycles) pair as `Hypercohomology.classes` returns:
    <a, b> = B(u0_a, c_b) - B(u1_b, c_a) for the model's pairing form B.
    The entries of B c_b and B c_a are indexed by layout position once, and
    each row gains its first terms in one pass over u0_a, each column its
    second terms in one pass over u1_b."""
    fden, table = model.pairing_form(window)
    (lden, lefts), (rden, rights) = left, right
    b_left = _by_position([_apply(table, c) for c, _, _ in lefts])
    b_right = _by_position([_apply(table, c) for c, _, _ in rights])
    rows = [[0] * len(rights) for _ in lefts]
    for row, (_, u0, _) in zip(rows, lefts):
        for k, x in u0.items():
            for b, y in b_right.get(k, ()):
                row[b] += x * y
    for b, (_, _, u1) in enumerate(rights):
        for k, x in u1.items():
            for a, y in b_left.get(k, ()):
                rows[a][b] -= x * y
    return fden * lden * rden, tuple(map(tuple, rows))


def hyper_pair(model: FramedHiggsModel,
               rep_a: tuple[VSection, VSection, VSection],
               rep_b: tuple[VSection, VSection, VSection]) -> Fraction:
    """Cup-product pairing of two first-hypercohomology cocycles (c, u0, u1).

    sum over marked points of Res [ sigma(u0_a, c_b) - sigma(c_a, u1_b) ],
    by the pairing form of a window that holds all six sections; the value
    depends only on the classes.
    """
    sections = rep_a + rep_b
    window = Window(max([1] + [s.pole_order(i) for s in sections for i in range(model.curve.n)]),
                    max([0] + [s.poly_degree() for s in sections]))
    lay0 = Layout(model.context, window)
    lay1 = Layout(model.context, Window(window.pole + 1, window.degree))
    cocycles = [(lay0.to_coords(c), lay1.to_coords(u0), lay1.to_coords(u1))
                for c, u0, u1 in (rep_a, rep_b)]
    den, v = integer_vectors(cocycles[0] + cocycles[1])
    den, ((x,),) = _cup_matrix(model, window, (den, [tuple(v[:3])]), (den, [tuple(v[3:])]))
    return Fraction(x, den)


class DeformationTheory:
    """All hypercohomology data of one model, with the derived matrices, each
    as (d, integer rows), the matrix times d, and built once per theory:
    `hfb defo` reads the pairing and the anchor in its check and its report."""

    def __init__(self, model: FramedHiggsModel):
        self.model = model
        self.window = model.window
        self._cones: dict[str, Hypercohomology] = {}
        self._matrices: dict[str | tuple[str, str], tuple[int, tuple]] = {}

    def cone(self, kind: str) -> Hypercohomology:
        """The cone of the `kind` complex, built once per theory."""
        if kind not in self._cones:
            self._cones[kind] = Hypercohomology(self.model, kind, self.window)
        return self._cones[kind]

    # -- matrices -------------------------------------------------------------

    def _pairing(self, left: str, right: str) -> tuple[int, tuple]:
        if (left, right) not in self._matrices:
            self._matrices[left, right] = _cup_matrix(
                self.model, self.window, self.cone(left).classes(), self.cone(right).classes())
        return self._matrices[left, right]

    def _inclusion(self, kind: str) -> tuple[int, tuple]:
        """Classes in the twisted hypercohomology of the basis classes of the
        `kind` complex, whose cochains include into the twisted ones."""
        if kind not in self._matrices:
            tw = self.cone(TWISTED)
            den, cocycles = self.cone(kind).classes()
            cols = [tw.class_of(*cocycle) for cocycle in cocycles]
            self._matrices[kind] = (den * tw.quotient.class_den,
                                    tuple(tuple(col[i] for col in cols) for i in range(tw.h1)))
        return self._matrices[kind]

    def symplectic_matrix(self) -> tuple[int, tuple]:
        """Gram matrix of the pairing on the framed first hypercohomology;
        whether it is skew is the caller's check."""
        return self._pairing(FRAMED, FRAMED)

    def forgetful_matrix(self) -> tuple[int, tuple]:
        """Classes of framed cocycles inside the twisted hypercohomology."""
        return self._inclusion(FRAMED)

    def poisson_matrix(self) -> tuple[int, tuple]:
        """Map induced by inclusion from the dual twisted complex to the
        twisted one; realizes the Poisson anchor in these bases."""
        return self._inclusion(TWISTED_DUAL)

    def forgetful_adjoint_matrix(self) -> tuple[int, tuple]:
        """Covector matrix of the adjoint of the forgetful map.

        Entry (i, j) pairs the i-th framed basis class against the j-th dual
        twisted basis class under the cup pairing; cochains include directly.
        """
        return self._pairing(FRAMED, TWISTED_DUAL)


@dataclass
class PoissonMapCheck:
    ok: bool
    residual: Mat
    phi_rank: int
    degenerate_directions: list[Vec]


def verify_poisson_map(theory: DeformationTheory) -> PoissonMapCheck:
    """Exact matrix identity F φ^{-1} A = P for the framed pairing φ, the
    forgetful adjoint A, the forgetful map F and the anchor P, checked as
    F Y = P with φ Y = A solved by one elimination of [φ | A].  The residual
    F Y - P takes P's shape, so P is compared even when F and Y are empty.

    Requires the framed pairing to be invertible (vanishing h^0 and h^2 of the
    framed complex); otherwise the degenerate directions, the kernel of φ, are
    reported.
    """
    framed = theory.cone(FRAMED)
    phiden, phi = theory.symplectic_matrix()
    if framed.h0 == 0 and framed.h2 == 0:
        aden, adj = theory.forgetful_adjoint_matrix()
        try:
            yden, y = integer_solve(phi, adj)
        except ValueError:      # φ is singular
            pass
        else:
            # φ = Φ / φden and A = Â / aden give Y = φden Ŷ / (aden yden) for
            # Φ Ŷ = yden Â, so F Y - P = (pden φden F̂ Ŷ - fden aden yden P̂) / den,
            # den = fden aden yden pden, in P's shape
            (fden, f), (pden, p) = theory.forgetful_matrix(), theory.poisson_matrix()
            left, right = pden * phiden, fden * aden * yden
            num = []
            for frow, prow in zip(f, p):
                terms = [(a, y[k]) for k, a in enumerate(frow) if a]
                num.append([left * sum(a * yk[j] for a, yk in terms) - right * z
                            for j, z in enumerate(prow)])
            den = right * pden
            residual = [[Fraction(x, den) for x in row] for row in num]
            return PoissonMapCheck(not any(x for row in num for x in row), residual,
                                   len(phi), [])
    degenerate = [dense(v, len(phi)) for v in nullspace_sparse(phi, ncols=len(phi))]
    return PoissonMapCheck(False, [], len(phi) - len(degenerate), degenerate)
