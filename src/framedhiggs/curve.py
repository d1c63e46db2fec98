"""Sheaves of vector-valued rational sections on the rational curve.

A sheaf is specified by per-point pole bounds, optional value-subspace
constraints on the deepest allowed Laurent coefficient, and a twist at
infinity.  Cohomology is computed from the two-chart Zariski cover

    U0 = P^1 - {infinity},      U1 = P^1 - D,

so H^0(F) = F(U0) ∩ F(U1) and H^1(F) = F(U0 ∩ U1) / (F(U0) + F(U1)), with
all spaces truncated to a finite Laurent window.  The quotient presentation
is normalized by Gaussian elimination in a fixed point-then-pole-order
coordinate ordering, so bases are reproducible.

Windows and the closed forms of their layouts live in `rationalfn`: a
window's layout has one coordinate per scalar basis function, (z - x_i)^-j
for j <= pole at each point, then z^l for l <= degree, tensored with the
fiber (position-major, fiber-minor), and the coefficient of (z - x_i)^k in
the Laurent expansion at x_i of each scalar basis function is the row
lambda_{i,k} (`rationalfn.laurent_row`); `rationalfn.infinity_row` gives the
expansion in u = 1/z.  Chart sections are the kernel of the condition rows
lambda ⊗ phi, for the fiber functionals phi a sheaf imposes, on the
candidate coordinates the chart allows, eliminated in integers; the kernel's
columns are renamed to layout indices, so a chart basis is a `Staircase` of
sparse layout vectors (integer tails over one denominator) and no section is
built.  H^0 bases and H^1 representatives are `rationalfn.VSection` views of
layout vectors.

A chart basis reads only the points, the fiber, the sheaf and the window, so
`sections_on_affine_chart` and `sections_off_divisor` keep the bases of this
process in a memo keyed by (context, spec, window), a `functools.lru_cache`
of at most `exactlinalg.MEMO_SIZE` entries; a basis is shared and never mutated.
A `SheafSpec`, like a `rationalfn.RatContext`, hashes its Fraction fields
once per object, so repeated lookups of one spec cost no Fraction hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .exactlinalg import (MEMO_SIZE, Quotient, Staircase, Vec, ZERO, dense, frac,
                          nullspace_sparse)
from .rationalfn import (RatContext, VSection, Window, infinity_row, laurent_row,
                         pairing_residue_at_point)


@dataclass(frozen=True)
class MarkedCurve:
    """A genus with marked points; the explicit engine requires genus 0."""
    genus: int
    points: tuple[Fraction, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if len(self.points) < 1:
            raise ValueError("at least one marked point is required (D is nonempty)")
        if len(set(self.points)) != len(self.points):
            raise ValueError("marked points must be pairwise distinct")
        if any(p == 0 for p in self.points):
            raise ValueError("marked points must be nonzero; 0 and infinity are chart points")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SheafSpec:
    """Locally free sheaf of rank m cut out of the rational constant sheaf.

    pole_orders[i] bounds the pole order at x_i (negative = imposed vanishing);
    constraints[i], when present, is a basis of the subspace the deepest
    allowed coefficient must lie in.  Sections are O(z^inf_order) at infinity.
    is_form marks sheaves of one-forms (the stored function f means f dz).
    """
    m: int
    pole_orders: tuple[int, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], ...] | None, ...]
    inf_order: int
    is_form: bool = False

    @cached_property
    def _hash(self) -> int:
        return hash((self.m, self.pole_orders, self.constraints, self.inf_order, self.is_form))

    def __hash__(self) -> int:      # the Fraction constraints are hashed once per spec
        return self._hash

    @property
    def n(self) -> int:
        return len(self.pole_orders)

    def codim(self, i: int) -> int:
        c = self.constraints[i]
        return 0 if c is None else self.m - len(c)

    def degree(self) -> int:
        return self.m * (sum(self.pole_orders) + self.inf_order) - \
            sum(self.codim(i) for i in range(self.n))

    def euler_char(self) -> int:
        """chi = deg + m on the rational curve."""
        return self.degree() + self.m


def make_spec(m: int, pole_orders: Sequence[int],
              constraints: Sequence[Sequence[Sequence[Fraction]] | None] | None = None,
              inf_order: int = 0, is_form: bool = False) -> SheafSpec:
    """Build a SheafSpec, normalizing trivial and full constraints away."""
    n = len(pole_orders)
    cons: list = list(constraints) if constraints is not None else [None] * n
    orders = list(pole_orders)
    for i in range(n):
        c = cons[i]
        if c is None:
            continue
        basis = [tuple(frac(x) for x in v) for v in c]
        if len(basis) == m:
            cons[i] = None
        elif len(basis) == 0:
            orders[i] -= 1
            cons[i] = None
        else:
            cons[i] = tuple(basis)
    return SheafSpec(m, tuple(orders), tuple(cons), inf_order, is_form)


def serre_dual_spec(spec: SheafSpec) -> SheafSpec:
    """The Serre dual F^vee ⊗ K in the same encoding (dot-product fiber pairing)."""
    # [] is the annihilator of the full fiber
    cons = [[] if c is None else [dense(v, spec.m) for v in nullspace_sparse(c, ncols=spec.m)]
            for c in spec.constraints]
    return make_spec(spec.m, [1 - k for k in spec.pole_orders], cons,
                     -spec.inf_order - 2, not spec.is_form)


# ---------------------------------------------------------------------------
# Laurent window bounds and coordinate layouts
# ---------------------------------------------------------------------------

def default_window(specs: Sequence[SheafSpec]) -> Window:
    """The smallest Laurent window in which the truncated two-chart complex
    of every sheaf in `specs` has the true H^0 and H^1.

    For one sheaf F with pole bounds k_i, a constraint c_i on the order -k_i
    coefficient and order e at infinity, let

        N = sum_i max(-k_i, 0) + #{i : c_i is set and k_i <= 0},

    the number of scalar point conditions a polynomial section meets.  The
    truncated complex F(U0)_W + F(U1)_W -> layout_W is exact for W = (P, D)
    whenever P >= max_i k_i, P >= -e - 1 and D >= max(e, N - 1, 0):

    * H^0: a global section has poles of order <= k_i and degree <= e, so it
      lies in the window.
    * H^1 is injective: if w = s0 + s1 lies in the window, the polynomial
      part of s0 above D cancels against s1, whose degree is <= e <= D, and
      the poles of s1 above P against s0, whose poles are <= k_i <= P; so s0
      and s1 already lie in the window.
    * H^1 is surjective: a pole term of order J > P vanishes to order
      J >= -e at infinity, so it lies in F(U1); a monomial z^L with L > D
      splits as (z^L - q) + q, with q the Hermite interpolant of z^L at the
      N point conditions, of degree <= N - 1 <= D, and z^L - q in F(U0).

    A window has no negative bound, so both are at least 0.  The bound is
    tight: on some sheaves one pole or one degree less changes H^1, and
    tests/test_curve.py checks exactness and tightness on random sheaves.
    """
    pole = deg = 0
    for s in specs:
        n_conditions = sum(max(-k, 0) + (c is not None and k <= 0)
                           for k, c in zip(s.pole_orders, s.constraints))
        pole = max(pole, *s.pole_orders, -s.inf_order - 1)
        deg = max(deg, s.inf_order, n_conditions - 1)
    return Window(pole, deg)


def check_window(window: Window, bound: Window, what: str) -> Window:
    """`window`, unless it is below `bound` in its pole or its degree; then
    ValueError naming the bound, since the truncated cohomology of `what`
    would be wrong there."""
    if window.pole < bound.pole or window.degree < bound.degree:
        raise ValueError(f"{window} is below the exact Laurent window {bound} of {what}")
    return window


class Layout:
    """The layout of a window over a context, of `dim` coordinates."""

    def __init__(self, ctx: RatContext, window: Window):
        self.dim = ctx.m * (ctx.n * window.pole + window.degree + 1)


def _sections(ctx: RatContext, spec: SheafSpec, poles: Sequence[int], degree: int,
              window: Window, at_points: bool) -> Staircase:
    """Basis, in sparse layout coordinates of `window`, of the sections with
    poles[i] poles at x_i and a polynomial tail of degree <= degree, subject
    to the D-point conditions of spec when at_points, and to vanishing to
    order -degree at infinity when degree < 0.  The condition rows are
    eliminated in integers and the kernel is a `Staircase` on the candidate
    coordinates, whose columns are renamed to layout indices; the renaming
    keeps their order, so the basis stays in staircase form."""
    if ctx.m != spec.m or ctx.n != spec.n:
        raise ValueError(f"context ({ctx.n} points, fiber {ctx.m}) does not match the "
                         f"sheaf ({spec.n} points, fiber {spec.m})")
    m, pole = spec.m, window.pole
    if max(poles, default=0) > pole or degree > window.degree:
        raise ValueError("sections exceed the Laurent window")
    # candidate scalar basis functions, in increasing layout order
    ks = [i * pole + j - 1 for i, p in enumerate(poles) for j in range(1, p + 1)]
    ks += [ctx.n * pole + l for l in range(degree + 1)]
    pos = {k: c for c, k in enumerate(ks)}
    units = [{a: 1} for a in range(m)]
    conditions = []          # (lambda row, fiber functionals)
    for i, k in enumerate(spec.pole_orders if at_points else ()):
        conditions += [(laurent_row(ctx.points, window, i, order), units)
                       for order in range(0, -k)]
        if spec.constraints[i] is not None:
            # the annihilator of the constraint, as integer functionals
            conditions.append((laurent_row(ctx.points, window, i, -k),
                               Staircase.kernel(spec.constraints[i], m).scaled))
    conditions += [(infinity_row(ctx.points, window, order), units)
                   for order in range(1, -degree)]
    rows = [{pos[k] * m + a: lam * y for k, lam in row.items() if k in pos
             for a, y in phi.items()}
            for row, functionals in conditions for phi in functionals]
    kernel = Staircase.kernel(rows, len(ks) * m)

    def layout_index(c: int) -> int:
        return ks[c // m] * m + c % m
    return Staircase([layout_index(c) for c in kernel.free], kernel.den,
                     [{layout_index(c): t for c, t in tail.items()} for tail in kernel.tails])


@lru_cache(maxsize=MEMO_SIZE)
def sections_on_affine_chart(ctx: RatContext, spec: SheafSpec, window: Window) -> Staircase:
    """Basis of F(U0): regular away from D, window-truncated polynomial tail."""
    return _sections(ctx, spec, spec.pole_orders, window.degree, window, True)


@lru_cache(maxsize=MEMO_SIZE)
def sections_off_divisor(ctx: RatContext, spec: SheafSpec, window: Window) -> Staircase:
    """Basis of F(U1): arbitrary window poles along D, twist condition at infinity."""
    return _sections(ctx, spec, [window.pole] * spec.n, spec.inf_order, window, False)


def global_sections(ctx: RatContext, spec: SheafSpec) -> list[VSection]:
    """Exact basis of H^0."""
    window = Window(max(0, *spec.pole_orders), max(spec.inf_order, 0))
    return [VSection(ctx, window, v)
            for v in _sections(ctx, spec, spec.pole_orders, spec.inf_order, window, True)]


class H1Presentation:
    """H^1 as window Laurent data modulo chart-section tails, in a window at
    least `default_window([spec])` (ValueError below it)."""

    def __init__(self, ctx: RatContext, spec: SheafSpec, window: Window | None = None):
        self.ctx = ctx
        self.spec = spec
        bound = default_window([spec])
        self.window = check_window(window or bound, bound, "the sheaf")
        self.layout = Layout(ctx, self.window)
        # the chart bases as integer vectors: only their span counts
        reducers = [v for chart in (sections_on_affine_chart, sections_off_divisor)
                    for v in chart(ctx, spec, self.window).scaled]
        dim = self.layout.dim       # over the whole layout: the unit staircase
        self.quotient = Quotient(dim, reducers,
                                 Staircase(list(range(dim)), 1, [{} for _ in range(dim)]))

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def representatives(self) -> list[VSection]:
        return [VSection(self.ctx, self.window, v) for v in self.quotient.basis]


def h1_presentation(ctx: RatContext, spec: SheafSpec,
                    window: Window | None = None) -> H1Presentation:
    return H1Presentation(ctx, spec, window)


def marked_residue_pairing(f: VSection, g: VSection, gram_apply) -> Fraction:
    """Sum of residues of <f, g> dz over the marked points."""
    acc = ZERO
    for i in range(f.ctx.n):
        acc += pairing_residue_at_point(f, g, gram_apply, i)
    return acc


def dot_gram(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x and y), ZERO)


def check_serre_dual(spec: SheafSpec, dual: SheafSpec):
    """Raise unless `dual` is exactly the Serre dual of `spec`."""
    if serre_dual_spec(spec) != dual:
        raise ValueError("incompatible specs: the second sheaf is not the "
                         "Serre dual of the first")


def serre_pairing(h1_rep: VSection, dual_section: VSection,
                  specs: tuple[SheafSpec, SheafSpec] | None = None) -> Fraction:
    """Serre duality pairing of an H^1(F) representative against H^0(F^vee ⊗ K).

    The class functional on H^1(K) takes a cochain to the sum of its residues
    over the marked points; by the residue theorem this equals minus the
    residue at infinity, so tails of chart sections pair to zero and the
    value only depends on the H^1 class.  Passing the (spec, dual spec) pair
    validates compatibility first.
    """
    if specs is not None:
        check_serre_dual(*specs)
    return marked_residue_pairing(h1_rep, dual_section, dot_gram)
