"""Sheaves of vector-valued rational sections on the rational curve.

A sheaf is specified by per-point pole bounds, optional value-subspace
constraints on the deepest allowed Laurent coefficient, and a twist at
infinity.  Cohomology is computed from the two-chart Zariski cover

    U0 = P^1 - {infinity},      U1 = P^1 - D,

so H^0(F) = F(U0) ∩ F(U1) and H^1(F) = F(U0 ∩ U1) / (F(U0) + F(U1)), with
all spaces truncated to a finite Laurent window.  The quotient presentation
is normalized by Gaussian elimination in a fixed point-then-pole-order
coordinate ordering, so bases are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlinalg import (Quotient, Vec, ZERO, ONE, frac, identity,
                          nullspace_sparse, vec_is_zero, zeros)
from .rationalfn import (RatContext, VSection, pairing_residue_at_infinity,
                         pairing_residue_at_point)

INFINITY = "infinity"


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

    def context(self, m: int) -> RatContext:
        return RatContext(self.points, m)


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
    cons = []
    orders = []
    for i in range(spec.n):
        k = spec.pole_orders[i]
        c = spec.constraints[i]
        orders.append(1 - k)
        if c is None:
            cons.append([])          # annihilator of the full fiber
        else:
            cons.append(nullspace_sparse(c, ncols=spec.m))
    return make_spec(spec.m, orders, cons, -spec.inf_order - 2, not spec.is_form)


# ---------------------------------------------------------------------------
# Laurent windows and coordinate layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    pole: int      # pole-order bound at every marked point
    degree: int    # polynomial degree bound

    def bumped(self, extra: int = 1) -> "Window":
        return Window(self.pole + extra, self.degree + extra)


def default_window(specs: Sequence[SheafSpec], margin: int = 2) -> Window:
    """Laurent window large enough for every H^1 class and its reductions.

    The polynomial side must reach past the total imposed vanishing (classes
    of very negative sheaves sit at polynomial levels), the pole side past the
    deepest allowed pole.  Stability of dimensions under bumping the window is
    a tested invariant, not an assumption.
    """
    pole = max(max(max(s.pole_orders), 1) for s in specs)
    deg = 0
    for s in specs:
        vanish = sum(max(-k, 0) for k in s.pole_orders)
        constrained = sum(1 for c in s.constraints if c is not None)
        deg = max(deg, max(s.inf_order, 0) + vanish + constrained)
    return Window(pole + margin, deg + margin)


class Layout:
    """Coordinates for sections with poles <= window.pole and the poly tail."""

    def __init__(self, ctx: RatContext, window: Window):
        self.ctx = ctx
        self.window = window
        self.block = ctx.m
        self.n_points = ctx.n
        self.dim = ctx.m * (ctx.n * window.pole + window.degree + 1)

    def to_coords(self, s: VSection) -> Vec:
        w, m = self.window, self.ctx.m
        if s.poly_degree() > w.degree:
            raise ValueError("section exceeds the polynomial window")
        out = zeros(self.dim)
        for i, parts in s.pp.items():
            for j, v in parts.items():
                if j > w.pole:
                    raise ValueError("section exceeds the pole window")
                base = (i * w.pole + (j - 1)) * m
                for a in range(m):
                    out[base + a] = v[a]
        poly_base = self.n_points * w.pole * m
        for l, v in enumerate(s.poly):
            for a in range(m):
                out[poly_base + l * m + a] = v[a]
        return out

    def from_coords(self, coords: Sequence[Fraction]) -> VSection:
        w, m = self.window, self.ctx.m
        pp: dict[int, dict[int, Vec]] = {}
        for i in range(self.n_points):
            for j in range(1, w.pole + 1):
                base = (i * w.pole + (j - 1)) * m
                v = [frac(coords[base + a]) for a in range(m)]
                if not vec_is_zero(v):
                    pp.setdefault(i, {})[j] = v
        poly_base = self.n_points * w.pole * m
        poly = [[frac(coords[poly_base + l * m + a]) for a in range(m)]
                for l in range(w.degree + 1)]
        return VSection(self.ctx, poly=poly, pp=pp)


def _subspace_conditions(basis: Sequence[Sequence[Fraction]], m: int) -> list[Vec]:
    """Functionals cutting out the span of `basis` inside Q^m."""
    return nullspace_sparse(basis, ncols=m)


def _solve_conditions(candidates: list[VSection], rows: list[list[Fraction]],
                      ctx: RatContext) -> list[VSection]:
    """Combinations of candidates killed by all condition rows."""
    if not candidates:
        return []
    if not rows:
        return candidates
    kernel = nullspace_sparse(rows, ncols=len(candidates))
    out = []
    for combo in kernel:
        s = VSection.zero(ctx)
        for c, cand in zip(combo, candidates):
            if c:
                s = s + cand.scale(c)
        out.append(s)
    return out


def _check_ctx(ctx: RatContext, spec: SheafSpec):
    if ctx.m != spec.m or ctx.n != spec.n:
        raise ValueError(
            f"context ({ctx.n} points, fiber {ctx.m}) does not match the sheaf "
            f"({spec.n} points, fiber {spec.m})")


def _point_condition_rows(candidates: list[VSection], spec: SheafSpec,
                          ctx: RatContext) -> list[list[Fraction]]:
    """Rows expressing the D-point constraints on the given candidates."""
    m = spec.m
    conds: list[list[Fraction]] = []

    def add_rows(values_per_candidate: list[Vec], functionals: list[Vec]):
        for phi in functionals:
            conds.append([sum((p * v[a] for a, p in enumerate(phi) if p), ZERO)
                          for v in values_per_candidate])

    unit = identity(m)
    for i in range(spec.n):
        k = spec.pole_orders[i]
        cons = spec.constraints[i]
        if k < 0:
            for order in range(0, -k):
                vals = [c.laurent_coeff(i, order) for c in candidates]
                add_rows(vals, unit)
        if cons is not None:
            vals = [c.laurent_coeff(i, -k) for c in candidates]
            add_rows(vals, _subspace_conditions(cons, m))
    return conds


def _sections(ctx: RatContext, spec: SheafSpec, poles: Sequence[int], degree: int,
              at_points: bool) -> list[VSection]:
    """Basis of the sections with poles[i] poles at x_i and a polynomial tail of
    degree <= degree, subject to the D-point conditions of spec when at_points,
    and to vanishing to order -degree at infinity when degree < 0."""
    _check_ctx(ctx, spec)
    units = identity(spec.m)
    candidates = [VSection.principal(ctx, i, j, v)
                  for i, p in enumerate(poles) for j in range(1, p + 1) for v in units]
    candidates += [VSection.monomial(ctx, l, v) for l in range(degree + 1) for v in units]
    rows = _point_condition_rows(candidates, spec, ctx) if at_points else []
    for order in range(1, -degree):
        vals = [c.infinity_coeff(order) for c in candidates]
        rows += [[v[a] for v in vals] for a in range(spec.m)]
    return _solve_conditions(candidates, rows, ctx)


def sections_on_affine_chart(ctx: RatContext, spec: SheafSpec, window: Window) -> list[VSection]:
    """Basis of F(U0): regular away from D, window-truncated polynomial tail."""
    return _sections(ctx, spec, spec.pole_orders, window.degree, True)


def sections_off_divisor(ctx: RatContext, spec: SheafSpec, window: Window) -> list[VSection]:
    """Basis of F(U1): arbitrary window poles along D, twist condition at infinity."""
    return _sections(ctx, spec, [window.pole] * spec.n, spec.inf_order, False)


def global_sections(ctx: RatContext, spec: SheafSpec) -> list[VSection]:
    """Exact basis of H^0."""
    return _sections(ctx, spec, spec.pole_orders, spec.inf_order, True)


class H1Presentation:
    """H^1 as window Laurent data modulo chart-section tails."""

    def __init__(self, ctx: RatContext, spec: SheafSpec, window: Window | None = None):
        _check_ctx(ctx, spec)
        self.ctx = ctx
        self.spec = spec
        self.window = window or default_window([spec])
        self.layout = Layout(ctx, self.window)
        reducers = [self.layout.to_coords(s)
                    for s in sections_on_affine_chart(ctx, spec, self.window)]
        reducers += [self.layout.to_coords(s)
                     for s in sections_off_divisor(ctx, spec, self.window.bumped(0))]
        units = []
        for idx in range(self.layout.dim):
            v = zeros(self.layout.dim)
            v[idx] = ONE
            units.append(v)
        self.quotient = Quotient(self.layout.dim, reducers, units)

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def representatives(self) -> list[VSection]:
        return [self.layout.from_coords(v) for v in self.quotient.basis]

    def class_coords(self, s: VSection) -> Vec:
        return self.quotient.project(self.layout.to_coords(s))


def h1_presentation(ctx: RatContext, spec: SheafSpec,
                    window: Window | None = None) -> H1Presentation:
    return H1Presentation(ctx, spec, window)


def residue(section: VSection, point, is_form: bool = True):
    """Residue of the one-form (section dz) at a marked point index or INFINITY.

    Returns a scalar for rank-one sections, otherwise the coefficient vector;
    a point that is not a stored pole yields zero.
    """
    if not is_form:
        raise ValueError("residues are defined for one-forms")
    if point == INFINITY:
        v = [-x for x in section.infinity_coeff(1)]
    else:
        v = section.laurent_coeff(point, -1)
    return v[0] if section.ctx.m == 1 else v


def total_residue_pairing(f: VSection, g: VSection, gram_apply) -> Fraction:
    """Sum of residues of <f, g> dz over D and infinity.

    For a product with poles only along D and at infinity this vanishes by
    the residue theorem; it is the cross-check functional, not the pairing.
    """
    acc = ZERO
    for i in range(f.ctx.n):
        acc += pairing_residue_at_point(f, g, gram_apply, i)
    acc += pairing_residue_at_infinity(f, g, gram_apply)
    return acc


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
