"""The Hitchin map on residue data and the product Lie-Poisson bracket.

Residue tuples (A_1, ..., A_n) with sum zero describe the Higgs field
theta(z) = sum_i A_i dz/(z - x_i) on the trivialized rational curve.  Every
invariant of theta is read off one integer Faddeev-LeVerrier run on theta(T)
= N(T) / D at one integer point T = 2^B (`liealg.theta_char_polys`), T above
twice the coefficients of N's invariants: the numerator of p_k(theta) at T
carries them as its balanced base-T digits (`liealg.balanced_digits`), and
one integer matrix per degree index, built once per system, maps them to
their partial fractions (`GaudinSystem._partial_fractions`).  A process
keeps one system per algebra model and point set (`gaudin_system`).  The
Poisson structure is the product Lie-Poisson bracket transported by the
trace form.

Every gradient of a Hitchin coefficient comes from one engine: the
Laurent expansion of theta at the coefficient's marked point, emitted as a
straight-line `GradientProgram` (`GaudinSystem.coefficient_functions`).
The flow integrator runs it in floats, its drift values exact values
rounded once; the bracket check (`commutativity_check`) runs it exactly,
but only for a tuple that fails a certificate.  The certificate takes one
point T per job, above every tuple's commutator coefficients
(`GaudinSystem._batch_point`), and one integer function per algebra model,
generated at first use (`_certifier`): from N(T) alone it runs
Faddeev-LeVerrier, projects every invariant's gradient and tests that each
commutes with N(T) and with every other's; then every bracket of the tuple
vanishes.  A tuple that fails the certificate gets each bracket {H_a, H_b} =
sum_l tr(A_l [X^l_a, X^l_b]) of the exact site gradients, which decide its
verdict.  Where every commutator expands to the zero polynomial in N (gl(r)
and sl(r), r <= 3), the proof is made once, when the kernel would be
generated: zero polynomials vanish at every t for every tuple, so there is
no kernel, and no tuple is read or drawn.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from functools import cached_property, lru_cache
from itertools import combinations
from types import CodeType
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactlinalg import MEMO_SIZE, ZERO, ONE, frac, over_common_denominator
from .liealg import (PFAFFIAN, AlgebraElement, AlgebraModel, balanced_digits, flat_trace,
                     flatten, generator_indices, pfaffian, theta_char_polys, theta_majorants,
                     theta_mus)


def _float(x: Fraction) -> float:
    """x rounded to a float, a value beyond the float range to the signed infinity."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class GradientProgram(NamedTuple):
    """Straight-line statements that set g0, g1, ... to the projected site
    gradients of a Hitchin coefficient at the state x0, x1, ..., both laid
    out as `flatten_point`.  They hold no number literal but read each
    rational constant by its name in constants: with float constants and a
    float state they give the flow's floats, with these Fractions and a
    Fraction state the exact gradient of the bracket check's fallback
    (`GaudinSystem._site_gradients`)."""
    lines: list[str]
    constants: dict[str, Fraction]


class _Statements:
    """The statements of a `GradientProgram` under construction.  A value is
    None for zero or (sign, name), sign +-1 and name a state entry x<v>, a
    constant r<q> or a local t<q>; a term (c, names) is the rational c times
    the named values."""

    def __init__(self):
        self.lines: list[str] = []
        self.constants: dict[Fraction, str] = {}

    def constant(self, c: Fraction) -> str:
        return self.constants.setdefault(c, f"r{len(self.constants)}")

    def sum(self, terms, target: str | None = None):
        """The value of the sum of the terms that are not None: with no
        target, None for no term, +-name for one term +-1 name, and -t for
        negative terms only, t set to their negated sum; else the local that
        a new statement sets to the sum (0 if empty), target if given.
        Positive terms come first and a negative first term multiplies its
        constant, so no statement has a unary minus, and none flips the sign
        of a NaN: every path of the interpreter makes the same NaNs."""
        terms = sorted(filter(None, terms), key=lambda t: t[0] < 0)
        if target is None:
            if not terms:
                return None
            if len(terms) == 1 and len(terms[0][1]) == 1 and abs(terms[0][0]) == 1:
                return terms[0][0], terms[0][1][0]
            if terms[0][0] < 0:
                return -1, self.sum([(-c, names) for c, names in terms])[1]
            target = f"t{len(self.lines)}"
        text = ""
        for c, names in terms:
            if c != 1 and not (text and c == -1):
                names = (self.constant(abs(c) if text else c),) + names
            text += ((" - " if c < 0 else " + ") if text else "") + " * ".join(names)
        self.lines.append(f"{target} = {text or self.constant(ZERO)}")
        return 1, target


def _term(c: Fraction, *values):
    """The term c times the product of the values; None if one is zero."""
    if None in values:
        return None
    return c * math.prod(sign for sign, _ in values), tuple(name for _, name in values)


def _products(u: list, v: list, o: int, c: int = 1) -> list:
    """The terms of c u v at w^o, for series u and v: lists of values, the
    coefficients of w^0, w^1, ..."""
    return [_term(c, u[p], v[o - p]) for p in range(o + 1)]


def _char_gradient(prog: _Statements, x: list, m: int) -> list:
    """P_(m-1)(X), the gradient of e_m at the matrix X of series x, both
    flattened, by Faddeev-LeVerrier as in `theta_char_polys`: W = X P_(q-1),
    e_q = tr(W) / q and P_q = e_q I - W, from P_0 = I."""
    s, orders, p = math.isqrt(len(x)), range(len(x[0])), None   # None for P_0 = I
    for q in range(1, m):
        w = x if p is None else [
            [prog.sum(t for c in range(s) for t in _products(x[a * s + c], p[c * s + b], o))
             for o in orders] for a in range(s) for b in range(s)]
        e = [prog.sum(_term(Fraction(1, q), w[a * (s + 1)][o]) for a in range(s)) for o in orders]
        p = [[prog.sum([_term(1, e[o]) if v % (s + 1) == 0 else None, _term(-1, w[v][o])])
              for o in orders] for v in range(s * s)]
    return p or [[(1, prog.constant(ONE)) if o == 0 and v % (s + 1) == 0 else None
                  for o in orders] for v in range(s * s)]


def _pfaffian_minor_gradient(s: int, minor: Callable, zero) -> list:
    """flatten(G) with tr(G V) = D_V Pf(Q X), Pf read off the strict upper
    triangle of Y = Q X (`liealg.pfaffian`): G = U^T Q, U_ab = dPf/dY_ab =
    (-1)^(a+b+1) Pf(Y without rows and columns a and b) for a < b, and zero
    for a >= b; minor(keep, sign) is sign Pf(Y's rows and columns keep)."""
    def u(a: int, b: int):
        keep = tuple(z for z in range(s) if z not in (a, b))
        return minor(keep, (-1) ** (a + b + 1)) if a < b else zero
    return [u(s - 1 - c, b) for b in range(s) for c in range(s)]


def _pfaffian_series_gradient(prog: _Statements, x: list) -> list:
    """`_pfaffian_minor_gradient` at the matrix X of series x (flattened):
    Y = Q X is X upside down, and each minor's Pfaffian is expanded along its
    first row, each sub-Pfaffian once."""
    s, orders, pfs = math.isqrt(len(x)), range(len(x[0])), {}

    def pf(keep: tuple[int, ...]) -> list:
        row = x[(s - 1 - keep[0]) * s:(s - keep[0]) * s]
        if len(keep) == 2:
            return row[keep[1]]
        if keep not in pfs:
            pfs[keep] = [prog.sum(t for h in range(1, len(keep)) for t in _products(
                row[keep[h]], pf(keep[1:h] + keep[h + 1:]), o, (-1) ** (h + 1))) for o in orders]
        return pfs[keep]
    return _pfaffian_minor_gradient(
        s, lambda keep, sign: [v and (sign * v[0], v[1]) for v in pf(keep)], [None] * len(orders))


def _flow_program(s: int, nvars: int, gradient: GradientProgram) -> dict:
    """The RK4 flow of `GaudinSystem.integrate_flow`, compiled from generated
    Python source.

    The state is one float per entry of the site matrices, row-major site
    after site, nvars of them, and gradient's statements set its entries in
    the same layout.  Returns a namespace with the functions
    - rhs(x0, x1, ...): the entries of [A_i, G_i] = A_i G_i - G_i A_i, each
      product entry summed from 0.0 over the inner index;
    - run(steps, h, x0, x1, ...): the state after `steps` RK4 steps of h.
    """
    block = s * s
    xs = "".join(f"x{v}, " for v in range(nvars))

    def entry(v: int) -> str:
        site, a, b = v - v % block, v % block // s, v % s
        xg = " + ".join(["0.0"] + [f"x{site + a * s + c} * g{site + c * s + b}"
                                   for c in range(s)])
        gx = " + ".join(["0.0"] + [f"g{site + a * s + c} * x{site + c * s + b}"
                                   for c in range(s)])
        return f"({xg}) - ({gx})"

    def stage(out: str, step: str, k: str) -> str:
        return ("".join(f"{out}{v}, " for v in range(nvars)) + "= rhs("
                + "".join(f"x{v} + {step} * {k}{v}, " for v in range(nvars)) + ")")

    lines = [f"def rhs({xs}):", *gradient.lines,
             "return (" + "".join(f"{entry(v)}, " for v in range(nvars)) + ")",
             f"def run(steps, h, {xs}):",
             "half = 0.5 * h", "sixth = h / 6.0", "for _ in range(steps):",
             " " + "".join(f"a{v}, " for v in range(nvars)) + f"= rhs({xs})",
             " " + stage("b", "half", "a"), " " + stage("c", "half", "b"),
             " " + stage("d", "h", "c"),
             *(f" x{v} = x{v} + sixth * (((a{v} + 2.0 * b{v}) + 2.0 * c{v}) + d{v})"
               for v in range(nvars)),
             f"return ({xs})"]
    source = "\n".join(line if line.startswith("def ") else " " + line for line in lines)
    program = {name: _float(c) for name, c in gradient.constants.items()}
    exec(compile(source, "<gaudin flow>", "exec"), program)
    return program


def _flat_commutator(a: list[int], b: list[int], s: int) -> list[int]:
    """[a, b] of two row-major flattened s x s matrices, flattened."""
    rows_a = [a[i * s:(i + 1) * s] for i in range(s)]
    rows_b = [b[i * s:(i + 1) * s] for i in range(s)]
    cols_a = [a[j::s] for j in range(s)]
    cols_b = [b[j::s] for j in range(s)]
    return [sum(map(mul, ra, cb)) - sum(map(mul, rb, ca))
            for ra, rb in zip(rows_a, rows_b) for cb, ca in zip(cols_b, cols_a)]


# The certificate's integer kernel is generated as straight-line Python.  A
# value is an integer polynomial {names: c} in the kernel's locals: names a
# sorted tuple, () for the constant term, and c a nonzero int; {} is zero.

def _poly_products(terms) -> dict[tuple[str, ...], int]:
    """sum c a b over the terms (c, a, b) of polynomials a and b, like terms
    merged and zero ones dropped, in the order of their first appearance."""
    out: dict[tuple[str, ...], int] = {}
    for c, a, b in terms:
        for x, d in a.items():
            for y, e in b.items():
                names = tuple(sorted(x + y))
                out[names] = out.get(names, 0) + c * d * e
    return {names: c for names, c in out.items() if c}


def _poly_sum(terms) -> dict[tuple[str, ...], int]:
    """sum c p over the terms (c, p)."""
    return _poly_products((c, p, {(): 1}) for c, p in terms)


def _multiplications(poly: dict) -> int:
    """The multiplications of `_int_text(poly)`."""
    return sum(max(len(names) + (abs(c) != 1) - 1, 0) for names, c in poly.items())


def _normal(poly: dict) -> tuple[int, tuple]:
    """(g, key): poly = g times the polynomial key, as sorted items, whose
    first coefficient is positive and whose coefficients have gcd 1."""
    items = sorted(poly.items())
    g = math.gcd(*poly.values()) * (1 if items[0][1] > 0 else -1)
    return g, tuple((names, c // g) for names, c in items)


def _int_text(poly: dict) -> str:
    """Python text of a polynomial, positive terms first; 0 if it is zero."""
    text = ""
    for names, c in sorted(poly.items(), key=lambda t: t[1] < 0):
        text += (" - " if c < 0 else " + ") if text else ("-" if c < 0 else "")
        text += " * ".join(([str(abs(c))] if abs(c) != 1 or not names else []) + list(names))
    return text or "0"


def _entries(name: str, count: int) -> list[dict]:
    """The values of the locals name0, name1, ..."""
    return [{(f"{name}{v}",): 1} for v in range(count)]


class _IntStatements:
    """The statements of an integer kernel under construction, each setting
    a new local k<q>.  Expanded (expand True), it sets none: every product
    is expanded and every quotient divided coefficient by coefficient, so a
    value is its polynomial in the kernel's arguments, and exact turns False
    at the first division that leaves a remainder."""

    def __init__(self, expand: bool = False):
        self.lines: list[str] = []
        self.locals: dict[tuple, str] = {}
        self.terms: dict[int, tuple[dict, dict]] = {}     # id(poly) -> (poly, its term)
        self.expand, self.exact = expand, True

    def local(self, poly: dict) -> dict:
        """poly as one term: poly itself if it is a term of at most one name,
        else g times the local set to the key of `_normal`, one local per key."""
        if self.expand or len(poly) <= 1 and all(len(names) <= 1 for names in poly):
            return poly
        if id(poly) not in self.terms:
            g, key = _normal(poly)
            if key not in self.locals:
                self.locals[key] = f"k{len(self.lines)}"
                self.lines.append(f"{self.locals[key]} = {_int_text(dict(key))}")
            self.terms[id(poly)] = poly, {(self.locals[key],): g}
        return self.terms[id(poly)][1]

    def quotient(self, poly: dict, div: int) -> dict:
        """The local set to poly // div, a division that must be exact."""
        if self.expand:
            self.exact = self.exact and all(c % div == 0 for c in poly.values())
            return {names: c // div for names, c in poly.items() if c // div}
        self.lines.append(f"k{len(self.lines)} = ({_int_text(poly)}) // {div}")
        return {(f"k{len(self.lines) - 1}",): 1}

    def products(self, terms) -> dict:
        """sum c a b over the terms (c, a, b), through the locals of a and b
        (`local`), or expanded if every a and b is linear and the expansion,
        whose like terms may cancel, takes no more multiplications."""
        terms = list(terms)
        if self.expand:
            return _poly_products(terms)
        named = _poly_products((c, self.local(a), self.local(b)) for c, a, b in terms)
        if any(len(names) > 1 for _, a, b in terms for p in (a, b) for names in p):
            return named
        expanded = _poly_products(terms)
        return expanded if _multiplications(expanded) <= _multiplications(named) else named

    def live(self, result: str) -> list[str]:
        """The statements that result reads, through each other, in order."""
        read, kept = set(re.findall(r"\bk\d+\b", result)), []
        for line in reversed(self.lines):
            target, _, text = line.partition(" = ")
            if target in read:
                kept.append(line)
                read.update(re.findall(r"\bk\d+\b", text))
        return kept[::-1]


def _certificate_source(model: AlgebraModel, expand: bool = False
                        ) -> tuple[_IntStatements, list[list[dict]]]:
    """(prog, ys): statements over the entries n0, n1, ... of an integer
    s x s matrix N, row-major, expanded if expand (`_IntStatements`), and
    per degree index the entries of y = P G, for the model's integer
    projection (den, P) (`AlgebraModel.trace_projection`): for e_m, G =
    Q_(m-1) of Faddeev-LeVerrier on N as in `theta_char_polys` (W = N
    Q_(q-1), e_q = tr(W) // q, each division exact, and Q_q = e_q I - W, from
    Q_0 = I); for the Pfaffian, G = `_pfaffian_minor_gradient` of Q N, N
    upside down, each minor's Pfaffian expanded along its first row, each
    sub-Pfaffian once."""
    s, prog, indices = model.n, _IntStatements(expand), generator_indices(model.group)
    n = _entries("n", s * s)
    qs = [[{(): 1} if v % (s + 1) == 0 else {} for v in range(s * s)]]
    for q in range(1, max(indices)):
        w = [prog.products((1, n[a * s + c], qs[-1][c * s + b]) for c in range(s))
             for a in range(s) for b in range(s)]
        trace = _poly_sum((1, w[a * (s + 1)]) for a in range(s))
        e = trace if q == 1 else prog.quotient(trace, q)
        qs.append([_poly_sum([(1, e), (-1, w[v])] if v % (s + 1) == 0 else [(-1, w[v])])
                   for v in range(s * s)])
    pfs: dict[tuple[int, ...], dict] = {(): {(): 1}}

    def pf(keep: tuple[int, ...]) -> dict:
        if keep not in pfs:
            row = n[(s - 1 - keep[0]) * s:(s - keep[0]) * s]
            pfs[keep] = row[keep[1]] if len(keep) == 2 else prog.products(
                ((-1) ** (h + 1), row[keep[h]], pf(keep[1:h] + keep[h + 1:]))
                for h in range(1, len(keep)))
        return pfs[keep]

    prows, ys = model.trace_projection[1], []
    for index in indices:
        g = (_pfaffian_minor_gradient(s, lambda keep, sign: _poly_sum([(sign, pf(keep))]), {})
             if index == PFAFFIAN else qs[index - 1])
        ys.append([_poly_sum((a, v) for a, v in zip(row, g) if a) for row in prows])
    return prog, ys


def _certificate_test(prog: _IntStatements, n: list[dict], ys: list[list[dict]], s: int) -> str:
    """One expression: [N, y] = 0 for the gradient y of every degree index,
    then [y, y'] = 0 for every pair of degree indices, one test sum_c x_ac
    y_cb == sum_c y_ac x_cb per entry (a, b), row-major, the first unequal
    entry deciding; True if no test is left.  Each entry is a polynomial of
    `products`, like terms cancelled, and each side is over the gcd of what
    is left.  Left out: an entry that cancels to zero, one whose test an
    earlier entry makes, and the last diagonal entry of each commutator,
    which vanishes when the other diagonal entries do (a commutator has
    trace zero)."""
    tests, seen = [], set()
    for x, y in [(n, y) for y in ys] + list(combinations(ys, 2)):
        for v in range(s * s - 1):
            a, b = divmod(v, s)
            diff = prog.products([(1, x[a * s + c], y[c * s + b]) for c in range(s)]
                                 + [(-1, y[a * s + c], x[c * s + b]) for c in range(s)])
            key = diff and _normal(diff)[1]
            if key and key not in seen:
                seen.add(key)
                tests.append(f"{_int_text({k: c for k, c in key if c > 0})} == "
                             f"{_int_text({k: -c for k, c in key if c < 0})}")
    return " and ".join(tests) or "True"


def _kernel_function(prog: _IntStatements, sizes: dict[str, int], result: str) -> Callable:
    """The function of one list per name in sizes, of that size, whose
    entries are the locals <name>0, <name>1, ..., that runs the statements
    of prog that result reads (`_IntStatements.live`) and returns result,
    compiled from generated Python source."""
    lines = [f"def kernel({', '.join(sizes)}):"]
    lines += [" " + "".join(f"{a}{v}, " for v in range(k)) + f"= {a}" for a, k in sizes.items()]
    lines += [" " + line for line in prog.live(result)] + [f" return {result}"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<gaudin certificate>", "exec"), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=MEMO_SIZE)
def _certifier(model: AlgebraModel) -> Callable[[Sequence[int]], bool] | None:
    """certify(N): whether the integer s x s matrix N, row-major, commutes
    with the projected gradient of every degree index, and these with each
    other (`GaudinSystem.commutativity_check`): the statements of
    `_certificate_source` and the test of `_certificate_test` as one
    straight-line function of the model, generated at its first use.  None
    if no test is left: every commutator is then the zero polynomial in the
    entries of N, zero whatever N is.

    Where the model's largest invariant degree is at most 3 (sl(2), gl(2),
    sl(3), gl(3), so(3), so(4)), the proof is tried first: the source and
    the test expanded, with no local and every // q of Faddeev-LeVerrier
    divided coefficient by coefficient.  If every division is exact and no
    entry is left, every [N, y] and [y, y'] is the zero polynomial and the
    answer is None; so it is on gl and sl, whose projected gradients are
    polynomials in N.  Otherwise the named generation runs as it would have.
    Time of the expansion alone at first use, three runs each on one 2-core
    host, Python 3.11 (sp(6) one run):

        | model | expansion | entries left |
        |---|---|---|
        | sl(2), gl(2) | 0.08-0.11 ms | none |
        | sl(3), gl(3) | 0.6-0.8 ms | none |
        | so(3) | 0.2-0.3 ms | some |
        | so(4) | 0.9-1.0 ms | some |
        | sl(4), gl(4) | 7-15 ms | none |
        | sp(4) | 5.4-6.7 ms | some |
        | so(5) | 27-32 ms | some |
        | sl(5), gl(5) | 0.16-0.47 s | none |
        | so(6) | 0.22-0.26 s | some |
        | sp(6) | 17 s | some |

    Beyond degree 3 it costs more than a named kernel's generation (7 ms on
    sl(4), 22-30 ms on sl(5)) and grows faster, so it is not tried there."""
    s = model.n
    if max(model.group.degrees) <= 3:
        prog, ys = _certificate_source(model, expand=True)
        if prog.exact and _certificate_test(prog, _entries("n", s * s), ys, s) == "True":
            return None
    prog, ys = _certificate_source(model)
    test = _certificate_test(prog, _entries("n", s * s), ys, s)
    return None if test == "True" else _kernel_function(prog, {"n": s * s}, test)


@lru_cache(maxsize=MEMO_SIZE)
def gaudin_system(model: AlgebraModel, points: tuple[Fraction, ...]) -> GaudinSystem:
    """The one `GaudinSystem` of an algebra model on a tuple of marked
    points in this process, so that its partial-fraction rows, rho and
    fallback programs are built once per point set."""
    return GaudinSystem(model, points)


def _drift_key(d: float) -> tuple[bool, float]:
    """Orders drifts with NaN above every number."""
    return math.isnan(d), d


def worst_drift(report: Sequence[dict]) -> float:
    """The largest relative drift of a flow report; NaN if any drift is NaN."""
    return max((r["relative_drift"] for r in report), key=_drift_key, default=0.0)


@dataclass(frozen=True)
class HitchinPoint:
    """Partial-fraction coefficients of the invariant polynomials of theta.

    coeffs[k][(i, j)] is the coefficient of (z - x_i)^(-j) in p_k(theta(z)),
    in the basis dual to the standard partial-fraction frame of pluri-forms
    with poles bounded by d_k D.  Normalization: trace form on the defining
    representation.
    """
    group_id: str
    degrees: tuple[int, ...]
    coeffs: tuple[dict[tuple[int, int], Fraction], ...]


class GaudinSystem:
    """Residue-tuple phase space for a classical group and marked points."""

    def __init__(self, model: AlgebraModel, points: Sequence[Fraction]):
        self.model = model
        self.points = tuple(frac(p) for p in points)
        if len(set(self.points)) != len(self.points) or any(p == 0 for p in self.points):
            raise ValueError("marked points must be distinct, finite and nonzero")
        self.n = len(self.points)
        self.s = model.n
        self.group = model.group
        # pi(Y) in g with tr(pi(Y) B) = tr(Y B) for B in g, built once per model
        self._projection = model.trace_projection
        self._indices = generator_indices(self.group)
        # integer points as ints, so that `_interp_data` runs in integers
        self._xs = [x.numerator if x.denominator == 1 else x for x in self.points]
        # every T = `_point_above` is above this, so no marked point
        self._top_numerator = max((abs(x.numerator) for x in self.points), default=0)
        self._interp_cache: dict[int, tuple] = {}

    def flatten_point(self, residues: Sequence[AlgebraElement]) -> list[Fraction]:
        return [x for el in residues for x in flatten(el.matrix)]

    # -- the Hitchin coefficient functions --------------------------------------

    def _interp_data(self, k: int):
        """(cols, rows) for degree index k, d = d_k: the coefficients (i, j)
        of (z - x_i)^(-j), j <= d, and per coefficient the integer row (rden,
        M) of `_partial_fractions`, built once per system.  With g / gden the
        series of 1 / prod_(l != i) (x_i - x_l + w)^d below w^d, c_(i,j) is
        the coefficient of w^(d-j) in P(x_i + w) g / gden, and M[o] / rden
        is that of (x_i + w)^o g / gden, for o below n d.  For x_i = p / q and
        g = G / e, G integer, (x_i + w)^o g = (p + q w)^o G / (q^o e): one
        integer multiplication by p + q w per o."""
        if k not in self._interp_cache:
            d = self.group.degrees[k]
            size = self.n * d
            cols = [(i, j) for i in range(self.n) for j in range(1, d + 1)]
            rows = []
            for x in self._xs:
                g, gden = [1] + [0] * (d - 1), 1
                for c in (x - y for y in self._xs if y != x):   # g <- g c^(2d-1) / (c + w)^d
                    gden *= c ** (2 * d - 1)
                    term = [(-1) ** m * math.comb(d + m - 1, m) * c ** (d - 1 - m)
                            for m in range(d)]
                    g = [sum(g[r] * term[m - r] for r in range(m + 1)) for m in range(d)]
                p, q = x.numerator, x.denominator
                e, h = over_common_denominator(g)
                hs = [h]    # hs[o] = (p + q w)^o G below w^d
                for _ in range(1, size):
                    hs.append([p * u + q * v for u, v in zip(hs[-1], [0] + hs[-1][:-1])])
                scale = [q ** (size - 1 - o) * gden.denominator for o in range(size)]
                rden = q ** (size - 1) * e * gden.numerator
                rows += [(rden, [h[d - j] * f for h, f in zip(hs, scale)])
                         for j in range(1, d + 1)]
            self._interp_cache[k] = (cols, rows)
        return self._interp_cache[k]

    def _partial_fractions(self, k: int, poly: Sequence[int], den: int) -> list[Fraction]:
        """The coefficients c_(i,j), in `_interp_data`'s order, of f = P(z) /
        (den prod_i (z - x_i)^d) = sum c_(i,j) (z - x_i)^(-j), d = d_k, for P =
        sum_o poly[o] z^o of degree below n d: c_(i,j) = sum_o M[o] poly[o] /
        (den rden) for the row (rden, M) of (i, j) (`_interp_data`)."""
        return [Fraction(sum(map(mul, row, poly)), den * rden)
                for rden, row in self._interp_data(k)[1]]

    def coefficient_functions(self, k: int, cols: Sequence[tuple[int, int]] | None = None
                              ) -> dict[tuple[int, int], GradientProgram]:
        """The gradient program of each coefficient (k, i, j) with (i, j) in
        cols, by default every one of degree index k, by (i, j)
        (`_gradient_program`)."""
        return {(i, j): self._gradient_program(k, i, j)
                for i, j in (self._interp_data(k)[0] if cols is None else cols)}

    def _gradient_program(self, k: int, i: int, j: int) -> GradientProgram:
        """The projected site gradients of coefficient (k, i, j), from the
        Laurent expansion at x_i.

        With w = z - x_i, Theta(w) = w theta(x_i + w) = A_i + sum_(r>=1) B_r w^r,
        B_r = sum_(l != i) (-1)^(r-1) A_l / (x_i - x_l)^r.  For d = d_k,
        p_k(theta) = w^-d p_k(Theta), so the coefficient is that of w^(d-j)
        in p_k(Theta); the gradient of p_k is homogeneous of degree d - 1, so
        grad p_k(theta) = w^(1-d) Q(w) with Q = grad p_k(Theta), and the site
        gradients read the projected coefficients of Q (`_site_weights`).  Q
        comes from Faddeev-LeVerrier (`_char_gradient`) or the Pfaffian's
        minors (`_pfaffian_series_gradient`) over series truncated at
        w^(d-j).
        """
        s, block, top = self.s, self.s * self.s, self.group.degrees[k] - j
        prog, xi = _Statements(), self.points[i]
        theta = [[(1, f"x{i * block + e}")] + [
            prog.sum(_term((-1) ** (r - 1) / (xi - x) ** r, (1, f"x{l * block + e}"))
                     for l, x in enumerate(self.points) if l != i) for r in range(1, top + 1)]
            for e in range(block)]
        index = self._indices[k]
        q = (_pfaffian_series_gradient(prog, theta) if index == PFAFFIAN
             else _char_gradient(prog, theta, index))
        pden, prows = self._projection
        pq = [[prog.sum(_term(Fraction(a, pden), v[o]) for a, v in zip(row, q) if a)
               for row in prows] for o in range(top + 1)]
        for l in range(self.n):
            weights = self._site_weights(i, l, top)
            for e in range(block):
                prog.sum((_term(c, pq[o][e]) for o, c in weights), target=f"g{l * block + e}")
        return GradientProgram(prog.lines, {name: c for c, name in prog.constants.items()})

    def _site_weights(self, i: int, l: int, top: int) -> list[tuple[int, Fraction]]:
        """[(o, c)] such that the gradient at site l of a coefficient (k, i, j)
        is sum c pi(Q_o), Q_o the coefficient of w^o in Q and top = d_k - j:
        the coefficient of w^-j in w^(1-d) Q(w) / (z - x_l).  At l = i, z - x_l
        = w and o = top; at l != i, 1 / (z - x_l) = sum_(r>=0) (-1)^r w^r /
        (x_i - x_l)^(r+1) gives o = top - 1 - r, r < top."""
        if l == i:
            return [(top, ONE)]
        c = self.points[i] - self.points[l]
        return [(top - 1 - r, (-1) ** r / c ** (r + 1)) for r in range(top)]

    def _expansions(self, sites: Sequence[tuple[int, Sequence[int]]]
                    ) -> list[tuple[list[int], list[Fraction]]]:
        """Per degree index k, (P, c) at the residue sites (d_i, a_i):
        p_k(theta(z)) = P(z) / ((L prod_j q_j)^d prod_i (z - x_i)^d), d = d_k,
        for P = e_index(N(z)), or Pf(Q N(z)) on so(2r) (`theta_char_polys`),
        read as the n d balanced base-T digits of its value at the value
        point T (`_value_point`), lowest first, and c its
        `_partial_fractions`."""
        t = self._value_point(sites)
        _, m, es, _ = theta_char_polys(self.points, sites, t)
        lead = math.lcm(*(d for d, _ in sites)) * math.prod(x.denominator for x in self.points)
        s, out = self.s, []
        for k, (index, d) in enumerate(zip(self._indices, self.group.degrees)):
            # Q N is N upside down
            value = es[index - 1] if index != PFAFFIAN else int(
                pfaffian([m[a:a + s] for a in range(s * s - s, -1, -s)]))
            digits = balanced_digits(value, t, self.n * d)
            out.append((digits, self._partial_fractions(k, digits, lead ** d)))
        return out

    def hitchin_point(self, residues: Sequence[AlgebraElement]) -> HitchinPoint:
        """Evaluate the map at a residue tuple; requires sum A_i = 0.

        The numerator P of each invariant is read off one integer
        characteristic polynomial of theta(T) (`_expansions`).  Verifies
        holomorphy at infinity: p_k(theta) ~ z^(deg P - n d_k) vanishes to
        order 2 d_k iff the top 2 d_k - 1 of P's n d_k digits do.
        """
        if not sum(residues[1:], residues[0]).is_zero():
            raise ValueError("sum of residues must vanish (holomorphy at infinity)")
        coeffs, sites = [], [el.integer_form for el in residues]
        for k, (digits, solved) in enumerate(self._expansions(sites)):
            d = self.group.degrees[k]
            for order, a in enumerate(reversed(digits[1 - 2 * d:]), start=1):
                if a:
                    raise AssertionError(
                        f"holomorphy at infinity fails at order {order} for degree {d}")
            coeffs.append({key: v for key, v in zip(self._interp_data(k)[0], solved) if v != 0})
        return HitchinPoint(self.group.group_id, self.group.degrees, tuple(coeffs))

    # -- Lie-Poisson structure ---------------------------------------------------

    def _value_bounds(self, mu: int, q: list[int]) -> list[int]:
        """Per degree index, the bound on the coefficients of the polynomial
        `_expansions` reads, for (mu, q) of `liealg.theta_majorants`:
        e_m(N) <= s^2 mu q[m-1] and Pf(Q N) <= (2r-1)!! mu^r on so(2r)."""
        s, r = self.s, self.s // 2
        return [math.prod(range(1, 2 * r, 2)) * mu ** r if index == PFAFFIAN
                else s * s * mu * q[index - 1] for index in self._indices]

    def _point_above(self, bound: int) -> int:
        """T = 2^B > 2 bound and > |p_j| >= |x_j|, so no marked point: a
        nonzero integer polynomial whose coefficients lie below T / 2 in
        absolute value does not vanish at T, and its balanced base-T digits
        are its coefficients."""
        return 2 ** max(2 * bound, self._top_numerator).bit_length()

    def _value_point(self, sites: Sequence[tuple[int, Sequence[int]]]) -> int:
        """The point T of `_point_above` for the value bounds alone
        (`_value_bounds`), at which `_expansions` reads every invariant: below
        the certificate point, whose bound also covers the commutators."""
        return self._point_above(max(self._value_bounds(*theta_majorants(self.points, sites))))

    def _certificate_point(self, sites: Sequence[tuple[int, Sequence[int]]]) -> int:
        """T = 2^B > |p_j| >= |x_j| for the residue sites, so no marked point,
        with T > 2 C for the bound C on every coefficient of U_k(t) = [N, pi
        Q_k(N)] and Z_ef(t) = [pi Q_e(N), pi Q_f(N)], pi Q the projected
        integer gradient of each degree index, and of the e_m(N) and Pf(Q N)
        (`_value_bounds`).  With (mu, q) of `liealg.theta_majorants`,
        rho the largest row 1-norm of the integer projection and g[k] the
        entry bound of the gradient degree index k reads, Q_(index-1) or a
        Pfaffian of a (2r-2)-minor: U_k <= 2 s mu rho g[k], Z_ef <= 2 s rho^2
        g[e] g[f], e_m(N) <= s^2 mu q[m-1] and Pf(Q N) <= (2r-1)!! mu^r.  With
        rho 1 on gl, 2(r-1) on sl(r) and 2 on sp and so, the U or Z terms
        already cover the value bounds, which stand in the max all the same."""
        s, rho, (mu, q) = self.s, self._rho, theta_majorants(self.points, sites)
        r = s // 2
        g = [math.prod(range(1, 2 * r - 2, 2)) * mu ** (r - 1) if index == PFAFFIAN
             else q[index - 1] for index in self._indices]
        return self._point_above(max(
            [2 * s * mu * rho * a for a in g] + self._value_bounds(mu, q)
            + [2 * s * rho * rho * a * b for a, b in combinations(g, 2)]))

    @cached_property
    def _rho(self) -> int:
        """The largest row 1-norm of the integer projection, read once per
        system (`_certificate_point`)."""
        return max(sum(map(abs, row)) for row in self._projection[1])

    def _batch_point(self, batch: Sequence[Sequence[tuple[int, Sequence[int]]]]) -> int:
        """The one certificate point of a batch of residue-site tuples: the
        `_certificate_point` of the tuple of largest majorant mu
        (`liealg.theta_majorants`).  Every bound of `_certificate_point`
        increases with mu, so this T is the largest of the tuples' own
        points, and valid for each."""
        mus = theta_mus(self.points, batch)
        return self._certificate_point(batch[mus.index(max(mus))])

    def coefficient_gradients_at(self, residue_tuples: Sequence[Sequence[AlgebraElement]]
                                 ) -> list[bool]:
        """Per residue tuple, whether the projected gradient of every degree
        index commutes with theta and with every other's at the batch's
        certificate point T (`_batch_point`): one call of the model's
        generated kernel (`_certifier`) on the integer matrix N(T) = sum_i (L
        / d_i) w_i a_i of `theta_char_polys`, theta(T) = N(T) / D, for the
        tuple's residue sites (d_i, a_i) and L = lcm d_i, with the point
        factors w_i = q_i prod_(j != i) (q_j T - p_j) formed once per batch.
        Where no test is left (`_certifier` None), every commutator is the
        zero polynomial in N, which vanishes at every t for every tuple, so
        every tuple passes with no T."""
        certify = _certifier(self.model)
        if certify is None or not residue_tuples:
            return [True] * len(residue_tuples)
        batch = [[el.integer_form for el in residues] for residues in residue_tuples]
        t = self._batch_point(batch)
        factors = [x.denominator * t - x.numerator for x in self.points]
        weights = [x.denominator * math.prod(factors[:i] + factors[i + 1:])
                   for i, x in enumerate(self.points)]
        out = []
        for sites in batch:
            big, m = math.lcm(*[d for d, _ in sites]), None
            for (d, a), w in zip(sites, weights):
                c = big // d * w
                m = [c * v for v in a] if m is None else [u + c * v for u, v in zip(m, a)]
            out.append(certify(m))
        return out

    def commutativity_check(self, residue_tuples: Iterable[Sequence[AlgebraElement]]):
        """(worst, pair): the signed bracket {H_a, H_b} of largest absolute
        value over the tuples and the pairs a < b of coefficient functions,
        the first such in tuple and coefficient order, and its pair of keys
        (k, i, j); (0, None) when every bracket vanishes.  Where the model's
        kernel has no test left (`_certifier` None), the answer is (0, None)
        before any tuple is read, so a generator of tuples draws none.

        The tuples are first tested together, at the one integer point T of
        the batch (`_batch_point`), each by one call of the model's generated
        kernel (`coefficient_gradients_at`).  Coefficient (k, i, j) is a
        combination sum_t c_t p_k(theta(t)) over any n d_k points t off the
        marked points, so its gradient at site l is sum_t c_t Y_t / (t - x_l)
        with Y_t = pi(grad p_k)(theta(t)).  By the partial-fraction identity
        sum_l A_l / ((t - x_l)(t' - x_l)) = (theta(t) - theta(t')) / (t' - t)
        and tr(X [Y, Z]) = tr([X, Y] Z), every bracket is a combination of
        traces against the commutators [theta(t), Y_t] and, at a t two degree
        indices share, [Y_t, Y'_t].  At any t, theta(t) = N(t) / D(t) for the
        integer matrix polynomial N of `theta_char_polys`, and the gradients
        are homogeneous in theta, so each commutator is a nonzero multiple of
        U_k(t) = [N, pi Q_k(N)] or Z_ef(t) = [pi Q_e(N), pi Q_f(N)].  Their
        coefficients lie below T / 2, and a nonzero integer polynomial with
        such coefficients does not vanish at T: if every commutator vanishes
        at T, every one vanishes at every t, and so does every bracket of the
        tuple.  A nonzero commutator vanishes at no such T, so which tuples
        pass does not depend on the T of the batch.  Only a tuple that fails
        has its brackets computed (`_brackets`), and those decide.  With no
        test left, every U_k and Z_ef is the zero polynomial: it vanishes at
        every t, for every tuple, and so does every bracket.
        """
        worst, worst_pair = ZERO, None
        if _certifier(self.model) is None:
            return worst, worst_pair
        residue_tuples = list(residue_tuples)
        for residues, certified in zip(residue_tuples,
                                       self.coefficient_gradients_at(residue_tuples)):
            if certified:
                continue
            for pair, val in self._brackets(residues):
                if abs(val) > abs(worst):
                    worst, worst_pair = val, pair
        return worst, worst_pair

    @cached_property
    def _fallback_programs(self) -> list[tuple[tuple, CodeType, dict[str, Fraction]]]:
        """[((k, i, j), code, constants)]: every coefficient's gradient program
        in coefficient order, compiled once per system."""
        return [((k, i, j), compile("\n".join(program.lines), "<gaudin gradient>", "exec"),
                 program.constants) for k in range(len(self._indices))
                for (i, j), program in self.coefficient_functions(k).items()]

    def _site_gradients(self, state: list[Fraction]) -> list[tuple[tuple, list[Fraction]]]:
        """[((k, i, j), X)] for every coefficient in coefficient order, X the
        site gradients of coefficient (k, i, j) at the Fraction state, both
        laid out as `flatten_point`: its gradient program run exactly."""
        names = {f"x{v}": x for v, x in enumerate(state)}
        out = []
        for key, code, constants in self._fallback_programs:
            values = {**constants, **names}
            exec(code, values)
            out.append((key, [values[f"g{v}"] for v in range(len(state))]))
        return out

    def _brackets(self, residues: Sequence[AlgebraElement]) -> list[tuple[tuple, Fraction]]:
        """[((key_a, key_b), {H_a, H_b})] for every pair a < b of coefficients
        in coefficient order: sum_l tr([A_l, X^l_a] X^l_b) over the sites l,
        with the site gradients X of `_site_gradients`."""
        s, block, state = self.s, self.s * self.s, self.flatten_point(residues)
        sites = range(0, len(state), block)
        rows = [(key, x, [_flat_commutator(state[v:v + block], x[v:v + block], s) for v in sites])
                for key, x in self._site_gradients(state)]
        return [((ka, kb), sum(flat_trace(u, x[v:v + block], s) for u, v in zip(us, sites)))
                for (ka, _, us), (kb, x, _) in combinations(rows, 2)]

    # -- Hamiltonian flow (floating point) ----------------------------------------

    def integrate_flow(self, residues: Sequence[AlgebraElement], gradient: GradientProgram,
                       t_end: float, steps: int):
        """Fixed-step RK4 integration of dA_i/dt = [A_i, nabla_i H], for the
        gradient program of a coefficient H (`coefficient_functions`).

        Returns ((start, end), drift report): the site matrices A_i at 0 and
        at t_end as nested float lists, and the relative drift of every
        Hitchin coefficient along the trajectory.  The floats are those of
        the plain loop

            k1 = rhs(A), k2 = rhs(A + 0.5 * h * k1), k3 = rhs(A + 0.5 * h * k2),
            k4 = rhs(A + h * k3), A += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4),
            rhs(X) = X @ G(X) - G(X) @ X with G the gradient of H,

        in which every product and sum is taken left to right, G is the
        gradient's statements run with each constant rounded once, and each
        entry of a matrix product is summed from 0.0.  The loop is generated
        as straight-line Python over one local float per matrix entry
        (`_flow_program`), so no library kernel picks the order of an
        operation, and the floats are the same on every host.  A float
        operation overflows silently to an infinity, so a flow that overflows
        is reported through its non-finite drift.

        The drift values are every coefficient at the exact rationals of the
        float start and end states (`_expansions`), each rounded once by
        `_float`, as is each residue entry; a non-finite state has NaN values.
        """
        s, block = self.s, self.s * self.s
        start = [_float(x) for x in self.flatten_point(residues)]
        end = _flow_program(s, len(start), gradient)["run"](steps, t_end / steps, *start)
        sites = [[[list(x[r:r + s]) for r in range(i, i + block, s)]
                  for i in range(0, len(x), block)] for x in (start, end)]
        keys = [(k, i, j) for k in range(len(self._indices)) for i, j in self._interp_data(k)[0]]

        def values(flat: list[float]) -> list[float]:
            if not all(map(math.isfinite, flat)):
                return [math.nan] * len(keys)
            sites = [over_common_denominator(map(Fraction, flat[i:i + block]))
                     for i in range(0, len(flat), block)]
            return [_float(c) for _, coeffs in self._expansions(sites) for c in coeffs]

        v0s, v1s = values(start), values(end)
        scale = max(1.0, *map(abs, v0s))
        report = [{"degree_index": k, "site": i, "order": j, "start": v0, "end": v1,
                   "relative_drift": abs(v1 - v0) / max(abs(v0), 1e-3 * scale)}
                  for (k, i, j), v0, v1 in zip(keys, v0s, v1s)]
        return sites, report
