import functools
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from sympy import CRootOf
from sympy.polys.polyroots import preprocess_roots
from sympy.polys.rootoftools import _pure_factors

from framedhiggs import intpoly, spectral
from framedhiggs.cli import main
from framedhiggs.dimensions import hitchin_base_dim, hitchin_fiber_dim
from framedhiggs.exactlinalg import ONE
from framedhiggs.liealg import AlgebraModel, char_poly_elementary
from framedhiggs.rationalfn import Poly
from framedhiggs.sampling import random_algebra_element, seeded_model
from framedhiggs.spectral import (_disc_numerator, _isolate_irrational_roots,
                                  elementary_numerators, spectral_data,
                                  spectral_genus, torsor_fiber_report)
from oracles import theta_at

PTS3 = (F(1), F(2), F(3))


def balanced(model, rng, n, h=4):
    els = [random_algebra_element(model, rng, h) for _ in range(n - 1)]
    total = els[0]
    for e in els[1:]:
        total = total + e
    els.append(total.scale(-1))
    return els


# ---------------------------------------------------------------------------
# genus identities
# ---------------------------------------------------------------------------

def test_spectral_genus_examples():
    assert spectral_genus(2, 2, 1) == 6
    assert spectral_genus(2, 1, 2) == 3
    assert spectral_genus(3, 2, 1) == 13


def test_spectral_genus_full_grid():
    for r in range(2, 6):
        for g in range(0, 5):
            for n in range(1, 6):
                gs = spectral_genus(r, g, n)
                assert gs == hitchin_fiber_dim(f"gl({r})", g, n, allow_genus_zero=True)


def test_spectral_genus_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_genus(1, 1, 1)
    with pytest.raises(ValueError):
        spectral_genus(2, 1, 0)


# ---------------------------------------------------------------------------
# spectral data of explicit models
# ---------------------------------------------------------------------------

def test_zero_field_is_globally_degenerate():
    m = AlgebraModel("sl(2)")
    z = m.zero()
    rep = spectral_data(m, PTS3, [z, z, z])
    assert rep.degenerate and not rep.smooth


def test_generic_sl2_model_is_smooth_unramified():
    rng = random.Random(3)
    m = AlgebraModel("sl(2)")
    els = balanced(m, rng, 3)
    rep = spectral_data(m, PTS3, els)
    assert not rep.degenerate
    assert rep.unramified_over_marked and rep.squarefree and rep.smooth
    assert rep.branch_degree == 2
    assert rep.genus == 0 == spectral_genus(2, 0, 3)
    finite = sum(mult for _, mult in rep.rational_branch_points) + \
        sum(1 for _ in rep.isolated_branch_boxes)
    assert finite + rep.infinity_multiplicity == rep.branch_degree


def test_nilpotent_residue_ramifies_over_marked_point():
    rng = random.Random(5)
    m = AlgebraModel("sl(2)")
    nil = m.element([[0, 1], [0, 0]])
    b = random_algebra_element(m, rng, 3)
    els = [nil, b, (nil + b).scale(-1)]
    rep = spectral_data(m, PTS3, els)
    assert rep.disc_at_marked[0] == 0
    assert not rep.unramified_over_marked
    assert not rep.in_nonramified_smooth_locus()


def test_regular_semisimple_iff_nonzero_marked_discriminant():
    m = AlgebraModel("sl(2)")
    # regular semisimple residue: distinct eigenvalues -> nonzero discriminant
    rs = m.element([[1, 0], [0, -1]])
    b = m.element([[0, 1], [1, 0]])
    els = [rs, b, (rs + b).scale(-1)]
    rep = spectral_data(m, PTS3, els)
    assert rep.disc_at_marked[0] != 0
    # nilpotent (non-semisimple): zero discriminant, checked both directions
    nil = m.element([[0, 1], [0, 0]])
    els2 = [nil, b, (nil + b).scale(-1)]
    rep2 = spectral_data(m, PTS3, els2)
    assert rep2.disc_at_marked[0] == 0


@pytest.mark.parametrize("group, seed", [("sl(2)", 1), ("gl(2)", 2), ("sl(3)", 3),
                                         ("gl(3)", 4)])
def test_disc_numerator_matches_the_sympy_discriminant(group, seed):
    """N(z) = disc_lambda det(lambda - sum A_i prod_{j != i}(z - x_j)), the
    characteristic polynomial of q(z) theta(z), from sympy's own discriminant."""
    model = seeded_model(group, PTS3, "trivial", seed, 5)
    z, lam = sympy.symbols("z lam")
    size = model.algebra.n
    m = sympy.zeros(size, size)
    for i, el in enumerate(model.residues):
        weight = sympy.Mul(*[z - sympy.Rational(str(x)) for j, x in enumerate(PTS3) if j != i])
        m += sympy.Matrix([[sympy.Rational(str(v)) for v in row] for row in el.matrix]) * weight
    oracle = sympy.Poly(sympy.discriminant(sympy.expand((lam * sympy.eye(size) - m).det()),
                                           lam), z)
    den, e_nums = elementary_numerators(model.algebra, PTS3, model.residues)
    disc = _disc_numerator(e_nums, size)
    assert disc
    scale = den ** (size * (size - 1))
    assert [F(c, scale) for c in disc] == [F(int(c.p), int(c.q)) for c in oracle.all_coeffs()]


def _interpolate(ts, ys):
    """The coefficients, lowest first and with no zero highest one, of the
    polynomial of degree < len(ts) through the points (t, y), from Newton's
    divided differences; the ts must be distinct."""
    d = list(ys)
    for j in range(1, len(ts)):
        for i in range(len(ts) - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (ts[i] - ts[i - j])
    c = []
    for t, a in zip(reversed(ts), reversed(d)):  # c <- c (z - t) + a
        c = [a - t * c[0]] + [lo - t * hi for lo, hi in zip(c, c[1:])] + c[-1:] if c else [a]
    while c and c[-1] == 0:
        c.pop()
    return c


def _sampled_numerators(model, points, residues):
    """Oracle for `elementary_numerators`: e_k(theta(t)) q(t)^k at k n + 1
    sample points t, q = prod(z - x_i), theta(t) a Fraction matrix and its
    e_k from Newton's identities, interpolated exactly."""
    n = len(points)
    ts = [max(points) + l for l in range(1, model.n * n + 2)]
    samples = [(char_poly_elementary(theta_at(points, [el.matrix for el in residues], t)),
                math.prod(t - x for x in points)) for t in ts]
    return [_interpolate(ts[:k * n + 1], [e[k - 1] * q ** k for e, q in samples[:k * n + 1]])
            for k in range(1, model.n + 1)]


def _explicit_residues(model, rng, n):
    """n residues of the model with entries over a denominator of their own
    (1 to 12 per point), summing to 0."""
    size = model.n
    els = []
    for _ in range(n - 1):
        den = rng.randint(1, 12)
        m = [[F(rng.randint(-30, 30), den) for _ in range(size)] for _ in range(size)]
        if model.group.family == "sl":
            m[-1][-1] -= sum(m[i][i] for i in range(size))
        els.append(model.element(m))
    total = els[0]
    for e in els[1:]:
        total = total + e
    return els + [total.scale(-1)]


@pytest.mark.parametrize("seed", range(24))
def test_faddeev_leverrier_numerators_equal_the_interpolated_ones(seed):
    rng = random.Random(seed)
    model = AlgebraModel(["sl(2)", "gl(2)", "sl(3)", "gl(3)"][seed % 4])
    n = rng.randint(3, 6)
    points = rng.sample(sorted({F(p, q) for p in range(-9, 10) if p for q in (1, 2, 3, 7)}), n)
    residues = _explicit_residues(model, rng, n)
    den, direct = elementary_numerators(model, points, residues)
    assert [[F(c, den ** k) for c in reversed(e)] for k, e in enumerate(direct, 1)] == \
        _sampled_numerators(model, points, residues)


def test_branch_count_matches_disc_degree_squarefree():
    rng = random.Random(11)
    m = AlgebraModel("sl(3)")
    els = balanced(m, rng, 3, 2)
    rep = spectral_data(m, (F(1), F(2), F(3)), els)
    if rep.squarefree:
        finite_count = sum(mult for _, mult in rep.rational_branch_points) + \
            len(rep.isolated_branch_boxes)
        assert finite_count == len(rep.disc_numerator) - 1
        assert rep.branch_degree == 6


def test_isolating_boxes_contain_roots():
    rng = random.Random(3)
    m = AlgebraModel("sl(2)")
    els = balanced(m, rng, 3)
    rep = spectral_data(m, PTS3, els)

    def disc(t):
        acc = F(0)
        for c in rep.disc_numerator:
            acc = acc * t + c
        return acc
    for box in rep.isolated_branch_boxes:
        if box[0] == "real":
            _, lo, hi = box
            assert hi - lo <= F(2, 10 ** 9)
            assert disc(lo) * disc(hi) <= 0


def test_a_square_discriminant_is_not_squarefree(tmp_path, capsys):
    # Residues c_i diag(1, -1) give N = 4 (sum_i c_i prod_{j != i}(z - x_j))^2,
    # a nonzero square: every factor of N has multiplicity 2.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "group": "sl(2)", "points": ["1", "2", "3", "4"],
        "residues": {"type": "explicit",
                     "matrices": [[[c, 0], [0, -c]] for c in (1, 2, 4, -7)]}}))
    assert main(["spectral", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)["results"]["spectral"]
    assert not report["degenerate"]
    assert not report["squarefree"] and not report["smooth"]


def test_rank_restriction():
    m = AlgebraModel("sp(4)")
    with pytest.raises(ValueError, match="gl\\(r\\) or sl\\(r\\)"):
        spectral_data(m, (F(1),), [m.zero()])


# ---------------------------------------------------------------------------
# torsor dimension reports
# ---------------------------------------------------------------------------

def test_torsor_formula_level_gl2_single_point():
    # formula level at genus 2, n = 1: framed fiber 6 + 4 - 1 = 9 and the
    # relatively framed fiber 6 + 2 - 1 = 7 equals the base dimension
    from framedhiggs.dimensions import torsor_dims
    fiber = hitchin_fiber_dim("gl(2)", 2, 1)
    tors = torsor_dims("gl(2)", 1)
    assert fiber + tors.framed_over_unframed == 9
    assert fiber + tors.relative_over_unframed == 7 == hitchin_base_dim("gl(2)", 2, 1)


def test_torsor_report_formula_level_gl2():
    rng = random.Random(7)
    m = AlgebraModel("gl(2)")
    els = balanced(m, rng, 3, 2)
    rep = spectral_data(m, PTS3, els)
    if rep.in_nonramified_smooth_locus():
        tr = torsor_fiber_report(rep, genus=2)
        assert tr.framed_fiber_dim == hitchin_fiber_dim("gl(2)", 2, 3) + 3 * 4 - 1
        assert tr.relative_fiber_dim == tr.base_dim == hitchin_base_dim("gl(2)", 2, 3)


def test_torsor_report_genus_zero_diagnostic():
    rng = random.Random(3)
    m = AlgebraModel("gl(2)")
    els = balanced(m, rng, 3, 3)
    rep = spectral_data(m, PTS3, els)
    if rep.in_nonramified_smooth_locus():
        tr = torsor_fiber_report(rep, genus=0)
        assert tr.relative_fiber_dim == tr.base_dim == hitchin_base_dim("gl(2)", 0, 3)
        assert any("genus 0" in note for note in tr.notes)


def test_torsor_report_outside_locus_emits_flags_only():
    m = AlgebraModel("sl(2)")
    nil = m.element([[0, 1], [0, 0]])
    rng = random.Random(5)
    b = random_algebra_element(m, rng, 3)
    rep = spectral_data(m, PTS3, [nil, b, (nil + b).scale(-1)])
    tr = torsor_fiber_report(rep)
    assert not tr.in_nonramified_smooth_locus
    assert tr.framed_fiber_dim is None and tr.base_dim is None
    assert tr.notes


# ---------------------------------------------------------------------------
# regressions on seeded CLI jobs
# ---------------------------------------------------------------------------

def _spectral_job(tmp_path, group, points, seed):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"group": group, "points": points,
                               "residues": {"type": "random", "seed": seed,
                                            "height": 10}}))
    return ["spectral", "--config", str(cfg)]


def test_scaled_root_of_reduced_discriminant_is_isolated(tmp_path, capsys):
    # sympy returns 2*CRootOf(118681*x**4 - ..., k) here: a Mul, not a CRootOf.
    assert main(_spectral_job(tmp_path, "gl(2)", ["1", "2", "3", "4"], 341483)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    boxes = report["results"]["spectral"]["isolated_branch_boxes"]
    assert boxes and all(b[0] in ("real", "complex") for b in boxes)


def test_large_constant_term_rational_roots_finish(tmp_path):
    # The discriminant has degree 6 and a 67-bit constant term; enumerating
    # its divisors by trial division did not finish in minutes.
    args = _spectral_job(tmp_path, "sl(3)", ["1", "2", "3"], 7)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "framedhiggs.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"]


def _sympy_loaded_after(argvs):
    """Exit codes of `hfb` on each argv in one fresh interpreter, and whether
    sympy was imported by the end."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; from framedhiggs.cli import main; "
            f"print([main(a) for a in {argvs!r}], 'sympy' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.rsplit(" ", 1)
    return json.loads(codes), loaded.strip() == "True"


def test_spectral_jobs_load_no_sympy(tmp_path):
    # Factoring and real isolation are the package's own and the replay
    # certifies the non-real boxes, so these jobs never import sympy.
    sl2 = _spectral_job(tmp_path / "sl2", "sl(2)", ["1", "2", "3", "4"], 1001)
    sl3 = _spectral_job(tmp_path / "sl3", "sl(3)", ["1", "2", "3"], 7)
    assert _sympy_loaded_after([[*sl2, "--out", str(tmp_path / "sl2.json")],
                                [*sl3, "--out", str(tmp_path / "sl3.json")]]) == ([0, 0], False)


def test_rank_2_jobs_on_three_points_load_no_sympy(tmp_path):
    # 11 of these 40 reduced discriminants are quadratics with roots on a cut
    # of sympy's quadtree; their exact real parts decide the side.
    argvs = []
    for group in ("sl(2)", "gl(2)"):
        for seed in range(1000, 1020):
            job = _spectral_job(tmp_path / f"{group}-{seed}", group, ["1", "2", "3"], seed)
            argvs.append([*job, "--out", str(tmp_path / f"{group}-{seed}.json")])
    assert _sympy_loaded_after(argvs) == ([0] * 40, False)


def test_no_bench_spectral_job_loads_sympy(tmp_path, monkeypatch):
    # Every job of bench seeds 0-2, in one interpreter as the bench worker
    # runs them; generating the jobs needs sympy, so it happens here.
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    seconds = json.loads((bench.parent / "BENCHMARK.json").read_text())["run_seconds"]
    argvs = []
    for seed in range(3):
        for job in run.JobStream("spectral", seed).take(run.job_count("spectral", seconds)):
            cfg = tmp_path / f"{seed}-{job.index}.json"
            cfg.write_text(json.dumps(job.config))
            argvs.append([job.sub, "--config", str(cfg), "--out", str(cfg) + ".out"])
    codes, loaded = _sympy_loaded_after(argvs)
    assert len(codes) == len(argvs) and not loaded


# ---------------------------------------------------------------------------
# certified refinement of non-real branch points
# ---------------------------------------------------------------------------

EPS = F(1, 10 ** 9)


def _reduced(p):
    """p with its rational roots divided out and made square-free, as a sympy
    Poly: the leading coefficient of p times each non-linear monic factor of
    sympy's factorization once; None if there is none."""
    z = sympy.Symbol("z")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.c)], z)
    factors = [f.monic().as_expr() for f, _ in sp.factor_list()[1] if f.degree() > 1]
    return sympy.Poly(sympy.Mul(sp.LC(), *factors), z) if factors else None


def _reference_boxes(p, eps):
    """Reference: every root, real or not, refined by sympy's
    CRootOf.eval_rational."""
    sp = _reduced(p)
    if sp is None:
        return []
    tol = sympy.Rational(eps.numerator, eps.denominator)
    out = []
    for rt in sp.all_roots(radicals=False):
        c, root = rt.as_coeff_Mul()
        approx = c * root.eval_rational(dx=tol / abs(c), dy=tol / abs(c))
        re = F(int(sympy.re(approx).p), int(sympy.re(approx).q))
        im = F(int(sympy.im(approx).p), int(sympy.im(approx).q))
        if rt.is_real:
            out.append(("real", re - eps, re + eps))
        else:
            out.append(("complex", (re - eps, im - eps), (re + eps, im + eps)))
    return out


def _discriminant(group, n, seed):
    pts = [F(i) for i in range(1, n + 1)]
    model = seeded_model(group, pts, "trivial", seed)
    algebra = AlgebraModel(group)
    disc = _disc_numerator(elementary_numerators(algebra, pts, model.residues)[1],
                           algebra.group.matrix_size)
    return Poly([F(c) for c in reversed(disc)])


def _isolate(p, eps=EPS):
    """`_isolate_irrational_roots` on the non-linear factors of p."""
    sign, factors = p.integer_factors()
    return _isolate_irrational_roots(sign, [f for f, _ in factors if len(f) > 2], eps)


def _both_ways(p, eps=EPS):
    # sympy caches isolating intervals per polynomial and eval_rational
    # stores its refined one; each side starts from sympy's own isolation.
    CRootOf.clear_cache()
    new = _isolate(p, eps)
    CRootOf.clear_cache()
    return new, _reference_boxes(p, eps)


MODELS = ([("gl(2)", 3, s) for s in range(1000, 1026)]
          + [("sl(2)", 4, s) for s in range(1000, 1015)]
          + [("gl(2)", 4, s) for s in range(1000, 1014)] + [("gl(2)", 4, 341483)]
          + [("sl(2)", 5, s) for s in range(1000, 1002)]
          + [("sl(3)", 3, s) for s in range(1000, 1002)])


@pytest.mark.parametrize("group, n, seed", MODELS,
                         ids=[f"{g}-{n}pts-seed{s}" for g, n, s in MODELS])
def test_certified_boxes_match_sympy_refinement(group, n, seed):
    new, ref = _both_ways(_discriminant(group, n, seed))
    assert new == ref


@pytest.mark.parametrize("coeffs, eps", [
    ([2, 0, 1], EPS),               # +-i sqrt(2): purely imaginary
    ([7, 5, 0, -2, 3], EPS),        # two conjugate pairs
    ([7, 5, 0, -2, 3], F(1, 3 * 10 ** 5)),
], ids=["imaginary", "quartic", "quartic-coarse"])
def test_certified_boxes_match_on_explicit_polynomials(coeffs, eps):
    p = Poly([F(c) for c in coeffs])
    new, ref = _both_ways(p, eps)
    assert new == ref


def _eval_rational_calls(monkeypatch, p):
    """(is_real) of every root sympy's eval_rational refines for p."""
    calls = []
    refine = CRootOf.eval_rational

    def counting(self, *args, **kwargs):
        calls.append(bool(self.is_real))
        return refine(self, *args, **kwargs)

    monkeypatch.setattr(CRootOf, "eval_rational", counting)
    CRootOf.clear_cache()
    boxes = _isolate(p)
    return calls, boxes


@pytest.mark.parametrize("group, n, seed", [("sl(2)", 4, 9), ("gl(2)", 3, 1001)])
def test_refine_size_refines_only_real_roots(monkeypatch, group, n, seed):
    refined = []
    refine_size = intpoly.RealInterval.refine_size

    def counting(self, dx):
        refined.append(self)
        return refine_size(self, dx)

    monkeypatch.setattr(intpoly.RealInterval, "refine_size", counting)
    calls, boxes = _eval_rational_calls(monkeypatch, _discriminant(group, n, seed))
    assert any(b[0] == "complex" for b in boxes)
    assert len(refined) == sum(b[0] == "real" for b in boxes)
    assert calls == []


def test_root_on_the_edge_of_its_rectangle_falls_back_to_sympy(monkeypatch):
    # +-i sqrt(2) lie on Re = 0, the first cut of sympy's quadtree, where sympy
    # isolates purely imaginary roots its own way: the replay declines and
    # sympy refines every non-real root.
    calls, boxes = _eval_rational_calls(monkeypatch, _poly([1, 0, 2]))
    assert [b[0] for b in boxes] == ["complex", "complex"]
    assert calls == [False, False]


def test_a_quadratic_root_on_a_cut_is_replayed(monkeypatch):
    # The reduced discriminant's real part -b/2a is +-B/4, a cut of sympy's
    # quadtree: the exact real part decides the side, so sympy refines nothing.
    calls, boxes = _eval_rational_calls(monkeypatch, _discriminant("gl(2)", 3, 1003))
    assert [b[0] for b in boxes] == ["complex", "complex"]
    assert calls == []


def test_a_declined_replay_refines_each_non_real_root_once(monkeypatch):
    # +-i sqrt(2) lie on the cut Re = 0 and -2 +- 3i on two other cuts.
    p = _poly([1, 0, 2], [1, 4, 13])
    calls, boxes = _eval_rational_calls(monkeypatch, p)
    assert [b[0] for b in boxes] == ["complex"] * 4
    assert calls == [False] * 4


# ---------------------------------------------------------------------------
# the complex isolation replayed on certified disks
# ---------------------------------------------------------------------------

def _sympy_rectangles(p):
    """sympy's isolating rectangle and conj flag of every non-real root of
    the reduced polynomial, as ``all_roots`` leaves them."""
    CRootOf.clear_cache()
    out = []
    for rt in _reduced(p).all_roots(radicals=False):
        root = rt.as_coeff_Mul()[1]
        if not root.is_real:
            ivl = root._get_interval()
            corners = [F(int(q.numerator), int(q.denominator)) for q in (*ivl.a, *ivl.b)]
            out.append((tuple(corners), ivl.conj))
    return out


def _replayed(monkeypatch, p):
    """The replayed (rectangle, conj) list of `_isolate_irrational_roots` on p
    (None when it declines), each grid rectangle as its Fraction corners, and
    the boxes it returns."""
    seen = []
    replay = spectral._replay_rectangles

    def spy(*args):
        seen.append(replay(*args))
        return seen[-1]

    monkeypatch.setattr(spectral, "_replay_rectangles", spy)
    CRootOf.clear_cache()
    boxes = _isolate(p)
    states = seen[0] if seen else []
    return (None if states is None else [(spectral._corners(rect, bound), conj)
                                         for rect, conj, _, bound in states]), boxes


def _poly(*factors):
    """The product (`intpoly.mul`) of integer polynomials given highest
    coefficient first."""
    product = functools.reduce(intpoly.mul, factors)
    return Poly([F(c) for c in reversed(product)])


@pytest.mark.parametrize("group, n, seed", MODELS,
                         ids=[f"{g}-{n}pts-seed{s}" for g, n, s in MODELS])
def test_replayed_rectangles_match_sympy(monkeypatch, group, n, seed):
    # On gl(2) with 3 points seeds 1003-1006, 1014 and 1015 the reduced
    # discriminant is a z^2 + b z + c with |b| its largest coefficient: the
    # real part -b/2a of its roots is +-B/4 for sympy's bound B = 2|b|/a, a
    # cut of the quadtree, which the exact real part decides.
    disc = _discriminant(group, n, seed)
    replayed, _ = _replayed(monkeypatch, disc)
    assert replayed == _sympy_rectangles(disc)


@pytest.mark.parametrize("p, declines", [
    (_poly([1, 0, 2]), True),                              # +-i sqrt(2) on the cut Re = 0
    (_poly([3, -2, 0, 5, 7]), False),                      # two conjugate pairs
    # three upper roots; the rectangle [0, B] x [0, B] comes after two whose
    # south-west corner is further west but not further south
    (_poly([1, 0, 21, 116, 532, 1400, 1701]), False),
    (_poly([1, 1, 3], [1, 0, -2, 5]), False),              # two factors, one real root
    # two factors whose roots 1 +- i and -2 +- 3i lie on sympy's cuts, 1 + i
    # on the corner of a rectangle
    (_poly([1, -2, 2], [1, 4, 13]), False),
    (_poly([1, 0, 2], [1, 4, 13]), True),                  # and one on Re = 0
], ids=["imaginary", "quartic", "three-upper-roots", "two-factors",
        "two-factors-on-cuts", "imaginary-and-on-cuts"])
def test_replayed_rectangles_match_sympy_on_explicit_polynomials(monkeypatch, p, declines):
    replayed, boxes = _replayed(monkeypatch, p)
    assert (replayed is None) == declines
    if not declines:
        assert replayed == _sympy_rectangles(p)
    CRootOf.clear_cache()
    assert boxes == _reference_boxes(p, EPS)


def _derived_factors(p):
    """`spectral._scaled_factors` on the non-linear factors of p."""
    return spectral._scaled_factors([f for f, _ in p.integer_factors()[1] if len(f) > 2])


def _check_derived_factors(p):
    """The scale and factors derived from p's one factorization are those
    sympy's root isolation finds by factoring the reduced polynomial."""
    scale, pure = _derived_factors(p)
    b, primitive = preprocess_roots(_reduced(p))
    assert (scale, pure) == (b, [[int(a) for a in f.rep.to_list()]
                                 for f, _ in _pure_factors(primitive)])
    return scale


@pytest.mark.parametrize("group, n, seed", MODELS,
                         ids=[f"{g}-{n}pts-seed{s}" for g, n, s in MODELS])
def test_derived_factors_match_sympy_factoring(group, n, seed):
    scale = _check_derived_factors(_discriminant(group, n, seed))
    if (group, n, seed) == ("gl(2)", 4, 341483):
        assert scale == 2      # sympy's roots are 2*CRootOf(...)


@pytest.mark.parametrize("p, scale", [
    (_poly([1, 0, 2]), 1),
    (_poly([3, -2, 0, 5, 7]), 1),
    (_poly([1, 0, 21, 116, 532, 1400, 1701]), 1),
    (_poly([1, 1, 3], [1, 0, -2, 5]), 1),
    (_poly([1, -2, 2], [1, 4, 13]), 1),
    (_poly([1, 0, 0, 0, 512, 1024]), 4),                   # z = 4 w
    (_poly([1, 0, 2], [1, 0, 2], [2, -1]), 1),             # a square factor
], ids=["imaginary", "quartic", "three-upper-roots", "two-factors",
        "two-factors-on-cuts", "scaled", "square-factor"])
def test_derived_factors_match_sympy_factoring_on_explicit_polynomials(p, scale):
    assert _check_derived_factors(p) == scale


def test_one_factorization_per_spectral_job(monkeypatch):
    # The one factorization is the package's own (`intpoly.factor_list`);
    # sympy factors, isolates and refines nothing.
    calls = {"intpoly.factor_list": 0, "factor_list": 0, "real_roots": 0,
             "eval_rational": 0}

    def counting(owner, name, key=None):
        method = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(spectral, "factor_list", "intpoly.factor_list")
    counting(sympy.Poly, "factor_list")
    counting(sympy.Poly, "real_roots")
    counting(CRootOf, "eval_rational")
    group, n, seed = NEGATIVE_CONTROL
    pts = [F(i) for i in range(1, n + 1)]
    model = seeded_model(group, pts, "trivial", seed)
    CRootOf.clear_cache()
    report = spectral_data(model.algebra, pts, model.residues)
    assert {b[0] for b in report.isolated_branch_boxes} == {"real", "complex"}
    assert calls == {"intpoly.factor_list": 1, "factor_list": 0, "real_roots": 0,
                     "eval_rational": 0}


@pytest.mark.parametrize("group", ["sl(2)", "gl(2)", "sl(3)", "gl(3)"])
def test_a_wrong_numerator_fails_the_marked_point_cross_check(monkeypatch, group):
    # Negative control: one coefficient of e_2(N) off by 1 must disagree with
    # the discriminants of the residues themselves.
    model = seeded_model(group, PTS3, "trivial", 3, 5)
    numerators = spectral.elementary_numerators

    def tampered(*args):
        den, e_nums = numerators(*args)
        return den, [e_nums[0], e_nums[1][:-1] + [e_nums[1][-1] + 1], *e_nums[2:]]
    monkeypatch.setattr(spectral, "elementary_numerators", tampered)
    with pytest.raises(AssertionError, match="Faddeev-LeVerrier discriminant disagrees"):
        spectral_data(model.algebra, PTS3, model.residues)


@pytest.mark.parametrize("group", ["sl(2)", "gl(2)", "sl(3)", "gl(3)"])
def test_a_value_at_t_moved_by_one_fails_the_marked_point_cross_check(monkeypatch, group):
    # Negative control of the digit read: e_k(N(T)) moved by 1 moves the
    # constant coefficient of e_k(N), for each k.
    model = seeded_model(group, PTS3, "trivial", 3, 5)
    kernel = spectral.theta_char_polys
    for k in range(1, model.algebra.n + 1):
        def moved(points, sites, t, k=k):
            den, m, es, qs = kernel(points, sites, t)
            return den, m, [e + (q == k) for q, e in enumerate(es, 1)], qs
        monkeypatch.setattr(spectral, "theta_char_polys", moved)
        with pytest.raises(AssertionError, match="Faddeev-LeVerrier discriminant disagrees"):
            spectral_data(model.algebra, PTS3, model.residues)


def test_a_spectral_job_builds_no_rational_polynomial(monkeypatch, tmp_path, capsys):
    # From Faddeev-LeVerrier to the factorization every polynomial is an
    # integer list; the job must not fall back to `rationalfn.Poly`.
    def refuse(self, coeffs=None):
        raise AssertionError("a spectral job built a rationalfn.Poly")
    monkeypatch.setattr(Poly, "__init__", refuse)
    for group, n in (("sl(2)", 4), ("gl(2)", 5), ("sl(3)", 3)):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "group": group, "points": [str(i) for i in range(1, n + 1)],
            "residues": {"type": "random", "seed": 3, "height": 5}}))
        assert main(["spectral", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)["results"]["spectral"]
        assert not report["degenerate"] and report["isolated_branch_boxes"]


def _sympy_calls(monkeypatch):
    """Counts of the sympy steps the replay stands in for."""
    from sympy.polys import rootisolation, rootoftools
    calls = {"isolate": 0, "refine": 0}
    isolate = rootoftools.dup_isolate_complex_roots_sqf
    refine = rootisolation.ComplexInterval._inner_refine

    def counting_isolate(*args, **kwargs):
        calls["isolate"] += 1
        return isolate(*args, **kwargs)

    def counting_refine(self):
        calls["refine"] += 1
        return refine(self)

    monkeypatch.setattr(rootoftools, "dup_isolate_complex_roots_sqf", counting_isolate)
    monkeypatch.setattr(rootisolation.ComplexInterval, "_inner_refine", counting_refine)
    return calls


@pytest.mark.parametrize("group, n, seed, replayed", [
    ("gl(2)", 3, 1001, True), ("sl(2)", 4, 1001, True), ("gl(2)", 3, 1003, False)])
def test_sympy_complex_isolation_runs_only_when_the_replay_declines(
        monkeypatch, group, n, seed, replayed):
    calls = _sympy_calls(monkeypatch)
    if not replayed:
        monkeypatch.setattr(spectral, "_replay_rectangles", lambda *args: None)
    disc = _discriminant(group, n, seed)
    CRootOf.clear_cache()
    boxes = _isolate(disc)
    assert any(b[0] == "complex" for b in boxes)
    if replayed:
        assert calls == {"isolate": 0, "refine": 0}
    else:
        assert calls["isolate"] > 0 and calls["refine"] > 0


def _declines(monkeypatch, group, n, seed):
    """Whether `_isolate_irrational_roots` fell back to sympy, and whether its
    boxes still equal sympy's own."""
    replay = spectral._replay_complexes
    calls = []

    def spy(*args):
        centres = replay(*args)
        calls.append(centres is None)
        return centres

    monkeypatch.setattr(spectral, "_replay_complexes", spy)
    new, ref = _both_ways(_discriminant(group, n, seed))
    return any(calls), new == ref


NEGATIVE_CONTROL = ("sl(2)", 4, 1001)   # replayed unchanged: 2 non-real and 2 real roots


def test_negative_control_model_is_replayed(monkeypatch):
    assert _declines(monkeypatch, *NEGATIVE_CONTROL) == (False, True)


# 500 ((z - 3/10)^2 + 100)((z + 2/5)^2 + 2601/25) + 500, irreducible: its upper
# roots -0.403 + 10.199i and 0.303 + 10.001i are 0.73 apart.
CLUSTER = [500, 100, 101905, 8776, 5215189]


def _counting_mp_roots(monkeypatch):
    """The coefficients of each `_mp_roots` call, in order."""
    mp_roots, calls = spectral._mp_roots, []

    def counting(coeffs):
        calls.append(coeffs)
        return mp_roots(coeffs)

    monkeypatch.setattr(spectral, "_mp_roots", counting)
    return calls


def test_a_stalled_durand_kerner_iteration_restarts_from_mpmath(monkeypatch):
    # gl(3) on points 1-4 with seed 9: Durand-Kerner does not settle on the
    # degree-12 discriminant; from mpmath's starts every root gets its disk.
    replay = spectral._replay_complexes
    declined = []

    def spy(*args):
        centres = replay(*args)
        declined.append(centres is None)
        return centres

    monkeypatch.setattr(spectral, "_replay_complexes", spy)
    mp_calls = _counting_mp_roots(monkeypatch)
    pts = [F(i) for i in range(1, 5)]
    model = seeded_model("gl(3)", pts, "trivial", 9)
    CRootOf.clear_cache()
    report = spectral_data(model.algebra, pts, model.residues)
    assert declined == [False]
    assert len(mp_calls) == 1
    assert any(b[0] == "complex" for b in report.isolated_branch_boxes)


# sha256 of repr(isolated_branch_boxes) of sl(3) on points 1-4, seed 6,
# trivial framing, height 10, from sympy's own complex isolation: the
# float starts do not settle there, so the replay used to decline.
SL3_SEED6_BOXES = "e4527ccc296db66ae81e0135d090803d3a56ece7647cb6bbddde5ba55044bb18"


def test_mpmath_starts_reproduce_sympys_own_boxes(monkeypatch):
    def refuse(*args):
        raise AssertionError("the replay declined")
    monkeypatch.setattr(spectral, "_sympy_complexes", refuse)
    mp_calls = _counting_mp_roots(monkeypatch)
    pts = [F(i) for i in range(1, 5)]
    model = seeded_model("sl(3)", pts, "trivial", 6)
    boxes = spectral_data(model.algebra, pts, model.residues).isolated_branch_boxes
    assert len(mp_calls) == 1
    assert hashlib.sha256(repr(boxes).encode()).hexdigest() == SL3_SEED6_BOXES


def test_an_escalation_leaves_mpmath_precision_as_it_was(monkeypatch):
    import mpmath
    monkeypatch.setattr(mpmath.mp, "dps", 20)
    monkeypatch.setattr(spectral, "_float_roots", lambda coeffs: [])
    assert spectral._certified_boxes(CLUSTER, 0, F(1, 8)) is not None
    assert (mpmath.mp.dps, mpmath.mp.prec) == (20, 70)

    def no_convergence(*args, **kwargs):
        raise mpmath.libmp.NoConvergence
    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    assert spectral._mp_roots(CLUSTER) == []
    assert (mpmath.mp.dps, mpmath.mp.prec) == (20, 70)


def test_overlapping_disks_make_the_replay_decline():
    boxes = spectral._certified_boxes(CLUSTER, 0, F(1, 8))
    assert boxes is not None and not any(b[1] <= 0 <= b[3] for b in boxes)
    # rho inflated to 1/2: the squares of the two upper roots overlap, and
    # none meets the real axis.
    assert spectral._certified_boxes(CLUSTER, 0, F(1, 2)) is None


def _sabotage_starts(monkeypatch, change):
    """Every source of Newton starts returns change(its roots)."""
    for name in ("_float_roots", "_mp_roots"):
        roots = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, lambda *args, roots=roots: change(roots(*args)))


def test_a_dropped_newton_start_makes_the_replay_decline(monkeypatch):
    # The start of the highest root goes: the replay would never count it.
    _sabotage_starts(monkeypatch, lambda ws: sorted(ws, key=lambda w: w.imag)[:-1])
    assert _declines(monkeypatch, *NEGATIVE_CONTROL) == (True, True)


def test_two_disks_about_one_root_make_the_replay_decline(monkeypatch):
    # Newton starts from conj(w) for every upper root w: each lower root gets
    # two disks and the upper roots none, with the degree and the real-root
    # count both right.
    _sabotage_starts(monkeypatch, lambda ws: [w.conjugate() if w.imag > 0 else w for w in ws])
    assert _declines(monkeypatch, *NEGATIVE_CONTROL) == (True, True)


def test_every_start_at_one_root_makes_the_replay_decline(monkeypatch):
    # Every start of both sources is the highest root: all disks are about
    # it, so no two boxes are disjoint and none meets the real axis, and
    # nothing may certify.
    calls = _counting_mp_roots(monkeypatch)
    _sabotage_starts(monkeypatch, lambda ws: [max(ws, key=lambda w: w.imag) for w in ws])
    assert _declines(monkeypatch, *NEGATIVE_CONTROL) == (True, True)
    assert calls


def test_a_wrong_real_root_count_makes_the_replay_decline(monkeypatch):
    replay = spectral._replay_rectangles
    monkeypatch.setattr(spectral, "_replay_rectangles",
                        lambda factors, nreal, r: replay(factors, [k + 1 for k in nreal], r))
    assert _declines(monkeypatch, *NEGATIVE_CONTROL) == (True, True)


def _box(x0, y0, x1, y1, ex=0, ey=0):
    """The box with the Fraction corners (x0, y0), (x1, y1)."""
    d = math.lcm(*(c.denominator for c in (x0, y0, x1, y1)))
    return (*(int(c * d) for c in (x0, y0, x1, y1)), d, ex, ey)


def _quadtree(boxes, bound):
    """`spectral._quadtree` on Fraction boxes, each grid rectangle as its
    Fraction corners."""
    found = spectral._quadtree([spectral._in_units(box, bound) for box in boxes])
    return None if found is None else [(spectral._corners(rect, bound), box)
                                       for rect, box in found]


def test_a_box_on_a_quadtree_cut_is_not_counted():
    # The first cut of [-B, B] x [0, B] is Re = 0; a box across it is neither
    # inside nor outside either half.
    across = _box(F(-1, 10 ** 6), F(3), F(1, 10 ** 6), F(3) + F(1, 10 ** 6))
    beside = _box(F(1), F(3), F(1) + F(1, 10 ** 6), F(3) + F(1, 10 ** 6))
    bound = 2 * F(5215189, 500)
    assert spectral._bound(CLUSTER) == bound
    assert _quadtree([beside], bound) == [((0, 0, bound, bound),
                                           spectral._in_units(beside, bound))]
    assert _quadtree([across], bound) is None


def test_a_box_on_a_deep_quadtree_cut_is_not_counted():
    # Two roots 6 * 2^-49 apart about c = 1/4 + 2^-45 (in units of the
    # bound): the first cut between them is x = c, a line of the grid from
    # level 45 on.  A box about the west root that reaches across c is
    # undecided only there.
    c, y, r = F(1, 4) + F(1, 2 ** 45), F(1, 3), F(1, 2 ** 60)
    west, east = c - F(3, 2 ** 48), c + F(3, 2 ** 48)
    east_box = _box(east - r, y - r, east + r, y + r)
    found = _quadtree([_box(west - r, y - r, west + r, y + r), east_box], ONE)
    assert found[0][0][2] == c == found[1][0][0]
    assert all(rect[2] - rect[0] <= F(1, 2 ** 40) for rect, _ in found)
    assert _quadtree([_box(c - r, y - r, c + r / 2, y + r), east_box], ONE) is None
    # An exact real part on the cut counts with the east half, as in sympy.
    [(west_rect, _), _] = _quadtree([_box(c, y - r, c, y + r, ex=1), east_box], ONE)
    assert west_rect[0] == c


# ---------------------------------------------------------------------------
# where sympy still runs
# ---------------------------------------------------------------------------

Q = 4099 * 4111    # both prime, past the trial division of `spectral._divisors`


def _fallback_calls(monkeypatch):
    """Counts of the three places `_isolate_irrational_roots` asks sympy."""
    calls = {"ordered": 0, "divisors": 0, "complexes": 0}

    def spy(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(spectral, "_sympy_ordered", "ordered")
    spy(sympy, "divisors", "divisors")
    spy(spectral, "_sympy_complexes", "complexes")
    return calls


FALLBACKS = {
    "none": (lambda: _discriminant(*NEGATIVE_CONTROL), {}),
    # z^2 + z + 3 and z^3 - 2z + 5 both have non-real roots
    "two-nonreal-factors": (lambda: _poly([1, 1, 3], [1, 0, -2, 5]), {"ordered": 1}),
    # _integer_basis takes b = Q from the divisors of the coefficient gcd Q
    "large-basis-gcd": (lambda: _poly([1, -3 * Q, Q * Q]), {"divisors": 1}),
    # +-i sqrt(2) lie on the cut Re = 0
    "declined-replay": (lambda: _poly([1, 0, 2]), {"complexes": 1}),
    "declined-two-factors": (lambda: _poly([1, 0, 2], [1, 4, 13]),
                             {"ordered": 1, "complexes": 1}),
}


@pytest.mark.parametrize("case", FALLBACKS)
def test_sympy_runs_only_where_the_port_cannot_decide(monkeypatch, case):
    make, expected = FALLBACKS[case]
    p = make()
    calls = _fallback_calls(monkeypatch)
    CRootOf.clear_cache()
    boxes = _isolate(p)
    assert calls == {"ordered": 0, "divisors": 0, "complexes": 0, **expected}
    monkeypatch.undo()
    CRootOf.clear_cache()
    assert boxes == _reference_boxes(p, EPS)
