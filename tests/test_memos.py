"""The per-process memos: warm jobs give the bytes of cold ones, and each
memo keys on every value its computation reads.

`liealg.algebra_model`, `liealg.framing_spec`, `liealg.gram_matrix`, the
two `curve.sections_*` chart bases, `rationalfn.scalar_columns`,
`deformation._pairing_form` and `deformation.model_shape` (the specs,
chart bases, pairing forms and chart echelons of a model shape) keep what
depends on the group, the framing, the points, the Gram matrix and the
window alone, and `liealg._point_weights`, `gaudin._certifier` and
`gaudin.gaudin_system` what depends on the points and the algebra model
alone; the conftest fixture empties them before each test.
"""

import hashlib
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

from conftest import clear_memos
from oracles import certificate_verdict
from framedhiggs import curve, deformation, gaudin, liealg, rationalfn
from framedhiggs.cli import main
from framedhiggs.deformation import (FRAMED, TWISTED, TWISTED_DUAL, DeformationTheory,
                                     FramedHiggsModel, framed_higgs_model)
from framedhiggs.gaudin import GaudinSystem
from framedhiggs.liealg import InvariantForm, algebra_model, framing_specs, theta_majorants
from framedhiggs.sampling import random_residue_tuple, seeded_model

HERE = Path(__file__).parent
GOLDEN_DEFO = json.loads((HERE / "golden_defo_reports.json").read_text())["reports"]
GOLDEN_GAUDIN = [entry for entry in json.loads(
    (HERE / "golden_gaudin_spectral_reports.json").read_text())["reports"]
    if entry["subcommand"] == "gaudin"]
JOBS = [("defo", entry["config"]) for entry in GOLDEN_DEFO] + \
    [("gaudin", entry["config"]) for entry in GOLDEN_GAUDIN]

# jobs on the same groups, points and framings with other residues, and a
# spectral job, run before the golden ones so that the memos are warm
WARM_UP = [
    ("defo", {"group": "sl(2)", "points": ["1", "2", "3"], "framing": "torus",
              "residues": {"type": "random", "seed": 21, "height": 7}}),
    ("defo", {"group": "gl(2)", "points": ["1", "2", "3"], "framing": "trivial",
              "residues": {"type": "random", "seed": 22, "height": 7}}),
    ("defo", {"group": "sl(2)", "points": ["1", "2", "3", "4"], "framing": "torus",
              "residues": {"type": "random", "seed": 23, "height": 3}}),
    ("gaudin", {"group": "sl(3)", "points": ["1", "2", "3"],
                "residues": {"type": "random", "seed": 24, "height": 5}, "random_points": 2}),
    ("gaudin", {"group": "so(4)", "points": ["1", "2", "3"],
                "residues": {"type": "random", "seed": 25, "height": 5}, "random_points": 1}),
    ("spectral", {"group": "sl(2)", "points": ["1", "2", "3"],
                  "residues": {"type": "random", "seed": 26, "height": 5}}),
]


def _report(tmp_path, subcommand, config) -> tuple[int, bytes]:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    return code, out.read_bytes()


def test_warm_jobs_give_the_bytes_of_cold_jobs(tmp_path):
    cold = []
    for subcommand, config in JOBS:
        clear_memos()
        cold.append(_report(tmp_path, subcommand, config))
    assert all(code == 0 for code, _ in cold)
    digests = [entry["sha256"] for entry in GOLDEN_DEFO + GOLDEN_GAUDIN]
    assert [hashlib.sha256(text).hexdigest() for _, text in cold] == digests
    clear_memos()
    for subcommand, config in WARM_UP:
        assert _report(tmp_path, subcommand, config)[0] == 0
    assert curve.sections_on_affine_chart.cache_info().currsize > 0
    for rounds in range(2):
        order = list(range(len(JOBS)))
        random.Random(rounds).shuffle(order)
        for k in order:
            assert _report(tmp_path, *JOBS[k]) == cold[k], JOBS[k]
    assert curve.sections_on_affine_chart.cache_info().hits > 0
    assert deformation._pairing_form.cache_info().hits > 0
    assert liealg._algebra_model.cache_info().hits > 0


def _chart_misses() -> int:
    return sum(chart.cache_info().misses
               for chart in (curve.sections_on_affine_chart, curve.sections_off_divisor))


def _build(model) -> DeformationTheory:
    theory = DeformationTheory(model)
    for kind in (TWISTED, FRAMED):
        theory.cone(kind)
    return theory


def test_models_that_differ_in_one_input_get_their_own_memo_entries():
    base = seeded_model("gl(2)", [1, 2, 3], "torus", 5, 4)
    theory = _build(base)
    window = theory.window
    form = base.pairing_form(window)
    misses = _chart_misses()

    # the same shape with other residues reads every memo and builds nothing
    again = seeded_model("gl(2)", [1, 2, 3], "torus", 6, 4)
    assert again.framings[0] is base.framings[0] and again.algebra is base.algebra
    _build(again)
    assert _chart_misses() == misses and again.pairing_form(window) is form

    # other points
    moved = seeded_model("gl(2)", [1, 2, 4], "torus", 5, 4)
    _build(moved)
    assert _chart_misses() > misses
    assert moved.pairing_form(window) != form
    misses = _chart_misses()

    # another window
    wider = window.bumped()
    spec = base.complex_specs(FRAMED)[0]
    assert base.chart_basis(spec, wider, 0) is not base.chart_basis(spec, window, 0)
    assert _chart_misses() == misses + 1
    assert base.pairing_form(wider)[1] != form[1]
    misses = _chart_misses()

    # another framing constraint: the trivial framing's framed sheaves
    trivial = seeded_model("gl(2)", [1, 2, 3], "trivial", 5, 4)
    assert trivial.framings[0] is not base.framings[0]
    assert trivial.complex_specs(FRAMED) != base.complex_specs(FRAMED)
    _build(trivial)
    assert _chart_misses() > misses

    # another center_scale: its own framings and, through its Gram matrix,
    # its own pairing form
    algebra = algebra_model("gl(2)")
    scaled, plain = InvariantForm("gl(2)", F(3)), InvariantForm("gl(2)")
    scaled_torus, plain_torus = (framing_specs(algebra, f, "torus", 3) for f in (scaled, plain))
    assert scaled_torus[0] is not plain_torus[0]
    rescaled = FramedHiggsModel(algebra, scaled, base.curve, scaled_torus, base.residues)
    assert rescaled._gram != base._gram
    assert rescaled.pairing_form(window) != form


def test_a_faulted_gram_entry_changes_the_pairing_form():
    model = seeded_model("sl(2)", [1, 2, 3], "trivial", 11, 5)
    faulted = seeded_model("sl(2)", [1, 2, 3], "trivial", 11, 5)
    faulted._gram[0][1] += 1
    window = model.window
    assert model._gram != faulted._gram
    assert faulted.pairing_form(window) != model.pairing_form(window)
    # the fault stays on its model: the process's Gram matrix is untouched
    assert seeded_model("sl(2)", [1, 2, 3], "trivial", 11, 5)._gram == model._gram
    gram = tuple(map(tuple, model._gram))
    for a in range(len(gram)):
        for b in range(len(gram)):
            bad = tuple(tuple(x + ((r, c) == (a, b)) for c, x in enumerate(row))
                        for r, row in enumerate(gram))
            assert deformation._pairing_form(model.curve.points, window, bad) != \
                deformation._pairing_form(model.curve.points, window, gram)


def test_point_sets_that_share_a_window_get_their_own_scalar_columns():
    # S_i, kept per process by (points, window): two gl(2) torus models with
    # one window and other points read different columns, and Theta built
    # after the other model's is the Theta of a cold process
    points = [F(1, 2), 3, -2]
    cold = seeded_model("gl(2)", points, "torus", 5, 4)
    window = cold.window
    theta = cold.theta_columns(window)
    clear_memos()
    other = seeded_model("gl(2)", [1, 2, 3], "torus", 5, 4)
    assert other.window == window
    other.theta_columns(window)
    warm = seeded_model("gl(2)", points, "torus", 5, 4)
    assert warm.theta_columns(window) == theta
    assert rationalfn.scalar_columns.cache_info().currsize == 2
    assert rationalfn.scalar_columns(other.curve.points, window) != \
        rationalfn.scalar_columns(warm.curve.points, window)
    # a model of the first points reads the memo's columns, built nothing new
    again = seeded_model("gl(2)", points, "torus", 6, 4)
    again.theta_columns(window)
    assert rationalfn.scalar_columns.cache_info().misses == 2


def test_the_gram_matrix_is_built_once_and_each_model_keeps_its_own_copy():
    model = seeded_model("sp(4)", [1, 2, 3], "torus", 3, 4)
    gram = model._gram
    assert liealg.gram_matrix.cache_info().misses == 1
    other = seeded_model("sp(4)", [1, 2, 4], "trivial", 4, 4)
    assert other._gram == gram and other._gram is not gram
    assert liealg.gram_matrix.cache_info().misses == 1
    gid = model.algebra.group.group_id
    basis = [liealg.AlgebraElement(b, gid) for b in model.algebra.basis]
    assert gram == model.form.gram(basis)


def _weights(points) -> tuple[int, ...]:
    """q_i prod_(j != i) (q_j + |p_j|) per point x_i = p_i / q_i, from the points."""
    return tuple(x.denominator * math.prod(y.denominator + abs(y.numerator)
                                           for j, y in enumerate(points) if j != i)
                 for i, x in enumerate(points))


def _cones(model) -> list:
    """What the three cones of a model read off their shape: ker d1, each
    quotient, the basis classes and the matrices of the theory."""
    theory = DeformationTheory(model)
    out = []
    for kind in (TWISTED, FRAMED, TWISTED_DUAL):
        cone = theory.cone(kind)
        kernel, quotient = cone.quotient.kernel, cone.quotient
        out.append((kernel.free, kernel.den, kernel.tails, quotient.rank, quotient.kept,
                    quotient.class_den, cone.classes()))
    out.append((theory.symplectic_matrix(), theory.forgetful_adjoint_matrix(),
                theory.forgetful_matrix(), theory.poisson_matrix()))
    return out


def test_a_second_model_of_a_cached_shape_reads_what_a_cold_one_computes():
    # gl(2) on three points with torus framing: every chart block but the
    # twisted one has a cokernel, so ker d1 is read off the shape's chart
    # echelons with one more elimination of this model's Theta rows
    cold = _cones(seeded_model("gl(2)", [1, 2, 3], "torus", 8, 6))
    clear_memos()
    first = seeded_model("gl(2)", [1, 2, 3], "torus", 7, 6)
    _cones(first)
    assert deformation.model_shape.cache_info().currsize == 1
    second = seeded_model("gl(2)", [1, 2, 3], "torus", 8, 6)
    assert second.shape is first.shape
    assert _cones(second) == cold
    assert deformation.model_shape.cache_info().misses == 1
    clear_memos()
    assert deformation.model_shape.cache_info().currsize == 0


def test_models_of_one_shape_whose_ker_d1_differ_get_their_own_quotient_rows():
    # the zero Higgs field gives ker d1 other free columns than a generic one
    # where the chart block has a cokernel: each model's quotients are those
    # of a cold process, in either order
    algebra = algebra_model("gl(2)")
    zero = [algebra.zero()] * 3
    models = [lambda: seeded_model("gl(2)", [1, 2, 3], "torus", 7, 6),
              lambda: framed_higgs_model("gl(2)", [1, 2, 3], zero, "torus")]
    cold = []
    for build in models:
        clear_memos()
        cold.append(_cones(build()))
    clear_memos()
    for k in (0, 1, 0, 1):
        assert _cones(models[k]()) == cold[k]
    free = [DeformationTheory(build()).cone(FRAMED).quotient.kernel.free for build in models]
    assert free[0] != free[1]
    assert deformation.model_shape.cache_info().misses == 1


def test_points_gram_matrices_and_framings_get_their_own_shapes():
    base = seeded_model("sl(2)", [1, 2, 3], "torus", 5, 4)
    window = base.window
    shapes = [base.shape]
    # other points with the same window
    moved = seeded_model("sl(2)", [F(1, 2), 3, -2], "torus", 5, 4)
    assert moved.window == window
    shapes.append(moved.shape)
    # another Gram matrix: the faulted-Gram control, faulted before its shape
    faulted = seeded_model("sl(2)", [1, 2, 3], "torus", 5, 4)
    faulted._gram[0][1] += 1
    shapes.append(faulted.shape)
    assert faulted.pairing_form(window) != base.pairing_form(window)
    # another framing
    trivial = seeded_model("sl(2)", [1, 2, 3], "trivial", 5, 4)
    shapes.append(trivial.shape)
    assert trivial.complex_specs(FRAMED) != base.complex_specs(FRAMED)
    assert len({id(shape) for shape in shapes}) == len(shapes)
    assert deformation.model_shape.cache_info().misses == len(shapes)
    # and the same points, framing and Gram matrix share one
    assert seeded_model("sl(2)", [1, 2, 3], "torus", 6, 4).shape is base.shape


def test_gaudin_and_spectral_jobs_build_no_shape(tmp_path):
    for subcommand, config in WARM_UP[3:]:
        assert _report(tmp_path, subcommand, config)[0] == 0
    assert deformation.model_shape.cache_info().misses == 0
    assert _report(tmp_path, *WARM_UP[0])[0] == 0
    assert deformation.model_shape.cache_info().misses == 1


def _gaudin_memos():
    return liealg._point_weights, gaudin._certifier, gaudin.gaudin_system


def test_clear_memos_empties_the_gaudin_memos():
    model = algebra_model("sl(3)")
    system = gaudin.gaudin_system(model, (F(1), F(2), F(3)))
    residues = random_residue_tuple(model, random.Random(3), 3, 5)
    system.hitchin_point(residues)
    system.commutativity_check([residues])
    assert all(memo.cache_info().currsize == 1 for memo in _gaudin_memos())
    clear_memos()
    assert all(memo.cache_info().currsize == 0 for memo in _gaudin_memos())


def test_systems_on_other_points_groups_and_sizes_get_their_own_constants():
    # Each system's bounds read its own point weights and rho, and its
    # certificate its own model's generated kernel, whatever system ran
    # before it in the process: point sets with as many points, groups with
    # one matrix size, sizes one after another.  A memo keyed by the number
    # of points, the matrix size or nothing at all would hand a later system
    # the first one's values; the reports need not show it, since a wrong
    # bound can still certify, and off the algebra sp(4) and so(4) fail
    # where sl(4) passes.  gl(r) and sl(r), r <= 3, have no test left: every
    # N, in the algebra or not, passes the reference.
    cases = [("sl(3)", [1, 2, 3]), ("sl(3)", [F(1, 2), -3, F(7, 3)]), ("gl(3)", [1, 2, 3]),
             ("sl(4)", [1, 2, 3]), ("sp(4)", [2, -1, F(1, 3)]), ("so(4)", [1, 2, 3]),
             ("sl(2)", [1, 2, 3]), ("gl(2)", [5, F(-2, 7), 4])]
    kernels = set()
    for seed, (gid, points) in enumerate(cases):
        model = algebra_model(gid)
        system = GaudinSystem(model, points)
        sites = [el.integer_form for el in random_residue_tuple(model, random.Random(seed),
                                                                len(points), 6)]
        big, weights = math.lcm(*(d for d, _ in sites)), _weights(system.points)
        mu = sum(w * (big // d) * max(map(abs, a)) for w, (d, a) in zip(weights, sites))
        assert theta_majorants(system.points, sites)[0] == mu
        assert liealg._point_weights(tuple((x.numerator, x.denominator)
                                           for x in system.points)) == weights
        _, prows = model.trace_projection
        assert system._rho == max(sum(map(abs, row)) for row in prows)
        n = [random.Random(seed).randint(-99, 99) for _ in range(model.n ** 2)]
        certify = gaudin._certifier(model)
        assert (certify is None) is (gid in ("sl(2)", "gl(2)", "sl(3)", "gl(3)"))
        assert (certify is None or certify(n)) is certificate_verdict(model, n)
        assert certificate_verdict(model, list(sites[0][1]))
        if certify is not None:
            assert certify(list(sites[0][1]))
            kernels.add(certify)
    assert len(kernels) == 3
    assert liealg._point_weights.cache_info().misses == 4
    assert gaudin._certifier.cache_info().misses == 7


GAUDIN_JOB = {"group": "sp(4)", "points": ["1/2", "-3", "7/3"],
              "residues": {"type": "random", "seed": 29, "height": 5}, "random_points": 2}


def test_a_second_gaudin_job_on_one_point_set_builds_no_system(tmp_path, monkeypatch):
    # one system per (algebra model, points): a second job with other
    # residues on the same group and points builds none and prints the
    # bytes of a cold process; other points or another group build their own
    jobs = [GAUDIN_JOB, {**GAUDIN_JOB, "residues": {"type": "random", "seed": 30}},
            {**GAUDIN_JOB, "points": ["1", "2", "3"]}, {**GAUDIN_JOB, "group": "so(4)"}]
    cold = []
    for config in jobs:
        clear_memos()
        cold.append(_report(tmp_path, "gaudin", config))
    assert all(code == 0 for code, _ in cold)
    clear_memos()
    built = []
    init = GaudinSystem.__init__
    monkeypatch.setattr(GaudinSystem, "__init__",
                        lambda self, model, points: built.append(points) or init(self, model,
                                                                                 points))
    assert [_report(tmp_path, "gaudin", config) for config in jobs] == cold
    assert built == [(F(1, 2), F(-3), F(7, 3)), (F(1), F(2), F(3)), (F(1, 2), F(-3), F(7, 3))]
    assert gaudin.gaudin_system.cache_info().misses == 3
    systems = {id(gaudin.gaudin_system(algebra_model(gid), points))
               for gid, points in (("sp(4)", built[0]), ("sp(4)", built[1]), ("so(4)", built[0]))}
    assert len(systems) == 3 and gaudin.gaudin_system.cache_info().misses == 3
