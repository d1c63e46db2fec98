"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All checks are exact except the flow-conservation bound.
"""

import json
import random
import time
from fractions import Fraction as F

from framedhiggs.cli import main, run_defo
from framedhiggs.deformation import (FRAMED, TWISTED, TWISTED_DUAL,
                                     DeformationTheory, hyper_pair,
                                     verify_poisson_map)
from framedhiggs.dimensions import consistency_audit
from framedhiggs.exactlinalg import rank
from framedhiggs.gaudin import GaudinSystem
from framedhiggs.liealg import (AlgebraElement, AlgebraModel, bracket, torus_framing,
                                trace_form, trivial_framing)
from framedhiggs.sampling import random_residue_tuple, seeded_model
from framedhiggs.spectral import spectral_genus
from oracles import NegatedAdjointTheory, ad_matrices, check_invariance, mat_is_zero
from test_deformation import basis_reps, random_coboundary

GRID_GROUPS = ["sl(2)", "sl(3)", "gl(2)", "gl(3)", "sp(4)", "so(5)"]


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_dimension_identity_grid():
    t0 = time.time()
    cases = 0
    for gid in GRID_GROUPS:
        for g in range(1, 5):
            for n in range(1, 5):
                r = consistency_audit(gid, g, n)
                assert r.dim_moduli_higgs == r.base_dim + r.fiber_dim, (gid, g, n)
                assert r.relative_fiber_dim == r.base_dim, (gid, g, n)
                cases += 1
    elapsed = time.time() - t0
    report("criterion 1 (dimension identity grid)",
           cases == 96 and elapsed < 1.0,
           f"{cases} cases exact in {elapsed:.3f}s (< 1s)")


def test_criterion_2_framed_torsor_bookkeeping():
    worst = None
    observations = 0
    for gid in GRID_GROUPS:
        for g in range(1, 5):
            for n in range(1, 5):
                r = consistency_audit(gid, g, n)
                # exact identity from the torsor structure of the forgetful
                # map: the discrepancy equals dim Z(G) - dim Z(g) = 0
                if r.framed_torsor_discrepancy != 0:
                    worst = (gid, g, n, r.framed_torsor_discrepancy)
                if r.framed_torsor_discrepancy != r.stacky_correction_conjecture:
                    observations += 1
    detail = ("dim M_FH - (dim M_H + n dim G - dim Z(G)) = 0 exactly on all 96 "
              "cases (0 for semisimple groups as stated; the conjectured "
              f"stacky correction 2 dim Z(g) differs from the computed value "
              f"on {observations} reductive cases and is recorded as an "
              "observation, per the audit contract)")
    report("criterion 2 (framed-torsor bookkeeping)", worst is None, detail)


def test_criterion_3_spectral_genus_identity():
    t0 = time.time()
    cases = 0
    for r in range(2, 6):
        for g in range(0, 5):
            for n in range(1, 6):
                spectral_genus(r, g, n)  # raises on identity failure
                cases += 1
    elapsed = time.time() - t0
    report("criterion 3 (spectral genus identity)",
           cases == 100 and elapsed < 1.0,
           f"{cases} cases exact in {elapsed:.3f}s (< 1s)")


def test_criterion_4_poisson_commutativity():
    t0 = time.time()
    worst_overall = F(0)
    configs = 0
    for gid in ["sl(2)", "sl(3)", "gl(2)"]:
        model = AlgebraModel(gid)
        for n in (2, 3, 4):
            points = tuple(F(i + 1) for i in range(n))
            system = GaudinSystem(model, points)
            rng = random.Random(1000 + 10 * n + model.group.dim)
            tuples = [random_residue_tuple(model, rng, n, 10, zero_sum=False)
                      for _ in range(20)]
            worst, pair = system.commutativity_check(tuples)
            assert worst == 0, (gid, n, pair, worst)
            configs += 1
    elapsed = time.time() - t0
    report("criterion 4 (Poisson commutativity)",
           worst_overall == 0 and elapsed < 300,
           f"all pairwise brackets exactly 0 for {configs} (group, n) configs "
           f"x 20 seeded tuples in {elapsed:.1f}s (< 5 min)")


SYMPLECTIC_MODELS = [
    ("sl(2)", [1, 2], "trivial", 101), ("sl(2)", [1, 2], "torus", 102),
    ("sl(2)", [1, 2, 3], "trivial", 103), ("sl(2)", [1, 2, 3], "torus", 104),
    ("sl(2)", [1, 2], "trivial", 105), ("sl(2)", [1, 2, 3], "trivial", 106),
    ("sl(2)", [1, 2, 3], "torus", 107),
    ("sl(3)", [1, 2], "trivial", 108), ("sl(3)", [1, 2], "torus", 109),
    ("sl(3)", [1, 2], "trivial", 110), ("sl(3)", [1, 2, 3], "trivial", 111),
]


def test_criterion_5_symplectic_pairing():
    rng = random.Random(0)
    checked = 0
    full_rank_checked = 0
    for gid, pts, framing, seed in SYMPLECTIC_MODELS:
        model = seeded_model(gid, pts, framing, seed, 4)
        theory = DeformationTheory(model)
        for kind in (TWISTED, FRAMED, TWISTED_DUAL):
            assert theory.cone(kind).euler_identity, (gid, pts, framing, kind)
        _, phi = theory.symplectic_matrix()
        d = theory.cone(FRAMED)
        assert all(phi[i][j] == -phi[j][i]
                   for i in range(len(phi)) for j in range(len(phi)))
        cone = theory.cone(FRAMED)
        reps = basis_reps(cone)
        if reps:
            cob = random_coboundary(cone, rng)
            shifted = tuple(x + y for x, y in zip(reps[0], cob))
            for other in reps[:3]:
                assert hyper_pair(model, shifted, other) == \
                    hyper_pair(model, reps[0], other)
        if d.h0 == 0 and d.h2 == 0:
            assert rank(phi) == d.h1, (gid, pts, framing)
            full_rank_checked += 1
        checked += 1
    report("criterion 5 (symplectic pairing)", checked >= 10,
           f"{checked} seeded models: exact skew-symmetry, representative "
           f"independence, Euler identities; full rank verified on "
           f"{full_rank_checked} nondegenerate models")


def test_criterion_6_poisson_map_matrix_identity():
    ok_models = 0
    for gid, pts, seed in [("sl(2)", [1, 2, 3], 41), ("sl(2)", [1, 2, 3], 42),
                           ("sl(2)", [1, 2, 3], 43), ("sl(2)", [1, 2, 3, -1], 44),
                           ("sl(3)", [1, 2], 45)]:
        model = seeded_model(gid, pts, "trivial", seed, 4)
        theory = DeformationTheory(model)
        check = verify_poisson_map(theory)
        assert check.ok, (gid, pts, seed)
        assert check.residual == [] or mat_is_zero(check.residual)
        ok_models += 1
    control_model = seeded_model("sl(2)", [1, 2, 3, -1], "trivial", 44, 4)
    control_theory = DeformationTheory(control_model)
    assert rank(control_theory.poisson_matrix()[1]) > 0
    corrupted = verify_poisson_map(NegatedAdjointTheory(control_model))
    report("criterion 6 (forgetful map matrix identity)",
           ok_models >= 5 and not corrupted.ok,
           f"residual exactly zero on {ok_models} generic models; sign-flip "
           "negative control produces a nonzero residual")


ANCHOR_RANK_MODELS = [(gid, n, framing, seed)
                      for gid, counts in (("sl(2)", range(3, 7)), ("gl(2)", range(3, 6)),
                                          ("sl(3)", range(3, 5)), ("gl(3)", range(3, 5)))
                      for n in counts for framing in ("trivial", "torus") for seed in (1, 2, 3)]


def _anchor_ranks_matching_the_adjoint_orbits():
    """(models whose `hfb defo` report has an anchor rank, of those the ones
    where it is sum_i rank ad(A_i) - 2 dim [g, g]): the anchor's image is the
    tangent space of the symplectic leaf, the product of the adjoint orbits
    of the residues cut by the moment map of the diagonal action and
    divided by it."""
    emitted = matched = 0
    for gid, n, framing, seed in ANCHOR_RANK_MODELS:
        pts = [str(i) for i in range(1, n + 1)]
        results = run_defo({"group": gid, "points": pts, "framing": framing,
                            "residues": {"type": "random", "seed": seed, "height": 10}},
                           None)["results"]
        if "anchor_rank" not in results:
            continue
        model = seeded_model(gid, pts, framing, seed, 10)
        basis = [AlgebraElement(b, gid) for b in model.algebra.basis]
        derived = rank([model.algebra.coords(bracket(a, b)) for a in basis for b in basis])
        emitted += 1
        matched += results["anchor_rank"] == sum(map(rank, ad_matrices(model))) - 2 * derived
    return emitted, matched


def test_the_anchor_rank_is_the_dimension_of_the_symplectic_leaf(monkeypatch):
    t0 = time.time()
    emitted, matched = _anchor_ranks_matching_the_adjoint_orbits()
    elapsed = time.time() - t0
    # negative control: the anchor with its last column zeroed.  (Its last
    # row is zero, or in the span of the others, on every model of the grid.)
    honest = DeformationTheory.poisson_matrix

    def last_column_zeroed(theory):
        den, rows = honest(theory)
        return den, tuple(row[:-1] + (0,) for row in rows)
    monkeypatch.setattr(DeformationTheory, "poisson_matrix", last_column_zeroed)
    control_emitted, control_matched = _anchor_ranks_matching_the_adjoint_orbits()
    report("anchor rank (dimension of the symplectic leaf)",
           emitted == matched >= 40 and control_emitted == emitted
           and control_matched < emitted,
           f"anchor_rank == sum rank ad(A_i) - 2 dim [g, g] on {matched} of {emitted} "
           f"reported models in {elapsed:.2f}s; with P's last column zeroed on "
           f"{control_matched} of {control_emitted}")


def test_criterion_7_lie_theoretic_correctness():
    rng = random.Random(7)
    groups = ["sl(2)", "sl(3)", "gl(2)", "gl(3)", "sp(4)", "so(5)", "so(4)"]
    residual_count = 0
    containment_count = 0
    for gid in groups:
        model = AlgebraModel(gid)
        form = trace_form(gid)
        basis = [AlgebraElement(b, model.group.group_id) for b in model.basis]
        for _ in range(8):
            a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
            assert check_invariance(form, a, b, c) == 0
            residual_count += 1
        for framing in (trivial_framing(model, form), torus_framing(model, form)):
            from framedhiggs.exactlinalg import Echelon
            ech = Echelon(model.group.dim)
            for p in framing.perp:
                ech.insert(model.coords(p))
            for h in framing.subalgebra:
                for p in framing.perp:
                    assert ech.contains(model.coords(bracket(h, p)))
                    containment_count += 1
    report("criterion 7 (Lie-theoretic correctness)", True,
           f"invariance residual zero on {residual_count} sampled triples; "
           f"bracket containment exact on {containment_count} spanning pairs "
           f"across {len(groups)} groups")


def test_criterion_8_flow_conservation():
    t0 = time.time()
    model = AlgebraModel("sl(2)")
    system = GaudinSystem(model, (F(1), F(2), F(3)))
    flows = [(random_residue_tuple(model, random.Random(seed), 3, 4),
              system.coefficient_functions(0)[seed % 3, 1])
             for seed in (201, 202, 203, 204)]
    worst = max(r["relative_drift"] for residues, ham in flows
                for r in system.integrate_flow(residues, ham, 1.0, 10 ** 4)[1])
    elapsed = time.time() - t0
    report("criterion 8 (flow conservation)",
           worst < 1e-8 and elapsed < 60,
           f"4 seeded trajectories, worst relative drift {worst:.2e} "
           f"(< 1e-8) in {elapsed:.1f}s (< 1 min)")


def test_criterion_9_large_model_deformation_job(tmp_path, capsys):
    config = tmp_path / "sl5.json"
    config.write_text(json.dumps({
        "group": "sl(5)", "points": ["1", "2", "3", "4"], "framing": "trivial",
        "residues": {"type": "random", "seed": 7, "height": 10}}))
    t0 = time.time()
    code = main(["defo", "--config", str(config)])
    elapsed = time.time() - t0
    result = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        report("criterion 9 (large-model deformation job)",
               code == 0 and result["all_passed"] and elapsed < 3.5,
               f"hfb defo on sl(5) at 4 points (seed 7) exits {code}, framed h1 = "
               f"{result['results']['dims']['framed']['h1']}, in {elapsed:.2f}s (< 3.5s)")


def test_rank3_spectral_jobs_that_used_to_stall(tmp_path, capsys):
    # Each job once ran sympy's own complex isolation for 40 s to over 200 s;
    # mpmath's Newton starts now certify their disks.
    jobs = [("gl(3)", 5, 3, 10), ("gl(3)", 4, 1, 10), ("sl(3)", 4, 178727, 26)]
    config = tmp_path / "rank3.json"
    for group, n, seed, height in jobs:
        config.write_text(json.dumps({
            "group": group, "points": [str(i) for i in range(1, n + 1)],
            "framing": "trivial",
            "residues": {"type": "random", "seed": seed, "height": height}}))
        t0 = time.time()
        code = main(["spectral", "--config", str(config)])
        elapsed = time.time() - t0
        result = json.loads(capsys.readouterr().out)
        with capsys.disabled():
            report("rank-3 spectral job (never a hang)",
                   code == 0 and result["all_passed"] and elapsed < 3.0,
                   f"hfb spectral on {group} at points 1-{n} (seed {seed}, height "
                   f"{height}) exits {code} in {elapsed:.2f}s (< 3s)")
