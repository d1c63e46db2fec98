import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from framedhiggs import cli, liealg, rationalfn, spectral
from framedhiggs.cli import main
from oracles import json_report_text


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_dims_job(tmp_path, capsys):
    cfg = write_config(tmp_path, "dims.json", {"group": "sl(2)", "genus": 2, "n": 1})
    assert main(["dims", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    assert report["results"]["dim_moduli_higgs"] == 9
    assert report["results"]["base_dim"] == 5
    assert report["results"]["fiber_dim"] == 4
    assert report["tool"]["name"] == "hfb"
    for check in report["checks"]:
        assert check["provenance"]


USAGE = """usage: hfb [-h] --config CONFIG [--out OUT] [--format {json,csv}]
           [--seed SEED]
           {audit,defo,dims,gaudin,spectral}
"""


@pytest.mark.parametrize("argv, message", [
    (["nonsense", "--config", "c.json"], "argument subcommand: invalid choice: 'nonsense' "
     "(choose from 'audit', 'defo', 'dims', 'gaudin', 'spectral')"),
    (["dims"], "the following arguments are required: --config"),
    (["dims", "--config", "c.json", "--seed", "a"], "argument --seed: invalid int value: 'a'")])
def test_usage_errors_exit_2_from_the_parser_built_at_import(capsys, monkeypatch, argv, message):
    import argparse

    def refuse(*args, **kwargs):
        raise AssertionError("main built an argument parser")
    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"{USAGE}hfb: error: {message}\n"


def test_gaudin_job_bracket_table_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "g.json", {
        "group": "sl(2)", "points": ["1", "2", "3"],
        "residues": {"type": "random", "seed": 7, "height": 5},
        "random_points": 2})
    assert main(["gaudin", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    bracket_check = [c for c in report["checks"] if "brackets" in c["name"]][0]
    assert bracket_check["value"] == "0"


def test_gaudin_job_reports_a_nonzero_bracket(tmp_path, monkeypatch):
    # With the certificate forced to fail and the gradient program of
    # coefficient (0, 0, 1) reading its own site one Laurent order off, that
    # coefficient is no invariant's, and the bracket gate must fail end to
    # end, naming it.
    def one_site_one_order_off(self, i, l, top):
        weights = ORIGINAL_SITE_WEIGHTS(self, i, l, top)
        return [(o - 1, c) for o, c in weights] if (i, l, top) == (0, 0, 1) else weights

    monkeypatch.setattr(cli.GaudinSystem, "_certified", lambda self, m, ys: False)
    monkeypatch.setattr(cli.GaudinSystem, "_site_weights", one_site_one_order_off)
    cfg = write_config(tmp_path, "g.json", GAUDIN_SL2)
    out = tmp_path / "report.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["all_passed"]
    check = [c for c in report["checks"]
             if c["name"] == "pairwise brackets of invariant coefficients vanish"][0]
    assert not check["passed"] and check["value"] != "0"
    assert "(0, 0, 1)" in report["results"]["bracket_worst_pair"]


def test_a_gaudin_job_runs_the_char_polys_once_per_residue_tuple(tmp_path, monkeypatch):
    # the model's residues feed the Hitchin point from one `theta_char_polys`
    # run at one integer point, their value point; each clean residue tuple,
    # the model's first, is certified by one run at its certificate point
    # alone, which lies above the value point
    from framedhiggs import gaudin
    calls = []
    kernel = gaudin.theta_char_polys
    monkeypatch.setattr(gaudin, "theta_char_polys",
                        lambda *args: calls.append(args) or kernel(*args))
    for random_points in (0, 3):
        calls.clear()
        cfg = write_config(tmp_path, "g.json", {**GAUDIN_SL2, "random_points": random_points})
        assert main(["gaudin", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 2 + random_points
        assert all(type(t) is int for _, _, t in calls)
        # the Hitchin point and the first tuple read the model's residues,
        # at two points
        assert calls[0][:2] == calls[1][:2] and calls[0][2] < calls[1][2]


def test_a_failing_gaudin_job_builds_each_gradient_program_once(tmp_path, monkeypatch):
    # With the certificate forced to fail, each of the 3 tuples runs every
    # coefficient's gradient program exactly, and each program is generated
    # and compiled once per system.
    built = []
    program = cli.GaudinSystem._gradient_program
    monkeypatch.setattr(cli.GaudinSystem, "_gradient_program",
                        lambda self, k, i, j: built.append((k, i, j)) or program(self, k, i, j))
    monkeypatch.setattr(cli.GaudinSystem, "_certified", lambda self, m, ys: False)
    brackets = cli.GaudinSystem._brackets
    tuples = []
    monkeypatch.setattr(cli.GaudinSystem, "_brackets",
                        lambda self, r: tuples.append(r) or brackets(self, r))
    cfg = write_config(tmp_path, "g.json", {**GAUDIN_SL2, "random_points": 2})
    assert main(["gaudin", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert len(tuples) == 3
    assert built == [(0, i, j) for i in range(3) for j in (1, 2)]


@pytest.mark.parametrize("group", ["sl(2)", "sl(3)", "gl(2)", "sp(4)", "so(4)", "so(5)"])
def test_a_clean_gaudin_job_builds_no_bracket_table(tmp_path, monkeypatch, group):
    # every clean residue tuple is certified at its one certificate point, and
    # none enters the exact brackets of the fallback
    def refuse(self, residues):
        raise AssertionError("a clean job computed the exact brackets of a tuple")
    monkeypatch.setattr(cli.GaudinSystem, "_brackets", refuse)
    cfg = write_config(tmp_path, "g.json", {"group": group, "points": ["1/2", "-3", "7/3"],
                                            "residues": {"type": "random", "seed": 9},
                                            "random_points": 5})
    out = tmp_path / "r.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"]


@pytest.mark.parametrize("group", ["sl(2)", "sl(3)", "gl(2)", "sp(4)", "so(4)", "so(5)"])
def test_a_clean_gaudin_job_builds_no_fraction_matrix(tmp_path, monkeypatch, group):
    # residues are drawn, validated, mapped and certified in integers, so a
    # clean job builds no residue's Fraction matrix.  The control: with the
    # certificate forced to fail, the exact brackets of each of the 6 tuples
    # read the matrices of its 3 residues.
    from framedhiggs import liealg
    built = []
    build = liealg._fraction_matrix
    monkeypatch.setattr(liealg, "_fraction_matrix",
                        lambda den, nums: built.append(nums) or build(den, nums))
    cfg = write_config(tmp_path, "g.json", {"group": group, "points": ["1/2", "-3", "7/3"],
                                            "residues": {"type": "random", "seed": 9},
                                            "random_points": 5})
    out = tmp_path / "r.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"]
    assert built == []
    monkeypatch.setattr(cli.GaudinSystem, "_certified", lambda self, m, ys: False)
    assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 0
    assert len(built) == 3 * 6


def test_a_clean_gaudin_job_inverts_no_matrix(tmp_path, monkeypatch):
    from framedhiggs import exactlinalg
    calls = []
    inverse = exactlinalg.inverse
    monkeypatch.setattr(exactlinalg, "inverse", lambda a: calls.append(a) or inverse(a))
    for group, points in (("sl(3)", ["1", "2", "3"]), ("so(4)", ["1", "2"])):
        cfg = write_config(tmp_path, "g.json", {"group": group, "points": points,
                                                "residues": {"type": "random", "seed": 3},
                                                "random_points": 3})
        out = tmp_path / "r.json"
        assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_passed"]
    assert calls == []


def test_defo_job_rejects_unbalanced_residues(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "group": "sl(2)", "points": ["1", "2"],
        "residues": {"type": "explicit",
                     "matrices": [[["1", "0"], ["0", "-1"]],
                                  [["1", "0"], ["0", "-1"]]]}})
    assert main(["defo", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "sum to zero" in err and "infinity" in err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"group": "sl(2)", }')
    assert main(["dims", "--config", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_field_named(tmp_path, capsys):
    cfg = write_config(tmp_path, "m.json", {"group": "sl(2)", "genus": 2})
    assert main(["dims", "--config", cfg]) == 2
    assert "'n'" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "g.json", {
        "group": "sl(2)", "points": ["1", "2", "3"],
        "residues": {"type": "random", "seed": 3, "height": 4},
        "random_points": 1})
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["gaudin", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_model(tmp_path):
    cfg = write_config(tmp_path, "g.json", {
        "group": "sl(2)", "points": ["1", "2", "3"],
        "residues": {"type": "random", "seed": 3, "height": 4},
        "random_points": 1})
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["gaudin", "--config", cfg, "--seed", "4", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["results"]["hitchin_point"] != b["results"]["hitchin_point"]


def test_audit_grid_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, "a.json",
                       {"groups": ["sl(2)", "gl(2)"], "genus_range": [1, 2],
                        "n_range": [1, 2]})
    assert main(["audit", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("group,genus,n,")
    assert len(lines) == 1 + 8


def test_defo_job_full(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {
        "group": "sl(2)", "points": ["1", "2"],
        "framing": "torus",
        "residues": {"type": "random", "seed": 5, "height": 4}})
    code = main(["defo", "--config", cfg])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["all_passed"]
    dims = report["results"]["dims"]
    assert dims["framed"]["h1"] == 2


def test_spectral_job(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "group": "sl(2)", "points": ["1", "2", "3"],
        "residues": {"type": "random", "seed": 9, "height": 5},
        "genus_identity_grid": {"r": [2, 3], "g": [0, 2], "n": [1, 3]}})
    assert main(["spectral", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    assert len(report["results"]["genus_grid"]) == 2 * 3 * 3
    assert "spectral" in report["results"]


GAUDIN_SL2 = {"group": "sl(2)", "points": ["1", "2", "3"],
              "residues": {"type": "random", "seed": 7, "height": 5}, "random_points": 1}
DEFO_SL2 = {"group": "sl(2)", "points": ["1", "2"],
            "residues": {"type": "random", "seed": 5, "height": 4}}
EXPLICIT_SL2 = {"group": "sl(2)", "points": ["1", "2"],
                "residues": {"type": "explicit",
                             "matrices": [[["0", "1"], ["0", "0"]], [["0", "-1"], ["0", "0"]]]}}


@pytest.mark.parametrize("subcommand, config, field", [
    ("dims", {"group": "sl(2)", "genus": 0, "n": 2}, "config.genus"),
    ("dims", {"group": "sl(2)", "genus": "x", "n": 2}, "config.genus"),
    ("dims", {"group": "sl(2)", "genus": 2, "n": 0}, "config.n"),
    ("dims", {"group": "sl(2)", "genus": 2, "n": 2, "framing_dims": [1]},
     "config.framing_dims"),
    ("gaudin", {**GAUDIN_SL2, "residues": {"type": "random", "seed": 7, "height": 0}},
     "config.residues.height"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"steps": 0}}, "config.flow.steps"),
    ("gaudin", {**GAUDIN_SL2, "random_points": -1}, "config.random_points"),
    ("spectral", {"genus_identity_grid": {"r": [1, 3]}}, "config.genus_identity_grid.r"),
    ("audit", {"groups": ["sl(2)"], "genus_range": [0, 1]}, "config.genus_range"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"t_end": "x", "steps": 10}}, "config.flow.t_end"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"t_end": "0.5", "steps": 10}}, "config.flow.t_end"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"drift_tolerance": True, "steps": 10}},
     "config.flow.drift_tolerance"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"drift_tolerance": -1, "steps": 10}},
     "config.flow.drift_tolerance"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"drift_tolerance": 0, "steps": 10}},
     "config.flow.drift_tolerance"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"t_end": 10 ** 400, "steps": 10}}, "config.flow.t_end"),
    ("audit", {"groups": ["sl(2)", "xx(2)"]}, "config.groups[1]"),
    ("audit", {"groups": "sl(2)"}, "config.groups"),
    ("audit", {"groups": []}, "config.groups"),
    ("dims", {"group": 5, "genus": 2, "n": 2}, "config.group"),
    ("audit", {"groups": ["sl(2)"], "n_range": [3, 1]}, "config.n_range"),
    ("dims", {"group": "sl(2)", "genus": 2.5, "n": 2}, "config.genus"),
    ("gaudin", {**GAUDIN_SL2, "random_points": True}, "config.random_points"),
    ("gaudin", {**GAUDIN_SL2, "random_points": 2.5}, "config.random_points"),
    ("gaudin", {**GAUDIN_SL2, "residues": {"type": "random", "seed": 7, "height": 1.5}},
     "config.residues.height"),
    ("defo", {**DEFO_SL2, "residues": {"type": "random", "seed": 5, "height": "4"}},
     "config.residues.height"),
    ("gaudin", {**GAUDIN_SL2, "flow": {"steps": 10.9}}, "config.flow.steps"),
    ("gaudin", {**GAUDIN_SL2, "flow": 5}, "config.flow"),
    ("spectral", {"group": "sl(2)", "points": ["1", "2", "3"],
                  "residues": {"type": "random", "seed": 9, "height": 5}, "genus": 1.5},
     "config.genus"),
    ("defo", {**DEFO_SL2, "framing": "weird"}, "config.framing"),
    ("spectral", {**DEFO_SL2, "framing": 5}, "config.framing"),
    ("defo", {**DEFO_SL2, "framing": [[], []]}, "config.framing"),
    ("defo", {**EXPLICIT_SL2, "framing": [[], [5]]}, "config.framing[1]"),
    ("defo", {**EXPLICIT_SL2, "framing": [[], [[["1", "0"], ["0", "1"]]]]},
     "config.framing[1]"),
    ("defo", {**EXPLICIT_SL2, "framing": [[[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
                                          []]},
     "config.framing[0]"),
    ("defo", {**EXPLICIT_SL2, "framing": [[], [[["0", "1"], ["0", "0"]],
                                               [["0", "2"], ["0", "0"]]]]},
     "config.framing[1]"),
    ("defo", {**EXPLICIT_SL2, "framing": [[], [[["1", "0"], ["0", "-1"]], [["0", "1"], ["0", "0"]],
                                               [["0", "0"], ["1", "0"]]]]},
     "config.framing[1]"),
    ("defo", {**DEFO_SL2, "group": "g2"}, "config.group"),
    ("gaudin", {**GAUDIN_SL2, "group": "g2"}, "config.group"),
    ("spectral", {**DEFO_SL2, "group": "g2"}, "config.group"),
    ("spectral", {**DEFO_SL2, "group": "sl(4)"}, "config.group"),
    ("gaudin", {**GAUDIN_SL2, "residues": {"type": "explicit", "matrices": 5}},
     "config.residues.matrices"),
    ("defo", {**EXPLICIT_SL2, "residues": {"type": "explicit", "matrices": [7, 7]}},
     "config.residues.matrices[0]"),
    ("gaudin", {**GAUDIN_SL2, "residues": {"type": "random", "seed": [1]}},
     "config.residues.seed"),
    ("gaudin", {**GAUDIN_SL2, "residues": {"type": "random", "seed": True}},
     "config.residues.seed"),
    ("defo", {**DEFO_SL2, "verify_poisson_map": "no"}, "config.verify_poisson_map"),
], ids=["genus-0", "genus-x", "n-0", "framing-length", "height-0", "steps-0",
        "random-points-negative", "grid-r-1", "audit-genus-0", "flow-t-end-x",
        "flow-t-end-string", "flow-drift-tolerance-bool", "flow-drift-tolerance-negative",
        "flow-drift-tolerance-zero", "flow-t-end-beyond-floats",
        "audit-unknown-group", "audit-groups-string", "audit-groups-empty",
        "group-not-a-string", "audit-empty-n-range", "genus-fraction", "random-points-bool",
        "random-points-fraction", "height-fraction", "height-string", "steps-fraction",
        "flow-not-an-object",
        "spectral-genus-fraction", "framing-unknown", "framing-number",
        "framing-list-with-random-residues", "framing-basis-not-a-matrix",
        "framing-basis-not-in-algebra", "framing-basis-not-closed",
        "framing-basis-dependent", "framing-basis-full", "defo-group-g2", "gaudin-group-g2",
        "spectral-group-g2", "spectral-group-sl4", "matrices-number",
        "matrices-entry-number", "seed-list", "seed-bool", "verify-poisson-map-string"])
def test_invalid_input_is_exit_2_with_the_field_named(tmp_path, capsys, subcommand,
                                                      config, field):
    cfg = write_config(tmp_path, "bad.json", config)
    assert main([subcommand, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


@pytest.mark.parametrize("case", ["missing-config", "config-not-utf8", "config-integer-too-long",
                                  "out-unwritable"])
def test_unusable_files_are_exit_2_with_the_path_named(tmp_path, capsys, case):
    cfg = write_config(tmp_path, "dims.json", {"group": "sl(2)", "genus": 2, "n": 1})
    argv = ["dims", "--config", cfg]
    if case == "missing-config":
        path = argv[2] = str(tmp_path / "absent.json")
    elif case == "config-not-utf8":
        path = cfg
        Path(cfg).write_bytes(b'{"group": "sl(2)\xff", "genus": 2, "n": 1}')
    elif case == "config-integer-too-long":
        path = cfg
        Path(cfg).write_text('{"group": "sl(2)", "genus": ' + "9" * 5000 + ', "n": 1}')
    else:
        path = str(tmp_path / "no-such-dir" / "out.json")
        argv += ["--out", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_out_is_checked_before_the_job(tmp_path, capsys, monkeypatch):
    def refuse(cfg, seed):
        raise AssertionError("the job ran before --out was checked")
    monkeypatch.setattr(cli, "RUNNERS", {name: refuse for name in cli.RUNNERS})
    cfg = write_config(tmp_path, "defo.json", DEFO_SL2)
    path = str(tmp_path / "no-such-dir" / "out.json")
    assert main(["defo", "--config", cfg, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("subcommand, config", [
    ("defo", DEFO_SL2), ("dims", {"group": "sl(2)", "genus": 2, "n": 1}),
    ("gaudin", GAUDIN_SL2), ("spectral", {**DEFO_SL2, "framing": "trivial"})])
def test_csv_is_refused_before_the_job(tmp_path, capsys, monkeypatch, subcommand, config):
    def refuse(cfg, seed):
        raise AssertionError("the job ran before --format csv was checked")
    monkeypatch.setattr(cli, "RUNNERS", {name: refuse for name in cli.RUNNERS})
    cfg = write_config(tmp_path, "job.json", config)
    out = tmp_path / "out.csv"
    assert main([subcommand, "--config", cfg, "--format", "csv", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: csv format is only available for grid jobs "
                                       "(audit, spectral genus grids)\n")
    assert not out.exists()


def test_csv_jobs_reach_the_runner(tmp_path, capsys, monkeypatch):
    # audit, and spectral with a genus grid, pass the csv check; the grid rows
    # are the csv
    ran = []

    def grid(cfg, seed):
        ran.append(cfg)
        key = "genus_grid" if "genus_identity_grid" in cfg else "grid"
        return {"checks": [], "results": {key: [{"a": 1, "b": 2}]}}
    monkeypatch.setattr(cli, "RUNNERS", {name: grid for name in cli.RUNNERS})
    for subcommand, config in (("audit", {}), ("spectral", {"genus_identity_grid": {}})):
        cfg = write_config(tmp_path, "job.json", config)
        assert main([subcommand, "--config", cfg, "--format", "csv"]) == 0
        assert capsys.readouterr().out == "a,b\n1,2\n"
    assert len(ran) == 2


def test_a_job_that_exits_2_writes_no_report(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", {**DEFO_SL2, "verify_poisson_map": "no"})
    dims = write_config(tmp_path, "dims.json", {"group": "sl(2)", "genus": 2, "n": 1})
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for argv in (["defo", "--config", bad], ["dims", "--config", dims, "--format", "csv"]):
        for out in (new, old):
            assert main(argv + ["--out", str(out)]) == 2
    assert not new.exists() and old.read_text() == "kept"


def test_a_job_that_raises_leaves_no_new_report_and_an_old_one_as_it_was(tmp_path,
                                                                         monkeypatch):
    def crash(cfg, seed):
        raise RuntimeError("the job failed")
    monkeypatch.setattr(cli, "RUNNERS", {name: crash for name in cli.RUNNERS})
    cfg = write_config(tmp_path, "defo.json", DEFO_SL2)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for out in (new, old):
        with pytest.raises(RuntimeError, match="the job failed"):
            main(["defo", "--config", cfg, "--out", str(out)])
    assert not new.exists() and old.read_text() == "kept"


@pytest.mark.parametrize("subcommand, config, fmt", [
    ("defo", DEFO_SL2, "json"), ("gaudin", GAUDIN_SL2, "json"),
    ("audit", {"groups": ["sl(2)"], "genus_range": [1, 2], "n_range": [1, 2]}, "csv")])
def test_a_report_file_holds_exactly_the_stdout_bytes(tmp_path, capsys, subcommand,
                                                       config, fmt):
    # the report is written through the descriptor opened before the job and
    # cut to its length: a longer file left there ends with the new bytes
    # alone, a shorter one grows to them, and either matches stdout's output
    cfg = write_config(tmp_path, "job.json", config)
    argv = [subcommand, "--config", cfg, "--format", fmt]
    assert main(argv) == 0
    text = capsys.readouterr().out.encode()
    out = tmp_path / "out.txt"
    for old in (b"x" * (2 * len(text) + 7), b"{}", None):
        if old is None:
            out.unlink()
        else:
            out.write_bytes(old)
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == text
    assert capsys.readouterr().out == ""


def test_a_report_to_a_device_or_a_pipe_is_written_whole(tmp_path):
    # only a regular file is cut to the report's length; a device or the
    # write end of a pipe takes the bytes as they are
    cfg = write_config(tmp_path, "dims.json", {"group": "sl(2)", "genus": 2, "n": 1})
    assert main(["dims", "--config", cfg, "--out", os.devnull]) == 0
    assert main(["dims", "--config", cfg, "--out", str(tmp_path / "file.json")]) == 0
    read, write = os.pipe()
    try:
        assert main(["dims", "--config", cfg, "--out", f"/dev/fd/{write}"]) == 0
        os.close(write)
        write = None
        with os.fdopen(read, "rb") as fh:
            read = None
            assert fh.read() == (tmp_path / "file.json").read_bytes()
    finally:
        for fd in (read, write):
            if fd is not None:
                os.close(fd)


def test_a_random_residue_defo_job_builds_no_residue_matrix(tmp_path, monkeypatch):
    # sampling, validation, ad(A_i) and the cones read each residue's integer
    # form alone, so no Fraction matrix of a residue is made
    made = []
    seeded = cli.seeded_model
    monkeypatch.setattr(cli, "seeded_model",
                        lambda *args: made.append(seeded(*args)) or made[-1])
    for framing in ("trivial", "torus"):
        for group in ("sl(2)", "gl(2)", "sl(3)"):
            cfg = write_config(tmp_path, "job.json",
                               {**DEFO_SL2_3PT, "group": group, "framing": framing})
            assert main(["defo", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert len(made) == 6
    assert all(el._matrix is None for model in made for el in model.residues)


def test_a_random_residue_spectral_job_builds_no_residue_matrix(tmp_path, monkeypatch):
    # the Faddeev-LeVerrier digits and the marked-point cross-check read each
    # residue's integer form alone: no Fraction matrix of a residue is made
    # and no Fraction characteristic polynomial is run
    def refuse(*args):
        raise AssertionError("a spectral job ran char_poly_elementary")
    monkeypatch.setattr(liealg, "char_poly_elementary", refuse)
    monkeypatch.setattr(spectral, "char_poly_elementary", refuse, raising=False)
    made = []
    seeded = cli.seeded_model
    monkeypatch.setattr(cli, "seeded_model",
                        lambda *args: made.append(seeded(*args)) or made[-1])
    for group in ("sl(2)", "gl(2)", "sl(3)", "gl(3)"):
        cfg = write_config(tmp_path, "job.json",
                           {"group": group, "points": ["1", "2", "3", "4"],
                            "residues": {"type": "random", "seed": 5}})
        assert main(["spectral", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert len(made) == 4
    assert all(el._matrix is None for model in made for el in model.residues)


SPECTRAL_SL2 = {"group": "sl(2)", "points": ["1", "2", "3"],
                "residues": {"type": "random", "seed": 9, "height": 5}}


def _on(config, group=None):
    """config with another residue seed, if it has one, and on another group
    if given: the same shape as a new job."""
    out = {**config, "group": group or config["group"]}
    if out["residues"]["type"] == "random":
        out["residues"] = {**out["residues"], "seed": out["residues"]["seed"] + 1}
    return out


@pytest.mark.parametrize("subcommand, config, built", [
    ("defo", {"group": "gl(2)", "points": ["1", "2", "3", "4"], "framing": "torus",
              "residues": {"type": "random", "seed": 3, "height": 5}}, (1, 1)),
    ("gaudin", GAUDIN_SL2, (1, 1)),
    ("spectral", SPECTRAL_SL2, (1, 1)),
    ("defo", {**EXPLICIT_SL2, "framing": [[], [[["1", "0"], ["0", "-1"]]]]}, (1, 2)),
], ids=["defo-random-torus", "gaudin-random", "spectral-random", "defo-explicit-bases"])
def test_a_job_builds_one_algebra_model_and_each_framing_once(tmp_path, monkeypatch,
                                                              subcommand, config, built):
    # the model of a group and each framing of it are built once per process:
    # a cold job builds one model and one framing of each kind, a second job
    # with the same group and framing builds none, a job on another group
    # builds its own
    from framedhiggs.liealg import AlgebraModel, FramingSpec
    counts = {AlgebraModel: 0, FramingSpec: 0}
    for cls, name in ((AlgebraModel, "__init__"), (FramingSpec, "__post_init__")):
        def counted(self, *args, _cls=cls, _original=getattr(cls, name), **kwargs):
            counts[_cls] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    def built_by(job_config):
        counts.update(dict.fromkeys(counts, 0))
        cfg = write_config(tmp_path, "job.json", job_config)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out.json")]) == 0
        return counts[AlgebraModel], counts[FramingSpec]
    other = "sl(2)" if config["group"] == "gl(2)" else "gl(2)"
    assert built_by(config) == built
    assert built_by(_on(config)) == (0, 0)
    assert built_by(_on(config, other)) == (1, built[1])


@pytest.mark.parametrize("subcommand, config, built", [
    ("gaudin", GAUDIN_SL2, 0),
    ("defo", DEFO_SL2, 2),
], ids=["gaudin", "defo"])
def test_only_defo_builds_the_ad_matrices(tmp_path, monkeypatch, subcommand, config, built):
    # ad(A_i) is built in integers, once per residue, by the one builder
    from framedhiggs.liealg import AlgebraModel
    calls = []
    original = AlgebraModel.ad_columns

    def counted(self, el):
        calls.append(el)
        return original(self, el)
    monkeypatch.setattr(AlgebraModel, "ad_columns", counted)
    cfg = write_config(tmp_path, "job.json", config)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == built


def test_genus_grid_mismatch_fails_the_check_with_a_report(tmp_path, capsys, monkeypatch):
    fiber = cli.hitchin_fiber_dim
    monkeypatch.setattr(cli, "hitchin_fiber_dim", lambda *a, **kw: fiber(*a, **kw) + 1)
    cfg = write_config(tmp_path, "grid.json",
                       {"genus_identity_grid": {"r": [2, 3], "g": [0, 1], "n": [1, 2]}})
    out = tmp_path / "report.json"
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    check = report["checks"][0]
    assert check["name"] == "spectral genus matches fiber dimension"
    assert not check["passed"] and not report["all_passed"]
    assert (check["value"], check["expected"]) == ("0 cases", "8 cases")
    assert "spectral genus matches fiber dimension" in capsys.readouterr().err


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_non_finite_flow_drift_fails_the_check_with_a_parseable_report(tmp_path):
    # A step of 1e300 overflows: the drift is NaN, written as a string, and
    # stderr has no warning.
    cfg = write_config(tmp_path, "flow.json",
                       {**GAUDIN_SL2, "flow": {"steps": 1, "t_end": 1e300}})
    out = tmp_path / "report.json"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "framedhiggs.cli", "gaudin",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    report = json.loads(out.read_text(), parse_constant=_refuse_constant)
    check = [c for c in report["checks"] if c["name"] == "conserved quantities along the flow"][0]
    assert not check["passed"] and not report["all_passed"]
    assert check["value"] == report["results"]["flow_worst_drift"] == "nan"


def test_a_residue_beyond_the_float_range_fails_the_flow_check_with_a_report(tmp_path, capsys):
    # The flow starts at +-inf, so its state and drift are NaN; the exact start
    # coefficients are beyond the float range too, and round to +-inf.
    cfg = write_config(tmp_path, "big.json", {
        "group": "sl(2)", "points": ["1", "2"],
        "residues": {"type": "explicit", "matrices": [[["1e400", "0"], ["0", "-1e400"]],
                                                      [["-1e400", "0"], ["0", "1e400"]]]},
        "flow": {"steps": 10}})
    out = tmp_path / "report.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text(), parse_constant=_refuse_constant)
    check = [c for c in report["checks"] if c["name"] == "conserved quantities along the flow"][0]
    assert not check["passed"] and not report["all_passed"]
    assert check["value"] == report["results"]["flow_worst_drift"] == "nan"


SO5_FLOW = {"group": "so(5)", "points": ["2", "-1", "1/3"],
            "residues": {"type": "random", "seed": 280294, "height": 10}, "random_points": 3,
            "flow": {"degree_index": 0, "site": 0, "order": 1, "steps": 200}}


def test_an_so5_flow_builds_its_hamiltonian_alone_in_time(tmp_path):
    # Built as every coefficient polynomial of every invariant, this job ran
    # for over 11 minutes; the bound turns such a hang into a failure.
    cfg = write_config(tmp_path, "so5.json", SO5_FLOW)
    out = tmp_path / "report.json"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "framedhiggs.cli", "gaudin",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["all_passed"]


def test_a_flow_job_generates_only_its_own_gradient_program(tmp_path, monkeypatch):
    # the flow reads the program of one coefficient (k, i, j); degree index 0
    # of so(5) on 3 points has 6
    calls = []
    build = cli.GaudinSystem._gradient_program
    monkeypatch.setattr(cli.GaudinSystem, "_gradient_program",
                        lambda self, *key: calls.append(key) or build(self, *key))
    cfg = write_config(tmp_path, "so5.json", SO5_FLOW)
    assert main(["gaudin", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [(0, 0, 1)]


SO5_QUARTIC_FLOW = {**SO5_FLOW, "flow": {"degree_index": 1, "site": 0, "order": 1,
                                          "t_end": 0.05, "steps": 200}}


def test_an_so5_quartic_flow_builds_and_runs_in_time(tmp_path):
    # The quartic flow to t = 0.05 in 200 steps stays finite (drift about
    # 4e-11; to t = 1 it overflows).  The job takes 0.7 s on a 2-core host,
    # and the bound leaves more than tenfold margin.
    cfg = write_config(tmp_path, "so5.json", SO5_QUARTIC_FLOW)
    out = tmp_path / "report.json"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "framedhiggs.cli", "gaudin",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["all_passed"] and report["results"]["flow_worst_drift"] < 1e-8
    assert elapsed < 10, f"the so(5) quartic flow job took {elapsed:.1f} s"


README_FLOW = {"group": "sl(2)", "points": ["1", "2", "3"],
               "residues": {"type": "random", "seed": 7, "height": 10}, "random_points": 5,
               "flow": {"degree_index": 0, "site": 0, "order": 1, "t_end": 1.0,
                        "steps": 10000, "drift_tolerance": 1e-8}}
ORIGINAL_COEFFICIENT_FUNCTIONS = cli.GaudinSystem.coefficient_functions
ORIGINAL_SITE_WEIGHTS = cli.GaudinSystem._site_weights


def _without_a_term(self, k, cols=None):
    # the last product of the first statement that sums several dropped from
    # each gradient program: H's gradient is no longer that of an invariant
    out = {}
    for col, program in ORIGINAL_COEFFICIENT_FUNCTIONS(self, k, cols).items():
        lines = list(program.lines)
        q = next(q for q, line in enumerate(lines) if " + " in line or " - " in line)
        lines[q] = lines[q][:max(lines[q].rfind(" + "), lines[q].rfind(" - "))]
        out[col] = program._replace(lines=lines)
    return out


def _one_laurent_coefficient_one_order_off(self, i, l, top):
    # the flow's own site reads Q_(d-j-1) where Q_(d-j) belongs
    return [(o - (l == i), c) for o, c in ORIGINAL_SITE_WEIGHTS(self, i, l, top)]


@pytest.mark.parametrize("name, build", [
    ("coefficient_functions", _without_a_term),
    ("_site_weights", _one_laurent_coefficient_one_order_off)], ids=["term", "laurent-order"])
def test_a_hamiltonian_built_wrong_fails_the_flow_check(tmp_path, monkeypatch, name, build):
    monkeypatch.setattr(cli.GaudinSystem, name, build)
    cfg = write_config(tmp_path, "flow.json", README_FLOW)
    out = tmp_path / "report.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    passed = {c["name"]: c["passed"] for c in report["checks"]}
    assert passed == {"pairwise brackets of invariant coefficients vanish": True,
                      "conserved quantities along the flow": False}
    assert report["results"]["flow_worst_drift"] > 1e-8


def test_an_empty_flow_object_runs_the_default_flow(tmp_path):
    # every flow field has a default, so {} is the flow (0, 0, 1) of 10^4
    # steps to t_end 1.0 with tolerance 1e-8: the README flow, spelled out
    reports = []
    for flow in ({}, README_FLOW["flow"]):
        cfg = write_config(tmp_path, "flow.json", {**README_FLOW, "flow": flow})
        out = tmp_path / "report.json"
        assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    empty, spelled_out = reports
    assert [c["name"] for c in empty["checks"]] == [
        "pairwise brackets of invariant coefficients vanish",
        "conserved quantities along the flow"]
    assert "flow_worst_drift" in empty["results"]
    assert (empty["checks"], empty["results"]) == (spelled_out["checks"],
                                                   spelled_out["results"])


DEFO_SL2_3PT = {"group": "sl(2)", "points": ["1", "2", "3"], "framing": "trivial",
                "residues": {"type": "random", "seed": 11, "height": 5}}


def _failing_defo_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "defo.json", DEFO_SL2_3PT)
    out = tmp_path / "report.json"
    assert main(["defo", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    report = json.loads(out.read_text())
    assert not report["all_passed"]
    return report, err


def test_an_euler_mismatch_fails_the_check_with_a_report(tmp_path, capsys, monkeypatch):
    from framedhiggs.curve import SheafSpec
    chi = SheafSpec.euler_char
    monkeypatch.setattr(SheafSpec, "euler_char", lambda spec: chi(spec) + spec.is_form)
    report, err = _failing_defo_report(tmp_path, capsys)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [
        f"euler characteristic identity ({kind})"
        for kind in ("twisted", "framed", "twisted_dual")]
    assert all(c["value"] == c["expected"] + 1 for c in failed)
    assert "euler characteristic identity (twisted)" in err


def test_a_non_skew_pairing_fails_the_check_with_a_report(tmp_path, capsys, monkeypatch):
    from framedhiggs.deformation import FramedHiggsModel
    setup = FramedHiggsModel.__post_init__

    def non_invariant_form(model):
        setup(model)
        model._gram[0][1] += 1
    monkeypatch.setattr(FramedHiggsModel, "__post_init__", non_invariant_form)
    report, err = _failing_defo_report(tmp_path, capsys)
    check = [c for c in report["checks"] if c["name"] == "pairing skew-symmetry"][0]
    assert not check["passed"] and check["value"] == "not skew"
    assert "pairing skew-symmetry" in err


def test_one_flipped_pairing_entry_fails_the_skew_check(tmp_path, capsys, monkeypatch):
    # phi with the sign of one nonzero entry above the diagonal flipped:
    # phi[i][j] == phi[j][i] != 0 there, and the check must see it.
    from framedhiggs.deformation import DeformationTheory
    original = DeformationTheory.symplectic_matrix

    def flipped(self):
        den, phi = original(self)
        i, j = next((i, j) for i, row in enumerate(phi) for j, x in enumerate(row)
                    if j > i and x)
        return den, [[-x if (r, c) == (i, j) else x for c, x in enumerate(row)]
                     for r, row in enumerate(phi)]
    monkeypatch.setattr(DeformationTheory, "symplectic_matrix", flipped)
    report, err = _failing_defo_report(tmp_path, capsys)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "pairing skew-symmetry" in failed
    check = [c for c in report["checks"] if c["name"] == "pairing skew-symmetry"][0]
    assert check["value"] == "not skew"


@pytest.mark.parametrize("verify", [True, False])
def test_defo_eliminates_the_pairing_matrix_once(tmp_path, monkeypatch, verify):
    # with verify, phi's integer rows are eliminated once as the left block of
    # [phi | adjoint] (`integer_solve`), and neither `inverse` nor
    # `nullspace_sparse` eliminates them again; without, once by `rank`
    from framedhiggs import exactlinalg
    from framedhiggs.deformation import DeformationTheory
    phis, eliminated = [], []
    pairing, eliminate = DeformationTheory.symplectic_matrix, exactlinalg._eliminate
    monkeypatch.setattr(DeformationTheory, "symplectic_matrix",
                        lambda theory: phis.append(pairing(theory)) or phis[-1])

    def recording(rows):
        eliminated.append(rows := list(rows))
        return eliminate(rows)
    monkeypatch.setattr(exactlinalg, "_eliminate", recording)
    cfg = write_config(tmp_path, "defo.json", {**DEFO_SL2_3PT, "verify_poisson_map": verify})
    out = tmp_path / "report.json"
    assert main(["defo", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    _, phi = phis[0]
    n = len(phi)
    assert ("anchor_rank" in results) == verify and results["pairing_rank"] == n > 0

    def left_block(rows):
        return [{c: x for c, x in exactlinalg.sparse(r).items() if c < n} for r in rows]
    phi_rows = [exactlinalg.sparse(r) for r in phi]
    assert sum(left_block(rows) == phi_rows for rows in eliminated) == 1


E, H, MINUS_E = [["0", "1"], ["0", "0"]], [["1", "0"], ["0", "-1"]], [["0", "-1"], ["0", "0"]]
# Borel framing at x_1, torus at x_2: the framed h0, h1 and h2 all vanish, so
# the forgetful map and Y are empty while the anchor P is 1 x 1
DEFO_BOREL_TORUS = {"group": "sl(2)", "points": ["1", "2"], "framing": [[E, H], [H]],
                    "residues": {"type": "explicit", "matrices": [E, MINUS_E]}}


@pytest.mark.parametrize("anchor", [None, (1, [[1]])])
def test_the_poisson_check_compares_the_anchor_when_framed_h1_is_zero(tmp_path, monkeypatch,
                                                                      anchor):
    from framedhiggs.deformation import DeformationTheory
    if anchor is not None:
        monkeypatch.setattr(DeformationTheory, "poisson_matrix", lambda theory: anchor)
    cfg = write_config(tmp_path, "defo.json", DEFO_BOREL_TORUS)
    out = tmp_path / "report.json"
    assert main(["defo", "--config", cfg, "--out", str(out)]) == (0 if anchor is None else 1)
    report = json.loads(out.read_text())
    framed = report["results"]["dims"]["framed"]
    assert (framed["h0"], framed["h1"], framed["h2"]) == (0, 0, 0)
    assert report["results"]["dims"]["twisted"]["h1"] == 1
    check = [c for c in report["checks"]
             if c["name"] == "forgetful map intertwines pairing inverse and anchor"][0]
    assert check["passed"] == (anchor is None)
    assert check["value"] == ("zero residual" if anchor is None else "nonzero residual")


@pytest.mark.parametrize("flow, field", [
    ({"steps": 0}, "config.flow.steps"),
    ({"degree_index": 2}, "config.flow"),
    ({"site": 3}, "config.flow"),
    ({"degree_index": 1, "order": 4}, "config.flow"),
    ({"t_end": "x"}, "config.flow.t_end"),
])
def test_flow_fields_are_checked_before_the_bracket_table(tmp_path, capsys, monkeypatch,
                                                           flow, field):
    def refuse(*args, **kwargs):
        raise AssertionError("the bracket table ran before the flow fields were checked")
    monkeypatch.setattr(cli.GaudinSystem, "commutativity_check", refuse)
    monkeypatch.setattr(cli.GaudinSystem, "hitchin_point", refuse)
    cfg = write_config(tmp_path, "flow.json", {**GAUDIN_SL2, "group": "sl(3)", "flow": flow})
    assert main(["gaudin", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    if field == "config.flow":
        assert "no coefficient" in err


def _refuse_model(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the residue model was built before every field was checked")
    monkeypatch.setattr(cli, "_residues", refuse)
    monkeypatch.setattr(cli, "spectral_data", refuse)


@pytest.mark.parametrize("config, field", [
    ({"random_points": -1}, "config.random_points"),
    ({"height": 0}, "config.height"),
    ({"flow": []}, "config.flow"),
    ({"flow": {"steps": 0}}, "config.flow.steps"),
])
def test_gaudin_fields_are_checked_before_the_residue_model(tmp_path, capsys, monkeypatch,
                                                            config, field):
    _refuse_model(monkeypatch)
    cfg = write_config(tmp_path, "g.json", {**GAUDIN_SL2, **config})
    assert main(["gaudin", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_spectral_genus_is_checked_before_the_analysis(tmp_path, capsys, monkeypatch):
    _refuse_model(monkeypatch)
    cfg = write_config(tmp_path, "s.json", {**SPECTRAL_SL2, "genus": -1})
    assert main(["spectral", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: config.genus: ")


def test_a_torsor_count_off_by_one_fails_the_torsor_check(tmp_path, capsys, monkeypatch):
    # negative control: with dim T^n / Z(G) shifted by one, the relatively
    # framed fiber dimension misses the base dimension, and the report says so
    import dataclasses
    from framedhiggs import spectral
    counts = spectral.torsor_dims
    monkeypatch.setattr(spectral, "torsor_dims", lambda *args: dataclasses.replace(
        counts(*args), relative_over_unframed=counts(*args).relative_over_unframed + 1))
    cfg = write_config(tmp_path, "s.json", {
        "group": "sl(2)", "points": ["1", "2", "3", "4"],
        "residues": {"type": "random", "seed": 5}})
    out = tmp_path / "report.json"
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    check = [c for c in report["checks"]
             if c["name"] == "relatively framed fiber dimension equals base"][0]
    assert not check["passed"] and check["value"] == check["expected"] + 1
    assert not report["all_passed"]


def test_importing_the_cli_loads_no_numeric_library():
    # numpy, sympy and mpmath are imported lazily by the layers that need them,
    # so `hfb dims` and config errors never pay for them
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, framedhiggs.cli; "
            "print(sorted(m for m in ('numpy', 'sympy', 'mpmath') if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_readme_flow_loads_no_numpy(tmp_path):
    # The flow integrator is plain Python floats, so `hfb gaudin` with a
    # flow never imports numpy.
    cfg = write_config(tmp_path, "flow.json", README_FLOW)
    out = tmp_path / "report.json"
    code = ("import sys; from framedhiggs.cli import main; "
            f"print(main(['gaudin', '--config', {cfg!r}, '--out', {str(out)!r}]), "
            "'numpy' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert "flow_worst_drift" in json.loads(out.read_text())["results"]


def test_an_escalating_spectral_job_loads_no_numpy(tmp_path):
    # sl(3) on points 1-4, seed 6: the Durand-Kerner starts stall and the
    # disks are certified from mpmath's starts, so mpmath is loaded, not numpy.
    cfg = write_config(tmp_path, "spectral.json", {
        "group": "sl(3)", "points": ["1", "2", "3", "4"],
        "residues": {"type": "random", "seed": 6, "height": 10}})
    out = tmp_path / "report.json"
    code = ("import sys; from framedhiggs.cli import main; "
            f"print(main(['spectral', '--config', {cfg!r}, '--out', {str(out)!r}]), "
            "'numpy' in sys.modules, 'mpmath' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "True"]
    assert json.loads(out.read_text())["results"]["spectral"]["isolated_branch_boxes"]


@pytest.mark.parametrize("subcommand, config", [
    ("dims", {"group": "sl(2)", "genus": 2, "n": 1}),
    ("audit", {}),
    ("defo", {"group": "gl(2)", "points": ["1", "2", "3"], "framing": "torus",
              "residues": {"type": "random", "seed": 14, "height": 10}}),
    ("gaudin", README_FLOW),
    ("spectral", {"group": "sl(2)", "points": ["1", "2", "3", "4"],
                  "residues": {"type": "random", "seed": 5}}),
], ids=["dims", "audit", "defo-golden-gl2-torus", "gaudin-readme-flow", "spectral-sl2-4pt"])
def test_no_subcommand_builds_an_oracle_kernel(tmp_path, monkeypatch, subcommand, config):
    # `rationalfn.Poly` is the tests' reference for the integer polynomial
    # path, and `rationalfn.VSection` views sections for the H^0/H^1 API and
    # the demos alone, so no job may build either.
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"hfb {subcommand} built a {type(self).__name__}")
    monkeypatch.setattr(rationalfn.Poly, "__init__", refuse)
    monkeypatch.setattr(rationalfn.VSection, "__init__", refuse)
    cfg = write_config(tmp_path, "config.json", config)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0


def _golden_configs():
    here = Path(__file__).parent
    defo = json.loads((here / "golden_defo_reports.json").read_text())["reports"]
    rest = json.loads((here / "golden_gaudin_spectral_reports.json").read_text())["reports"]
    return ([("defo", e["config"]) for e in defo]
            + [(e["subcommand"], e["config"]) for e in rest])


def _writing(monkeypatch):
    """[(report, text)] for every report `cli.main` writes from now on."""
    written = []
    writer = cli._json_text

    def recording(report):
        written.append((report, writer(report)))
        return written[-1][1]
    monkeypatch.setattr(cli, "_json_text", recording)
    return written


def test_the_one_pass_writer_writes_the_bytes_of_json_dumps(tmp_path, monkeypatch):
    # every golden report, written in one pass, is the text json.dumps(indent=2)
    # makes of its converted values
    written = _writing(monkeypatch)
    configs = _golden_configs()
    for subcommand, config in configs:
        cfg = write_config(tmp_path, "job.json", config)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert len(written) == len(configs)
    for report, text in written:
        assert text == json_report_text(report)


def test_the_one_pass_writer_writes_non_finite_floats_as_strings(tmp_path, monkeypatch,
                                                                 capsys):
    nan, inf = float("nan"), float("inf")
    report = {"b": [nan, inf, -inf, -0.0, 0.1, 1e300, 2.5e-8, 1 / 3], 3: True,
              "a": {"\u00e9\n\"\\/": (F(1, 3), F(-4), F(0)), "": []},
              "none": None, "empty": [{}, [], ()], "big": -10 ** 40, "t": (1, (2,)),
              "z": False}
    assert cli._json_text(report) == json_report_text(report)
    # a config echo holding NaN and infinities, which json.load accepts
    written = _writing(monkeypatch)
    path = tmp_path / "dims.json"
    path.write_text('{"group": "sl(2)", "genus": 2, "n": 1, '
                    '"note": [NaN, Infinity, -Infinity, 1e-8, "\\u00e9"]}')
    assert main(["dims", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["config"]["note"] == ["nan", "inf", "-inf", 1e-8, "\u00e9"]
    [(report, text)] = written
    assert out == text == json_report_text(report)
