import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from framedhiggs import cli
from framedhiggs.cli import main


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
    # With sample-point gradients Y_t = [[0, 1], [t_index, 0]], which do not
    # commute with theta(t), the bracket gate must fail end to end.
    from framedhiggs.gaudin import SampleGradients
    original = cli.GaudinSystem.coefficient_gradients_at

    def non_commuting(self, residues, *chars):
        return [SampleGradients(block.keys, block.ts, block.vinv,
                                [(1, [0, 1, i, 0]) for i in range(len(block.ts))])
                for block in original(self, residues, *chars)]

    monkeypatch.setattr(cli.GaudinSystem, "coefficient_gradients_at", non_commuting)
    cfg = write_config(tmp_path, "g.json", GAUDIN_SL2)
    out = tmp_path / "report.json"
    assert main(["gaudin", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["all_passed"]
    check = [c for c in report["checks"]
             if c["name"] == "pairwise brackets of invariant coefficients vanish"][0]
    assert not check["passed"] and check["value"] != "0"
    assert report["results"]["bracket_worst_pair"] is not None


def test_a_gaudin_job_runs_the_char_polys_once_per_residue_tuple(tmp_path, monkeypatch):
    # the model's residues feed both the Hitchin point and the first bracket
    # table, from one `theta_char_polys` run
    from framedhiggs import gaudin
    calls = []
    kernel = gaudin.theta_char_polys
    monkeypatch.setattr(gaudin, "theta_char_polys",
                        lambda *args: calls.append(args) or kernel(*args))
    for random_points in (0, 3):
        calls.clear()
        cfg = write_config(tmp_path, "g.json", {**GAUDIN_SL2, "random_points": random_points})
        assert main(["gaudin", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1 + random_points


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
        "flow-t-end-string", "flow-drift-tolerance-bool", "flow-t-end-beyond-floats",
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


SPECTRAL_SL2 = {"group": "sl(2)", "points": ["1", "2", "3"],
                "residues": {"type": "random", "seed": 9, "height": 5}}


@pytest.mark.parametrize("subcommand, config, built", [
    ("defo", {"group": "gl(2)", "points": ["1", "2", "3", "4"], "framing": "torus",
              "residues": {"type": "random", "seed": 3, "height": 5}}, (1, 1)),
    ("gaudin", GAUDIN_SL2, (1, 1)),
    ("spectral", SPECTRAL_SL2, (1, 1)),
    ("defo", {**EXPLICIT_SL2, "framing": [[], [[["1", "0"], ["0", "-1"]]]]}, (1, 2)),
], ids=["defo-random-torus", "gaudin-random", "spectral-random", "defo-explicit-bases"])
def test_a_job_builds_one_algebra_model_and_each_framing_once(tmp_path, monkeypatch,
                                                              subcommand, config, built):
    from framedhiggs.liealg import AlgebraModel, FramingSpec
    counts = {AlgebraModel: 0, FramingSpec: 0}
    for cls, name in ((AlgebraModel, "__init__"), (FramingSpec, "__post_init__")):
        def counted(self, *args, _cls=cls, _original=getattr(cls, name), **kwargs):
            counts[_cls] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    cfg = write_config(tmp_path, "job.json", config)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out.json")]) == 0
    assert (counts[AlgebraModel], counts[FramingSpec]) == built


@pytest.mark.parametrize("subcommand, config, built", [
    ("gaudin", GAUDIN_SL2, 0),
    ("defo", DEFO_SL2, 2),
], ids=["gaudin", "defo"])
def test_only_defo_builds_the_ad_matrices(tmp_path, monkeypatch, subcommand, config, built):
    from framedhiggs.deformation import FramedHiggsModel
    calls = []
    original = FramedHiggsModel._ad_matrix

    def counted(self, el):
        calls.append(el)
        return original(self, el)
    monkeypatch.setattr(FramedHiggsModel, "_ad_matrix", counted)
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
    cfg = write_config(tmp_path, "flow.json", {
        "group": "sl(2)", "points": ["1", "2", "3"],
        "residues": {"type": "random", "seed": 7, "height": 10}, "random_points": 5,
        "flow": {"degree_index": 0, "site": 0, "order": 1, "t_end": 1.0, "steps": 10000,
                 "drift_tolerance": 1e-8}})
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
