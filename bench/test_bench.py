"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They run real `hfb` jobs through the benchmark's worker, with short
runs, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import capture_golden  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from jobs import CYCLES, DEFAULT_SEED, FIXED, WORKLOADS, Job, JobStream  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_declared():
    spec = _benchmark_json()
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*declared_e2e, *declared_layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.fixture()
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _printed(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(quick, workload):
    result, lines = run.run(workload, 1, 1.0, trace=False)
    printed = _printed(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in run.END_TO_END.items():
        assert printed[name] == unit
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
    assert result["correct"] and result["attempted"] >= 1
    assert "fail_ratio" in printed


def test_traced_run_prints_every_per_layer_metric_and_spans_add_up(quick):
    result, lines = run.run("gaudin", 1, 2.0, trace=True)
    printed = _printed(lines)
    assert result["correct"]
    for name, unit in run.per_layer_units().items():
        assert printed[name] == unit
        assert result["metrics"][name]["unit"] == unit
    metrics = result["metrics"]
    assert metrics["trace.jobs"]["value"] >= 1
    assert metrics["gaudin.flow.steps"]["value"] == 10000
    assert metrics["gaudin.bracket_table.self_s"]["value"] > 0
    assert (quick / "gaudin-seed1-trace1" / "spans.jsonl").stat().st_size > 0


def _report(work: Path, job: Job) -> bytes:
    return run.report_path(work, job).read_bytes()


def test_tampered_golden_wrong_exit_and_missed_deadline_raise_fail_ratio(tmp_path):
    hang = next(JobStream("spectral", 1))
    assert hang.shape == "spectral-sl(3)-3pt-seed7"
    hang.deadline = 0.5
    good = Job(1, "dims", "dims", {"group": "sl(2)", "genus": 2, "n": 1}, 30.0)
    bad_exit = Job(2, "dims", "dims", {"group": "sl(2)", "n": 1}, 30.0)
    with (tmp_path / "worker.log").open("a") as log:
        records, wall, peak, _ = run.run_jobs([hang, good, bad_exit], tmp_path, False, log)
    assert [r.timed_out for r in records] == [True, False, False]
    assert records[2].rc == 2

    golden = {good.key: checks.golden_entry(good, _report(tmp_path, good))}
    run.verify(records, tmp_path, golden, {})
    assert [r.reason is None for r in records] == [False, True, False]
    assert "deadline" in records[0].reason
    assert "exit code 2" in records[2].reason
    metrics, _ = run.e2e_metrics(records, wall, peak, [1.0])
    assert metrics["pass_ratio"] == pytest.approx(1 / 3)

    tampered = {good.key: dict(golden[good.key], sha256="0" * 64)}
    for rec in records:
        rec.reason = None
    run.verify(records[1:2], tmp_path, tampered, {})
    assert "golden" in records[1].reason
    metrics, _ = run.e2e_metrics(records[1:2], wall, peak, [1.0])
    assert metrics["pass_ratio"] == 0.0


def test_a_traced_job_stopped_at_its_deadline_keeps_its_spans(tmp_path):
    hang = next(JobStream("spectral", 1))
    hang.deadline = 1.0
    with (tmp_path / "worker.log").open("a") as log:
        records, _, _, _ = run.run_jobs([hang], tmp_path, True, log)
    assert records[0].timed_out and records[0].trace is not None
    assert tracer.job_accounting(records[0].trace["spans"],
                                 records[0].trace["wall"])[1] is None
    totals = tracer.layer_totals(records[0].trace["spans"])
    assert totals["rationalfn.rational_roots"]["busy"] > 0.5


def test_a_report_that_changes_between_runs_fails(tmp_path):
    job = Job(0, "dims", "dims", {"group": "sl(3)", "genus": 2, "n": 3}, 30.0)
    with (tmp_path / "worker.log").open("a") as log:
        records, _, _, _ = run.run_jobs([job], tmp_path, False, log)
    store = {}
    run.verify(records, tmp_path, {}, store)
    assert records[0].reason is None and store[job.key]["src"] == run.source_digest()
    run.verify(records, tmp_path, {}, {job.key: dict(store[job.key], sha256="0" * 64)})
    assert "earlier run" in records[0].reason


def test_earlier_run_check_compares_bytes_only_for_the_same_sources():
    job = Job(0, "gaudin", "gaudin", {}, 1.0)
    text = b'{"drift": 1.5e-12, "worst": "0"}'
    last_bits = b'{"drift": 1.6e-12, "worst": "0"}'
    exact_change = b'{"drift": 1.5e-12, "worst": "1"}'
    entry = checks.run_entry(job, text, "old")
    assert checks.run_mismatch(entry, text, "old") is None
    assert checks.run_mismatch(entry, last_bits, "old")
    assert checks.run_mismatch(entry, last_bits, "new") is None
    assert checks.run_mismatch(entry, exact_change, "new")


def test_oracles_reject_wrong_values(tmp_path):
    defo = Job(0, "defo", "defo", {"group": "sl(3)", "points": ["1", "2", "3"],
                                   "framing": "trivial"}, 1.0)
    report = {"results": {"dims": {"framed": {"h1": 32}}}}
    assert checks.ORACLES["defo"](defo, report) is None
    report["results"]["dims"]["framed"]["h1"] = 30
    assert "2 dim G" in checks.ORACLES["defo"](defo, report)

    gaudin = Job(0, "gaudin", "gaudin", {}, 1.0)
    name = "pairwise brackets of invariant coefficients vanish"
    assert checks.ORACLES["gaudin"](gaudin, {"checks": [{"name": name, "value": "0"}],
                                             "results": {}}) is None
    assert checks.ORACLES["gaudin"](gaudin, {"checks": [{"name": name, "value": "1/7"}],
                                             "results": {}})

    grid = Job(0, "genus-grid", "spectral", {"genus_identity_grid": {}}, 1.0)
    rows = [{"r": 2, "g": 0, "n": 4, "genus": 1}]
    assert checks.ORACLES["spectral"](grid, {"results": {"genus_grid": rows}}) is None
    rows[0]["genus"] = 2
    assert checks.ORACLES["spectral"](grid, {"results": {"genus_grid": rows}})

    from framedhiggs import cli
    spectral = JobStream("spectral", DEFAULT_SEED).take(3)[2]
    assert spectral.shape == "spectral-sl(2)-4pt-2nonreal"
    config, out = tmp_path / "spectral.json", tmp_path / "spectral.out"
    config.write_text(json.dumps(spectral.config))
    assert cli.main(["spectral", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert checks.ORACLES["spectral"](spectral, report) is None
    boxes = report["results"]["spectral"]["isolated_branch_boxes"]
    real = [b for b in boxes if b[0] == "real"]
    complex_ = [b for b in boxes if b[0] == "complex"]
    assert real and complex_
    wrong = {"one real box dropped": real[1:] + complex_,
             "no boxes": [],
             "one complex box dropped": real + complex_[1:]}
    for label, listed in wrong.items():
        report["results"]["spectral"]["isolated_branch_boxes"] = listed
        assert checks.ORACLES["spectral"](spectral, report), label
    report["results"]["spectral"]["isolated_branch_boxes"] = boxes
    report["results"]["spectral"]["rational_branch_points"] = [["0", 1]]
    assert "not a root" in checks.ORACLES["spectral"](spectral, report)


def test_trivial_framing_h1_closed_form():
    # framed h1 = 2 dim G (n - 1): sl(2) on 3 and 4 points, sl(3) on 2 and 3.
    for group, n, h1 in [("sl(2)", 3, 12), ("sl(2)", 4, 18), ("sl(3)", 2, 16),
                         ("sl(3)", 3, 32)]:
        job = Job(0, "defo", "defo", {"group": group, "points": [str(i) for i in
                                                                 range(1, n + 1)]}, 1.0)
        report = {"results": {"dims": {"framed": {"h1": h1}}}}
        assert checks.ORACLES["defo"](job, report) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_residues_not_shapes(workload):
    a = JobStream(workload, 1).take(40)
    b = JobStream(workload, 2).take(40)
    assert [j.shape for j in a] == [j.shape for j in b]
    assert [j.key for j in a] != [j.key for j in b]
    assert len({j.key for j in a}) == len(a)
    fixed = len(FIXED[workload])
    assert [j.shape for j in a[fixed:fixed + len(CYCLES[workload])]] == \
        [s.name for s in CYCLES[workload]]
    seeded = [(x.config["residues"], y.config["residues"]) for x, y in zip(a, b)
              if "residues" in x.config and x.shape not in {s.name for s in FIXED[workload]}]
    assert seeded and all(x != y for x, y in seeded)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_run_sends_whole_cycles_whatever_the_host_speed(workload):
    cycle, fixed = len(CYCLES[workload]), len(FIXED[workload])
    for seconds in (0.1, 1.0, 20.0, 60.0):
        count = run.job_count(workload, seconds)
        assert count >= fixed + cycle and (count - fixed) % cycle == 0
    assert run.job_count(workload, 60.0) > run.job_count(workload, 1.0)


def test_reference_seconds_cancel_the_host_speed():
    job = Job(0, "dims", "dims", {}, 5.0)
    fast = run.Record(job, 0, None, 1.0, False, busy=1.5)
    slow = run.Record(job, 0, None, 2.0, False, busy=3.0)
    stopped = run.Record(job, None, "missed", 5.0, True, busy=6.0)
    ref = run.calibrate.REFERENCE_S
    assert run.set_scale([fast], [ref, ref, 9.0]) == 1.0
    run.set_scale([slow, stopped], [2 * ref, 2 * ref, 2 * ref, 100.0])
    assert slow.ref_latency == fast.ref_latency and slow.ref_busy == fast.ref_busy
    # A job stopped at its deadline took the deadline; its restart is scaled.
    assert stopped.ref_latency == 5.0 and stopped.ref_busy == 5.5
    assert run.calibrate.calibrate() > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_reports_cover_the_default_seed(workload):
    stored = json.loads((run.HERE / "golden" / f"{workload}.json").read_text())
    jobs = JobStream(workload, DEFAULT_SEED).take(capture_golden.GOLDEN_JOBS)
    assert {j.key for j in jobs} == set(stored["jobs"]) | set(stored["failures"])
    # Only the crash and hang cases failed at capture; the rest have goldens.
    failed = {f["shape"] for f in stored["failures"].values()}
    assert failed <= {s.name for s in FIXED[workload]} | {s.name for s in CYCLES[workload]}
    assert len(stored["failures"]) <= len(FIXED[workload]) + 2


def test_span_self_times_add_up_and_bad_spans_are_rejected():
    spans = [["cli.main", 0.0005, 1.0, -1], ["cli.run_defo", 0.1, 0.9, 0],
             ["deformation.Hypercohomology.__init__", 0.2, 0.5, 1],
             ["exactlinalg.Quotient.__init__", 0.3, 0.4, 2]]
    remainder, problem = tracer.job_accounting(spans, 1.0008)
    assert problem is None
    assert sum(tracer._self_times(spans)) + remainder == pytest.approx(1.0008)
    totals = tracer.layer_totals(spans)
    assert totals["deformation.cone"]["busy"] == pytest.approx(0.3)
    assert totals["deformation.cone"]["self"] == pytest.approx(0.2)
    assert totals["cli.runner"]["busy"] == pytest.approx(0.8)
    # Time outside every span beyond the limit: cli.main missed part of the job.
    assert "outside every span" in tracer.job_accounting(spans, 1.25)[1]
    # A root that ends after the job, and a child that outlives its parent.
    assert "not inside" in tracer.job_accounting(spans, 0.9)[1]
    escaped = spans + [["exactlinalg.rank", 0.45, 0.6, 3]]
    assert "not inside" in tracer.job_accounting(escaped, 1.0008)[1]
    overlapping = spans + [["exactlinalg.inverse", 0.2, 0.45, 2]]
    with pytest.raises(ValueError):
        tracer.layer_totals(overlapping)
