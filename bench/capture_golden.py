"""Capture the golden reports of the first jobs of each workload at the default seed.

    python3 bench/capture_golden.py [workload ...]

Runs the first GOLDEN_JOBS jobs of each workload's default-seed sequence
without a time window, requires each finished job to pass its oracle, and writes the
digests to `bench/golden/<workload>.json`.  Jobs that crash or miss their
deadline (the known defects in `jobs.FIXED`) are listed under "failures"
instead.  Capture again only when a change to the reports is intended.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run
from jobs import DEFAULT_SEED, WORKLOADS, JobStream

GOLDEN_JOBS = 100


def capture(workload: str, count: int) -> dict:
    jobs = JobStream(workload, DEFAULT_SEED).take(count)
    work = run.OUT / f"golden-{workload}"
    with (run.OUT / "worker.log").open("a") as log:
        records, _, _, _ = run.run_jobs(jobs, work, False, log)
    run.verify(records, work, {}, {})
    entries, failures = {}, {}
    for rec in records:
        if rec.wrong:
            raise SystemExit(f"{workload}: job {rec.job.index} {rec.job.shape} gave a "
                             f"wrong answer: {rec.reason}")
        if rec.reason is not None:
            failures[rec.job.key] = {"shape": rec.job.shape, "reason": rec.reason}
            continue
        entries[rec.job.key] = checks.golden_entry(
            rec.job, run.report_path(work, rec.job).read_bytes())
    return {"seed": DEFAULT_SEED, "captured_from": run.environment(), "jobs": entries,
            "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    run.OUT.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        golden = capture(workload, GOLDEN_JOBS)
        path = run.HERE / "golden" / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(golden['jobs'])} golden reports in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
