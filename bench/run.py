"""End-to-end and per-layer benchmark of `hfb` jobs.

    python3 bench/run.py --workload defo|gaudin|spectral --seed N \\
        --seconds S --trace 0|1

The code under test is the checkout's `src/framedhiggs`, imported from
source; the run exits with code 2 if it is missing.

Untraced (`--trace 0`), one run:
1. times `SETUP_REPEATS` fresh interpreters importing `framedhiggs.cli`;
2. starts one worker process (`worker.py`) and sends it the first
   `job_count(workload, S)` jobs of the workload's seeded sequence
   (`jobs.py`) in a closed loop with one client: whole cycles of shapes
   worth about S reference seconds, the same number of jobs for every seed
   and every commit.  Each job is one `cli.main` call that reads a config
   file and writes its report to a file.  A job that misses its deadline
   fails; the worker is killed, a fresh one started, and the run goes on;
3. runs the fastest finished job once more and requires the same bytes;
4. checks every report (`checks.py`): exit code, golden digest, oracles, and
   the report an earlier run in this checkout wrote for the same input (the
   same bytes from the same sources; the same exact fields after a change).

Times are in reference seconds (`calibrate.py`): wall times scaled by the
host's speed during the run, measured by a fixed calibration kernel the
worker runs after every job (REFERENCE_S over the mean kernel time).  The
host's drift from run to run cancels; a change of the program does not.  A
job stopped at its deadline counts as exactly its deadline.

End-to-end metrics:
  setup_s         median time of the fresh imports in step 1
  jobs_per_s      passed jobs per second the client waited on the program,
                  worker restarts after a missed deadline included
  verdict_p50_s   median `cli.main` time per job; a failed job counts as at
                  least its deadline
  verdict_tail_s  the highest percentile with TAIL_BEYOND jobs beyond it
  pass_ratio      passed jobs over attempted jobs (fail_ratio is 1 minus it)
  peak_rss_mb     peak resident memory of the worker processes

It prints one line per metric with its unit, the environment, every failed
job, and as its last line the JSON result.  `correct` is false when a job
gave a wrong answer; a crash or a missed deadline only counts as failed.

Traced (`--trace 1`): the loop runs the jobs of S/2 seconds untraced, then
a traced worker (`tracer.py`) replays exactly those jobs; the last line holds
the per-layer metrics summed over the replay, the `-X importtime` split of
the import, and the tracing overhead (replay time over untraced time,
minus 1).

Everything the run writes goes under `.bench_build/bench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "bench"
sys.path.insert(1, str(ROOT / "src"))  # the spectral oracle rebuilds residues

import calibrate  # noqa: E402  (bench/ is the script directory)
import checks  # noqa: E402
import tracer  # noqa: E402
from jobs import (CYCLE_S, CYCLES, DEFAULT_SEED, FIXED, WORKLOADS, Job,  # noqa: E402
                  JobStream)

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10            # the tail percentile keeps this many jobs beyond it
WORKER_START_TIMEOUT = 120.0
CHILD_TIMEOUT = 120.0
STORE = "report_digests.json"  # checks.run_entry of every passed input
INTERRUPT_GRACE = 2.0       # seconds a traced job gets to unwind its spans
TRACE_DEADLINE_FACTOR = 2.0  # traced calls run slower; deadlines stretch
RUN_LIMIT_S = 100.0         # no job starts this long after the run began

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "verdict_p50_s": "s",
              "verdict_tail_s": "s", "pass_ratio": "1", "peak_rss_mb": "MB"}
SETUP_IMPORTS = ("sympy", "numpy", "framedhiggs")
TRACE_OWN = {"trace.overhead_ratio": "1", "trace.unwrapped_s": "s",
             "trace.spans": "count", "trace.jobs": "count"}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in tracer.TRACE_METRICS.items()}
    units.update({f"setup.import.{mod}_s": "s" for mod in SETUP_IMPORTS})
    units.update(TRACE_OWN)
    return units


def program_env() -> dict[str, str]:
    """Environment of every interpreter that imports the code under test."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One `worker.py` process and its line protocol."""

    def __init__(self, trace: bool, log):
        self.trace = trace
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "1" if trace else "0"],
            cwd=ROOT, env=program_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=log)
        self._buffer = bytearray()
        try:
            ready = self._read(WORKER_START_TIMEOUT)
        except WorkerDied:
            ready = None
        if ready is None:
            self.stop(kill=True)
            raise RuntimeError("the benchmark worker did not start; see "
                               f"{OUT / 'worker.log'}")
        self.cal = ready["cal"]  # calibration time at start-up, in seconds

    def _read(self, timeout: float):
        fd = self.proc.stdout.fileno()
        end = perf_counter() + timeout
        while b"\n" not in self._buffer:
            left = end - perf_counter()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise WorkerDied("worker exited")
                self._buffer += chunk
        line, _, rest = bytes(self._buffer).partition(b"\n")
        self._buffer = bytearray(rest)
        return json.loads(line)

    def call(self, request: dict, timeout: float):
        """The worker's reply, or None when `timeout` passes first."""
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerDied("worker exited") from exc
        return self._read(timeout)

    def interrupt(self):
        """Stop the running job with SIGUSR1 and return the worker's reply,
        which carries the spans recorded so far; None if it does not come."""
        self.proc.send_signal(signal.SIGUSR1)
        try:
            return self._read(INTERRUPT_GRACE)
        except WorkerDied:
            return None

    def stop(self, kill: bool = False) -> float:
        """End the process, wait for it, and return its peak RSS in MB."""
        if self.proc.returncode is not None:  # already stopped
            return 0.0
        if kill:
            self.proc.kill()
        else:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        # wait4 reaps the child and reports its own peak resident set.
        end = perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if perf_counter() > end:
                self.proc.kill()
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        return usage.ru_maxrss / 1024.0


@dataclass
class Record:
    job: Job
    rc: int | None
    error: str | None
    latency: float
    timed_out: bool
    trace: dict | None = None
    busy: float = 0.0           # time the client waited on it, worker start included
    reason: str | None = None   # why the job failed; None if it passed
    cal: float | None = None    # calibration time right after the job
    scale: float = 1.0          # the run's reference seconds per wall second

    @property
    def ref_latency(self) -> float:
        """`latency` in reference seconds; a stopped job took its deadline."""
        return self.latency if self.timed_out else self.latency * self.scale

    @property
    def ref_busy(self) -> float:
        return self.ref_latency + (self.busy - self.latency) * self.scale

    @property
    def wrong(self) -> bool:
        """A report or exit code that is wrong, as opposed to a job that
        crashed or missed its deadline without giving an answer."""
        return self.reason is not None and not self.timed_out and not self.error


def run_jobs(jobs, work: Path, trace: bool, log, deadline_factor: float = 1.0,
             repeat: bool = False, cals: list[float] | None = None,
             stop_at: float = float("inf")):
    """Closed loop, one client: send each job in turn, but none after the
    `perf_counter()` time `stop_at`.  With `repeat`, the fastest clean job
    then runs once more, untimed.  Every calibration time the workers report
    is appended to `cals`.  Returns (records, busy wall seconds, peak RSS in
    MB, (first, repeat) records or None)."""
    work.mkdir(parents=True, exist_ok=True)
    records: list[Record] = []
    cals = [] if cals is None else cals
    peak = 0.0
    worker = Worker(trace, log)
    cals.append(worker.cal)
    repeated = None
    stuck = False
    try:
        # Busy time counts only time spent waiting on the program.  A job
        # that kills its worker also pays for starting the next one.
        busy = 0.0
        for job in jobs:
            if perf_counter() > stop_at:
                print(f"warning: the run passed {RUN_LIMIT_S:g} s; "
                      f"{len(records)} jobs sent", file=sys.stderr)
                break
            t0 = perf_counter()
            record, worker_ok = _send(worker, job, work, job.deadline * deadline_factor)
            records.append(record)
            if record.cal is not None:
                cals.append(record.cal)
            if not worker_ok:
                peak = max(peak, worker.stop(kill=True))
                worker = Worker(trace, log)
                cals.append(worker.cal)
            record.busy = perf_counter() - t0
            busy += record.busy
        clean = [r for r in records if r.rc == 0 and not r.error]
        if repeat and clean:
            first = min(clean, key=lambda r: r.latency)
            again, alive = _send(worker, first.job, work, first.job.deadline, ".repeat")
            repeated, stuck = (first, again), not alive
    except BaseException:
        worker.stop(kill=True)
        raise
    peak = max(peak, worker.stop(kill=stuck))
    return records, busy, peak, repeated


def _send(worker: Worker, job: Job, work: Path, deadline: float,
          suffix: str = "") -> tuple[Record, bool]:
    config = work / f"{job.index}.json"
    report = report_path(work, job, suffix)
    config.write_text(json.dumps(job.config))
    report.unlink(missing_ok=True)
    request = {"id": job.index, "clear_root_cache": job.sub == "spectral",
               "argv": [job.sub, "--config", str(config), "--out", str(report)]}
    t0 = perf_counter()
    try:
        reply = worker.call(request, deadline)
    except WorkerDied:
        return Record(job, None, "the worker process died", perf_counter() - t0,
                      False), False
    if reply is None:
        # A traced worker is asked for the spans of the stopped job first.
        partial = worker.interrupt() if worker.trace else None
        return Record(job, None, f"missed its {deadline:g} s deadline",
                      max(perf_counter() - t0, deadline), True,
                      partial.get("trace") if partial else None), False
    return Record(job, reply["rc"], reply["error"], reply["wall"], False,
                  reply.get("trace"), cal=reply["cal"]), True


def report_path(work: Path, job: Job, suffix: str = "") -> Path:
    return work / f"{job.index}{suffix}.out"


def _read_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def verify(records, work: Path, golden: dict, store: dict, repeated=None,
           reference: Path | None = None) -> None:
    """Set `reason` on every failed record.  `store` maps input key to the
    `checks.run_entry` of the report earlier runs wrote; `reference` is a work
    directory whose reports the same jobs must reproduce byte for byte."""
    src = source_digest()
    for rec in records:
        if rec.timed_out:
            rec.reason = rec.error
            continue
        text = _read_bytes(report_path(work, rec.job))
        try:
            rec.reason = checks.verdict(rec.job, rec.rc, rec.error, text)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            rec.reason = f"report lacks an expected field: {exc!r}"
        if rec.reason:
            continue
        entry = golden.get(rec.job.key)
        if entry:
            rec.reason = checks.golden_mismatch(entry, text)
        earlier = store.get(rec.job.key)
        if not rec.reason and earlier:
            rec.reason = checks.run_mismatch(earlier, text, src)
        if not rec.reason and reference is not None:
            if _read_bytes(report_path(reference, rec.job)) != text:
                rec.reason = "traced report differs from the untraced one"
        if not rec.reason:
            store[rec.job.key] = checks.run_entry(rec.job, text, src)
    if repeated:
        first, again = repeated
        same = (again.rc == first.rc
                and _read_bytes(report_path(work, first.job, ".repeat"))
                == _read_bytes(report_path(work, first.job)))
        if first.reason is None and not same:
            first.reason = "a repeat of the job wrote a different report"


def set_scale(records, cals: list[float]) -> float:
    """Give every record the run's reference seconds per wall second."""
    scale = calibrate.scale(cals)
    for rec in records:
        rec.scale = scale
    return scale


def e2e_metrics(records, busy: float, peak: float,
                setup: list[float]) -> tuple[dict, dict]:
    done = [r for r in records if r.reason is None]
    # A failed job counts as at least as late as its deadline.
    latencies = sorted(r.ref_latency if r.reason is None
                       else max(r.ref_latency, r.job.deadline) for r in records)
    n = len(latencies)
    rank = max(n - TAIL_BEYOND, 1)
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(done) / busy,
        "verdict_p50_s": statistics.median(latencies),
        "verdict_tail_s": latencies[rank - 1],
        "pass_ratio": len(done) / n,
        "peak_rss_mb": peak,
    }, {"tail_percentile": 100.0 * rank / n, "jobs": n, "beyond": n - rank}


def measure_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import framedhiggs.cli.

    The wait blocks instead of polling (subprocess polls a child with a
    timeout in 50 ms steps); a watchdog kills an import that hangs.
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import framedhiggs.cli"],
                                cwd=ROOT, env=program_env())
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing framedhiggs.cli failed ({proc.returncode})")
    return times


def import_split(repeats: int) -> dict[str, float]:
    """Median `-X importtime` cumulative seconds of sympy and numpy, and the
    self time of framedhiggs's own modules."""
    samples = {mod: [] for mod in SETUP_IMPORTS}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import framedhiggs.cli"], cwd=ROOT, env=program_env(),
                              check=True, timeout=CHILD_TIMEOUT, capture_output=True,
                              text=True)
        own = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            self_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
            name = parts[2].strip()
            if name in ("sympy", "numpy"):
                samples[name].append(cumulative_us / 1e6)
            elif name == "framedhiggs" or name.startswith("framedhiggs."):
                own += self_us
        samples["framedhiggs"].append(own / 1e6)
    return {f"setup.import.{mod}_s": statistics.median(v) if v else 0.0
            for mod, v in samples.items()}


def trace_metrics(records, untraced: dict[int, Record]) -> tuple[dict, list[str]]:
    """Per-layer metrics summed over traced jobs, and the jobs whose spans do
    not nest or do not cover their wall time."""
    totals = {layer: {"busy": 0.0, "self": 0.0, "calls": 0} for layer in tracer.LAYERS}
    counters: dict[str, int] = {}
    spans = unwrapped = traced_time = untraced_time = 0.0
    problems = []
    for rec in records:
        if rec.trace is None:
            continue
        job_spans = rec.trace["spans"]
        remainder, problem = tracer.job_accounting(job_spans, rec.trace["wall"])
        try:
            for layer, entry in tracer.layer_totals(job_spans).items():
                for kind, value in entry.items():
                    totals[layer][kind] += value
        except ValueError as exc:
            problem = problem or str(exc)
        if problem:
            problems.append(f"traced job {rec.job.index} {rec.job.shape}: {problem}")
        unwrapped += remainder
        spans += len(job_spans)
        for name, value in rec.trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        base = untraced.get(rec.job.index)
        if base is not None and rec.reason is None and base.reason is None:
            traced_time += rec.ref_latency
            untraced_time += base.ref_latency
    metrics = {name: value for name, (value, _) in
               tracer.layer_metrics(totals, counters).items()}
    metrics["trace.overhead_ratio"] = (traced_time / untraced_time - 1.0
                                       if untraced_time else 0.0)
    metrics["trace.unwrapped_s"] = unwrapped
    metrics["trace.spans"] = int(spans)
    metrics["trace.jobs"] = sum(1 for r in records if r.trace is not None)
    return metrics, problems


def write_spans(path: Path, records) -> None:
    with path.open("w") as fh:
        for rec in records:
            if rec.trace is None:
                continue
            for name, start, end, parent in rec.trace["spans"]:
                fh.write(json.dumps({"job": rec.job.index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def environment() -> dict:
    from importlib import metadata

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "sympy": version("sympy"), "commit": commit or "unknown (not a git checkout)",
            "src_sha256": source_digest()}


def source_digest() -> str:
    """Digest of the code under test, `src/framedhiggs/*.py`."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "framedhiggs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return src.hexdigest()[:16]


def load_golden(workload: str) -> dict:
    """Golden digests by input key; jobs that failed at capture are absent."""
    path = HERE / "golden" / f"{workload}.json"
    return json.loads(path.read_text())["jobs"] if path.is_file() else {}


def job_count(workload: str, seconds: float) -> int:
    """Jobs in a run of `seconds`: the fixed jobs, then at least one whole
    cycle of shapes, as many as take about `seconds` reference seconds."""
    cycles = max(1, round(seconds / CYCLE_S[workload]))
    return len(FIXED[workload]) + cycles * len(CYCLES[workload])


def load_store() -> dict:
    path = OUT / STORE
    return json.loads(path.read_text()) if path.is_file() else {}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run.  Returns the result object and the lines to print."""
    work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    golden, store = load_golden(workload), load_store()
    lines = [f"env: {json.dumps(environment(), sort_keys=True)}"]
    stop_at = perf_counter() + RUN_LIMIT_S
    with (OUT / "worker.log").open("a") as log:
        if not trace:
            cals: list[float] = []
            setup = measure_setup(SETUP_REPEATS)
            jobs = JobStream(workload, seed).take(job_count(workload, seconds))
            records, wall, peak, repeated = run_jobs(jobs, work / "jobs", False, log,
                                                     repeat=True, cals=cals,
                                                     stop_at=stop_at)
            scale = set_scale(records, cals)
            verify(records, work / "jobs", golden, store, repeated)
            busy = sum(r.ref_busy for r in records)
            metrics, tail = e2e_metrics(records, busy, peak, [t * scale for t in setup])
            units = END_TO_END
            problems = []
            lines.append(f"workload {workload}, seed {seed}: {len(records)} jobs, "
                         f"{wall:.3f} s busy wall time, {busy:.3f} reference s; "
                         "one client, closed loop")
            lines.append(f"host speed: {scale:.4f} reference s per wall s, from "
                         f"{len(cals)} calibrations (mean "
                         f"{calibrate.REFERENCE_S / scale * 1e3:.2f} ms)")
            lines.append("setup samples (wall s): " + " ".join(f"{s:.4f}" for s in setup))
        else:
            jobs = JobStream(workload, seed).take(job_count(workload, seconds / 2))
            cals, traced_cals = [], []
            untraced, _, _, _ = run_jobs(jobs, work / "untraced", False, log, cals=cals,
                                         stop_at=stop_at)
            records, wall, _, _ = run_jobs([r.job for r in untraced], work / "jobs", True,
                                           log, deadline_factor=TRACE_DEADLINE_FACTOR,
                                           cals=traced_cals, stop_at=stop_at)
            set_scale(untraced, cals)
            set_scale(records, traced_cals)
            verify(untraced, work / "untraced", golden, store)
            verify(records, work / "jobs", golden, store, reference=work / "untraced")
            metrics, problems = trace_metrics(records, {r.job.index: r for r in untraced})
            metrics.update(import_split(IMPORTTIME_REPEATS))
            units = per_layer_units()
            write_spans(work / "spans.jsonl", records)
            lines.append(f"workload {workload}, seed {seed}: {len(records)} jobs traced, "
                         f"spans in {work / 'spans.jsonl'}")
            lines.extend(f"error: {p}" for p in problems)
    (OUT / STORE).write_text(json.dumps(store, sort_keys=True))

    failed = [r for r in records if r.reason is not None]
    for name, unit in units.items():
        note = ""
        if name == "verdict_tail_s":
            note = (f"  (p{tail['tail_percentile']:.1f} of {tail['jobs']} jobs, "
                    f"{tail['beyond']} beyond)")
        lines.append(f"{name} {metrics[name]:.6g} {unit}{note}")
    lines.append(f"fail_ratio {len(failed) / len(records):.6g} 1  "
                 f"({len(failed)} of {len(records)} jobs failed)")
    for rec in failed:
        lines.append(f"failed job {rec.job.index} {rec.job.shape} "
                     f"{json.dumps(rec.job.config, sort_keys=True)}: {rec.reason}")
    result = {"correct": not any(r.wrong for r in records) and not problems,
              "attempted": len(records),
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (work / "result.json").write_text(json.dumps(
        {"env": json.loads(lines[0][5:]), "workload": workload, "seed": seed,
         "seconds": seconds, "trace": trace, "calibrations": cals,
         "jobs": [[r.job.shape, r.latency, r.busy] for r in records], **result},
        indent=2))
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "framedhiggs" / "cli.py").is_file():
        print(f"error: no framedhiggs sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
