"""Benchmark worker: runs `hfb` jobs through `framedhiggs.cli.main`, one at a time.

    python3 bench/worker.py <trace 0|1>

`run.py` starts it with the repository's `src/` on PYTHONPATH and one BLAS /
OpenMP thread.  It reads one JSON request per line on stdin,
    {"id": 3, "argv": ["defo", "--config", "...", "--out", "..."],
     "clear_root_cache": false}
and answers one JSON line on its original stdout,
    {"id": 3, "rc": 0, "error": null, "wall": 1.23, "cal": 0.018, "trace": {...}}
where `wall` is the time of the `cli.main` call and `cal` the time of one
`calibrate.calibrate()` right after it (the ready line carries one too), so
that run.py can scale `wall` by the host's speed around the job.  Anything
the program prints goes to stderr, so it cannot corrupt the protocol.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys
from time import perf_counter

PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Ask Linux to kill this worker when run.py exits, even when run.py is
    killed itself, so that a job stuck in a loop cannot outlive the run."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class JobInterrupted(BaseException):
    """Raised inside a job when run.py signals (SIGUSR1) that its deadline
    passed, so that the spans still open are closed and sent back."""


def _interrupt(signum, frame):
    raise JobInterrupted


def _clear_root_cache() -> None:
    """Empty sympy's root cache, as a fresh `hfb` process would find it.

    Only when sympy is already loaded: importing it here would move its
    import cost out of the first timed job.
    """
    rootoftools = sys.modules.get("sympy.polys.rootoftools")
    if rootoftools is not None:
        rootoftools.ComplexRootOf.clear_cache()


def serve(trace: bool) -> None:
    _die_with_parent()
    reply_stream = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    from framedhiggs import cli

    from calibrate import calibrate

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    reply_stream.write(json.dumps({"ready": os.getpid(), "cal": calibrate()}) + "\n")
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("clear_root_cache"):
            _clear_root_cache()
        if tracer:
            tracer.begin()
        error = None
        rc = None
        signal.signal(signal.SIGUSR1, _interrupt)
        t0 = perf_counter()
        try:
            rc = cli.main(request["argv"])
        except JobInterrupted:
            error = "interrupted at its deadline"
        except SystemExit as exc:  # argparse rejects the arguments
            error = f"SystemExit: {exc.code}"
        except Exception as exc:  # a traceback from `hfb`: a failed job
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        signal.signal(signal.SIGUSR1, signal.SIG_IGN)
        reply = {"id": request["id"], "rc": rc, "error": error, "wall": wall}
        if tracer:
            reply["trace"] = tracer.end(t0, wall)
        reply["cal"] = calibrate()
        reply_stream.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    serve(sys.argv[1] == "1")
