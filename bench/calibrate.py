"""Host-speed calibration: a fixed piece of pure-Python exact arithmetic.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within a minute, in CPU time as well as in wall time.  `run.py` times
`calibrate()` after every job and scales each run's job and import times by
`REFERENCE_S / mean calibration time`, which reports them in reference
seconds: the time they would have taken on a host where `calibrate()` takes
`REFERENCE_S`.  A change to the program moves the scaled times as it moves
the raw ones; a change of the host's speed from one run to the next moves
the jobs and the calibrations together and cancels.  A single import does
not follow the kernel sample by sample, but the median import of a run
follows the run's mean kernel time as the host drifts over minutes.

The kernel does what `framedhiggs` spends its time on: `Fraction` row
operations, small-integer arithmetic, dict and list traffic.  It imports
nothing from the code under test, so no change there can move it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.016  # mean of calibrate() on a 2-vCPU x86-64 host, Python 3.11
SIZE = 14


def _kernel() -> Fraction:
    # Fixed integer matrix, reduced to row echelon form over the rationals.
    m = [[Fraction((7 * r + 3 * c * c + r * c) % 19 - 9) for c in range(SIZE + 1)]
         for r in range(SIZE)]
    for c in range(SIZE):
        p = next((r for r in range(c, SIZE) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(SIZE):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return sum(row[-1] for row in m) + len(counts)


def calibrate() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scale(cals: list[float]) -> float:
    """Reference seconds per wall second on a host whose calibrations took
    `cals` seconds.

    The kernel is short, so each sample sees the host either fast or slow;
    a job of a second sees a mix of both.  The mean of many samples
    estimates that mix, where a median would jump from one speed to the
    other.  Samples over three times the median (the kernel was preempted)
    are left out.
    """
    typical = statistics.median(cals)
    return REFERENCE_S / statistics.mean(c for c in cals if c <= 3 * typical)
