"""Workload definitions: the `hfb` jobs each benchmark run sends, in order.

A workload is a fixed cycle of job shapes (subcommand, group, points,
framing, ...) plus a few fixed jobs at fixed positions.  The workload seed
picks only the residue seeds and the grid ranges, so two seeds give the same
sequence of shapes with different inputs.  No input repeats within a run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from checks import nonreal_branch_points

DEFAULT_SEED = 0
HEIGHT = 10

# README flow config; `hfb gaudin` on it integrates 10^4 RK4 steps.
README_FLOW = {"degree_index": 0, "site": 0, "order": 1,
               "t_end": 1.0, "steps": 10000, "drift_tolerance": 1e-8}


@dataclass(frozen=True)
class Shape:
    name: str
    sub: str
    config: dict            # config without the seed-dependent parts
    deadline: float         # seconds; a job still running then has failed
    residues: bool = True   # seeded random residues are added per job
    nonreal: int | None = None  # required number of non-real branch points


@dataclass
class Job:
    index: int
    shape: str
    sub: str
    config: dict
    deadline: float

    @property
    def key(self) -> str:
        """Identity of the input: subcommand plus canonical config."""
        text = json.dumps([self.sub, self.config], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:24]


def _pts(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def _defo(group: str, n: int, framing: str, deadline: float) -> Shape:
    return Shape(f"defo-{group}-{n}pt-{framing}", "defo",
                 {"group": group, "points": _pts(n), "framing": framing}, deadline)


def _gaudin(group: str, n: int, tuples: int, deadline: float) -> Shape:
    return Shape(f"gaudin-{group}-{n}pt-{tuples}tup", "gaudin",
                 {"group": group, "points": _pts(n), "random_points": tuples,
                  "height": HEIGHT}, deadline)


def _spectral(group: str, n: int, nonreal: int | None, deadline: float) -> Shape:
    suffix = "" if nonreal is None else f"-{nonreal}nonreal"
    return Shape(f"spectral-{group}-{n}pt{suffix}", "spectral",
                 {"group": group, "points": _pts(n)}, deadline, nonreal=nonreal)


# Each cycle keeps job times in one band, so that the median and the tail
# percentile of a run fall among many jobs of similar size.  Root isolation
# time grows with the number of non-real branch points (about 0.06 s with
# none, 0.6 s with two, 1.2 s with four on 4 points), so spectral shapes fix
# that number and the seed picks residues among the models that have it.
CYCLES: dict[str, list[Shape]] = {
    "defo": [
        _defo("sl(2)", 4, "torus", 15.0),
        _defo("sl(2)", 3, "trivial", 15.0),
        _defo("gl(2)", 3, "trivial", 15.0),
        _defo("gl(2)", 3, "torus", 15.0),
    ],
    "gaudin": [
        _gaudin("sl(3)", 3, 5, 20.0),
        _gaudin("sl(2)", 4, 20, 15.0),
        _gaudin("gl(2)", 4, 10, 15.0),
        _gaudin("sl(3)", 2, 10, 15.0),
    ],
    "spectral": [
        _spectral("sl(2)", 4, 2, 15.0),
        Shape("dims", "dims", {}, 5.0, residues=False),
        _spectral("gl(2)", 4, 2, 15.0),
        _spectral("sl(3)", 2, None, 10.0),  # constant discriminant: no roots
        _spectral("sl(2)", 4, 2, 15.0),
        _spectral("gl(2)", 4, 2, 15.0),
        Shape("audit", "audit", {}, 5.0, residues=False),
        _spectral("sl(2)", 5, 2, 20.0),
        Shape("genus-grid", "spectral", {}, 5.0, residues=False),
        _spectral("gl(2)", 4, 2, 15.0),
        _spectral("sl(2)", 4, 2, 15.0),
    ],
}

# Reference seconds (calibrate.py) one cycle of each workload takes; a run of
# S seconds sends round(S / CYCLE_S) cycles, whatever the host's speed.
CYCLE_S: dict[str, float] = {"defo": 4.5, "gaudin": 4.0, "spectral": 6.8}

# Jobs every run sends first, whatever the seed.
FIXED: dict[str, list[Shape]] = {
    "defo": [],
    # The README example: sl(2) on three points with its 10^4-step flow.
    "gaudin": [Shape("gaudin-readme-flow", "gaudin",
                     {"group": "sl(2)", "points": _pts(3),
                      "residues": {"type": "random", "seed": 7, "height": HEIGHT},
                      "random_points": 5, "flow": README_FLOW}, 30.0,
                     residues=False)],
    # Known defects stay in the job list and count as failed jobs until fixed:
    # sl(3) on points 1, 2, 3 with seed 7, where rational-root trial division
    # does not finish, so it fails by its deadline; and a gl(2) model whose
    # discriminant reduces to a quadratic with non-real roots, for which
    # sympy returns radicals and `hfb` raises AttributeError.
    "spectral": [Shape("spectral-sl(3)-3pt-seed7", "spectral",
                       {"group": "sl(3)", "points": _pts(3),
                        "residues": {"type": "random", "seed": 7, "height": HEIGHT}},
                       4.0, residues=False),
                 Shape("spectral-gl(2)-4pt-radicals", "spectral",
                       {"group": "gl(2)", "points": _pts(4),
                        "residues": {"type": "random", "seed": 341483,
                                     "height": HEIGHT}},
                       15.0, residues=False)],
}

WORKLOADS = tuple(CYCLES)

DIMS_GROUPS = ("sl(2)", "sl(3)", "gl(2)", "gl(3)", "sp(4)", "so(5)", "g2")
AUDIT_GROUPS = ("sl(2)", "sl(3)", "gl(2)", "gl(3)", "sp(4)", "so(5)")


class JobStream:
    """Infinite, seed-determined job sequence of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"framedhiggs-bench:{workload}:{seed}")
        self._seen: set[str] = set()
        self._index = 0
        self._cycle_pos = 0
        self._fixed = list(FIXED[workload])

    def __iter__(self):
        return self

    def __next__(self) -> Job:
        if self._fixed:
            shape = self._fixed.pop(0)
        else:
            cycle = CYCLES[self.workload]
            shape = cycle[self._cycle_pos % len(cycle)]
            self._cycle_pos += 1
        while True:
            job = Job(self._index, shape.name, shape.sub, self._config(shape),
                      shape.deadline)
            if job.key not in self._seen:
                break
        self._seen.add(job.key)
        self._index += 1
        return job

    def take(self, count: int) -> list[Job]:
        return [next(self) for _ in range(count)]

    def _config(self, shape: Shape) -> dict:
        rng = self._rng
        config = json.loads(json.dumps(shape.config))
        while shape.residues:
            rseed = rng.randrange(10 ** 6)
            config["residues"] = {"type": "random", "seed": rseed, "height": HEIGHT}
            if shape.nonreal is None or nonreal_branch_points(config) == shape.nonreal:
                break
        if shape.sub == "dims":
            config.update(group=rng.choice(DIMS_GROUPS), genus=rng.randint(1, 6),
                          n=rng.randint(1, 6))
        elif shape.name == "audit":
            lo_g, lo_n = rng.randint(1, 3), rng.randint(1, 3)
            config.update(groups=sorted(rng.sample(AUDIT_GROUPS, 3)),
                          genus_range=[lo_g, lo_g + rng.randint(1, 3)],
                          n_range=[lo_n, lo_n + rng.randint(1, 3)])
        elif shape.name == "genus-grid":
            r_lo, g_lo, n_lo = rng.randint(2, 3), rng.randint(0, 2), rng.randint(1, 3)
            config["genus_identity_grid"] = {
                "r": [r_lo, r_lo + rng.randint(1, 3)],
                "g": [g_lo, g_lo + rng.randint(1, 4)],
                "n": [n_lo, n_lo + rng.randint(1, 4)]}
        return config
