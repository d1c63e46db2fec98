"""Span tracing of `framedhiggs` from outside: wrap layer entry points.

The worker of a traced run calls `Tracer.install()` after importing
`framedhiggs.cli`.  Each traced function is replaced at every module
attribute (and module-level dict value) that refers to it, and each traced
method is replaced on its class.  A span wrapper records one span per call
(name, start, end, parent span) for the current job; a count wrapper only
counts calls, for hot leaves where a span per call would cost more than the
call.  Nothing under `src/` changes; the untraced run installs nothing.

`layer_metrics` turns one job's spans and counters into the per-layer
metrics, named `<module>.<layer>.<kind>`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path); methods are "Class.method".
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.run_dims": ("cli", "run_dims"),
    "cli.run_audit": ("cli", "run_audit"),
    "cli.run_defo": ("cli", "run_defo"),
    "cli.run_gaudin": ("cli", "run_gaudin"),
    "cli.run_spectral": ("cli", "run_spectral"),
    "sampling.seeded_model": ("sampling", "seeded_model"),
    "liealg.AlgebraModel.__init__": ("liealg", "AlgebraModel.__init__"),
    "liealg.invariant_polynomials": ("liealg", "invariant_polynomials"),
    "liealg.char_poly_elementary": ("liealg", "char_poly_elementary"),
    "curve.sections_on_affine_chart": ("curve", "sections_on_affine_chart"),
    "curve.sections_off_divisor": ("curve", "sections_off_divisor"),
    "rationalfn.VSection.mul_pole": ("rationalfn", "VSection.mul_pole"),
    "rationalfn.pairing_residue_at_point": ("rationalfn", "pairing_residue_at_point"),
    "rationalfn.pairing_residue_at_infinity": ("rationalfn", "pairing_residue_at_infinity"),
    "rationalfn.Poly.rational_roots": ("rationalfn", "Poly.rational_roots"),
    "rationalfn.Poly.is_squarefree": ("rationalfn", "Poly.is_squarefree"),
    "exactlinalg.Quotient.__init__": ("exactlinalg", "Quotient.__init__"),
    "exactlinalg.Quotient.project": ("exactlinalg", "Quotient.project"),
    "exactlinalg.LinSolver.__init__": ("exactlinalg", "LinSolver.__init__"),
    "exactlinalg.LinSolver.coords": ("exactlinalg", "LinSolver.coords"),
    "exactlinalg.nullspace_sparse": ("exactlinalg", "nullspace_sparse"),
    "exactlinalg.inverse": ("exactlinalg", "inverse"),
    "exactlinalg.rank": ("exactlinalg", "rank"),
    "deformation.Hypercohomology.__init__": ("deformation", "Hypercohomology.__init__"),
    "deformation.DeformationTheory.symplectic_matrix":
        ("deformation", "DeformationTheory.symplectic_matrix"),
    "deformation.DeformationTheory.forgetful_adjoint_matrix":
        ("deformation", "DeformationTheory.forgetful_adjoint_matrix"),
    "deformation.DeformationTheory.poisson_matrix":
        ("deformation", "DeformationTheory.poisson_matrix"),
    "deformation.DeformationTheory.forgetful_matrix":
        ("deformation", "DeformationTheory.forgetful_matrix"),
    "deformation.verify_poisson_map": ("deformation", "verify_poisson_map"),
    "deformation.hyper_pair": ("deformation", "hyper_pair"),
    "gaudin.GaudinSystem.coefficient_gradients_at":
        ("gaudin", "GaudinSystem.coefficient_gradients_at"),
    "gaudin.GaudinSystem.commutativity_check":
        ("gaudin", "GaudinSystem.commutativity_check"),
    "gaudin.GaudinSystem.hitchin_point": ("gaudin", "GaudinSystem.hitchin_point"),
    "gaudin.GaudinSystem.integrate_flow": ("gaudin", "GaudinSystem.integrate_flow"),
    "gaudin.GaudinSystem.coefficient_functions":
        ("gaudin", "GaudinSystem.coefficient_functions"),
    "spectral.elementary_numerators": ("spectral", "elementary_numerators"),
    "spectral.spectral_data": ("spectral", "spectral_data"),
    "dimensions.consistency_audit": ("dimensions", "consistency_audit"),
}

# counter name -> (module, attribute path), counted without a span.
COUNTS = {
    "rationalfn.poly_eval.calls": ("rationalfn", "Poly.__call__"),
    "exactlinalg.echelon.inserts": ("exactlinalg", "Echelon.insert"),
}


def _observe_quotient(counters, bound, result):
    counters["exactlinalg.quotient.kept"] += bound.arguments["self"].dim
    counters["exactlinalg.quotient.offered"] += len(bound.arguments["kernel_vectors"])


def _observe_cone(counters, bound, result):
    counters["deformation.cone.t1_params"] += bound.arguments["self"].t1_params


def _observe_flow(counters, bound, result):
    counters["gaudin.flow.steps"] += bound.arguments["steps"]


# Span name -> observer reading sizes off the call's arguments after it returns.
OBSERVERS = {
    "exactlinalg.Quotient.__init__": _observe_quotient,
    "deformation.Hypercohomology.__init__": _observe_cone,
    "gaudin.GaudinSystem.integrate_flow": _observe_flow,
}

# Per-layer metric -> the span names it sums.  `busy_s` is inclusive time
# (spans nested in a span of the same layer are not counted twice), `self_s`
# is busy time minus child spans, `calls` the number of spans.
LAYERS = {
    "cli.main": ["cli.main"],
    "cli.runner": ["cli.run_dims", "cli.run_audit", "cli.run_defo",
                   "cli.run_gaudin", "cli.run_spectral"],
    "sampling.seeded_model": ["sampling.seeded_model"],
    "liealg.algebra_model": ["liealg.AlgebraModel.__init__"],
    "liealg.invariant_polynomials": ["liealg.invariant_polynomials"],
    "liealg.char_poly_elementary": ["liealg.char_poly_elementary"],
    "curve.chart_sections": ["curve.sections_on_affine_chart",
                             "curve.sections_off_divisor"],
    "rationalfn.mul_pole": ["rationalfn.VSection.mul_pole"],
    "rationalfn.pairing_residue": ["rationalfn.pairing_residue_at_point",
                                   "rationalfn.pairing_residue_at_infinity"],
    "rationalfn.rational_roots": ["rationalfn.Poly.rational_roots"],
    "exactlinalg.quotient": ["exactlinalg.Quotient.__init__",
                             "exactlinalg.Quotient.project"],
    "exactlinalg.linsolver": ["exactlinalg.LinSolver.__init__",
                              "exactlinalg.LinSolver.coords"],
    "exactlinalg.linsolver_solves": ["exactlinalg.LinSolver.coords"],
    "exactlinalg.nullspace_sparse": ["exactlinalg.nullspace_sparse"],
    "exactlinalg.inverse": ["exactlinalg.inverse"],
    "exactlinalg.rank": ["exactlinalg.rank"],
    "deformation.cone": ["deformation.Hypercohomology.__init__"],
    "deformation.pairing": ["deformation.DeformationTheory.symplectic_matrix",
                            "deformation.DeformationTheory.forgetful_adjoint_matrix"],
    "deformation.symplectic_matrix": ["deformation.DeformationTheory.symplectic_matrix"],
    "deformation.anchor": ["deformation.DeformationTheory.poisson_matrix",
                           "deformation.DeformationTheory.forgetful_matrix"],
    "deformation.verify_poisson_map": ["deformation.verify_poisson_map"],
    "deformation.hyper_pair": ["deformation.hyper_pair"],
    "gaudin.gradients": ["gaudin.GaudinSystem.coefficient_gradients_at"],
    "gaudin.bracket_table": ["gaudin.GaudinSystem.commutativity_check"],
    "gaudin.hitchin_point": ["gaudin.GaudinSystem.hitchin_point"],
    "gaudin.flow": ["gaudin.GaudinSystem.integrate_flow"],
    "gaudin.coefficient_functions": ["gaudin.GaudinSystem.coefficient_functions"],
    "spectral.interpolation": ["spectral.elementary_numerators"],
    "spectral.root_isolation": ["spectral.spectral_data"],
    "spectral.squarefree": ["rationalfn.Poly.is_squarefree"],
    "dimensions.audit": ["dimensions.consistency_audit"],
}

# The per-layer metrics a traced run prints: name -> (unit, how it is formed).
TRACE_METRICS = {
    "exactlinalg.quotient.busy_s": ("s", ("busy", "exactlinalg.quotient")),
    "exactlinalg.quotient.kept_ratio":
        ("1", ("ratio", "exactlinalg.quotient.kept", "exactlinalg.quotient.offered")),
    "exactlinalg.linsolver.busy_s": ("s", ("busy", "exactlinalg.linsolver")),
    "exactlinalg.linsolver.solves": ("count", ("calls", "exactlinalg.linsolver_solves")),
    "exactlinalg.nullspace_sparse.busy_s": ("s", ("busy", "exactlinalg.nullspace_sparse")),
    "exactlinalg.echelon.inserts": ("count", ("counter", "exactlinalg.echelon.inserts")),
    "exactlinalg.echelon.grew_ratio":
        ("1", ("ratio", "exactlinalg.echelon.grew", "exactlinalg.echelon.inserts")),
    "exactlinalg.inverse.busy_s": ("s", ("busy", "exactlinalg.inverse")),
    "exactlinalg.rank.busy_s": ("s", ("busy", "exactlinalg.rank")),
    "curve.chart_sections.busy_s": ("s", ("busy", "curve.chart_sections")),
    "curve.chart_sections.calls": ("count", ("calls", "curve.chart_sections")),
    "rationalfn.mul_pole.busy_s": ("s", ("busy", "rationalfn.mul_pole")),
    "rationalfn.mul_pole.calls": ("count", ("calls", "rationalfn.mul_pole")),
    "rationalfn.pairing_residue.busy_s": ("s", ("busy", "rationalfn.pairing_residue")),
    "rationalfn.pairing_residue.calls": ("count", ("calls", "rationalfn.pairing_residue")),
    "rationalfn.rational_roots.busy_s": ("s", ("busy", "rationalfn.rational_roots")),
    "rationalfn.poly_eval.calls": ("count", ("counter", "rationalfn.poly_eval.calls")),
    "deformation.cone.busy_s": ("s", ("busy", "deformation.cone")),
    "deformation.cone.self_s": ("s", ("self", "deformation.cone")),
    "deformation.cone.t1_params": ("count", ("counter", "deformation.cone.t1_params")),
    "deformation.pairing.busy_s": ("s", ("busy", "deformation.pairing")),
    "deformation.anchor.busy_s": ("s", ("busy", "deformation.anchor")),
    "deformation.verify_poisson_map.self_s": ("s", ("self", "deformation.verify_poisson_map")),
    "deformation.symplectic_matrix.calls":
        ("count", ("calls", "deformation.symplectic_matrix")),
    "deformation.hyper_pair.calls": ("count", ("calls", "deformation.hyper_pair")),
    "gaudin.gradients.busy_s": ("s", ("busy", "gaudin.gradients")),
    "gaudin.bracket_table.self_s": ("s", ("self", "gaudin.bracket_table")),
    "gaudin.hitchin_point.busy_s": ("s", ("busy", "gaudin.hitchin_point")),
    "gaudin.flow.busy_s": ("s", ("busy", "gaudin.flow")),
    "gaudin.flow.steps": ("count", ("counter", "gaudin.flow.steps")),
    "gaudin.coefficient_functions.busy_s": ("s", ("busy", "gaudin.coefficient_functions")),
    "spectral.interpolation.busy_s": ("s", ("busy", "spectral.interpolation")),
    "spectral.root_isolation.self_s": ("s", ("self", "spectral.root_isolation")),
    "spectral.squarefree.busy_s": ("s", ("busy", "spectral.squarefree")),
    "liealg.algebra_model.busy_s": ("s", ("busy", "liealg.algebra_model")),
    "liealg.algebra_model.calls": ("count", ("calls", "liealg.algebra_model")),
    "liealg.invariant_polynomials.busy_s": ("s", ("busy", "liealg.invariant_polynomials")),
    "liealg.char_poly_elementary.busy_s": ("s", ("busy", "liealg.char_poly_elementary")),
    "sampling.seeded_model.busy_s": ("s", ("busy", "sampling.seeded_model")),
    "dimensions.audit.busy_s": ("s", ("busy", "dimensions.audit")),
    "cli.runner.busy_s": ("s", ("busy", "cli.runner")),
    "cli.overhead_s": ("s", ("minus", "cli.main", "cli.runner")),
}


def _resolve(module: str, path: str):
    """(owner object, attribute name, original callable) for a traced target."""
    owner = importlib.import_module(f"framedhiggs.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _replace_everywhere(original, wrapper) -> None:
    """Point every framedhiggs module attribute that holds `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name != "framedhiggs" and not name.startswith("framedhiggs."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


class Tracer:
    """Per-job span recorder; one instance lives in a traced worker."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            owner, attr, original = _resolve(module, path)
            wrapper = self._span_wrapper(name, original, OBSERVERS.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _replace_everywhere(original, wrapper)
        for name, (module, path) in COUNTS.items():
            owner, attr, original = _resolve(module, path)
            setattr(owner, attr, self._count_wrapper(name, original))

    def begin(self) -> None:
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)

    def end(self, origin: float, wall: float) -> dict:
        """This job's spans, with times relative to `origin`, its counters and
        its wall time.  A span still open (the job was interrupted while it
        was being opened) ends with the job."""
        spans = [[name, t0 - origin, wall if t1 is None else t1 - origin, parent]
                 for name, t0, t1, parent in self.spans]
        return {"spans": spans, "counters": dict(self.counters), "wall": wall}

    def _span_wrapper(self, name, fn, observe):
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            span = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe:
                observe(self.counters, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        grew = "exactlinalg.echelon.grew" if name == "exactlinalg.echelon.inserts" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[name] += 1
            if grew and result:
                self.counters[grew] += 1
            return result

        return wrapper


# The unwrapped remainder of a job may be at most this many seconds, or this
# share of the job's wall time if that is more: the `cli.main` span times the
# same call as the job's wall time, so only the wrapper's own cost is left.
UNWRAPPED_LIMIT = (1e-3, 0.01)


def job_accounting(spans: list, wall: float) -> tuple[float, str | None]:
    """(unwrapped remainder, problem or None) for one job's spans.

    Each span must lie inside its parent, and each root inside [0, wall];
    with the nesting `layer_totals` checks, the span self times plus the
    remainder, the wall time not inside any span, then add up to `wall`.
    """
    for name, t0, t1, parent in spans:
        lo, hi = (0.0, wall) if parent < 0 else spans[parent][1:3]
        if not lo <= t0 <= t1 <= hi:
            return 0.0, f"span {name} [{t0:.6g}, {t1:.6g}] is not inside [{lo:.6g}, {hi:.6g}]"
    remainder = wall - sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
    limit = max(UNWRAPPED_LIMIT[0], UNWRAPPED_LIMIT[1] * wall)
    if not 0.0 <= remainder <= limit:
        return remainder, (f"{remainder:.6g} s of the {wall:.6g} s job is outside every "
                           f"span (limit {limit:.6g} s)")
    return remainder, None


def _self_times(spans: list) -> list[float]:
    selfs = [t1 - t0 for _, t0, t1, _ in spans]
    for _, t0, t1, parent in spans:
        if parent >= 0:
            selfs[parent] -= t1 - t0
    return selfs


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """busy / self / calls per layer of LAYERS for one job's spans."""
    selfs = _self_times(spans)
    if selfs and min(selfs) < -1e-6:
        raise ValueError("spans overlap instead of nesting")
    layer_of: dict[str, list[str]] = defaultdict(list)
    for layer, names in LAYERS.items():
        for name in names:
            layer_of[name].append(layer)
    totals = {layer: {"busy": 0.0, "self": 0.0, "calls": 0} for layer in LAYERS}
    for index, (name, t0, t1, parent) in enumerate(spans):
        for layer in layer_of.get(name, ()):
            entry = totals[layer]
            entry["calls"] += 1
            entry["self"] += selfs[index]
            if not _has_ancestor_in(spans, parent, LAYERS[layer]):
                entry["busy"] += t1 - t0
    return totals


def _has_ancestor_in(spans: list, parent: int, names: list[str]) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(totals: dict, counters: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from summed layer totals and counters."""
    out = {}
    for metric, (unit, rule) in TRACE_METRICS.items():
        kind, *args = rule
        if kind in ("busy", "self", "calls"):
            value = totals[args[0]][kind]
        elif kind == "counter":
            value = counters.get(args[0], 0)
        elif kind == "ratio":
            den = counters.get(args[1], 0)
            value = counters.get(args[0], 0) / den if den else 0.0
        else:  # minus
            value = totals[args[0]]["busy"] - totals[args[1]]["busy"]
        out[metric] = (value, unit)
    return out
