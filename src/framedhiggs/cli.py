"""Batch front door: config-driven jobs with machine-readable reports.

    hfb <subcommand> --config <file> [--out <file>] [--format json|csv] [--seed N]

Subcommands: dims | defo | gaudin | spectral | audit.  Exit codes: 0 = all
asserted identities passed, 1 = an identity check failed (named in the
report), 2 = invalid input.  Reports embed the tool version, the seed, an
echo of the config and a provenance string for every numeric claim; output
is byte-identical for identical (config, seed, version).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import stat
import sys
from fractions import Fraction

from . import __version__
from .dimensions import audit_grid, consistency_audit, hitchin_fiber_dim
from .curve import MarkedCurve
from .deformation import (FRAMED, TWISTED, TWISTED_DUAL, DeformationTheory,
                          FramedHiggsModel, verify_poisson_map)
from .exactlinalg import rank
from .gaudin import GaudinSystem, worst_drift
from .liealg import (AlgebraModel, FramingSpec, UnsupportedGroupError, algebra_model,
                     framing_specs, group_data, trace_form)
from .sampling import random_residue_tuple, seeded_model
from .spectral import (riemann_hurwitz_genus, spectral_data, spectral_supported,
                       torsor_fiber_report)


class ConfigError(ValueError):
    """Invalid input; the message names the offending field."""


def _fr(value, where: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: not a rational number: {value!r}") from exc


def _int(value, where: str, lo: int, hi: int | None = None) -> int:
    """An integer, or a float holding one; a bool, a string, a fraction or
    any other value is refused rather than read as 0, 1, the number it spells
    or its integer part."""
    if not (type(value) is int or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{where}: not an integer: {value!r}")
    v = int(value)
    if v < lo or hi is not None and v > hi:
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{where}: must be an integer {bound}, got {value!r}")
    return v


def _real(value, where: str) -> float:
    """A JSON number; a bool or a string is refused rather than read as 0.0,
    1.0 or the number it spells."""
    if type(value) not in (int, float):
        raise ConfigError(f"{where}: not a number: {value!r}")
    try:
        v = float(value)
    except OverflowError:   # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return v


def _int_range(bounds, where: str, lo: int) -> range:
    """A [low, high] pair of integers lo <= low <= high, as an inclusive range."""
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ConfigError(f"{where}: expected a [low, high] pair")
    low = _int(bounds[0], where, lo)
    return range(low, _int(bounds[1], where, low) + 1)


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_text(report: dict) -> str:
    """The report as JSON, indented by 2 with sorted keys, written in one
    pass over its values: a Fraction is the string "p/q" ("p" when q = 1), a
    tuple a list, and a float is written to 17 significant digits.  JSON has
    no NaN or infinity: a non-finite value is written as the string "nan",
    "inf" or "-inf".  The bytes are those of ``json.dumps(..., indent=2,
    sort_keys=True)`` on the report so converted."""
    out: list[str] = []
    write = out.append

    def value(x, pad: str):
        if isinstance(x, str):
            write(_ESCAPE(x))
        elif x is None:
            write("null")
        elif x is True or x is False:
            write("true" if x else "false")
        elif isinstance(x, int):
            write(int.__repr__(x))
        elif isinstance(x, Fraction):
            write(f'"{x.numerator}/{x.denominator}"' if x.denominator != 1
                  else f'"{x.numerator}"')
        elif isinstance(x, float):
            write(repr(float(f"{x:.17g}")) if math.isfinite(x) else f'"{float(x)}"')
        elif isinstance(x, dict):
            if not x:
                write("{}")
                return
            if not all(type(k) is str for k in x):
                x = {str(k): v for k, v in x.items()}
            inner, sep = pad + "  ", "{"
            for k in sorted(x):
                write(sep + inner + _ESCAPE(k) + ": ")
                value(x[k], inner)
                sep = ","
            write(pad + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                write("[]")
                return
            inner, sep = pad + "  ", "["
            for v in x:
                write(sep + inner)
                value(v, inner)
                sep = ","
            write(pad + "]")
        else:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    value(report, "\n")
    write("\n")
    return "".join(out)


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return cfg[key]


def _group_data(gid, where: str):
    if not isinstance(gid, str):
        raise ConfigError(f"{where}: expected a group id string, got {gid!r}")
    try:
        return group_data(gid)
    except UnsupportedGroupError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _group(cfg: dict):
    return _group_data(_need(cfg, "group"), "config.group")


def _algebra(cfg: dict) -> AlgebraModel:
    """The matrix model of config.group; groups with dimension data only are refused."""
    try:
        return algebra_model(_group(cfg).group_id)
    except UnsupportedGroupError as exc:
        raise ConfigError(f"config.group: {exc}") from exc


def _matrix(rows, where: str) -> list[list[Fraction]]:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError(f"{where}: expected a matrix as a list of rows, got {rows!r}")
    return [[_fr(x, where) for x in row] for row in rows]


def _points(cfg: dict) -> tuple[Fraction, ...]:
    raw = _need(cfg, "points")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config.points: expected a nonempty list of rationals")
    pts = tuple(_fr(p, f"config.points[{i}]") for i, p in enumerate(raw))
    if len(set(pts)) != len(pts) or any(p == 0 for p in pts):
        raise ConfigError("config.points: points must be distinct, finite and nonzero")
    return pts


_FRAMING_EXPECTED = ("config.framing: expected 'trivial', 'torus' or, with explicit residues, "
                     "one list of basis matrices per point; got {!r}")


def _framing(framing, algebra: AlgebraModel, form, pts) -> tuple[FramingSpec, ...]:
    """The FramingSpecs of config.framing with explicit residues: a selector of
    `framing_specs`, or one list of basis matrices per point."""
    if isinstance(framing, str):
        try:
            return framing_specs(algebra, form, framing, len(pts))
        except ValueError as exc:
            raise ConfigError(_FRAMING_EXPECTED.format(framing)) from exc
    if not isinstance(framing, list) or len(framing) != len(pts) or \
            not all(isinstance(basis, list) for basis in framing):
        raise ConfigError(_FRAMING_EXPECTED.format(framing))
    out = ()
    for k, basis in enumerate(framing):
        mats = [_matrix(b, f"config.framing[{k}]") for b in basis]
        try:
            out += framing_specs(algebra, form, [mats], 1)
        except ValueError as exc:
            raise ConfigError(f"config.framing[{k}]: {exc}") from exc
    return out


def _residues(cfg: dict, algebra: AlgebraModel, framing, pts, seed_override):
    spec = _need(cfg, "residues")
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("config.residues: expected an object with a 'type' field")
    if spec["type"] == "random":
        if not isinstance(framing, str):
            raise ConfigError(_FRAMING_EXPECTED.format(framing))
        seed = spec.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"config.residues.seed: expected an integer, got {seed!r}")
        if seed_override is not None:
            seed = seed_override
        height = _int(spec.get("height", 10), "config.residues.height", 1)
        try:
            return seeded_model(algebra, pts, framing, seed, height), seed
        except ValueError as exc:   # the one ValueError here: an unknown selector
            raise ConfigError(_FRAMING_EXPECTED.format(framing)) from exc
    if spec["type"] == "explicit":
        form = trace_form(algebra.group.group_id)
        framings = _framing(framing, algebra, form, pts)
        mats = _need(spec, "matrices", "config.residues")
        if not isinstance(mats, list):
            raise ConfigError(f"config.residues.matrices: expected a list of matrices, "
                              f"got {mats!r}")
        residues = []
        for k, rows in enumerate(mats):
            where = f"config.residues.matrices[{k}]"
            mat = _matrix(rows, where)
            try:
                residues.append(algebra.element(mat))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        try:
            model = FramedHiggsModel(algebra, form, MarkedCurve(0, pts), framings,
                                     tuple(residues))
        except ValueError as exc:
            raise ConfigError(f"config.residues: {exc}") from exc
        return model, seed_override
    raise ConfigError(f"config.residues.type: unknown type {spec['type']!r}")


def _check(name: str, passed: bool, value, expected, provenance: str) -> dict:
    return {"name": name, "passed": bool(passed), "value": value,
            "expected": expected, "provenance": provenance}


# The fields of a `DimReport` that `dims` and `audit` both print, of a
# `SpectralCurveReport` and of a `TorsorFiberReport`, each as it is:
# `_json_text` converts the values.
_DIM_FIELDS = ("dim_moduli_higgs", "dim_moduli_framed", "base_dim", "fiber_dim",
               "relative_fiber_dim", "framed_torsor_discrepancy",
               "stacky_correction_conjecture")
_SPECTRAL_FIELDS = ("degenerate", "disc_at_marked", "unramified_over_marked", "squarefree",
                    "smooth", "branch_degree", "infinity_multiplicity",
                    "rational_branch_points", "isolated_branch_boxes", "genus")
_TORSOR_FIELDS = ("in_nonramified_smooth_locus", "base_dim", "fiber_dim",
                  "framed_fiber_dim", "relative_fiber_dim", "notes")


def _fields(report, names: tuple[str, ...]) -> dict:
    return {name: getattr(report, name) for name in names}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_dims(cfg: dict, seed) -> dict:
    gd = _group(cfg)
    g = _int(_need(cfg, "genus"), "config.genus", 1)
    n = _int(_need(cfg, "n"), "config.n", 1)
    framing_dims = cfg.get("framing_dims")
    if framing_dims is not None:
        if not isinstance(framing_dims, list) or len(framing_dims) != n:
            raise ConfigError(f"config.framing_dims: expected a list of n = {n} "
                              "dimensions, one per marked point")
        framing_dims = [_int(d, f"config.framing_dims[{i}]", 0, gd.dim - 1)
                        for i, d in enumerate(framing_dims)]
    dim_z_h = cfg.get("dim_z_h")
    if dim_z_h is not None:
        dim_z_h = _int(dim_z_h, "config.dim_z_h", 0)
    try:
        report = consistency_audit(gd, g, n, framing_dims, dim_z_h)
    except ValueError as exc:  # the center cap is the one input left unchecked
        raise ConfigError(f"config.dim_z_h: {exc}") from exc
    checks = [_check(c.name, c.passed, c.lhs, c.rhs, c.provenance) for c in report.checks]
    results = {
        **_fields(report, _DIM_FIELDS),
        "torsor": {"framed_over_unframed": report.torsor.framed_over_unframed,
                   "relative_over_unframed": report.torsor.relative_over_unframed},
        "notes": list(report.notes),
        "provenance": {
            "dim_moduli_higgs": "dim G (2g-2+n) + dim Z(g)",
            "dim_moduli_framed": "2 (dim Z_h + dim G (g-1+n) - sum dim h_x)",
            "base_dim": "(g-1) dim G + n dim B == sum_i (d_i (2g-2+n) - g + 1)",
            "fiber_dim": "(g-1) dim G + n (dim B - dim T) + dim Z(G)",
        },
    }
    return {"checks": checks, "results": results}


def run_audit(cfg: dict, seed) -> dict:
    groups = cfg.get("groups", ["sl(2)", "sl(3)", "gl(2)", "gl(3)", "sp(4)", "so(5)"])
    if not isinstance(groups, list) or not groups:
        raise ConfigError("config.groups: expected a nonempty list of group ids")
    for k, gid in enumerate(groups):
        _group_data(gid, f"config.groups[{k}]")
    genera = _int_range(cfg.get("genus_range", [1, 4]), "config.genus_range", 1)
    ns = _int_range(cfg.get("n_range", [1, 4]), "config.n_range", 1)
    reports = audit_grid(groups, genera, ns)
    checks = []
    rows = []
    for r in reports:
        for c in r.checks:
            checks.append(_check(f"{r.group_id} g={r.genus} n={r.n}: {c.name}",
                                 c.passed, c.lhs, c.rhs, c.provenance))
        rows.append({"group": r.group_id, "genus": r.genus, "n": r.n,
                     **_fields(r, _DIM_FIELDS)})
    return {"checks": checks, "results": {"grid": rows,
            "provenance": {"grid": "closed-form dimension formulas, exact substitution"}}}


def run_defo(cfg: dict, seed) -> dict:
    algebra = _algebra(cfg)
    pts = _points(cfg)
    verify = cfg.get("verify_poisson_map", True)
    if not isinstance(verify, bool):
        raise ConfigError(f"config.verify_poisson_map: expected true or false, got {verify!r}")
    model, used_seed = _residues(cfg, algebra, cfg.get("framing", "trivial"), pts, seed)
    theory = DeformationTheory(model)
    checks = []
    dims = {}
    for kind in (TWISTED, FRAMED, TWISTED_DUAL):
        d = theory.cone(kind)
        dims[kind] = {"h0": d.h0, "h1": d.h1, "h2": d.h2,
                      "chi0": d.chi0, "chi1": d.chi1}
        checks.append(_check(
            f"euler characteristic identity ({kind})", d.euler_identity,
            d.h0 - d.h1 + d.h2, d.chi0 - d.chi1,
            "h0 - h1 + h2 == chi(F0) - chi(F1) for a two-term complex"))
    _, phi = theory.symplectic_matrix()     # integer rows over one denominator
    skew = all(phi[i][j] == -phi[j][i] for i in range(len(phi)) for j in range(i, len(phi)))
    checks.append(_check("pairing skew-symmetry", skew, "skew" if skew else "not skew",
                         "skew", "invariance identity applied to the cup product"))
    fr = theory.cone(FRAMED)
    check = verify_poisson_map(theory) if verify and fr.h0 == 0 and fr.h2 == 0 else None
    phi_rank = rank(phi) if check is None else check.phi_rank
    if fr.h0 == 0 and fr.h2 == 0:
        checks.append(_check("pairing nondegeneracy", phi_rank == fr.h1, phi_rank, fr.h1,
                             "perfectness of the duality pairing when h0 = h2 = 0"))
    results = {"dims": dims, "pairing_rank": phi_rank,
               "seed": used_seed,
               "provenance": {"dims": "mapping-cone linear algebra over the "
                              "two-chart Laurent presentation"}}
    if check is not None:
        checks.append(_check(
            "forgetful map intertwines pairing inverse and anchor", check.ok,
            "zero residual" if check.ok else "nonzero residual", "zero residual",
            "exact matrix identity: forgetful o pairing^{-1} o adjoint == anchor"))
        results["anchor_rank"] = rank(theory.poisson_matrix()[1])
    return {"checks": checks, "results": results}


def run_gaudin(cfg: dict, seed) -> dict:
    algebra = _algebra(cfg)
    pts = _points(cfg)
    n_random = _int(cfg.get("random_points", 5), "config.random_points", 0)
    height = _int(cfg.get("height", 10), "config.height", 1)
    flow_cfg = cfg.get("flow")
    if flow_cfg is not None and not isinstance(flow_cfg, dict):
        raise ConfigError("config.flow: expected an object")
    if flow_cfg is not None:    # every flow field has a default: {} is the default flow
        k = _int(flow_cfg.get("degree_index", 0), "config.flow.degree_index", 0)
        i = _int(flow_cfg.get("site", 0), "config.flow.site", 0)
        j = _int(flow_cfg.get("order", 1), "config.flow.order", 1)
        steps = _int(flow_cfg.get("steps", 10000), "config.flow.steps", 1)
        # coefficient (k, i, j) of the Hitchin map exists exactly for these
        degrees = algebra.group.degrees
        if k >= len(degrees) or i >= len(pts) or j > degrees[k]:
            raise ConfigError(f"config.flow: no coefficient ({k},{i},{j})")
        tol = _real(flow_cfg.get("drift_tolerance", 1e-8), "config.flow.drift_tolerance")
        if tol <= 0:    # a drift is never below 0: the check could not pass
            raise ConfigError(f"config.flow.drift_tolerance: must be positive, "
                              f"got {flow_cfg['drift_tolerance']!r}")
        t_end = _real(flow_cfg.get("t_end", 1.0), "config.flow.t_end")
    model, used_seed = _residues(cfg, algebra, "trivial", pts, seed)
    system = GaudinSystem(algebra, pts)
    checks = []
    hp = system.hitchin_point(model.residues)
    rng = random.Random(used_seed if used_seed is not None else 0)
    tuples = [list(model.residues)]
    for _ in range(n_random):
        tuples.append(random_residue_tuple(algebra, rng, len(pts), height,
                                           zero_sum=False))
    worst, pair = system.commutativity_check(tuples)
    checks.append(_check(
        "pairwise brackets of invariant coefficients vanish", worst == 0,
        str(worst), "0",
        "product Lie-Poisson bracket of spectral-invariant coefficients"))
    results = {
        "seed": used_seed,
        "hitchin_point": {str(k): {f"{i},{j}": v for (i, j), v in coeffs.items()}
                          for k, coeffs in enumerate(hp.coeffs)},
        "normalization": "trace form on the defining representation",
        "bracket_worst_pair": str(pair) if pair else None,
        "provenance": {"hitchin_point": "exact partial-fraction expansion of the "
                       "invariant polynomials of theta(z)"},
    }
    if flow_cfg is not None:
        ham = system.coefficient_functions(k, [(i, j)])[i, j]
        _, drift = system.integrate_flow(model.residues, ham, t_end, steps)
        worst = worst_drift(drift)
        checks.append(_check(
            "conserved quantities along the flow", worst < tol,
            worst, f"< {tol}",
            "fixed-step fourth-order integration of the coefficient flow"))
        results["flow_worst_drift"] = worst
    return {"checks": checks, "results": results}


def run_spectral(cfg: dict, seed) -> dict:
    ranges = model = None
    if "genus_identity_grid" in cfg:
        grid = cfg["genus_identity_grid"]
        if not isinstance(grid, dict):
            raise ConfigError("config.genus_identity_grid: expected an object")
        ranges = {key: _int_range(grid.get(key, default),
                                  f"config.genus_identity_grid.{key}", lo)
                  for key, default, lo in (("r", [2, 5], 2), ("g", [0, 4], 0),
                                           ("n", [1, 5], 1))}
    if "group" in cfg:
        algebra = _algebra(cfg)
        if not spectral_supported(algebra.group):
            raise ConfigError(f"config.group: spectral data requires gl(r) or sl(r) "
                              f"with r in {{2, 3}}, got {algebra.group.group_id}")
        pts = _points(cfg)
        genus = _int(cfg.get("genus", 0), "config.genus", 0)
        model, used_seed = _residues(cfg, algebra, cfg.get("framing", "trivial"), pts, seed)
    if ranges is None and model is None:
        raise ConfigError("config: spectral job needs 'group' or 'genus_identity_grid'")
    checks = []
    results: dict = {}
    if ranges is not None:
        rows = []
        matched = 0
        for r in ranges["r"]:
            for g in ranges["g"]:
                for n in ranges["n"]:
                    gs = riemann_hurwitz_genus(r, g, n)
                    matched += gs == hitchin_fiber_dim(f"gl({r})", g, n, allow_genus_zero=True)
                    rows.append({"r": r, "g": g, "n": n, "genus": gs})
        checks.append(_check("spectral genus matches fiber dimension", matched == len(rows),
                             f"{matched} cases", f"{len(rows)} cases",
                             "Riemann-Hurwitz count vs fiber dimension formula"))
        results["genus_grid"] = rows
    if model is not None:
        rep = spectral_data(algebra, pts, model.residues)
        results["seed"] = used_seed
        results["spectral"] = {
            **_fields(rep, _SPECTRAL_FIELDS),
            "provenance": "exact discriminant numerator; square-free and rational "
                          "root tests; isolating boxes for irrational roots",
        }
        torsor = torsor_fiber_report(rep, genus=genus)
        results["torsor_fibers"] = _fields(torsor, _TORSOR_FIELDS)
        if torsor.in_nonramified_smooth_locus:
            checks.append(_check("relatively framed fiber dimension equals base",
                                 torsor.relative_fiber_dim == torsor.base_dim,
                                 torsor.relative_fiber_dim, torsor.base_dim,
                                 "fiber_dim + n dim T - dim Z(G) == N"))
    return {"checks": checks, "results": results}


RUNNERS = {"dims": run_dims, "audit": run_audit, "defo": run_defo,
           "gaudin": run_gaudin, "spectral": run_spectral}


def _csv_job(subcommand: str, cfg: dict) -> bool:
    """Whether the job's report has grid rows to serve as CSV."""
    return subcommand == "audit" or subcommand == "spectral" and "genus_identity_grid" in cfg


def _to_csv(report: dict) -> str:
    results = report["results"]
    rows = results["grid"] if "grid" in results else results["genus_grid"]
    out = io.StringIO()
    cols = list(rows[0].keys())
    out.write(",".join(cols) + "\n")
    for row in rows:
        out.write(",".join(str(row[c]) for c in cols) + "\n")
    return out.getvalue()


# built once, at import: parsing leaves the parser unchanged
_PARSER = argparse.ArgumentParser(
    prog="hfb", description="framed Higgs bundle toolkit batch runner")
_PARSER.add_argument("subcommand", choices=sorted(RUNNERS))
_PARSER.add_argument("--config", required=True, help="JSON config file")
_PARSER.add_argument("--out", help="output file (default: stdout)")
_PARSER.add_argument("--format", choices=["json", "csv"], default="json")
_PARSER.add_argument("--seed", type=int, help="override the config seed")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    out_fd, new_out = None, False
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{args.config}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text (byte {exc.start})")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{args.config}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except ValueError as exc:   # an integer beyond int's string-conversion limit
            raise ConfigError(f"{args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: top-level config must be an object")
        if args.format == "csv" and not _csv_job(args.subcommand, cfg):
            raise ConfigError("csv format is only available for grid jobs (audit, "
                              "spectral genus grids)")
        if args.out:    # an unusable output path fails before the job, not after it
            existed = os.path.exists(args.out)
            try:
                out_fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
            except OSError as exc:
                raise ConfigError(f"{args.out}: {exc.strerror}")
            new_out = not existed
        body = RUNNERS[args.subcommand](cfg, args.seed)
        report = {
            "tool": {"name": "hfb", "version": __version__},
            "subcommand": args.subcommand,
            "seed": args.seed,
            "config": cfg,
            "checks": body["checks"],
            "all_passed": all(c["passed"] for c in body["checks"]),
            "results": body["results"],
        }
        text = _to_csv(report) if args.format == "csv" else _json_text(report)
    except BaseException as exc:
        if out_fd is not None:
            os.close(out_fd)
        if new_out:     # a job that writes no report leaves no file behind
            os.remove(args.out)
        if not isinstance(exc, ConfigError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if out_fd is not None:
        # the report goes through the descriptor opened above, then a regular
        # file is cut to its length: no second open and no truncation to zero
        # (a device or a pipe cannot be cut)
        try:
            with os.fdopen(out_fd, "wb") as fh:
                fh.write(text.encode())
                if stat.S_ISREG(os.fstat(out_fd).st_mode):
                    fh.truncate()
        except OSError as exc:
            print(f"error: {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    failed = [c["name"] for c in body["checks"] if not c["passed"]]
    if failed:
        print(f"failed checks: {'; '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
