"""Correctness gate for benchmark jobs: golden reports and independent oracles.

A job passes when `hfb` exits 0 with every check passed, the report matches
its golden digest (when the input has one), repeats byte for byte, and
passes the oracle for its shape.  The oracles use closed forms or `sympy`,
not the code under test:

* `defo`, trivial framing: framed h1 = 2 dim G (n - 1);
* `gaudin`: the worst bracket is exactly "0", and the flow drift stays
  within the configured tolerance;
* `spectral`: every rational branch point is a root of the square-free
  discriminant numerator, computed here with `sympy` from the residue
  matrices; every real isolating box brackets a sign change of it; and the
  rational points and boxes together count its distinct real and non-real
  roots; genus-grid rows match the Riemann-Hurwitz closed form;
* `dims`: dim M_Higgs = dim G (2g - 2 + n) + dim Z(g);
* `audit`: one row per (group, genus, n) of the requested grid.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def _floats_to_none(value):
    if isinstance(value, float):
        return None
    if isinstance(value, dict):
        return {k: _floats_to_none(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_floats_to_none(v) for v in value]
    return value


def _has_float(value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(_has_float(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_float(v) for v in value)
    return False


def digests(text: bytes) -> dict:
    """raw: the report bytes; exact: the report with every float blanked."""
    report = json.loads(text)
    exact = json.dumps(_floats_to_none(report), sort_keys=True).encode()
    return {"raw": hashlib.sha256(text).hexdigest(),
            "exact": hashlib.sha256(exact).hexdigest(),
            "has_float": _has_float(report)}


def golden_entry(job, text: bytes) -> dict:
    d = digests(text)
    return {"shape": job.shape,
            "sha256": d["exact"] if d["has_float"] else d["raw"],
            "compare": "exact" if d["has_float"] else "raw"}


def golden_mismatch(entry: dict, text: bytes) -> str | None:
    d = digests(text)
    if d[entry["compare"]] != entry["sha256"]:
        return f"report differs from the golden report ({entry['compare']} digest)"
    return None


def run_entry(job, text: bytes, src: str) -> dict:
    """What a later run must reproduce for the same input: the golden entry,
    and the raw bytes as long as the source digest `src` is unchanged."""
    return dict(golden_entry(job, text), raw=digests(text)["raw"], src=src)


def run_mismatch(entry: dict, text: bytes, src: str) -> str | None:
    """Exact fields must match across code versions (floats are left to the
    oracles); the same code must write the same bytes."""
    if golden_mismatch(entry, text) or (entry["src"] == src
                                        and entry["raw"] != digests(text)["raw"]):
        return "report differs from the one an earlier run wrote"
    return None


# -- oracles ------------------------------------------------------------------

def group_dim(group: str) -> tuple[int, int]:
    """(dim G, dim Z(g)) from the group id alone."""
    if group == "g2":
        return 14, 0
    family, r = group.rstrip(")").split("(")
    r = int(r)
    if family == "gl":
        return r * r, 1
    if family == "sl":
        return r * r - 1, 0
    if family == "sp":
        k = r // 2
        return k * (2 * k + 1), 0
    if family == "so":
        return r * (r - 1) // 2, 0
    raise ValueError(f"no dimension for {group!r}")


def _check_value(report: dict, name: str):
    for check in report["checks"]:
        if check["name"] == name:
            return check["value"]
    return None


def _oracle_defo(job, report: dict) -> str | None:
    cfg = job.config
    if cfg.get("framing", "trivial") != "trivial":
        return None
    dim_g, _ = group_dim(cfg["group"])
    want = 2 * dim_g * (len(cfg["points"]) - 1)
    got = report["results"]["dims"]["framed"]["h1"]
    if got != want:
        return f"framed h1 = {got}, expected 2 dim G (n - 1) = {want}"
    return None


def _oracle_gaudin(job, report: dict) -> str | None:
    worst = _check_value(report, "pairwise brackets of invariant coefficients vanish")
    if worst != "0":
        return f"worst bracket is {worst!r}, expected exactly '0'"
    flow = job.config.get("flow")
    if flow:
        drift = report["results"].get("flow_worst_drift")
        if not isinstance(drift, float) or not drift < flow["drift_tolerance"]:
            return f"flow drift {drift!r} is not below {flow['drift_tolerance']}"
    return None


def discriminant_numerator(group: str, points: list, residues: list):
    """N(z) = disc_lambda det(lambda - M(z)), M = sum_i A_i prod_{j != i}(z - x_j).

    M(z) = q(z) theta(z) with q = prod (z - x_i), so N has the branch points
    of the spectral cover as its roots.  Computed with sympy alone.
    """
    import sympy
    z, lam = sympy.symbols("z lam")
    xs = [sympy.Rational(str(p)) for p in points]
    size = len(residues[0])
    m = sympy.zeros(size, size)
    for i, mat in enumerate(residues):
        weight = sympy.Integer(1)
        for j, x in enumerate(xs):
            if j != i:
                weight *= (z - x)
        m += sympy.Matrix([[sympy.Rational(str(v)) for v in row] for row in mat]) * weight
    char = (lam * sympy.eye(size) - m).det()
    return sympy.Poly(sympy.discriminant(sympy.expand(char), lam), z)


def _seeded_residues(cfg: dict) -> list:
    """Residue matrices of a random-residue config, from the sampling layer."""
    from framedhiggs.sampling import seeded_model
    res = cfg["residues"]
    model = seeded_model(cfg["group"], [Fraction(str(p)) for p in cfg["points"]],
                         cfg.get("framing", "trivial"), res["seed"], res["height"])
    return [el.matrix for el in model.residues]


def _squarefree_discriminant(cfg: dict):
    disc = discriminant_numerator(cfg["group"], cfg["points"], _seeded_residues(cfg))
    return disc.sqf_part()


def nonreal_branch_points(cfg: dict) -> int:
    """Number of distinct non-real roots of the discriminant numerator."""
    sqf = _squarefree_discriminant(cfg)
    return sqf.degree() - sqf.count_roots() if sqf.degree() > 0 else 0


def _oracle_spectral(job, report: dict) -> str | None:
    cfg = job.config
    results = report["results"]
    for row in results.get("genus_grid", []):
        r, g, n = row["r"], row["g"], row["n"]
        want = r * (g - 1) + 1 + r * (r - 1) // 2 * (2 * g - 2 + n)
        if row["genus"] != want:
            return f"genus {row['genus']} for r={r}, g={g}, n={n}, expected {want}"
    if "group" not in cfg or results["spectral"]["degenerate"]:
        return None
    import sympy
    spectral = results["spectral"]
    sqf = _squarefree_discriminant(cfg)
    rational = {sympy.Rational(x) for x, _ in spectral["rational_branch_points"]}
    for x in rational:
        if sqf.eval(x) != 0:
            return f"rational branch point {x} is not a root of the discriminant"
    boxes = spectral["isolated_branch_boxes"]
    real = [b for b in boxes if b[0] == "real"]
    for _, lo, hi in real:
        a, b = (sqf.eval(sympy.Rational(str(v))) for v in (lo, hi))
        if not a * b < 0:
            return f"real box [{lo}, {hi}] brackets no sign change of the discriminant"
    # Every distinct root is reported once: rational, in a real box, or in a
    # complex box.
    real_roots = sqf.count_roots()
    if len(rational) + len(real) != real_roots:
        return (f"{len(rational)} rational branch points and {len(real)} real boxes, "
                f"but the discriminant has {real_roots} distinct real roots")
    if len(boxes) - len(real) != sqf.degree() - real_roots:
        return (f"{len(boxes) - len(real)} complex boxes, but the discriminant has "
                f"{sqf.degree() - real_roots} distinct non-real roots")
    return None


def _oracle_dims(job, report: dict) -> str | None:
    cfg = job.config
    dim_g, dim_z = group_dim(cfg["group"])
    want = dim_g * (2 * cfg["genus"] - 2 + cfg["n"]) + dim_z
    got = report["results"]["dim_moduli_higgs"]
    if got != want:
        return f"dim_moduli_higgs = {got}, expected dim G (2g - 2 + n) + dim Z = {want}"
    return None


def _oracle_audit(job, report: dict) -> str | None:
    cfg = job.config
    (g_lo, g_hi), (n_lo, n_hi) = cfg["genus_range"], cfg["n_range"]
    want = {(grp, g, n) for grp in cfg["groups"]
            for g in range(g_lo, g_hi + 1) for n in range(n_lo, n_hi + 1)}
    got = {(row["group"], row["genus"], row["n"]) for row in report["results"]["grid"]}
    if got != want or len(report["results"]["grid"]) != len(want):
        return f"audit grid has {len(got)} rows, expected {len(want)}"
    return None


ORACLES = {"defo": _oracle_defo, "gaudin": _oracle_gaudin,
           "spectral": _oracle_spectral, "dims": _oracle_dims, "audit": _oracle_audit}


def verdict(job, rc, error, text: bytes | None) -> str | None:
    """None when the finished job is correct, else the reason it failed."""
    if error:
        return f"hfb raised {error}"
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if text is None:
        return "no report written"
    report = json.loads(text)
    if not report["all_passed"]:
        return "report has failed checks"
    return ORACLES[job.sub](job, report)
