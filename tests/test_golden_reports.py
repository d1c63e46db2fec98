"""Golden-report guard: `hfb defo`, `gaudin` and `spectral` reports stay
byte-identical.

The digests in golden_defo_reports.json and golden_gaudin_spectral_reports.json
were taken from reports of these configs; any change to a report byte,
intended or not, fails here.  The gaudin flow report prints floats, so a
change in the order of polynomial terms shows up too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from framedhiggs.cli import main

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_defo_reports.json").read_text())
GOLDEN_GAUDIN_SPECTRAL = json.loads(
    (HERE / "golden_gaudin_spectral_reports.json").read_text())


def _digest(tmp_path, subcommand, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _defo_id(entry):
    """group-framing, with the number of points when it is not 3."""
    cfg = entry["config"]
    n = len(cfg["points"])
    return f"{cfg['group']}-{cfg['framing']}" + ("" if n == 3 else f"-{n}pt")


@pytest.mark.parametrize("entry", GOLDEN["reports"], ids=_defo_id)
def test_defo_report_matches_golden_digest(tmp_path, entry):
    assert _digest(tmp_path, "defo", entry["config"]) == entry["sha256"]


def _gaudin_spectral_id(entry):
    """subcommand-group-seed, with the entry's label if it has one."""
    cfg = entry["config"]
    label = f"-{entry['label']}" if "label" in entry else ""
    return f"{entry['subcommand']}-{cfg['group']}-seed{cfg['residues']['seed']}{label}"


@pytest.mark.parametrize("entry", GOLDEN_GAUDIN_SPECTRAL["reports"], ids=_gaudin_spectral_id)
def test_gaudin_spectral_report_matches_golden_digest(tmp_path, entry):
    assert _digest(tmp_path, entry["subcommand"], entry["config"]) == entry["sha256"]
