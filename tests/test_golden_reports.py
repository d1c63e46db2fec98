"""Golden-report guard: `hfb defo` reports stay byte-identical.

The digests in golden_defo_reports.json were taken from reports of these
configs; any change to a report byte, intended or not, fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from framedhiggs.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_defo_reports.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN["reports"],
                         ids=lambda e: f"{e['config']['group']}-{e['config']['framing']}")
def test_defo_report_matches_golden_digest(tmp_path, entry):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(entry["config"]))
    out = tmp_path / "report.json"
    assert main(["defo", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["sha256"]
