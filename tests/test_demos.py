"""Every demo script runs to completion, and demo 02 prints its pinned report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The stdout of demos/02_sheaf_cohomology.py, the one caller outside the
# tests of the H^0, H^1 and Serre pairing API.
DEMO_02_STDOUT = """\
One-forms with at most simple poles at three marked points,
holomorphic at infinity (the canonical-with-poles model):
  h0 = 2
  residues at the marked points: [Fraction(-1, 1), Fraction(1, 1), Fraction(0, 1)], at infinity: 0 (sum = 0)
  residues at the marked points: [Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1)], at infinity: 0 (sum = 0)

A negative line bundle: sections forced to vanish at all three points.
  h0 = 0, h1 = 2, chi = -2

Serre duality: H^1 of the negative bundle pairs perfectly with the
sections of the dual twisted by the canonical model.
  pairing matrix: [['1', '2'], ['3', '8']]
  rank = 2 (= h1 = 2)

Value constraints: a rank-2 sheaf whose value at the first point is
confined to a line; the Euler characteristic bookkeeping stays exact.
  h0 = 1, h1 = 0, chi = 1 (h0 - h1 = 1)
"""


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120, cwd=ROOT)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_demo_02_prints_its_pinned_report():
    proc = run_demo(ROOT / "demos" / "02_sheaf_cohomology.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_02_STDOUT
