"""The scripts under scripts/ run end to end in a fresh interpreter.

degree_survey.py is the one caller outside the tests that checks
annihilators of power-sum maps, whose outputs the peel cannot pair, so it
exercises the full-expansion end of encoding.annihilates."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import annforge

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(annforge.__file__).parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True,
                          text=True, env=env, timeout=120)


def test_demo_pipeline_accepts_the_refutation():
    proc = run_script("demo_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    assert "verdict: Accept" in proc.stdout


def test_degree_survey_finds_d_to_the_n_for_power_sums():
    proc = run_script("degree_survey.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line.startswith("power-sum")]
    assert len(rows) == 4
    for _, n, d, found, _, predicted, _ in rows:
        assert int(found) == int(predicted) == int(d) ** int(n)
