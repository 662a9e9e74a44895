"""Every committed BENCH_*.json is in the one layout that
scripts/bench_pairs.py writes: the workloads, the command, both revisions
with their src/ trees (and, in files written since it was recorded, their
src/ line counts), the Python version, the CPU count, the host, how the
pairs were seeded and ordered, and one raw result line per run.  Only JSON
is read; no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_in_the_pairs_layout(path):
    doc = json.loads(path.read_text())
    assert bench_pairs.layout_problems(doc) == []
    assert all(run["result"]["correct"] and run["result"]["failed"] == 0
               for run in doc["runs"])


def test_layout_check_finds_a_missing_run_and_a_bare_workload_key():
    doc = json.loads((ROOT / "BENCH_packed.json").read_text())
    doc["runs"].pop()
    assert any("pair" in problem for problem in bench_pairs.layout_problems(doc))
    doc["workload"] = doc.pop("workloads")[0]
    assert bench_pairs.layout_problems(doc)


def test_unresolved_flags_a_metric_whose_parent_spread_exceeds_its_bound():
    doc = json.loads((ROOT / "BENCH_intcore.json").read_text())
    assert bench_pairs.unresolved(doc) == []
    parent_runs = [run for run in doc["runs"]
                   if run["workload"] == "certify" and run["side"] == "parent"]
    for k, run in enumerate(parent_runs):  # half the parent runs 3x the others
        value = run["result"]["metrics"]["ops_per_s"]["value"]
        run["result"]["metrics"]["ops_per_s"]["value"] = value * (0.5 if k % 2 else 1.5)
    assert bench_pairs.unresolved(doc) == ["certify/ops_per_s"]
    assert "ops_per_s" in next(line for line in bench_pairs.summarize(doc).splitlines()
                               if line.endswith("UNRESOLVED"))


def test_src_line_counts_are_optional_integers_and_summarized():
    doc = json.loads((ROOT / "BENCH_intcore.json").read_text())
    assert "src_lines" not in doc["revisions"]["parent"]  # an older file
    assert bench_pairs.summarize(doc).splitlines()[0] == "src/ lines: not recorded"
    doc["revisions"]["parent"]["src_lines"] = 3538
    doc["revisions"]["change"]["src_lines"] = 3530
    assert bench_pairs.layout_problems(doc) == []
    assert bench_pairs.summarize(doc).splitlines()[0] == "src/ lines: 3538 -> 3530"
    doc["revisions"]["change"]["src_lines"] = "3530"
    assert bench_pairs.layout_problems(doc) == ["a revision's src_lines is not an integer"]


def test_src_lines_counts_the_python_lines_under_src():
    head = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))
    try:
        counted = bench_pairs.src_lines("HEAD")
    except (subprocess.CalledProcessError, OSError):  # not a git checkout, or no git
        pytest.skip("no git history to read")
    if bench_pairs.git("status", "--porcelain", "--", "src").strip():
        pytest.skip("src/ differs from HEAD")
    assert counted == head
