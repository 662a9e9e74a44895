#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and keep every result.

Pair i of a workload runs seed ``base + i`` on both revisions, the parent
first on even i and the change first on odd i.  Every run is made in a fresh
``git archive`` of its revision, with the command and the run length
(``--seconds``) that the change's ``BENCHMARK.json`` gives, plus
``--workload`` and ``--seed``, and its last stdout line is kept as it is.
Each revision is recorded with its commit, its ``src/`` tree and the line
count of the Python files under ``src/``.  The results go to
``BENCH_<label>.json``, which is rewritten after each run, so a cut run
keeps the pairs it finished:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --label evalplan \\
        --workload evaluate:10:10301 --workload certify:5:10101
    python3 scripts/bench_pairs.py --summarize BENCH_evalplan.json

``--summarize`` prints the ``src/`` line count of each side (files written
before it was recorded have none), then, per workload and end-to-end metric
of ``BENCHMARK.json``, the median and quartiles of each side, the pairs the
change won, the metric's bound and the parent's spread (interquartile range
over median).  A metric whose parent spread exceeds its bound is marked
UNRESOLVED: the runs cannot tell a regression of that size from noise.  Run
it from the root of the repository.  ``tests/test_bench_files.py`` checks
every committed ``BENCH_*.json`` with ``layout_problems``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
#: The end-to-end metrics of the benchmark, by name: their direction and bound.
METRICS = {m["name"]: m for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["end_to_end"]}
TOP_KEYS = {"workloads", "command", "revisions", "python", "cpu_count", "host", "pairs", "runs"}
RUN_KEYS = {"workload", "pair", "seed", "side", "order", "result"}


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def revision(rev: str) -> dict:
    return {"commit": git("rev-parse", f"{rev}^{{commit}}").decode().strip(),
            "src_tree": git("rev-parse", f"{rev}:src").decode().strip(),
            "src_lines": src_lines(rev)}


def src_lines(rev: str) -> int:
    """The number of lines of the Python files under src/ at ``rev``."""
    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src").decode().splitlines()
    return sum(git("show", f"{rev}:{path}").count(b"\n") for path in paths
               if path.endswith(".py"))


def run_once(commit: str, argv: list[str]) -> dict:
    """The result line of one benchmark run in a fresh checkout of ``commit``."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as root:
        tarfile.open(fileobj=io.BytesIO(git("archive", commit))).extractall(root)
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{commit[:12]} {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def layout_problems(doc: dict) -> list[str]:
    """What in a BENCH_*.json document departs from the layout; [] if nothing."""
    problems = []
    if set(doc) != TOP_KEYS:
        return [f"top-level keys {sorted(doc)}, expected {sorted(TOP_KEYS)}"]
    if not doc["workloads"] or not all(isinstance(w, str) for w in doc["workloads"]):
        problems.append("workloads is not a nonempty list of names")
    if set(doc["revisions"]) != set(SIDES) or not all(
            isinstance(doc["revisions"][s].get("src_tree"), str) for s in SIDES):
        problems.append("revisions need parent and change, each with a src_tree")
    elif not all(type(doc["revisions"][s].get("src_lines", 0)) is int for s in SIDES):
        problems.append("a revision's src_lines is not an integer")
    if not doc["python"].startswith("Python ") or type(doc["cpu_count"]) is not int:
        problems.append("python or cpu_count malformed")
    pairs: dict[tuple, list] = {}
    for k, run in enumerate(doc["runs"]):
        if set(run) != RUN_KEYS:
            problems.append(f"run {k}: keys {sorted(run)}, expected {sorted(RUN_KEYS)}")
            continue
        if run["workload"] not in doc["workloads"] or run["side"] not in SIDES:
            problems.append(f"run {k}: workload or side not declared")
        result = run["result"]
        metrics = result.get("metrics", {})
        if not {"correct", "attempted", "failed"} <= set(result) or set(metrics) != set(METRICS) \
                or not all(set(m) == {"value", "unit"} for m in metrics.values()):
            problems.append(f"run {k}: result is not a benchmark result line")
        pairs.setdefault((run["workload"], run["pair"]), []).append(run)
    for (workload, i), runs in sorted(pairs.items()):
        if sorted(r["side"] for r in runs) != sorted(SIDES) \
                or sorted(r["order"] for r in runs) != [0, 1] \
                or len({r["seed"] for r in runs}) != 1:
            problems.append(f"{workload} pair {i}: not one run per side, in order 0 and 1, "
                            "on one seed")
    if {w for w, _ in pairs} != set(doc["workloads"]):
        problems.append("a declared workload has no runs")
    return problems


def _pairs(doc: dict, workload: str) -> list[dict]:
    """The complete pairs of ``workload``: one result per side."""
    pairs: dict[int, dict] = {}
    for run in doc["runs"]:
        if run["workload"] == workload:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    return [p for p in pairs.values() if len(p) == 2]


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")[::2] \
        if len(values) > 1 else values * 2


def _spread(values: list[float]) -> float:
    """The interquartile range relative to the median."""
    q1, q3 = _quartiles(values)
    return (q3 - q1) / statistics.median(values)


def unresolved(doc: dict) -> list[str]:
    """``workload/metric`` for each end-to-end metric whose parent runs
    spread wider than its bound: such a metric cannot show a regression of
    that size, so it reads as unresolved, not as unchanged."""
    out = []
    for workload in doc["workloads"]:
        pairs = _pairs(doc, workload)
        for name, metric in METRICS.items():
            values = [p["parent"]["metrics"][name]["value"] for p in pairs]
            if values and _spread(values) > metric["bound"]:
                out.append(f"{workload}/{name}")
    return out


def summarize(doc: dict) -> str:
    """Median [quartiles] of each side, the pairs the change won, and the
    metrics whose parent spread leaves them unresolved."""
    lines = {s: doc["revisions"][s].get("src_lines") for s in SIDES}
    out = [f"src/ lines: {lines['parent']} -> {lines['change']}" if None not in lines.values()
           else "src/ lines: not recorded"]
    for workload in doc["workloads"]:
        pairs = _pairs(doc, workload)
        out.append(f"{workload} ({len(pairs)} pairs)")
        for name, metric in METRICS.items():
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
            if not values["parent"]:
                continue
            won = sum((c > a) == (metric["better"] == "higher") and c != a
                      for a, c in zip(values["parent"], values["change"]))
            med = {s: statistics.median(v) for s, v in values.items()}
            quart = {s: _quartiles(v) for s, v in values.items()}
            spread = _spread(values["parent"])
            out.append(f"  {name}: {med['parent']:.4g} [{quart['parent'][0]:.4g}, "
                       f"{quart['parent'][1]:.4g}] -> {med['change']:.4g} "
                       f"[{quart['change'][0]:.4g}, {quart['change'][1]:.4g}], "
                       f"{med['change'] / med['parent']:.3f}x, change won {won}/{len(pairs)}, "
                       f"{metric['better']} is better, bound {metric['bound']:g}, "
                       f"parent spread {spread:.3f}"
                       + (" UNRESOLVED" if spread > metric["bound"] else ""))
        ok = all(p[s]["correct"] and not p[s]["failed"] for p in pairs for s in SIDES)
        out.append(f"  every run correct with 0 failed: {ok}")
    flagged = unresolved(doc)
    out.append(f"unresolved: {', '.join(flagged) if flagged else 'none'}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="revision of the parent side")
    ap.add_argument("--change", help="revision of the change side")
    ap.add_argument("--label", help="writes BENCH_<label>.json")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME:PAIRS:SEED",
                    help="run PAIRS pairs of NAME from seed SEED (repeatable)")
    ap.add_argument("--host", default=f"{os.cpu_count()} CPUs, {platform.machine()}",
                    help="free-text description of the machine")
    ap.add_argument("--summarize", metavar="FILE", help="print the summary of FILE and exit")
    args = ap.parse_args(argv)
    if args.summarize:
        print(summarize(json.loads(Path(args.summarize).read_text())))
        return 0
    if not (args.parent and args.change and args.label and args.workload):
        ap.error("--parent, --change, --label and --workload are required")
    plan = []
    for spec in args.workload:
        name, count, base = spec.split(":")
        plan.append((name, int(count), int(base)))
    revisions = {"parent": revision(args.parent), "change": revision(args.change)}
    benchmark = json.loads(git("show", f"{args.change}:BENCHMARK.json"))
    command = benchmark["command"]
    seconds = ["--seconds", f"{benchmark['run_seconds']:g}"]
    doc = {
        "workloads": [name for name, _, _ in plan],
        "command": " ".join([*command, "--workload", "WORKLOAD", "--seed", "SEED", *seconds]),
        "revisions": revisions,
        "python": f"Python {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "host": args.host,
        "pairs": "pair i of a workload runs seed "
                 + ", ".join(f"{base} + i ({name})" for name, _, base in plan)
                 + ", parent first on even i and change first on odd i, each run in a fresh"
                 " checkout of its revision",
        "runs": [],
    }
    out = Path(f"BENCH_{args.label}.json")
    for name, count, base in plan:
        for i in range(count):
            sides = SIDES if i % 2 == 0 else SIDES[::-1]
            for order, side in enumerate(sides):
                argv = [*command, "--workload", name, "--seed", str(base + i), *seconds]
                result = run_once(revisions[side]["commit"], argv)
                doc["runs"].append({"workload": name, "pair": i, "seed": base + i,
                                    "side": side, "order": order, "result": result})
                out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{name} pair {i} {side}: "
                      f"{result['metrics']['ops_per_s']['value']:.1f} ops/s", flush=True)
    problems = layout_problems(doc)
    if problems:
        raise SystemExit("\n".join(problems))
    print(summarize(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
