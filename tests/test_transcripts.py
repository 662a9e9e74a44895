"""The committed CLI transcripts replay byte-identically.

``tests/fixtures/cli_transcripts.json`` holds the corpus that
``scripts/transcripts.py`` builds: each call's argv, environment, input
files, exit code, stdout, stderr and written files.  Each call is replayed
in-process in a fresh directory; any difference fails.  A change that
alters output on purpose regenerates the fixture with
``scripts/transcripts.py --write``."""

from __future__ import annotations

import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from annforge.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("transcripts", ROOT / "scripts" / "transcripts.py")
transcripts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(transcripts)

SCENARIOS = json.loads(transcripts.FIXTURE.read_text(encoding="utf-8"))["scenarios"]
CALLS = [call for scenario in SCENARIOS for call in scenario["calls"]]
SOURCE_LOCATION = re.compile(r"\.py:\d+")
CODED_ERROR = re.compile(r"error \[[a-z_]+(\.[a-z_]+)+\]: ")


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s["name"])
def test_scenario_replays_byte_identically(scenario):
    for i, call, outcome in transcripts.replay_scenario(scenario):
        assert "Traceback" not in outcome["stderr"], (i, call["argv"])
        assert not SOURCE_LOCATION.search(outcome["stderr"]), (i, call["argv"])
        assert transcripts.differences(call, outcome) == [], (i, call["argv"])


def test_corpus_covers_every_subcommand_and_exit_code():
    assert len(CALLS) >= 1000
    assert transcripts.FIXTURE.stat().st_size < 2 * 2**20
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    for command in subparsers.choices:
        runs = [c for c in CALLS if c["argv"][0] == command and c["exit"] == 0]
        assert any("--json" in c["argv"] for c in runs), command
        assert any("--json" not in c["argv"] for c in runs), command
    assert {c["exit"] for c in CALLS} == {0, 1, 2, 3}
    fields = {b for c in CALLS for a, b in zip(c["argv"], c["argv"][1:]) if a == "--field"}
    assert set(transcripts.FIELDS) <= fields


def test_exit_1_means_reject_fooled_or_a_verdict_mismatch():
    causes = Counter()
    for call in CALLS:
        if call["exit"] != 1:
            continue
        argv, out = call["argv"], call["stdout"]
        report = json.loads(out) if "--json" in argv else {}
        if argv[0] == "verify":
            assert report.get("annihilates") is False or out == "annihilates: no\n", argv
        elif argv[0] == "hit":
            assert report.get("result") == "fooled" or out == "result: fooled\n", argv
        elif argv[0] == "ips-verify":
            assert report.get("accepted") is False or out.startswith("Reject"), argv
        else:
            assert argv[0] == "pit" and "--expect" in argv, argv
            verdict = report.get("verdict") or out.split()[1]
            assert verdict != argv[argv.index("--expect") + 1], argv
        causes[argv[0]] += 1
    assert set(causes) == {"verify", "hit", "ips-verify", "pit"}


def test_every_refusal_prints_one_coded_error_line():
    # Exit 2 and 3 end in one "error [<code>]: <message>" line, after any
    # warning: lines; argparse's own refusals print its usage instead.
    usage = []
    for call in CALLS:
        if call["exit"] not in (2, 3):
            continue
        if call["stderr"].startswith("usage: "):
            usage.append(call["argv"])
            continue
        *warnings, last = call["stderr"].splitlines()
        assert CODED_ERROR.match(last), call["argv"]
        assert all(line.startswith("warning: ") for line in warnings), call["argv"]
    assert len(usage) == 4


def test_every_stderr_line_is_short():
    # A refusal quotes a long input cut (config.quote), so no line grows
    # with its input; the longest is argparse's "invalid choice" usage line.
    assert max(len(line) for call in CALLS for line in call["stderr"].splitlines()) <= 300
