"""Work-count gates: ceilings on deterministic counts of the work a command
does, which, unlike wall time, do not drift with the host.

The five-step pipeline (encode, annihilate, verify, ips-refute, ips-verify)
on two false claims builds at most ``FRACTION_CEILING`` Fractions in all,
counted as calls of ``fractions.Fraction.__new__`` through a
``sys.setprofile`` hook.  Polynomial text is read and written, and the peel
divides by its pivot, on the stored integers, so Fractions appear only where
a field value crosses the API edge.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from annforge.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
FRACTION_CEILING = 400
#: The squaring chain x1 + 2, g_{k+1} = g_k^2, with s = 4 gates.
CHAIN4 = """circuit chain4
inputs x1
g1 = add x1 2
g2 = mul g1 g1
g3 = mul g2 g2
g4 = mul g3 g3
output g4
"""


def pipeline(root: Path, circuit: Path, alpha: str, beta: str) -> list[int]:
    """The exit codes of the five steps on the claim circuit(alpha) = beta."""
    enc, cert, h, r, system = (str(root / name) for name in
                               ("enc.json", "cert.json", "h.txt", "r.json", "sys.json"))
    codes = [main(["encode", "--circuit", str(circuit), f"--alpha={alpha}", f"--beta={beta}",
                   "--out", enc])]
    codes.append(main(["annihilate", "--encoding", enc, "--out", cert]))
    Path(h).write_text(json.loads(Path(cert).read_text())["h"])
    codes.append(main(["verify", "--encoding", enc, "--poly", h]))
    codes.append(main(["ips-refute", "--encoding", enc, "--out", r, "--system-out", system]))
    codes.append(main(["ips-verify", "--system", system, "--refutation", r]))
    return codes


def count_calls(code, run) -> tuple[object, int]:
    """run() and the number of calls of the Python function ``code`` it made."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def test_certify_pipeline_builds_few_fractions(tmp_path):
    (tmp_path / "chain4.txt").write_text(CHAIN4)
    claims = [(FIXTURES / "squares_diff.txt", "2,-1", "5"), (tmp_path / "chain4.txt", "1", "7")]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return [pipeline(tmp_path, *claim) for claim in claims]

    codes, fractions = count_calls(Fraction.__new__.__code__, run)
    assert codes == [[0] * 5] * 2
    assert fractions <= FRACTION_CEILING, fractions
