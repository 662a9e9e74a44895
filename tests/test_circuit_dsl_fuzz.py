"""Circuit DSL text fuzzed through the CLI: ``metrics``, ``pit`` and
``encode`` read it, and every text must end in a defined exit code (0, 2 or
3; none of these commands has a verdict to mismatch without ``--expect``)
and never in a traceback.  An encoding that ``encode`` writes for two
inputs must be one that ``annihilate`` reads back and certifies (exit 0)."""

from __future__ import annotations

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from annforge.cli import main

INPUT_NAMES = ["x1", "x2", "a_b"]
BAD_GATE_NAMES = ["5", "=", "g-1", "x1", "1/2", "g1"]
LITERALS = ["0", "1", "-3", "3/4", "-1/0", str(10**40), "-" + str(7**50) + "/3"]


def squaring_chain(gates: int, literal: str = "1") -> str:
    """g1 = x1 + literal, g_{k+1} = g_k * g_k: degree bound 2^(gates-1)."""
    lines = ["circuit chain", "inputs x1", f"g1 = add x1 {literal}"]
    lines += [f"g{k + 1} = mul g{k} g{k}" for k in range(1, gates)]
    return "\n".join(lines + [f"output g{gates}"]) + "\n"


@st.composite
def circuit_texts(draw):
    """Lines drawn from the DSL's pieces: forward and undefined references,
    bad gate names, unknown ops, wrong fan-in, huge literals, a missing or
    misplaced output, and squaring chains.  Each piece is well formed nine
    times in ten, so that a good share of the texts parse."""

    def pick(common: list[str], rare: list[str]) -> str:
        return draw(st.sampled_from(common if draw(st.integers(0, 9)) else rare))

    if draw(st.integers(0, 4)) == 0:
        return squaring_chain(draw(st.integers(1, 10)), draw(st.sampled_from(LITERALS)))
    inputs = list(dict.fromkeys(pick(INPUT_NAMES, ["1x", "g1", "x1"])
                                for _ in range(draw(st.integers(1, 3)))))
    gates = [pick([f"g{i}"], BAD_GATE_NAMES) for i in range(1, draw(st.integers(1, 6)))]
    lines = []
    if draw(st.booleans()):
        lines.append("circuit " + pick(["c"], ["two words", ""]))
    if draw(st.integers(0, 9)):
        lines.append(" ".join(["inputs"] + inputs))
    for i, name in enumerate(gates):
        # Mostly earlier gates and inputs; rarely a literal, a later gate
        # (a forward reference) or an undefined name.
        refs = (inputs + gates[:i], LITERALS + gates[i:] + ["g9"])
        op = pick(["add", "mul"], ["pow"])
        operands = [pick(*refs) for _ in range(int(pick(["2"], ["1", "3"])))]
        lines.append(" ".join([name, "=", op] + operands))
    if draw(st.integers(0, 9)):
        lines.append("output " + pick(gates[-1:] or inputs, gates + LITERALS))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "metrics": [],
    "metrics-gf7": ["--field", "prime:7"],
    "pit": ["--trials", "3"],
    "pit-gf7": ["--trials", "3", "--field", "prime:7"],
    "encode": ["--alpha", "1,2", "--beta", "0"],
    "encode-one-input": ["--alpha", "3", "--beta", "1/2", "--field", "prime:101"],
    "encode-annihilate": ["--alpha", "1,2", "--beta", "5"],
}


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), circuit_texts())
@example("metrics", "circuit t\ninputs x1\n5 = add x1 x1\ng2 = mul 5 x1\noutput g2\n")
@example("pit", "circuit t\ninputs x1\n= = add x1 x1\noutput =\n")
@example("pit", "circuit t\ninputs x1\ng1 = add g2 x1\ng2 = add x1 x1\noutput g2\n")
@example("encode", "circuit t\ninputs x1 x2\ng1 = add x1 x2\n")
@example("pit", squaring_chain(23))
@example("pit", squaring_chain(40, str(10**40)))
@example("pit-gf7", squaring_chain(40))
@example("metrics", squaring_chain(200))
@example("encode-one-input", squaring_chain(200, str(10**40)))
@example("encode-annihilate", "circuit c\ninputs g1 x2\nh = add g1 x2\nk = mul h g1\noutput k\n")
def test_fuzzed_circuit_text_exits_with_a_defined_code(tmp_path_factory, command, text):
    root = tmp_path_factory.mktemp("dsl")
    (root / "c.txt").write_text(text)
    argv = [command.split("-")[0], "--circuit", str(root / "c.txt"), *COMMANDS[command]]
    if argv[0] == "encode":
        argv += ["--out", str(root / "enc.json")]
    code, err = run(argv)
    assert code in (0, 2, 3), (command, text, err)
    assert "Traceback" not in err
    if command == "encode-annihilate" and code == 0:
        assert run(["annihilate", "--encoding", str(root / "enc.json")]) == (0, ""), text
