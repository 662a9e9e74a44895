"""Mutated input files: every JSON reader the CLI reaches gives exit 0 or 2.

Each example takes one input file (the fixture encoding, an equation system
or a geometric refutation), either drops one key or list entry or replaces
one value, and runs the command that reads the file.  A bad file must end in
a usage error (exit 2) printed as one ``error [<code>]: ...`` line, never in
a traceback or in exit 1, which is reserved for Reject.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annforge import canonical_geometric_refutation, local_encode, parse_circuit, system_of
from annforge.cli import main
from annforge.serialize import dumps, refutation_to_json, system_to_json

FIXTURES = Path(__file__).parent / "fixtures"
DROP = object()
REPLACEMENTS = [DROP, None, [], {}, "x", 1.5, float("inf"), float("nan"), 10**30]


def _inputs() -> dict[str, dict]:
    enc = local_encode(parse_circuit((FIXTURES / "squares_diff.txt").read_text()), [1, 2], 0)
    system = system_of(enc.map)
    return {
        "enc.json": json.loads((FIXTURES / "squares_diff_enc.json").read_text()),
        "sys.json": system_to_json(system),
        "r.json": refutation_to_json(canonical_geometric_refutation(enc), system),
    }


INPUTS = _inputs()


def _paths(obj, prefix=()):
    """Every key path into a JSON value, parents before children."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = {name: list(_paths(obj)) for name, obj in INPUTS.items()}


def mutated(name: str, path: tuple, value) -> dict:
    obj = json.loads(json.dumps(INPUTS[name]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    h = json.loads((FIXTURES / "squares_diff_cert.json").read_text())["h"]
    (root / "h.txt").write_text(h)
    for name, obj in INPUTS.items():
        (root / name).write_text(dumps(obj))
    return root


def command(root: Path, name: str, path: Path) -> list[str]:
    """The command that reads ``name``, with ``path`` in its place."""
    files = {n: str(root / n) for n in INPUTS}
    files[name] = str(path)
    if name == "enc.json":
        return ["verify", "--encoding", files["enc.json"], "--poly", str(root / "h.txt")]
    return ["ips-verify", "--system", files["sys.json"], "--refutation", files["r.json"]]


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(INPUTS)))
    return name, draw(st.sampled_from(PATHS[name])), draw(st.sampled_from(REPLACEMENTS))


@settings(max_examples=300, deadline=None)
@given(mutations())
@example(("enc.json", ("seed_len",), float("inf")))
@example(("sys.json", ("n_vars",), float("inf")))
@example(("enc.json", ("seed_len",), float("nan")))
@example(("sys.json", ("n_vars",), float("nan")))
def test_mutated_input_file_exits_0_or_2(workdir, mutation):
    name, path, value = mutation
    target = workdir / f"mutated_{name}"
    target.write_text(json.dumps(mutated(name, path, value)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(command(workdir, name, target))
    assert code in (0, 2), (name, path, value, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error ["), (name, path, value, lines)


def test_unmutated_inputs_are_accepted(workdir):
    for name in INPUTS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(command(workdir, name, workdir / name)) == 0


@pytest.mark.parametrize("text, message", [
    ('{"seed_len": 2.7, "outputs": ["x1", "x2"]}', "{path}: 2.7 is not a JSON integer"),
    ('{"seed_len": 1, "outputs": ["x1"], "w": NaN}', "{path}: NaN is not a JSON integer"),
    ('{"seed_len": Infinity, "outputs": ["x1"]}', "{path}: Infinity is not a JSON integer"),
    ('{"seed_len": 1, "outputs": ["x1"], "w": -Infinity}',
     "{path}: -Infinity is not a JSON integer"),
    ('{"seed_len": true, "outputs": ["x1"]}', "seed_len must be a JSON integer, not a bool"),
    ('{"seed_len": "1", "outputs": ["x1"]}', "seed_len must be a JSON integer, not a str"),
    ('{"field": {"type": "prime", "p": 7.9}, "seed_len": 1, "outputs": ["x1"]}',
     "{path}: 7.9 is not a JSON integer"),
    ('{"field": {"type": "prime", "p": "7"}, "seed_len": 1, "outputs": ["x1"]}',
     "field.p must be a JSON integer, not a str"),
    ('{"field": {"type": "prime", "p": false}, "seed_len": 1, "outputs": ["x1"]}',
     "field.p must be a JSON integer, not a bool"),
    ("[" * 3000 + "]" * 3000, "{path}: JSON nested too deeply"),
], ids=["float", "nan", "infinity", "minus-infinity", "true", "string", "p-float", "p-string",
        "p-false", "nested"])
def test_a_map_file_must_write_its_integers_as_json_integers(tmp_path, capsys, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["stretch", "--map", str(path), "--copies", "1"]) == 2
    assert capsys.readouterr() == ("", f"error [parse.error]: {message.format(path=path)}\n")


@pytest.mark.parametrize("n_vars, kind", [("true", "bool"), ('"1"', "str")])
def test_a_system_file_must_write_n_vars_as_a_json_integer(workdir, tmp_path, capsys,
                                                           n_vars, kind):
    path = tmp_path / "sys.json"
    path.write_text(f'{{"equations": ["x1"], "n_vars": {n_vars}}}')
    assert main(["ips-verify", "--system", str(path), "--refutation",
                 str(workdir / "r.json")]) == 2
    assert capsys.readouterr() == ("", "error [parse.error]: n_vars must be a JSON integer, "
                                       f"not a {kind}\n")
