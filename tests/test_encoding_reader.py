"""Encoding files are read from their claim alone.

``encoding_from_json`` rebuilds the encoding from ``provenance`` and compares
the stored ``outputs`` and ``seed_len`` (and ``seed_names`` and ``blocks``
when present) with what ``encoding_to_json`` writes for it.  Every file
``encode`` writes must read back; a file whose stored text differs from the
canonical text, even by an equal polynomial, must exit 2.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annforge.circuit import random_circuit, serialize_circuit
from annforge.cli import main
from annforge.fields import QQ, PrimeField
from annforge.serialize import dumps, encoding_from_json, encoding_to_json

FIXTURES = Path(__file__).parent / "fixtures"
FIELDS = {"rational": QQ, "prime:7": PrimeField(7), f"prime:{2**61 - 1}": PrimeField(2**61 - 1)}


def run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("encodings")


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(FIELDS)), n_inputs=st.integers(1, 3),
       size=st.integers(1, 6), seed=st.integers(0, 10**6),
       values=st.lists(st.integers(-9, 9) | st.fractions(max_denominator=5),
                       min_size=4, max_size=4))
def test_every_written_encoding_reads_back(workdir, spec, n_inputs, size, seed, values):
    # Denominators stay below 7, so every value lies in each field; the
    # last value is beta, so the claims are true and false alike.
    field = FIELDS[spec]
    circuit = random_circuit(n_inputs, size, seed, const_pool=(1, -1, 2), field=field)
    (workdir / "c.txt").write_text(serialize_circuit(circuit))
    alpha = ",".join(str(v) for v in values[:n_inputs])
    out = workdir / "enc.json"
    code, err = run("encode", "--circuit", str(workdir / "c.txt"), f"--alpha={alpha}",
                    f"--beta={values[-1]}", "--field", spec, "--out", str(out))
    assert code == 0, err
    text = out.read_text()
    enc = encoding_from_json(json.loads(text))
    assert dumps(encoding_to_json(enc)) == text
    assert run("metrics", "--encoding", str(out)) == (0, "")


def fixture_with(change) -> dict:
    obj = json.loads((FIXTURES / "squares_diff_enc.json").read_text())
    change(obj)
    return obj


def metrics_of(tmp_path, obj) -> tuple[int, str]:
    path = tmp_path / "enc.json"
    path.write_text(json.dumps(obj))
    return run("metrics", "--encoding", str(path))


@pytest.mark.parametrize("key, value", [
    ("outputs", ["x1 + 0", "x2", "x2 + y1", "-x1 - x2 + y2", "-x1 - y1 + y3",
                 "-y2*y3 + y4", "y4"]),  # equal polynomials, not canonical text
    ("outputs", ["x1", "x2", "y1 + x2", "-x1 - x2 + y2", "-x1 - y1 + y3",
                 "-y2*y3 + y4", "y4"]),  # term order
    ("outputs", ["x1", "x2", "x2 + y1", "-x1 - x2 + y2", "-x1 - y1 + y3",
                 "-y2*y3 + y4", "y4 - 1"]),  # another claim's output block
    ("outputs", ["x1", "x2", "x2 + y1", "-x1 - x2 + y2", "-x1 - y1 + y3", "-y2*y3 + y4"]),
    ("seed_len", 7),
    ("seed_len", "6"),  # a string is not the number the writer prints
    ("seed_names", ["x1", "x2", "y1", "y2", "y3", "y5"]),
])
def test_stored_text_other_than_the_canonical_exits_2(tmp_path, key, value):
    code, err = metrics_of(tmp_path, fixture_with(lambda obj: obj.__setitem__(key, value)))
    assert code == 2
    assert f"stored {key} disagree with provenance reconstruction" in err


@pytest.mark.parametrize("keys", [("seed_names",), ("blocks",), ("seed_names", "blocks")])
def test_optional_keys_may_be_absent(tmp_path, keys):
    def drop(obj):
        for key in keys:
            del obj[key]
    assert metrics_of(tmp_path, fixture_with(drop)) == (0, "")


@pytest.mark.parametrize("key", ["outputs", "seed_len"])
def test_required_keys_must_be_present(tmp_path, key):
    code, err = metrics_of(tmp_path, fixture_with(lambda obj: obj.pop(key)))
    assert code == 2 and f"missing key '{key}'" in err


def test_names_need_not_sort_naturally_without_seed_names(tmp_path):
    # The outputs are compared as text, so no namespace is inferred from them.
    (tmp_path / "c.txt").write_text("circuit t\ninputs b a\ng1 = mul b a\noutput g1\n")
    out = tmp_path / "enc.json"
    assert run("encode", "--circuit", str(tmp_path / "c.txt"), "--alpha", "1,2",
               "--beta", "3", "--out", str(out)) == (0, "")
    obj = json.loads(out.read_text())
    del obj["seed_names"]
    assert metrics_of(tmp_path, obj) == (0, "")
