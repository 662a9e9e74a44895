#!/usr/bin/env python3
"""Golden CLI transcripts: a fixed corpus of ``annforge`` calls and what each printed.

The corpus is built from fixed seeds and run in-process through
``annforge.cli.main``.  It covers every subcommand, as text and with
``--json``, over QQ, GF(7) and GF(2^61-1), and exit codes 0 to 3.  Calls
come in scenarios: a scenario's calls share their files, so ``encode``
writes the ``enc.json`` that ``annihilate`` reads.  Each call runs in a
fresh temporary working directory that holds the scenario's files as they
stood before it, and every path in its argv is relative.  The fixture
records, per call, the argv, the environment it sets (``AF_TERM_BUDGET``,
``AF_MONOMIAL_CEILING``), the files put there for it, the exit code,
stdout, stderr and the text of every file the call wrote or changed.
Nothing in a record depends on the machine, so no text is normalized.

    PYTHONPATH=src python3 scripts/transcripts.py           # replay, list differences
    PYTHONPATH=src python3 scripts/transcripts.py --write   # regenerate the fixture

Replay prints one line per differing call, and for a call whose stderr alone
differs, the recorded stderr (``was:``) and the new one (``now:``); long
arguments and texts are cut.  ``tests/test_transcripts.py`` replays the
fixture.  A change that alters output on purpose regenerates it, and the
replay listing against the old fixture is its list of behaviour changes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from annforge.cli import main as cli_main

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "cli_transcripts.json"
FIELDS = {"rational": 0, "prime:7": 7, "prime:2305843009213693951": 2**61 - 1}
SQUARES_DIFF = """circuit squares_diff
inputs x1 x2
g1 = mul x2 -1
g2 = add x1 x2
g3 = add x1 g1
g4 = mul g2 g3
output g4
"""


# -- running one call ---------------------------------------------------------


def _snapshot(root: str) -> dict[str, bytes]:
    return {name: Path(root, name).read_bytes() for name in sorted(os.listdir(root))}


def run_call(root: str, argv: list[str], env: dict[str, str]) -> dict:
    """Run ``main(argv)`` in directory ``root`` with ``env`` set: the exit
    code, stdout, stderr and the files the call wrote or changed."""
    before = _snapshot(root)
    saved_env = {k: os.environ.get(k) for k in env}
    saved_cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.environ.update(env)
        os.chdir(root)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    finally:
        os.chdir(saved_cwd)
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    after = _snapshot(root)
    files = {name: data.decode("utf-8") for name, data in after.items()
             if before.get(name) != data}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _write_files(root: str, files: dict[str, str]) -> None:
    """Write each text as UTF-8; a lone surrogate U+DC80..U+DCFF in it
    stands for the byte 0x80..0xFF that is not UTF-8 (surrogateescape)."""
    for name, text in files.items():
        Path(root, name).write_bytes(text.encode("utf-8", "surrogateescape"))


def replay_scenario(scenario: dict) -> list[tuple[int, dict, dict]]:
    """Replay each call of ``scenario`` in a fresh directory holding the
    files recorded before it: (index, call, outcome) for every call."""
    results = []
    for i, call in enumerate(scenario["calls"]):
        with tempfile.TemporaryDirectory(prefix="transcript_") as root:
            for earlier in scenario["calls"][:i]:
                _write_files(root, earlier.get("inputs", {}))
                _write_files(root, earlier.get("files", {}))
            _write_files(root, call.get("inputs", {}))
            results.append((i, call, run_call(root, call["argv"], call.get("env", {}))))
    return results


def differences(call: dict, outcome: dict) -> list[str]:
    """The recorded fields of ``call`` that ``outcome`` does not reproduce."""
    return [key for key in ("exit", "stdout", "stderr", "files")
            if outcome[key] != call.get(key, {} if key == "files" else None)]


# -- building the corpus ------------------------------------------------------


class Scenario:
    """A named run of calls sharing one working directory."""

    def __init__(self, name: str, root: str):
        self.name = name
        self.root = root
        self.calls: list[dict] = []
        self._inputs: dict[str, str] = {}

    def put(self, name: str, text: str) -> None:
        """Place an input file for the next call (see _write_files)."""
        self._inputs[name] = text
        _write_files(self.root, {name: text})

    def read(self, name: str) -> str | None:
        path = Path(self.root, name)
        return path.read_text(encoding="utf-8") if path.exists() else None

    def run(self, *argv: str, env: dict[str, str] | None = None) -> None:
        outcome = run_call(self.root, list(argv), env or {})
        call = {"argv": list(argv)}
        if env:
            call["env"] = env
        if self._inputs:
            call["inputs"] = self._inputs
        call.update(exit=outcome["exit"], stdout=outcome["stdout"], stderr=outcome["stderr"])
        if outcome["files"]:
            call["files"] = outcome["files"]
        self._inputs = {}
        self.calls.append(call)

    def both(self, *argv: str, env: dict[str, str] | None = None) -> None:
        """The call as text and with --json."""
        self.run(*argv, env=env)
        self.run(*argv, "--json", env=env)


def _fmt(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def random_circuit(rng: random.Random, name: str, n: int, size: int, cap: int):
    """Circuit DSL text of ``size`` random gates over x1..xn and small
    constants, with degree bound at most ``cap``, and its gate list."""
    while True:
        refs = [(f"x{i}", 1) for i in range(1, n + 1)]
        gates, lines = [], []
        for k in range(1, size + 1):
            op = rng.choice(("add", "mul"))
            operands = []
            for _ in range(2):
                if rng.random() < 0.25:
                    c = rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
                    operands.append((_fmt(c), 0))
                else:
                    operands.append(rng.choice(refs))
            (a, da), (b, db) = operands
            degree = da + db if op == "mul" else max(da, db)
            refs.append((f"g{k}", degree))
            gates.append((op, a, b))
            lines.append(f"g{k} = {op} {a} {b}")
        if 1 <= refs[-1][1] <= cap:
            inputs = " ".join(f"x{i}" for i in range(1, n + 1))
            text = "\n".join([f"circuit {name}", f"inputs {inputs}", *lines,
                              f"output g{size}"]) + "\n"
            return text, gates


def chain_circuit(s: int, c: int) -> tuple[str, list]:
    """x1 + c, then s - 1 squarings."""
    gates = [("add", "x1", str(c))] + [("mul", f"g{k}", f"g{k}") for k in range(1, s)]
    lines = [f"g{k} = {op} {a} {b}" for k, (op, a, b) in enumerate(gates, start=1)]
    return "\n".join([f"circuit chain{s}", "inputs x1", *lines, f"output g{s}"]) + "\n", gates


def evaluate(gates: list, alpha: list[Fraction], p: int) -> Fraction:
    """The circuit's value at ``alpha``, reduced mod p when p > 0."""
    values = {f"x{i}": a for i, a in enumerate(alpha, start=1)}

    def value(ref: str) -> Fraction:
        return values[ref] if ref in values else Fraction(ref)

    for k, (op, a, b) in enumerate(gates, start=1):
        values[f"g{k}"] = value(a) * value(b) if op == "mul" else value(a) + value(b)
    out = values[f"g{len(gates)}"]
    if p:
        return Fraction(out.numerator * pow(out.denominator, -1, p) % p)
    return out


def evaluate_det(alpha: list[Fraction], k: int, p: int) -> Fraction:
    """det of the k x k matrix with rows read from ``alpha``, mod p when p > 0."""
    rows = [alpha[i * k:(i + 1) * k] for i in range(k)]
    if k == 2:
        value = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    else:
        value = sum(rows[0][j] * (rows[1][(j + 1) % 3] * rows[2][(j + 2) % 3]
                                  - rows[1][(j + 2) % 3] * rows[2][(j + 1) % 3])
                    for j in range(3))
    return Fraction(value % p) if p else value


def random_polynomial(rng: random.Random, names: list[str], terms: int, degree: int) -> str:
    parts = []
    for k in range(terms):
        c = rng.choice([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)])
        factors = [] if c == 1 else [_fmt(c)]
        for _ in range(rng.randint(0, degree)):
            factors.append(f"{rng.choice(names)}^{rng.randint(1, 2)}")
        body = "*".join(factors) or "1"
        sign = rng.choice("+-")
        parts.append(("-" if sign == "-" else "") + body if k == 0 else f" {sign} {body}")
    return "".join(parts)


def pipeline(sc: Scenario, field: str, n: int, alpha: list[Fraction], beta: Fraction,
             seed: int, full: bool) -> None:
    """The certify pipeline on c.txt, and the commands that read its files."""
    a = ",".join(_fmt(x) for x in alpha)
    sc.both("metrics", "--circuit", "c.txt", "--field", field)
    sc.run("encode", "--circuit", "c.txt", "--field", field, f"--alpha={a}",
           f"--beta={_fmt(beta)}", "--out", "enc.json")
    sc.run("encode", "--circuit", "c.txt", "--field", field, f"--alpha={a}",
           f"--beta={_fmt(beta)}", "--json")
    if sc.read("enc.json") is None:
        return
    sc.run("annihilate", "--encoding", "enc.json", "--out", "cert.json", "--json")
    cert = sc.read("cert.json")
    if cert is None:
        return
    sc.put("h.txt", json.loads(cert)["h"])
    sc.both("verify", "--encoding", "enc.json", "--poly", "h.txt")
    sc.put("other.txt", json.loads(cert)["h"] + " + z1*z2")
    sc.run("verify", "--encoding", "enc.json", "--poly", "other.txt")
    sc.run("ips-refute", "--encoding", "enc.json", "--out", "r.json",
           "--system-out", "sys.json")
    if sc.read("r.json") is not None:
        sc.both("ips-verify", "--system", "sys.json", "--refutation", "r.json")
        sc.run("ips-verify", "--system", "sys.json", "--refutation", "r.json",
               "--kind", "full")
    if not full:
        return
    sc.run("annihilate", "--encoding", "enc.json")
    sc.run("ips-refute", "--encoding", "enc.json", "--json")
    sc.both("metrics", "--encoding", "enc.json")
    sc.both("hit", "--map", "enc.json", "--poly", "h.txt")
    sc.run("hit", "--map", "enc.json", "--poly", "other.txt")
    sc.both("search-ann", "--map", "enc.json", "--degree", "1")
    sc.both("pit", "--circuit", "c.txt", "--field", field, "--seed", str(seed))
    sc.run("pit", "--circuit", "c.txt", "--field", field, "--trials", "3",
           "--seed", str(seed), "--expect", "zero")
    sc.run("pit", "--circuit", "c.txt", "--field", field, "--map", "enc.json",
           "--expect", "nonzero", "--json")
    sc.run("pit", "--circuit", "c.txt", "--field", field, "--map", "enc.json",
           "--mode", "randomized", "--trials", "2", "--seed", str(seed))
    sc.run("stretch", "--map", "enc.json", "--copies", "2", "--out", "st.json")
    sc.run("stretch", "--map", "enc.json", "--copies", "1", f"--pad={2 * n + 9}", "--json")
    sc.run("stretch", "--map", "st.json", "--copies", "1", "--json", "--out", "st2.json")


def build_corpus() -> list[dict]:
    """Every scenario of the corpus, run against the importable annforge."""
    with tempfile.TemporaryDirectory(prefix="transcripts_") as base:
        scenarios = _scenarios(base)
        return [{"name": sc.name, "calls": sc.calls} for sc in scenarios]


def _scenarios(base: str) -> list[Scenario]:
    scenarios = []

    def scenario(name: str):
        root = os.path.join(base, str(len(scenarios)))
        os.mkdir(root)
        sc = Scenario(name, root)
        scenarios.append(sc)
        return sc

    rng = random.Random(20)
    for field, p in FIELDS.items():
        tag = field.replace("prime:", "gf")
        circuits = [("squares_diff", SQUARES_DIFF, [("mul", "x2", "-1"), ("add", "x1", "x2"),
                                                    ("add", "x1", "g1"), ("mul", "g2", "g3")], 2)]
        circuits += [(f"chain{s}", *chain_circuit(s, rng.choice([-2, 2])), 1) for s in (1, 2, 3, 4)]
        circuits += [(f"random{k}", *random_circuit(rng, f"random{k}", n, size, 4), n)
                     for k, (n, size) in enumerate([(2, 4), (2, 6), (3, 5), (3, 7), (2, 8)])]
        for k in (2, 3):
            circuits.append((f"det{k}", None, None, k * k))
        for name, text, gates, n in circuits:
            for claim in ("false", "true"):
                sc = scenario(f"pipeline-{name}-{tag}-{claim}")
                seed = rng.randrange(1000)
                if text is None:
                    k = int(name[-1])
                    sc.run("instance", "--family", "det", "--n", str(k), "--field", field,
                           "--out", "c.txt")
                    alpha = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                    value = evaluate_det(alpha, k, p)
                else:
                    sc.put("c.txt", text)
                    alpha = [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in range(n)]
                    if p == 0 and rng.random() < 0.5:
                        alpha[0] = Fraction(rng.choice([1, -3]), 2)
                    value = evaluate(gates, alpha, p)
                beta = value if claim == "true" else value + rng.choice([1, 2, 3])
                if p:
                    beta = Fraction(beta.numerator % p)
                pipeline(sc, field, n, alpha, beta, seed,
                         full=claim == "false" and not name.startswith(("chain4", "det3")))

    for field, p in FIELDS.items():
        tag = field.replace("prime:", "gf")
        sc = scenario(f"instances-{tag}")
        sc.both("instance", "--family", "kayal", "--n", "2", "--d", "2", "--field", field)
        sc.run("instance", "--family", "kayal", "--n", "2", "--d", "2", "--field", field,
               "--out", "kayal.json")
        sc.run("instance", "--family", "kayal-chain", "--n", "3", "--d", "2", "--field", field,
               "--out", "chain.json", "--json")
        sc.run("instance", "--family", "kayal-chain", "--n", "3", "--d", "2", "--field", field)
        sc.run("instance", "--family", "masser-philippon", "--n", "2", "--d", "2",
               "--field", field, "--out", "mp.json")
        sc.both("instance", "--family", "masser-philippon", "--n", "3", "--d", "2",
                "--field", field)
        sc.run("instance", "--family", "det", "--n", "2", "--field", field, "--json")
        sc.put("f.cnf", "c two clauses\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
        sc.both("instance", "--family", "cnf3", "--cnf", "f.cnf", "--field", field)
        sc.run("instance", "--family", "cnf3", "--cnf", "f.cnf", "--field", field,
               "--out", "cnf.json")
        sc.both("instance", "--family", "cnf3", "--field", field)
        sc.put("bad.cnf", "p dnf 3 1\n1 2 3 0\n")
        sc.run("instance", "--family", "cnf3", "--cnf", "bad.cnf", "--field", field)
        sc.put("short.cnf", "p cnf 3 1\n1 2 0\n")
        sc.run("instance", "--family", "cnf3", "--cnf", "short.cnf", "--field", field)
        sc.run("instance", "--family", "kayal", "--n", "0", "--field", field)
        sc.run("instance", "--family", "kayal-chain", "--n", "2", "--field", field)
        for degree in ("3", "4"):
            sc.both("search-ann", "--map", "kayal.json", "--degree", degree)
        sc.run("search-ann", "--map", "chain.json", "--degree", "1", "--json")
        sc.run("search-ann", "--map", "kayal.json", "--degree", "4",
               env={"AF_MONOMIAL_CEILING": "5"})
        sc.both("stretch", "--map", "kayal.json", "--copies", "3")
        sc.run("stretch", "--map", "chain.json", "--copies", "2", "--pad", "20",
               "--out", "st.json")
        sc.run("stretch", "--map", "kayal.json", "--copies", "2", "--pad", "2")
        sc.run("stretch", "--map", "kayal.json", "--copies", "1", "--pad", "100",
               env={"AF_TERM_BUDGET": "50"})
        sc.put("kh.txt", "z1 - z2")
        sc.both("hit", "--map", "kayal.json", "--poly", "kh.txt")
        sc.put("sys.json", json.dumps({"equations": ["x1", "x1 - 1"], "field": _field_json(p)}))
        for kind, r in (("full", "z1 - z2"), ("full", "z1"), ("geometric", "1 - z1 + z2"),
                        ("geometric", "1 + z1")):
            sc.put("r.json", json.dumps({"kind": kind, "r": r}))
            sc.both("ips-verify", "--system", "sys.json", "--refutation", "r.json")
        sc.run("ips-verify", "--system", "sys.json", "--refutation", "r.json",
               "--kind", "full")
        sc.run("ips-verify", "--system", "mp.json", "--refutation", "r.json")
        sc.put("short_sys.json", json.dumps({"equations": ["x1"], "n_vars": 2}))
        sc.run("ips-verify", "--system", "short_sys.json", "--refutation", "r.json")
        sc.put("names.json", json.dumps({"seed_len": 2, "seed_names": ["x1"],
                                         "outputs": ["x1"]}))
        sc.run("stretch", "--map", "names.json", "--copies", "1")
        sc.run("search-ann", "--map", "names.json", "--degree", "1")

    for field, p in FIELDS.items():
        tag = field.replace("prime:", "gf")
        sc = scenario(f"jacobian-{tag}")
        for k in range(4):
            names = ["x1", "x2", "x3"][: rng.randint(1, 3)]
            polys = [random_polynomial(rng, names, rng.randint(1, 3), 2)
                     for _ in range(rng.randint(1, 3))]
            sc.put("polys.json", json.dumps(polys))
            sc.both("jacobian", "--polys", "polys.json", "--field", field,
                    "--seed", str(rng.randrange(100)))
            sc.put("named.json", json.dumps({"polynomials": polys, "var_names": names}))
            sc.run("jacobian", "--polys", "named.json", "--field", field, "--trials", "3")
        sc.put("consts.json", json.dumps(["3", "5"]))
        sc.both("jacobian", "--polys", "consts.json", "--field", field)
        sc.put("wrong.json", json.dumps({"polys": ["x1"]}))
        sc.run("jacobian", "--polys", "wrong.json", "--field", field)
        sc.run("jacobian", "--polys", "polys.json", "--field", field, "--trials", "0")
        sc.run("jacobian", "--polys", "polys.json", "--field", field, "--prime", "7")
        sc.put("bad.json", json.dumps(["x1 +", "x2"]))
        sc.run("jacobian", "--polys", "bad.json", "--field", field)

        sc = scenario(f"resultant-{tag}")
        for k in range(4):
            f = random_polynomial(rng, ["x", "y"], rng.randint(1, 3), 2)
            g = random_polynomial(rng, ["x", "y"], rng.randint(1, 3), 2)
            var = rng.choice(["x", "y"])
            sc.both("resultant", f"--f={f}", f"--g={g}", "--var", var, "--field", field)
            sc.both("resultant", f"--f={f}", f"--g={g}", "--var", var, "--field", field,
                    "--cofactors")
        sc.run("resultant", "--f=x + 1", "--g=x - 1", "--var", "z", "--field", field)

        sc = scenario(f"verify-{tag}")
        sc.put("c.txt", SQUARES_DIFF)
        sc.run("encode", "--circuit", "c.txt", "--field", field, "--alpha", "1,2",
               "--beta", "0", "--out", "enc.json")
        for k in range(12):
            sc.put("p.txt", random_polynomial(rng, [f"z{i}" for i in range(1, 8)],
                                              rng.randint(1, 4), 3))
            sc.run("verify", "--encoding", "enc.json", "--poly", "p.txt",
                   *(["--json"] if k % 2 else []))
            sc.run("hit", "--map", "enc.json", "--poly", "p.txt")
        for degree in ("2", "3"):
            sc.both("search-ann", "--map", "enc.json", "--degree", degree)
        sc.run("search-ann", "--map", "enc.json", "--degree", "2",
               env={"AF_MONOMIAL_CEILING": "10"})
        sc.put("p.txt", "z1^2 + z8")
        sc.run("verify", "--encoding", "enc.json", "--poly", "p.txt")
        sc.put("c.txt", SQUARES_DIFF)
        for grid in ("3", "4", "5"):
            sc.run("pit", "--circuit", "c.txt", "--field", field, "--grid", grid,
                   "--trials", "2")
        sc.run("pit", "--circuit", "c.txt", "--field", field, "--grid", "3", "--json")
        sc.run("pit", "--circuit", "c.txt", "--field", field, "--grid", "0")
        sc.run("pit", "--circuit", "c.txt", "--field", field, "--trials", "0")
        for mode in ("symbolic", "randomized", "deterministic_grid"):
            sc.run("pit", "--circuit", "c.txt", "--field", field, "--map", "enc.json",
                   "--mode", mode, "--expect", "zero")
        sc.run("pit", "--circuit", "c.txt", "--field", field, "--map", "enc.json",
               "--grid", "5")
        sc.run("pit", "--circuit", "c.txt", "--field", field, "--mode", "symbolic")
        sc.run("metrics", "--encoding", "enc.json", "--field", field)
        sc.run("annihilate", "--encoding", "enc.json", env={"AF_TERM_BUDGET": "3"})
        sc.run("encode", "--circuit", "c.txt", "--field", field, "--alpha", "1,2",
               "--beta", "0", env={"AF_TERM_BUDGET": "abc"})

    sc = scenario("errors")
    sc.put("c.txt", SQUARES_DIFF)
    sc.run("metrics", "--circuit", "missing.txt")
    sc.run("annihilate", "--encoding", "missing.json")
    sc.put("broken.json", "{\"seed_len\": 1,")
    sc.run("stretch", "--map", "broken.json", "--copies", "1")
    sc.put("noout.json", json.dumps({"seed_len": 1}))
    sc.run("search-ann", "--map", "noout.json", "--degree", "1")
    sc.run("annihilate", "--encoding", "noout.json")
    sc.run("metrics", "--circuit", "c.txt", "--field", "bogus")
    sc.run("metrics", "--circuit", "c.txt", "--field", "prime:8")
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1", "--beta", "0")
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1,x", "--beta", "0")
    sc.run("encode", "--circuit", "c.txt", "--alpha=--", "--beta", "0")
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1,2")
    sc.run("frobnicate")
    sc.put("bad.txt", "circuit bad\ninputs x1\ng1 = sub x1 x1\noutput g1\n")
    sc.run("metrics", "--circuit", "bad.txt")
    sc.run("pit", "--circuit", "bad.txt")
    sc.put("chain.txt", chain_circuit(6, 2)[0])
    sc.run("pit", "--circuit", "chain.txt", "--json", env={"AF_TERM_BUDGET": "10"})
    sc.run("encode", "--circuit", "chain.txt", "--alpha", "1", "--beta", "0",
           env={"AF_TERM_BUDGET": "2"})
    sc.run("encode", "--circuit", "chain.txt", "--alpha", "1", "--beta", "0",
           env={"AF_MONOMIAL_CEILING": "0"})
    sc.put("latin1.txt", SQUARES_DIFF.replace("-1", "\udcff1"))  # the byte 0xff
    sc.run("metrics", "--circuit", "latin1.txt")
    for name, obj in [("abc.json", {"seed_len": "abc", "outputs": ["x1"]}),
                      ("nan.json", {"seed_len": float("nan"), "outputs": ["x1"]}),
                      ("empty.json", {"seed_len": 1, "outputs": []}),
                      ("badname.json", {"seed_len": 1, "seed_names": ["1bad"], "outputs": ["x1"]}),
                      ("field.json", {"field": {"type": "prime", "p": "x"}, "seed_len": 1,
                                      "outputs": ["x1"]})]:
        sc.put(name, json.dumps(obj))
        sc.run("stretch", "--map", name, "--copies", "1")
    sc.run("metrics", "--circuit", "c.txt", "--field", "prime:abc")
    sc.run("metrics", "--circuit", "c.txt", "--field", "prime:3317044064679887385961983")
    sc.put("tok.cnf", "p cnf 3 1\n1 x 3 0\n")
    sc.run("instance", "--family", "cnf3", "--cnf", "tok.cnf")
    sc.put("tokp.cnf", "p cnf x 1\n1 2 3 0\n")
    sc.run("instance", "--family", "cnf3", "--cnf", "tokp.cnf")
    sc.put("m.json", json.dumps({"seed_len": 1, "outputs": ["x1^2 - 1"]}))
    sc.run("search-ann", "--map", "m.json", "--degree", "-1")
    sc.run("stretch", "--map", "m.json", "--copies", "0")
    sc.run("instance", "--family", "det", "--n", "7")
    # Numbers past the 4300 decimal digits that Python converts to or from text.
    sc.put("long.json", '{"seed_len": 1' + "0" * 4300 + ', "outputs": ["x1"]}')
    sc.run("stretch", "--map", "long.json", "--copies", "1")
    sc.put("long.txt", "z1^" + "9" * 4301)
    sc.run("hit", "--map", "m.json", "--poly", "long.txt")
    sc.run("resultant", "--f=x" + "1" * 4301 + " + 1", "--g=x - 1", "--var", "x")
    big = "7" * 3000
    sc.run("resultant", f"--f={big}*x + 1", f"--g=x - {big}", "--var", "x")
    sc.put("zero.txt", "circuit zero\ninputs x1\ng1 = mul x1 0\noutput g1\n")
    sc.run("pit", "--circuit", "zero.txt", "--trials", "20000")
    sc.put("polys.json", json.dumps(["x1^2 + x2", "x1*x2"]))
    sc.run("jacobian", "--polys", "polys.json", "--trials", "300")
    # 14,300 squarings: a degree bound of 2^14300, which has 4305 digits.
    squarings = [f"g{i} = mul g{i - 1} g{i - 1}" for i in range(2, 14301)]
    sc.put("deep.txt", "\n".join(["circuit deep", "inputs x1", "g1 = mul x1 x1",
                                   *squarings, "output g14300", ""]))
    sc.both("metrics", "--circuit", "deep.txt")
    sc.run("pit", "--circuit", "deep.txt")
    sc.run("pit", "--circuit", "deep.txt", "--field", "prime:7")
    sc.run("pit", "--circuit", "deep.txt", "--field", "prime:7", "--grid", "3")
    sc.run("pit", "--circuit", "deep.txt", "--map", "m.json", "--mode", "deterministic_grid")
    nines = "9" * 4300  # a monomial whose degree has 4301 digits
    sc.put("wide.json", json.dumps({"seed_len": 2, "outputs": [f"x1^{nines}*x2^{nines}"]}))
    sc.run("stretch", "--map", "wide.json", "--copies", "1")
    sc.put("sys.json", json.dumps({"equations": ["x1", "x2"], "n_vars": 2}))
    sc.put("wide_ref.json", json.dumps({"kind": "geometric", "r": f"z1^{nines}*z2^{nines} + 2"}))
    sc.run("ips-verify", "--system", "sys.json", "--refutation", "wide_ref.json")
    # JSON numbers that are not integers, and integers written as booleans or strings.
    for name, obj in [("float.json", {"seed_len": 2.7, "outputs": ["x1", "x2"]}),
                      ("true.json", {"seed_len": True, "outputs": ["x1"]}),
                      ("string.json", {"seed_len": "1", "outputs": ["x1"]}),
                      ("inf.json", {"seed_len": 1, "outputs": ["x1"], "note": float("-inf")}),
                      ("p_float.json", {"field": {"type": "prime", "p": 7.9}, "seed_len": 1,
                                        "outputs": ["x1"]}),
                      ("p_string.json", {"field": {"type": "prime", "p": "7"}, "seed_len": 1,
                                         "outputs": ["x1"]}),
                      ("p_true.json", {"field": {"type": "prime", "p": True}, "seed_len": 1,
                                       "outputs": ["x1"]})]:
        sc.put(name, json.dumps(obj))
        sc.run("stretch", "--map", name, "--copies", "1", "--out", f"stretched_{name}")
    sc.put("r.json", json.dumps({"kind": "geometric", "r": "1 - z1"}))
    for name, n_vars in [("sys_true.json", True), ("sys_string.json", "1")]:
        sc.put(name, json.dumps({"equations": ["x1"], "n_vars": n_vars}))
        sc.run("ips-verify", "--system", name, "--refutation", "r.json")
    sc.run("jacobian", "--polys", "polys.json", "--prime", "8")
    sc.put("deep.json", "[" * 3000 + "]" * 3000)
    sc.run("stretch", "--map", "deep.json", "--copies", "1")
    # jacobian's flags on polynomials that are all constant.
    sc.put("consts.json", json.dumps(["5", "3"]))
    sc.run("jacobian", "--polys", "consts.json", "--trials", "0")
    sc.run("jacobian", "--polys", "consts.json", "--prime", "8")
    # Each refusal of the circuit DSL.
    for text in ["circuit\ninputs x1\ng1 = add x1 x1\noutput g1\n",
                 "inputs x1\ninputs x2\ng1 = add x1 x1\noutput g1\n",
                 "inputs x1 1x\ng1 = add x1 x1\noutput g1\n",
                 "inputs x1 x1\ng1 = add x1 x1\noutput g1\n",
                 "inputs x1\ng1 = add x1 x1\noutput\n",
                 "inputs x1\n1g = add x1 x1\noutput 1g\n",
                 "inputs x1\ng1 = add x1 x1\ng1 = mul x1 x1\noutput g1\n",
                 "g1 = add x1 x1\ninputs x1\noutput g1\n",
                 "inputs x1\ng1 add x1 x1\noutput g1\n",
                 "inputs x1\ng1 = add x1 x1\n",
                 "inputs x1\ng1 = add x1 x1\noutput g2\n",
                 "inputs x1\ng1 = add x1 x1\ng2 = mul g1 g1\noutput g1\n",
                 "inputs x1\ng1 = add x1 q\noutput g1\n",
                 "inputs x1\ng1 = add x1 1/0\noutput g1\n"]:
        sc.put("dsl.txt", text)
        sc.run("metrics", "--circuit", "dsl.txt")
    sc.put("id.txt", "circuit id\ninputs x1\noutput x1\n")
    sc.run("encode", "--circuit", "id.txt", "--alpha", "1", "--beta", "0")
    # Map, system and refutation files that the readers refuse.
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1,2", "--beta", "0", "--out", "enc.json")
    tampered = json.loads(sc.read("enc.json"))
    tampered["outputs"][0] = "x1 + 0"
    sc.put("tampered.json", json.dumps(tampered))
    sc.run("metrics", "--encoding", "tampered.json")
    for name, obj in [("field_x.json", {"field": {"type": "x"}, "seed_len": 1,
                                        "outputs": ["x1"]}),
                      ("outputs_int.json", {"seed_len": 1, "outputs": [1]})]:
        sc.put(name, json.dumps(obj))
        sc.run("stretch", "--map", name, "--copies", "1")
    sc.put("sys1.json", json.dumps({"equations": ["x1"], "n_vars": 1}))
    for name, obj in [("kind.json", {"kind": "other", "r": "1"}),
                      ("full_x.json", {"kind": "full", "r": "x1 + z1"}),
                      ("r_gf7.json", {"kind": "geometric", "r": "1 - z1",
                                      "field": {"type": "prime", "p": 7}})]:
        sc.put(name, json.dumps(obj))
        sc.run("ips-verify", "--system", "sys1.json", "--refutation", name)
    sc.put("blank.txt", "  \n")
    sc.run("verify", "--encoding", "enc.json", "--poly", "blank.txt")
    sc.put("dup.json", json.dumps({"polynomials": ["x1"], "var_names": ["x1", "x1"]}))
    sc.run("jacobian", "--polys", "dup.json")
    sc.run("pit", "--circuit", "c.txt", "--map", "m.json")
    sc.run("instance", "--family", "kayal-chain", "--n", "3", "--d", "0")
    sc.run("instance", "--family", "masser-philippon", "--n", "1")
    for name, text in [("novars.cnf", "p cnf 0 0\n"), ("lit.cnf", "p cnf 2 1\n1 2 3 0\n")]:
        sc.put(name, text)
        sc.run("instance", "--family", "cnf3", "--cnf", name)
    sc.run("resultant", "--f=x^7 + 1", "--g=x^6 + 1", "--var", "x")
    sc.put("third.json", json.dumps(["1/3*x1^2 + x2"]))
    sc.run("jacobian", "--polys", "third.json", "--prime", "3")
    # Numbers outside the ASCII integer grammar: underscores, non-ASCII
    # digits and spaces, and a signed denominator.
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1_0,2", "--beta", "0")
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1,2", "--beta", "٣")
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1,2", "--beta", "1/-2")
    sc.run("resultant", "--f=x + ٣", "--g=x^٢ + 1", "--var", "x")
    sc.run("resultant", "--f=x + 3", "--g=x^٢ + 1", "--var", "x")
    sc.run("resultant", "--f=x + 3", "--g=x - 1", "--var", "x")
    sc.put("digit.txt", "circuit d\ninputs x1\ng1 = mul x1 ٣\noutput g1\n")
    sc.run("metrics", "--circuit", "digit.txt")
    sc.run("instance", "--family", "kayal", "--n", "1_0")
    sc.run("metrics", "--circuit", "c.txt", "--field", "prime:1_000_003")
    sc.run("metrics", "--circuit", "c.txt", env={"AF_TERM_BUDGET": " 1_000 "})
    sc.put("digit.cnf", "p cnf 3 1\n1 2 ٣ 0\n")
    sc.run("instance", "--family", "cnf3", "--cnf", "digit.cnf")
    # Long inputs, which a refusal quotes cut.
    digits = "1" * 5000
    sc.run("encode", "--circuit", "c.txt", "--alpha", "1,2", "--beta", digits)
    sc.run("search-ann", "--map", "m.json", "--degree", digits)
    sc.run("metrics", "--circuit", "c.txt", "--field", f"prime:{digits}")
    sc.run("metrics", "--circuit", "c.txt", env={"AF_TERM_BUDGET": digits})
    sc.put("wide.txt", "circuit w\ninputs x1\ng1 = add x1 x1 " + "z" * 20000 + "\noutput g1\n")
    sc.run("metrics", "--circuit", "wide.txt")
    sc.put("field_big.json", json.dumps({"field": {"type": "x", "a": "y" * 2000},
                                         "seed_len": 1, "outputs": ["x1"]}))
    sc.run("stretch", "--map", "field_big.json", "--copies", "1")
    sc.put("long_p.txt", "z1 + " * 20000 + "2 z1")
    sc.run("verify", "--encoding", "enc.json", "--poly", "long_p.txt")
    # Integers of up to 4300 digits, and a long clause, that a refusal names.
    ones = "1" * 4300
    sc.run("metrics", "--circuit", "c.txt", "--field", f"prime:{ones}")
    sc.run("jacobian", "--polys", "polys.json", "--prime", ones)
    sc.run("stretch", "--map", "m.json", "--copies", "1", "--pad", f"-{ones}")
    sc.put("long.cnf", "p cnf 3 1\n" + "1 " * 5000 + "0\n")
    sc.run("instance", "--family", "cnf3", "--cnf", "long.cnf")
    # Instance families past the term budget.
    sc.run("instance", "--family", "kayal", "--n", "20", env={"AF_TERM_BUDGET": "10"})
    sc.put("wide.cnf", "p cnf 20 1\n1 2 3 0\n")
    sc.run("instance", "--family", "cnf3", "--cnf", "wide.cnf", env={"AF_TERM_BUDGET": "10"})
    # Inputs named like the writer's gate names, which must not collide.
    sc.put("gnames.txt", "circuit c\ninputs g1 x2\nh = add g1 x2\nk = mul h g1\noutput k\n")
    sc.run("encode", "--circuit", "gnames.txt", "--alpha", "1,2", "--beta", "5",
           "--out", "gnames.json")
    sc.run("annihilate", "--encoding", "gnames.json")
    # The zero polynomial, a composite modulus, a circuit with no inputs and
    # padding to the length a map already has.
    sc.put("zero_p.txt", "0")
    sc.run("hit", "--map", "m.json", "--poly", "zero_p.txt")
    sc.run("pit", "--circuit", "c.txt", "--field", "prime:10403")
    sc.put("noinputs.txt", "circuit k\ninputs\ng1 = add 1 2\noutput g1\n")
    sc.run("encode", "--circuit", "noinputs.txt", "--alpha", "", "--beta", "3")
    sc.run("stretch", "--map", "m.json", "--copies", "1", "--pad", "1")
    # Inputs named like the local encoding's seed names y1..ys: y1 takes
    # internal gate 1's name, and y3 is past the two gates.
    for name in ("y1", "y3"):
        sc.put("ynames.txt", f"circuit c\ninputs {name} x2\nh = add {name} x2\n"
                             f"k = mul h {name}\noutput k\n")
        sc.run("encode", "--circuit", "ynames.txt", "--alpha", "1,2", "--beta", "5")
    return scenarios


def _short(text: str, width: int = 60) -> str:
    """``text`` cut to ``width`` characters, newlines shown as ``\\n``."""
    text = text.replace("\n", "\\n")
    return text if len(text) <= width else f"{text[:width - 20]}...({len(text)} chars)"


def _field_json(p: int) -> dict:
    return {"type": "prime", "p": p} if p else {"type": "rational"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="regenerate the fixture")
    args = ap.parse_args(argv)
    if args.write:
        corpus = build_corpus()
        # ASCII escapes keep a lone surrogate (a byte that is not UTF-8) writable.
        text = json.dumps({"scenarios": corpus}, indent=0) + "\n"
        FIXTURE.write_text(text, encoding="utf-8")
        calls = sum(len(s["calls"]) for s in corpus)
        print(f"wrote {calls} calls in {len(corpus)} scenarios to {FIXTURE}")
        return 0
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    differing = 0
    for scenario in doc["scenarios"]:
        for i, call, outcome in replay_scenario(scenario):
            keys = differences(call, outcome)
            if keys:
                differing += 1
                print(f"{scenario['name']} call {i}: {' '.join(map(_short, call['argv']))}: "
                      f"{', '.join(keys)} differ")
                if keys == ["stderr"]:
                    print(f"    was: {_short(call['stderr'].rstrip(), 160)}")
                    print(f"    now: {_short(outcome['stderr'].rstrip(), 160)}")
    print(f"{differing} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
