import ast
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import annforge
from annforge import cli, config, encoding, errors, ips
from annforge.cli import main
from annforge.instances import kayal_map
from annforge.ips import VerifyResult
from annforge.poly import Namespace, format_polynomial
from annforge.serialize import dumps, map_from_json, map_to_json, system_from_json, system_to_json

from dense_reference import reference_basis_search

FIXTURES = Path(__file__).parent / "fixtures"
CIRCUIT = str(FIXTURES / "squares_diff.txt")
ENC = str(FIXTURES / "squares_diff_enc.json")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_encode_writes_seven_outputs(tmp_path, capsys):
    out = tmp_path / "enc.json"
    code, _ = run(capsys, "encode", "--circuit", CIRCUIT, "--alpha", "0,0",
                  "--beta", "0", "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["outputs"]) == 7
    assert obj["seed_len"] == 6


def test_golden_round_trip(tmp_path, capsys):
    # encode -> annihilate reproduce the committed fixtures byte-exactly.
    enc = tmp_path / "enc.json"
    cert = tmp_path / "cert.json"
    assert run(capsys, "encode", "--circuit", CIRCUIT, "--alpha", "0,0",
               "--beta", "0", "--out", str(enc))[0] == 0
    assert run(capsys, "annihilate", "--encoding", str(enc),
               "--out", str(cert))[0] == 0
    assert enc.read_bytes() == (FIXTURES / "squares_diff_enc.json").read_bytes()
    assert cert.read_bytes() == (FIXTURES / "squares_diff_cert.json").read_bytes()


def test_pipeline_annihilate_then_verify(tmp_path, capsys):
    enc = tmp_path / "enc.json"
    run(capsys, "encode", "--circuit", CIRCUIT, "--alpha", "0,0", "--beta", "0",
        "--out", str(enc))
    cert = json.loads((FIXTURES / "squares_diff_cert.json").read_text())
    poly_file = tmp_path / "h.txt"
    poly_file.write_text(cert["h"])
    code, out = run(capsys, "verify", "--encoding", str(enc), "--poly", str(poly_file))
    assert code == 0
    assert "yes" in out

    poly_file.write_text("z1 + z7")
    code, _ = run(capsys, "verify", "--encoding", str(enc), "--poly", str(poly_file))
    assert code == 1


def test_search_ann_json_report(capsys):
    enc = str(FIXTURES / "squares_diff_enc.json")
    code, out = run(capsys, "search-ann", "--map", enc, "--degree", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["dimension"] == 1


def test_ips_refute_then_verify(tmp_path, capsys):
    det = tmp_path / "det2.txt"
    run(capsys, "instance", "--family", "det", "--n", "2", "--out", str(det))
    enc = tmp_path / "enc.json"
    run(capsys, "encode", "--circuit", str(det), "--alpha", "1,0,0,1",
        "--beta", "0", "--out", str(enc))
    ref = tmp_path / "r.json"
    system = tmp_path / "sys.json"
    code, _ = run(capsys, "ips-refute", "--encoding", str(enc), "--out", str(ref),
                  "--system-out", str(system))
    assert code == 0
    code, out = run(capsys, "ips-verify", "--system", str(system),
                    "--refutation", str(ref), "--kind", "geometric")
    assert code == 0
    assert "Accept" in out


def test_ips_verify_rejects_bad_refutation(tmp_path, capsys):
    det = tmp_path / "det2.txt"
    run(capsys, "instance", "--family", "det", "--n", "2", "--out", str(det))
    enc = tmp_path / "enc.json"
    run(capsys, "encode", "--circuit", str(det), "--alpha", "1,0,0,1",
        "--beta", "0", "--out", str(enc))
    ref = tmp_path / "r.json"
    system = tmp_path / "sys.json"
    run(capsys, "ips-refute", "--encoding", str(enc), "--out", str(ref),
        "--system-out", str(system))
    obj = json.loads(ref.read_text())
    obj["r"] = obj["r"] + " + z1"
    ref.write_text(json.dumps(obj))
    code, out = run(capsys, "ips-verify", "--system", str(system),
                    "--refutation", str(ref))
    assert code == 1
    assert "Reject" in out


@pytest.mark.parametrize("r, code, line, reason, degree", [
    ("z1 - z2", 0, "Accept, refutation degree 1", None, 1),
    ("z1 - z2 + x1*z1", 1, "Reject (composition-not-one), refutation degree 2",
     "composition-not-one", 2),
])
def test_ips_verify_full_refutation(tmp_path, capsys, r, code, line, reason, degree):
    # {x1, x1 - 1} has no common zero: 1 = x1 - (x1 - 1), the full IPS
    # certificate z1 - z2.  Adding x1*z1 leaves C(x, 0) = 0 but C(x, f) != 1.
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"equations": ["x1", "x1 - 1"]}))
    ref = tmp_path / "r.json"
    ref.write_text(json.dumps({"kind": "full", "r": r}))
    argv = ["ips-verify", "--system", str(system), "--refutation", str(ref)]
    for extra in ([], ["--kind", "full"]):
        assert run(capsys, *argv, *extra) == (code, line + "\n")
    got, out = run(capsys, *argv, "--json")
    assert got == code
    assert json.loads(out) == {"schema_version": 1, "command": "ips-verify", "kind": "full",
                               "accepted": code == 0, "reason": reason, "degree": degree}
    assert main([*argv, "--kind", "geometric"]) == 2
    assert capsys.readouterr().err == \
        "error [input.invalid]: refutation file has kind full, --kind says geometric\n"


@pytest.mark.parametrize("kind, r, field, system_field", [
    ("geometric", "1 + z1", {"type": "prime", "p": 7}, None),
    ("full", "z1 - z2", {"type": "prime", "p": 7}, None),
    ("full", "z1 - z2", {"type": "rational"}, {"type": "prime", "p": 7}),
])
def test_ips_verify_refuses_a_refutation_over_another_field(
        tmp_path, capsys, kind, r, field, system_field):
    system = tmp_path / "sys.json"
    obj = {"equations": ["x1", "x1 - 1"]}
    if system_field:
        obj["field"] = system_field
    system.write_text(json.dumps(obj))
    ref = tmp_path / "r.json"
    ref.write_text(json.dumps({"kind": kind, "field": field, "r": r}))
    assert main(["ips-verify", "--system", str(system), "--refutation", str(ref)]) == 2
    names = ("GF(7)", "QQ") if system_field is None else ("QQ", "GF(7)")
    assert capsys.readouterr() == ("", "error [field.mismatch]: field mismatch: %s vs %s\n" % names)


def test_pit_zero_and_nonzero(tmp_path, capsys):
    code, out = run(capsys, "pit", "--circuit", CIRCUIT, "--trials", "8",
                    "--seed", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "nonzero"
    assert report["seed"] == 5

    zero = tmp_path / "zero.txt"
    zero.write_text(
        "circuit z\ninputs x1\ng1 = mul x1 -1\ng2 = add x1 g1\noutput g2\n"
    )
    code, out = run(capsys, "pit", "--circuit", str(zero), "--trials", "4",
                    "--expect", "zero")
    assert code == 0
    code, _ = run(capsys, "pit", "--circuit", str(zero), "--trials", "4",
                  "--expect", "nonzero")
    assert code == 1


def test_pit_generator_mode(capsys, tmp_path):
    cert = json.loads((FIXTURES / "squares_diff_cert.json").read_text())
    # Circuit computing h, tested against its own encoding: fooled.
    from annforge.circuit import circuit_from_polynomial, serialize_circuit
    from annforge.fields import QQ
    from annforge.poly import Namespace, parse_polynomial

    h = parse_polynomial(cert["h"], QQ, Namespace.outputs(7))
    c = circuit_from_polynomial(h, 7, name="h_circuit")
    cpath = tmp_path / "h_circuit.txt"
    cpath.write_text(serialize_circuit(c))
    code, out = run(capsys, "pit", "--circuit", str(cpath),
                    "--map", str(FIXTURES / "squares_diff_enc.json"),
                    "--mode", "symbolic", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "zero"


@pytest.mark.parametrize("mode", ["symbolic", "randomized", "deterministic_grid"])
def test_pit_refuses_a_map_over_another_field(tmp_path, capsys, mode):
    # 7*x1 vanishes mod 7 but not over QQ; with the fields mixed the modes
    # disagreed, and two of them passed --expect zero.
    circuit = tmp_path / "c.txt"
    circuit.write_text("circuit c\ninputs x1\ng1 = add x1 0\noutput g1\n")
    pmap = tmp_path / "m.json"
    pmap.write_text(json.dumps({"seed_len": 1, "outputs": ["7*x1"]}))
    code = main(["pit", "--field", "prime:7", "--circuit", str(circuit), "--map", str(pmap),
                 "--mode", mode, "--expect", "zero"])
    assert code == 2
    assert capsys.readouterr() == ("", "error [field.mismatch]: field mismatch: GF(7) vs QQ\n")


def test_hit_exit_codes(tmp_path, capsys):
    enc = str(FIXTURES / "squares_diff_enc.json")
    cert = json.loads((FIXTURES / "squares_diff_cert.json").read_text())
    poly_file = tmp_path / "p.txt"
    poly_file.write_text(cert["h"])
    code, out = run(capsys, "hit", "--map", enc, "--poly", str(poly_file))
    assert code == 1 and "fooled" in out

    poly_file.write_text("z1 + z2")
    code, out = run(capsys, "hit", "--map", enc, "--poly", str(poly_file))
    assert code == 0 and "hit" in out


def test_jacobian_command(tmp_path, capsys):
    polys = tmp_path / "polys.json"
    polys.write_text(json.dumps(["x1^2", "x2^2", "x1*x2"]))
    code, out = run(capsys, "jacobian", "--polys", str(polys), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["rank_lower_bound"] == 2
    assert "failure_bound" in report


def test_jacobian_reports_the_prime_it_evaluated_in(tmp_path, capsys):
    # Over GF(7) the rank is evaluated in GF(7), so the bound is (4/7)^3.
    polys = tmp_path / "polys.json"
    polys.write_text(json.dumps(["x1^3 + x2", "x1*x2^2"]))
    code, out = run(capsys, "jacobian", "--polys", str(polys), "--field", "prime:7",
                    "--trials", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["prime"] == 7 and report["failure_bound"] == "64/343"


def test_resultant_command(capsys):
    code, out = run(capsys, "resultant", "--f", "y - a", "--g", "y - b",
                    "--var", "y", "--cofactors", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["resultant"] == "a - b"


def test_instance_families(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _ = run(capsys, "instance", "--family", "kayal", "--n", "2", "--d", "2",
                  "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["outputs"] == ["x1^2 - 1", "x2^2 - 1", "x1 + x2 - 2"]

    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    sys_out = tmp_path / "sys.json"
    code, _ = run(capsys, "instance", "--family", "cnf3", "--cnf", str(cnf),
                  "--out", str(sys_out))
    assert code == 0
    assert len(json.loads(sys_out.read_text())["equations"]) == 4


def test_stretch_command(tmp_path, capsys):
    enc = str(FIXTURES / "squares_diff_enc.json")
    out = tmp_path / "stretched.json"
    code, report_out = run(capsys, "stretch", "--map", enc, "--copies", "3",
                           "--out", str(out), "--json")
    assert code == 0
    report = json.loads(report_out)
    assert report["seed_len"] == 18
    assert report["out_len"] == 21
    assert report["stretch"] == 3


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_stretch_pads_to_the_target_with_fresh_names(tmp_path, capsys, as_json):
    # Two copies of the encoding give 14 outputs over 12 seed variables;
    # padding to 17 adds three fresh seed variables u1..u3 as outputs.
    enc = str(FIXTURES / "squares_diff_enc.json")
    out = tmp_path / "padded.json"
    argv = ["stretch", "--map", enc, "--copies", "2", "--pad", "17", "--out", str(out)]
    code, report_out = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 0
    if as_json:
        assert json.loads(report_out) == {
            "schema_version": 1, "command": "stretch", "copies": 2, "seed_len": 15,
            "out_len": 17, "stretch": 2, "degree": 2, "out": str(out)}
    else:
        assert report_out == f"2 copies: seed 15 -> out 17 (stretch 2, degree 2)\nwrote {out}\n"
    obj = json.loads(out.read_text())
    assert len(obj["outputs"]) == 17 and obj["seed_len"] == 15
    assert obj["seed_names"][12:] == obj["outputs"][14:] == ["u1", "u2", "u3"]
    assert not {"u1", "u2", "u3"} & set(obj["seed_names"][:12])


@pytest.mark.parametrize("name, seed_names", [
    ("y1", ["x1_1", "y1_1", "u1_1"]),
    ("u1", ["u1_1", "x1_1", "u2_1"]),
])
def test_map_without_seed_names_pads_with_names_not_taken(tmp_path, capsys, name, seed_names):
    # seed_len 3 with two names in the text: the third name skips those taken.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"seed_len": 3, "outputs": [f"{name} + x1"]}))
    out = tmp_path / "stretched.json"
    code, _ = run(capsys, "stretch", "--map", str(path), "--copies", "1", "--out", str(out))
    assert code == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["seed_names"] == seed_names


def test_metrics_command(capsys):
    code, out = run(capsys, "metrics", "--circuit", CIRCUIT, "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["size"], report["depth"], report["degree_bound"]) == (4, 3, 2)

    code, out = run(capsys, "metrics",
                    "--encoding", str(FIXTURES / "squares_diff_enc.json"), "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["stretch"], report["max_formula_size"]) == (1, 2)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--circuit"])  # missing value
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_budget_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AF_TERM_BUDGET", "2")
    cert = json.loads((FIXTURES / "squares_diff_cert.json").read_text())
    from annforge.circuit import circuit_from_polynomial, serialize_circuit
    from annforge.fields import QQ
    from annforge.poly import Namespace, parse_polynomial

    h = parse_polynomial(cert["h"], QQ, Namespace.outputs(7))
    cpath = tmp_path / "h.txt"
    cpath.write_text(serialize_circuit(circuit_from_polynomial(h, 7)))
    code = main(["pit", "--circuit", str(cpath),
                 "--map", str(FIXTURES / "squares_diff_enc.json"), "--mode", "symbolic"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "error [limit.term_budget_exceeded]: gate 28: 3 terms exceeds budget 2")


def test_budget_code_names_the_limit_not_a_module(capsys, monkeypatch):
    monkeypatch.setenv("AF_TERM_BUDGET", "1000")
    code = main(["stretch", "--map", str(FIXTURES / "squares_diff_enc.json"),
                 "--copies", "1", "--pad", "1000000000"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error [limit.term_budget_exceeded]: pad: a map with seed length 999999999 and "
        "1000000000 outputs exceeds budget 1000\n")


def test_monomial_ceiling_env_override(capsys, monkeypatch):
    monkeypatch.setenv("AF_MONOMIAL_CEILING", "5")
    code, _ = run(capsys, "search-ann",
                  "--map", str(FIXTURES / "squares_diff_enc.json"), "--degree", "2")
    assert code == 3


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
@pytest.mark.parametrize("name", ["AF_TERM_BUDGET", "AF_MONOMIAL_CEILING"])
def test_a_bad_limit_exits_2_naming_it(tmp_path, capsys, monkeypatch, name, value):
    # Refused by every command, also by one that reaches no guard (encode).
    monkeypatch.setenv(name, value)
    poly = tmp_path / "p.txt"
    poly.write_text("z7 - z6")
    enc = str(FIXTURES / "squares_diff_enc.json")
    for argv in (["verify", "--encoding", enc, "--poly", str(poly)],
                 ["search-ann", "--map", enc, "--degree", "1"],
                 ["encode", "--circuit", CIRCUIT, "--alpha", "1,2", "--beta", "0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [input.invalid]: {name}={value!r} is not an integer >= 1\n"


def test_a_limit_is_read_as_int_and_empty_means_the_default(monkeypatch):
    monkeypatch.setenv("AF_TERM_BUDGET", " 7")
    assert config.term_budget() == 7
    monkeypatch.setenv("AF_MONOMIAL_CEILING", "")
    assert config.monomial_ceiling() == config.ENV_LIMITS["AF_MONOMIAL_CEILING"]


def test_console_entry_point_installed():
    import shutil

    exe = shutil.which("annforge")
    if exe is None:
        pytest.skip("entry point not on PATH")
    import subprocess

    proc = subprocess.run([exe, "metrics", "--circuit", CIRCUIT],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "size 4" in proc.stdout


def run_process(*argv) -> tuple[int, str, str]:
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(annforge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "annforge.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("damage", ["missing", "mistyped"])
def test_malformed_encoding_exits_2(tmp_path, damage):
    obj = json.loads((FIXTURES / "squares_diff_enc.json").read_text())
    if damage == "missing":
        del obj["outputs"]
    else:
        obj["outputs"] = 7
    enc = tmp_path / "enc.json"
    enc.write_text(json.dumps(obj))
    poly = tmp_path / "p.txt"
    poly.write_text("z1")
    for argv in (["verify", "--encoding", str(enc), "--poly", str(poly)],
                 ["annihilate", "--encoding", str(enc)]):
        code, _, err = run_process(*argv)
        assert code == 2, err
        assert "parse.error" in err and "Traceback" not in err


def test_jacobian_small_prime_denominator_exits_2(tmp_path):
    polys = tmp_path / "polys.json"
    polys.write_text(json.dumps(["1/3*x1^2 + x2"]))
    code, _, err = run_process("jacobian", "--polys", str(polys), "--prime", "3")
    assert code == 2, err
    assert "Traceback" not in err
    assert "p=3" in err and "2/3" in err


def test_ips_refute_that_fails_to_verify_exits_2(tmp_path, capsys, monkeypatch):
    enc = tmp_path / "enc.json"
    run(capsys, "encode", "--circuit", CIRCUIT, "--alpha", "1,2", "--beta", "0",
        "--out", str(enc))
    monkeypatch.setattr(cli, "verify_geometric",
                        lambda ref, system: VerifyResult(False, "forced", 0))
    assert main(["ips-refute", "--encoding", str(enc)]) == 2
    assert "annforge.invariant" in capsys.readouterr().err


def test_ips_refute_builds_the_triangular_inverse_once(tmp_path, capsys, monkeypatch):
    # principal_generator and the self-check share the encoding map's peel;
    # the self-check is still decided by encoding.annihilates.
    enc = tmp_path / "enc.json"
    run(capsys, "encode", "--circuit", CIRCUIT, "--alpha", "1,2", "--beta", "0",
        "--out", str(enc))
    inverses, checks = [], []
    real_peel, real_annihilates = encoding.peel, ips.annihilates

    def peel_spy(outputs, n_vars):
        inverses.append(n_vars)
        return real_peel(outputs, n_vars)

    def annihilates_spy(p, pmap):
        checks.append(pmap.seed_len)
        return real_annihilates(p, pmap)

    monkeypatch.setattr(encoding, "peel", peel_spy)
    monkeypatch.setattr(ips, "annihilates", annihilates_spy)
    code, out = run(capsys, "ips-refute", "--encoding", str(enc))
    assert code == 0 and out.startswith("r = ")
    assert inverses == [6]
    assert checks == [6]


def test_search_ann_matches_dense_reference(tmp_path, capsys):
    kayal = tmp_path / "kayal.json"
    kayal.write_text(dumps(map_to_json(kayal_map(2, 2))))
    for path, degree in ((FIXTURES / "squares_diff_enc.json", 3), (kayal, 4)):
        pmap = map_from_json(json.loads(path.read_text()))
        zs = Namespace.outputs(pmap.out_len)
        basis = [format_polynomial(q, zs) for q in reference_basis_search(pmap, degree)]
        expected = [f"annihilator space at degree <= {degree}: dimension {len(basis)}"]
        expected += [f"  {text}" for text in basis]
        code, out = run(capsys, "search-ann", "--map", str(path), "--degree", str(degree))
        assert code == 0
        assert out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("payload", [{"polys": ["x1"]}, {"polynomials": "x1"},
                                     {"polynomials": ["x1"], "var_names": "x1"}, [1, 2]])
def test_jacobian_malformed_polys_exits_2(tmp_path, payload):
    polys = tmp_path / "polys.json"
    polys.write_text(json.dumps(payload))
    code, _, err = run_process("jacobian", "--polys", str(polys))
    assert code == 2, err
    assert "parse.error" in err and "Traceback" not in err


def test_pipeline_on_five_squarings(tmp_path, capsys):
    # (x1 + 2)^16 at x1 = 1 is 3^16, so the claim 3^16 + 1 is false.  verify
    # and ips-verify decide h o F = 0 by triangular reduction, without
    # expanding the composition.
    circuit = tmp_path / "chain5.txt"
    circuit.write_text("circuit chain5\ninputs x1\ng1 = add x1 2\n"
                       + "".join(f"g{k} = mul g{k - 1} g{k - 1}\n" for k in range(2, 6))
                       + "output g5\n")
    p = {name: str(tmp_path / name) for name in ("enc.json", "cert.json", "h.txt",
                                                  "r.json", "sys.json")}
    codes = [main(["encode", "--circuit", str(circuit), "--alpha", "1",
                   "--beta", str(3**16 + 1), "--out", p["enc.json"]]),
             main(["annihilate", "--encoding", p["enc.json"], "--out", p["cert.json"]])]
    (tmp_path / "h.txt").write_text(json.loads((tmp_path / "cert.json").read_text())["h"])
    codes += [main(["verify", "--encoding", p["enc.json"], "--poly", p["h.txt"]]),
              main(["ips-refute", "--encoding", p["enc.json"], "--out", p["r.json"],
                    "--system-out", p["sys.json"]]),
              main(["ips-verify", "--system", p["sys.json"], "--refutation", p["r.json"]])]
    assert codes == [0, 0, 0, 0, 0]
    assert capsys.readouterr().out.splitlines()[-1].startswith("Accept")


FILE_FIELD_COMMANDS = {
    "annihilate": ["--encoding", "enc.json"],
    "search-ann": ["--map", "enc.json", "--degree", "2"],
    "verify": ["--encoding", "enc.json", "--poly", "h.txt"],
    "hit": ["--map", "enc.json", "--poly", "h.txt"],
    "ips-verify": ["--system", "sys.json", "--refutation", "r.json"],
    "ips-refute": ["--encoding", "enc.json"],
    "stretch": ["--map", "enc.json", "--copies", "2"],
}


@pytest.mark.parametrize("command", sorted(FILE_FIELD_COMMANDS))
def test_field_option_only_where_no_file_fixes_the_field(command, capsys):
    # These commands take the field from their input file; --field is a usage error.
    with pytest.raises(SystemExit) as exc:
        main([command, *FILE_FIELD_COMMANDS[command], "--field", "prime:7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --field prime:7" in capsys.readouterr().err


def test_field_option_on_commands_without_an_input_field(capsys):
    runs = [["encode", "--circuit", CIRCUIT, "--alpha", "1,2", "--beta", "3"],
            ["pit", "--circuit", CIRCUIT, "--trials", "2"],
            ["resultant", "--f", "y - a", "--g", "y - b", "--var", "y"],
            ["instance", "--family", "det", "--n", "2"],
            ["metrics", "--circuit", CIRCUIT]]
    for argv in runs:
        assert main([*argv, "--field", "prime:7"]) == 0


@pytest.mark.parametrize("modulus, message", [
    (318665857834031151167461, "is not prime"),  # strong pseudoprime to bases 2..37
    (3317044064679887385961981, ">= 3317044064679887385961981"),  # ... to bases 2..41
])
def test_pseudoprime_or_unbounded_modulus_exits_2(modulus, message):
    code, _, err = run_process("metrics", "--circuit", CIRCUIT, "--field", f"prime:{modulus}")
    assert code == 2, err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("seed_len", ["Infinity", "1e400"])
def test_infinite_seed_len_exits_2(tmp_path, seed_len):
    text = (FIXTURES / "squares_diff_enc.json").read_text()
    path = tmp_path / "map.json"
    path.write_text(text.replace('"seed_len": 6', f'"seed_len": {seed_len}'))
    for argv in (["search-ann", "--map", str(path), "--degree", "1"],
                 ["stretch", "--map", str(path), "--copies", "2"]):
        code, _, err = run_process(*argv)
        assert code == 2, err
        assert "parse.error" in err and "Traceback" not in err


def test_wrong_blocks_exit_2(tmp_path):
    obj = json.loads((FIXTURES / "squares_diff_enc.json").read_text())
    obj["blocks"] = {"input": [0, 5], "internal": [9, 9], "output": [0, 1]}
    enc = tmp_path / "enc.json"
    enc.write_text(json.dumps(obj))
    code, _, err = run_process("metrics", "--encoding", str(enc))
    assert code == 2, err
    assert "stored blocks disagree" in err and "Traceback" not in err


def test_encoding_without_blocks_is_read(tmp_path, capsys):
    obj = json.loads((FIXTURES / "squares_diff_enc.json").read_text())
    del obj["blocks"]
    enc = tmp_path / "enc.json"
    enc.write_text(json.dumps(obj))
    assert run(capsys, "metrics", "--encoding", str(enc))[0] == 0


@pytest.mark.parametrize("case, options", [
    ("seed_len", ["--copies", "1"]),
    ("copies", ["--copies", str(10**9)]),
    ("pad", ["--copies", "1", "--pad", str(10**9)]),
])
def test_counts_beyond_the_term_budget_exit_3(tmp_path, capsys, monkeypatch, case, options):
    # Refused before any list of that length is built.
    monkeypatch.setenv("AF_TERM_BUDGET", "1000")
    path = tmp_path / "map.json"
    if case == "seed_len":
        path.write_text(json.dumps({"seed_len": 10**30, "outputs": ["x1"]}))
    else:
        path.write_text((FIXTURES / "squares_diff_enc.json").read_text())
    argv = ["stretch", "--map", str(path), *options]
    proc = run_in_1_gib(*argv)
    assert proc.returncode == 3, proc.stderr
    assert "budget 1000" in proc.stderr and "Traceback" not in proc.stderr
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1


def run_in_1_gib(*argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter with 1 GiB of address space, so a
    missing guard fails there instead of filling the test process's memory."""
    env = dict(os.environ, PYTHONPATH=str(Path(annforge.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "annforge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (2**30, 2**30)))


@pytest.mark.parametrize("argv, message", [
    (["verify", "--encoding", str(FIXTURES / "squares_diff_enc.json"), "--poly", "POLY"],
     "[limit.term_budget_exceeded]: variable id 6: degree 100000000 exceeds budget 1000000"),
    (["resultant", "--f", "x^100000000 + 1", "--g", "x - 1", "--var", "x"],
     "[algebra.matrix_too_large]: size 100000001 exceeds guard 12"),
], ids=["verify", "resultant"])
def test_huge_degree_exits_3_before_allocating(tmp_path, argv, message):
    poly = tmp_path / "p.txt"
    poly.write_text("z7^100000000")
    proc = run_in_1_gib(*[str(poly) if a == "POLY" else a for a in argv])
    assert proc.returncode == 3, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_pit_refuses_a_flag_that_does_not_apply(capsys):
    enc = str(FIXTURES / "squares_diff_enc.json")
    for argv, flag in [(["--mode", "deterministic_grid"], "--mode"),
                       (["--map", enc, "--grid", "5"], "--grid")]:
        assert main(["pit", "--circuit", CIRCUIT, *argv, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err
    # --mode resolves to symbolic with --map, as when it was the default.
    code, out = run(capsys, "pit", "--circuit", CIRCUIT, "--map", enc, "--json")
    assert code == 0 and json.loads(out)["mode"] == "symbolic"
    code, out = run(capsys, "pit", "--circuit", CIRCUIT, "--json")
    assert code == 0 and json.loads(out)["mode"] == "randomized"


def test_pit_small_grid_warns_on_every_call(capsys):
    # sz_pit's UserWarning becomes one warning: line, also on a second call.
    for _ in range(2):
        assert main(["pit", "--circuit", CIRCUIT, "--grid", "3"]) == 0
        assert capsys.readouterr().err == \
            "warning: grid size 3 below 2*degree_bound = 4; failure bound degrades\n"


def test_system_file_with_too_few_var_names_exits_2(tmp_path, capsys):
    system, ref = tmp_path / "sys.json", tmp_path / "r.json"
    system.write_text(json.dumps({"equations": ["x1"], "n_vars": 2}))
    ref.write_text(json.dumps({"kind": "geometric", "r": "1 - z1"}))
    assert main(["ips-verify", "--system", str(system), "--refutation", str(ref)]) == 2
    assert capsys.readouterr().err == \
        "error [parse.error]: var_names has 1 entries, n_vars is 2\n"


def test_commands_print_through_emit_and_main():
    # Reports get command and out from _emit, and usage errors are raised
    # for main to print, so no cmd_* function states either itself.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Dict):
                    keys = {k.value for k in sub.keys if isinstance(k, ast.Constant)}
                    assert not keys & {"command", "out"}, node.name
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    assert not sub.value.startswith("error"), node.name
    # main has one handler for package errors and one for unreadable input,
    # and none for ValueError: every refusal is an AnnforgeError with a code.
    main_fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [h for n in ast.walk(main_fn) if isinstance(n, ast.Try) for h in n.handlers]
    assert [ast.unparse(h.type) for h in handlers] == [
        "AnnforgeError", "(OSError, UnicodeDecodeError, json.JSONDecodeError)"]
    package = Path(annforge.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert ast.unparse(raised) != "ValueError", (path.name, node.lineno)
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.AnnforgeError)]
    codes = [c.code for c in classes]
    assert len(classes) > 10 and len(set(codes)) == len(codes)
    assert not any(issubclass(c, ValueError) for c in classes)


def test_written_systems_read_back_byte_identically(tmp_path, capsys):
    enc, cnf = tmp_path / "enc.json", tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    written = {name: tmp_path / name for name in ("ips.json", "mp.json", "cnf.json")}
    run(capsys, "encode", "--circuit", CIRCUIT, "--alpha", "1,2", "--beta", "7",
        "--out", str(enc))
    run(capsys, "ips-refute", "--encoding", str(enc), "--system-out", str(written["ips.json"]))
    run(capsys, "instance", "--family", "masser-philippon", "--n", "3", "--d", "2",
        "--out", str(written["mp.json"]))
    run(capsys, "instance", "--family", "cnf3", "--cnf", str(cnf),
        "--out", str(written["cnf.json"]))
    for path in written.values():
        text = path.read_text()
        assert dumps(system_to_json(system_from_json(json.loads(text)))) == text


def test_pit_randomized_refuses_zero_trials(capsys):
    # Sampling no point proves nothing, so "zero" with failure bound 1 is refused.
    argv = ["pit", "--circuit", CIRCUIT, "--map", str(FIXTURES / "squares_diff_enc.json"),
            "--mode", "randomized", "--trials", "0", "--expect", "zero"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "trials must be >= 1" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["instance", "--family", "kayal", "--n", "0"], "family kayal needs --n >= 1 and --d >= 1"),
    (["instance", "--family", "kayal-chain", "--n", "2"], "family kayal-chain needs --n >= 3"),
    (["instance", "--family", "kayal-chain", "--n", "3", "--d", "0"],
     "family kayal-chain needs --d >= 1"),
    (["instance", "--family", "det", "--n", "7"], "family det needs 2 <= --n <= 5"),
    (["resultant", "--f", "x + 1", "--g", "x - 1", "--var", "z"],
     "--f and --g are both constant in --var"),
    (["metrics", "--circuit", CIRCUIT, "--field", "prime:8"],
     "--field prime:8: modulus 8 is not prime"),
    (["pit", "--circuit", CIRCUIT, "--grid", "0"], "--grid must be >= 1"),
    (["pit", "--circuit", CIRCUIT, "--trials", "0"], "--trials must be >= 1"),
    (["search-ann", "--map", ENC, "--degree", "-1"], "--degree must be >= 0"),
    (["stretch", "--map", ENC, "--copies", "0"], "--copies must be >= 1"),
    (["stretch", "--map", ENC, "--copies", "1", "--pad", "2"],
     "--pad 2 is below the output length 7"),
])
def test_a_refused_value_names_its_flag(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error [input.invalid]: {message}\n")


def test_metrics_refuses_field_with_encoding(capsys):
    # The encoding file fixes its field.
    enc = str(FIXTURES / "squares_diff_enc.json")
    assert main(["metrics", "--encoding", enc, "--field", "prime:7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--field does not apply with --encoding" in captured.err


def test_huge_exponent_in_compose_exits_3(tmp_path, capsys):
    # The peel pairs nothing of a kayal map, so hit expands p o F in full.
    kayal, poly = tmp_path / "kayal.json", tmp_path / "p.txt"
    run(capsys, "instance", "--family", "kayal", "--n", "2", "--d", "2", "--out", str(kayal))
    poly.write_text("z1^100000000")
    proc = run_in_1_gib("hit", "--map", str(kayal), "--poly", str(poly))
    assert proc.returncode == 3, proc.stderr
    assert "[limit.term_budget_exceeded]: variable id 0: degree 100000000 exceeds budget " \
           "1000000" in proc.stderr and "Traceback" not in proc.stderr


def test_pit_computes_the_failure_bound_only_for_a_zero_verdict(capsys):
    # (d/grid)^trials is an exact power with millions of digits here; a
    # witness on trial 2 must not pay for it.
    start = time.perf_counter()
    code, out = run(capsys, "pit", "--circuit", CIRCUIT, "--trials", "10000000")
    assert time.perf_counter() - start < 1
    assert code == 0 and out == "verdict: nonzero (trials 2, failure bound 0)\n"


def test_randomized_generator_pit_refuses_a_huge_degree_over_qq(tmp_path):
    # Evaluating x1^100000000 at a grid point over QQ would build an integer
    # of hundreds of megabytes; the degree is refused before sampling.
    circuit, pmap = tmp_path / "square.txt", tmp_path / "map.json"
    circuit.write_text("circuit square\ninputs x1\ng1 = mul x1 x1\noutput g1\n")
    pmap.write_text(json.dumps({"seed_len": 1, "outputs": ["x1^100000000"]}))
    proc = run_in_1_gib("pit", "--circuit", str(circuit), "--map", str(pmap),
                        "--mode", "randomized")
    assert proc.returncode == 3, proc.stderr
    assert "[limit.term_budget_exceeded]: variable id 0: degree 100000000 exceeds budget " \
           "1000000" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("options", [[], ["--map", "MAP", "--mode", "randomized"]],
                         ids=["sz_pit", "generator_pit"])
def test_randomized_pit_refuses_a_huge_circuit_degree_over_qq(tmp_path, options):
    # A 23-gate squaring chain has degree bound 2^22: its values at a grid
    # point over QQ have millions of digits, so it is refused before sampling.
    circuit, pmap = tmp_path / "chain.txt", tmp_path / "map.json"
    gates = "".join(f"g{k + 1} = mul g{k} g{k}\n" for k in range(1, 23))
    circuit.write_text(f"circuit chain\ninputs x1\ng1 = add x1 1\n{gates}output g23\n")
    pmap.write_text(json.dumps({"seed_len": 1, "outputs": ["x1"]}))
    proc = run_in_1_gib("pit", "--circuit", str(circuit),
                        *[str(pmap) if a == "MAP" else a for a in options])
    assert proc.returncode == 3, proc.stderr
    assert "[limit.term_budget_exceeded]: circuit degree bound 4194304 exceeds budget " \
           "1000000" in proc.stderr and "Traceback" not in proc.stderr
    if not options:
        # Over a prime field the values stay small, and the chain answers.
        proc = run_in_1_gib("pit", "--circuit", str(circuit), "--field", f"prime:{2**61 - 1}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("verdict: nonzero")


def test_double_dash_as_an_option_value_is_a_usage_error(capsys):
    # argparse reads "--f=--" as an empty list, not as the text "--".
    assert main(["resultant", "--f=--", "--g=x", "--var=x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'--' is not an option value" in captured.err


def test_jacobian_refused_prime_names_the_flag(tmp_path, capsys):
    polys = tmp_path / "polys.json"
    polys.write_text('["x1^2 + x2", "x1*x2"]')
    assert main(["jacobian", "--polys", str(polys), "--prime", "8"]) == 2
    assert capsys.readouterr() == ("", "error [input.invalid]: --prime 8: modulus 8 is not prime\n")
    # Over GF(q) the rank is taken in q, and --prime is not read.
    assert main(["jacobian", "--polys", str(polys), "--prime", "8", "--field", "prime:7"]) == 0


@pytest.mark.parametrize("family", ["kayal", "masser-philippon", "det"])
def test_instance_json_without_out_prints_one_json_document(capsys, family):
    code, text = run(capsys, "instance", "--family", family)
    assert code == 0
    code, out = run(capsys, "instance", "--family", family, "--json")
    assert code == 0
    report = json.loads(out)  # one JSON value: the payload rides inside the report
    assert report == {"schema_version": 1, "command": "instance", "family": family,
                      "payload": text, "out": None}
