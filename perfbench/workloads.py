"""The benchmark's three workloads: corpus, timed op and per-op check.

Each workload builds a seeded corpus with annforge's own constructors
(``build``), runs one op per corpus item (``op``, the only timed code) and
checks the op's output against ``oracle`` (``check``, never timed).  The
corpus is made of fixed size classes, so that every seed gives the same mix
of op costs; only coefficients, points and shifts depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import oracle

PRIME = 2**61 - 1

#: The worked example of the paper (tests/fixtures/squares_diff.txt).
SQUARES_DIFF = """circuit squares_diff
inputs x1 x2
g1 = mul x2 -1
g2 = add x1 x2
g3 = add x1 g1
g4 = mul g2 g3
output g4
"""

#: Trials for randomized identity tests: (d / (2d + 1))^20 < 2^-20 < 10^-6.
PIT_TRIALS = 20
FAILURE_BOUND = Fraction(1, 10**6)


class CheckError(Exception):
    """An op's output disagrees with the oracle."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _signed(rng: random.Random, magnitude: int) -> int:
    """``magnitude`` with a seeded sign.  Seeded values keep fixed magnitudes
    where the cost of exact arithmetic depends on them, so that every seed
    costs about the same."""
    return rng.choice((-magnitude, magnitude))


def _chain(af, s: int, rng: random.Random):
    """The squaring chain g1 = x1 + c, g_{k+1} = g_k * g_k with s gates."""
    b = af.circuit.CircuitBuilder(af.fields.QQ, 1, name=f"chain{s}")
    g = b.add(b.input(0), b.const(_signed(rng, 2)))
    for _ in range(s - 1):
        g = b.mul(g, g)
    return b.build()


def _rational_point(rng: random.Random, size: int) -> list[Fraction]:
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(size)]


def check_generator(h_text: str, circuit, alpha, beta, points) -> None:
    """h is monic of degree 1 in z_{n+s+1}, h(0) = beta - f(alpha), and h
    vanishes on the encoding's outputs at each seed point."""
    h = oracle.parse_poly(h_text)
    m = circuit.n + circuit.s + 1
    last = f"z{m}"
    exps = oracle.degree_in(h, last)
    _expect(max(exps) == 1 and exps.count(1) == 1, "h not of degree 1 in z_m")
    _expect(h[exps.index(1)] == (Fraction(1), ((last, 1),)), "h not monic in z_m")
    _expect(oracle.eval_poly(h, oracle.z_env([0] * m)) == beta - circuit.evaluate(alpha),
            "h(0) != beta - f(alpha)")
    for point in points:
        env = oracle.z_env(circuit.encoding_outputs(alpha, beta, point))
        _expect(oracle.eval_poly(h, env) == 0, "h does not vanish on the encoding")


def check_dimension(found: int, m: int, max_degree: int, generator_degree: int) -> None:
    expected = oracle.annihilator_dimension(m, max_degree, generator_degree)
    _expect(found == expected, f"dimension {found} != C(m + D - deg P, m) = {expected}")


# -- certify ------------------------------------------------------------------


class Certify:
    """One op is the CLI pipeline encode -> annihilate -> verify ->
    ips-refute -> ips-verify on one false claim ``circuit(alpha) = beta``,
    run in-process through ``annforge.cli.main`` with files in a work dir."""

    name = "certify"
    #: (class, copies per round).  Squaring chains of s = 4 are the heavy
    #: class; with 3 of 18 ops per round the 90th percentile falls inside it.
    CLASSES = [
        ("squares_diff", 2), ("det2", 2), ("det3", 2), ("random", 6),
        ("chain1", 1), ("chain2", 1), ("chain3", 1), ("chain4", 3),
    ]
    #: Random circuits: (inputs, gates), degree bound capped to 2..4.
    RANDOM_SHAPES = [(2, 6), (2, 8), (2, 10), (3, 6), (3, 8), (3, 10)]
    DEGREE_CAP = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._tamper_checked: set = set()

    def _circuit_text(self, af, kind: str, rng: random.Random, copy: int) -> str:
        QQ = af.fields.QQ
        if kind == "squares_diff":
            return SQUARES_DIFF
        if kind in ("det2", "det3"):
            return af.circuit.serialize_circuit(af.instances.det_circuit(int(kind[-1]), QQ))
        if kind == "random":
            n, s = self.RANDOM_SHAPES[copy]
            while True:
                c = af.circuit.random_circuit(n, s, seed=rng.randrange(2**31),
                                              const_pool=(1, -1, 2), field=QQ)
                if 2 <= af.circuit.metrics(c).degree_bound <= self.DEGREE_CAP:
                    return af.circuit.serialize_circuit(c)
        return af.circuit.serialize_circuit(_chain(af, int(kind[-1]), rng))

    def build(self, af) -> list[dict]:
        rng = random.Random(f"certify:{self.seed}")
        items = []
        for kind, copies in self.CLASSES:
            for copy in range(copies):
                text = self._circuit_text(af, kind, rng, copy)
                circuit = oracle.DslCircuit(text)
                # Nonzero alpha; on a chain x1 + c (c = +-2) stays nonzero.
                alpha = [_nonzero(rng, 2) if kind[:5] != "chain" else _signed(rng, 1)
                         for _ in range(circuit.n)]
                value = circuit.evaluate(alpha)
                beta = value + rng.choice([d for d in range(-3, 4) if d and value + d])
                d = os.path.join(self.workdir, f"certify{len(items)}")
                os.makedirs(d, exist_ok=True)
                paths = {k: os.path.join(d, k) for k in
                         ("circuit.txt", "enc.json", "cert.json", "h.txt", "r.json",
                          "sys.json", "tampered.json")}
                with open(paths["circuit.txt"], "w", encoding="utf-8") as fh:
                    fh.write(text)
                items.append({"kind": kind, "text": text, "circuit": circuit,
                              "alpha": alpha, "beta": beta, "paths": paths,
                              "index": len(items)})
        return items

    def prepare(self, item: dict) -> None:
        """Remove the outputs of the last op on this item, so that a failed
        step cannot leave a stale file for the next step to read."""
        for key in ("enc.json", "cert.json", "h.txt", "r.json", "sys.json"):
            try:
                os.remove(item["paths"][key])
            except FileNotFoundError:
                pass

    def op(self, af, item: dict) -> list[int]:
        p = item["paths"]
        main = af.cli.main
        alpha = ",".join(str(a) for a in item["alpha"])
        codes = [main(["encode", "--circuit", p["circuit.txt"], f"--alpha={alpha}",
                       f"--beta={item['beta']}", "--out", p["enc.json"]])]
        if codes[-1]:
            return codes
        codes.append(main(["annihilate", "--encoding", p["enc.json"],
                           "--out", p["cert.json"]]))
        if codes[-1]:
            return codes
        with open(p["cert.json"], encoding="utf-8") as fh:
            h = json.load(fh)["h"]
        with open(p["h.txt"], "w", encoding="utf-8") as fh:
            fh.write(h)
        codes.append(main(["verify", "--encoding", p["enc.json"], "--poly", p["h.txt"]]))
        if codes[-1]:
            return codes
        codes.append(main(["ips-refute", "--encoding", p["enc.json"], "--out", p["r.json"],
                           "--system-out", p["sys.json"]]))
        if codes[-1]:
            return codes
        codes.append(main(["ips-verify", "--system", p["sys.json"],
                           "--refutation", p["r.json"]]))
        return codes

    def failed(self, item: dict, result: list[int]) -> bool:
        return result != [0, 0, 0, 0, 0]

    def check(self, af, item: dict, result, round_no: int) -> None:
        p = item["paths"]
        circuit, alpha, beta = item["circuit"], item["alpha"], item["beta"]
        n, s = circuit.n, circuit.s
        m = n + s + 1
        with open(p["cert.json"], encoding="utf-8") as fh:
            h_text = json.load(fh)["h"]
        with open(p["r.json"], encoding="utf-8") as fh:
            r_obj = json.load(fh)
        rng = random.Random(f"certify-check:{self.seed}:{item['index']}:{round_no}")
        points = [_rational_point(rng, n + s) for _ in range(2)]
        check_generator(h_text, circuit, alpha, beta, points)
        r = oracle.parse_poly(r_obj["r"])
        _expect(oracle.eval_poly(r, oracle.z_env([0] * m)) == 1, "r(0) != 1")
        for point in points:
            env = oracle.z_env(circuit.encoding_outputs(alpha, beta, point))
            _expect(oracle.eval_poly(r, env) == 0, "r does not vanish on the encoding")
        if item["kind"] in ("det2", "det3"):
            k = int(item["kind"][-1])
            rows = [alpha[i * k:(i + 1) * k] for i in range(k)]
            _expect(oracle.determinant(rows) == circuit.evaluate(alpha),
                    "det circuit != determinant")
        key = (item["index"], r_obj["r"])
        if key in self._tamper_checked:
            return
        c = _nonzero(rng, 5)
        j, k = rng.randint(1, m), rng.randint(1, m)
        sign = "+" if c > 0 else "-"
        tampered = dict(r_obj, r=f"{r_obj['r']} {sign} {abs(c)}*z{j}*z{k}")
        with open(p["tampered.json"], "w", encoding="utf-8") as fh:
            json.dump(tampered, fh)
        code = af.cli.main(["ips-verify", "--system", p["sys.json"],
                            "--refutation", p["tampered.json"]])
        _expect(code == 1, f"ips-verify exit {code} on a tampered refutation")
        self._tamper_checked.add(key)


# -- kernel -------------------------------------------------------------------


class Kernel:
    """One op is one ``annihilator_basis_search``.  Power-sum maps
    ``kayal_map(n, d)`` get a seeded affine change of seed variables and a
    seeded scaling of outputs, which changes the work and not the answer;
    each is searched at degrees d^n - 1 .. d^n + 1 over QQ and GF(p).  The
    squares_diff encoding is searched at degrees 2 and 3."""

    name = "kernel"
    KAYAL = [(1, 2), (1, 3), (1, 4), (2, 2)]
    #: Seeded variants per (n, d, degree), 1 where not listed.  They place the
    #: median inside the 4-6 ms group of searches and the 90th percentile
    #: inside the (2, 2) degree-4 QQ searches, not on a jump between groups.
    VARIANTS = {(2, 2, 4): 4, (1, 2, 1): 2, (1, 2, 2): 2, (1, 2, 3): 2}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._dims: dict = {}

    def _kayal(self, af, field, n, d, shift, scale):
        P = af.poly.Polynomial
        base = af.instances.kayal_map(n, d, field)
        subst = {i: P.variable(field, i).scale(a) + P.constant(field, b)
                 for i, (a, b) in enumerate(shift)}
        outputs = tuple(q.compose(subst).scale(c) for q, c in zip(base.outputs, scale))
        return af.encoding.PolynomialMap(outputs=outputs, seed_len=n,
                                         seed_names=base.seed_names)

    def _squares_diff(self, af, field, alpha, beta, scale):
        enc = af.encoding.local_encode(af.circuit.parse_circuit(SQUARES_DIFF, field),
                                       alpha, beta)
        outputs = tuple(q.scale(c) for q, c in zip(enc.map.outputs, scale))
        return af.encoding.PolynomialMap(outputs=outputs, seed_len=enc.map.seed_len,
                                         seed_names=enc.map.seed_names)

    def build(self, af) -> list[dict]:
        rng = random.Random(f"kernel:{self.seed}")
        specs = []
        for n, d in self.KAYAL:
            for degree in (d**n - 1, d**n, d**n + 1):
                for _ in range(self.VARIANTS.get((n, d, degree), 1)):
                    shift = [(_signed(rng, 1), 2) for _ in range(n)]
                    scale = [_signed(rng, 2) for _ in range(n + 1)]
                    specs.append(("kayal", (n, d), degree, shift, scale))
        sd = oracle.DslCircuit(SQUARES_DIFF)
        for degree in (2, 3):
            alpha, beta = [2, -1], 3
            scale = [_signed(rng, 2) for _ in range(sd.n + sd.s + 1)]
            specs.append(("squares_diff", (alpha, beta), degree, None, scale))
        items = []
        for field_name, field in (("QQ", af.fields.QQ),
                                  ("GF", af.fields.PrimeField(PRIME))):
            for spec, (kind, params, degree, shift, scale) in enumerate(specs):
                if kind == "kayal":
                    pmap = self._kayal(af, field, *params, shift, scale)
                    gen_degree = params[1] ** params[0]
                else:
                    pmap = self._squares_diff(af, field, *params, scale)
                    gen_degree = 2
                items.append({"kind": kind, "spec": spec, "params": params, "degree": degree,
                              "shift": shift, "scale": scale, "field": field_name,
                              "map": pmap, "gen_degree": gen_degree,
                              "index": len(items)})
        return items

    def prepare(self, item: dict) -> None:
        pass

    def op(self, af, item: dict):
        return af.annihilator.annihilator_basis_search(item["map"], item["degree"])

    def failed(self, item: dict, result) -> bool:
        return False

    def _outputs(self, item: dict, point, p):
        if item["kind"] == "kayal":
            n, d = item["params"]
            return oracle.kayal_outputs(n, d, item["shift"], item["scale"], point, p)
        alpha, beta = item["params"]
        outs = oracle.DslCircuit(SQUARES_DIFF).encoding_outputs(alpha, beta, point, p)
        return [oracle.to_field(c * v, p) for c, v in zip(item["scale"], outs)]

    def check(self, af, item: dict, basis, round_no: int) -> None:
        pmap = item["map"]
        m = pmap.out_len
        p = PRIME if item["field"] == "GF" else None
        check_dimension(len(basis), m, item["degree"], item["gen_degree"])
        ns = af.poly.Namespace.outputs(m)
        polys = [oracle.parse_poly(af.poly.format_polynomial(q, ns)) for q in basis]
        vectors = [{factors: c for c, factors in terms} for terms in polys]
        _expect(oracle.rank(vectors, p) == len(basis), "basis is linearly dependent")
        rng = random.Random(f"kernel-check:{self.seed}:{item['index']}:{round_no}")
        for _ in range(2):
            env = oracle.z_env(self._outputs(item, _rational_point(rng, pmap.seed_len), p))
            for terms in polys:
                _expect(oracle.eval_poly(terms, env, p) == 0,
                        "basis polynomial does not vanish on the map")
        key = (item["spec"], round_no)
        other = self._dims.pop(key, None)
        if other is None:
            self._dims[key] = len(basis)
        else:
            _expect(other == len(basis), "QQ and GF(p) dimensions differ")


# -- evaluate -----------------------------------------------------------------


class Evaluate:
    """One op is one point-evaluation job: an exhaustive 0/1 check of a 3CNF
    system, ``sz_pit`` on a circuit, ``generator_pit --mode randomized`` of
    the circuit of h through its encoding, or ``rank_random_eval`` of a
    Jacobian."""

    name = "evaluate"
    #: 3CNF systems: (variables, clauses).
    #: Each system's clauses have 0, 1, 2 and 3 positive literals equally
    #: often, which fixes the term count of the system.
    CNF = [(6, 16)] * 4
    #: Identity-test circuits: 2 zero by construction and 2 nonzero per kind.
    SZ_KINDS = ["commute", "square"]
    SZ_SIZE = 40
    #: Encodings whose h goes through generator_pit, and Jacobians.
    GEN_CLAIMS = ["squares_diff", "det2", "chain3"]
    JACOBIANS = [("kayal", 4, 2), ("kayal", 5, 2), ("encoding", "squares_diff", None),
                 ("encoding", "det2", None)]
    RANK_TRIALS = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    # Circuits for sz_pit: R*S - S*R and (R+S)^2 - R^2 - 2RS - S^2 vanish for
    # every R and S; adding c*x_i*x_j makes a nonzero one of the same shape.
    def _random_expr(self, b, rng: random.Random, n: int, size: int) -> int:
        """``size`` gates, every fifth a product: the shape and degree are
        fixed and the operands are seeded."""
        g = b.input(rng.randrange(n))
        for k in range(size):
            right = b.input(rng.randrange(n)) if k % 3 else b.const(_signed(rng, 2))
            g = b.mul(g, right) if k % 5 == 4 else b.add(g, right)
        return g

    def _sz_circuit(self, af, rng, kind: str, nonzero: bool):
        b = af.circuit.CircuitBuilder(af.fields.QQ, 4, name=f"{kind}_{int(nonzero)}")
        r = self._random_expr(b, rng, 4, self.SZ_SIZE)
        s = self._random_expr(b, rng, 4, self.SZ_SIZE)
        neg = b.const(-1)
        if kind == "commute":
            out = b.add(b.mul(r, s), b.mul(neg, b.mul(s, r)))
        else:
            rs = b.mul(r, s)
            out = b.mul(b.add(r, s), b.add(r, s))
            for t in (b.mul(r, r), b.mul(b.const(2), rs), b.mul(s, s)):
                out = b.add(out, b.mul(neg, t))
        if nonzero:
            i, j = rng.sample(range(4), 2)
            out = b.add(out, b.mul(b.const(_nonzero(rng, 5)), b.mul(b.input(i), b.input(j))))
        return b.build(out)

    def _claim_circuit(self, af, kind: str, rng):
        QQ = af.fields.QQ
        if kind == "squares_diff":
            return af.circuit.parse_circuit(SQUARES_DIFF, QQ)
        if kind == "det2":
            return af.instances.det_circuit(2, QQ)
        return _chain(af, 3, rng)

    def _encoding(self, af, kind, rng):
        c = self._claim_circuit(af, kind, rng)
        alpha = [_nonzero(rng, 2) for _ in range(c.n_inputs)]
        return af.encoding.local_encode(c, alpha, _nonzero(rng, 3))

    def build(self, af) -> list[dict]:
        rng = random.Random(f"evaluate:{self.seed}")
        QQ = af.fields.QQ
        items = []
        for n, k in self.CNF:
            positives = [i % 4 for i in range(k)]
            rng.shuffle(positives)
            clauses = [tuple(v if j < pos else -v
                             for j, v in enumerate(rng.sample(range(1, n + 1), 3)))
                       for pos in positives]
            system = af.instances.encode_3cnf(clauses, n, QQ)
            items.append({"kind": "cnf", "n": n, "clauses": clauses, "system": system})
        for kind in self.SZ_KINDS:
            for nonzero in (False, False, True, True):
                c = self._sz_circuit(af, rng, kind, nonzero)
                items.append({"kind": "sz", "circuit": c, "nonzero": nonzero,
                              "text": af.circuit.serialize_circuit(c),
                              "seed": rng.randrange(2**31)})
        for kind in self.GEN_CLAIMS:
            enc = self._encoding(af, kind, rng)
            h = af.annihilator.principal_generator(enc).h
            hc = af.circuit.circuit_from_polynomial(h, enc.out_len, name=f"h_{kind}")
            items.append({"kind": "gen", "circuit": hc, "map": enc.map,
                          "seed": rng.randrange(2**31)})
        for kind, a, d in self.JACOBIANS:
            if kind == "kayal":
                pmap = af.instances.kayal_map(a, d, QQ)
                expected = a
            else:
                pmap = self._encoding(af, a, rng).map
                expected = pmap.seed_len
            mat = af.linalg.jacobian(list(pmap.outputs), list(range(pmap.seed_len)))
            items.append({"kind": "rank", "matrix": mat, "expected": expected,
                          "seed": rng.randrange(2**31)})
        for index, item in enumerate(items):
            item["index"] = index
        return items

    def prepare(self, item: dict) -> None:
        pass

    def op(self, af, item: dict):
        kind = item["kind"]
        if kind == "cnf":
            f = af.fields.QQ
            equations = item["system"].equations
            count = 0
            for point in itertools.product((f.zero, f.one), repeat=item["n"]):
                values = [e.evaluate(point) for e in equations]
                count += all(f.is_zero(v) for v in values)
            return count
        if kind == "sz":
            return af.pit.sz_pit(item["circuit"], trials=PIT_TRIALS, seed=item["seed"])
        if kind == "gen":
            return af.pit.generator_pit(item["circuit"], item["map"], mode="randomized",
                                        trials=PIT_TRIALS, seed=item["seed"])
        return af.linalg.rank_random_eval(item["matrix"], trials=self.RANK_TRIALS,
                                          seed=item["seed"])

    def failed(self, item: dict, result) -> bool:
        return False

    def check(self, af, item: dict, result, round_no: int) -> None:
        kind = item["kind"]
        if kind == "cnf":
            _expect(result == oracle.count_models(item["clauses"], item["n"]),
                    "vanishing count != model count")
        elif kind == "sz":
            if item["nonzero"]:
                _expect(result.verdict == "nonzero", "sz_pit missed a nonzero circuit")
                circuit = oracle.DslCircuit(item["text"])
                _expect(circuit.evaluate(result.witness) != 0, "witness does not witness")
            else:
                _expect(result.verdict == "zero", "sz_pit called a zero circuit nonzero")
                _expect(result.failure_bound <= FAILURE_BOUND, "failure bound above 1e-6")
        elif kind == "gen":
            _expect(result.verdict == "zero", "generator_pit: h o map is not zero")
            _expect(result.failure_bound <= FAILURE_BOUND, "failure bound above 1e-6")
        else:
            _expect(result == item["expected"], f"rank {result} != {item['expected']}")


WORKLOADS = {w.name: w for w in (Certify, Kernel, Evaluate)}
