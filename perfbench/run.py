"""annforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify|kernel|evaluate --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout (``src/annforge`` next to ``perfbench``).
The script compiles the sources to bytecode, then re-executes itself in a
fresh single-threaded interpreter with a fixed PYTHONHASHSEED.  Set-up is
done several times in the run; then whole rounds over the seeded corpus are
timed, one op at a time, until ``--seconds`` have passed and at least
``MIN_OPS`` ops are done.  Percentiles are taken within each round and
averaged over the rounds (see ``end_to_end``).  Every op's output is checked
outside the timed region.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced run, per
corpus round).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HASH_SEED = "0"
REEXEC_MARK = "ANNFORGE_BENCH_CHILD"

LAYERS = ["fields", "poly", "circuit", "encoding", "annihilator", "linalg", "pit",
          "ips", "instances", "serialize", "cli"]
#: Set-up is repeated this many times per run, spread over the run so that
#: it does not hang on one moment of the machine; their trimmed mean is
#: reported.
SETUP_ROUNDS = 12
#: Share of the lowest and of the highest values that a trimmed mean drops.
TRIM = 0.1
#: p90 needs at least ten samples beyond it.
MIN_OPS = 100
#: Stop starting rounds after this much wall time, to end well within 180 s.
WALL_CAP_S = 120.0

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

_BUSY = [
    "cli.encode", "cli.annihilate", "cli.verify", "cli.ips_refute", "cli.ips_verify",
    "serialize", "poly.parse", "poly.format", "encoding.local_encode",
    "circuit.parse_circuit", "annihilator.principal_generator",
    "annihilator.verify_annihilates", "ips.canonical_geometric_refutation",
    "ips.verify_geometric", "encoding.compose_polynomial", "annihilator.basis_search",
    "poly.mul", "poly.evaluate", "circuit.evaluate_circuit", "pit.sz_pit",
    "pit.generator_pit", "linalg.rank_random_eval",
]
_SELF = ["cli", "serialize", "poly", "circuit", "encoding", "annihilator", "linalg",
         "pit", "ips", "annihilator.basis_search"]
_COUNTS = [
    "serialize.bytes", "annihilator.h_terms", "encoding.compose_polynomial.calls",
    "encoding.compose_polynomial.out_terms", "annihilator.basis_search.cols",
    "annihilator.basis_search.rows", "annihilator.basis_search.dim", "poly.mul.calls",
    "poly.mul.term_pairs", "fields.qq.mul_calls", "fields.gfp.mul_calls",
    "poly.evaluate.calls", "poly.evaluate.terms", "circuit.evaluate_circuit.calls",
    "pit.trials_run",
]
#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{n}.busy_s", "s", "lower") for n in _BUSY]
    + [(f"{n}.self_s", "s", "lower") for n in _SELF]
    + [(n, "count", "lower") for n in _COUNTS]
    + [("instances.busy_s", "s", "lower"), ("trace.ops_per_s", "1/s", "higher"),
       ("trace.overhead_x", "x", "lower")]
)


class _Sink:
    """Stands in for stdout while the CLI runs; the result line must be the
    last line the benchmark prints."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["certify", "kernel", "evaluate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def reexec_fresh() -> None:
    """Compile bytecode now, so that no .pyc write lands in set-up time, and
    restart in a fresh interpreter with a fixed hash seed."""
    import compileall

    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **{REEXEC_MARK: "1"})
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
              env)


def load_annforge() -> SimpleNamespace:
    """Import annforge afresh (dropping any earlier import of it)."""
    for name in [n for n in sys.modules if n == "annforge" or n.startswith("annforge.")]:
        del sys.modules[name]
    importlib.import_module("annforge")
    return SimpleNamespace(**{n: importlib.import_module(f"annforge.{n}") for n in LAYERS})


def set_up(workload_cls, seed: int, workdir: str, start: float):
    """Import annforge, build the seeded corpus and run one warm-up op;
    return them with the time taken since ``start``."""
    af = load_annforge()
    wl = workload_cls(seed, workdir)
    corpus = wl.build(af)
    wl.prepare(corpus[0])
    wl.op(af, corpus[0])
    return af, wl, corpus, time.perf_counter() - start


class Run:
    """Whole rounds over the corpus: op times, failures and check results."""

    def __init__(self, af, wl, corpus):
        self.af, self.wl, self.corpus = af, wl, corpus
        self.op_times: list[float] = []
        #: The op times of each round, for per-round percentiles.
        self.round_times: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = 0
        self.timed = 0.0

    def round(self, tracer=None) -> None:
        af, wl = self.af, self.wl
        times: list[float] = []
        self.round_times.append(times)
        for item in self.corpus:
            wl.prepare(item)
            gc.collect()
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = wl.op(af, item)
                error = False
            except Exception:
                error = True
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            if error:
                traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.timed += elapsed
            if error or wl.failed(item, result):
                self.failed += 1
                continue
            self.op_times.append(elapsed)
            times.append(elapsed)
            try:
                wl.check(af, item, result, self.rounds)
            except Exception as exc:
                self.correct = False
                print(f"check failed on {wl.name} item {item['index']}: {exc!r}",
                      file=sys.stderr)
        self.rounds += 1

    def until(self, seconds: float, min_ops: int, tracer=None, between=None) -> None:
        """Whole rounds until ``seconds`` have passed and ``min_ops`` ops are
        done; ``between(elapsed)`` runs after each round."""
        start = time.perf_counter()
        while True:
            self.round(tracer)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and self.attempted >= min_ops) or elapsed > WALL_CAP_S:
                return
            if between is not None:
                between(elapsed)

    @property
    def ops_per_s(self) -> float:
        return len(self.op_times) / self.timed


def trimmed_mean(values, share: float = TRIM) -> float:
    """Mean of ``values`` without the lowest and the highest ``share`` of them."""
    values = sorted(values)
    k = int(len(values) * share)
    return statistics.fmean(values[k:len(values) - k])


def end_to_end(run: Run, setup_times) -> dict:
    """The end-to-end metrics of an untraced run.

    The host this was tuned on switches between a fast and a slow state
    every few seconds (a fixed loop reads about 12 or 18 ms, rarely
    between).  A percentile of all op times pooled would sit near the gap
    between the two modes and jump across it with the share of time spent
    slow.  A percentile taken within each round (0.4 to 2 s, the whole
    corpus mix) and averaged over the rounds moves in proportion to that
    share instead, as ``ops_per_s`` does.  Set-up times are averaged the
    same way.  Trimming drops the rounds that a hiccup of the host hit."""
    rounds = [[t * 1000 for t in r] for r in run.round_times if len(r) >= 2]
    if not rounds:
        return {}
    values = {
        "setup_s": trimmed_mean(setup_times),
        "ops_per_s": run.ops_per_s,
        "op_p50_ms": trimmed_mean([statistics.median(r) for r in rounds]),
        "op_p90_ms": trimmed_mean([statistics.quantiles(r, n=10)[8] for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run, tracer, instances_s: float, untraced_ops_per_s: float) -> dict:
    """Per-layer metrics of the traced rounds, per corpus round."""
    if not run.op_times:
        return {}
    rounds = run.rounds
    values = {}
    for name, unit, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "busy_s":
            values[name] = tracer.busy.get(base, 0.0) / rounds
        elif kind == "self_s":
            values[name] = tracer.self_time.get(base, 0.0) / rounds
        elif unit == "count":
            total = tracer.counts.get(name, 0)
            values[name] = total // rounds if total % rounds == 0 else total / rounds
    values["instances.busy_s"] = instances_s
    values["trace.ops_per_s"] = run.ops_per_s
    values["trace.overhead_x"] = untraced_ops_per_s / run.ops_per_s
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "annforge", "__init__.py")):
        print(f"error: no annforge sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get(REEXEC_MARK) != "1":
        reexec_fresh()
    sys.path.insert(0, SRC)
    import selftest
    import tracing
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    real_stdout = sys.stdout
    sys.stdout = _Sink()
    workload_cls = WORKLOADS[args.workload]
    try:
        af, wl, corpus, first_setup = set_up(workload_cls, args.seed, workdir, _START)
        selftest.run()
        gc.collect()
        gc.freeze()
        if args.trace:
            # A third of the run untraced, for the overhead; the rest traced.
            plain = Run(af, wl, corpus)
            plain.until(args.seconds / 3, 1)
            tracer = tracing.Tracer()
            tracer.install(af)
            tracer.active = True
            corpus = wl.build(af)
            tracer.active = False
            instances_s = tracer.busy.get("instances", 0.0)
            tracer.reset()
            run = Run(af, wl, corpus)
            run.until(args.seconds * 2 / 3, 1, tracer)
            metrics = per_layer(run, tracer, instances_s, plain.ops_per_s)
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
            run.attempted += plain.attempted
            run.failed += plain.failed
            run.correct = run.correct and plain.correct
        else:
            run = Run(af, wl, corpus)
            setup_times = [first_setup]

            def set_up_again(elapsed: float) -> None:
                # Set up afresh once per 1/SETUP_ROUNDS of the run; the rounds
                # after it use the new import and corpus.
                if elapsed < len(setup_times) * args.seconds / SETUP_ROUNDS:
                    return
                gc.unfreeze()
                gc.collect()
                run.af, run.wl, run.corpus, took = set_up(
                    workload_cls, args.seed, workdir, time.perf_counter())
                setup_times.append(took)
                gc.collect()
                gc.freeze()

            run.until(args.seconds, MIN_OPS, between=set_up_again)
            metrics = end_to_end(run, setup_times)
    finally:
        sys.stdout = real_stdout
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print(f"error: all {run.attempted} ops failed", file=sys.stderr)
        return 1
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
