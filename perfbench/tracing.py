"""Span tracing around annforge's layer functions, from outside ``src/``.

``Tracer.install`` replaces each named function with a wrapper, in every
annforge module that bound the same object (so ``annforge.cli``'s and
``annforge.annihilator``'s imported names are traced too), and replaces a few
methods on their classes.  A wrapper records a span (name, start, end,
parent) and adds its duration to its parent's child time, which gives each
span's self time.  Spans stay in memory and are written once, by ``dump``.

Hot leaf calls (polynomial ``*`` and ``evaluate``) are timed and counted but
not kept as spans, and field multiplications are only counted, so a traced
run's memory stays flat.  The wrappers do nothing but call through while
``active`` is false.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [name, child_time, span_id, extra]
        self.spans: list[list] = []  # [name, start, end, parent_span_id]
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, hot=False, hook=None):
        """``name`` is a span name ``layer.function`` or a callable that
        makes one from the call's arguments.  ``hook(tracer, frame, args,
        result)`` adds exact counts after the call."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            layer = span.split(".", 1)[0]
            stack = tracer.stack
            parent_sid = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            sid = None
            if not hot:
                sid = len(tracer.spans)
                tracer.spans.append([span, 0.0, 0.0, parent_sid])
            frame = [span, 0.0, sid, {}]
            stack.append(frame)
            depth = tracer._depth
            depth[span] += 1
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                depth[span] -= 1
                depth[layer] -= 1
                if depth[span] == 0:
                    tracer.busy[span] += dur
                if depth[layer] == 0:
                    tracer.busy[layer] += dur
                own = dur - frame[1]
                tracer.self_time[span] += own
                if span != layer:
                    tracer.self_time[layer] += own
                if stack:
                    stack[-1][1] += dur
                if sid is not None:
                    tracer.spans[sid][1:3] = [start, end]
            if hook is not None:
                hook(tracer, frame, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, fn, key):
        tracer = self

        def counted(*args):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def install(self, af) -> None:
        """Wrap the layer functions of the annforge modules in ``af``."""
        modules = [m for n, m in sys.modules.items()
                   if n == "annforge" or n.startswith("annforge.")]

        def rebind(orig, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

        for mod_name, attr, span, hot, hook in _FUNCTIONS:
            orig = getattr(getattr(af, mod_name), attr)
            rebind(orig, self.wrap(orig, span, hot, hook))
        for fn_name in _SERIALIZE:
            orig = getattr(af.serialize, fn_name)
            hook = _dumps_hook if fn_name == "dumps" else None
            rebind(orig, self.wrap(orig, f"serialize.{fn_name}", hook=hook))
        for fn_name in _INSTANCES:
            orig = getattr(af.instances, fn_name)
            rebind(orig, self.wrap(orig, f"instances.{fn_name}"))
        poly = af.poly.Polynomial
        poly.__mul__ = self.wrap(poly.__mul__, "poly.mul", hot=True, hook=_mul_hook)
        poly.evaluate = self.wrap(poly.evaluate, "poly.evaluate", hot=True,
                                  hook=_evaluate_hook)
        af.fields.RationalField.mul = self.count_calls(
            af.fields.RationalField.mul, "fields.qq.mul_calls")
        af.fields.PrimeField.mul = self.count_calls(
            af.fields.PrimeField.mul, "fields.gfp.mul_calls")
        af.cli.main = self.wrap(af.cli.main, _cli_span)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _cli_span(args) -> str:
    argv = args[0] if args else None
    step = argv[0] if argv else "main"
    return "cli." + step.replace("-", "_")


def _mul_hook(tracer, frame, args, result):
    tracer.counts["poly.mul.calls"] += 1
    tracer.counts["poly.mul.term_pairs"] += args[0].term_count() * args[1].term_count()


def _evaluate_hook(tracer, frame, args, result):
    tracer.counts["poly.evaluate.calls"] += 1
    tracer.counts["poly.evaluate.terms"] += args[0].term_count()


def _evaluate_circuit_hook(tracer, frame, args, result):
    tracer.counts["circuit.evaluate_circuit.calls"] += 1


def _compose_hook(tracer, frame, args, result):
    tracer.counts["encoding.compose_polynomial.calls"] += 1
    tracer.counts["encoding.compose_polynomial.out_terms"] += result.term_count()
    if tracer.stack and tracer.stack[-1][0] == "annihilator.basis_search":
        rows = tracer.stack[-1][3].setdefault("rows", set())
        rows.update(m for m, _ in result.iter_terms())


def _basis_search_hook(tracer, frame, args, result):
    pmap, max_degree = args[0], args[1]
    tracer.counts["annihilator.basis_search.cols"] += comb(pmap.out_len + max_degree,
                                                           max_degree)
    tracer.counts["annihilator.basis_search.rows"] += len(frame[3].get("rows", ()))
    tracer.counts["annihilator.basis_search.dim"] += len(result)


def _generator_hook(tracer, frame, args, result):
    tracer.counts["annihilator.h_terms"] += result.h.term_count()


def _pit_hook(tracer, frame, args, result):
    tracer.counts["pit.trials_run"] += result.trials_run


def _dumps_hook(tracer, frame, args, result):
    tracer.counts["serialize.bytes"] += len(result.encode("utf-8"))


# (module, function, span name, hot, count hook)
_FUNCTIONS = [
    ("poly", "parse_polynomial", "poly.parse", False, None),
    ("poly", "format_polynomial", "poly.format", False, None),
    ("circuit", "parse_circuit", "circuit.parse_circuit", False, None),
    ("circuit", "evaluate_circuit", "circuit.evaluate_circuit", True,
     _evaluate_circuit_hook),
    ("encoding", "local_encode", "encoding.local_encode", False, None),
    ("encoding", "compose_polynomial", "encoding.compose_polynomial", False,
     _compose_hook),
    ("annihilator", "principal_generator", "annihilator.principal_generator", False,
     _generator_hook),
    ("annihilator", "verify_annihilates", "annihilator.verify_annihilates", False, None),
    ("annihilator", "annihilator_basis_search", "annihilator.basis_search", False,
     _basis_search_hook),
    ("ips", "canonical_geometric_refutation", "ips.canonical_geometric_refutation",
     False, None),
    ("ips", "verify_geometric", "ips.verify_geometric", False, None),
    ("pit", "sz_pit", "pit.sz_pit", False, _pit_hook),
    ("pit", "generator_pit", "pit.generator_pit", False, _pit_hook),
    ("linalg", "rank_random_eval", "linalg.rank_random_eval", False, None),
]

_SERIALIZE = [
    "dumps", "map_to_json", "map_from_json", "encoding_to_json", "encoding_from_json",
    "certificate_to_json", "system_to_json", "system_from_json",
    "refutation_to_json", "refutation_from_json",
]

_INSTANCES = ["kayal_map", "det_circuit", "encode_3cnf"]
