#!/usr/bin/env python3
"""Line reach: the statement lines of ``src/annforge`` that no CLI call and
no benchmark op runs.

    PYTHONPATH=src python3 scripts/reach.py

It runs every call of the transcript corpus
(``tests/fixtures/cli_transcripts.json``), each scenario's calls in turn
in one directory, and one round of each benchmark corpus (``certify``,
``kernel`` and ``evaluate``, seed ``SEED``: build, op and check, as
``perfbench/run.py`` runs them) in-process under a ``sys.settrace`` line
tracer, then prints, per function, each statement line that never ran.
A statement line is the first line of a statement in a function body,
the docstring excluded; a nested function's body belongs to the nested
function.  The package is imported under the tracer, so lines that run
at import (a decorator's body) count as run; the transcript harness is
not traced, only each CLI call.  ``tests/test_reach.py`` holds the
unrun lines equal to its allow-list.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "annforge"
#: The benchmark seed of the one round that is traced.
SEED = 1


def _body_statements(body: list, prefix: str, owner: str | None):
    """(owner, statement) for each statement under ``body``, where owner is
    the qualname of the function whose body holds it (None outside any
    function) and ``prefix`` the qualname prefix of definitions there."""
    for stmt in body:
        if owner is not None:
            yield owner, stmt
        if isinstance(stmt, ast.ClassDef):
            yield from _body_statements(stmt.body, f"{prefix}{stmt.name}.", None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = stmt.body
            if isinstance(inner[0], ast.Expr) and isinstance(inner[0].value, ast.Constant) \
                    and isinstance(inner[0].value.value, str):
                inner = inner[1:]
            qualname = prefix + stmt.name
            yield from _body_statements(inner, f"{qualname}.<locals>.", qualname)
        else:
            blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [part.body for part in getattr(stmt, "handlers", [])
                       + getattr(stmt, "cases", [])]
            for block in blocks:
                yield from _body_statements(block, prefix, owner)


def statement_lines(path: Path) -> dict[int, tuple[str, str]]:
    """line -> (module.qualname, stripped text) for every statement line in a
    function body of ``path``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    return {stmt.lineno: (f"{path.stem}.{owner}", text[stmt.lineno - 1].strip())
            for owner, stmt in _body_statements(ast.parse(source).body, "", None)}


class Tracer:
    """Records the statement lines of the package that run while it is on.

    A code object whose statement lines have all run is no longer traced,
    and a frame stops being traced once its code object's lines have."""

    def __init__(self):
        self.lines = {str(path): statement_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
        self.seen: dict[str, set[int]] = {path: set() for path in self.lines}
        #: id of a package code object -> (the code object, its line tracer
        #: or None once its statement lines have all run).  Holding the code
        #: object keeps its id from being reused once code that runs once at
        #: import (a module's, a class body's) is freed.
        self._tracers: dict[int, tuple] = {}

    def _line_tracer(self, code):
        seen = self.seen[code.co_filename]
        want = set(self.lines[code.co_filename]).intersection(
            line for _, _, line in code.co_lines())
        key = id(code)

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno not in seen:
                seen.add(frame.f_lineno)
                if want <= seen:
                    self._tracers[key] = (code, None)
                    return None
            return local

        return None if want <= seen else local

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.lines:
            return None
        key = id(code)
        if key not in self._tracers:
            self._tracers[key] = (code, self._line_tracer(code))
        return self._tracers[key][1]

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def unrun(self) -> dict[str, list[tuple[int, str]]]:
        """module.qualname -> [(line, stripped text)] of each statement line
        that has not run."""
        out: dict[str, list[tuple[int, str]]] = {}
        for path, lines in self.lines.items():
            for line in sorted(set(lines) - self.seen[path]):
                qualname, text = lines[line]
                out.setdefault(qualname, []).append((line, text))
        return out


def replay_transcripts(tracer: Tracer) -> None:
    """Run every call of the transcript corpus, each scenario's calls in
    turn in one directory, as scripts/transcripts.py ran them to record
    them; the calls are traced, the harness around them is not."""
    spec = importlib.util.spec_from_file_location("transcripts",
                                                  ROOT / "scripts" / "transcripts.py")
    transcripts = importlib.util.module_from_spec(spec)
    with tracer:
        spec.loader.exec_module(transcripts)  # imports the package
    cli_main = transcripts.cli_main

    def traced_main(argv):
        with tracer:
            return cli_main(argv)

    transcripts.cli_main = traced_main
    for scenario in json.loads(transcripts.FIXTURE.read_text(encoding="utf-8"))["scenarios"]:
        with tempfile.TemporaryDirectory(prefix="reach_") as root:
            for call in scenario["calls"]:
                transcripts._write_files(root, call.get("inputs", {}))
                transcripts.run_call(root, call["argv"], call.get("env", {}))


def benchmark_round(tracer: Tracer) -> None:
    """One round of each benchmark corpus at seed SEED, traced: build, op
    and check every item, as perfbench/run.py does in a timed round."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from run import LAYERS
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    af = SimpleNamespace(**{n: importlib.import_module(f"annforge.{n}") for n in LAYERS})
    with tempfile.TemporaryDirectory(prefix="reach_") as workdir, \
            contextlib.redirect_stdout(io.StringIO()), tracer:
        for name, cls in WORKLOADS.items():
            os.mkdir(os.path.join(workdir, name))
            wl = cls(SEED, os.path.join(workdir, name))
            for item in wl.build(af):
                wl.prepare(item)
                wl.check(af, item, wl.op(af, item), 0)


def main() -> int:
    tracer = Tracer()
    replay_transcripts(tracer)
    benchmark_round(tracer)
    unrun = tracer.unrun()
    total = sum(len(lines) for lines in tracer.lines.values())
    for qualname, lines in sorted(unrun.items()):
        print(qualname)
        for line, text in lines:
            print(f"    {line}: {text}")
    print(f"{sum(map(len, unrun.values()))} of {total} statement lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
