"""Every annforge function that ``perfbench/tracing.py`` wraps still exists,
so ``perfbench/run.py --trace 1`` keeps installing after a name is deleted
or renamed in ``src/``.  The tracer module is only loaded, not installed,
and each layer is imported by name, so the test also passes on its own."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = load_tracing()
    targets = [(mod, attr) for mod, attr, *_ in tracing._FUNCTIONS]
    targets += [("serialize", name) for name in tracing._SERIALIZE]
    targets += [("instances", name) for name in tracing._INSTANCES]
    assert len(targets) > 20
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(importlib.import_module(f"annforge.{mod}"), attr, None))]
    assert missing == []
