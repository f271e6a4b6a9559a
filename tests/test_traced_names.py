from __future__ import annotations

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name: a renamed or bypassed
    # function would make its per-layer metric read 0 without an error.
    # spans.py is executed from its text, so nothing is written beside it
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    assert len(spans.TARGETS) == 34
    for module, attribute, _, _ in spans.TARGETS:
        target = importlib.import_module(f"symcanon.{module}")
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module}.{attribute}"
