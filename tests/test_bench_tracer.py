"""The benchmark tracer patches functions by name; each must still exist."""

from __future__ import annotations

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    # Executed from source so that no bytecode is written next to it.
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    assert len(tracer.TARGETS) == 12
    for module, attr, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
