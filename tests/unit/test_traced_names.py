"""Every callable the layer benchmark's tracer wraps still exists in ``repro``.

``benchmarks/layers/tracer.py`` wraps its ``WRAPPED`` table by name for a
traced pass, so a deleted or renamed method breaks the benchmark, not an
import.  This test reads the table (without writing anything under
``benchmarks/``) and resolves each ``(owner, attribute)`` the way the tracer
does, so the tier-1 suite notices the breakage.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "layers" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("layers_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    wrapped = [(owner, attr) for owners in tracer.WRAPPED.values()
               for owner, attrs in owners for attr in attrs]
    assert len(wrapped) > 100
    missing = [f"{owner}.{attr}" for owner, attr in wrapped
               if not callable(getattr(tracer._resolve(owner), attr, None))]
    assert missing == []
