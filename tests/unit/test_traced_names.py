"""What the layer benchmark pins of ``repro`` by name still resolves.

``benchmarks/layers/tracer.py`` wraps its ``WRAPPED`` table by name for a
traced pass, and ``benchmarks/layers/workloads.py`` builds its ``scale_200``
spec with keyword arguments, so a deleted or renamed method, class or keyword
breaks the benchmark, not an import.  These tests read both files (without
writing anything under ``benchmarks/``) and check each name the way the
benchmark uses it, so the tier-1 suite notices the breakage.  A close must
also still publish through the names the tracer wraps, or a traced pass
would show no upload or anchor under it.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.core.deployment import SCFSDeployment
from repro.scenarios.spec import ScenarioSpec

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "layers"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("layers_tracer", LAYERS / "tracer.py")
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
    missing = []
    for owner, attr in wrapped:
        try:
            resolved = tracer._resolve(owner)
        except (ImportError, AttributeError):
            missing.append(owner)
            continue
        if not callable(getattr(resolved, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_no_two_traced_owners_are_one_class():
    """Wrapping one class twice would record every call of it as two spans."""
    tracer = _load_tracer()
    owners = [path for owners in tracer.WRAPPED.values() for path, _attrs in owners]
    resolved = [tracer._resolve(path) for path in owners]
    assert len({id(owner) for owner in resolved}) == len(owners)


def test_generate_scale_binds_what_the_layer_workloads_pass():
    tree = ast.parse((LAYERS / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "generate_scale"]
    assert calls
    signature = inspect.signature(ScenarioSpec.generate_scale)
    for call in calls:
        keywords = [keyword.arg for keyword in call.keywords]
        assert None not in keywords  # no ``**`` the check could not see through
        signature.bind(*call.args, **dict.fromkeys(keywords))


@pytest.mark.parametrize("variant", ["SCFS-CoC-B", "SCFS-CoC-NB", "SCFS-AWS-B", "SCFS-AWS-NB"])
def test_a_close_publishes_through_the_traced_calls_and_a_transaction_in_a_batch(variant):
    """A close's one version goes through ``push_to_cloud`` and ``update``,
    names the tracer wraps, so a traced close shows its upload and anchor; a
    transaction's write set goes through the batch calls."""
    deployment = SCFSDeployment.for_variant(variant, seed=3)
    fs = deployment.create_agent("alice")
    fs.mkdir("/d", shared=True)
    fs.write_file("/d/g", b"g", shared=True)
    fs.flush_pending("/")
    calls = []
    for owner, name in ((fs.storage, "push_to_cloud"), (fs.storage, "push_many_to_cloud"),
                        (fs.metadata, "update"), (fs.metadata, "update_many")):
        method = getattr(owner, name)
        setattr(owner, name, lambda *a, _call=method, _name=name, **k:
                calls.append(_name) or _call(*a, **k))
    fs.write_file("/d/f", b"one", shared=True)
    fs.flush_pending("/")
    assert calls == ["push_to_cloud", "update", "update_many"]
    calls.clear()

    def body(txn) -> None:
        txn.write("/d/f", b"two")
        txn.write("/d/g", b"three")

    fs.run_transaction(body)
    assert calls == ["push_many_to_cloud", "update_many"]
    assert (fs.read_file("/d/f"), fs.read_file("/d/g")) == (b"two", b"three")
