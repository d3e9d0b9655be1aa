"""The layer benchmark's simulated ledger, pinned exactly.

``benchmarks/layers/workloads.py`` runs the five workloads the benchmark
reports.  Their simulated values (the eight ``sim`` metrics, the op counts and
the replay fingerprint) are deterministic per seed, so a smoke pass of each
is compared with ``==`` against ``ledger_golden.json``.  A change that moves a
simulated number fails here and prints every changed key as ``old -> new``.

An intended move re-pins the golden: ``PYTHONPATH=src python
tests/integration/test_ledger_golden.py`` rewrites it from the current tree.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "layers"
GOLDEN = Path(__file__).with_name("ledger_golden.json")
SEED = 17
WORKLOADS = ("bulk_16m", "faulty_1m", "meta_small", "scale_200", "txn_hot")


def _load_workloads():
    """Import ``workloads.py`` by path, with its directory on ``sys.path`` only meanwhile."""
    spec = importlib.util.spec_from_file_location("layers_workloads", LAYERS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(LAYERS))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(LAYERS))
        sys.dont_write_bytecode = writes_bytecode
    return module


def _ledger_row(workloads, workload: str) -> dict:
    result = workloads.run_pass(workload, SEED, smoke=True)
    return {**result["sim"], "failed": result["failed"], "attempted": result["attempted"],
            "fingerprint": result["fingerprint"]}


@pytest.fixture(scope="module")
def workloads():
    return _load_workloads()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_matches_the_golden(workloads, workload):
    expected = json.loads(GOLDEN.read_text())[workload]
    got = _ledger_row(workloads, workload)
    changed = [f"{key}: {expected.get(key)!r} -> {got.get(key)!r}"
               for key in sorted(expected.keys() | got.keys())
               if expected.get(key) != got.get(key)]
    assert not changed, f"{workload} moved:\n  " + "\n  ".join(changed)


if __name__ == "__main__":
    module = _load_workloads()
    GOLDEN.write_text(json.dumps({w: _ledger_row(module, w) for w in WORKLOADS},
                                 indent=1, sort_keys=True) + "\n")
