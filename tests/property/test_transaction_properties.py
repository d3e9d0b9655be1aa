"""Property-based tests for the multi-file transaction layer.

Hypothesis drives 2-4 agents through random interleavings of transactional
and plain operations over a small shared file pool, then asserts the two
properties the layer exists for:

* every *committed* history is conflict-serializable (and the per-file
  version sequences stay linearizable) — checked by the same history
  checkers the scenario sweep uses;
* an aborted transaction leaves no visible partial state: its staged bytes
  (made globally unique by embedding the transaction id) are readable
  nowhere, and no per-file commit carries its transaction id.

The simulation is deterministic per drawn program, so every failing example
Hypothesis shrinks to is replayable as-is.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.errors import (
    LockHeldError,
    TransactionAbortedError,
    TransactionConflictError,
)
from repro.common.types import Permission
from repro.core.deployment import SCFSDeployment
from repro.scenarios.invariants import (
    check_serializability,
    check_version_linearizability,
)
from repro.scenarios.trace import TraceRecorder

FILES = ("/shared/f0", "/shared/f1", "/shared/f2")

#: One drawn step: (agent index, op kind, file index, payload tag).
#: ``txn`` reads a 2-file window and rewrites it; ``write``/``read`` are the
#: plain per-file paths racing the transactions.
_steps = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(("txn", "write", "read")),
              st.integers(0, len(FILES) - 1), st.integers(0, 255)),
    min_size=1, max_size=24,
)


def _build(agent_count: int, recorder: TraceRecorder):
    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=7)
    mounts = [deployment.create_agent(f"agent{i}", events=recorder.record)
              for i in range(agent_count)]
    owner = mounts[0]
    owner.mkdir("/shared", shared=True)
    for path in FILES:
        owner.write_file(path, b"seed:" + path.encode(), shared=True)
        for other in mounts[1:]:
            owner.setfacl(path, other.principal.name, Permission.READ_WRITE)
    deployment.drain(2.0)
    return deployment, mounts


def _run_program(agent_count: int, steps) -> TraceRecorder:
    recorder = TraceRecorder()
    deployment, mounts = _build(agent_count, recorder)
    for agent_index, kind, file_index, tag in steps:
        fs = mounts[agent_index % agent_count]
        path = FILES[file_index]
        window = [path, FILES[(file_index + 1) % len(FILES)]]
        try:
            if kind == "txn":
                txn = fs.transactions.begin()
                # The txn id makes every staged payload globally unique: if
                # these bytes are ever readable, *this* transaction leaked.
                staged = {p: f"{txn.txn_id}:{tag}:{p}".encode() for p in window}
                try:
                    for p in window:
                        txn.read(p)
                    for p in window:
                        txn.write(p, staged[p])
                    txn.commit()
                except TransactionConflictError:
                    for p in window:
                        assert fs.read_file(p) != staged[p], (
                            f"aborted {txn.txn_id} leaked its write to {p}")
            elif kind == "write":
                fs.write_file(path, bytes([tag]) * 4, shared=True)
            else:
                fs.read_file(path)
        except (LockHeldError, TransactionAbortedError):
            pass
        deployment.sim.advance(0.05 * (tag % 3))
    deployment.drain(5.0)
    return recorder


@settings(max_examples=25, deadline=None)
@given(agent_count=st.integers(2, 4), steps=_steps)
def test_committed_histories_are_serializable(agent_count, steps) -> None:
    recorder = _run_program(agent_count, steps)
    assert check_serializability(recorder) == []
    assert check_version_linearizability(recorder) == []


@settings(max_examples=25, deadline=None)
@given(agent_count=st.integers(2, 4), steps=_steps)
def test_aborts_leave_no_visible_partial_state(agent_count, steps) -> None:
    """Beyond the read-back checks inside the program: no per-file commit is
    tagged with an aborted transaction's id, and every abort recorded the
    write set it dropped."""
    recorder = _run_program(agent_count, steps)
    aborted_ids = {e.get("txn") for e in recorder.by_kind("txn_abort")}
    committed_ids = {e.get("txn") for e in recorder.by_kind("txn_commit")}
    assert not aborted_ids & committed_ids
    for event in recorder.by_kind("commit"):
        txn_id = event.get("txn")
        assert txn_id is None or txn_id not in aborted_ids, (
            f"commit event anchored by aborted transaction {txn_id}")
