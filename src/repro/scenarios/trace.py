"""The scenario engine's trace recorder.

A scenario run produces one totally ordered *history*: every file-system
operation (open/read/write/fsync/close), every lock transition, every DepSky
quorum call, every fault injection and every health transition, stamped with
the simulated time at which it happened and a global sequence number.  The
invariant checkers of :mod:`repro.scenarios.invariants` consume this history
the way a Jepsen checker consumes an operation log.

The recorder doubles as the replay oracle: :meth:`TraceRecorder.fingerprint`
hashes the canonical JSON serialisation of the whole history, so two runs of
the same :class:`~repro.scenarios.spec.ScenarioSpec` can be compared for
*byte-identical* equality — the property that makes "rerun the failing seed"
a faithful reproduction rather than a different interleaving.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.clouds.dispatch import QuorumCallStats


def _scalar(value: Any) -> Any:
    """Coerce one event field into a JSON-stable scalar (or list of scalars)."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_scalar(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _scalar(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass(frozen=True)
class TraceEvent:
    """One entry of a scenario history."""

    seq: int
    time: float
    kind: str
    agent: str | None
    fields: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor for one event field."""
        return self.fields.get(key, default)

    def to_json(self) -> str:
        """Canonical JSON serialisation (stable key order, exact floats)."""
        payload = {"seq": self.seq, "time": self.time, "kind": self.kind,
                   "agent": self.agent}
        payload.update(sorted(self.fields.items()))
        return json.dumps(payload, sort_keys=False, separators=(",", ":"))


#: Declared event schema: every trace kind the codebase may emit, mapped to
#: the exact set of fields it carries.  This registry is the contract between
#: the emitters (``SCFSAgent._emit``, ``recorder.record``) and the stringly
#: typed consumers in :mod:`repro.scenarios.invariants`: the static analyzer
#: (``python -m repro.analysis``) flags any emission with an undeclared kind
#: or field (TRC001/TRC002) and any checker read of a field that no selected
#: kind declares (TRC003).  Adding an event means adding it here first.
TRACE_SCHEMA: dict[str, frozenset[str]] = {
    # ---- file-system operations (SCFSAgent) ----
    "open": frozenset({"path", "file_id", "digest", "version", "served",
                       "write", "created", "locked", "handle", "began"}),
    "read": frozenset({"path", "handle", "offset", "size"}),
    "write": frozenset({"path", "handle", "offset", "size"}),
    "fsync": frozenset({"path", "handle", "digest", "size"}),
    "close": frozenset({"path", "file_id", "handle", "dirty", "digest",
                        "version", "size", "blocking"}),
    "upload": frozenset({"path", "file_id", "digest", "version", "background",
                         "txn"}),
    "commit": frozenset({"path", "file_id", "digest", "version", "background",
                         "txn", "locator"}),
    "unlink": frozenset({"path", "file_id"}),
    # ---- coordination ----
    "lock": frozenset({"lock"}),
    "unlock": frozenset({"lock"}),
    # ---- transactions ----
    "txn_begin": frozenset({"txn"}),
    "txn_commit": frozenset({"txn", "began", "attempts", "reads", "writes",
                             "renamed_from", "renamed_to"}),
    "txn_abort": frozenset({"txn", "reason", "reads", "writes"}),
    # ---- cloud backend ----
    "quorum": frozenset({"op", "unit", "required", "charged", "reached",
                         "winners", "outcomes", "hedged", "probes", "demoted"}),
    "health": frozenset({"cloud", "state"}),
    # ---- scenario engine ----
    "setup_done": frozenset({"files", "pooled"}),
    "agent_crash": frozenset({"lease"}),
    "agent_restart": frozenset({"crashed_at"}),
    "fault_start": frozenset({"target", "fault", "factor"}),
    "fault_end": frozenset({"target", "fault", "factor"}),
    "op_error": frozenset({"op", "path", "benign", "error"}),
    "scenario_done": frozenset({"ops"}),
}


def summarize_quorum(stats: QuorumCallStats) -> dict[str, Any]:
    """Flatten one quorum call's statistics into JSON-stable trace fields."""
    return {
        "required": stats.required,
        "charged": stats.charged,
        "reached": stats.reached,
        "winners": list(stats.winner_clouds),
        "outcomes": [[t.cloud, t.status.value, t.stage, t.resolved_at]
                     for t in stats.traces],
        "hedged": stats.hedged,
        "probes": stats.probes,
        "demoted": list(stats.demoted),
    }


class TraceRecorder:
    """Append-only, totally ordered event log of one scenario run.

    The :meth:`record` method matches the :data:`~repro.core.agent.EventSink`
    signature, so a recorder can be handed directly to
    :meth:`~repro.core.deployment.SCFSDeployment.create_agent`.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------- recording

    def record(self, kind: str, agent: str | None = None, time: float = 0.0,
               **fields: Any) -> TraceEvent:
        """Append one event; returns it (mostly for tests)."""
        event = TraceEvent(
            seq=next(self._seq), time=float(time), kind=kind, agent=agent,
            fields={key: _scalar(value) for key, value in fields.items()},
        )
        self.events.append(event)
        return event

    def quorum_sink(self, agent: str, sim) -> Any:
        """Build a :attr:`DepSkyClient.on_quorum` observer bound to ``agent``."""

        def on_quorum(op: str, unit_id: str, stats: QuorumCallStats) -> None:
            self.record("quorum", agent=agent, time=sim.now(), op=op,
                        unit=unit_id, **summarize_quorum(stats))

        return on_quorum

    def health_sink(self, agent: str) -> Any:
        """Build a :attr:`CloudHealthTracker.on_transition` observer."""

        def on_transition(cloud: str, state: str, now: float) -> None:
            self.record("health", agent=agent, time=now, cloud=cloud, state=state)

        return on_transition

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, *kinds: str) -> Iterator[TraceEvent]:
        """Iterate the events of the given kinds, in sequence order."""
        wanted = set(kinds)
        return (e for e in self.events if e.kind in wanted)

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)

    # ---------------------------------------------------------------- replay

    def to_jsonl(self) -> str:
        """The whole history as canonical JSON lines."""
        return "\n".join(event.to_json() for event in self.events)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical serialisation: the replay identity.

        Two scenario runs are *byte-identical* iff their fingerprints match —
        every operation, timestamp, digest, quorum outcome and fault window
        participates in the hash.
        """
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()
