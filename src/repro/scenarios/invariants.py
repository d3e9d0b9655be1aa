"""Jepsen-style invariant checkers over a scenario history.

Each checker consumes the totally ordered trace of one scenario run (see
:mod:`repro.scenarios.trace`) — plus, for durability, the deployment's
cloud-side ground truth — and returns the violations it found.  The four
checkers correspond to the paper's headline guarantees:

1. **Consistency-on-close** (§2.3) — an anchored read never serves a version
   older than the last close whose commit *completed* before the read's
   metadata could have been cached (the metadata cache bounds staleness to
   its expiration; with expiration 0 the check is strict).
2. **Mutual exclusion** (§2.5.1) — at most one agent holds the write lock of
   a file at any instant of the history.
3. **Durability / replication** (§2.5, Table 1) — every committed version
   still anchored at the end of the run is reconstructible from the blocks
   the providers *actually* hold: at least ``f + 1`` digest-verified blocks
   exist, replication never silently shrank below ``n - f`` minus the clouds
   that were write-faulty when the version was pushed, and a fresh DepSky
   client can re-assemble the exact payload.
4. **Commit ordering** (§3.1) — the non-blocking (and blocking) close pushes
   the data to the cloud(s) *before* the metadata update, and releases the
   write lock only *after* the metadata update, for every version.
5. **Serializability** (the transactional layer) — the committed history,
   reconstructed from the ``txn_commit`` events plus every plain ``commit``
   (a write-only singleton transaction), has an acyclic read-from /
   write-order / anti-dependency graph; no version has two writers and no
   committed transaction is torn.
6. **Version linearizability** (the coordination anchor) — per file, the
   anchored version sequence is strictly increasing and gapless in history
   order: the metadata entry behaves as a linearizable CAS register.
7. **Namespace tree** — at the end of the run every live shared entry has a
   live directory above it: shared, in its owner's PNS, or ``/``.

Crash semantics: an ``agent_crash`` event marks everything the agent closed
but had not committed as legitimately lost (the documented non-blocking data
loss window), and lock takeovers after the crashed holder's lease expired are
legal (``lock_lease`` below).

Checkers never mutate the deployment; the durability checker's end-to-end
read runs through an uncharged DepSky client, so it neither advances the
simulated clock nor appends to the trace.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.common.errors import IntegrityError, ReproError
from repro.coordination.base import FILE_LOCK_PREFIX
from repro.core.backend import SingleCloudBackend
from repro.core.metadata_service import META_PREFIX
from repro.core.modes import BackendKind
from repro.crypto.hashing import content_digest
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import DepSkyClient, preferred_order
from repro.scenarios.trace import TraceRecorder
from repro.simenv.failures import FaultKind

#: Cloud fault kinds that can reduce the number of *stored, verifiable* copies
#: of a version written while they are active (an UNAVAILABLE cloud triggers
#: preferred-quorum spill-over instead, so it does not shrink replication).
_WRITE_FAULTS = (FaultKind.CORRUPTION, FaultKind.DROP_WRITES, FaultKind.BYZANTINE)


@dataclass(frozen=True)
class Violation:
    """One invariant violation, anchored to the event that exposed it."""

    invariant: str
    message: str
    seq: int | None = None

    def __str__(self) -> str:
        anchor = f" @seq={self.seq}" if self.seq is not None else ""
        return f"[{self.invariant}]{anchor} {self.message}"


# ---------------------------------------------------------------------------
# crash bookkeeping shared by several checkers
# ---------------------------------------------------------------------------


def _crash_filter(trace: TraceRecorder):
    """``lost(event) -> bool`` for closes wiped out by an agent crash.

    A dirty close whose agent crashed before the matching commit landed is
    the documented non-blocking data-loss window, not a violation: its
    version was never anchored, so no guarantee attaches to it.
    """
    crash_times: dict[str, list[float]] = {}
    for event in trace.by_kind("agent_crash"):
        crash_times.setdefault(event.agent, []).append(event.time)
    if not crash_times:
        return lambda event: False
    commit_times: dict[tuple, list[float]] = {}
    for e in trace.by_kind("commit"):
        key = (e.agent, e.get("file_id"), e.get("version"))
        commit_times.setdefault(key, []).append(e.time)

    def lost(event) -> bool:
        crashes = [t for t in crash_times.get(event.agent, ())
                   if t >= event.time]
        if not crashes:
            return False
        # The close survives only if its commit landed before the crash that
        # follows it.  A commit of the same (agent, file, version) *after* a
        # restart is a different, re-issued write — it does not resurrect the
        # close that the crash wiped out.
        wiped_at = min(crashes)
        key = (event.agent, event.get("file_id"), event.get("version"))
        return not any(event.time <= t <= wiped_at
                       for t in commit_times.get(key, ()))

    return lost


# ---------------------------------------------------------------------------
# 1. consistency-on-close
# ---------------------------------------------------------------------------


def check_consistency_on_close(trace: TraceRecorder,
                               staleness: float = 0.0) -> list[Violation]:
    """Anchored reads never serve a version older than the last completed close.

    ``staleness`` is the agents' metadata-cache expiration: a commit only
    becomes *required* reading once it completed strictly more than
    ``staleness`` simulated seconds before the open (a fresh cache entry may
    legitimately hide anything younger).
    """
    violations: list[Violation] = []
    lost_in_crash = _crash_filter(trace)
    # (file_id) -> list of committed (time, version); (file_id, version) -> digest.
    commits: dict[str, list[tuple[float, int]]] = {}
    digest_of: dict[tuple[str, int], str] = {}
    for event in trace.by_kind("close", "commit"):
        fid = event.get("file_id")
        version = event.get("version")
        digest = event.get("digest")
        if not fid or not digest:
            continue
        if event.kind == "close" and lost_in_crash(event):
            continue
        known = digest_of.setdefault((fid, version), digest)
        if known != digest:
            violations.append(Violation(
                "consistency-on-close",
                f"file {fid} version {version} recorded two digests "
                f"({known[:12]}… vs {digest[:12]}…)",
                seq=event.seq,
            ))
        if event.kind == "commit":
            commits.setdefault(fid, []).append((event.time, version))

    for event in trace.by_kind("open"):
        if not event.get("served"):
            continue
        fid = event.get("file_id")
        served_version = event.get("version")
        served_digest = event.get("digest")
        # Freshness is judged at the instant the open took its metadata
        # snapshot (`began`), not at event emission: the data fetch between
        # the two can take seconds under a degraded cloud.
        reference = event.get("began", event.time)
        required = 0
        for time, version in commits.get(fid, ()):
            # Strict inequality: a commit landing at exactly the staleness
            # boundary may still be hidden by a just-fresh cache entry.
            if time < reference - staleness and version > required:
                required = version
        if served_version < required:
            violations.append(Violation(
                "consistency-on-close",
                f"{event.agent} opened {event.get('path')} and was served "
                f"version {served_version}, but version {required} had "
                f"completed its close more than {staleness}s earlier",
                seq=event.seq,
            ))
        if served_digest and digest_of.get((fid, served_version),
                                           served_digest) != served_digest:
            violations.append(Violation(
                "consistency-on-close",
                f"{event.agent} was served digest {served_digest[:12]}… for "
                f"{event.get('path')} v{served_version}, which no close of "
                "that version produced",
                seq=event.seq,
            ))
    return violations


# ---------------------------------------------------------------------------
# 2. mutual exclusion
# ---------------------------------------------------------------------------


def check_mutual_exclusion(trace: TraceRecorder,
                           lock_lease: float = math.inf) -> list[Violation]:
    """At most one agent holds the write lock of a file at any instant.

    ``lock_lease`` is the deployment's lease: both coordination services time
    lock leases from the acquisition, so a takeover at least ``lock_lease``
    seconds after the holder's acquisition is the lock service working as
    designed (the crashed-holder recovery path), not a violation.
    """
    violations: list[Violation] = []
    holder: dict[str, tuple[str, float]] = {}
    for event in trace.by_kind("lock", "unlock"):
        name = event.get("lock")
        if event.kind == "lock":
            current = holder.get(name)
            if (current is not None and current[0] != event.agent
                    and event.time < current[1] + lock_lease):
                violations.append(Violation(
                    "mutual-exclusion",
                    f"{event.agent} acquired {name} while {current[0]} still held it",
                    seq=event.seq,
                ))
            holder[name] = (event.agent, event.time)
        else:
            if name in holder and holder[name][0] == event.agent:
                del holder[name]
    return violations


# ---------------------------------------------------------------------------
# 3. durability / replication
# ---------------------------------------------------------------------------


def _latest_commits(trace: TraceRecorder) -> dict[str, object]:
    """Last commit event per file id, excluding files that were ever unlinked.

    An unlinked file may be purged by the garbage collector (including a
    version committed by a background upload that completed *after* the
    unlink, whose ``Update`` keeps the flag), so durability is only demanded of
    file ids that were never deleted.  Recreating a path mints a new file id,
    so the exclusion costs no coverage.
    """
    commits: dict[str, object] = {}
    for event in trace.by_kind("commit"):
        fid = event.get("file_id")
        if fid:
            commits[fid] = event
    for event in trace.by_kind("unlink"):
        commits.pop(event.get("file_id"), None)
    return commits


def _find_record(event) -> VersionRecord | None:
    """The record of the version a commit event anchored, from its locator,
    as a reader gets it (``None`` when the event carries no valid locator)."""
    locator = event.get("locator")
    if not locator:
        return None
    try:
        return VersionRecord.from_locator(locator, event.get("digest"))
    except IntegrityError:
        return None


def _verified_blocks(clouds, unit_id: str, record: VersionRecord) -> int:
    """How many providers hold a digest-verified block of one version.

    The digest covers the whole stored blob — header, key share and coded
    payload — matching the read path's verification rule; block ``i`` lives
    on the ``i``-th cloud of the clients' :func:`preferred_order`.
    """
    verified = 0
    for index, cloud in enumerate(preferred_order(clouds)):
        blob = cloud.raw_object(
            DepSkyClient.block_key(unit_id, record.version, record.data_digest, index))
        if blob is not None and index < len(record.block_digests) \
                and content_digest(blob) == record.block_digests[index]:
            verified += 1
    return verified


def _write_faulty_clouds(clouds, when: float) -> int:
    """Clouds whose active faults could corrupt/drop a write at ``when``."""
    return sum(
        1 for cloud in clouds
        if any(cloud.failures.is_active(kind, when) for kind in _WRITE_FAULTS)
    )


def check_durability(trace: TraceRecorder, deployment) -> list[Violation]:
    """Every version still anchored at the end of the run is reconstructible."""
    violations: list[Violation] = []
    clouds = deployment.clouds
    config = deployment.config
    commits = _latest_commits(trace)

    if config.backend is not BackendKind.COC:
        for fid, event in commits.items():
            digest = event.get("digest")
            blob = clouds[0].raw_object(SingleCloudBackend.object_key(fid, digest))
            if blob is None or content_digest(blob) != digest:
                violations.append(Violation(
                    "durability",
                    f"single-cloud version {digest[:12]}… of {fid} is missing "
                    "or corrupted on the provider",
                    seq=event.seq,
                ))
        return violations

    f = config.fault_tolerance
    n = len(clouds)
    k = f + 1
    for fid, event in commits.items():
        digest = event.get("digest")
        record = _find_record(event)
        if record is None:
            violations.append(Violation(
                "durability",
                f"the commit of version {digest[:12]}… of {fid} carries no "
                f"valid locator",
                seq=event.seq,
            ))
            continue
        verified = _verified_blocks(clouds, fid, record)
        # An UNAVAILABLE preferred cloud spills the block over to a fallback
        # cloud, so only write-corrupting faults may shrink the stored count.
        floor = max(k, (n - f) - _write_faulty_clouds(clouds, event.time))
        if verified < floor:
            violations.append(Violation(
                "durability",
                f"version {digest[:12]}… of {fid} has only {verified} "
                f"verified blocks (needs ≥ {floor}; n={n}, f={f})",
                seq=event.seq,
            ))
            continue
        writer = event.agent
        agent = deployment.filesystems.get(writer)
        if agent is None:
            continue
        reader = DepSkyClient(
            deployment.sim, clouds, agent.principal, f=f,
            encrypt=config.encrypt_data,
        )
        try:
            with deployment.sim.background():  # the checker is not the system under test
                result = reader.read_matching(fid, digest, record=record)
        except (ReproError, ValueError) as exc:
            violations.append(Violation(
                "durability",
                f"version {digest[:12]}… of {fid} could not be re-assembled "
                f"from the live clouds: {exc}",
                seq=event.seq,
            ))
            continue
        if content_digest(result.data) != digest:
            violations.append(Violation(
                "durability",
                f"re-assembled payload of {fid} does not match its anchored "
                f"digest {digest[:12]}…",
                seq=event.seq,
            ))
    return violations


# ---------------------------------------------------------------------------
# 4. commit ordering (upload → metadata update → unlock)
# ---------------------------------------------------------------------------


def check_commit_ordering(trace: TraceRecorder) -> list[Violation]:
    """Close commits push data before metadata, and unlock only after both.

    A version uploaded after its file id was unlinked may have no commit:
    operations are atomic on the virtual clock, so the anchor that follows
    the upload is refused once the path holds another file or none.
    """
    violations: list[Violation] = []
    lost_in_crash = _crash_filter(trace)
    unlinked: dict[str, int] = {}
    uploads: dict[tuple[str, str, int], int] = {}
    commit_seqs: dict[tuple[str, str, int], int] = {}
    closes: dict[tuple[str, str], list] = {}
    unlocks: dict[tuple[str, str], list[int]] = {}
    for event in trace.events:
        if event.kind == "upload":
            uploads[(event.agent, event.get("file_id"), event.get("version"))] = event.seq
        elif event.kind == "commit":
            commit_seqs[(event.agent, event.get("file_id"), event.get("version"))] = event.seq
        elif event.kind == "unlink":
            unlinked.setdefault(event.get("file_id"), event.seq)
        elif event.kind == "close" and event.get("dirty"):
            if lost_in_crash(event):
                continue
            closes.setdefault((event.agent, event.get("file_id")), []).append(event)
        elif event.kind == "unlock":
            name = event.get("lock", "")
            if name.startswith(FILE_LOCK_PREFIX):
                fid = name[len(FILE_LOCK_PREFIX):]
                unlocks.setdefault((event.agent, fid), []).append(event.seq)

    for key, commit_seq in commit_seqs.items():
        upload_seq = uploads.get(key)
        agent, fid, version = key
        if upload_seq is None:
            violations.append(Violation(
                "commit-ordering",
                f"{agent} committed {fid} v{version} without a recorded upload",
                seq=commit_seq,
            ))
        elif upload_seq >= commit_seq:
            violations.append(Violation(
                "commit-ordering",
                f"{agent} updated the metadata of {fid} v{version} before the "
                "upload finished",
                seq=commit_seq,
            ))

    for (agent, fid), seqs in unlocks.items():
        for unlock_seq in seqs:
            for close in closes.get((agent, fid), ()):
                if close.seq > unlock_seq:
                    continue
                key = (agent, fid, close.get("version"))
                commit_seq = commit_seqs.get(key)
                if commit_seq is None and key in uploads \
                        and unlinked.get(fid, uploads[key]) < uploads[key]:
                    continue  # uploaded, then refused (see the docstring)
                if commit_seq is None or commit_seq > unlock_seq:
                    violations.append(Violation(
                        "commit-ordering",
                        f"{agent} released the write lock of {fid} before the "
                        f"commit of version {close.get('version')} completed",
                        seq=unlock_seq,
                    ))
    return violations


# ---------------------------------------------------------------------------
# 5. serializability of the committed history
# ---------------------------------------------------------------------------


def _find_cycle(adjacency: dict) -> list | None:
    """One cycle of the directed graph (as a node list), or None if acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(adjacency, WHITE)
    for root in adjacency:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adjacency[root]))]
        path = [root]
        color[root] = GREY
        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for nxt in neighbours:
                if color.get(nxt, BLACK) == GREY:
                    return [*path[path.index(nxt):], nxt]
                if color.get(nxt, BLACK) == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(adjacency[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def check_serializability(trace: TraceRecorder) -> list[Violation]:
    """The committed history is conflict-serializable.

    Nodes are committed transactions (``txn_commit`` events, carrying their
    validated read sets and anchored write sets) plus every plain ``commit``
    event as a write-only singleton transaction.  Per file, the anchored
    version numbers give the total write order; the edges are the classical
    conflict dependencies:

    * **wr** — the writer of version ``v`` precedes every reader of ``v``;
    * **ww** — the writer of ``v`` precedes the writer of the next version;
    * **rw** — a reader of ``v`` precedes the writer of the next version
      (anti-dependency).

    A cycle means no serial order explains the history (lost update, write
    skew, torn multi-file read...).  Structural violations are reported too:
    two writers anchoring the same version (a fork), a committed read of a
    version nobody wrote, and per-file commits tagged with a transaction that
    never committed (a torn transactional commit).
    """
    violations: list[Violation] = []
    reads_of: dict[tuple, list[tuple[str, int]]] = {}
    writes_of: dict[tuple, list[tuple[str, int]]] = {}
    label: dict[tuple, str] = {}
    first_seq: dict[tuple, int] = {}

    committed_txns: set[str] = set()
    for event in trace.by_kind("txn_commit"):
        txn_id = event.get("txn")
        committed_txns.add(txn_id)
        node = ("txn", txn_id)
        label[node] = f"txn {txn_id} by {event.agent}"
        first_seq[node] = event.seq
        reads_of[node] = [(fid, version)
                          for _path, fid, version in event.get("reads", ())]
        writes_of[node] = [(fid, version)
                           for _path, fid, version, _digest in event.get("writes", ())]

    # Anchored writes: every commit event. Transactional ones fold into their
    # txn node; the rest become write-only singletons.
    writer_of: dict[tuple[str, int], tuple] = {}
    for event in trace.by_kind("commit"):
        fid, version = event.get("file_id"), event.get("version")
        if not fid:
            continue
        txn_id = event.get("txn")
        if txn_id is not None:
            node = ("txn", txn_id)
            if txn_id not in committed_txns:
                violations.append(Violation(
                    "serializability",
                    f"torn transactional commit: {event.agent} anchored {fid} "
                    f"v{version} for transaction {txn_id}, which never committed",
                    seq=event.seq,
                ))
                label.setdefault(node, f"torn txn {txn_id} by {event.agent}")
                first_seq.setdefault(node, event.seq)
                writes_of.setdefault(node, []).append((fid, version))
        else:
            node = ("commit", event.agent, fid, version)
            label[node] = f"commit of {fid} v{version} by {event.agent}"
            first_seq[node] = event.seq
            writes_of[node] = [(fid, version)]
        existing = writer_of.get((fid, version))
        if existing is not None and existing != node:
            violations.append(Violation(
                "serializability",
                f"version fork: {label[node]} and {label[existing]} both "
                f"anchored {fid} v{version}",
                seq=event.seq,
            ))
            continue
        writer_of[(fid, version)] = node

    # Per-file write order from the anchored version numbers.
    versions_of: dict[str, list[int]] = {}
    for fid, version in writer_of:
        versions_of.setdefault(fid, []).append(version)
    for chain in versions_of.values():
        chain.sort()

    nodes = sorted(set(reads_of) | set(writes_of))
    adjacency: dict[tuple, set] = {node: set() for node in nodes}

    def next_version(fid: str, version: int) -> int | None:
        chain = versions_of.get(fid, ())
        for candidate in chain:
            if candidate > version:
                return candidate
        return None

    for node, writes in writes_of.items():
        for fid, version in writes:
            if writer_of.get((fid, version)) != node:
                continue  # forked duplicate, already reported
            follower = next_version(fid, version)
            if follower is not None:
                successor = writer_of[(fid, follower)]
                if successor != node:
                    adjacency[node].add(successor)  # ww

    for node, reads in reads_of.items():
        for fid, version in reads:
            writer = writer_of.get((fid, version))
            if writer is None:
                if version > 0 and versions_of.get(fid):
                    violations.append(Violation(
                        "serializability",
                        f"{label[node]} read {fid} v{version}, a version no "
                        "recorded commit anchored",
                        seq=first_seq.get(node),
                    ))
                continue
            if writer != node:
                adjacency[writer].add(node)  # wr
            follower = next_version(fid, version)
            if follower is not None:
                successor = writer_of[(fid, follower)]
                if successor != node:
                    adjacency[node].add(successor)  # rw

    cycle = _find_cycle(adjacency)
    if cycle is not None:
        pretty = " -> ".join(label[node] for node in cycle)
        violations.append(Violation(
            "serializability",
            f"the committed history is not serializable; dependency cycle: {pretty}",
            seq=max(first_seq.get(node, 0) for node in cycle[:-1]),
        ))
    return violations


# ---------------------------------------------------------------------------
# 6. version linearizability of the coordination anchor
# ---------------------------------------------------------------------------


def check_version_linearizability(trace: TraceRecorder) -> list[Violation]:
    """Per file, the anchored version sequence is a linearizable counter.

    Every commit bumps the entry by exactly one on top of the version its
    anchor validates (a close holds the write lock; a transaction's commit
    point checks the entry version), so the history order of the ``commit``
    events must show each file's versions strictly increasing and gapless
    (from whatever version the file first anchored).  A duplicate or
    regression is a fork (two commits anchored over the same base); a gap
    means a commit was lost or reordered — either way the metadata entry
    stopped behaving as a linearizable CAS register.
    """
    violations: list[Violation] = []
    last: dict[str, int] = {}
    for event in trace.by_kind("commit"):
        fid, version = event.get("file_id"), event.get("version")
        if not fid:
            continue
        previous = last.get(fid)
        if previous is not None:
            if version <= previous:
                violations.append(Violation(
                    "linearizability",
                    f"{event.agent} anchored {fid} v{version} after v{previous} "
                    "was already anchored (duplicate/regression — a fork)",
                    seq=event.seq,
                ))
            elif version != previous + 1:
                violations.append(Violation(
                    "linearizability",
                    f"{event.agent} anchored {fid} v{version} directly after "
                    f"v{previous} (gap of {version - previous - 1})",
                    seq=event.seq,
                ))
        last[fid] = max(version, previous or 0)
    return violations


# ---------------------------------------------------------------------------
# 7. the namespace tree
# ---------------------------------------------------------------------------


def check_namespace_tree(deployment) -> list[Violation]:
    """Every live shared entry hangs under a live directory: shared, in its owner's PNS, or ``/``.

    Read from the replicated state, whoever may read each entry.  Keys are
    sorted, so a directory comes before every entry below it, and an orphan
    is named alone, not with what lies below it.  An entry is parsed only
    when something lies below it or its parent is not yet known.
    """
    if deployment.coordination is None:
        return []
    pairs = list(deployment.coordination.state.values_under(META_PREFIX))
    keys = [key for key, _value in pairs]
    directories = {"/"}
    violations: list[Violation] = []
    for index, (key, value) in enumerate(pairs):
        path = key[len(META_PREFIX):]
        parent = path.rpartition("/")[0] or "/"
        below = bisect_left(keys, key + "/", index + 1)
        if parent in directories and not (below < len(keys)
                                           and keys[below].startswith(key + "/")):
            continue
        fields = json.loads(value)
        if fields.get("deleted"):
            continue
        if fields.get("type") == "directory":
            directories.add(path)
        if parent in directories:
            continue
        owner = deployment.filesystems.get(fields.get("owner"))
        private = owner.pns.get(parent) if owner is not None and owner.pns is not None else None
        if private is None or private.deleted or not private.is_directory:
            violations.append(Violation(
                "namespace-tree", f"live shared entry {path} has no live directory {parent} "
                "above it"))
    return violations


# ---------------------------------------------------------------------------
# unexpected errors + entry point
# ---------------------------------------------------------------------------


def check_unexpected_errors(trace: TraceRecorder) -> list[Violation]:
    """Surface non-benign operation errors the runner recorded."""
    return [
        Violation("unexpected-error",
                  f"{event.agent} {event.get('op')} on {event.get('path')}: "
                  f"{event.get('error')}",
                  seq=event.seq)
        for event in trace.by_kind("op_error")
        if not event.get("benign")
    ]


def check_all(trace: TraceRecorder, deployment=None,
              staleness: float = 0.0,
              lock_lease: float = math.inf) -> list[Violation]:
    """Run every checker; ``deployment`` enables the ground checks (durability, namespace tree).

    ``lock_lease`` is the deployment's lease duration; the mutual-exclusion
    checker allows lock takeovers once the previous holder's lease expired.
    """
    violations = []
    violations += check_consistency_on_close(trace, staleness=staleness)
    violations += check_mutual_exclusion(trace, lock_lease=lock_lease)
    violations += check_commit_ordering(trace)
    violations += check_serializability(trace)
    violations += check_version_linearizability(trace)
    violations += check_unexpected_errors(trace)
    if deployment is not None:
        violations += check_durability(trace, deployment)
        violations += check_namespace_tree(deployment)
    return violations
