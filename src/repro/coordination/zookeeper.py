"""A ZooKeeper-like hierarchical coordination store.

The SCFS prototype also supports Apache ZooKeeper as its coordination service
(§3.2).  This module reproduces the subset of the ZooKeeper data model that
SCFS relies on:

* a tree of *znodes* addressed by slash-separated paths;
* each znode stores a small byte payload and a monotonically increasing
  version number, checked by conditional ``set``/``delete``;
* **ephemeral** znodes owned by a session and removed when it expires — the
  building block of the lock recipe;
* **sequential** znodes whose names get a unique increasing suffix;
* a per-znode owner and ACL (ZooKeeper znodes carry ACLs), used by the
  ``entry_*`` commands of :class:`~repro.coordination.entries.EntryCommands`,
  which keep SCFS entries as children of ``/scfs/entries``.

Like :class:`~repro.coordination.tuplespace.DepSpace`, the class is a
deterministic state machine suitable for replication via
:class:`~repro.coordination.replication.ReplicatedStateMachine` (ZooKeeper uses
a crash-fault-tolerant protocol, hence ``FaultModel.CRASH`` with 2f+1 replicas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.common.errors import ConflictError, TupleNotFoundError
from repro.coordination.entries import EntryCommands, Holder, Stored

#: Parents of the entry znodes and of the (ephemeral) lock znodes.
ENTRY_ROOT = "/scfs/entries"
LOCK_ROOT = "/scfs/locks"


def child_path(root: str, name: str) -> str:
    """Znode path of the child ``name`` (an arbitrary key) under ``root``."""
    return f"{root}/{name.replace('%', '%25').replace('/', '%2F')}"


def _child_name(path: str) -> str:
    return path.rsplit("/", 1)[1].replace("%2F", "/").replace("%25", "%")


def _stored(node: "ZNode") -> Stored:
    # Znode versions start at 0; public entry versions start at 1.
    return Stored(node.owner, node.version + 1, node.data, node.acl)


@dataclass
class ZNode:
    """One node in the znode tree."""

    path: str
    data: bytes = b""
    version: int = 0
    ephemeral_owner: str | None = None
    children: set[str] = field(default_factory=set)
    created_at: float = 0.0
    owner: str = ""
    acl: str = ""


class ZooKeeperLike(EntryCommands):
    """Deterministic znode tree with ephemeral and sequential nodes."""

    def __init__(self):
        self._nodes: dict[str, ZNode] = {"/": ZNode(path="/")}
        self._sequence = 0
        self._session_expiry: dict[str, float] = {}
        self.operations_applied = 0

    # ------------------------------------------------------------------ utils

    @staticmethod
    def _parent(path: str) -> str:
        if path == "/":
            raise ConflictError("the root znode has no parent")
        parent = path.rsplit("/", 1)[0]
        return parent or "/"

    @staticmethod
    def _validate(path: str) -> None:
        if not path.startswith("/") or (path != "/" and path.endswith("/")):
            raise ConflictError(f"invalid znode path {path!r}")

    def _sweep_sessions(self, now: float) -> None:
        expired = {s for s, deadline in self._session_expiry.items() if now >= deadline}
        if not expired:
            return
        for path in [p for p, n in self._nodes.items() if n.ephemeral_owner in expired]:
            self._remove(path)
        for session in sorted(expired):
            del self._session_expiry[session]

    def _remove(self, path: str) -> None:
        node = self._nodes.pop(path, None)
        if node is None:
            return
        parent = self._nodes.get(self._parent(path))
        if parent is not None:
            parent.children.discard(path)

    # ------------------------------------------------------------------- API

    def register_session(self, session_id: str, deadline: float) -> None:
        """Register (or refresh) a session; its ephemeral nodes live until ``deadline``."""
        self.operations_applied += 1
        self._session_expiry[session_id] = deadline

    def close_session(self, session_id: str, now: float) -> None:
        """Explicitly close a session, removing its ephemeral nodes immediately."""
        self.operations_applied += 1
        self._session_expiry[session_id] = now
        self._sweep_sessions(now)

    def create(self, path: str, data: bytes, now: float, ephemeral_owner: str | None = None,
               sequential: bool = False) -> str:
        """Create a znode; returns its (possibly sequence-suffixed) path.

        Raises :class:`ConflictError` if the node exists or the parent is missing.
        """
        self.operations_applied += 1
        self._validate(path)
        self._sweep_sessions(now)
        if sequential:
            self._sequence += 1
            path = f"{path}{self._sequence:010d}"
        if path in self._nodes:
            raise ConflictError(f"znode {path!r} already exists")
        parent_path = self._parent(path)
        parent = self._nodes.get(parent_path)
        if parent is None:
            raise TupleNotFoundError(f"parent znode {parent_path!r} does not exist")
        if parent.ephemeral_owner is not None:
            raise ConflictError("ephemeral znodes cannot have children")
        node = ZNode(path=path, data=data, ephemeral_owner=ephemeral_owner, created_at=now)
        self._nodes[path] = node
        parent.children.add(path)
        return path

    def get(self, path: str, now: float) -> tuple[bytes, int]:
        """Return ``(data, version)`` of the znode at ``path``."""
        self.operations_applied += 1
        self._sweep_sessions(now)
        node = self._nodes.get(path)
        if node is None:
            raise TupleNotFoundError(f"znode {path!r} does not exist")
        return node.data, node.version

    def set(self, path: str, data: bytes, now: float, expected_version: int | None = None) -> int:
        """Update a znode's payload; returns the new version.

        ``expected_version`` enables compare-and-swap semantics.
        """
        self.operations_applied += 1
        self._sweep_sessions(now)
        node = self._nodes.get(path)
        if node is None:
            raise TupleNotFoundError(f"znode {path!r} does not exist")
        if expected_version is not None and node.version != expected_version:
            raise ConflictError(
                f"version mismatch on {path!r}: expected {expected_version}, found {node.version}"
            )
        node.data = data
        node.version += 1
        return node.version

    def delete(self, path: str, now: float, expected_version: int | None = None) -> None:
        """Delete a leaf znode (optionally only at the expected version)."""
        self.operations_applied += 1
        self._sweep_sessions(now)
        node = self._nodes.get(path)
        if node is None:
            return
        if expected_version is not None and node.version != expected_version:
            raise ConflictError(
                f"version mismatch on {path!r}: expected {expected_version}, found {node.version}"
            )
        if node.children:
            raise ConflictError(f"znode {path!r} has children and cannot be deleted")
        self._remove(path)

    def exists(self, path: str, now: float) -> bool:
        """True if a znode exists at ``path``."""
        self.operations_applied += 1
        self._sweep_sessions(now)
        return path in self._nodes

    def get_children(self, path: str, now: float) -> list[str]:
        """Sorted list of child paths of the znode at ``path``."""
        self.operations_applied += 1
        self._sweep_sessions(now)
        node = self._nodes.get(path)
        if node is None:
            raise TupleNotFoundError(f"znode {path!r} does not exist")
        return sorted(node.children)

    def node_count(self, now: float) -> int:
        """Number of live znodes (excluding the root)."""
        self._sweep_sessions(now)
        return len(self._nodes) - 1

    def stored_bytes(self, now: float) -> int:
        """Approximate memory footprint of all znode payloads."""
        self._sweep_sessions(now)
        return sum(len(n.data) + len(n.path) + len(n.acl) for n in self._nodes.values())

    # ---------------------------------------------------------- entry storage

    def _entry_read(self, key: str, now: float) -> Stored | None:
        self._sweep_sessions(now)
        node = self._nodes.get(child_path(ENTRY_ROOT, key))
        return None if node is None else _stored(node)

    def _entry_write(self, key: str, stored: Stored, now: float) -> None:
        path = child_path(ENTRY_ROOT, key)
        node = self._nodes.get(path)
        if node is None:
            node = self._nodes[path] = ZNode(path=path, created_at=now)
            self._nodes[ENTRY_ROOT].children.add(path)
        node.owner, node.data, node.acl = stored.owner, stored.value, stored.acl
        node.version = stored.version - 1

    def _entry_erase(self, key: str) -> None:
        self._remove(child_path(ENTRY_ROOT, key))

    def _entry_scan(self, prefix: str, now: float) -> Iterable[tuple[str, Stored]]:
        self._sweep_sessions(now)
        for path in sorted(self._nodes[ENTRY_ROOT].children):
            key = _child_name(path)
            if key.startswith(prefix):
                yield key, _stored(self._nodes[path])

    # ----------------------------------------------------------- lock storage

    def _lock_read(self, name: str, now: float) -> str | None:
        self._sweep_sessions(now)
        node = self._nodes.get(child_path(LOCK_ROOT, name))
        return None if node is None else node.ephemeral_owner

    def _lock_write(self, name: str, holder: Holder, user: str, now: float) -> None:
        # The take is also the session's heartbeat: the tree learns of a
        # session with its first lock.
        self._session_expiry[holder.session_id] = holder.deadline
        path = child_path(LOCK_ROOT, name)
        self._nodes[path] = ZNode(path=path, data=holder.session_id.encode(),
                                  ephemeral_owner=holder.session_id, created_at=now)
        self._nodes[LOCK_ROOT].children.add(path)

    def _lock_erase(self, name: str) -> None:
        self._remove(child_path(LOCK_ROOT, name))

    # ------------------------------------------------------------ replication

    def apply(self, command: tuple[str, tuple, dict]) -> Any:
        """Dispatch a replicated command (see :class:`ReplicatedStateMachine`)."""
        operation, args, kwargs = command
        handler = getattr(self, operation, None)
        if handler is None or operation.startswith("_"):
            raise ConflictError(f"unknown ZooKeeper operation {operation!r}")
        return handler(*args, **kwargs)


def make_scfs_tree() -> ZooKeeperLike:
    """A znode tree with the fixed parents SCFS keeps its entries and locks under."""
    tree = ZooKeeperLike()
    for path in ("/scfs", ENTRY_ROOT, LOCK_ROOT):
        tree.create(path, b"", 0.0)
    return tree
