"""A DepSpace-like Byzantine fault-tolerant tuple space.

DepSpace [Bessani et al., EuroSys'08] stores *tuples* — ordered sequences of
typed fields — and offers Linda-style operations extended with the primitives
SCFS needs:

``out``      insert a tuple
``rdp``      read (non-destructively) a tuple matching a template
``inp``      read and remove a tuple matching a template
``cas``      conditional atomic: insert the tuple only if no tuple matches the template
``replace``  atomically remove the tuple matching a template and insert another

Two extensions from the SCFS paper are reproduced:

* **timed (ephemeral) tuples** — a tuple inserted with a lease disappears once
  the lease elapses unless renewed; SCFS represents locks this way so that a
  crashed client's locks are automatically released (§2.5.1);
* **triggers** — server-side rules that rewrite matching tuples when another
  tuple is updated; the paper added them to DepSpace to implement ``rename``
  efficiently (§3.2).  A trigger here is a pure function registered under a
  name and invoked through the ``fire_trigger`` command so that all replicas
  apply the same deterministic rewrite.

The class is a deterministic state machine: it can be used standalone or
replicated through :class:`~repro.coordination.replication.ReplicatedStateMachine`.

Storage is indexed so that the space scales to 10^5+ tuples: entries live in
insertion-ordered dicts keyed by their sequence number, with secondary indexes
on the first field and on the ``(first, second)`` field pair.  SCFS templates
almost always pin those positions (``("entry", key, ...)``, ``("lock", name,
...)``), so ``rdp``/``inp``/``cas``/``replace`` resolve in O(1) instead of
scanning every stored tuple, and expiry sweeps only visit lease-bearing
tuples.  Tuple fields must be hashable (they already had to support ``==`` for
template matching); matching semantics are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.common.errors import ConflictError, TupleNotFoundError
from repro.coordination.entries import EntryCommands, Holder, Stored


class _AnyField:
    """Wildcard template field (matches any value)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "ANY"


#: Wildcard used in templates.
ANY = _AnyField()

Tuple = tuple
Template = tuple

#: First field of the tuples holding coordination entries:
#: ``("entry", key, owner, version, value, acl_json)``.
ENTRY = "entry"

#: First field of the lock tuples: ``("lock", name, session_id)``, timed by the
#: session lease.
LOCK = "lock"


def matches(template: Template, fields: Tuple) -> bool:
    """True if ``fields`` matches ``template`` (same arity, wildcards allowed)."""
    if len(template) != len(fields):
        return False
    return all(t is ANY or t == f for t, f in zip(template, fields, strict=True))


@dataclass(slots=True)
class TupleEntry:
    """A stored tuple plus its housekeeping metadata."""

    fields: Tuple
    created_at: float
    expires_at: float | None = None
    owner: str | None = None
    sequence: int = 0

    def expired(self, now: float) -> bool:
        """True once the tuple's lease elapsed (never for persistent tuples)."""
        return self.expires_at is not None and now >= self.expires_at


class DepSpace(EntryCommands):
    """Deterministic DepSpace state machine (single logical space).

    All mutating operations receive the current simulated time ``now`` so that
    replicated copies expire timed tuples identically.  The ``entry_*``
    commands of :class:`~repro.coordination.entries.EntryCommands` run over
    ``ENTRY`` tuples.
    """

    def __init__(self) -> None:
        self.triggers: dict[str, Callable[[Tuple, Any], Tuple]] = {}
        self.operations_applied: int = 0
        self._sequence: int = 0
        # All live entries, keyed by sequence number.  Python dicts preserve
        # insertion order, so iterating values() reproduces the append-order
        # scan the pre-index implementation performed over a list.
        self._entries: dict[int, TupleEntry] = {}
        # Secondary indexes: first field, and (first, second) field pair.
        self._by_head: dict[Any, dict[int, TupleEntry]] = {}
        self._by_pair: dict[tuple, dict[int, TupleEntry]] = {}
        # Lease-bearing entries only — the sweep never touches persistent ones.
        self._timed: dict[int, TupleEntry] = {}

    @property
    def entries(self) -> list[TupleEntry]:
        """Live entries in insertion order (introspection/debugging view)."""
        return list(self._entries.values())

    # ------------------------------------------------------------------ admin

    def register_trigger(self, name: str, func: Callable[[Tuple, Any], Tuple]) -> None:
        """Register a deterministic rewrite function usable via ``fire_trigger``.

        Triggers must be registered identically on every replica *before* the
        space starts serving requests (they are part of the service's code, not
        of its replicated state).
        """
        self.triggers[name] = func

    # --------------------------------------------------------------- indexing

    def _bucket_add(self, entry: TupleEntry) -> None:
        fields = entry.fields
        if not fields:
            return
        self._by_head.setdefault(fields[0], {})[entry.sequence] = entry
        if len(fields) >= 2:
            self._by_pair.setdefault((fields[0], fields[1]), {})[entry.sequence] = entry

    def _bucket_discard(self, entry: TupleEntry, fields: Tuple) -> None:
        if not fields:
            return
        seq = entry.sequence
        bucket = self._by_head.get(fields[0])
        if bucket is not None:
            bucket.pop(seq, None)
            if not bucket:
                del self._by_head[fields[0]]
        if len(fields) >= 2:
            pair = (fields[0], fields[1])
            pair_bucket = self._by_pair.get(pair)
            if pair_bucket is not None:
                pair_bucket.pop(seq, None)
                if not pair_bucket:
                    del self._by_pair[pair]

    def _insert(self, entry: TupleEntry) -> None:
        self._entries[entry.sequence] = entry
        self._bucket_add(entry)
        if entry.expires_at is not None:
            self._timed[entry.sequence] = entry

    def _remove(self, entry: TupleEntry) -> None:
        del self._entries[entry.sequence]
        self._bucket_discard(entry, entry.fields)
        self._timed.pop(entry.sequence, None)

    def _candidates(self, template: Template) -> Iterable[TupleEntry]:
        """Entries that could match ``template``, narrowed via the indexes.

        A template only matches tuples of the same arity, so when its first
        (or first two) fields are concrete the corresponding index bucket is
        a complete candidate set.  Buckets are kept in sequence order, so the
        first match equals the one the old full scan would have returned.
        """
        if len(template) >= 2 and template[0] is not ANY and template[1] is not ANY:
            return self._by_pair.get((template[0], template[1]), {}).values()
        if template and template[0] is not ANY:
            return self._by_head.get(template[0], {}).values()
        return self._entries.values()

    # ------------------------------------------------------------- primitives

    def _sweep(self, now: float) -> None:
        expired = [e for e in self._timed.values() if e.expired(now)]
        for entry in expired:
            self._remove(entry)

    def _find(self, template: Template, now: float) -> TupleEntry | None:
        self._sweep(now)
        for entry in self._candidates(template):
            if matches(template, entry.fields):
                return entry
        return None

    def out(self, fields: Tuple, now: float, lease: float | None = None,
            owner: str | None = None) -> TupleEntry:
        """Insert a tuple; ``lease`` (seconds) makes it a timed/ephemeral tuple."""
        self._sweep(now)
        self._sequence += 1
        entry = TupleEntry(
            fields=tuple(fields),
            created_at=now,
            expires_at=None if lease is None else now + lease,
            owner=owner,
            sequence=self._sequence,
        )
        self._insert(entry)
        self.operations_applied += 1
        return entry

    def rdp(self, template: Template, now: float) -> Tuple | None:
        """Read (without removing) one tuple matching ``template``; None if absent."""
        self.operations_applied += 1
        entry = self._find(template, now)
        return entry.fields if entry else None

    def rdp_all(self, template: Template, now: float) -> list[Tuple]:
        """Read all tuples matching ``template``."""
        self._sweep(now)
        self.operations_applied += 1
        return [e.fields for e in self._candidates(template) if matches(template, e.fields)]

    def inp(self, template: Template, now: float) -> Tuple | None:
        """Read and remove one tuple matching ``template``; None if absent."""
        self.operations_applied += 1
        entry = self._find(template, now)
        if entry is None:
            return None
        self._remove(entry)
        return entry.fields

    def cas(self, template: Template, fields: Tuple, now: float,
            lease: float | None = None, owner: str | None = None) -> bool:
        """Insert ``fields`` only if no tuple matches ``template``.

        Returns True on success; False (without inserting) when a matching
        tuple already exists.  This is the synchronisation-powerful operation
        SCFS uses for locking and for create-if-absent metadata updates.
        """
        self.operations_applied += 1
        if self._find(template, now) is not None:
            return False
        self.out(fields, now, lease=lease, owner=owner)
        return True

    def replace(self, template: Template, fields: Tuple, now: float,
                lease: float | None = None, owner: str | None = None) -> bool:
        """Atomically remove the tuple matching ``template`` and insert ``fields``.

        Returns False (and inserts nothing) when no tuple matches the template,
        allowing the caller to detect lost updates.
        """
        self.operations_applied += 1
        entry = self._find(template, now)
        if entry is None:
            return False
        self._remove(entry)
        self.out(fields, now, lease=lease, owner=owner)
        return True

    def renew(self, template: Template, now: float, lease: float) -> bool:
        """Extend the lease of the timed tuple matching ``template``."""
        self.operations_applied += 1
        entry = self._find(template, now)
        if entry is None or entry.expires_at is None:
            return False
        entry.expires_at = now + lease
        return True

    def fire_trigger(self, name: str, template: Template, argument: Any, now: float) -> int:
        """Apply the registered trigger ``name`` to every tuple matching ``template``.

        Returns the number of rewritten tuples.  No trigger is registered on
        the replicas SCFS deploys: renames go through ``entry_move``, which
        also carries the owner, the ACL and the version.
        """
        self.operations_applied += 1
        if name not in self.triggers:
            raise TupleNotFoundError(f"no trigger registered under {name!r}")
        rewrite = self.triggers[name]
        self._sweep(now)
        matched = [e for e in self._candidates(template) if matches(template, e.fields)]
        touched_heads: set[Any] = set()
        touched_pairs: set[tuple] = set()
        for entry in matched:
            old_fields = entry.fields
            new_fields = tuple(rewrite(old_fields, argument))
            if new_fields != old_fields:
                self._bucket_discard(entry, old_fields)
                entry.fields = new_fields
                self._bucket_add(entry)
                if new_fields:
                    touched_heads.add(new_fields[0])
                    if len(new_fields) >= 2:
                        touched_pairs.add((new_fields[0], new_fields[1]))
        # Moved entries land at the end of their new bucket; restore sequence
        # order so future scans keep returning the oldest match first.
        for index, touched in ((self._by_head, touched_heads), (self._by_pair, touched_pairs)):
            for key in sorted(touched, key=repr):
                bucket = index.get(key)
                if bucket is not None and len(bucket) > 1:
                    index[key] = dict(sorted(bucket.items()))
        return len(matched)

    def count(self, template: Template, now: float) -> int:
        """Number of live tuples matching ``template``."""
        self._sweep(now)
        return sum(1 for e in self._candidates(template) if matches(template, e.fields))

    def total_tuples(self, now: float) -> int:
        """Number of live tuples in the space."""
        self._sweep(now)
        return len(self._entries)

    def stored_bytes(self, now: float) -> int:
        """Approximate memory footprint of the live tuples."""
        self._sweep(now)
        total = 0
        for entry in self._entries.values():
            for fld in entry.fields:
                if isinstance(fld, bytes):
                    total += len(fld)
                elif isinstance(fld, str):
                    total += len(fld.encode())
                else:
                    total += 8
        return total

    # ---------------------------------------------------------- entry storage

    def _entry_tuples(self, key: str) -> list[TupleEntry]:
        # Entry tuples carry no lease, so (unlike ``_find``) nothing to sweep.
        bucket = self._by_pair.get((ENTRY, key), {})
        return [entry for entry in bucket.values() if len(entry.fields) == 6]

    def _entry_read(self, key: str, now: float) -> Stored | None:
        found = self._entry_tuples(key)
        return Stored(*found[0].fields[2:]) if found else None

    def _entry_write(self, key: str, stored: Stored, now: float) -> None:
        self._entry_erase(key)
        self.out((ENTRY, key, *stored), now, owner=stored.owner)

    def _entry_erase(self, key: str) -> None:
        for entry in self._entry_tuples(key):
            self._remove(entry)

    def _entry_scan(self, prefix: str, now: float) -> Iterable[tuple[str, Stored]]:
        for fields in self.rdp_all((ENTRY, ANY, ANY, ANY, ANY, ANY), now):
            if fields[1].startswith(prefix):
                yield fields[1], Stored(*fields[2:])

    # ----------------------------------------------------------- lock storage

    def _lock_read(self, name: str, now: float) -> str | None:
        entry = self._find((LOCK, name, ANY), now)
        return None if entry is None else entry.fields[2]

    def _lock_write(self, name: str, holder: Holder, user: str, now: float) -> None:
        self.out((LOCK, name, holder.session_id), now, lease=holder.lease_seconds, owner=user)

    def _lock_erase(self, name: str) -> None:
        for entry in list(self._by_pair.get((LOCK, name), {}).values()):
            self._remove(entry)

    # ------------------------------------------------------------ replication

    def apply(self, command: tuple[str, tuple, dict]) -> Any:
        """Dispatch a replicated command (see :class:`ReplicatedStateMachine`)."""
        operation, args, kwargs = command
        handler = getattr(self, operation, None)
        if handler is None or not callable(handler) or operation.startswith("_"):
            raise ConflictError(f"unknown DepSpace operation {operation!r}")
        return handler(*args, **kwargs)
