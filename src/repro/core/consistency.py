"""The consistency-anchor algorithm (Figure 3), decoupled from the file system.

The technique composes two storage systems: a small *consistency anchor* (CA)
offering the desired consistency (e.g. linearizability) and a large *storage
service* (SS) that may only be eventually consistent.  The composition
satisfies the CA's consistency even though the bulk data lives in the SS:

``WRITE(id, v)``
    w1. ``h ← Hash(v)``
    w2. ``SS.write(id|h, v)``
    w3. ``CA.write(id, h)``

``READ(id)``
    r1. ``h ← CA.read(id)``
    r2. ``do v ← SS.read(id|h) while v = null``
    r3. ``return (Hash(v) = h) ? v : null``

In SCFS the CA is the coordination service (the metadata tuple holds the hash)
and the SS is the cloud backend; the agent implements the same steps inline in
its open/close paths.  This module provides the algorithm in its generic form
— as presented in §2.4 — so that it can be unit- and property-tested in
isolation and reused outside the file system.

What the CA stores beside ``h`` is the *locator* the SS minted at w2
(:attr:`~repro.common.types.ObjectRef.locator`).  It makes step r2 a wait
followed by one read — :func:`read_anchored`, the one implementation of r2 the
file system, the PNS and :class:`AnchoredStorage` share: the locator says where
the version is and from when it is readable, so the reader sleeps until then
instead of polling for it.  The poll remains behind it, for when the hint was
wrong or there was none.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import (
    IntegrityError,
    ObjectNotFoundError,
    QuorumNotReachedError,
    TupleNotFoundError,
    VersionUnavailableError,
)
from repro.common.types import ObjectRef
from repro.coordination.base import CoordinationService, Session
from repro.core.backend import StorageBackend
from repro.crypto.hashing import content_digest
from repro.simenv.environment import Simulation


def anchor_value(ref: ObjectRef) -> str:
    """What the CA stores for a written version: ``hash``, or ``hash locator``."""
    return f"{ref.digest} {ref.locator}" if ref.locator else ref.digest


def split_anchor_value(value: str) -> tuple[str, str]:
    """``(hash, locator)`` of a value :func:`anchor_value` produced."""
    digest, _, locator = value.partition(" ")
    return digest, locator


def read_anchored(sim: Simulation, backend: StorageBackend, object_id: str, digest: str,
                  locator: str = "", retry_interval: float = 0.5, retry_limit: int = 240,
                  fetch: Callable[[], bytes] | None = None) -> bytes:
    """Step r2: ``do v ← SS.read(id|h) while v = null``, waiting before polling.

    The anchored hash can be ahead of the (eventually consistent) storage
    service.  The reader first waits, once, until the backend expects the
    version to be readable (:meth:`StorageBackend.estimate_readable_at`), then
    reads; only if that still finds nothing — not visible yet, or not enough
    clouds hold its blocks yet — does it poll every ``retry_interval`` seconds,
    and after ``retry_limit`` polls it raises
    :class:`~repro.common.errors.VersionUnavailableError`.

    ``fetch`` replaces the plain ``backend.read_version`` call (a caller that
    checks what came back raises :class:`ObjectNotFoundError` to poll on).
    """
    if fetch is None:
        fetch = functools.partial(backend.read_version, object_id, digest, locator)
    began = sim.now()
    readable_at = backend.estimate_readable_at(locator)
    # A loop because ``now + (t - now)`` can round to just below ``t``, where
    # the version is still invisible; the remainder then lands on it exactly.
    while (wait := readable_at - sim.now()) > 0:
        sim.advance(wait)
    attempts = 0
    while True:
        attempts += 1
        try:
            return fetch()
        except (ObjectNotFoundError, QuorumNotReachedError) as exc:
            if attempts > retry_limit:
                raise VersionUnavailableError(
                    object_id, digest, attempts, sim.now() - began) from exc
            sim.advance(retry_interval)


class ConsistencyAnchor(abc.ABC):
    """A small storage system with strong consistency, mapping ids to hashes.

    A stored "hash" is an opaque string to the anchor: :class:`AnchoredStorage`
    stores :func:`anchor_value` strings in it.
    """

    @abc.abstractmethod
    def write_hash(self, object_id: str, digest: str) -> None:
        """Store the current hash of ``object_id`` (step w3)."""

    @abc.abstractmethod
    def read_hash(self, object_id: str) -> str | None:
        """Return the current hash of ``object_id`` (step r1), or None."""


@dataclass
class DictConsistencyAnchor(ConsistencyAnchor):
    """A trivially linearizable in-memory anchor (used by tests and examples)."""

    hashes: dict[str, str] = field(default_factory=dict)

    def write_hash(self, object_id: str, digest: str) -> None:
        self.hashes[object_id] = digest

    def read_hash(self, object_id: str) -> str | None:
        return self.hashes.get(object_id)


class CoordinationConsistencyAnchor(ConsistencyAnchor):
    """An anchor storing hashes as entries of a coordination service."""

    def __init__(self, service: CoordinationService, session: Session,
                 prefix: str = "anchor/") -> None:
        self.service = service
        self.session = session
        self.prefix = prefix

    def write_hash(self, object_id: str, digest: str) -> None:
        self.service.put(self.prefix + object_id, digest.encode(), self.session)

    def read_hash(self, object_id: str) -> str | None:
        try:
            return self.service.get(self.prefix + object_id, self.session).value.decode()
        except TupleNotFoundError:
            return None


class AnchoredStorage:
    """Strongly consistent object storage built from a CA and a weak SS.

    Parameters
    ----------
    sim:
        Simulation environment; the read loop waits ``retry_interval`` between
        attempts by advancing the simulated clock.
    anchor:
        The consistency anchor (strongly consistent, small capacity).
    backend:
        The storage service holding the data (possibly eventually consistent).
    retry_interval / retry_limit:
        Backoff policy of the ``do … while`` read loop (step r2).
    """

    def __init__(
        self,
        sim: Simulation,
        anchor: ConsistencyAnchor,
        backend: StorageBackend,
        retry_interval: float = 0.5,
        retry_limit: int = 240,
    ):
        self.sim = sim
        self.anchor = anchor
        self.backend = backend
        self.retry_interval = retry_interval
        self.retry_limit = retry_limit

    def write(self, object_id: str, data: bytes) -> ObjectRef:
        """WRITE(id, v): push the data to the SS, then anchor its hash in the CA."""
        digest = content_digest(data)                      # w1
        ref = self.backend.write_version(object_id, data)  # w2
        if ref.digest != digest:
            raise AssertionError("backend returned a reference with a different digest")
        self.anchor.write_hash(object_id, anchor_value(ref))  # w3
        return ref

    def read(self, object_id: str) -> bytes | None:
        """READ(id): fetch the anchored hash, then poll the SS until it appears.

        A response whose hash does not match the anchored digest (step r3) is
        treated like an absent one: the SS returned a *stale visible version*
        (or corrupted data), so the loop keeps polling.  Unlike a plain
        not-found, exhausting the retries after observing mismatching data
        raises :class:`~repro.common.errors.IntegrityError` — the object
        demonstrably exists but the SS never produced the anchored version,
        which must not be reported as "file absent".
        """
        anchored = self.anchor.read_hash(object_id)        # r1
        if anchored is None:
            return None
        digest, locator = split_anchor_value(anchored)
        mismatches = 0

        def verified() -> bytes:
            nonlocal mismatches
            data = self.backend.read_version(object_id, digest, locator)
            if content_digest(data) != digest:             # r3
                mismatches += 1                            # stale visible version
                raise ObjectNotFoundError(f"stale version of {object_id!r} visible")
            return data

        try:
            return read_anchored(self.sim, self.backend, object_id, digest, locator,  # r2
                                 self.retry_interval, self.retry_limit, fetch=verified)
        except VersionUnavailableError as exc:
            if mismatches:
                raise IntegrityError(
                    f"storage service never produced the anchored version of "
                    f"{object_id!r} (digest {digest[:12]}…): got {mismatches} "
                    f"mismatching response(s) over {exc.attempts} attempts"
                ) from exc
            return None
