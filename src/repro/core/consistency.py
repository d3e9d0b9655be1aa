"""The consistency-anchor algorithm (Figure 3).

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

In SCFS the CA is the coordination service (a file's metadata entry, or the
PNS tuple, holds the hash) and the SS is the storage backend; the agent runs
w1–w3 in its close path and r1 in its open path.

What the CA stores beside ``h`` is the *locator* the SS minted at w2
(:attr:`~repro.common.types.ObjectRef.locator`).  It makes step r2 a wait
followed by one read — :func:`read_anchored`, the one implementation of r2 the
agent's storage service and the PNS share: the locator says where the version
is and from when it is readable, so the reader sleeps until then instead of
polling for it.  The poll remains behind it, for when the hint was wrong or
there was none.  Step r3 is the backend's: it returns only bytes that hash to
``h`` (stale or corrupted bytes read as not found, and are polled again).
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import ObjectNotFoundError, QuorumNotReachedError, VersionUnavailableError
from repro.common.types import ObjectRef
from repro.core.backend import StorageBackend
from repro.simenv.environment import Simulation

#: Seconds between two polls of step r2 when the version is not readable yet.
READ_RETRY_INTERVAL = 0.5
#: Polls of step r2 before a read gives up (bounds simulations).
READ_RETRY_LIMIT = 240


def anchor_value(ref: ObjectRef) -> str:
    """What the CA stores for a written version: ``hash``, or ``hash locator``."""
    return f"{ref.digest} {ref.locator}" if ref.locator else ref.digest


def split_anchor_value(value: str) -> tuple[str, str]:
    """``(hash, locator)`` of a value :func:`anchor_value` produced."""
    digest, _, locator = value.partition(" ")
    return digest, locator


def read_anchored(sim: Simulation, backend: StorageBackend, object_id: str, digest: str,
                  locator: str, on_poll: Callable[[], None] | None = None) -> bytes:
    """Step r2: ``do v ← SS.read(id|h) while v = null``, waiting before polling.

    The anchored hash can be ahead of the (eventually consistent) storage
    service.  The reader first waits, once, until the backend expects the
    version to be readable (:meth:`StorageBackend.estimate_readable_at`), then
    reads; only if that still finds nothing — not visible yet, or not enough
    clouds hold its blocks yet — does it poll every :data:`READ_RETRY_INTERVAL`
    seconds, and after :data:`READ_RETRY_LIMIT` polls it raises
    :class:`~repro.common.errors.VersionUnavailableError`.

    ``on_poll`` is called once per poll, before the read it makes.
    """
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
            return backend.read_version(object_id, digest, locator)
        except (ObjectNotFoundError, QuorumNotReachedError) as exc:
            if attempts > READ_RETRY_LIMIT:
                raise VersionUnavailableError(
                    object_id, digest, attempts, sim.now() - began) from exc
            sim.advance(READ_RETRY_INTERVAL)
            if on_poll is not None:
                on_poll()
