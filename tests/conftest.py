"""Shared fixtures for the SCFS reproduction test suite."""

from __future__ import annotations

import collections
import contextlib
import hashlib

import pytest

from repro.clouds.dispatch import QuorumCall
from repro.clouds.eventual import EventuallyConsistentStore
from repro.common.errors import CloudUnavailableError, ReproError
from repro.common.types import Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.core.gc import GarbageCollector
from repro.simenv.environment import Simulation
from repro.simenv.failures import FaultKind


@pytest.fixture
def sim() -> Simulation:
    """A fresh deterministic simulation environment."""
    return Simulation(seed=1234)


@pytest.fixture(params=["depspace", "single-vm"])
def coordination(request, sim):
    """The service as each Table 2 backend deploys it: replicated DepSpace
    (f=1, four replicas) on SCFS-CoC, one unreplicated VM (f=0) on SCFS-AWS."""
    return DepSpaceCoordination(sim, f=1 if request.param == "depspace" else 0)


@pytest.fixture
def alice() -> Principal:
    """A test principal with canonical ids for the four CoC providers."""
    return Principal(
        name="alice",
        canonical_ids=(
            ("amazon-s3", "alice@amazon-s3"),
            ("google-storage", "alice@google-storage"),
            ("rackspace-files", "alice@rackspace-files"),
            ("windows-azure", "alice@windows-azure"),
        ),
    )


@pytest.fixture
def bob() -> Principal:
    """A second test principal."""
    return Principal(name="bob", canonical_ids=(("amazon-s3", "bob@amazon-s3"),))


def active_faults(schedule, now: float) -> set:
    """The fault kinds ``schedule`` has active at ``now``."""
    return {kind for kind in FaultKind if schedule.is_active(kind, now)}


def expire_metadata(fs) -> None:
    """Drop every metadata-cache entry of ``fs``: what a pause past the expiration does, clock aside."""
    fs.metadata_cache._entries.clear()


def lock_holder(coordination, name: str, now: float | None = None) -> str | None:
    """The session id holding the lock ``name`` unlapsed (None: free); changes nothing.

    ``coordination`` is a service, read at the simulated now in the lock table
    of its replicated state, or one state machine (``EntryCommands``), read at
    ``now``.
    """
    if isinstance(coordination, DepSpaceCoordination):
        now, coordination = coordination.sim.now(), coordination.state
    held = coordination._locks.get(name)
    return held.session_id if held is not None and now < held.deadline else None


#: The request methods of a store, and the kind each request is listed as.
REQUEST_KINDS = {"put": "put", "get": "get", "delete": "delete", "list_keys": "list",
                 "exists": "exists", "set_bucket_policy": "set_policy"}


def _serving(monkeypatch) -> dict:
    served = collections.defaultdict(list)
    for method, kind in REQUEST_KINDS.items():
        def wrapped(store, key, *args, _call=getattr(EventuallyConsistentStore, method),
                    _kind=kind):
            size = len(args[0]) if _kind == "put" else 0
            try:
                result = _call(store, key, *args)
            except CloudUnavailableError:
                raise
            except ReproError:
                served[store].append((_kind, key, size))
                raise
            served[store].append((_kind, key, len(result) if _kind == "get" else size))
            return result

        monkeypatch.setattr(EventuallyConsistentStore, method, wrapped)
    return served


@pytest.fixture
def cloud_requests(monkeypatch) -> dict:
    """``cloud_requests[store]``: ``(kind, key, size)`` of each request ``store`` served in the test.

    Wraps the stores' request methods for the test.  ``size`` is what a put
    sends or a get returns, 0 otherwise (a ``("get", key, 0)`` is a billed
    not-found); a request refused as unavailable was not served.
    """
    return _serving(monkeypatch)


class CloudMeter:
    """Quorum calls executed and cloud requests served, deployment-wide, since ``mark()``.

    Counted below DepSky: at ``QuorumCall.execute`` and in the stores'
    request methods (the read and write budget tests).
    """

    def __init__(self, clouds, monkeypatch):
        self.clouds = clouds
        self.served = _serving(monkeypatch)
        self.calls = 0
        execute = QuorumCall.execute

        def counted(call, required):
            self.calls += 1
            return execute(call, required)

        monkeypatch.setattr(QuorumCall, "execute", counted)
        self.mark()

    def mark(self) -> None:
        self._calls = self.calls
        self._logged = [len(self.served[cloud]) for cloud in self.clouds]

    def quorum_calls(self) -> int:
        return self.calls - self._calls

    def requests(self, kind: str | None = None) -> list[tuple[str, str, int]]:
        """``(kind, key, bytes)`` of every request (of ``kind``) since the mark."""
        return [entry for cloud, start in zip(self.clouds, self._logged)
                for entry in self.served[cloud][start:] if kind in (None, entry[0])]

    def asked(self, kind: str) -> list[str]:
        """Names of the clouds sent a ``kind`` request since the mark, in meter order."""
        return [cloud.name for cloud, start in zip(self.clouds, self._logged)
                if any(entry[0] == kind for entry in self.served[cloud][start:])]


@pytest.fixture
def cloud_meter(monkeypatch):
    """``cloud_meter(clouds)`` starts a :class:`CloudMeter` over ``clouds``."""
    return lambda clouds: CloudMeter(clouds, monkeypatch)


@pytest.fixture
def gc_runs(monkeypatch):
    """Every ``GarbageCollector.run`` of the test, as the list of collectors that ran."""
    runs = []
    run = GarbageCollector.run

    def counted(collector):
        runs.append(collector)
        return run(collector)

    monkeypatch.setattr(GarbageCollector, "run", counted)
    return runs


@contextlib.contextmanager
def _recording_block_puts():
    stored: dict[tuple[str, str], set[str]] = {}
    put = EventuallyConsistentStore.put

    def recorded(store, key, data, principal):
        if not key.endswith("/metadata"):
            stored.setdefault((store.name, key), set()).add(hashlib.sha256(data).hexdigest())
        return put(store, key, data, principal)

    EventuallyConsistentStore.put = recorded
    try:
        yield stored
    finally:
        EventuallyConsistentStore.put = put


@pytest.fixture(scope="session")
def block_puts():
    """``with block_puts() as stored:`` maps ``(cloud, key)`` of every block put
    inside the block (heads left out) to the SHA-256 of each content put there."""
    return _recording_block_puts
