"""Shared fixtures for the SCFS reproduction test suite."""

from __future__ import annotations

import pytest

from repro.clouds.dispatch import QuorumCall
from repro.common.types import Principal
from repro.simenv.environment import Simulation


@pytest.fixture
def sim() -> Simulation:
    """A fresh deterministic simulation environment."""
    return Simulation(seed=1234)


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


class CloudMeter:
    """Quorum calls executed and cloud requests served, deployment-wide, since ``mark()``.

    Counted below DepSky: at ``QuorumCall.execute`` and in the providers'
    ``request_log`` (the read and write budget tests).
    """

    def __init__(self, clouds, monkeypatch):
        self.clouds = clouds
        self.calls = 0
        execute = QuorumCall.execute

        def counted(call, required):
            self.calls += 1
            return execute(call, required)

        monkeypatch.setattr(QuorumCall, "execute", counted)
        self.mark()

    def mark(self) -> None:
        self._calls = self.calls
        self._logged = [len(cloud.request_log) for cloud in self.clouds]

    def quorum_calls(self) -> int:
        return self.calls - self._calls

    def requests(self, kind: str | None = None) -> list[tuple[str, str, int]]:
        """``(kind, key, bytes)`` of every request (of ``kind``) since the mark."""
        return [entry for cloud, start in zip(self.clouds, self._logged)
                for entry in cloud.request_log[start:] if kind in (None, entry[0])]

    def asked(self, kind: str) -> list[str]:
        """Names of the clouds sent a ``kind`` request since the mark, in meter order."""
        return [cloud.name for cloud, start in zip(self.clouds, self._logged)
                if any(entry[0] == kind for entry in cloud.request_log[start:])]


@pytest.fixture
def cloud_meter(monkeypatch):
    """``cloud_meter(clouds)`` starts a :class:`CloudMeter` over ``clouds``."""
    return lambda clouds: CloudMeter(clouds, monkeypatch)
