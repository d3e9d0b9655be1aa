"""A Dropbox-like personal file-synchronisation service (sharing comparator).

Figure 9 of the paper compares the time for a file written by client A to
become readable at client B when shared through SCFS versus through a Dropbox
shared folder.  Dropbox's design [Drago et al., IMC'12] is monitor-based: a
client application watches the local folder (inotify), batches and uploads
changed files to the provider, the provider then notifies the other clients,
which download the new content.  Every stage adds latency, which is why the
measured sharing delay is tens of seconds even for small files.

The model here reproduces those stages with configurable delays:

``detection``  the monitor notices the closed file (polling/batching delay)
``upload``     whole-file upload at the client's uplink rate (plus a fixed RTT)
``processing`` server-side processing/indexing delay
``notify``     delay until the receiving client learns about the new version
``download``   whole-file download at the receiver's downlink rate

All delays use the shared seeded RNG, so the 50th/90th percentiles of Figure 9
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import FileNotFoundErrorFS
from repro.common.units import MB
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel


@dataclass(frozen=True)
class DropboxProfile:
    """Latency profile of the synchronisation pipeline."""

    detection: LatencyModel = LatencyModel(base=1.5, jitter=0.4)
    upload: LatencyModel = LatencyModel(base=2.0, bandwidth=0.6 * MB, jitter=0.3)
    processing: LatencyModel = LatencyModel(base=4.0, jitter=0.5)
    notify: LatencyModel = LatencyModel(base=2.5, jitter=0.5)
    download: LatencyModel = LatencyModel(base=1.0, bandwidth=1.5 * MB, jitter=0.3)


@dataclass
class _SharedFile:
    data: bytes
    written_at: float


class DropboxLikeService:
    """The shared-folder service connecting a set of :class:`DropboxClient`."""

    def __init__(self, sim: Simulation, profile: DropboxProfile | None = None):
        self.sim = sim
        self.profile = profile or DropboxProfile()
        self.clients: dict[str, "DropboxClient"] = {}
        self.files: dict[str, _SharedFile] = {}

    def register(self, name: str) -> "DropboxClient":
        """Create a client attached to the shared folder."""
        client = DropboxClient(name, self)
        self.clients[name] = client
        return client

    # -- synchronisation pipeline ------------------------------------------------

    def _propagate(self, path: str, writer: str) -> None:
        rng = self.sim.rng
        record = self.files[path]
        detection = self.profile.detection.sample(0, rng)
        upload = self.profile.upload.sample(len(record.data), rng)
        processing = self.profile.processing.sample(0, rng)
        server_time = detection + upload + processing
        for name, client in self.clients.items():
            if name == writer:
                continue
            notify = self.profile.notify.sample(0, rng)
            download = self.profile.download.sample(len(record.data), rng)
            arrival = record.written_at + server_time + notify + download

            def deliver(client=client, path=path, data=record.data):
                client.local_files[path] = data

            self.sim.schedule(max(0.0, arrival - self.sim.now()), deliver,
                              name=f"dropbox-sync:{path}->{name}")

    def publish(self, path: str, data: bytes, writer: str) -> None:
        """Called by a client that saved ``path`` in its shared folder."""
        self.files[path] = _SharedFile(data=data, written_at=self.sim.now())
        self._propagate(path, writer)


class DropboxClient:
    """One machine participating in the shared folder."""

    def __init__(self, name: str, service: DropboxLikeService):
        self.name = name
        self.service = service
        self.local_files: dict[str, bytes] = {}

    # -- writer side ------------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Save a file in the shared folder (returns immediately, like a local save)."""
        self.local_files[path] = data
        self.service.publish(path, data, writer=self.name)

    # -- reader side ---------------------------------------------------------------

    def has_file(self, path: str) -> bool:
        """True once the synchronisation pipeline delivered ``path`` to this client."""
        return path in self.local_files

    def read_file(self, path: str) -> bytes:
        """Read a synchronised file (raises when it has not arrived yet)."""
        if path not in self.local_files:
            raise FileNotFoundErrorFS(f"{path} has not been synchronised to {self.name} yet")
        return self.local_files[path]

    def wait_for(self, path: str, poll_interval: float = 0.2, timeout: float = 600.0) -> float:
        """Poll until ``path`` arrives; returns the elapsed simulated waiting time."""
        start = self.service.sim.now()
        while not self.has_file(path):
            if self.service.sim.now() - start > timeout:
                raise FileNotFoundErrorFS(f"{path} did not arrive within {timeout}s")
            self.service.sim.advance(poll_interval)
        return self.service.sim.now() - start
