"""The SCFS garbage collector (§2.5.3).

During normal operation SCFS never deletes data: every ``close`` of a modified
file creates a *new* version and files removed by the user are merely marked
deleted in their metadata.  Old versions support recovery, but they cost
storage money, so each agent runs a garbage collector driven by two
parameters:

* ``W`` (``SCFSConfig.gc_threshold``, set at mount time) — after the agent
  has written W bytes, a collection run is triggered (as a background task);
  ``math.inf`` never triggers one;
* ``V`` (:data:`VERSIONS_TO_KEEP`) — only the last V versions of each file are
  preserved; older versions, and all versions of user-deleted files, are
  removed from the cloud storage and their metadata entries erased.

Collection runs in isolation at each agent and only touches files *owned* by
its user — consistent with the pay-per-ownership principle, reclaiming space
only affects the owner's bill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CloudError, ReproError
from repro.common.types import ObjectRef
from repro.core.backend import StorageBackend
from repro.core.metadata_service import MetadataService
from repro.core.storage_service import StorageService
from repro.simenv.environment import Simulation

#: V: the most recent versions of each file the collector keeps.
VERSIONS_TO_KEEP = 3


@dataclass
class GCReport:
    """Summary of one garbage-collection run."""

    versions_deleted: int = 0
    errors: list[str] = field(default_factory=list)


class GarbageCollector:
    """Per-agent reclamation of old file versions, run every ``threshold`` (W) bytes written."""

    def __init__(
        self,
        sim: Simulation,
        threshold: float,
        metadata_service: MetadataService,
        storage_service: StorageService,
        backend: StorageBackend,
    ):
        self.sim = sim
        self.threshold = threshold
        self.metadata = metadata_service
        self.storage = storage_service
        self.backend = backend
        self._bytes_at_last_run = 0

    # -------------------------------------------------------------- activation

    def should_activate(self) -> bool:
        """True once W bytes were written since the last run (never when W is infinite)."""
        written = self.storage.bytes_pushed - self._bytes_at_last_run
        return written >= self.threshold

    def maybe_schedule(self) -> bool:
        """Schedule a background collection run once W bytes were written.

        The run is scheduled as a deferred task (the paper starts it "as a
        separated thread that runs in parallel with the rest of the system").
        Returns True when a run was scheduled.
        """
        if not self.should_activate():
            return False
        self._bytes_at_last_run = self.storage.bytes_pushed
        self.sim.schedule(0.0, self.run, name="garbage-collection")
        return True

    # --------------------------------------------------------------------- run

    def run(self) -> GCReport:
        """Collect now (synchronously); returns a report of what was reclaimed.

        The collector never charges foreground latency: the whole run is
        background work, modelling the background thread of the paper.  (Its
        monetary cost is still recorded by the providers' cost trackers — one
        LIST per cloud and file, as the paper notes, plus the deletes.)
        """
        report = GCReport()
        with self.sim.background():
            for path in self.metadata.owned_paths():
                meta = self.metadata.lookup(path, use_cache=False)
                if meta is None or not meta.is_file or not meta.file_id:
                    continue
                try:
                    self._collect_file(meta, report)
                except (CloudError, ReproError) as exc:
                    report.errors.append(f"{path}: {exc}")
        return report

    def _delete(self, ref: ObjectRef, report: GCReport, forget: bool = True) -> bool:
        """Delete one listed version; count it only if the delete got through.

        ``forget`` drops its bytes from the local caches too: not when a kept
        version has the same bytes.
        """
        deleted = self.backend.delete_version(ref.key, ref.digest, ref.locator)
        if deleted:
            if forget:
                self.storage.forget(ref.key, ref.digest)
            report.versions_deleted += 1
        else:
            report.errors.append(
                f"{ref.key}: version {ref.digest[:12]}… not deleted (no write quorum)")
        return deleted

    def _collect_file(self, meta, report: GCReport) -> None:
        versions = self.backend.list_versions(meta.file_id)
        if meta.deleted:
            # The file is deleted: no reader anchors any of its versions.  Its
            # entry goes only once they all have; until then the next pass
            # finds both again.
            if all([self._delete(ref, report) for ref in versions]):
                self.metadata.remove(meta.path)
            return
        # Keep the current version plus the most recent V-1 others, counted by
        # listed version: an older version with the current bytes is older.
        keep = {index for index, ref in enumerate(versions) if self._is_current(ref, meta)}
        for index in reversed(range(len(versions))):
            if len(keep) >= VERSIONS_TO_KEEP:
                break
            keep.add(index)
        kept = {ref.digest for index, ref in enumerate(versions) if index in keep}
        for index, ref in enumerate(versions):
            if index not in keep:
                self._delete(ref, report, forget=ref.digest not in kept)

    def _is_current(self, ref: ObjectRef, meta) -> bool:
        """True when ``ref`` is the version the anchor names.

        A backend that lists locators numbers its versions: the same number
        has the same successor.  Without one there is one object per digest.
        """
        same_bytes = ref.digest == meta.digest
        if not (same_bytes and ref.locator and meta.locator):
            return same_bytes
        return (self.backend.version_after(ref.locator, 0)
                == self.backend.version_after(meta.locator, meta.data_version))
