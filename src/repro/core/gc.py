"""The SCFS garbage collector (§2.5.3).

During normal operation SCFS never deletes data: every ``close`` of a modified
file creates a *new* version and files removed by the user are merely marked
deleted in their metadata.  Old versions support recovery, but they cost
storage money, so each agent runs a garbage collector driven by two
user-chosen parameters set at mount time:

* ``W`` (``written_bytes_threshold``) — after the agent has written more than
  W bytes, a collection run is triggered (as a background task);
* ``V`` (``versions_to_keep``) — only the last V versions of each file are
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
from repro.core.config import GarbageCollectionPolicy
from repro.core.metadata_service import MetadataService
from repro.core.storage_service import StorageService
from repro.simenv.environment import Simulation


@dataclass
class GCReport:
    """Summary of one garbage-collection run."""

    files_examined: int = 0
    versions_deleted: int = 0
    bytes_reclaimed: int = 0
    deleted_files_purged: int = 0
    errors: list[str] = field(default_factory=list)


class GarbageCollector:
    """Per-agent, policy-driven reclamation of old file versions."""

    def __init__(
        self,
        sim: Simulation,
        policy: GarbageCollectionPolicy,
        metadata_service: MetadataService,
        storage_service: StorageService,
        backend: StorageBackend,
    ):
        self.sim = sim
        self.policy = policy
        self.metadata = metadata_service
        self.storage = storage_service
        self.backend = backend
        self._bytes_at_last_run = 0

    # ------------------------------------------------------------------ policy

    def should_activate(self) -> bool:
        """True once more than W bytes were written since the last run."""
        if not self.policy.enabled:
            return False
        written = self.storage.bytes_pushed - self._bytes_at_last_run
        return written >= self.policy.written_bytes_threshold

    def maybe_schedule(self) -> bool:
        """Schedule a background collection run if the policy says so.

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
                report.files_examined += 1
                try:
                    self._collect_file(meta, report)
                except (CloudError, ReproError) as exc:
                    report.errors.append(f"{path}: {exc}")
        return report

    def _delete(self, ref: ObjectRef, report: GCReport) -> bool:
        """Delete one listed version; count it only if the delete got through."""
        deleted = self.backend.delete_version(ref.key, ref.digest, ref.locator)
        if deleted:
            self.storage.forget(ref.key, ref.digest)
            report.versions_deleted += 1
            report.bytes_reclaimed += ref.size
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
                report.deleted_files_purged += 1
            return
        # Keep the current version plus the most recent V-1 others.
        keep: set[str] = {meta.digest}
        ordered = [ref for ref in versions if ref.digest != meta.digest]
        for ref in reversed(ordered):
            if len(keep) >= self.policy.versions_to_keep:
                break
            keep.add(ref.digest)
        # Refined policy (§2.5.3): also keep the newest version of each time
        # bucket (e.g. one version per day/week) for long-term recovery.
        if self.policy.keep_interval_seconds:
            interval = self.policy.keep_interval_seconds
            newest_per_bucket: dict[int, str] = {}
            for ref in versions:
                bucket = int(ref.created_at // interval)
                newest_per_bucket[bucket] = ref.digest  # versions are ordered oldest-first
            keep.update(newest_per_bucket.values())
        for ref in versions:
            if ref.digest not in keep:
                self._delete(ref, report)
