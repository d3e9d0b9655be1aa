#!/usr/bin/env python3
"""Collaboration infrastructure: several users editing shared files safely.

The paper motivates SCFS as "a collaboration infrastructure — dependable
data-based collaborative applications without running code in the cloud" (§1).
This example shows three users working on a shared directory with the
*blocking* CoC variant, where consistency-on-close means that as soon as a
writer's ``close`` returns, every other client sees the new version:

* write-write conflicts are prevented by the coordination-service locks;
* updates propagate with strong consistency (no lost updates, no stale reads
  once the short metadata cache expires);
* the full version history remains available until the garbage collector
  trims it.

Run with::

    python examples/collaboration_workflow.py
"""

from __future__ import annotations

from repro import Permission, SCFSDeployment
from repro.common.errors import LockHeldError


def main() -> None:
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=7)
    owner = deployment.create_agent("owner")
    writer = deployment.create_agent("writer")
    reviewer = deployment.create_agent("reviewer")

    # The owner sets up the shared workspace and grants access.
    owner.mkdir("/paper", shared=True)
    owner.write_file("/paper/draft.tex", b"\\section{Introduction}\n", shared=True)
    owner.setfacl("/paper/draft.tex", "writer", Permission.READ_WRITE)
    owner.setfacl("/paper/draft.tex", "reviewer", Permission.READ)
    deployment.drain(2.0)

    # The writer starts editing: the file is locked for writing.
    handle = writer.open("/paper/draft.tex", "r+")
    print("writer holds the write lock")
    try:
        owner.open("/paper/draft.tex", "r+")
    except LockHeldError:
        print("owner cannot edit concurrently (write-write conflict prevented)")

    # The reviewer can still read the last committed version (no lock needed).
    print("reviewer reads:", reviewer.read_file("/paper/draft.tex").decode().strip())

    # The writer appends a paragraph and closes: consistency-on-close.
    writer.write(handle, b"\\section{Design}\nAlways write, avoid reading.\n")
    writer.close(handle)
    deployment.sim.advance(1.0)  # metadata caches expire
    print("after close, reviewer sees:")
    print(reviewer.read_file("/paper/draft.tex").decode())

    # Version history: the original version is still stored in the clouds.
    meta = owner.stat("/paper/draft.tex")
    versions = owner.backend.list_versions(meta.file_id)
    print(f"versions stored in the cloud-of-clouds: {len(versions)}")

    # Housekeeping: the owner trims old versions with the garbage collector.
    report = owner.collect_garbage()
    print(f"garbage collector removed {report.versions_deleted} old version(s)")


if __name__ == "__main__":
    main()
