#!/usr/bin/env python3
"""Quickstart: mount SCFS, store files, share them, and survive a cloud outage.

This example walks through the core SCFS workflow on the cloud-of-clouds
backend (the SCFS-CoC-NB variant of Table 2):

1. build a deployment (four simulated storage clouds + a replicated DepSpace
   coordination service);
2. mount the file system for two users;
3. create directories and files, read them back;
4. share a file with the second user through ``setfacl``;
5. knock out one entire cloud provider and show that everything still works.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import Permission, SCFSDeployment
from repro.depsky.protocol import preferred_order
from repro.simenv.failures import FaultKind


def main() -> None:
    # 1. The shared infrastructure: clouds, coordination service, simulation clock.
    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=2024)

    # 2. Two users mount the file system on their (simulated) machines.
    alice = deployment.create_agent("alice")
    bob = deployment.create_agent("bob")

    # 3. Alice organises her work.
    alice.mkdir("/projects", shared=True)
    alice.write_file("/projects/design.md", b"# SCFS reproduction design\n", shared=True)
    alice.write_file("/projects/notes.txt", b"private scratchpad")
    print("alice's /projects:", alice.readdir("/projects"))
    print("alice reads back:", alice.read_file("/projects/design.md").decode().strip())

    # 4. Alice shares the design document with Bob (read-only).
    alice.setfacl("/projects/design.md", "bob", Permission.READ)
    deployment.drain(2.0)  # let the background upload finish (non-blocking mode)
    print("bob reads the shared file:", bob.read_file("/projects/design.md").decode().strip())
    print("bob cannot modify it:", end=" ")
    try:
        bob.write_file("/projects/design.md", b"bob was here")
    except Exception as exc:  # PermissionDeniedError
        print(type(exc).__name__)

    # 5. A whole provider goes down — the cloud-of-clouds shrugs it off.  The
    #    first cloud in preferred order holds a systematic block, so the read
    #    has to decode from a parity block on the remaining clouds.
    victim = preferred_order(deployment.clouds)[0]
    victim.failures.add(FaultKind.UNAVAILABLE)
    print(f"provider {victim.name!r} is now unavailable")
    alice.memory_cache.clear()
    alice.disk_cache.clear()  # force a read from the remaining clouds
    print("alice still reads:", alice.read_file("/projects/design.md").decode().strip(),
          f"(coded reads: {alice.backend.read_paths.coded})")

    # A quick look at what this cost so far (micro-dollars across providers).
    costs = deployment.costs()
    print(f"cloud bills so far: {costs.total * 1e6:.1f} micro-dollars "
          f"({costs.usage.put_requests} PUTs, {costs.usage.get_requests} GETs)")
    print(f"simulated time elapsed: {deployment.sim.now():.2f} s")


if __name__ == "__main__":
    main()
