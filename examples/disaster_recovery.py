#!/usr/bin/env python3
"""Automatic disaster recovery with the cloud-of-clouds backend.

The paper lists "an automatic disaster recovery system" among SCFS's use
cases (§1): files survive the loss of the local IT infrastructure *and* the
failure of individual cloud providers.  This example:

1. backs up a small project tree through SCFS-CoC-B;
2. destroys the client machine (all local caches and the agent itself);
3. marks one block-holding storage provider as permanently failed and the
   spill-over provider as malicious (returning corrupted data);
4. mounts a brand-new machine and restores every file intact, verifying
   integrity end-to-end.

Run with::

    python examples/disaster_recovery.py
"""

from __future__ import annotations

import hashlib

from repro import SCFSDeployment
from repro.depsky.protocol import preferred_order
from repro.simenv.failures import FaultKind


def checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def main() -> None:
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=99)
    laptop = deployment.create_agent("alice")

    # 1. Back up a project tree.
    files = {
        "/backup/thesis/chapter1.tex": b"Introduction " * 400,
        "/backup/thesis/chapter2.tex": b"Related work " * 700,
        "/backup/photos/holiday.raw": bytes(range(256)) * 2048,
        "/backup/keys/passwords.kdbx": b"\x01\x02secret vault\x03" * 64,
    }
    laptop.mkdir("/backup", shared=True)
    laptop.mkdir("/backup/thesis", shared=True)
    laptop.mkdir("/backup/photos", shared=True)
    laptop.mkdir("/backup/keys", shared=True)
    original_checksums = {}
    for path, data in files.items():
        laptop.write_file(path, data, shared=True)
        original_checksums[path] = checksum(data)
    deployment.drain(2.0)
    print(f"backed up {len(files)} files "
          f"({sum(len(d) for d in files.values()) / 1024:.0f} KiB logical)")
    print(f"bytes stored across the four clouds: {deployment.stored_bytes() / 1024:.0f} KiB "
          "(~1.5x thanks to erasure coding)")

    # 2. The laptop is destroyed.
    laptop.unmount()
    print("laptop lost!")

    # 3. And the cloud landscape degrades.  DepSky ranks the four providers
    #    (``preferred_order``): the first three hold one erasure-coded block
    #    of every file each, the last one takes spill-over and otherwise keeps
    #    only metadata copies.  One block holder disappears for good (the f=1
    #    fault SCFS-CoC is designed to survive), and on top of that the
    #    spill-over provider turns malicious — its corrupted metadata copies
    #    are filtered out by the digest checks.
    *holders, spill_over = preferred_order(deployment.clouds)
    gone = holders[0]
    gone.failures.add(FaultKind.UNAVAILABLE)
    spill_over.failures.add(FaultKind.BYZANTINE)
    print(f"provider {gone.name!r} is gone, {spill_over.name!r} is returning corrupted data")

    # 4. Recovery on a new machine: everything is rebuilt from the coordination
    #    service and the remaining healthy clouds, with integrity verified.
    new_machine = deployment.create_agent("alice")
    deployment.sim.advance(1.0)
    recovered = 0
    for directory in ("/backup/thesis", "/backup/photos", "/backup/keys"):
        for name in new_machine.readdir(directory):
            path = f"{directory}/{name}"
            data = new_machine.read_file(path)
            assert checksum(data) == original_checksums[path], f"integrity violated for {path}"
            recovered += 1
            print(f"  recovered {path} ({len(data)} bytes, checksum OK)")
    print(f"all {recovered} files recovered intact despite one outage and one "
          "malicious provider")


if __name__ == "__main__":
    main()
