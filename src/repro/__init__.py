"""SCFS: A Shared Cloud-backed File System — full Python reproduction.

This package reproduces the system described in *"SCFS: A Shared Cloud-backed
File System"* (Bessani et al., USENIX ATC 2014) together with every substrate
it depends on, on top of a deterministic simulation of cloud storage and
coordination services.

Quick start::

    from repro import SCFSDeployment, Permission

    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=7)
    alice = deployment.create_agent("alice")
    bob = deployment.create_agent("bob")

    alice.write_file("/report.txt", b"cloud-of-clouds!", shared=True)
    alice.setfacl("/report.txt", "bob", Permission.READ)
    deployment.drain()                       # let background uploads finish
    print(bob.read_file("/report.txt"))

Sub-packages
------------
``repro.simenv``
    Deterministic simulation environment (clock, latency models, failures).
``repro.clouds``
    Simulated eventually-consistent object stores with pricing and ACLs.
``repro.crypto``
    Erasure coding, secret sharing, hashing and authenticated encryption.
``repro.coordination``
    A replicated DepSpace-like service: entries and locks.
``repro.depsky``
    The DepSky cloud-of-clouds storage protocols.
``repro.core``
    SCFS itself: agent, caches, metadata/storage/lock services, PNS, GC,
    POSIX-like file system façade and deployment helpers.
``repro.baselines``
    S3FS-like, S3QL-like, LocalFS and Dropbox-like comparison systems.
``repro.bench``
    Workloads and harnesses regenerating every table and figure of the paper.
"""

from repro.common.types import Permission
from repro.core.deployment import SCFSDeployment

__all__ = ["Permission", "SCFSDeployment"]
