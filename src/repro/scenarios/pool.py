"""Prime a large pool of shared files directly into a deployment's state.

A pooled scenario (``ScenarioSpec.pooled``) starts against a namespace of
10^5+ files.  Creating those files through the regular write path would cost
one full DepSky write plus one coordination round trip per file — minutes of
real time before the first measured operation.  This module installs the
files *as if* a pool owner had written them: the clouds receive the stored
objects a DepSky write would have produced, the coordination replicas receive
the metadata tuples the SCFS Agent would have anchored, and prefix grants to
the pseudo-user ``"*"`` make every file world-readable and world-writable.

Interning keeps the footprint flat: every pool file shares one plaintext
payload, so (with encryption disabled — ``ScenarioSpec.config`` forces
``encrypt_data=False`` for pooled specs) all files share the *same* coded
block blobs, DepSky head, digests and ACL objects; only the per-file keys and
the serialized file metadata (which embeds the file's path and unit id) are
per-file, the latter produced by substring substitution on a shared template
instead of re-serializing ~10^5 JSON documents.

The primed state is byte-for-byte what the regular write path produces, so
reads, writes, appends and the invariant checkers treat pool files exactly
like organically created ones.
"""

from __future__ import annotations

from repro.common.types import Permission
from repro.clouds.access_control import ObjectACL
from repro.clouds.eventual import EventuallyConsistentStore, _StoredObject
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import CoordinationService, EntryACL
from repro.coordination.entries import dump_acl
from repro.coordination.partitioned import PartitionedCoordination
from repro.coordination.tuplespace import ENTRY
from repro.core.metadata import FileMetadata, FileType
from repro.core.metadata_service import MetadataService
from repro.crypto.erasure import ErasureCoder
from repro.crypto.hashing import content_digest
from repro.crypto.secret_sharing import SecretShare
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import _BLOCK_HEADER, DepSkyClient, block_blob_digest, preferred_order

#: Pseudo-user owning every pool file.  It is never registered and never runs
#: an agent, so ``unlink`` (owner-only in the workload) skips pool files and
#: ``setfacl`` (owner-only in the coordination service) is never attempted.
POOL_OWNER = "pool"

#: Cloud-key prefix shared by every pool file's DepSky objects; one bucket
#: policy per cloud on this prefix replaces 10^5 per-object grants.
POOL_PREFIX = "depsky/pool-"

#: The shared plaintext every pool file initially contains.
POOL_PAYLOAD = bytes((i * 37 + 11) % 256 for i in range(64))


def pool_file_id(index: int) -> str:
    """Storage id of the ``index``-th pool file.

    The ``pool-`` prefix keeps the ids disjoint from
    :meth:`~repro.simenv.environment.Simulation.fresh_id`'s ``file-``-prefixed
    ids, so files created organically during a pooled run never collide.
    """
    return f"pool-{index:08d}"


def _depspace_replicas(coordination: CoordinationService, key: str) -> list:
    """The DepSpace replicas holding ``key`` (all replicas of its partition)."""
    service = coordination
    if isinstance(service, PartitionedCoordination):
        service = service._service_for(key)
    if not isinstance(service, DepSpaceCoordination):
        raise TypeError(
            "pooled scenarios require DepSpace coordination "
            f"(got {type(service).__name__})"
        )
    return service.rsm.replicas


def _prime_entry(coordination: CoordinationService, key: str, value: bytes,
                 acl_json: str, now: float) -> None:
    """Install one metadata tuple on every replica of the owning partition.

    All replicas receive the *same* fields tuple (tuples are immutable, so
    sharing is safe) — exactly the state a replicated ``entry_put`` would have
    produced, minus the latency charge.
    """
    fields = (ENTRY, key, POOL_OWNER, 1, value, acl_json)
    for space in _depspace_replicas(coordination, key):
        space.out(fields, now)


def prime_pool(deployment, spec, recorder=None) -> dict[str, int]:
    """Install ``spec.shared_files`` as committed, world-shared pool files.

    Returns a small stats mapping (files, cloud objects, coordination
    entries) and records one ``setup_done`` trace event when ``recorder`` is
    given.  Requires a cloud-of-clouds deployment with DepSpace coordination
    and encryption disabled (pooled specs configure exactly that).
    """
    sim = deployment.sim
    now = sim.now()
    clouds: list[EventuallyConsistentStore] = deployment.clouds
    coordination = deployment.coordination
    if coordination is None:
        raise TypeError("pooled scenarios require a coordination service")
    if deployment.config.encrypt_data:
        raise ValueError("pooled priming requires encrypt_data=False "
                         "(pool files share one set of coded blocks)")
    n = len(clouds)
    f = deployment.config.fault_tolerance
    k = f + 1

    # ---- shared, interned artefacts (one set for every pool file) ----------
    data = POOL_PAYLOAD
    data_digest = content_digest(data)
    blocks = ErasureCoder(n=n, k=k).encode(data)
    shares = [SecretShare(x=i + 1, data=b"") for i in range(n)]
    blobs = [
        _BLOCK_HEADER.pack(shares[i].x, 0) + blocks[i].payload for i in range(n)
    ]
    block_digests = tuple(
        block_blob_digest(shares[i], blocks[i].payload) for i in range(n)
    )
    record = VersionRecord(
        version=1, data_digest=data_digest, size=len(data),
        block_digests=block_digests, created_at=now, writer=POOL_OWNER,
    )
    head = record.to_bytes()
    head_digest = content_digest(head)

    proto = FileMetadata(
        path="/pool-template/file.dat", file_type=FileType.FILE,
        owner=POOL_OWNER, size=len(data), created_at=now, modified_at=now,
        file_id="@@UID@@", digest=data_digest, data_version=1,
        grants={"*": Permission.READ_WRITE}, locator=record.locator(),
    )
    file_meta_template = proto.to_bytes()
    acl_json = dump_acl(
        EntryACL(owner=POOL_OWNER, grants={"*": Permission.READ_WRITE})
    )
    # One shared per-cloud object ACL: never mutated (``set_acl`` is
    # owner-only and the pool owner never acts), so sharing is safe.
    cloud_acls = {cloud.name: ObjectACL(owner=f"{POOL_OWNER}@{cloud.name}") for cloud in clouds}
    # Preferred-quorum write layout: the i-th cloud of the clients' order
    # stores block i, for the first n - f clouds only (spill-over stays empty).
    holders = preferred_order(clouds)[:n - f]
    for cloud in clouds:
        # World grant on every current and future pool object — overwrites by
        # any agent (new versions, metadata updates) pass the access check via
        # the bucket policy, exactly as ``setfacl`` would have arranged.
        cloud._bucket_policies.setdefault(POOL_PREFIX, {})["*"] = Permission.READ_WRITE

    # ---- per-file state ----------------------------------------------------
    objects = 0
    entries = 0
    for index, path in enumerate(spec.shared_files):
        uid = pool_file_id(index)
        uid_bytes = uid.encode()
        meta_key = DepSkyClient._meta_key(uid)
        for cloud in clouds:
            cloud.install(_StoredObject(
                key=meta_key, data=head, acl=cloud_acls[cloud.name],
                created_at=now, visible_at=now, digest=head_digest,
            ))
        objects += n
        for block_index, cloud in enumerate(holders):
            block_key = DepSkyClient._block_key(uid, 1, data_digest, block_index)
            cloud.install(_StoredObject(
                key=block_key, data=blobs[block_index],
                acl=cloud_acls[cloud.name], created_at=now, visible_at=now,
                digest=block_digests[block_index],
            ))
        objects += n - f
        file_blob = file_meta_template.replace(
            b'"/pool-template/file.dat"', b'"' + path.encode() + b'"'
        ).replace(b'"@@UID@@"', b'"' + uid_bytes + b'"')
        _prime_entry(coordination, MetadataService.entry_key(path), file_blob,
                     acl_json, now)
        entries += 1

    # ---- pool directories --------------------------------------------------
    directories = sorted({path.rsplit("/", 1)[0] for path in spec.shared_files})
    for directory in directories:
        if not directory:
            continue
        dir_meta = FileMetadata(
            path=directory, file_type=FileType.DIRECTORY, owner=POOL_OWNER,
            created_at=now, modified_at=now,
            grants={"*": Permission.READ_WRITE},
        )
        _prime_entry(coordination, MetadataService.entry_key(directory),
                     dir_meta.to_bytes(), acl_json, now)
        entries += 1

    stats = {"files": len(spec.shared_files), "cloud_objects": objects,
             "coordination_entries": entries}
    if recorder is not None:
        recorder.record("setup_done", time=now, files=len(spec.shared_files),
                        pooled=True)
    return stats
