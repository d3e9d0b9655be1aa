"""Prime a large pool of shared files directly into a deployment's state.

A pooled scenario (``ScenarioSpec.pooled``) starts against a namespace of
10^5+ files.  Creating those files through the regular write path would cost
one full DepSky write plus one coordination round trip per file — minutes of
real time before the first measured operation.  This module installs the
files *as if* a pool owner had written them: the clouds receive the stored
objects a DepSky write would have produced, the coordination replicas receive
the metadata entries the SCFS Agent would have anchored, and prefix grants to
the pseudo-user ``"*"`` make every file world-readable and world-writable.

Interning keeps the footprint flat: every pool file shares one plaintext
payload, so (with encryption disabled — a pooled spec's ``config`` has
``encrypt_data=False``) all files share the *same* coded block blobs, DepSky
head, digests, ACL and owner strings; only the per-file keys and the serialized file
metadata (which embeds the file's path and unit id) are per-file, the latter
produced by substring substitution on a shared template instead of
re-serializing ~10^5 JSON documents.

The primed state is byte-for-byte what the regular write path produces, so
reads, writes, appends and the invariant checkers treat pool files exactly
like organically created ones.
"""

from __future__ import annotations

from repro.common.types import ACL, Permission
from repro.clouds.eventual import EventuallyConsistentStore, StoredObject
from repro.coordination.entries import Stored
from repro.core.metadata import FileMetadata, FileType
from repro.core.metadata_service import MetadataService
from repro.crypto.erasure import ErasureCoder
from repro.crypto.hashing import content_digest
from repro.crypto.secret_sharing import SecretShare
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import DepSkyClient, block_blob_digest, frame_block, preferred_order

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


def prime_pool(deployment, spec, recorder=None) -> dict[str, int]:
    """Install ``spec.shared_files`` as committed, world-shared pool files.

    Returns a small stats mapping (files, cloud objects, coordination
    entries) and records one ``setup_done`` trace event when ``recorder`` is
    given.  Requires a cloud-of-clouds deployment with a coordination service
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
    blobs = [frame_block(shares[i], blocks[i].payload) for i in range(n)]
    block_digests = tuple(
        block_blob_digest(shares[i], blocks[i].payload) for i in range(n)
    )
    record = VersionRecord(
        version=1, data_digest=data_digest, size=len(data),
        block_digests=block_digests, created_at=now,
    )
    head = record.to_bytes()

    proto = FileMetadata(
        path="/pool-template/file.dat", file_type=FileType.FILE,
        owner=POOL_OWNER, size=len(data), created_at=now, modified_at=now,
        file_id="@@UID@@", digest=data_digest, data_version=1,
        grants={"*": Permission.READ_WRITE}, locator=record.locator(),
    )
    file_meta_template = proto.to_bytes()
    # One ACL for every entry and one owner string per cloud for every object:
    # neither is ever changed in place, so sharing is safe.
    acl = ACL(POOL_OWNER, {"*": Permission.READ_WRITE})
    owners = {cloud.name: f"{POOL_OWNER}@{cloud.name}" for cloud in clouds}
    # Preferred-quorum write layout: the i-th cloud of the clients' order
    # stores block i, for the first n - f clouds only (spill-over stays empty).
    holders = preferred_order(clouds)[:n - f]
    for cloud in clouds:
        # World grant on every current and future pool object — overwrites by
        # any agent (new versions, metadata updates) pass the access check via
        # the bucket policy, exactly as ``setfacl`` would have arranged.
        cloud.install_policy(POOL_PREFIX, "*", Permission.READ_WRITE)

    # ---- per-file state ----------------------------------------------------
    objects = 0
    entries: dict[str, Stored] = {}
    for index, path in enumerate(spec.shared_files):
        entry_key = MetadataService.entry_key(path)
        uid = pool_file_id(index)
        uid_bytes = uid.encode()
        head_key = DepSkyClient.head_key(uid)
        for cloud in clouds:
            cloud.install(StoredObject(
                key=head_key, data=head, owner=owners[cloud.name],
                created_at=now, visible_at=now))
        objects += n
        for block_index, cloud in enumerate(holders):
            block_key = DepSkyClient.block_key(uid, 1, data_digest, block_index)
            cloud.install(StoredObject(
                key=block_key, data=blobs[block_index],
                owner=owners[cloud.name], created_at=now, visible_at=now))
        objects += n - f
        file_blob = file_meta_template.replace(
            b'"/pool-template/file.dat"', b'"' + path.encode() + b'"'
        ).replace(b'"@@UID@@"', b'"' + uid_bytes + b'"')
        entries[entry_key] = Stored(1, file_blob, acl)

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
        entries[MetadataService.entry_key(directory)] = Stored(1, dir_meta.to_bytes(), acl)

    # ---- coordination entries ----------------------------------------------
    # What a replicated ``Put`` step leaves, minus the latency charge.  Every
    # replica gets the same (immutable) record, and in key order, so that its
    # sorted key index grows by appends.
    for key in sorted(entries):
        for replica in coordination.rsm.replicas:
            replica.install(key, entries[key])

    stats = {"files": len(spec.shared_files), "cloud_objects": objects,
             "coordination_entries": len(entries)}
    if recorder is not None:
        recorder.record("setup_done", time=now, files=len(spec.shared_files),
                        pooled=True)
    return stats
