"""Property: every SCFS write is numbered by its anchor, and the numbers hold.

No SCFS write asks a cloud for the latest version before it uploads: a close
(blocking, or a non-blocking close's background commit), a PNS save and a
transaction commit all take the DepSky version after the one the anchored
locator names (``StorageBackend.version_after``).  Hypothesis drives two
agents over two shared files and one private file each — a non-blocking
agent, which may close one file twice before the first upload lands, and a
blocking one — through plain closes, transaction commits (which save nothing
in a PNS), crash/restart of either agent and collector passes.  Per data unit
(a file, or a user's PNS object):

* the DepSky versions written, in the order their uploads complete, strictly
  increase — across agents, across a restart, across the two paths;
* no block name is ever put with two different contents;
* every written version reads back through its locator (unless a collector
  pass ran and may have deleted the superseded ones), and each unit's
  anchored version still does after both agents' collectors ran;
* each unit's anchor names the last version written of it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from repro.common.errors import LockHeldError, TransactionError, TupleNotFoundError
from repro.common.types import Permission
from repro.core.backend import CloudOfCloudsBackend
from repro.core.consistency import split_anchor_value
from repro.core.deployment import SCFSDeployment
from repro.core.modes import OperationMode
from repro.crypto.hashing import content_digest
from repro.depsky.dataunit import VersionRecord

USERS = ("alice", "bob")          # alice closes in the background, bob blocks
SHARED = ("/f0", "/f1")
LEASE = 5.0

_step = st.one_of(
    st.tuples(st.just("close"), st.integers(0, 1), st.integers(0, 2)),
    st.tuples(st.just("close_twice"), st.integers(0, 1), st.integers(0, 2)),
    st.tuples(st.just("txn"), st.integers(0, 1), st.just(0)),
    st.tuples(st.just("advance"), st.sampled_from((0.05, 0.3, 1.0, 5.0)), st.just(0)),
    st.tuples(st.just("crash_restart"), st.integers(0, 1), st.just(0)),
    st.tuples(st.just("collect"), st.integers(0, 1), st.just(0)),
)


def _write_shared(txn, data: bytes) -> None:
    """A transaction body: every shared file gets ``data`` and its own path."""
    for path in SHARED:
        txn.write(path, data + path.encode())


@contextlib.contextmanager
def _recording_writes():
    """Record every SCFS write, in completion order."""
    #: (unit, record, locator, data, the writing backend)
    written: list[tuple[str, VersionRecord, str, bytes, CloudOfCloudsBackend]] = []
    write_versions = CloudOfCloudsBackend.write_versions

    def recording_write_versions(backend, items):
        refs = write_versions(backend, items)
        for (file_id, data, _version), ref in zip(items, refs, strict=True):
            written.append((file_id, VersionRecord.from_locator(ref.locator, ref.digest),
                            ref.locator, data, backend))
        return refs

    CloudOfCloudsBackend.write_versions = recording_write_versions
    try:
        yield written
    finally:
        CloudOfCloudsBackend.write_versions = write_versions


def _run(steps, block_puts) -> None:
    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=23, private_name_spaces=True,
                                            lock_lease=LEASE)
    configs = (deployment.config, dataclasses.replace(deployment.config, mode=OperationMode.BLOCKING))
    mounts = [deployment.create_agent(user, config=config)
              for user, config in zip(USERS, configs, strict=True)]
    for path in SHARED:
        mounts[0].write_file(path, b"created", shared=True)
        mounts[0].setfacl(path, USERS[1], Permission.READ_WRITE)
    deployment.drain(3.0)

    with block_puts() as blocks, _recording_writes() as written:
        for serial, (kind, argument, target) in enumerate(steps):
            if kind == "advance":
                deployment.sim.advance(argument)
                continue
            fs = mounts[argument]
            path = SHARED[target] if target < len(SHARED) else f"/{USERS[argument]}.txt"
            data = b"step %d by %s" % (serial, USERS[argument].encode())
            try:
                if kind == "close":
                    fs.write_file(path, data)
                elif kind == "close_twice":
                    fs.write_file(path, data + b" (1st)")
                    fs.write_file(path, data + b" (2nd)")
                elif kind == "txn":
                    fs.run_transaction(functools.partial(_write_shared, data=data))
                elif kind == "collect":
                    fs.collect_garbage()
                else:
                    fs.crash()
                    deployment.sim.advance(LEASE + 1.0)
                    mounts[argument] = deployment.create_agent(USERS[argument],
                                                               config=configs[argument])
            except (LockHeldError, TransactionError):
                continue   # the other agent holds the file: nothing was written
        deployment.drain(3.0)

        assert all(len(contents) == 1 for contents in blocks.values()), (
            "a block name was put with two different contents")
        collected = any(kind == "collect" for kind, _argument, _target in steps)
        last: dict[str, tuple[VersionRecord, str, bytes, CloudOfCloudsBackend]] = {}
        for unit, record, locator, data, backend in written:
            if unit in last:
                assert record.version > last[unit][0].version, (unit, record.version)
            last[unit] = (record, locator, data, backend)
            # Read as the writer: a private unit is readable by its owner only.
            assert collected or backend.read_version(unit, record.data_digest, locator) == data

        # Each anchor — a shared file's entry, a private file's PNS entry, a
        # user's PNS tuple — names the last version written of its unit.
        # Read back as the owner; the shared files are alice's.
        anchored: dict[str, tuple[str, str]] = {}
        owner: dict[str, CloudOfCloudsBackend] = {}
        for user, fs in zip(USERS, mounts, strict=True):
            agent = fs
            metas = [agent.metadata.lookup(path, use_cache=False) for path in SHARED]
            metas.append(agent.pns.get(f"/{user}.txt"))
            for meta in metas:
                if meta is not None:
                    anchored[meta.file_id] = (meta.digest, meta.locator)
                    owner.setdefault(meta.file_id, agent.backend)
            with contextlib.suppress(TupleNotFoundError):   # never saved
                pns_tuple = deployment.coordination.get(agent.pns.tuple_key, agent.session)
                anchored[agent.pns.unit_id] = split_anchor_value(pns_tuple.value.decode())
                owner[agent.pns.unit_id] = agent.backend
        for unit, (_record, locator, data, _backend) in last.items():
            assert anchored[unit] == (content_digest(data), locator), unit

        for fs in mounts:
            fs.collect_garbage()
        deployment.sim.advance(10.0)
        for unit, (digest, locator) in anchored.items():
            if locator:
                assert content_digest(owner[unit].read_version(unit, digest, locator)) == digest


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=14))
def test_every_anchored_write_is_numbered_by_its_anchor(steps, block_puts):
    _run(steps, block_puts)
