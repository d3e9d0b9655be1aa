"""Unit tests for the multi-file transaction layer (``repro.transactions``)."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    CloudUnavailableError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    FileSystemError,
    IsADirectoryErrorFS,
    LockHeldError,
    QuorumNotReachedError,
    TransactionAbortedError,
    TransactionConflictError,
    TransactionError,
)
from repro.common.types import Permission
from repro.core.consistency import READ_RETRY_INTERVAL
from repro.core.deployment import SCFSDeployment
from repro.core.metadata import DATA_FIELDS
from repro.core.modes import BackendKind
from repro.simenv.failures import FaultKind
from repro.simenv.latency import MEMORY_LATENCY, LatencyModel
from repro.transactions import ABORTED, COMMITTED

from conftest import expire_metadata, lock_holder


def _shared_pair(variant: str = "SCFS-CoC-NB", **overrides):
    """A deployment with alice owning /shared/a + /shared/b, bob granted RW."""
    deployment = SCFSDeployment.for_variant(variant, seed=11, **overrides)
    alice = deployment.create_agent("alice")
    bob = deployment.create_agent("bob")
    alice.mkdir("/shared", shared=True)
    for path in ("/shared/a", "/shared/b"):
        alice.write_file(path, b"v1:" + path.encode(), shared=True)
        alice.setfacl(path, "bob", Permission.READ_WRITE)
    deployment.drain(2.0)
    return deployment, alice, bob


@pytest.fixture(params=["SCFS-CoC-NB", "SCFS-AWS-NB"])
def shared(request):
    """The pair on each coordination service a sharing mount deploys: the
    replicated DepSpace of SCFS-CoC and the one VM of SCFS-AWS."""
    return _shared_pair(request.param)


@pytest.fixture
def coc_shared():
    """The pair on SCFS-CoC-NB: for what only a quorum of clouds shows."""
    return _shared_pair()


def _write_set(fs, items: dict[str, bytes]) -> None:
    """Replace the contents of several existing files in one transaction."""
    def body(txn) -> None:
        for path, data in sorted(items.items()):
            txn.write(path, data)

    fs.run_transaction(body)


class TestCommit:
    def test_a_write_set_is_atomic_and_visible(self, shared):
        deployment, alice, bob = shared
        _write_set(alice, {"/shared/a": b"A2", "/shared/b": b"B2"})
        assert alice.read_file("/shared/a") == b"A2"
        assert bob.read_file("/shared/a") == b"A2"
        assert bob.read_file("/shared/b") == b"B2"

    def test_a_read_modify_write_commits(self, shared):
        _, alice, bob = shared
        txn = alice.transactions.begin()
        before = txn.read("/shared/a")
        txn.write("/shared/a", before + b"+more")
        txn.commit()
        assert txn.status == COMMITTED
        assert bob.read_file("/shared/a") == before + b"+more"

    def test_reads_your_own_staged_writes(self, shared):
        _, alice, _ = shared
        txn = alice.transactions.begin()
        txn.write("/shared/a", b"staged")
        assert txn.read("/shared/a") == b"staged"
        # Nothing visible outside the transaction before commit.
        assert alice.read_file("/shared/a") != b"staged"
        txn.commit()
        assert alice.read_file("/shared/a") == b"staged"

    def test_empty_transaction_commits(self, shared):
        _, alice, _ = shared
        txn = alice.transactions.begin()
        txn.commit()
        assert txn.status == COMMITTED

    def test_read_only_transaction_commits(self, shared):
        _, alice, _ = shared
        txn = alice.transactions.begin()
        assert txn.read("/shared/a").startswith(b"v1:")
        txn.commit()
        assert txn.status == COMMITTED

    def test_write_to_missing_file_fails(self, shared):
        _, alice, _ = shared
        txn = alice.transactions.begin()
        txn.write("/shared/missing", b"data")
        with pytest.raises(FileNotFoundErrorFS):
            txn.commit()

    def test_read_of_directory_fails(self, shared):
        _, alice, _ = shared
        txn = alice.transactions.begin()
        with pytest.raises(IsADirectoryErrorFS):
            txn.read("/shared")

    def test_finished_transaction_refuses_operations(self, shared):
        _, alice, _ = shared
        txn = alice.transactions.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.read("/shared/a")
        with pytest.raises(TransactionError):
            txn.write("/shared/a", b"x")

    def test_pending_background_upload_is_flushed_first(self, shared):
        """A non-blocking close of this agent must anchor before the txn
        bases its read set on the metadata (else the background commit's
        unconditional update would clobber the txn's CAS)."""
        _, alice, bob = shared
        handle = alice.open("/shared/a", "w", shared=True)
        alice.write(handle, b"pre-txn")
        alice.close(handle)  # upload still in flight (NB mode)
        txn = alice.transactions.begin()
        assert txn.read("/shared/a") == b"pre-txn"
        txn.write("/shared/a", b"post-txn")
        txn.commit()
        assert bob.read_file("/shared/a") == b"post-txn"


class TestConflicts:
    def test_stale_read_aborts_commit(self, shared):
        _, alice, bob = shared
        txn = alice.transactions.begin()
        txn.read("/shared/a")
        bob.write_file("/shared/a", b"bob won", shared=True)
        bob.sim.drain(1.0)
        txn.write("/shared/a", b"alice lost")
        with pytest.raises(TransactionConflictError):
            txn.commit()
        assert txn.status == ABORTED
        assert alice.read_file("/shared/a") == b"bob won"

    def test_run_retries_conflicts_and_succeeds(self, shared):
        _, alice, bob = shared
        attempts = []

        def body(txn):
            attempts.append(txn.txn_id)
            data = txn.read("/shared/a")
            if len(attempts) == 1:
                bob.write_file("/shared/a", b"interference", shared=True)
                bob.sim.drain(1.0)
            txn.write("/shared/a", data + b"!")

        alice.run_transaction(body)
        assert len(attempts) == 2
        assert alice.read_file("/shared/a") == b"interference!"

    def test_run_gives_up_after_max_attempts(self, shared):
        deployment, alice, bob = shared

        def body(txn):
            txn.read("/shared/a")
            bob.write_file("/shared/a", b"always racing", shared=True)
            bob.sim.drain(1.0)
            txn.write("/shared/a", b"never lands")

        with pytest.raises(TransactionAbortedError):
            alice.run_transaction(body)
        assert alice.read_file("/shared/a") == b"always racing"

    def test_held_lock_is_a_conflict(self, shared):
        _, alice, bob = shared
        meta = bob.metadata.get("/shared/a", use_cache=False)
        bob.locks.acquire(meta)
        txn = alice.transactions.begin()
        txn.read("/shared/a")
        txn.write("/shared/a", b"blocked")
        with pytest.raises(TransactionConflictError):
            txn.commit()
        bob.locks.release(meta)

    def test_abort_leaves_no_visible_state(self, shared):
        _, alice, bob = shared
        before_a = alice.read_file("/shared/a")
        before_b = alice.read_file("/shared/b")
        txn = alice.transactions.begin()
        txn.write("/shared/a", b"partial")
        txn.write("/shared/b", b"partial")
        txn.abort()
        assert txn.status == ABORTED
        assert alice.read_file("/shared/a") == before_a
        assert bob.read_file("/shared/b") == before_b

    def test_body_exception_aborts(self, shared):
        _, alice, _ = shared
        before = alice.read_file("/shared/a")
        transactions = []

        def body(txn):
            transactions.append(txn)
            txn.write("/shared/a", b"doomed")
            raise RuntimeError("application bug")

        with pytest.raises(RuntimeError):
            alice.run_transaction(body)
        [txn] = transactions
        assert txn.status == ABORTED
        assert alice.read_file("/shared/a") == before


class TestCommitPoint:
    def test_lost_version_cas_anchors_no_file_of_the_set(self, shared):
        """Another agent anchors the 2nd file after validation: the commit
        point refuses as a whole — the 1st file is not anchored either."""
        _, alice, bob = shared
        storage = alice.storage
        upload = storage.push_many_to_cloud

        def upload_then_lose_the_race(items):
            refs = upload(items)
            meta = bob.metadata.get("/shared/b", use_cache=False)
            # bob's anchor: the entry version moves during the upload.
            bob.metadata.update(meta, DATA_FIELDS)
            return refs

        storage.push_many_to_cloud = upload_then_lose_the_race
        before = {path: alice.read_file(path) for path in ("/shared/a", "/shared/b")}
        txn = alice.transactions.begin()
        for path in before:
            txn.write(path, txn.read(path) + b"+txn")
        with pytest.raises(TransactionConflictError, match="commit point refused"):
            txn.commit()
        assert txn.status == ABORTED
        expire_metadata(alice)
        assert {path: alice.read_file(path) for path in before} == before
        assert bob.read_file("/shared/a") == before["/shared/a"]

    def test_commit_returns_once_the_write_set_is_readable(self, coc_shared):
        deployment, alice, bob = coc_shared
        _write_set(alice, {"/shared/a": b"A2" * 100, "/shared/b": b"B2" * 100})
        for path in ("/shared/a", "/shared/b"):
            locator = bob.stat(path).locator
            assert deployment.sim.now() >= alice.backend.estimate_readable_at(locator)
        gets = sum(cloud.costs.usage.get_requests for cloud in deployment.clouds)
        started = deployment.sim.now()
        assert bob.read_file("/shared/b") == b"B2" * 100
        # No wait and no poll: one metadata lookup and one block fetch.
        assert deployment.sim.now() - started < READ_RETRY_INTERVAL
        assert sum(cloud.costs.usage.get_requests for cloud in deployment.clouds) == gets + 2

    def test_write_set_is_uploaded_as_one_batch(self, coc_shared):
        _, alice, bob = coc_shared
        client = alice.backend.client
        batches = []
        write_numbered = client.write_numbered
        client.write_numbered = lambda items: batches.append(len(items)) or write_numbered(items)
        _write_set(alice, {"/shared/a": b"A3", "/shared/b": b"B3"})
        assert batches == [2]
        assert bob.read_file("/shared/a") == b"A3" and bob.read_file("/shared/b") == b"B3"


class TestCommitRefusals:
    """Each refusal of a commit: the typed error, no entry changed, no lock held.

    The snapshot refuses a written file another agent holds open; the commit
    point refuses one write-opened, a read-only entry rewritten (``Check``)
    or a written entry rewritten (the ``Update`` CAS) during the upload.
    """

    PATHS = ("/shared/a", "/shared/b")

    @pytest.fixture(params=["SCFS-CoC-B", "SCFS-AWS-B"])
    def blocking(self, request):
        """The pair with blocking closes: another agent's write is anchored when it returns."""
        return _shared_pair(request.param)

    @staticmethod
    def _entries(deployment, agent):
        return deployment.coordination.list_entries("meta:/shared/", agent.session)

    @staticmethod
    def _during_the_upload(deployment, agent, interfere):
        """Run ``interfere`` as a task that comes due while ``agent``'s commit uploads."""
        uploads = []
        upload = agent.storage.push_many_to_cloud

        def scheduled(items):
            uploads.append(items)
            deployment.sim.schedule(1e-6, interfere)
            return upload(items)

        agent.storage.push_many_to_cloud = scheduled
        return uploads

    def _refused(self, deployment, alice, txn, match, expected) -> int:
        """Commit ``txn``, refused; ``expected`` holds the one listing the attempt leaves.

        Returns the commands sent while the attempt ran.
        """
        commands = deployment.coordination.commands_executed
        with pytest.raises(TransactionConflictError, match=match):
            txn.commit()
        commands = deployment.coordination.commands_executed - commands
        assert txn.status == ABORTED
        assert [self._entries(deployment, alice)] == expected
        assert alice.locks.held == {}
        assert all(lock_holder(deployment.coordination, alice.locks.lock_name(
            alice.metadata.get(path, use_cache=False))) != alice.session.session_id
            for path in self.PATHS)
        return commands

    @staticmethod
    def _rewrite_both(alice):
        txn = alice.transactions.begin()
        for path in TestCommitRefusals.PATHS:
            txn.write(path, txn.read(path) + b"+txn")
        return txn

    def test_a_written_file_held_open_refuses_the_snapshot_before_any_upload(self, shared):
        deployment, alice, bob = shared
        handle = bob.open("/shared/b", "r+")
        uploads = self._during_the_upload(deployment, alice, lambda: None)
        txn = self._rewrite_both(alice)
        assert self._refused(deployment, alice, txn, "held by another client",
                             [self._entries(deployment, alice)]) == 1
        assert uploads == []
        bob.close(handle)

    def test_a_write_open_during_the_upload_refuses_the_commit_point(self, shared):
        deployment, alice, bob = shared
        handles = []
        uploads = self._during_the_upload(
            deployment, alice, lambda: handles.append(bob.open("/shared/b", "r+")))
        txn = self._rewrite_both(alice)
        self._refused(deployment, alice, txn, "held by another client",
                      [self._entries(deployment, alice)])
        assert len(uploads) == 1 and len(handles) == 1
        bob.close(handles[0])
        expire_metadata(alice)
        assert [alice.read_file(path) for path in self.PATHS] == [
            b"v1:" + path.encode() for path in self.PATHS]

    def test_a_read_only_entry_rewritten_during_the_upload_refuses_the_commit_point(
            self, blocking):
        deployment, alice, bob = blocking
        rewritten = []
        self._during_the_upload(deployment, alice, lambda: (
            bob.write_file("/shared/a", b"bob", shared=True),
            rewritten.append(self._entries(deployment, alice))))
        txn = alice.transactions.begin()
        txn.write("/shared/b", txn.read("/shared/a") + txn.read("/shared/b"))
        self._refused(deployment, alice, txn, "commit point refused", rewritten)
        assert alice.read_file("/shared/b") == b"v1:/shared/b"

    def test_a_written_entry_rewritten_during_the_upload_refuses_the_commit_point(
            self, blocking):
        deployment, alice, bob = blocking
        rewritten = []
        self._during_the_upload(deployment, alice, lambda: (
            bob.write_file("/shared/b", b"bob", shared=True),
            rewritten.append(self._entries(deployment, alice))))
        txn = self._rewrite_both(alice)
        self._refused(deployment, alice, txn, "commit point refused", rewritten)
        assert [alice.read_file(path) for path in self.PATHS] == [b"v1:/shared/a", b"bob"]


class TestFailedUpload:
    """An upload that misses its quorum, or finds its one cloud down, ends the
    transaction like any failed commit."""

    #: What the upload raises with the first two clouds out, and a mark of
    #: the abort's reason: no quorum of the four clouds, or no cloud at all.
    FAILURE = {BackendKind.COC: (QuorumNotReachedError, "clouds acknowledged"),
               BackendKind.AWS: (CloudUnavailableError, "is unavailable")}

    @pytest.mark.parametrize("how", ["commit", "run"])
    def test_the_typed_error_is_raised_and_no_lock_is_held(self, shared, how):
        deployment, alice, bob = shared
        error, reason = self.FAILURE[deployment.config.backend]
        events = []
        alice.events = lambda kind, **fields: events.append((kind, fields))
        before = {path: alice.read_file(path) for path in ("/shared/a", "/shared/b")}
        for cloud in deployment.clouds[:2]:
            cloud.failures.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        transactions = []

        def body(txn) -> None:
            transactions.append(txn)
            for path in before:
                txn.write(path, txn.read(path) + b"+txn")

        with pytest.raises(error):
            if how == "run":
                alice.run_transaction(body)
            else:
                body(alice.transactions.begin())
                transactions[0].commit()
        [txn] = transactions  # not a conflict: ``run`` does not retry it
        assert txn.status == ABORTED
        [abort] = [fields for kind, fields in events if kind == "txn_abort"]
        assert abort["txn"] == txn.txn_id and reason in abort["reason"]
        assert alice.locks.held == {}
        for cloud in deployment.clouds[:2]:
            cloud.failures.clear()
        expire_metadata(alice)
        assert {path: bob.read_file(path) for path in before} == before
        _write_set(alice, {"/shared/a": b"after the outage"})
        assert bob.read_file("/shared/a") == b"after the outage"


class TestCommitterCache:
    def test_the_committer_rereads_what_it_wrote_without_a_cloud_get(self, coc_shared, cloud_meter):
        deployment, alice, bob = coc_shared
        _write_set(alice, {"/shared/a": b"A4" * 2000, "/shared/b": b"B4" * 2000})
        meter = cloud_meter(deployment.clouds)
        txn = alice.transactions.begin()
        assert txn.read("/shared/a") == b"A4" * 2000
        assert txn.read("/shared/b") == b"B4" * 2000
        txn.commit()
        assert alice.read_file("/shared/b") == b"B4" * 2000
        assert meter.requests("get") == [] and meter.quorum_calls() == 0
        # Another agent holds nothing of them: its read is the one block fetch.
        assert bob.read_file("/shared/a") == b"A4" * 2000
        assert len(meter.requests("get")) == 2 and meter.quorum_calls() == 1


    def test_the_committers_disk_copy_runs_beside_its_upload(self, coc_shared):
        # A commit returns once its versions are readable and its cache writes
        # are done, both timed from the upload's dispatch.
        deployment, alice, _bob = coc_shared
        sim, data = deployment.sim, {"/shared/a": b"A" * 4096, "/shared/b": b"B" * 4096}
        alice.disk_cache.latency = LatencyModel(base=30.0)  # a disk slower than propagation
        dispatched = []
        alice.backend.client.on_quorum = (
            lambda op, _unit, _stats: dispatched.append(sim.now()) if op == "block_put" else None)
        _write_set(alice, data)
        assert sim.now() == pytest.approx(
            dispatched[0] + 2 * (30.0 + MEMORY_LATENCY.sample(4096)), abs=1e-9)


class TestRetrySnapshot:
    def test_a_retry_serves_its_reads_from_one_snapshot_and_still_validates(self, shared):
        """The snapshot may be stale by the time the body reads it: validation
        against the commit's snapshot catches that, and the third attempt sees the newest."""
        _, alice, bob = shared
        seen = []

        def body(txn):
            data = txn.read("/shared/a")
            seen.append(data)
            if len(seen) <= 2:  # interfere after the read of attempts 1 and 2
                bob.write_file("/shared/a", b"bob %d" % len(seen), shared=True)
                bob.sim.drain(1.0)
            txn.write("/shared/b", data + b"!")

        alice.run_transaction(body)
        assert seen == [b"v1:/shared/a", b"bob 1", b"bob 2"]
        assert alice.read_file("/shared/b") == b"bob 2!"

    def test_a_file_that_vanished_between_attempts_is_not_served_from_the_snapshot(self, shared):
        _, alice, bob = shared
        attempts = []

        def body(txn):
            attempts.append(txn.txn_id)
            if len(attempts) == 2:
                with pytest.raises(FileNotFoundErrorFS):
                    txn.read("/shared/a")
                return
            txn.read("/shared/a")
            alice.unlink("/shared/a")
            txn.write("/shared/b", b"never")

        alice.run_transaction(body)
        assert len(attempts) == 2 and alice.read_file("/shared/b").startswith(b"v1:")


class TestFinishedAttempts:
    def test_finished_attempts_leave_the_entry_count_as_they_found_it(self):
        """16 transactions commit and 4 are refused by the snapshot's guard,
        while bob holds a file open for writing: no attempt leaves an entry behind."""
        deployment, alice, bob = _shared_pair("SCFS-CoC-B")
        before = deployment.coordination.state.entry_count()
        outcomes = []
        for attempt in range(20):
            handle = bob.open("/shared/b", "r+") if attempt % 5 == 4 else None
            txn = alice.transactions.begin()
            for path in ("/shared/a", "/shared/b"):
                txn.write(path, txn.read(path) + b"+")
            try:
                txn.commit()
            except TransactionConflictError:
                pass
            outcomes.append(txn.status)
            if handle is not None:
                bob.close(handle)
        assert outcomes.count(COMMITTED) == 16 and outcomes.count(ABORTED) == 4
        assert deployment.coordination.state.entry_count() == before


class TestRenameTree:
    def test_rename_tree_moves_a_nested_tree(self, shared):
        _, alice, _ = shared
        alice.mkdir("/shared/dir", shared=True)
        alice.mkdir("/shared/dir/sub", shared=True)
        alice.write_file("/shared/dir/f1", b"one", shared=True)
        alice.write_file("/shared/dir/sub/f2", b"two", shared=True)
        alice.sim.drain(1.0)
        alice.rename_tree("/shared/dir", "/shared/moved")
        assert not alice.exists("/shared/dir")
        assert alice.read_file("/shared/moved/f1") == b"one"
        assert alice.read_file("/shared/moved/sub/f2") == b"two"

    def test_rename_tree_on_a_plain_file(self, shared):
        _, alice, _ = shared
        events = []
        alice.events = lambda kind, **fields: events.append((kind, fields))
        alice.rename_tree("/shared/a", "/shared/renamed")
        [commit] = [fields for kind, fields in events if kind == "txn_commit"]
        assert commit["renamed_to"] == "/shared/renamed" and alice.locks.held == {}
        assert not alice.exists("/shared/a")
        assert alice.read_file("/shared/renamed").startswith(b"v1:")

    def test_rename_tree_conflicts_on_locked_file(self, shared):
        _, alice, bob = shared
        alice.mkdir("/shared/dir", shared=True)
        alice.write_file("/shared/dir/f1", b"one", shared=True)
        alice.setfacl("/shared/dir/f1", "bob", Permission.READ_WRITE)
        alice.sim.drain(1.0)
        meta = bob.metadata.get("/shared/dir/f1", use_cache=False)
        bob.locks.acquire(meta)
        with pytest.raises(TransactionConflictError):
            alice.rename_tree("/shared/dir", "/shared/moved")
        assert alice.exists("/shared/dir/f1")
        bob.locks.release(meta)

    def test_a_failed_rename_tree_is_aborted_and_holds_no_lock(self, shared):
        _, alice, _ = shared
        alice.mkdir("/shared/dir", shared=True)
        alice.write_file("/shared/dir/f1", b"one", shared=True)
        alice.mkdir("/shared/taken", shared=True)
        alice.sim.drain(1.0)
        events = []
        alice.events = lambda kind, **fields: events.append((kind, fields))
        with pytest.raises(FileExistsErrorFS):
            alice.rename_tree("/shared/dir", "/shared/taken")
        [abort] = [fields for kind, fields in events if kind == "txn_abort"]
        assert "rename failed" in abort["reason"]
        assert alice.locks.held == {}
        assert alice.read_file("/shared/dir/f1") == b"one"

    def test_a_rename_tree_whose_descendant_target_is_taken_moves_nothing(self, shared):
        """A descendant's target holds a live entry: the one command is
        refused (EEXIST), the attempt is aborted, and nothing has moved."""
        _, alice, _ = shared
        alice.mkdir("/shared/dir", shared=True)
        alice.write_file("/shared/dir/f1", b"one", shared=True)
        alice.sim.drain(1.0)
        agent = alice
        stray = agent.metadata.get("/shared/dir/f1", use_cache=False).renamed("/shared/moved/f1")
        agent.coordination.put(agent.metadata.entry_key(stray.path), stray.to_bytes(),
                               agent.session)
        events = []
        agent.events = lambda kind, **fields: events.append((kind, fields))
        with pytest.raises(FileExistsErrorFS):
            alice.rename_tree("/shared/dir", "/shared/moved")
        [abort] = [fields for kind, fields in events if kind == "txn_abort"]
        assert "rename failed" in abort["reason"]
        assert not alice.exists("/shared/moved") and alice.read_file("/shared/dir/f1") == b"one"
        assert agent.locks.held == {}

    def test_rename_tree_falls_back_without_coordination(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NS", seed=11)
        fs = deployment.create_agent("alice")
        assert fs.transactions is None
        fs.write_file("/f", b"data")
        fs.rename_tree("/f", "/g")
        assert fs.read_file("/g") == b"data"
        with pytest.raises(FileSystemError):
            fs.run_transaction(lambda txn: None)


class TestLeaseExpiry:
    def test_still_held_while_lease_valid(self):
        deployment, alice, _ = _shared_pair(lock_lease=10.0)
        meta = alice.metadata.get("/shared/a", use_cache=False)
        alice.locks.acquire(meta)
        assert alice.locks.still_held(meta)
        alice.locks.release(meta)

    def test_still_held_false_after_lease_expiry(self):
        deployment, alice, _ = _shared_pair(lock_lease=10.0)
        meta = alice.metadata.get("/shared/a", use_cache=False)
        alice.locks.acquire(meta)
        deployment.sim.advance(11.0)
        # Local bookkeeping still says held; the service disagrees.
        assert alice.locks.lock_name(meta) in alice.locks.held
        assert not alice.locks.still_held(meta)

    def test_still_held_asks_no_replica(self):
        """The lapse is counted by the taker: with every coordination replica
        crashed the check still answers, True until the lease lapses."""
        deployment, alice, _ = _shared_pair(lock_lease=10.0)
        meta = alice.metadata.get("/shared/a", use_cache=False)
        lapse = deployment.sim.now() + 10.0
        alice.locks.acquire(meta)
        service = deployment.coordination
        for index in range(len(service.replicas.universe)):
            service.fail_replica(index)
        assert alice.locks.still_held(meta)
        deployment.sim.advance_to(lapse - 1e-6)
        assert alice.locks.still_held(meta)
        deployment.sim.advance_to(lapse)
        assert not alice.locks.still_held(meta)

    def test_other_agent_takes_over_after_expiry(self):
        deployment, alice, bob = _shared_pair(lock_lease=10.0)
        meta = alice.metadata.get("/shared/a", use_cache=False)
        alice.locks.acquire(meta)
        bob_meta = bob.metadata.get("/shared/a", use_cache=False)
        with pytest.raises(LockHeldError):
            bob.locks.acquire(bob_meta)
        deployment.sim.advance(11.0)
        bob.locks.acquire(bob_meta)
        assert bob.locks.still_held(bob_meta)
        assert not alice.locks.still_held(meta)

    def test_crashed_holders_lock_expires_not_leaks(self):
        """A crash never releases locks; the lease does.  The survivor is
        blocked exactly until the lease runs out, then writes normally."""
        deployment, alice, bob = _shared_pair(lock_lease=10.0)
        handle = alice.open("/shared/a", "w", shared=True)
        alice.write(handle, b"dying words")
        alice.close(handle)  # NB mode: lock held until the background commit
        alice.crash()
        with pytest.raises(LockHeldError):
            bob.write_file("/shared/a", b"too early", shared=True)
        deployment.sim.advance(11.0)
        bob.write_file("/shared/a", b"after the lease", shared=True)
        deployment.drain(1.0)
        assert bob.read_file("/shared/a") == b"after the lease"

    def test_still_held_true_without_lock_service(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NS", seed=11)
        fs = deployment.create_agent("alice")
        fs.write_file("/f", b"data")
        meta = fs.metadata.get("/f", use_cache=False)
        assert fs.locks.still_held(meta)
