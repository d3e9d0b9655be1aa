"""Unit tests for the multi-file transaction layer (``repro.transactions``)."""

from __future__ import annotations

import pytest

from repro.common.errors import (
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
from repro.core.deployment import SCFSDeployment
from repro.simenv.failures import FaultKind
from repro.transactions import ABORTED, COMMITTED


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


@pytest.fixture
def shared():
    return _shared_pair()


class TestCommit:
    def test_write_files_is_atomic_and_visible(self, shared):
        deployment, alice, bob = shared
        alice.write_files({"/shared/a": b"A2", "/shared/b": b"B2"})
        assert alice.read_file("/shared/a") == b"A2"
        assert bob.read_file("/shared/a") == b"A2"
        assert bob.read_file("/shared/b") == b"B2"

    def test_context_manager_commits_on_success(self, shared):
        _, alice, bob = shared
        with alice.transaction() as txn:
            before = txn.read("/shared/a")
            txn.write("/shared/a", before + b"+more")
        assert txn.status == COMMITTED
        assert bob.read_file("/shared/a") == before + b"+more"

    def test_reads_your_own_staged_writes(self, shared):
        _, alice, _ = shared
        txn = alice.begin_transaction()
        txn.write("/shared/a", b"staged")
        assert txn.read("/shared/a") == b"staged"
        # Nothing visible outside the transaction before commit.
        assert alice.read_file("/shared/a") != b"staged"
        txn.commit()
        assert alice.read_file("/shared/a") == b"staged"

    def test_empty_transaction_commits(self, shared):
        _, alice, _ = shared
        txn = alice.begin_transaction()
        txn.commit()
        assert txn.status == COMMITTED

    def test_read_only_transaction_commits(self, shared):
        _, alice, _ = shared
        txn = alice.begin_transaction()
        assert txn.read("/shared/a").startswith(b"v1:")
        txn.commit()
        assert txn.status == COMMITTED

    def test_write_to_missing_file_fails(self, shared):
        _, alice, _ = shared
        txn = alice.begin_transaction()
        txn.write("/shared/missing", b"data")
        with pytest.raises(FileNotFoundErrorFS):
            txn.commit()

    def test_read_of_directory_fails(self, shared):
        _, alice, _ = shared
        txn = alice.begin_transaction()
        with pytest.raises(IsADirectoryErrorFS):
            txn.read("/shared")

    def test_finished_transaction_refuses_operations(self, shared):
        _, alice, _ = shared
        txn = alice.begin_transaction()
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
        with alice.transaction() as txn:
            assert txn.read("/shared/a") == b"pre-txn"
            txn.write("/shared/a", b"post-txn")
        assert bob.read_file("/shared/a") == b"post-txn"


class TestConflicts:
    def test_stale_read_aborts_commit(self, shared):
        _, alice, bob = shared
        txn = alice.begin_transaction()
        txn.read("/shared/a")
        bob.write_file("/shared/a", b"bob won", shared=True)
        bob.agent.sim.drain(1.0)
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
                bob.agent.sim.drain(1.0)
            txn.write("/shared/a", data + b"!")

        alice.run_transaction(body)
        assert len(attempts) == 2
        assert alice.read_file("/shared/a") == b"interference!"

    def test_run_gives_up_after_max_attempts(self, shared):
        deployment, alice, bob = shared

        def body(txn):
            txn.read("/shared/a")
            bob.write_file("/shared/a", b"always racing", shared=True)
            bob.agent.sim.drain(1.0)
            txn.write("/shared/a", b"never lands")

        with pytest.raises(TransactionAbortedError):
            alice.run_transaction(body)
        assert alice.read_file("/shared/a") == b"always racing"

    def test_held_lock_is_a_conflict(self, shared):
        _, alice, bob = shared
        meta = bob.agent.metadata.get("/shared/a", use_cache=False)
        bob.agent.locks.acquire(meta)
        txn = alice.begin_transaction()
        txn.read("/shared/a")
        txn.write("/shared/a", b"blocked")
        with pytest.raises(TransactionConflictError):
            txn.commit()
        bob.agent.locks.release(meta)

    def test_abort_leaves_no_visible_state(self, shared):
        _, alice, bob = shared
        before_a = alice.read_file("/shared/a")
        before_b = alice.read_file("/shared/b")
        txn = alice.begin_transaction()
        txn.write("/shared/a", b"partial")
        txn.write("/shared/b", b"partial")
        txn.abort()
        assert txn.status == ABORTED
        assert alice.read_file("/shared/a") == before_a
        assert bob.read_file("/shared/b") == before_b

    def test_body_exception_aborts(self, shared):
        _, alice, _ = shared
        before = alice.read_file("/shared/a")
        with pytest.raises(RuntimeError):
            with alice.transaction() as txn:
                txn.write("/shared/a", b"doomed")
                raise RuntimeError("application bug")
        assert txn.status == ABORTED
        assert alice.read_file("/shared/a") == before


class TestCommitPoint:
    def test_lost_version_cas_anchors_no_file_of_the_set(self, shared):
        """A usurper bumps the 2nd file's entry after validation (what a stolen
        lease allows): the commit point refuses as a whole — the 1st file is
        not anchored either, and the intent says aborted."""
        _, alice, bob = shared
        storage = alice.agent.storage
        upload = storage.push_many_to_cloud

        def upload_then_lose_the_race(items):
            refs = upload(items)
            meta = bob.agent.metadata.get("/shared/b", use_cache=False)
            bob.agent.metadata.update(meta)  # entry version moves under the lock
            return refs

        storage.push_many_to_cloud = upload_then_lose_the_race
        before = {path: alice.read_file(path) for path in ("/shared/a", "/shared/b")}
        txn = alice.begin_transaction()
        for path in before:
            txn.write(path, txn.read(path) + b"+txn")
        with pytest.raises(TransactionConflictError, match="version CAS failed"):
            txn.commit()
        assert txn.status == ABORTED
        assert alice.agent.transactions.intent_record(txn.txn_id)["status"] == "aborted"
        alice.agent.metadata_cache.clear()
        assert {path: alice.read_file(path) for path in before} == before
        assert bob.read_file("/shared/a") == before["/shared/a"]

    def test_commit_returns_once_the_write_set_is_readable(self, shared):
        deployment, alice, bob = shared
        alice.write_files({"/shared/a": b"A2" * 100, "/shared/b": b"B2" * 100})
        for path in ("/shared/a", "/shared/b"):
            locator = bob.stat(path).locator
            assert deployment.sim.now() >= alice.agent.backend.estimate_readable_at(locator)
        gets = sum(cloud.costs.usage.get_requests for cloud in deployment.clouds)
        started = deployment.sim.now()
        assert bob.read_file("/shared/b") == b"B2" * 100
        # No wait and no poll: one metadata lookup and one block fetch.
        assert deployment.sim.now() - started < bob.agent.storage.read_retry_interval
        assert sum(cloud.costs.usage.get_requests for cloud in deployment.clouds) == gets + 2

    def test_write_set_is_uploaded_as_one_batch(self, shared):
        _, alice, bob = shared
        client = alice.agent.backend.client
        batches = []
        write_numbered = client.write_numbered
        client.write_numbered = lambda items: batches.append(len(items)) or write_numbered(items)
        alice.write_files({"/shared/a": b"A3", "/shared/b": b"B3"})
        assert batches == [2]
        assert bob.read_file("/shared/a") == b"A3" and bob.read_file("/shared/b") == b"B3"


class TestFailedUpload:
    """An upload that misses its quorum ends the transaction like any failed commit."""

    @pytest.mark.parametrize("how", ["commit", "context", "run"])
    def test_the_intent_is_aborted_and_the_typed_error_raised(self, shared, how):
        deployment, alice, bob = shared
        events = []
        alice.agent.events = lambda kind, **fields: events.append((kind, fields))
        before = {path: alice.read_file(path) for path in ("/shared/a", "/shared/b")}
        for cloud in deployment.clouds[:2]:
            cloud.failures.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        transactions = []

        def body(txn) -> None:
            transactions.append(txn)
            for path in before:
                txn.write(path, txn.read(path) + b"+txn")

        with pytest.raises(QuorumNotReachedError):
            if how == "run":
                alice.run_transaction(body)
            elif how == "context":
                with alice.transaction() as txn:
                    body(txn)
            else:
                body(alice.begin_transaction())
                transactions[0].commit()
        [txn] = transactions  # not a conflict: ``run`` does not retry it
        assert txn.status == ABORTED
        assert alice.agent.transactions.intent_record(txn.txn_id)["status"] == "aborted"
        [abort] = [fields for kind, fields in events if kind == "txn_abort"]
        assert abort["txn"] == txn.txn_id and "clouds acknowledged" in abort["reason"]
        assert alice.agent.locks._manager.held == {}
        for cloud in deployment.clouds[:2]:
            cloud.failures.clear()
        alice.agent.metadata_cache.clear()
        assert {path: bob.read_file(path) for path in before} == before
        alice.write_files({"/shared/a": b"after the outage"})
        assert bob.read_file("/shared/a") == b"after the outage"


class TestCommitterCache:
    def test_the_committer_rereads_what_it_wrote_without_a_cloud_get(self, shared, cloud_meter):
        deployment, alice, bob = shared
        alice.write_files({"/shared/a": b"A4" * 2000, "/shared/b": b"B4" * 2000})
        meter = cloud_meter(deployment.clouds)
        txn = alice.begin_transaction()
        assert txn.read("/shared/a") == b"A4" * 2000
        assert txn.read("/shared/b") == b"B4" * 2000
        txn.commit()
        assert alice.read_file("/shared/b") == b"B4" * 2000
        assert meter.requests("get") == [] and meter.quorum_calls() == 0
        # Another agent holds nothing of them: its read is the one block fetch.
        assert bob.read_file("/shared/a") == b"A4" * 2000
        assert len(meter.requests("get")) == 2 and meter.quorum_calls() == 1


class TestRetrySnapshot:
    def test_a_retry_serves_its_reads_from_one_snapshot_and_still_validates(self, shared):
        """The snapshot may be stale by the time the body reads it: validation
        under the locks catches that, and the third attempt sees the newest."""
        _, alice, bob = shared
        seen = []

        def body(txn):
            data = txn.read("/shared/a")
            seen.append(data)
            if len(seen) <= 2:  # interfere after the read of attempts 1 and 2
                bob.write_file("/shared/a", b"bob %d" % len(seen), shared=True)
                bob.agent.sim.drain(1.0)
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


class TestIntentRecords:
    def test_committed_intent_lifecycle(self, shared):
        _, alice, _ = shared
        with alice.transaction() as txn:
            txn.write("/shared/a", b"recorded")
        record = alice.agent.transactions.intent_record(txn.txn_id)
        assert record is not None
        assert record["status"] == "committed"
        assert record["writer"] == "alice"
        assert [f[0] for f in record["files"]] == ["/shared/a"]
        old_version, new_version = record["files"][0][2], record["files"][0][3]
        assert new_version == old_version + 1

    def test_aborted_transaction_leaves_no_intent(self, shared):
        _, alice, _ = shared
        txn = alice.begin_transaction()
        txn.write("/shared/a", b"never intended")
        txn.abort()
        assert alice.agent.transactions.intent_record(txn.txn_id) is None


class TestRenameTree:
    def test_rename_tree_moves_a_nested_tree(self, shared):
        _, alice, _ = shared
        alice.mkdir("/shared/dir", shared=True)
        alice.mkdir("/shared/dir/sub", shared=True)
        alice.write_file("/shared/dir/f1", b"one", shared=True)
        alice.write_file("/shared/dir/sub/f2", b"two", shared=True)
        alice.agent.sim.drain(1.0)
        alice.rename_tree("/shared/dir", "/shared/moved")
        assert not alice.exists("/shared/dir")
        assert alice.read_file("/shared/moved/f1") == b"one"
        assert alice.read_file("/shared/moved/sub/f2") == b"two"

    def test_rename_tree_on_a_plain_file(self, shared):
        _, alice, _ = shared
        alice.rename_tree("/shared/a", "/shared/renamed")
        assert not alice.exists("/shared/a")
        assert alice.read_file("/shared/renamed").startswith(b"v1:")

    def test_rename_tree_conflicts_on_locked_file(self, shared):
        _, alice, bob = shared
        alice.mkdir("/shared/dir", shared=True)
        alice.write_file("/shared/dir/f1", b"one", shared=True)
        alice.setfacl("/shared/dir/f1", "bob", Permission.READ_WRITE)
        alice.agent.sim.drain(1.0)
        meta = bob.agent.metadata.get("/shared/dir/f1", use_cache=False)
        bob.agent.locks.acquire(meta)
        with pytest.raises(TransactionConflictError):
            alice.rename_tree("/shared/dir", "/shared/moved")
        assert alice.exists("/shared/dir/f1")
        bob.agent.locks.release(meta)

    def test_rename_tree_falls_back_without_coordination(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NS", seed=11)
        fs = deployment.create_agent("alice")
        assert fs.agent.transactions is None
        fs.write_file("/f", b"data")
        fs.rename_tree("/f", "/g")
        assert fs.read_file("/g") == b"data"
        with pytest.raises(FileSystemError):
            fs.begin_transaction()


class TestLeaseExpiry:
    def test_still_held_while_lease_valid(self):
        deployment, alice, _ = _shared_pair(lock_lease=10.0)
        meta = alice.agent.metadata.get("/shared/a", use_cache=False)
        alice.agent.locks.acquire(meta)
        assert alice.agent.locks.holds(meta)
        assert alice.agent.locks.still_held(meta)
        alice.agent.locks.release(meta)

    def test_still_held_false_after_lease_expiry(self):
        deployment, alice, _ = _shared_pair(lock_lease=10.0)
        meta = alice.agent.metadata.get("/shared/a", use_cache=False)
        alice.agent.locks.acquire(meta)
        deployment.sim.advance(11.0)
        # Local bookkeeping still says held; the service disagrees.
        assert alice.agent.locks.holds(meta)
        assert not alice.agent.locks.still_held(meta)

    def test_other_agent_takes_over_after_expiry(self):
        deployment, alice, bob = _shared_pair(lock_lease=10.0)
        meta = alice.agent.metadata.get("/shared/a", use_cache=False)
        alice.agent.locks.acquire(meta)
        bob_meta = bob.agent.metadata.get("/shared/a", use_cache=False)
        with pytest.raises(LockHeldError):
            bob.agent.locks.acquire(bob_meta)
        deployment.sim.advance(11.0)
        bob.agent.locks.acquire(bob_meta)
        assert bob.agent.locks.still_held(bob_meta)
        assert not alice.agent.locks.still_held(meta)

    def test_crashed_holders_lock_expires_not_leaks(self):
        """A crash never releases locks; the lease does.  The survivor is
        blocked exactly until the lease runs out, then writes normally."""
        deployment, alice, bob = _shared_pair(lock_lease=10.0)
        handle = alice.open("/shared/a", "w", shared=True)
        alice.write(handle, b"dying words")
        alice.close(handle)  # NB mode: lock held until the background commit
        alice.agent.crash()
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
        meta = fs.agent.metadata.get("/f", use_cache=False)
        assert fs.agent.locks.still_held(meta)
