"""Memory guards of the agent's caches and of the whole-file paths.

An agent's memory and disk caches keep one version per file, and neither a
cold read, a baseline's read, a whole-file replace nor a chunked write copies
the file more often than it must.
``tracemalloc`` counts Python (and numpy) allocations the same way on every
host, so the bounds below do not depend on the machine.
"""

import random
import tracemalloc

from repro.baselines.localfs import LocalFS
from repro.common.types import Permission
from repro.common.units import MB
from repro.core.deployment import SCFSDeployment
from repro.simenv.environment import Simulation


def _entries_of(cache, file_id: str) -> list[str]:
    return [key for key in cache._entries if key.startswith(file_id)]


def test_each_agent_caches_one_version_per_file():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=31)
    writer = deployment.create_agent("writer")
    reader = deployment.create_agent("reader")
    rng = random.Random(31)
    writer.write_file("/doc.bin", rng.randbytes(MB), shared=True)
    writer.setfacl("/doc.bin", "reader", Permission.READ)
    deployment.drain(2.0)
    assert reader.read_file("/doc.bin")
    for _ in range(11):
        data = rng.randbytes(MB)
        writer.write_file("/doc.bin", data)
        deployment.drain(2.0)
        assert reader.read_file("/doc.bin") == data
    anchored = writer.stat("/doc.bin")
    for fs in (writer, reader):
        for cache in (fs.memory_cache, fs.disk_cache):
            assert _entries_of(cache, anchored.file_id) == [anchored.file_id]
            assert cache.contains(anchored.file_id, anchored.digest)


def test_a_cold_read_copies_the_file_at_most_twice():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=32)
    fs = deployment.create_agent("alice")
    data = random.Random(32).randbytes(4 * MB)
    fs.write_file("/big.bin", data)
    deployment.drain(2.0)
    fs.memory_cache.clear()
    fs.disk_cache.clear()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        read = fs.read_file("/big.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read == data
    # What DepSky decodes and the cached version, which a whole read of the
    # read-only handle hands back.
    assert (peak - before) / len(data) <= 2.1


def test_a_localfs_read_copies_nothing():
    fs = LocalFS(Simulation(seed=34))
    data = random.Random(34).randbytes(4 * MB)
    fs.write_file("/big.bin", data)
    handle = fs.open("/big.bin", "r")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        read = fs.read(handle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fs.close(handle)
    assert read is data
    assert (peak - before) / len(data) <= 0.1


def test_a_replace_copies_nothing_in_the_handle_layer():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=35)
    fs = deployment.create_agent("alice")
    rng = random.Random(35)
    fs.write_file("/big.bin", rng.randbytes(4 * MB))
    deployment.drain(2.0)
    data = rng.randbytes(4 * MB)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        handle = fs.open("/big.bin", "r+")
        fs.truncate(handle, 0)
        fs.write(handle, data)
        _, handle_peak = tracemalloc.get_traced_memory()
        fs.close(handle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The handle references the cached version, drops it, then adopts the
    # caller's bytes, which the close caches and uploads as they are.
    assert (handle_peak - before) / len(data) <= 0.1
    anchored = fs.stat("/big.bin")
    assert fs.memory_cache.get(anchored.file_id, anchored.digest) is data
    assert (peak - before) / len(data) <= 3.6


def test_an_open_buffer_is_cached_by_reference():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=33)
    fs = deployment.create_agent("alice")
    handle = fs.open("/log.txt", "w")
    of = fs._handles[handle]
    cache = fs.memory_cache
    for index in range(64):
        fs.write(handle, bytes([index]) * 1000)
        assert cache.get(fs._memory_key(of)) is of.buffer
        assert cache._used == len(of.buffer) == 1000 * (index + 1)
    buffer = of.buffer
    fs.fsync(handle)
    assert of.buffer is buffer and cache.get(fs._memory_key(of)) is buffer
    fs.close(handle)
    assert cache._used == len(cache.get(of.metadata.file_id, of.metadata.digest))


def test_two_writable_handles_of_one_file_keep_two_entries():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3)
    fs = deployment.create_agent("alice")
    fs.write_file("/f", b"")
    a, b = fs.open("/f", "r+"), fs.open("/f", "r+")
    cache = fs.memory_cache
    fs.write(a, b"a" * 5_000)
    fs.write(b, b"b" * 7_000)
    assert cache._used == 12_000
    fs.close(b)
    # b's entry became the closed version; a's buffer is still cached.
    of = fs._handles[a]
    assert cache.get(fs._memory_key(of)) is of.buffer
    assert cache._used == 12_000
    fs.close(a)


def test_a_truncated_buffer_is_charged_its_new_size():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3)
    fs = deployment.create_agent("alice")
    handle = fs.open("/big.bin", "w")
    cache = fs.memory_cache
    fs.write(handle, b"x" * 100_000)
    assert cache._used == 100_000
    fs.truncate(handle, 0)
    assert cache._used == 0
    fs.truncate(handle, 4096)
    assert cache._used == 4096
    fs.close(handle)
