"""The six Filebench micro-benchmarks of Table 3.

Paper parameters (§4.2, Table 3):

=====================  ==========  =========
micro-benchmark        operations  file size
=====================  ==========  =========
sequential read        1           4 MB
sequential write       1           4 MB
random 4 KB-read       256 k       4 MB
random 4 KB-write      256 k       4 MB
create files           200         16 KB
copy files             100         16 KB
=====================  ==========  =========

The IO-intensive benchmarks (the first four) measure only the read/write calls
— the file is opened before the measured phase and closed after it, exactly as
Filebench's personality files do.  The metadata-intensive benchmarks (create
and copy) measure the whole create/open/write/close sequences and additionally
issue the ``stat`` calls a real VFS generates around each operation (path
lookup before the call and ``getattr`` after it), which is what makes the
metadata cache of Figure 10(a) matter.

Running 256 k individual 4 KB operations through a Python agent for nine file
systems would dominate wall-clock time without changing the simulated result
(per-operation latencies are independent), so the random benchmarks execute a
configurable sample of operations and scale the simulated total linearly; the
default sample is 2 048 operations.  Set ``sample_ops=None`` to run every
operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.units import KB, MB
from repro.bench.report import Table
from repro.bench.targets import ALL_TARGET_NAMES, BenchTarget, build_target


@dataclass(frozen=True)
class MicroBenchmarkParams:
    """Knobs of the Table 3 workloads (paper defaults)."""

    io_file_size: int = 4 * MB
    #: Request size of the sequential read/write benchmarks.  Larger chunks
    #: (up to whole multi-MB files) exercise the erasure coder's chunked
    #: encode path, which bounds temporary memory regardless of payload size.
    io_chunk: int = 128 * KB
    random_ops: int = 256 * 1024
    random_chunk: int = 4 * KB
    #: Number of random operations actually executed (None = all of them);
    #: the simulated time is scaled to ``random_ops``.
    sample_ops: int | None = 2048
    create_count: int = 200
    copy_count: int = 100
    small_file_size: int = 16 * KB
    #: Issue the VFS-style stat calls around metadata operations.
    emulate_vfs_lookups: bool = True
    #: Working directory used by the metadata-intensive benchmarks.
    directory: str = "/bench"


def _payload(size: int, seed: int) -> bytes:
    """Deterministic, non-compressible-looking payload of ``size`` bytes."""
    pattern = bytes((i * 131 + seed * 17) % 256 for i in range(min(size, 4096)))
    repeats = size // len(pattern) + 1 if pattern else 0
    return (pattern * repeats)[:size]


def _stat_if_supported(target: BenchTarget, path: str) -> None:
    stat = getattr(target.fs, "stat", None)
    if stat is not None:
        stat(path)
    else:
        target.fs.exists(path)


def _ensure_directory(target: BenchTarget, params: MicroBenchmarkParams,
                      name: str | None = None, shared: bool = True) -> str:
    """Create (if needed) and return the benchmark directory to work in.

    SCFS targets create it as a *shared* directory by default so that the
    VFS-style ``stat`` of the parent exercises the coordination service, as a
    directory reachable by several users would.  The PNS sweep additionally
    uses private sub-directories (``shared=False``).
    """
    directory = params.directory if name is None else f"{params.directory}/{name}"
    if name is not None and not target.fs.exists(params.directory):
        target.fs.mkdir(params.directory, shared=True)
    if not target.fs.exists(directory):
        target.fs.mkdir(directory, shared=shared)
    return directory


# ---------------------------------------------------------------------------
# IO-intensive micro-benchmarks
# ---------------------------------------------------------------------------


def sequential_write(target: BenchTarget, params: MicroBenchmarkParams) -> float:
    """Write a 4 MB file sequentially; returns simulated seconds of the writes."""
    _ensure_directory(target, params)
    path = f"{params.directory}/seq-write.dat"
    handle = target.fs.open(path, "w")
    data = _payload(params.io_file_size, seed=1)
    start = target.sim.now()
    chunk = params.io_chunk
    for offset in range(0, len(data), chunk):
        target.fs.write(handle, data[offset:offset + chunk], offset)
    elapsed = target.sim.now() - start
    target.fs.close(handle)
    target.drain()
    return elapsed


def sequential_read(target: BenchTarget, params: MicroBenchmarkParams) -> float:
    """Read a 4 MB file sequentially; returns simulated seconds of the reads."""
    _ensure_directory(target, params)
    path = f"{params.directory}/seq-read.dat"
    target.fs.write_file(path, _payload(params.io_file_size, seed=2))
    target.drain()
    handle = target.fs.open(path, "r")
    start = target.sim.now()
    chunk = params.io_chunk
    for offset in range(0, params.io_file_size, chunk):
        target.fs.read(handle, chunk, offset)
    elapsed = target.sim.now() - start
    target.fs.close(handle)
    return elapsed


def _random_offsets(target: BenchTarget, params: MicroBenchmarkParams, count: int) -> list[int]:
    max_offset = max(1, params.io_file_size - params.random_chunk)
    return [target.sim.rng.randrange(0, max_offset) for _ in range(count)]


def random_read(target: BenchTarget, params: MicroBenchmarkParams) -> float:
    """256 k random 4 KB reads of a 4 MB file (scaled from a sample)."""
    _ensure_directory(target, params)
    path = f"{params.directory}/rand-read.dat"
    target.fs.write_file(path, _payload(params.io_file_size, seed=3))
    target.drain()
    executed = params.sample_ops or params.random_ops
    executed = min(executed, params.random_ops)
    offsets = _random_offsets(target, params, executed)
    handle = target.fs.open(path, "r")
    start = target.sim.now()
    for offset in offsets:
        target.fs.read(handle, params.random_chunk, offset)
    elapsed = target.sim.now() - start
    target.fs.close(handle)
    return elapsed * (params.random_ops / executed)


def random_write(target: BenchTarget, params: MicroBenchmarkParams) -> float:
    """256 k random 4 KB writes of a 4 MB file (scaled from a sample)."""
    _ensure_directory(target, params)
    path = f"{params.directory}/rand-write.dat"
    target.fs.write_file(path, _payload(params.io_file_size, seed=4))
    target.drain()
    executed = params.sample_ops or params.random_ops
    executed = min(executed, params.random_ops)
    offsets = _random_offsets(target, params, executed)
    payload = _payload(params.random_chunk, seed=5)
    handle = target.fs.open(path, "r+")
    start = target.sim.now()
    for offset in offsets:
        target.fs.write(handle, payload, offset)
    elapsed = target.sim.now() - start
    target.fs.close(handle)
    target.drain()
    return elapsed * (params.random_ops / executed)


# ---------------------------------------------------------------------------
# Metadata-intensive micro-benchmarks
# ---------------------------------------------------------------------------


def _placement(target: BenchTarget, params: MicroBenchmarkParams,
               shared_fraction: float, count: int) -> list[tuple[str, bool]]:
    """Decide, per file, its parent directory and whether it is shared.

    With full sharing (the Table 3 default, the paper's worst case) every file
    lives in one shared benchmark directory.  When a fraction of the files is
    private — the Figure 10(b) sweep — private files go to a *private*
    sub-directory of the user (their metadata stays in the PNS) and shared
    files to a *shared* one, mirroring how home directories versus shared
    project directories are organised in practice.
    """
    shared_count = round(count * shared_fraction)
    if shared_fraction >= 1.0:
        directory = _ensure_directory(target, params)
        return [(directory, True)] * count
    shared_dir = _ensure_directory(target, params, "shared", shared=True)
    private_dir = _ensure_directory(target, params, "private", shared=False)
    placement = []
    for index in range(count):
        shared = index < shared_count
        placement.append((shared_dir if shared else private_dir, shared))
    return placement


def create_files(target: BenchTarget, params: MicroBenchmarkParams,
                 shared_fraction: float = 1.0) -> float:
    """Create ``create_count`` small files; returns the simulated seconds.

    ``shared_fraction`` controls how many of the created files are *shared*
    (forced into the coordination service); it only matters for SCFS targets
    with private name spaces enabled and is the knob behind Figure 10(b).
    """
    placement = _placement(target, params, shared_fraction, params.create_count)
    data = _payload(params.small_file_size, seed=6)
    start = target.sim.now()
    for index, (directory, shared) in enumerate(placement):
        path = f"{directory}/create-{index:05d}.dat"
        if params.emulate_vfs_lookups:
            _stat_if_supported(target, directory)
            target.fs.exists(path)
        handle = target.fs.open(path, "w", shared=shared)
        target.fs.write(handle, data)
        target.fs.close(handle)
        if params.emulate_vfs_lookups:
            _stat_if_supported(target, path)
    elapsed = target.sim.now() - start
    target.drain()
    return elapsed


def copy_files(target: BenchTarget, params: MicroBenchmarkParams,
               shared_fraction: float = 1.0) -> float:
    """Copy ``copy_count`` small files; returns the simulated seconds."""
    placement = _placement(target, params, shared_fraction, params.copy_count)
    data = _payload(params.small_file_size, seed=7)
    sources = []
    for index, (directory, shared) in enumerate(placement):
        path = f"{directory}/copy-src-{index:05d}.dat"
        target.fs.write_file(path, data, shared=shared)
        sources.append((path, directory, shared))
    target.drain()
    start = target.sim.now()
    for index, (source, directory, shared) in enumerate(sources):
        destination = f"{directory}/copy-dst-{index:05d}.dat"
        if params.emulate_vfs_lookups:
            _stat_if_supported(target, source)
        content = target.fs.read_file(source)
        if params.emulate_vfs_lookups:
            target.fs.exists(destination)
        handle = target.fs.open(destination, "w", shared=shared)
        target.fs.write(handle, content)
        target.fs.close(handle)
        if params.emulate_vfs_lookups:
            _stat_if_supported(target, destination)
    elapsed = target.sim.now() - start
    target.drain()
    return elapsed


#: Benchmark name -> workload function, in the row order of Table 3.
MICRO_BENCHMARKS: dict[str, Callable[[BenchTarget, MicroBenchmarkParams], float]] = {
    "sequential read": sequential_read,
    "sequential write": sequential_write,
    "random 4KB-read": random_read,
    "random 4KB-write": random_write,
    "create files": create_files,
    "copy files": copy_files,
}


def run_microbenchmark(benchmark: str, target_name: str, seed: int = 0,
                       params: MicroBenchmarkParams | None = None,
                       **target_overrides) -> float:
    """Run one Table 3 cell: ``benchmark`` on ``target_name``; returns seconds."""
    params = params or MicroBenchmarkParams()
    workload = MICRO_BENCHMARKS[benchmark]
    target = build_target(target_name, seed=seed, **target_overrides)
    return workload(target, params)


#: Table 3's sizing: 1024 random 4 KB operations executed, scaled to 256 k.
TABLE3_PARAMS = MicroBenchmarkParams(sample_ops=1024)


def table3() -> tuple[dict[str, dict[str, float]], Table]:
    """Table 3, seed 0: ``{benchmark: {target: seconds}}`` and its table."""
    results = {benchmark: {target_name: run_microbenchmark(benchmark, target_name, seed=0,
                                                           params=TABLE3_PARAMS)
                           for target_name in ALL_TARGET_NAMES}
               for benchmark in MICRO_BENCHMARKS}
    rows = [[benchmark, *(results[benchmark][target_name] for target_name in ALL_TARGET_NAMES)]
            for benchmark in MICRO_BENCHMARKS]
    return results, Table("Table 3 - Filebench micro-benchmarks (simulated seconds)",
                          ["micro-benchmark", *ALL_TARGET_NAMES], rows)
