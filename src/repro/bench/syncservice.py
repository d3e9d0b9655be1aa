"""The file-synchronisation-service benchmark of Figures 7 and 8.

The benchmark simulates how OpenOffice Writer opens, saves and closes an
``.odt`` document stored on the cloud-backed file system, following the traces
of desktop-application I/O described in the paper (Figure 7):

``Open``  action: open the document read-write, read it, create a lock file,
          re-read the document, read the lock file back.
``Save``  action: re-read the document, close the original handle, read and
          delete the first lock file, create a second lock file, read it back,
          truncate the document, write the new contents, fsync them, read them
          back and re-open the document read-write.
``Close`` action: close the document and remove the second lock file.

The ``local_locks`` variant — the "(L)" bars of Figure 8 — keeps the lock
files on a local file system (``/tmp``) instead of the cloud-backed one, which
the paper shows makes the blocking variants usable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.localfs import LocalFS
from repro.bench.report import Table
from repro.bench.targets import BenchTarget, build_target
from repro.common.units import MB


#: Default document size: the 1.2 MB used in §4.3 (a 2004-average office file
#: scaled up 15 %/year to 2013).
DEFAULT_FILE_SIZE = int(1.2 * MB)


@dataclass
class SyncBenchmarkResult:
    """Average latency (simulated seconds) of each benchmark action."""

    target: str
    local_locks: bool
    open_latency: float
    save_latency: float
    close_latency: float
    runs: int = 1
    per_run: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def total(self) -> float:
        """Total latency of one open+save+close cycle."""
        return self.open_latency + self.save_latency + self.close_latency


def _payload(size: int, seed: int) -> bytes:
    pattern = bytes((i * 197 + seed * 31) % 256 for i in range(min(size, 4096)))
    repeats = size // len(pattern) + 1 if pattern else 0
    return (pattern * repeats)[:size]


class _DocumentSession:
    """Executes the Figure 7 action script once against one target."""

    def __init__(self, target: BenchTarget, lock_fs, document: str, file_size: int, seed: int):
        self.target = target
        self.fs = target.fs
        self.lock_fs = lock_fs
        self.document = document
        self.lock1 = document + ".lock1"
        self.lock2 = document + ".lock2"
        self.file_size = file_size
        self.seed = seed
        self.main_handle: int | None = None

    # -- helpers ------------------------------------------------------------

    def _write_lock(self, path: str) -> None:
        handle = self.lock_fs.open(path, "w")
        self.lock_fs.write(handle, b"lock-entry" * 10)
        self.lock_fs.close(handle)

    def _read_lock(self, path: str) -> None:
        handle = self.lock_fs.open(path, "r")
        self.lock_fs.read(handle)
        self.lock_fs.close(handle)

    def _delete_lock(self, path: str) -> None:
        self.lock_fs.unlink(path)

    def _read_document_once(self) -> None:
        handle = self.fs.open(self.document, "r")
        self.fs.read(handle)
        self.fs.close(handle)

    # -- the three actions -----------------------------------------------------

    def open_action(self) -> None:
        self.main_handle = self.fs.open(self.document, "r+")      # 1
        self.fs.read(self.main_handle)                            # 2
        self._write_lock(self.lock1)                               # 3-5
        self._read_document_once()                                 # 6-8
        self._read_lock(self.lock1)                                # 9-11

    def save_action(self) -> None:
        self._read_document_once()                                 # 1-3
        if self.main_handle is not None:
            self.fs.close(self.main_handle)                        # 4
            self.main_handle = None
        self._read_lock(self.lock1)                                # 5-7
        self._delete_lock(self.lock1)                              # 8
        self._write_lock(self.lock2)                               # 9-11
        self._read_lock(self.lock2)                                # 12-14
        new_content = _payload(self.file_size, seed=self.seed + 1)
        handle = self.fs.open(self.document, "r+")                 # 15 (truncate)
        self.fs.truncate(handle, 0)
        self.fs.write(handle, new_content)                         # 16-18
        self.fs.close(handle)
        handle = self.fs.open(self.document, "r+")                 # 19-21 (fsync)
        self.fs.fsync(handle)
        self.fs.close(handle)
        self._read_document_once()                                 # 22-24
        self.main_handle = self.fs.open(self.document, "r+")       # 25

    def close_action(self) -> None:
        if self.main_handle is not None:
            self.fs.close(self.main_handle)                        # 1
            self.main_handle = None
        self._read_lock(self.lock2)                                # 2-4
        self._delete_lock(self.lock2)                              # 5


def run_sync_benchmark(target_name: str, file_size: int = DEFAULT_FILE_SIZE,
                       local_locks: bool = False, runs: int = 3, seed: int = 0,
                       **target_overrides) -> SyncBenchmarkResult:
    """Run the Figure 8 benchmark against one target.

    Returns the average latency of each action over ``runs`` open/save/close
    cycles of a ``file_size`` document.  With ``local_locks=True`` the lock
    files live on a local file system (the "(L)" variants).
    """
    target = build_target(target_name, seed=seed, **target_overrides)
    lock_fs = LocalFS(target.sim) if local_locks else target.fs
    document = "/documents/report.odt"
    mkdir = getattr(target.fs, "mkdir", None)
    if mkdir is not None and not target.fs.exists("/documents"):
        mkdir("/documents")
    target.fs.write_file(document, _payload(file_size, seed=seed))
    # Let background uploads finish and the objects become visible in the
    # (eventually consistent) clouds before the measured editing session starts.
    target.drain(2.0)

    per_run: list[tuple[float, float, float]] = []
    for run in range(runs):
        session = _DocumentSession(target, lock_fs, document, file_size, seed=seed + run)
        start = target.sim.now()
        session.open_action()
        open_latency = target.sim.now() - start

        start = target.sim.now()
        session.save_action()
        save_latency = target.sim.now() - start

        start = target.sim.now()
        session.close_action()
        close_latency = target.sim.now() - start

        per_run.append((open_latency, save_latency, close_latency))
        # Allow background uploads of the non-blocking variants to settle
        # between editing sessions (the user "thinks" between saves).
        target.drain(1.0)

    open_avg = sum(r[0] for r in per_run) / runs
    save_avg = sum(r[1] for r in per_run) / runs
    close_avg = sum(r[2] for r in per_run) / runs
    return SyncBenchmarkResult(
        target=target_name, local_locks=local_locks,
        open_latency=open_avg, save_latency=save_avg, close_latency=close_avg,
        runs=runs, per_run=per_run,
    )


#: Figure 8's systems: the non-blocking ones (8a), then the blocking ones (8b).
SYSTEMS = ("SCFS-AWS-NB", "SCFS-CoC-NB", "SCFS-CoC-NS", "S3QL", "SCFS-AWS-B", "SCFS-CoC-B", "S3FS")
RUNS = 3


def fig8() -> tuple[dict[tuple[str, bool], SyncBenchmarkResult], Table]:
    """Figure 8, seed 7: ``{(system, local_locks): result}`` and its table."""
    results = {(system, local_locks): run_sync_benchmark(system, local_locks=local_locks,
                                                         runs=RUNS, seed=7)
               for system in SYSTEMS for local_locks in (False, True)}
    rows = [[f"{system}(L)" if local_locks else system, result.open_latency,
             result.save_latency, result.close_latency, result.total]
            for (system, local_locks), result in sorted(results.items())]
    return results, Table(
        "Figure 8 - file synchronisation benchmark, 1.2MB document (simulated seconds)",
        ["system", "open", "save", "close", "total"], rows)
