"""The file-sharing latency experiment of Figure 9.

Two clients, A and B, share a folder.  The experiment measures the elapsed
time between the instant client A *closes* a file it wrote into the shared
folder and the instant client B has read that exact version — the moment it
would send the UDP acknowledgement in the paper's setup.  The experiment is
repeated for several file sizes and the 50th and 90th percentiles are
reported, for the blocking and non-blocking SCFS variants on both backends and
for a Dropbox-like synchronisation service.

For the blocking variants the latency is small because ``close`` only returns
once the data (and metadata) are already in the clouds: the measured time is
essentially B's detection and download.  For the non-blocking variants the
upload still has to happen after ``close`` returns, so the latency includes
it.  The Dropbox-like pipeline adds monitor, server-processing and
notification delays on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.dropbox import DropboxLikeService
from repro.bench.report import Table, human_size, percentile
from repro.bench.targets import build_target
from repro.common.errors import FileNotFoundErrorFS, FileSystemError
from repro.common.types import Permission
from repro.common.units import KB, MB
from repro.crypto.hashing import content_digest
from repro.simenv.environment import Simulation

@dataclass
class SharingResult:
    """Latency percentiles of one (system, file size) cell of Figure 9."""

    system: str
    file_size: int
    p50: float
    p90: float
    samples: list[float] = field(default_factory=list)


def _payload(size: int, seed: int) -> bytes:
    pattern = bytes((i * 241 + seed * 13) % 256 for i in range(min(size, 8192)))
    repeats = size // len(pattern) + 1 if pattern else 0
    return (pattern * repeats)[:size]


def run_sharing_benchmark(variant_name: str, file_size: int, trials: int = 9,
                          seed: int = 0, poll_interval: float = 0.2,
                          timeout: float = 900.0) -> SharingResult:
    """Measure the sharing latency of one SCFS variant for one file size."""
    target = build_target(variant_name, seed=seed)
    deployment = target.deployment
    if deployment is None:
        raise ValueError("run_sharing_benchmark only accepts SCFS variants")
    writer = target.fs
    reader = deployment.create_agent("reader")

    writer.mkdir("/shared", shared=True)
    path = "/shared/payload.bin"
    writer.write_file(path, _payload(1024, seed=seed), shared=True)
    writer.setfacl(path, "reader", Permission.READ)
    deployment.drain(2.0)

    samples: list[float] = []
    for trial in range(trials):
        data = _payload(file_size, seed=seed + trial + 1)
        digest = content_digest(data)
        handle = writer.open(path, "r+")
        writer.truncate(handle, 0)
        writer.write(handle, data)
        writer.close(handle)
        closed_at = deployment.sim.now()

        # Client B polls the file until it observes (and has read) the new version.
        waited = 0.0
        while True:
            meta = reader.stat(path)
            if meta.digest == digest:
                content = reader.read_file(path)
                if content_digest(content) == digest:
                    break
            deployment.sim.advance(poll_interval)
            waited += poll_interval
            if waited > timeout:
                raise FileSystemError(
                    f"{variant_name}: shared file did not become visible within {timeout}s"
                )
        samples.append(deployment.sim.now() - closed_at)
        deployment.drain(1.0)

    return SharingResult(
        system=variant_name, file_size=file_size,
        p50=percentile(samples, 50), p90=percentile(samples, 90), samples=samples,
    )


def run_dropbox_sharing(file_size: int, trials: int = 9, seed: int = 0,
                        poll_interval: float = 0.5) -> SharingResult:
    """Measure the sharing latency of the Dropbox-like service for one file size."""
    sim = Simulation(seed=seed)
    service = DropboxLikeService(sim)
    writer = service.register("writer")
    reader = service.register("reader")

    samples: list[float] = []
    for trial in range(trials):
        path = f"/shared/file-{trial}.bin"
        writer.write_file(path, _payload(file_size, seed=seed + trial))
        start = sim.now()
        try:
            waited = reader.wait_for(path, poll_interval=poll_interval)
        except FileNotFoundErrorFS:
            waited = float("inf")
        samples.append(waited if waited != float("inf") else sim.now() - start)
    return SharingResult(
        system="Dropbox", file_size=file_size,
        p50=percentile(samples, 50), p90=percentile(samples, 90), samples=samples,
    )


#: Figure 9's file sizes, systems and trials per (system, size) cell.
SIZES = (256 * KB, 1 * MB, 4 * MB, 16 * MB)
SYSTEMS = ("SCFS-CoC-B", "SCFS-CoC-NB", "SCFS-AWS-B", "SCFS-AWS-NB", "Dropbox")
TRIALS = 7


def fig9() -> tuple[dict[tuple[str, int], SharingResult], Table]:
    """Figure 9, seed 5: ``{(system, size): result}`` and its table."""
    results = {}
    for system in SYSTEMS:
        for size in SIZES:
            if system == "Dropbox":
                results[(system, size)] = run_dropbox_sharing(size, trials=TRIALS, seed=5)
            else:
                results[(system, size)] = run_sharing_benchmark(system, size, trials=TRIALS, seed=5)
    rows = [[system, human_size(size), result.p50, result.p90]
            for (system, size), result in results.items()]
    return results, Table("Figure 9 - sharing latency, 50th/90th percentile (simulated seconds)",
                          ["system", "size", "p50", "p90"], rows)
