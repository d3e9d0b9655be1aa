"""Parameter sweeps of Figure 10: metadata-cache expiration and PNS sharing.

Both sweeps run the two metadata-intensive micro-benchmarks (create files and
copy files) on SCFS-CoC-NB, the configuration used in §4.4:

* Figure 10(a) varies the expiration time of the short-lived metadata cache
  (0, 250 and 500 ms).  Disabling the cache makes every VFS-style ``stat``
  burst hit the coordination service and severely degrades performance;
  beyond a few hundred milliseconds the benefit saturates.
* Figure 10(b) enables Private Name Spaces and varies the percentage of files
  shared between more than one user (0–100 %).  All other experiments use
  100 % sharing (the worst case); as more files become private, fewer
  coordination accesses are needed and latency drops accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.filebench import MicroBenchmarkParams, copy_files, create_files
from repro.bench.report import Table
from repro.bench.targets import build_target
from repro.core.config import CacheConfig


@dataclass
class SweepPoint:
    """Result of one sweep setting: create/copy latency in simulated seconds."""

    setting: float
    create_seconds: float
    copy_seconds: float


@dataclass
class SweepResult:
    """A full sweep (Figure 10(a) or 10(b))."""

    parameter: str
    variant: str
    points: list[SweepPoint] = field(default_factory=list)


#: Expiration times of Figure 10(a), in seconds.
DEFAULT_EXPIRATIONS: tuple[float, ...] = (0.0, 0.250, 0.500)

#: Sharing percentages of Figure 10(b).
DEFAULT_SHARING_PERCENTAGES: tuple[int, ...] = (0, 25, 50, 75, 100)


def run_metadata_cache_sweep(expirations: tuple[float, ...] = DEFAULT_EXPIRATIONS,
                             variant: str = "SCFS-CoC-NB", seed: int = 0,
                             params: MicroBenchmarkParams | None = None) -> SweepResult:
    """Figure 10(a): create/copy latency vs metadata-cache expiration time."""
    params = params or MicroBenchmarkParams()
    result = SweepResult(parameter="metadata_cache_expiration", variant=variant)
    for expiration in expirations:
        caches = CacheConfig(metadata_expiration=expiration)
        create_target = build_target(variant, seed=seed, caches=caches)
        create_seconds = create_files(create_target, params)
        copy_target = build_target(variant, seed=seed, caches=caches)
        copy_seconds = copy_files(copy_target, params)
        result.points.append(SweepPoint(expiration, create_seconds, copy_seconds))
    return result


def run_pns_sweep(sharing_percentages: tuple[int, ...] = DEFAULT_SHARING_PERCENTAGES,
                  variant: str = "SCFS-CoC-NB", seed: int = 0,
                  params: MicroBenchmarkParams | None = None) -> SweepResult:
    """Figure 10(b): create/copy latency vs percentage of shared files (with PNS)."""
    params = params or MicroBenchmarkParams()
    result = SweepResult(parameter="shared_files_percent", variant=variant)
    for percent in sharing_percentages:
        fraction = percent / 100.0
        create_target = build_target(variant, seed=seed, private_name_spaces=True)
        create_seconds = create_files(create_target, params, shared_fraction=fraction)
        copy_target = build_target(variant, seed=seed, private_name_spaces=True)
        copy_seconds = copy_files(copy_target, params, shared_fraction=fraction)
        result.points.append(SweepPoint(float(percent), create_seconds, copy_seconds))
    return result


#: Figure 10's sizing: half the paper's 200/100 files keeps the sweeps' wall
#: time modest while preserving their shape.
PARAMS = MicroBenchmarkParams(create_count=100, copy_count=50)


def fig10a() -> tuple[SweepResult, Table]:
    """Figure 10(a) on SCFS-CoC-NB, seed 3: the sweep and its table."""
    sweep = run_metadata_cache_sweep(DEFAULT_EXPIRATIONS, "SCFS-CoC-NB", 3, PARAMS)
    rows = [[f"{point.setting * 1000:.0f} ms", point.create_seconds, point.copy_seconds]
            for point in sweep.points]
    return sweep, Table("Figure 10(a) - metadata cache expiration time (simulated seconds)",
                        ["expiration", "create files", "copy files"], rows)


def fig10b() -> tuple[SweepResult, Table]:
    """Figure 10(b) on SCFS-CoC-NB, seed 3: the sweep and its table."""
    sweep = run_pns_sweep(DEFAULT_SHARING_PERCENTAGES, "SCFS-CoC-NB", 3, PARAMS)
    rows = [[f"{point.setting:.0f} %", point.create_seconds, point.copy_seconds]
            for point in sweep.points]
    return sweep, Table("Figure 10(b) - percentage of shared files with PNS (simulated seconds)",
                        ["shared files", "create files", "copy files"], rows)
