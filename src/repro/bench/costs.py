"""The cost analysis of Figure 11.

Three views of what SCFS costs to operate and use:

* **Figure 11(a)** — the *fixed* operation cost: renting the VMs that host the
  coordination service, for one EC2 instance (SCFS-AWS), four EC2 instances,
  or one instance in each of the four compute clouds (SCFS-CoC), together with
  the expected metadata capacity of such a DepSpace deployment;
* **Figure 11(b)** — the *variable* cost per file-system operation: reading a
  file costs outbound traffic (≈$0.12/GB) plus request and coordination
  charges, while writing costs only requests and coordination accesses because
  inbound traffic is free — the economic basis of *always write / avoid
  reading*;
* **Figure 11(c)** — the storage cost per file version per day, where the
  cloud-of-clouds pays ≈50 % more than a single cloud because of the erasure
  coding with preferred quorums.

The per-operation figures are *measured*: the operations are executed against
freshly built deployments and the providers' cost trackers report the dollar
deltas, with coordination-service traffic (1 KB metadata tuples) priced at the
same outbound rate: one access per replicated command the operation sent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import Table, human_size
from repro.bench.targets import build_target
from repro.clouds.pricing import COORDINATION_CAPACITY_TUPLES
from repro.clouds.providers import COC_COMPUTE_PROVIDERS, COMPUTE_PRICING
from repro.common.units import GB, KB, MB, micro_dollars

#: Outbound price applied to coordination-service traffic (1 KB per access).
_COORDINATION_OUTBOUND_PER_ACCESS = 0.12 * (1 * KB) / GB
#: Per-request charge of a coordination access (small EC2/ELB request overhead);
#: calibrated so that a metadata-only cached read costs ~11 micro-dollars, the
#: figure quoted in §4.5.
_COORDINATION_REQUEST_COST = 11.2e-6


@dataclass
class OperationCostRow:
    """One row of the Figure 11(a) table."""

    instance: str
    ec2_per_day: float
    ec2_times_four_per_day: float
    coc_per_day: float
    capacity_files: int


def operation_costs_per_day(instances: tuple[str, ...] = ("large", "extra_large")) -> list[OperationCostRow]:
    """Figure 11(a): coordination-service VM rental costs and capacity."""
    rows = []
    ec2 = COMPUTE_PRICING["amazon-ec2"]
    for instance in instances:
        coc = sum(COMPUTE_PRICING[p].price_per_day(instance) for p in COC_COMPUTE_PROVIDERS)
        rows.append(OperationCostRow(
            instance=instance,
            ec2_per_day=ec2.price_per_day(instance),
            ec2_times_four_per_day=4 * ec2.price_per_day(instance),
            coc_per_day=coc,
            capacity_files=COORDINATION_CAPACITY_TUPLES[instance],
        ))
    return rows


@dataclass
class OperationCost:
    """Measured cost (in micro-dollars) of one read or write of a given size."""

    system: str
    file_size: int
    storage_cost: float
    coordination_cost: float
    #: Decode path of a measured CoC read ("systematic"/"coded"; "-" for
    #: writes and single-cloud operations).  Coded reads fetch parity blocks,
    #: so the path is part of the cost story, not just the latency story.
    read_path: str = "-"

    @property
    def total(self) -> float:
        """Total micro-dollars per operation."""
        return self.storage_cost + self.coordination_cost


def _payload(size: int, seed: int = 0) -> bytes:
    pattern = bytes((i * 89 + seed) % 256 for i in range(min(size, 4096)))
    repeats = size // len(pattern) + 1 if pattern else 0
    return (pattern * repeats)[:size]


def _coordination_cost(accesses: int) -> float:
    return accesses * (_COORDINATION_REQUEST_COST + _COORDINATION_OUTBOUND_PER_ACCESS)


def _measure(system: str, operation: str, file_size: int, seed: int = 0) -> OperationCost:
    variant = "SCFS-CoC-B" if system == "CoC" else "SCFS-AWS-B"
    target = build_target(variant, seed=seed)
    deployment = target.deployment
    fs = target.fs
    path = "/cost/sample.bin"
    fs.mkdir("/cost", shared=True)
    data = _payload(file_size, seed)
    fs.write_file(path, data, shared=True)
    deployment.drain(2.0)

    rsm = deployment.coordination.rsm
    commands_before = rsm.commands_executed
    deployment.reset_costs()
    read_path = "-"
    if operation == "read":
        # Drop local caches so a read actually downloads from the cloud(s).
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        fs.read_file(path)
        paths = getattr(fs.backend, "read_paths", None)
        if paths is not None and paths.systematic + paths.coded:
            read_path = "systematic" if paths.coded == 0 else "coded"
    elif operation == "write":
        fs.write_file(path, _payload(file_size, seed + 1), shared=True)
        deployment.drain(2.0)
    else:
        raise ValueError(f"unknown operation {operation!r}")
    costs = deployment.costs()
    # Every replicated command the operation sent is one billed access.
    accesses = rsm.commands_executed - commands_before
    # Storage (per-GB-month) charges are excluded here: Figure 11(b) prices the
    # *operation*, Figure 11(c) prices keeping the data.
    storage_side = costs.request_cost + costs.traffic_cost
    return OperationCost(
        system=system, file_size=file_size,
        storage_cost=micro_dollars(storage_side),
        coordination_cost=micro_dollars(_coordination_cost(max(accesses, 1))),
        read_path=read_path,
    )


#: File sizes (bytes) of the Figure 11(b)/(c) x-axis (0–30 MB, a few points).
DEFAULT_COST_SIZES: tuple[int, ...] = (1 * MB, 5 * MB, 10 * MB, 20 * MB, 30 * MB)


def cost_per_operation(sizes: tuple[int, ...] = DEFAULT_COST_SIZES,
                       seed: int = 0) -> dict[str, dict[int, OperationCost]]:
    """Figure 11(b): measured micro-dollars per read/write vs file size."""
    results: dict[str, dict[int, OperationCost]] = {}
    for system in ("CoC", "AWS"):
        for operation in ("read", "write"):
            series = f"{system} {operation}"
            results[series] = {}
            for size in sizes:
                results[series][size] = _measure(system, operation, size, seed=seed)
    return results


def cached_read_cost() -> float:
    """Micro-dollars of reading a locally cached file (metadata validation only).

    The paper reports 11.32 micro-dollars for this case (§4.5): the only charge
    is the ``getMetadata`` access used to validate the cached copy.
    """
    return micro_dollars(_coordination_cost(1))


@dataclass
class StorageCost:
    """Figure 11(c): cost of keeping one version of one file for a day."""

    system: str
    file_size: int
    stored_bytes: int
    micro_dollars_per_day: float


def cost_per_file_day(sizes: tuple[int, ...] = DEFAULT_COST_SIZES,
                      seed: int = 0) -> dict[str, dict[int, StorageCost]]:
    """Figure 11(c): measured storage cost per version per day vs file size."""
    results: dict[str, dict[int, StorageCost]] = {"CoC": {}, "AWS": {}}
    for system in ("CoC", "AWS"):
        variant = "SCFS-CoC-B" if system == "CoC" else "SCFS-AWS-B"
        for size in sizes:
            target = build_target(variant, seed=seed)
            fs = target.fs
            fs.mkdir("/cost", shared=True)
            fs.write_file("/cost/sample.bin", _payload(size, seed), shared=True)
            target.drain(2.0)
            deployment = target.deployment
            stored = 0
            dollars_per_day = 0.0
            for cloud in deployment.clouds:
                provider_bytes = cloud.stored_bytes()
                stored += provider_bytes
                dollars_per_day += cloud.costs.pricing.storage_gb_month * (provider_bytes / GB) / 30.0
            results[system][size] = StorageCost(
                system=system, file_size=size, stored_bytes=stored,
                micro_dollars_per_day=micro_dollars(dollars_per_day),
            )
    return results


def fig11a() -> tuple[list[OperationCostRow], Table]:
    """Figure 11(a): the price-list rows and their table."""
    results = operation_costs_per_day()
    rows = [[r.instance, r.ec2_per_day, r.ec2_times_four_per_day, r.coc_per_day,
             f"{r.capacity_files / 1e6:.0f}M files"] for r in results]
    return results, Table("Figure 11(a) - coordination service cost per day ($) and capacity",
                          ["instance", "EC2", "EC2 x4", "CoC", "capacity"], rows)


def fig11b() -> tuple[dict[str, dict[int, OperationCost]], Table]:
    """Figure 11(b), seed 0: ``{series: {size: cost}}`` and its table."""
    results = cost_per_operation()
    rows = [[series, human_size(size), cost.total, cost.read_path]
            for series, per_size in results.items() for size, cost in per_size.items()]
    return results, Table("Figure 11(b) - cost per operation (micro-dollars)",
                          ["series", "file size", "cost/op (u$)", "read path"], rows)


def fig11c() -> tuple[dict[str, dict[int, StorageCost]], Table]:
    """Figure 11(c), seed 0: ``{backend: {size: cost}}`` and its table."""
    results = cost_per_file_day()
    rows = [[system, human_size(size), entry.micro_dollars_per_day, entry.stored_bytes]
            for system in ("AWS", "CoC") for size, entry in results[system].items()]
    return results, Table("Figure 11(c) - storage cost per version per day (micro-dollars)",
                          ["backend", "file size", "cost/day (u$)", "stored bytes"], rows)
