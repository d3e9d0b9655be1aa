"""Command-line interface to the SCFS reproduction.

The CLI gives quick access to the main artefacts without writing any code::

    python -m repro.cli demo                      # the quickstart walkthrough
    python -m repro.cli table3 --quick            # regenerate Table 3
    python -m repro.cli fig8                      # file-synchronisation benchmark
    python -m repro.cli fig9 --sizes 256K 4M      # sharing latency
    python -m repro.cli fig10                     # metadata cache / PNS sweeps
    python -m repro.cli fig11                     # cost analysis
    python -m repro.cli variants                  # list the Table 2 variants

Every command prints the same plain-text tables the ``benchmarks/`` files
produce; ``--quick`` shrinks the workloads for a fast sanity run.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.costs import (
    cached_read_cost,
    cost_per_file_day,
    cost_per_operation,
    operation_costs_per_day,
)
from repro.bench.filebench import MICRO_BENCHMARKS, MicroBenchmarkParams, run_microbenchmark_table
from repro.bench.report import human_size, render_table
from repro.bench.sharing import run_dropbox_sharing, run_sharing_benchmark
from repro.bench.sweeps import run_metadata_cache_sweep, run_pns_sweep
from repro.bench.syncservice import run_sync_benchmark
from repro.bench.targets import ALL_TARGET_NAMES
from repro.common.units import KB, MB
from repro.core.modes import VARIANTS


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    if text.endswith("K"):
        return int(float(text[:-1]) * KB)
    if text.endswith("M"):
        return int(float(text[:-1]) * MB)
    return int(text)


def cmd_variants(_args) -> int:
    rows = [[spec.name, spec.mode.value, spec.backend.value, spec.label]
            for spec in VARIANTS.values()]
    print(render_table("Table 2 - SCFS variants", ["name", "mode", "backend", "label"], rows))
    return 0


def cmd_demo(args) -> int:
    from repro import Permission, SCFSDeployment
    from repro.depsky.protocol import preferred_order
    from repro.simenv.failures import FaultKind

    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=args.seed)
    alice = deployment.create_agent("alice")
    bob = deployment.create_agent("bob")
    alice.mkdir("/projects", shared=True)
    alice.write_file("/projects/design.md", b"# SCFS reproduction\n", shared=True)
    alice.setfacl("/projects/design.md", "bob", Permission.READ)
    deployment.drain(2.0)
    print("bob reads the shared file:", bob.read_file("/projects/design.md").decode().strip())
    # Down the first preferred cloud (a systematic block holder), so the read
    # has to decode from a parity block.
    down = preferred_order(deployment.clouds)[0]
    down.failures.add(FaultKind.UNAVAILABLE)
    alice.agent.memory_cache.clear()
    alice.agent.disk_cache.clear()
    print(f"{down.name} is down; alice still reads:",
          alice.read_file("/projects/design.md").decode().strip(),
          f"(coded reads: {alice.agent.backend.read_paths.coded})")
    costs = deployment.costs()
    print(f"bill so far: {costs.total * 1e6:.1f} micro-dollars, "
          f"simulated time {deployment.sim.now():.2f}s")
    return 0


def cmd_table3(args) -> int:
    params = MicroBenchmarkParams(sample_ops=256, create_count=40, copy_count=20) if args.quick \
        else MicroBenchmarkParams(sample_ops=1024)
    table = run_microbenchmark_table(ALL_TARGET_NAMES, tuple(MICRO_BENCHMARKS), args.seed, params)
    headers = ["micro-benchmark", *ALL_TARGET_NAMES]
    rows = [[name, *(table[name][t] for t in ALL_TARGET_NAMES)] for name in MICRO_BENCHMARKS]
    print(render_table("Table 3 - Filebench micro-benchmarks (simulated seconds)", headers, rows))
    return 0


def cmd_fig8(args) -> int:
    systems = ("SCFS-AWS-NB", "SCFS-CoC-NB", "SCFS-CoC-NS", "S3QL",
               "SCFS-AWS-B", "SCFS-CoC-B", "S3FS")
    rows = []
    for system in systems:
        for local_locks in (False, True):
            result = run_sync_benchmark(system, local_locks=local_locks,
                                        runs=args.runs, seed=args.seed)
            label = f"{system}(L)" if local_locks else system
            rows.append([label, result.open_latency, result.save_latency, result.close_latency])
    print(render_table("Figure 8 - file synchronisation benchmark (simulated seconds)",
                       ["system", "open", "save", "close"], rows))
    return 0


def cmd_fig9(args) -> int:
    sizes = tuple(_parse_size(s) for s in args.sizes)
    rows = []
    for system in ("SCFS-CoC-B", "SCFS-CoC-NB", "SCFS-AWS-B", "SCFS-AWS-NB", "Dropbox"):
        for size in sizes:
            if system == "Dropbox":
                result = run_dropbox_sharing(size, trials=args.trials, seed=args.seed)
            else:
                result = run_sharing_benchmark(system, size, trials=args.trials, seed=args.seed)
            rows.append([system, human_size(size), result.p50, result.p90])
    print(render_table("Figure 9 - sharing latency (simulated seconds)",
                       ["system", "size", "p50", "p90"], rows))
    return 0


def cmd_fig10(args) -> int:
    params = MicroBenchmarkParams(create_count=40, copy_count=20) if args.quick \
        else MicroBenchmarkParams(create_count=100, copy_count=50)
    cache_sweep = run_metadata_cache_sweep(params=params, seed=args.seed)
    print(render_table("Figure 10(a) - metadata cache expiration (simulated seconds)",
                       ["expiration (s)", "create", "copy"],
                       [[p.setting, p.create_seconds, p.copy_seconds] for p in cache_sweep.points]))
    print()
    pns_sweep = run_pns_sweep(params=params, seed=args.seed)
    print(render_table("Figure 10(b) - % of shared files with PNS (simulated seconds)",
                       ["% shared", "create", "copy"],
                       [[p.setting, p.create_seconds, p.copy_seconds] for p in pns_sweep.points]))
    return 0


def cmd_fig11(args) -> int:
    rows = [[r.instance, r.ec2_per_day, r.ec2_times_four_per_day, r.coc_per_day,
             f"{r.capacity_files / 1e6:.0f}M"] for r in operation_costs_per_day()]
    print(render_table("Figure 11(a) - coordination cost per day ($)",
                       ["instance", "EC2", "EC2 x4", "CoC", "capacity"], rows))
    print()
    sizes = tuple(_parse_size(s) for s in args.sizes)
    operations = cost_per_operation(sizes=sizes, seed=args.seed)
    rows = [[series, human_size(size), cost.total]
            for series, per_size in operations.items() for size, cost in per_size.items()]
    print(render_table("Figure 11(b) - cost per operation (micro-dollars)",
                       ["series", "size", "cost/op"], rows))
    print(f"\ncached read: {cached_read_cost():.2f} micro-dollars")
    print()
    storage = cost_per_file_day(sizes=sizes, seed=args.seed)
    rows = [[system, human_size(size), entry.micro_dollars_per_day]
            for system, per_size in storage.items() for size, entry in per_size.items()]
    print(render_table("Figure 11(c) - storage cost per version per day (micro-dollars)",
                       ["backend", "size", "cost/day"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("variants", help="list the Table 2 variants").set_defaults(func=cmd_variants)
    sub.add_parser("demo", help="run the quickstart example").set_defaults(func=cmd_demo)

    table3 = sub.add_parser("table3", help="regenerate Table 3")
    table3.add_argument("--quick", action="store_true", help="smaller workloads")
    table3.set_defaults(func=cmd_table3)

    fig8 = sub.add_parser("fig8", help="file-synchronisation benchmark (Figure 8)")
    fig8.add_argument("--runs", type=int, default=3)
    fig8.set_defaults(func=cmd_fig8)

    fig9 = sub.add_parser("fig9", help="sharing-latency benchmark (Figure 9)")
    fig9.add_argument("--sizes", nargs="+", default=["256K", "1M", "4M"])
    fig9.add_argument("--trials", type=int, default=5)
    fig9.set_defaults(func=cmd_fig9)

    fig10 = sub.add_parser("fig10", help="parameter sweeps (Figure 10)")
    fig10.add_argument("--quick", action="store_true")
    fig10.set_defaults(func=cmd_fig10)

    fig11 = sub.add_parser("fig11", help="cost analysis (Figure 11)")
    fig11.add_argument("--sizes", nargs="+", default=["1M", "10M", "30M"])
    fig11.set_defaults(func=cmd_fig11)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
