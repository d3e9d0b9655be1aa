"""Discrete-event scale-out sweep: 1000+ agents against a 10^5-file namespace.

The scenario engine's scale path (PR 6) combines two mechanisms:

* the heap-based discrete-event scheduler interleaves per-agent steps instead
  of lockstep rounds (``ScenarioSpec.scheduling = "event-driven"``);
* the namespace is primed through :func:`repro.scenarios.pool.prime_pool`
  (interned metadata templates + shared coded blocks) instead of one DepSky
  write per file, into one coordination service.

This harness sweeps the agent count at a fixed primed namespace, runs every
cell under all four trace invariant checkers, and asserts *sub-linear*
wall-clock growth: quadrupling the agent population (and with it the total op
count) must cost strictly less than 4x the wall-clock of the smallest cell.
A second facet measures the coalescer on a same-instant read burst — many
uncharged clients reading one hot data unit within a single virtual instant.

Results are appended to ``BENCH_scale.json`` (see
:mod:`repro.bench.trajectory`); CI gates the fast-mode wall-clock-per-op and
peak-RSS numbers against the last checked-in entry.

Set ``SCALE_BENCH_FAST=1`` (the CI mode) for a reduced sweep; the full sweep
reaches 1000 agents x 20 ops against 10^5 pooled files.
"""

from __future__ import annotations

import os
import resource
import time

from repro.bench.report import render_table
from repro.bench.trajectory import record_bench
from repro.clouds.dispatch import InstantCoalescer
from repro.clouds.providers import COC_STORAGE_PROVIDERS, make_cloud_of_clouds
from repro.common.types import Principal
from repro.depsky.protocol import DepSkyClient
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.simenv.environment import Simulation

FAST = os.environ.get("SCALE_BENCH_FAST", "") == "1"
MODE = "fast" if FAST else "full"
SEED = 17

#: (agents, ops per agent) cells, smallest to largest; the namespace is shared.
AGENT_SWEEP = ((50, 5), (100, 5), (200, 5)) if FAST else ((250, 20), (500, 20), (1000, 20))
FILES = 5_000 if FAST else 100_000
DIRECTORIES = 32
BURST_READERS = 500 if FAST else 2_000


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cell(agents: int, ops: int) -> dict:
    spec = ScenarioSpec.generate_scale(
        seed=SEED, agents=agents, files=FILES, ops_per_agent=ops, directories=DIRECTORIES)
    start = time.perf_counter()
    result = ScenarioRunner(spec).run()
    wall = time.perf_counter() - start
    assert result.ok, result.violations
    return {
        "agents": agents,
        "total_ops": spec.total_ops,
        "wall_s": wall,
        "wall_per_op_ms": 1000.0 * wall / spec.total_ops,
        "events": result.stats["events"],
        "quorum_calls": result.stats["quorum_calls"],
        "fingerprint": result.fingerprint,
    }


def test_agent_scale_sweep(run_once, capsys):
    cells = run_once(lambda: [_run_cell(agents, ops) for agents, ops in AGENT_SWEEP])
    peak_rss = _peak_rss_mb()

    rows = [[c["agents"], c["total_ops"], c["wall_s"], c["wall_per_op_ms"],
             c["events"], c["quorum_calls"]] for c in cells]
    with capsys.disabled():
        print()
        print(render_table(
            f"Agent scale sweep ({MODE}: {FILES} pooled files, one coordination "
            f"service, all invariant checkers on; peak RSS {peak_rss:.0f} MiB)",
            ["agents", "ops", "wall s", "ms/op", "trace events", "quorum calls"],
            rows, float_format="{:.3f}"))

    smallest, largest = cells[0], cells[-1]
    growth = largest["total_ops"] / smallest["total_ops"]
    ratio = largest["wall_s"] / smallest["wall_s"]

    # The acceptance bar: per-op wall-clock stays flat as the population
    # grows ``growth``x — no super-linear term (lock contention, namespace
    # scans, quorum amplification) creeps in with agent count.
    assert largest["wall_per_op_ms"] < 1.3 * smallest["wall_per_op_ms"], cells
    assert ratio < 1.1 * growth, (ratio, growth)
    if not FAST:
        # The full sweep amortises the fixed priming cost over 20k ops, so
        # total wall-clock growth is strictly sub-linear in the op count.
        assert ratio < 0.9 * growth, (ratio, growth)
    # Every cell held every invariant (asserted per cell) and the largest cell
    # actually ran at the advertised population.
    assert largest["agents"] == AGENT_SWEEP[-1][0]

    metrics = {f"{MODE}_wall_s_a{c['agents']}": round(c["wall_s"], 3) for c in cells}
    metrics[f"{MODE}_wall_per_op_ms"] = round(largest["wall_per_op_ms"], 3)
    metrics[f"{MODE}_scaling_ratio"] = round(ratio, 3)
    metrics[f"{MODE}_trace_events"] = largest["events"]
    metrics[f"{MODE}_agents"] = largest["agents"]
    metrics[f"{MODE}_files"] = FILES
    metrics[f"{MODE}_peak_rss_mb"] = round(peak_rss, 1)
    record_bench("scale", metrics)


def _burst(coalesce: bool) -> dict:
    """Many clients read one hot unit within a single virtual instant."""
    sim = Simulation(seed=SEED)
    clouds = make_cloud_of_clouds(sim, COC_STORAGE_PROVIDERS)

    def principal(name: str) -> Principal:
        return Principal(name=name, canonical_ids=tuple(
            (c.name, f"{name}@{c.name}") for c in clouds))

    coalescer = InstantCoalescer(sim) if coalesce else None
    writer = DepSkyClient(sim, clouds, principal("burst"), coalescer=coalescer)
    with sim.background():
        writer.write("hot-unit", b"burst payload " * 16)
    sim.advance(60.0)  # let the put propagate

    readers = [DepSkyClient(sim, clouds, principal("burst"), coalescer=coalescer)
               for _ in range(BURST_READERS)]
    start = time.perf_counter()
    for reader in readers:
        heads, _ = reader._read_heads("hot-unit")
        assert reader._certified_head(heads).version == 1
    wall = time.perf_counter() - start
    return {"wall_s": wall, "hits": coalescer.hits if coalescer else 0}


def test_same_instant_read_burst(run_once, capsys):
    results = run_once(lambda: {
        "plain": _burst(coalesce=False),
        "coalesced": _burst(coalesce=True),
    })
    plain, coalesced = results["plain"], results["coalesced"]
    speedup = plain["wall_s"] / coalesced["wall_s"] if coalesced["wall_s"] else 0.0
    with capsys.disabled():
        print()
        print(render_table(
            f"Same-instant metadata read burst ({BURST_READERS} readers, one hot unit)",
            ["mode", "wall s", "coalesced", "speedup"],
            [["plain", plain["wall_s"], plain["hits"], 1.0],
             ["coalesced", coalesced["wall_s"], coalesced["hits"], speedup]],
            float_format="{:.4f}"))

    # All but the first read of the instant ride on the first call's result...
    assert coalesced["hits"] == BURST_READERS - 1
    # ...which must be materially cheaper than re-dispatching every quorum.
    assert speedup > 2.0, speedup

    record_bench("scale", {
        f"{MODE}_burst_readers": BURST_READERS,
        f"{MODE}_burst_coalesced": coalesced["hits"],
        f"{MODE}_burst_speedup": round(speedup, 2),
    })
