"""Quorum dispatch engine — latency under jitter, stragglers and faults.

Sweeps fault schedules against dispatch policies for a DepSky cloud-of-clouds
client and reports the simulated read/write latency distributions together
with the preferred-quorum hit rates:

* ``fault-free``      — all four providers healthy (jittered latencies);
* ``one-down``        — one preferred (systematic) cloud UNAVAILABLE, so every
                        read pays the staged parity fallback and every write
                        spills over to the fourth cloud;
* ``degraded``        — one preferred cloud DEGRADED (latency x8, a gray
                        failure): it still answers, so without hedging every
                        read waits for the straggler.

Reads and writes take SCFS's path: a write is numbered by its caller
(``write_numbered``, as the consistency anchor numbers a close) and a read
fetches the anchored version (``read_matching`` of its record), so neither
reads the heads first.  The weighted-quorum frontier sweep keeps the head
read (``write``/``read_latest``): which clouds its planner asks for the head
is part of what it measures.

Policies: plain staged dispatch, a per-request timeout with one retry, and
hedged fallback dispatch.  The assertions pin the behaviours the dispatch
engine exists to model:

* fault-free reads are 100 % preferred-quorum hits;
* with a failed preferred cloud, the charged read latency *strictly exceeds*
  the fault-free systematic read (staged fallback is not free);
* hedged backup requests beat the DEGRADED straggler, cutting p99 read
  latency by a wide margin versus plain dispatch;
* fault-free, hedging changes nothing: a hedge fires only once a stage has
  overrun its healthy bound, so the ``hedged`` policy's reads and writes take
  exactly what ``plain`` dispatch's take and no request is hedged.

The *outage-recovery* sweep (``test_outage_recovery_sweep``) downs one
preferred cloud for a bounded window — as a crash (every request fails) and as
a hang (latency x600, so every request burns the full per-request timeout) —
and compares the same timeout policy with and without cloud health tracking:

* with suspicion, the mean latency of the 2nd..Nth reads during the outage is
  *strictly lower* than without (the suspect list stops the client from
  re-probing the dead provider on every call — no repeated timeout tax);
* under the hang, untracked reads pay at least the full timeout each, while
  suspected-cloud demotion collapses them back to near fault-free latency;
* after the outage ends, a background probe succeeds and the cloud rejoins
  the preferred quorum (suspicions/probes/recoveries are reported).

Set ``QUORUM_BENCH_FAST=1`` to run a reduced sweep (CI smoke mode).
"""

from __future__ import annotations

import dataclasses
import os

from repro.clouds.dispatch import DispatchPolicyConfig
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.pricing import StoragePricing
from repro.clouds.quorums import quorum_system
from repro.common.types import Principal
from repro.common.units import KB
from repro.bench.report import percentile, render_table
from repro.bench.trajectory import record_bench
from repro.clouds.providers import (
    COC_STORAGE_PROVIDERS,
    PROVIDER_PROFILES,
    make_cloud_of_clouds,
)
from repro.depsky.protocol import DepSkyClient
from repro.simenv.environment import Simulation
from repro.simenv.failures import FaultKind

FAST = bool(os.environ.get("QUORUM_BENCH_FAST"))
READS = 24 if FAST else 96
WRITES = 8 if FAST else 24
PAYLOAD = 256 * KB
JITTER = 0.15
DEGRADED_FACTOR = 8.0

SCHEDULES = ("fault-free", "one-down", "degraded")
POLICIES: dict[str, DispatchPolicyConfig] = {
    "plain": DispatchPolicyConfig(),
    # ~3x a healthy block GET from the preferred (UK) clouds.
    "timeout": DispatchPolicyConfig(timeout=0.35, retries=1),
    "hedged": DispatchPolicyConfig(hedge_delay=0.25),
}


def _apply_schedule(clouds, schedule: str, start: float) -> None:
    if schedule == "one-down":
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=start)
    elif schedule == "degraded":
        clouds[0].failures.add(FaultKind.DEGRADED, start=start, factor=DEGRADED_FACTOR)
    elif schedule != "fault-free":
        raise ValueError(f"unknown schedule {schedule!r}")


def _run_scenario(schedule: str, policy: DispatchPolicyConfig, seed: int = 11) -> dict:
    sim = Simulation(seed=seed)
    clouds = make_cloud_of_clouds(sim, jitter=JITTER)
    principal = Principal("bench-user")
    client = DepSkyClient(sim, clouds, principal, f=1, policy=policy)

    # Populate the data units while healthy, then let them propagate and
    # activate the fault schedule for the measured phase.
    payload = bytes((i * 73) % 256 for i in range(PAYLOAD))
    [record] = client.write_numbered([("unit-read", payload, 1)])
    sim.advance(3.0)
    # The client's first preferred cloud holds systematic block 0.
    _apply_schedule(client.clouds, schedule, start=sim.now())

    read_latencies = []
    paths = {"systematic": 0, "coded": 0}
    hedged_requests = 0
    for _ in range(READS):
        start = sim.now()
        result = client.read_matching("unit-read", record.data_digest, record)
        read_latencies.append(sim.now() - start)
        paths[result.path] += 1
        if result.stats is not None:
            hedged_requests += result.stats.hedged
    write_latencies = []
    for index in range(WRITES):
        start = sim.now()
        client.write_numbered([(f"unit-write-{index}", payload, 1)])
        write_latencies.append(sim.now() - start)
        sim.advance(0.5)

    return {
        "reads": read_latencies,
        "writes": write_latencies,
        "paths": paths,
        "hedged": hedged_requests,
    }


def _sweep() -> dict[tuple[str, str], dict]:
    return {
        (schedule, policy_name): _run_scenario(schedule, policy)
        for schedule in SCHEDULES
        for policy_name, policy in POLICIES.items()
    }


def test_quorum_latency_sweep(run_once, capsys):
    results = run_once(_sweep)

    rows = []
    for (schedule, policy_name), result in results.items():
        reads, writes = result["reads"], result["writes"]
        total = sum(result["paths"].values())
        hit_rate = result["paths"]["systematic"] / total if total else 0.0
        rows.append([
            schedule, policy_name,
            percentile(reads, 50), percentile(reads, 95), percentile(reads, 99),
            percentile(writes, 50), percentile(writes, 99),
            f"{100.0 * hit_rate:.0f}%", result["hedged"],
        ])
    with capsys.disabled():
        print()
        print(render_table(
            "Quorum dispatch latency sweep (simulated seconds, "
            f"{READS} reads / {WRITES} writes of 256K)",
            ["schedule", "policy", "read p50", "read p95", "read p99",
             "write p50", "write p99", "pref. hits", "hedged"],
            rows, float_format="{:.3f}"))

    def reads(schedule, policy):
        return results[(schedule, policy)]["reads"]

    # Fault-free reads are pure preferred-quorum hits for every policy.
    for policy in POLICIES:
        assert results[("fault-free", policy)]["paths"]["coded"] == 0
    # No hedge fires before a healthy answer could land: fault-free, the
    # hedged policy sends nothing extra and waits exactly as long as plain.
    for kind in ("reads", "writes"):
        assert results[("fault-free", "hedged")][kind] == results[("fault-free", "plain")][kind]
    assert results[("fault-free", "hedged")]["hedged"] == 0

    # Staged fallback is charged: with a failed preferred cloud every read is
    # coded and strictly slower than the fault-free systematic read.
    assert results[("one-down", "plain")]["paths"]["systematic"] == 0
    assert percentile(reads("one-down", "plain"), 50) > percentile(reads("fault-free", "plain"), 50)
    assert min(reads("one-down", "plain")) > max(reads("fault-free", "plain")) * 0.9

    # Without hedging, a DEGRADED straggler dominates the read latency; hedged
    # backup requests beat it (the engine's raison d'etre) by a wide margin.
    plain_p99 = percentile(reads("degraded", "plain"), 99)
    hedged_p99 = percentile(reads("degraded", "hedged"), 99)
    assert hedged_p99 < 0.7 * plain_p99, (plain_p99, hedged_p99)
    assert results[("degraded", "hedged")]["hedged"] > 0
    # Per-request timeouts also dodge the straggler, though later than a hedge.
    timeout_p99 = percentile(reads("degraded", "timeout"), 99)
    assert timeout_p99 < plain_p99

    record_bench("quorum", {
        "faultfree_read_p50_s": round(percentile(reads("fault-free", "plain"), 50), 4),
        "faultfree_write_p50_s": round(
            percentile(results[("fault-free", "plain")]["writes"], 50), 4),
        "onedown_read_p50_s": round(percentile(reads("one-down", "plain"), 50), 4),
        "degraded_plain_read_p99_s": round(plain_p99, 4),
        "degraded_hedged_read_p99_s": round(hedged_p99, 4),
        "degraded_hedged_write_p50_s": round(
            percentile(results[("degraded", "hedged")]["writes"], 50), 4),
    })


# --------------------------------------------------------------------------
# Outage-recovery sweep: suspect lists vs re-probing a downed provider.
# --------------------------------------------------------------------------

OUTAGE_SECONDS = 18.0 if FAST else 36.0
RECOVERY_SECONDS = 16.0 if FAST else 30.0
READ_GAP = 1.5
REQUEST_TIMEOUT = 1.5
#: A hanging provider: latency x600 means every request exceeds the timeout.
HANG_FACTOR = 600.0
OUTAGE_KINDS = ("crash", "hang")

#: The suspicion knobs of the tracked arms (no timeout: the frontier sets none).
SUSPICION = DispatchPolicyConfig(
    suspicion_threshold=2,  # one read = metadata + block call: suspected fast
    probe_backoff=8.0,
    probe_backoff_factor=1.5,
    probe_backoff_max=30.0,
)


def _run_outage_scenario(kind: str, suspicion: bool, seed: int = 13) -> dict:
    sim = Simulation(seed=seed)
    clouds = make_cloud_of_clouds(sim, jitter=JITTER)
    # One policy object: the quorum calls' timeout and, tracked, the suspicion knobs.
    policy = dataclasses.replace(SUSPICION if suspicion else DispatchPolicyConfig(),
                                 timeout=REQUEST_TIMEOUT)
    client = DepSkyClient(sim, clouds, Principal("bench-user"), f=1, policy=policy)

    payload = bytes((i * 73) % 256 for i in range(PAYLOAD))
    [record] = client.write_numbered([("unit-outage", payload, 1)])
    sim.advance(3.0)
    outage_start = sim.now()
    down = client.clouds[0]  # the first preferred cloud: systematic block 0
    if kind == "crash":
        down.failures.add_outage(outage_start, OUTAGE_SECONDS)
    elif kind == "hang":
        down.failures.add_outage(outage_start, OUTAGE_SECONDS,
                                 kind=FaultKind.DEGRADED, factor=HANG_FACTOR)
    else:
        raise ValueError(f"unknown outage kind {kind!r}")
    outage_end = down.failures.next_transition(outage_start)

    outage_reads: list[float] = []
    recovery_reads: list[float] = []
    recovery_paths: list[str] = []
    while sim.now() < outage_end + RECOVERY_SECONDS:
        in_outage = sim.now() < outage_end
        start = sim.now()
        result = client.read_matching("unit-outage", record.data_digest, record)
        elapsed = sim.now() - start
        if in_outage:
            outage_reads.append(elapsed)
        else:
            recovery_reads.append(elapsed)
            recovery_paths.append(result.path)
        sim.advance(READ_GAP)

    return {
        "outage_reads": outage_reads,
        "recovery_reads": recovery_reads,
        "recovery_paths": recovery_paths,
        "health": client.health.stats if client.health is not None else None,
        "suspected_at_end": (client.health.suspected_clouds()
                             if client.health is not None else ()),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def test_outage_recovery_sweep(run_once, capsys):
    results = run_once(lambda: {
        (kind, "suspect" if suspicion else "timeout"): _run_outage_scenario(kind, suspicion)
        for kind in OUTAGE_KINDS
        for suspicion in (False, True)
    })

    rows = []
    for (kind, policy_name), result in results.items():
        outage = result["outage_reads"]
        health = result["health"]
        rows.append([
            kind, policy_name, len(outage),
            outage[0] if outage else 0.0, _mean(outage[1:]),
            _mean(result["recovery_reads"]),
            health.suspicions if health else "-",
            health.probes if health else "-",
            health.recoveries if health else "-",
        ])
    with capsys.disabled():
        print()
        print(render_table(
            f"Outage-recovery sweep ({OUTAGE_SECONDS:.0f} s outage of one preferred cloud, "
            f"timeout {REQUEST_TIMEOUT} s, reads every {READ_GAP} s)",
            ["outage", "policy", "reads", "read 1", "mean 2..N",
             "mean post-outage", "suspicions", "probes", "recoveries"],
            rows, float_format="{:.3f}"))

    for kind in OUTAGE_KINDS:
        tracked = results[(kind, "suspect")]
        untracked = results[(kind, "timeout")]
        # The acceptance bar: with one preferred cloud down, suspicion makes
        # the 2nd..Nth reads strictly cheaper than re-probing the dead cloud.
        assert _mean(tracked["outage_reads"][1:]) < _mean(untracked["outage_reads"][1:]), kind
        health = tracked["health"]
        assert health is not None and health.suspicions >= 1
        # The outage ends, a background probe succeeds, the cloud recovers...
        assert health.probes >= 1 and health.recoveries >= 1, kind
        assert tracked["suspected_at_end"] == ()
        # ...and post-recovery reads return to the preferred (systematic) path.
        assert tracked["recovery_paths"][-1] == "systematic", kind

    # Under a hang, every untracked read burns at least the full per-request
    # timeout waiting for the dead preferred cloud; demotion collapses the
    # steady-state read back under the timeout.
    hang_untracked = results[("hang", "timeout")]["outage_reads"]
    hang_tracked = results[("hang", "suspect")]["outage_reads"]
    assert _mean(hang_untracked[1:]) > REQUEST_TIMEOUT
    assert _mean(hang_tracked[2:]) < REQUEST_TIMEOUT

    record_bench("quorum", {
        "hang_untracked_mean_s": round(_mean(hang_untracked[1:]), 4),
        "hang_suspect_mean_s": round(_mean(hang_tracked[1:]), 4),
        "crash_suspect_mean_s": round(
            _mean(results[("crash", "suspect")]["outage_reads"][1:]), 4),
    })


# --------------------------------------------------------------------------
# Weighted-quorum frontier: cost x latency of weighted vs threshold quorums
# under heterogeneous pricing and a DEGRADED gray failure (Figure 11 style).
# --------------------------------------------------------------------------

FRONTIER_READS = 16 if FAST else 48
FRONTIER_WARMUP = 5
FRONTIER_SCHEDULES = ("healthy", "degraded")
#: The gray-failed provider of the degraded schedule, as an index into the
#: client's preferred order: a *systematic* cloud, so the classic threshold
#: read pays its straggler latency on every call.
FRONTIER_STRAGGLER = 0

#: Heterogeneous per-provider pricing: the US pair charges the most per
#: request and per GB.  The systematic blocks sit on the fast, cheap UK pair,
#: but a threshold read still asks every cloud for the head while the planner
#: asks the cheapest certificate — the planner's opportunity.
FRONTIER_PRICING: dict[str, StoragePricing] = {
    "amazon-s3": StoragePricing(outbound_gb=0.19, get_request=0.00001),
    "google-storage": StoragePricing(outbound_gb=0.13, get_request=0.000005),
    "rackspace-files": StoragePricing(outbound_gb=0.09, get_request=0.000004),
    "windows-azure": StoragePricing(outbound_gb=0.10, get_request=0.000004),
}

#: Trust weights of the weighted arm (the heavy provider cannot certify alone).
FRONTIER_WEIGHTS = (("amazon-s3", 1.2), ("google-storage", 1.0),
                    ("rackspace-files", 1.0), ("windows-azure", 1.0))


def _make_frontier_clouds(sim: Simulation) -> list[EventuallyConsistentStore]:
    clouds = []
    for name in COC_STORAGE_PROVIDERS:
        profile = PROVIDER_PROFILES[name]
        clouds.append(EventuallyConsistentStore(
            sim, name=name, profile=profile.network.with_jitter(JITTER),
            pricing=FRONTIER_PRICING[name]))
    return clouds


def _run_frontier_arm(arm: str, schedule: str, seed: int = 17) -> dict:
    sim = Simulation(seed=seed)
    clouds = _make_frontier_clouds(sim)
    if arm not in ("threshold", "weighted"):
        raise ValueError(f"unknown frontier arm {arm!r}")
    # A weighted system gets the client's cost × latency planner.
    system = quorum_system(COC_STORAGE_PROVIDERS, 1,
                           FRONTIER_WEIGHTS if arm == "weighted" else ())

    client = DepSkyClient(sim, clouds, Principal("bench-user"), f=1, policy=SUSPICION,
                          quorum=system)
    payload = bytes((i * 73) % 256 for i in range(PAYLOAD))
    client.write("unit-frontier", payload)
    sim.advance(3.0)
    # Warm the latency EWMAs (and, under the degraded schedule, let them see
    # the straggler) before the measured window.
    if schedule == "degraded":
        client.clouds[FRONTIER_STRAGGLER].failures.add(
            FaultKind.DEGRADED, start=sim.now(), factor=DEGRADED_FACTOR)
    elif schedule != "healthy":
        raise ValueError(f"unknown frontier schedule {schedule!r}")
    for _ in range(FRONTIER_WARMUP):
        client.read_latest("unit-frontier")
        sim.advance(READ_GAP)

    def spent() -> float:
        return sum(cloud.costs.request_cost() + cloud.costs.traffic_cost()
                   for cloud in clouds)

    baseline = spent()
    latencies = []
    for _ in range(FRONTIER_READS):
        start = sim.now()
        client.read_latest("unit-frontier")
        latencies.append(sim.now() - start)
        sim.advance(READ_GAP)
    dollars = spent() - baseline
    return {
        "latencies": latencies,
        "cost": dollars,
        "cost_per_read": dollars / FRONTIER_READS,
        "mean_latency": _mean(latencies),
    }


def test_weighted_quorum_frontier(run_once, capsys):
    results = run_once(lambda: {
        (schedule, arm): _run_frontier_arm(arm, schedule)
        for schedule in FRONTIER_SCHEDULES
        for arm in ("threshold", "weighted")
    })

    rows = []
    for (schedule, arm), result in results.items():
        rows.append([
            schedule, arm,
            result["mean_latency"], percentile(result["latencies"], 99),
            result["cost_per_read"] * 1e3,
            result["mean_latency"] * result["cost_per_read"] * 1e3,
        ])
    with capsys.disabled():
        print()
        print(render_table(
            f"Weighted-quorum frontier ({FRONTIER_READS} reads of 256K, "
            "heterogeneous pricing, straggler = systematic cloud)",
            ["schedule", "quorums", "read mean", "read p99",
             "m$/read", "m$*s/read"],
            rows, float_format="{:.3f}"))

    def product(schedule: str, arm: str) -> float:
        result = results[(schedule, arm)]
        return result["mean_latency"] * result["cost_per_read"]

    # Weighted quorums strictly dominate the threshold layout on the cost x
    # latency frontier: cheaper *and* no slower when healthy (the planner
    # asks the cheap providers for the head instead of every cloud), and
    # both cheaper and faster under the gray failure
    # (the straggler is planned around instead of waited out or hedged).
    for schedule in FRONTIER_SCHEDULES:
        threshold, weighted = results[(schedule, "threshold")], results[(schedule, "weighted")]
        assert weighted["cost_per_read"] < threshold["cost_per_read"], schedule
        assert weighted["mean_latency"] < 1.05 * threshold["mean_latency"], schedule
    assert product("degraded", "weighted") < product("degraded", "threshold")

    # The CI-gated headline: how many times more cost x latency the classic
    # threshold quorums burn versus weighted planning under the gray failure.
    ratio = product("degraded", "threshold") / product("degraded", "weighted")
    assert ratio > 1.0
    record_bench("quorum", {
        "weighted_quorum_cost_ratio": round(ratio, 3),
        "frontier_weighted_degraded_read_s": round(
            results[("degraded", "weighted")]["mean_latency"], 4),
        "frontier_threshold_degraded_read_s": round(
            results[("degraded", "threshold")]["mean_latency"], 4),
    })
