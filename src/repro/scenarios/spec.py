"""Declarative scenario specifications, derived from a single seed.

A :class:`ScenarioSpec` describes one multi-agent experiment completely:
which Table 2 variant to deploy, how many agents run which workload mix, and
which fault phases hit which storage clouds and coordination replicas.  The
whole spec is a pure function of ``(seed, mix, sizing)`` — calling
:meth:`ScenarioSpec.generate` twice with the same arguments yields equal
specs, and running a spec twice yields byte-identical traces (see
:mod:`repro.scenarios.trace`).

Fault phases are anchored to *operation indices* (fractions of the global op
sequence), not to absolute simulated times: simulated time stretches wildly
under DEGRADED windows, so op-indexed anchoring is what guarantees that a
fault actually overlaps live traffic in every scenario.

Every mix keeps the system inside its fault budget — at most ``f`` storage
clouds with a non-gray fault at any instant, and at most ``f`` faulty
coordination replicas — so the paper's guarantees are *supposed* to hold and
any invariant violation is a bug, not an over-injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import DispatchPolicyConfig, SCFSConfig
from repro.core.modes import VARIANTS
from repro.simenv.environment import derive_rng
from repro.simenv.failures import FaultKind

#: The fault mixes swept by ``tests/scenarios/test_random_scenarios.py``.
#: New mixes are appended (each mix derives its own RNG stream, so appending
#: never shifts the faults — or the pinned replay fingerprints — of the rest).
FAULT_MIXES: tuple[str, ...] = (
    "fault-free",
    "crash-hang",
    "corrupt-byzantine",
    "degraded-outage",
    "weighted-byzantine",
    "txn",
    "txn-crash-restart",
    "txn-partition",
)

#: Agent names, in creation order (index into this for the i-th agent).
AGENT_NAMES: tuple[str, ...] = ("alice", "bob", "carol", "dave", "erin", "frank")

#: How the runner interleaves the agents' operations (see ScenarioRunner).
SCHEDULING_MODES: tuple[str, ...] = ("lockstep", "event-driven")


def agent_name(index: int) -> str:
    """Name of the ``index``-th agent: the classic six, then synthetic ones."""
    if index < len(AGENT_NAMES):
        return AGENT_NAMES[index]
    return f"agent-{index:04d}"

#: Workload operation kinds and their meaning (see ScenarioRunner._run_op).
OP_KINDS: tuple[str, ...] = ("write", "read", "append", "fsync", "stat", "unlink", "gc",
                             "txn", "txn_read")


@dataclass(frozen=True)
class WorkloadMix:
    """Per-agent workload: weighted operation kinds plus payload sizing."""

    name: str = "general"
    #: ``(op, weight)`` pairs; ops are drawn proportionally to the weights.
    weights: tuple[tuple[str, float], ...] = (
        ("write", 4.0), ("read", 5.0), ("append", 2.0), ("fsync", 1.0),
        ("stat", 1.0), ("unlink", 0.5), ("gc", 0.3),
    )
    min_size: int = 64
    max_size: int = 4096

    def validate(self) -> None:
        """Reject unknown op kinds and non-positive sizing."""
        for op, weight in self.weights:
            if op not in OP_KINDS:
                raise ValueError(f"unknown workload op {op!r}")
            if weight < 0:
                raise ValueError(f"negative weight for {op!r}")
        if not 0 < self.min_size <= self.max_size:
            raise ValueError("payload sizes must satisfy 0 < min <= max")


#: The workload of the transactional mixes: dominated by multi-file
#: transactions and transactional reads, with enough plain traffic mixed in to
#: interleave anchor updates from both commit paths.  No unlink/gc — churn is
#: what the regular mixes cover; the txn mixes are about the commit protocol.
TXN_MIX = WorkloadMix(
    name="txn",
    weights=(
        ("txn", 3.0), ("txn_read", 2.0), ("write", 1.5), ("read", 2.0),
        ("append", 1.0), ("fsync", 0.5), ("stat", 0.5),
    ),
)


@dataclass(frozen=True)
class AgentSpec:
    """One simulated user: a name and a sized workload."""

    name: str
    ops: int
    mix: WorkloadMix = field(default_factory=WorkloadMix)


@dataclass(frozen=True)
class FaultPhase:
    """One fault window, anchored to fractions of the global op sequence.

    ``target`` is ``"cloud:<index>"``, ``"replica:<index>"`` or
    ``"agent:<index>"``.  For clouds, ``kind`` is a
    :class:`~repro.simenv.failures.FaultKind` value; for replicas it is
    ``"crash"``, ``"byzantine"`` or ``"partition"``; for agents it is
    ``"crash"`` (the phase end is the restart — a fresh mount after the
    crashed agent's lock leases expired).  The phase starts before the op at
    ``start_frac * total_ops`` and ends before the op at
    ``end_frac * total_ops`` (``end_frac >= 1`` keeps it active to the end).
    """

    target: str
    kind: str
    start_frac: float
    end_frac: float
    factor: float = 1.0

    def validate(self) -> None:
        kind, _, index = self.target.partition(":")
        if kind not in ("cloud", "replica", "agent") or not index.isdigit():
            raise ValueError(f"malformed fault target {self.target!r}")
        if not 0.0 <= self.start_frac < self.end_frac:
            raise ValueError("a fault phase needs start_frac < end_frac")
        if self.target.startswith("replica") and self.kind not in (
                "crash", "byzantine", "partition"):
            raise ValueError(f"unknown replica fault {self.kind!r}")
        if self.target.startswith("agent") and self.kind != "crash":
            raise ValueError(f"unknown agent fault {self.kind!r}")
        if self.target.startswith("cloud"):
            FaultKind(self.kind)  # raises ValueError on unknown kinds


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, seed-derived description of one multi-agent scenario."""

    seed: int
    mix: str
    agents: tuple[AgentSpec, ...]
    #: What every agent mounts with: the variant, dispatch, quorums, lease
    #: and the metadata-cache expiration the consistency-on-close checker
    #: allows as staleness (see :func:`scenario_config`).
    config: SCFSConfig
    faults: tuple[FaultPhase, ...] = ()
    shared_files: tuple[str, ...] = ()
    #: How agents interleave: "lockstep" (the classic global-RNG round robin)
    #: or "event-driven" (each agent is a task on the simulation's event heap).
    scheduling: str = "lockstep"
    #: Pooled scenarios skip per-file setup traffic: the shared files are
    #: *primed* directly into the clouds and the coordination service (with
    #: world grants) before the workload starts — the only way a run can hold
    #: 10^5+ files without paying one full write per file up front.
    pooled: bool = False

    @property
    def variant(self) -> str:
        """The Table 2 variant of :attr:`config`'s mode and backend."""
        return next(name for name, spec in VARIANTS.items()
                    if (spec.mode, spec.backend) == (self.config.mode, self.config.backend))

    @property
    def total_ops(self) -> int:
        """Number of workload operations across all agents."""
        return sum(agent.ops for agent in self.agents)

    def validate(self) -> None:
        """Check internal consistency (sizes, fault budget, known ops)."""
        if not self.agents:
            raise ValueError("a scenario needs at least one agent")
        if not self.shared_files:
            raise ValueError("a scenario needs at least one shared file")
        if self.mix not in FAULT_MIXES:
            raise ValueError(f"unknown fault mix {self.mix!r}")
        if self.scheduling not in SCHEDULING_MODES:
            raise ValueError(f"unknown scheduling mode {self.scheduling!r}; "
                             f"known modes: {SCHEDULING_MODES}")
        self.config.validate()
        for agent in self.agents:
            agent.mix.validate()
        for phase in self.faults:
            phase.validate()

    def repro_command(self) -> str:
        """Shell command that reruns exactly this scenario (same trace bytes):
        ``python -m repro.scenarios`` for a :meth:`generate` spec, a
        ``python -c`` call of :meth:`generate_scale` for a pooled one."""
        agents = len(self.agents)
        ops = self.agents[0].ops if self.agents else 0
        if self.pooled:
            directories = len({path.split("/")[1] for path in self.shared_files})
            spec = (f"ScenarioSpec.generate_scale({self.seed}, agents={agents}, "
                    f"files={len(self.shared_files)}, ops_per_agent={ops}, "
                    f"directories={directories}, mix={self.mix!r})")
            return (
                'PYTHONPATH=src python -c "'
                "from repro.scenarios.runner import ScenarioRunner; "
                "from repro.scenarios.spec import ScenarioSpec; "
                f'print(ScenarioRunner({spec}).run().report())"'
            )
        return (
            "PYTHONPATH=src python -m repro.scenarios "
            f"--seed {self.seed} --mix {self.mix} --agents {agents} --ops {ops} "
            f"--variant {self.variant}"
        )

    # ------------------------------------------------------------ generation

    @classmethod
    def generate(cls, seed: int, mix: str = "fault-free", agents: int = 3,
                 ops_per_agent: int = 10, variant: str | None = None,
                 shared_files: int = 4) -> "ScenarioSpec":
        """Derive a full scenario from one seed (pure: same inputs, same spec)."""
        if mix not in FAULT_MIXES:
            raise ValueError(f"unknown fault mix {mix!r}; known mixes: {FAULT_MIXES}")
        if agents < 1:
            raise ValueError("a scenario needs at least one agent")
        rng = derive_rng(seed, f"scenario:{mix}")
        # Always consume the variant draw, even when a variant is forced:
        # otherwise forcing one shifts the RNG stream and the fault phases of
        # a forced-variant rerun would differ from the run it reproduces.
        drawn = rng.choice(("SCFS-CoC-B", "SCFS-CoC-NB"))
        if variant is None:
            # Alternate the two sharing-capable CoC variants so the sweep
            # exercises both the blocking and the non-blocking close path.
            variant = drawn
        workload = TXN_MIX if mix.startswith("txn") else WorkloadMix()
        agent_specs = tuple(
            AgentSpec(name=agent_name(i), ops=ops_per_agent, mix=workload)
            for i in range(agents)
        )
        files = tuple(f"/shared/file-{i}.dat" for i in range(shared_files))
        faults, dispatch, weights = _faults_for_mix(mix, rng, agents=agents)
        # The crash-restart mix needs the crashed agent's leases to expire
        # within the scenario: a restart remounts only after the lease runs
        # out, so a 1-hour lease would park the run for an hour of simulated
        # time (and make lease-expiry takeover unobservable).
        lease = 25.0 if mix == "txn-crash-restart" else 3600.0
        spec = cls(
            seed=seed, mix=mix, agents=agent_specs, faults=faults, shared_files=files,
            config=scenario_config(variant, lease, dispatch=dispatch, quorum_weights=weights),
        )
        spec.validate()
        return spec

    @classmethod
    def generate_scale(cls, seed: int, agents: int = 1000, files: int = 100_000,
                       ops_per_agent: int = 20, directories: int = 32,
                       mix: str = "fault-free", partitions: int = 1) -> "ScenarioSpec":
        """A pooled, event-driven spec sized for the 1000+-agent scale sweep.

        The shared files live under ``directories`` top-level pool
        directories.  The workload touches existing files only
        (read/stat/write/append): file churn is what the regular mixes cover,
        scale is about many agents and a huge primed namespace.  One
        coordination service holds the namespace; ``partitions`` is accepted
        and ignored, for the layer benchmark that still passes it (ROADMAP
        item 1(m)).
        """
        if agents < 1 or files < 1 or directories < 1:
            raise ValueError("scale scenarios need at least one agent, file and directory")
        rng = derive_rng(seed, f"scenario:scale:{mix}")
        scale_mix = WorkloadMix(
            name="scale",
            weights=(("read", 5.0), ("stat", 2.0), ("write", 2.0), ("append", 1.0)),
            min_size=32, max_size=256,
        )
        agent_specs = tuple(
            AgentSpec(name=agent_name(i), ops=ops_per_agent, mix=scale_mix)
            for i in range(agents)
        )
        paths = tuple(
            f"/pool-{i % directories}/file-{i}.dat" for i in range(files)
        )
        faults, dispatch, weights = _faults_for_mix(mix, rng)
        # The hour-long lease outlives a scale run (hundreds of simulated
        # seconds), so no lock lapses mid-run.
        config = scenario_config("SCFS-CoC-NB", 3600.0, pooled=True, dispatch=dispatch,
                                 quorum_weights=weights)
        spec = cls(
            seed=seed, mix=mix, agents=agent_specs, faults=faults, shared_files=paths,
            config=config, scheduling="event-driven", pooled=True,
        )
        spec.validate()
        return spec


def scenario_config(variant: str, lock_lease: float, pooled: bool = False,
                    dispatch: DispatchPolicyConfig | None = None,
                    quorum_weights: tuple[tuple[str, float], ...] = ()) -> SCFSConfig:
    """The :class:`SCFSConfig` every agent of a generated scenario mounts with.

    A long lock lease keeps lease expiry out of scope (DEGRADED windows
    stretch simulated time far beyond the 30 s default, and lease-based lock
    stealing would make the mutual-exclusion invariant vacuous); the
    crash-restart mix shrinks it so a crashed agent's locks expire mid-run.
    An 8 KiB GC threshold makes the collector run mid-scenario (an agent of
    a 25-op run pushes at most about 85 KB, so 256 KiB never triggered it).
    ``dispatch`` left None keeps the variant's default.
    """
    overrides = {"gc_threshold": 8 * 1024}
    if pooled:
        # Pooled scenarios run no automatic collection: the collector's
        # owned-paths scan is a full namespace listing, which would be the
        # single super-linear operation of a 10^5-file run.  Primed files
        # share one plaintext pool payload; without the per-version random
        # key their coded blocks are byte-identical, so priming can store
        # *one* shared blob per block index.
        overrides = {"gc_threshold": math.inf, "encrypt_data": False}
    if dispatch is not None:
        overrides["dispatch"] = dispatch
    return SCFSConfig.for_variant(variant, lock_lease=lock_lease,
                                  quorum_weights=quorum_weights, **overrides)


def _two_clouds(rng, n: int = 4) -> tuple[int, int]:
    """Two distinct cloud indices."""
    first = rng.randrange(n)
    second = rng.randrange(n - 1)
    if second >= first:
        second += 1
    return first, second


#: Dispatch of the mixes that exercise the health stack: per-request timeouts,
#: a retry, and suspect-list tracking with quick probe recovery.
_TRACKED_DISPATCH = DispatchPolicyConfig(
    timeout=8.0, retries=1, suspicion_threshold=2,
    probe_backoff=5.0, probe_backoff_factor=2.0, probe_backoff_max=60.0,
)


def _faults_for_mix(mix: str, rng, agents: int = 3) -> tuple[tuple[FaultPhase, ...],
                                                             DispatchPolicyConfig | None,
                                                             tuple[tuple[str, float], ...]]:
    """Build the fault phases (and dispatch policy and quorum weights) of one named mix.

    Windows of *failing* kinds (unavailable, corruption, byzantine,
    drop-writes, and timed-out hangs) are kept disjoint in op-fraction space
    so at most one storage cloud is non-gray-faulty at a time (f = 1); gray
    DEGRADED windows may overlap anything.
    """
    if mix == "fault-free":
        return (), None, ()

    if mix == "crash-hang":
        crashed, hung = _two_clouds(rng)
        replica = rng.randrange(4)
        start = rng.uniform(0.10, 0.20)
        return (
            FaultPhase(f"cloud:{crashed}", FaultKind.UNAVAILABLE.value,
                       start_frac=start, end_frac=start + rng.uniform(0.15, 0.30)),
            FaultPhase(f"cloud:{hung}", FaultKind.DEGRADED.value,
                       start_frac=rng.uniform(0.55, 0.65),
                       end_frac=rng.uniform(0.75, 0.90),
                       factor=rng.uniform(15.0, 40.0)),
            FaultPhase(f"replica:{replica}", "crash",
                       start_frac=rng.uniform(0.20, 0.40),
                       end_frac=rng.uniform(0.60, 0.80)),
        ), None, ()

    if mix == "corrupt-byzantine":
        # One *persistently adversarial* cloud misbehaves in three different
        # ways over the run.  Corruption and dropped writes damage data *at
        # rest*, so spreading these kinds across clouds would leave more than
        # ``f`` clouds holding bad copies of some version — outside the fault
        # budget the protocols promise to tolerate.  One adversary keeps every
        # version's total damage within f = 1.
        adversary = rng.randrange(4)
        replica = rng.randrange(4)
        return (
            FaultPhase(f"cloud:{adversary}", FaultKind.CORRUPTION.value,
                       start_frac=rng.uniform(0.08, 0.15),
                       end_frac=rng.uniform(0.25, 0.35)),
            FaultPhase(f"cloud:{adversary}", FaultKind.BYZANTINE.value,
                       start_frac=rng.uniform(0.40, 0.50),
                       end_frac=rng.uniform(0.58, 0.68)),
            FaultPhase(f"cloud:{adversary}", FaultKind.DROP_WRITES.value,
                       start_frac=rng.uniform(0.72, 0.80),
                       end_frac=rng.uniform(0.85, 0.95)),
            FaultPhase(f"replica:{replica}", "byzantine",
                       start_frac=rng.uniform(0.25, 0.45),
                       end_frac=rng.uniform(0.55, 0.75)),
        ), None, ()

    if mix == "degraded-outage":
        # Exercise the PR 2/3 dispatch + health stack: per-request timeouts,
        # a retry, and suspect-list tracking with quick probe recovery.  The
        # outage ends mid-scenario so probe-driven recovery is on the trace.
        downed, straggler = _two_clouds(rng)
        return (
            FaultPhase(f"cloud:{downed}", FaultKind.UNAVAILABLE.value,
                       start_frac=rng.uniform(0.12, 0.20),
                       end_frac=rng.uniform(0.38, 0.48)),
            FaultPhase(f"cloud:{straggler}", FaultKind.DEGRADED.value,
                       start_frac=rng.uniform(0.55, 0.65),
                       end_frac=rng.uniform(0.80, 0.92),
                       factor=rng.uniform(4.0, 8.0)),
        ), _TRACKED_DISPATCH, ()

    if mix == "weighted-byzantine":
        # The weighted-quorum mix: the *heaviest* provider turns adversarial.
        # Weights model unequal provider trust (amazon-s3 carries 1.2, the
        # rest 1.0); any f = 1 cloud may fail, so the fault budget is the
        # heaviest weight, 1.2 — the heavy provider alone may misbehave, yet
        # no single cloud, however heavy, can certify a version by itself
        # (the certificate bar sits exactly at the budget).  The
        # adversary corrupts data at rest early and turns fully Byzantine
        # later (disjoint windows, one adversarial cloud: f-budget intact);
        # a light provider gray-fails on top and a coordination replica turns
        # Byzantine, so the weighted certificates are exercised while both
        # suspicion tracking and EWMA-fed latency estimates are live.
        light = 1 + rng.randrange(3)
        replica = rng.randrange(4)
        weights = (("amazon-s3", 1.2), ("google-storage", 1.0),
                   ("rackspace-files", 1.0), ("windows-azure", 1.0))
        return (
            FaultPhase("cloud:0", FaultKind.CORRUPTION.value,
                       start_frac=rng.uniform(0.10, 0.18),
                       end_frac=rng.uniform(0.28, 0.38)),
            FaultPhase("cloud:0", FaultKind.BYZANTINE.value,
                       start_frac=rng.uniform(0.46, 0.54),
                       end_frac=rng.uniform(0.64, 0.76)),
            FaultPhase(f"cloud:{light}", FaultKind.DEGRADED.value,
                       start_frac=rng.uniform(0.55, 0.65),
                       end_frac=rng.uniform(0.80, 0.92),
                       factor=rng.uniform(4.0, 8.0)),
            FaultPhase(f"replica:{replica}", "byzantine",
                       start_frac=rng.uniform(0.25, 0.45),
                       end_frac=rng.uniform(0.55, 0.75)),
        ), _TRACKED_DISPATCH, weights

    if mix == "txn":
        # The baseline transactional mix: concurrent multi-file transactions
        # racing plain writes, with the usual storage-side weather — a cloud
        # outage, a gray straggler, and a crashed coordination replica — so
        # commits retry and abort while the fault budget stays at f = 1.
        downed, straggler = _two_clouds(rng)
        replica = rng.randrange(4)
        return (
            FaultPhase(f"cloud:{downed}", FaultKind.UNAVAILABLE.value,
                       start_frac=rng.uniform(0.12, 0.20),
                       end_frac=rng.uniform(0.35, 0.45)),
            FaultPhase(f"cloud:{straggler}", FaultKind.DEGRADED.value,
                       start_frac=rng.uniform(0.55, 0.65),
                       end_frac=rng.uniform(0.78, 0.90),
                       factor=rng.uniform(4.0, 8.0)),
            FaultPhase(f"replica:{replica}", "crash",
                       start_frac=rng.uniform(0.25, 0.40),
                       end_frac=rng.uniform(0.60, 0.75)),
        ), None, ()

    if mix == "txn-crash-restart":
        # One agent crashes mid-transaction holding write locks and remounts
        # after its leases expired; the survivors' commits must take over the
        # expired locks without ever forking a version.  No DEGRADED window:
        # its simulated-time stretch would dwarf the 25 s lease and make the
        # crash/lease timeline meaningless.
        victim = rng.randrange(agents)
        downed = rng.randrange(4)
        replica = rng.randrange(4)
        return (
            FaultPhase(f"agent:{victim}", "crash",
                       start_frac=rng.uniform(0.20, 0.30),
                       end_frac=rng.uniform(0.55, 0.70)),
            FaultPhase(f"cloud:{downed}", FaultKind.UNAVAILABLE.value,
                       start_frac=rng.uniform(0.45, 0.55),
                       end_frac=rng.uniform(0.70, 0.85)),
            FaultPhase(f"replica:{replica}", "crash",
                       start_frac=rng.uniform(0.10, 0.18),
                       end_frac=rng.uniform(0.35, 0.50)),
        ), None, ()

    if mix == "txn-partition":
        # Nemesis-style coordination partitions: two sequential windows each
        # cut one (different) replica off from the clients — a minority
        # partition of the n = 4, f = 1 ensemble, so the 3-replica quorum
        # stays reachable and commits keep linearizing.  Healing is state
        # transfer from the quorum.  A cloud outage overlaps the second
        # window to stack storage-side and coordination-side degradation.
        first = rng.randrange(4)
        second = rng.randrange(3)
        if second >= first:
            second += 1
        downed = rng.randrange(4)
        return (
            FaultPhase(f"replica:{first}", "partition",
                       start_frac=rng.uniform(0.10, 0.18),
                       end_frac=rng.uniform(0.30, 0.42)),
            FaultPhase(f"replica:{second}", "partition",
                       start_frac=rng.uniform(0.50, 0.58),
                       end_frac=rng.uniform(0.72, 0.85)),
            FaultPhase(f"cloud:{downed}", FaultKind.UNAVAILABLE.value,
                       start_frac=rng.uniform(0.55, 0.62),
                       end_frac=rng.uniform(0.75, 0.88)),
        ), None, ()

    raise ValueError(f"unknown fault mix {mix!r}")
