"""The scenario runner: drive N agents through one seed-derived scenario.

A :class:`ScenarioRunner` deploys the spec's Table 2 variant on a fresh
:class:`~repro.simenv.environment.Simulation`, mounts one agent per
:class:`~repro.scenarios.spec.AgentSpec` with the trace recorder attached to
every hook (agent events, lock transitions, DepSky quorum calls, health
transitions), then executes the interleaved workload while switching fault
phases on and off at their op-index anchors.  Afterwards it drains all
background work, unmounts, fingerprints the trace and runs the invariant
checkers.

Determinism contract: everything the runner does is derived from the spec's
seed through :func:`~repro.simenv.environment.derive_rng` forks — per-agent
workload streams, the interleaving stream and the think-time stream are all
independent, so a same-seed rerun reproduces the trace byte for byte
(:meth:`ScenarioResult.fingerprint`).

Two scheduling modes exist (``spec.scheduling``):

* ``"lockstep"`` — the classic global round robin: one shared RNG picks which
  agent issues the next operation, operations never overlap in virtual time.
* ``"event-driven"`` — every agent is a task on the simulation's event heap;
  an agent finishes one operation, sleeps a per-agent think time and wakes up
  again.  Operations are still atomic on the virtual clock: a step (or an
  upload) that falls due during another's operation runs after it, late.
  This is the mode that scales to 1000+ agents.

Pooled scenarios (``spec.pooled``) skip the per-file setup traffic entirely:
:func:`~repro.scenarios.pool.prime_pool` installs the shared files directly
into the clouds and the coordination replicas with world grants, so a run can
start against a 10^5-file namespace in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import (
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    IsADirectoryErrorFS,
    LockHeldError,
    PermissionDeniedError,
    ReproError,
    TransactionAbortedError,
    TransactionConflictError,
)
from repro.common.types import Permission
from repro.core.backend import CloudOfCloudsBackend
from repro.core.deployment import SCFSDeployment
from repro.scenarios.invariants import Violation, check_all
from repro.scenarios.pool import prime_pool
from repro.scenarios.spec import FaultPhase, ScenarioSpec, agent_name
from repro.scenarios.trace import TraceRecorder
from repro.simenv.environment import Simulation, derive_rng
from repro.simenv.failures import FaultKind, FaultWindow

#: Errors that are legitimate outcomes of a racing workload (lock conflicts,
#: reads of not-yet/no-longer existing files, transactions that lost their
#: race and gave up); anything else is surfaced by the ``unexpected-error``
#: pseudo-invariant.
BENIGN_ERRORS = (
    LockHeldError,
    FileNotFoundErrorFS,
    FileExistsErrorFS,
    PermissionDeniedError,
    IsADirectoryErrorFS,
    TransactionAbortedError,
    TransactionConflictError,
)


def _payload(size: int, tag: int) -> bytes:
    """Deterministic, cheap, content-distinct payload of ``size`` bytes."""
    pattern = bytes((i * 131 + tag * 17 + 7) % 256 for i in range(min(size, 512)))
    repeats = size // len(pattern) + 1
    return (pattern * repeats)[:size]


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    trace: TraceRecorder
    fingerprint: str
    violations: list[Violation] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def report(self) -> str:
        """Human-readable outcome, including the repro command on failure."""
        lines = [
            f"scenario seed={self.spec.seed} mix={self.spec.mix} "
            f"variant={self.spec.variant}: "
            f"{len(self.trace)} events, fingerprint {self.fingerprint[:16]}…",
            "stats: " + ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items())),
        ]
        if self.violations:
            lines.append(f"{len(self.violations)} invariant violation(s):")
            lines += [f"  {v}" for v in self.violations]
            lines.append(f"rerun this exact trace with: {self.spec.repro_command()}")
        else:
            lines.append("all invariants held")
        return "\n".join(lines)


class ScenarioRunner:
    """Execute one :class:`ScenarioSpec` and check its history."""

    def __init__(self, spec: ScenarioSpec):
        spec.validate()
        self.spec = spec
        #: Agents currently crashed (name -> crash time); their ops are
        #: skipped until the fault phase ends and the agent remounts.
        self._crashed: dict[str, float] = {}

    # ------------------------------------------------------------------ setup

    def _wire_agent(self, deployment: SCFSDeployment, name: str,
                    recorder: TraceRecorder) -> None:
        backend = deployment.create_agent(name, events=recorder.record).backend
        if isinstance(backend, CloudOfCloudsBackend):
            backend.client.on_quorum = recorder.quorum_sink(name, deployment.sim)
        if backend.health is not None:
            backend.health.on_transition = recorder.health_sink(name)

    def _setup_files(self, deployment: SCFSDeployment,
                     recorder: TraceRecorder) -> None:
        """First agent creates the shared pool and grants everyone access."""
        spec = self.spec
        owner = deployment.agent_for(spec.agents[0].name)
        owner.mkdir("/shared", shared=True)
        for index, path in enumerate(spec.shared_files):
            owner.write_file(path, _payload(256, tag=index), shared=True)
            for other in spec.agents[1:]:
                owner.setfacl(path, other.name, Permission.READ_WRITE)
        recorder.record("setup_done", time=deployment.sim.now(),
                        files=list(spec.shared_files))
        deployment.drain(2.0)

    # ------------------------------------------------------------------ faults

    def _fault_actions(self) -> dict[int, list[tuple[str, FaultPhase]]]:
        """Map op index -> fault (start|end) actions due before that op."""
        total = max(1, self.spec.total_ops)
        actions: dict[int, list[tuple[str, FaultPhase]]] = {}
        for phase in self.spec.faults:
            start = min(total - 1, int(phase.start_frac * total))
            end = int(phase.end_frac * total)
            actions.setdefault(start, []).append(("start", phase))
            if end < total:
                actions.setdefault(end, []).append(("end", phase))
        return actions

    def _apply_fault(self, deployment: SCFSDeployment, recorder: TraceRecorder,
                     action: str, phase: FaultPhase,
                     live: dict[FaultPhase, FaultWindow]) -> None:
        now = deployment.sim.now()
        target_kind, _, index_text = phase.target.partition(":")
        index = int(index_text)
        if target_kind == "cloud":
            schedule = deployment.clouds[index].failures
            if action == "start":
                window = FaultWindow(FaultKind(phase.kind), start=now,
                                     end=float("inf"), factor=phase.factor)
                schedule.windows.append(window)
                live[phase] = window
            else:
                window = live.pop(phase, None)
                if window is not None:
                    schedule.windows.remove(window)
                    # Keep the bounded window on record: the durability checker
                    # consults `is_active` at each version's commit time.  Tasks
                    # that ran while the clock advanced *to* `now` (background
                    # uploads, probes) still saw the fault, so the recorded end
                    # sits just past `now` (windows are end-exclusive).
                    schedule.add(window.kind, start=window.start,
                                 end=math.nextafter(now, math.inf),
                                 factor=window.factor)
        elif target_kind == "agent":
            name = agent_name(index)
            if action == "start":
                deployment.agent_for(name).crash()
                self._crashed[name] = now
                recorder.record("agent_crash", agent=name, time=now,
                                lease=self.spec.config.lock_lease)
            else:
                # Restart = a fresh mount.  The remount happens only after the
                # crashed session's lock leases ran out (a human restarting a
                # machine takes longer than a lease), which is the takeover
                # window the lease-aware mutual-exclusion checker models.
                crashed_at = self._crashed.pop(name, now)
                expiry = crashed_at + self.spec.config.lock_lease + 1.0
                if deployment.sim.now() < expiry:
                    deployment.sim.advance(expiry - deployment.sim.now())
                self._wire_agent(deployment, name, recorder)
                recorder.record("agent_restart", agent=name,
                                time=deployment.sim.now(), crashed_at=crashed_at)
        else:
            service = deployment.coordination
            if action == "start":
                service.fail_replica(index)
            else:
                service.recover_replica(index)
        if action == "start":
            recorder.record("fault_start", time=now, target=phase.target,
                            fault=phase.kind, factor=phase.factor)
        else:
            recorder.record("fault_end", time=now, target=phase.target,
                            fault=phase.kind, factor=phase.factor)

    # ------------------------------------------------------------------ workload

    def _agent_ops(self, agent_name: str, count: int, mix) -> list[tuple[str, str, int]]:
        """The agent's op list: (kind, path, size), from its forked stream."""
        rng = derive_rng(self.spec.seed, f"agent:{agent_name}")
        total_weight = sum(weight for _op, weight in mix.weights)
        ops = []
        for _ in range(count):
            draw = rng.random() * total_weight
            kind = mix.weights[-1][0]
            for op, weight in mix.weights:
                if draw < weight:
                    kind = op
                    break
                draw -= weight
            path = self.spec.shared_files[rng.randrange(len(self.spec.shared_files))]
            size = rng.randrange(mix.min_size, mix.max_size + 1)
            ops.append((kind, path, size))
        return ops

    def _txn_files(self, path: str, size: int) -> list[str]:
        """The 2-3 consecutive shared files a txn op touches (wrap-around)."""
        shared = self.spec.shared_files
        start = shared.index(path)
        width = min(2 + (size % 2), len(shared))
        return [shared[(start + i) % len(shared)] for i in range(width)]

    def _run_op(self, deployment: SCFSDeployment, recorder: TraceRecorder,
                agent_name: str, op: tuple[str, str, int], tag: int,
                stats: dict[str, int]) -> None:
        kind, path, size = op
        if agent_name in self._crashed:
            # A crashed agent issues nothing until its restart; the op index
            # still advances so fault anchors stay comparable across mixes.
            stats["ops_skipped_crashed"] = stats.get("ops_skipped_crashed", 0) + 1
            return
        fs = deployment.agent_for(agent_name)
        stats[f"op:{kind}"] = stats.get(f"op:{kind}", 0) + 1
        try:
            if kind == "write":
                existed = fs.exists(path)
                handle = fs.open(path, "w", shared=True)
                fs.write(handle, _payload(size, tag))
                fs.close(handle)
                if not existed and not self.spec.pooled:
                    # The (re)creator owns the file: re-grant the other agents.
                    # Pooled files carry a world grant and are never unlinked,
                    # so the per-agent re-grant loop (quadratic in the agent
                    # count) never applies to them.
                    for other in self.spec.agents:
                        if other.name != agent_name:
                            fs.setfacl(path, other.name, Permission.READ_WRITE)
            elif kind == "read":
                fs.read_file(path)
            elif kind == "append":
                fs.append_file(path, _payload(min(size, 256), tag))
            elif kind == "fsync":
                handle = fs.open(path, "r+")
                fs.write(handle, _payload(min(size, 256), tag), 0)
                fs.fsync(handle)
                fs.close(handle)
            elif kind == "stat":
                fs.stat(path)
            elif kind == "unlink":
                meta = fs.stat(path)
                if meta.owner == agent_name:
                    fs.unlink(path)
            elif kind == "gc":
                fs.collect_garbage()
            elif kind in ("txn", "txn_read"):
                # The file set is a deterministic function of (path, size):
                # 2-3 consecutive shared files starting at `path`, wrapping
                # around — overlapping sets are what makes transactions
                # actually conflict.  No extra RNG draws, so the op streams
                # of the existing mixes are untouched.
                files = self._txn_files(path, size)
                read_only = kind == "txn_read"

                def body(txn) -> None:
                    for file_path in files:
                        txn.read(file_path)
                    if not read_only:
                        for offset, file_path in enumerate(files):
                            txn.write(file_path,
                                      _payload(size, tag * 7 + offset))

                fs.run_transaction(body)
            else:  # pragma: no cover - spec.validate rejects unknown kinds
                raise ValueError(f"unknown op kind {kind!r}")
        except BENIGN_ERRORS as exc:
            stats["benign_errors"] = stats.get("benign_errors", 0) + 1
            recorder.record("op_error", agent=agent_name, time=deployment.sim.now(),
                            op=kind, path=path, benign=True,
                            error=f"{type(exc).__name__}: {exc}")
        except (ReproError, ValueError) as exc:
            stats["unexpected_errors"] = stats.get("unexpected_errors", 0) + 1
            recorder.record("op_error", agent=agent_name, time=deployment.sim.now(),
                            op=kind, path=path, benign=False,
                            error=f"{type(exc).__name__}: {exc}")

    # -------------------------------------------------------------- scheduling

    def _run_lockstep(self, deployment: SCFSDeployment, recorder: TraceRecorder,
                      queues: dict[str, list], actions, live_windows, stats) -> None:
        """The classic global round robin: one op at a time, shared RNG picks."""
        sim = deployment.sim
        order = derive_rng(self.spec.seed, "interleave")
        index = 0
        remaining = [a.name for a in self.spec.agents for _ in range(a.ops)]
        while remaining:
            for action, phase in actions.pop(index, ()):
                self._apply_fault(deployment, recorder, action, phase, live_windows)
            pick = order.randrange(len(remaining))
            agent_name = remaining.pop(pick)
            op = queues[agent_name].pop(0)
            self._run_op(deployment, recorder, agent_name, op, tag=index, stats=stats)
            # Think time: often none (back-to-back contention), sometimes long
            # enough for background uploads and probes to land mid-workload.
            if order.random() < 0.5:
                sim.advance(order.uniform(0.1, 2.0))
            index += 1

    def _run_event_driven(self, deployment: SCFSDeployment, recorder: TraceRecorder,
                          queues: dict[str, list], actions, live_windows, stats) -> None:
        """Drive every agent as a recurring task on the simulation's event heap.

        Each agent runs one operation, sleeps a think time drawn from its own
        forked stream and re-schedules itself; :meth:`Simulation.run_all`
        steps through the merged event sequence in deterministic ``(time,
        seq)`` order.  Operations advance the virtual clock while they run, so
        other agents' steps (and background uploads) that fall due meanwhile
        run once it returns, late: operations never overlap.  Fault phases
        stay anchored to the *global* op index (the order ops actually
        start), exactly as in lockstep mode.
        """
        sim = deployment.sim
        progress = {"index": 0}

        def make_step(agent_name: str, think) -> callable:
            def step() -> None:
                queue = queues[agent_name]
                if not queue:
                    return
                index = progress["index"]
                progress["index"] += 1
                for action, phase in actions.pop(index, ()):
                    self._apply_fault(deployment, recorder, action, phase, live_windows)
                op = queue.pop(0)
                self._run_op(deployment, recorder, agent_name, op, tag=index, stats=stats)
                if queue:
                    delay = think.uniform(0.1, 2.0) if think.random() < 0.5 else 0.001
                    sim.schedule(delay, step, name=f"agent-step:{agent_name}")
            return step

        for agent_spec in self.spec.agents:
            think = derive_rng(self.spec.seed, f"think:{agent_spec.name}")
            sim.schedule(think.uniform(0.0, 0.5), make_step(agent_spec.name, think),
                         name=f"agent-step:{agent_spec.name}")
        # Generous runaway guard: every op re-schedules at most one step, and
        # background work (uploads, probes, GC) stays proportional to the ops.
        sim.run_all(max_events=200 * max(1, self.spec.total_ops) + 10_000)

    # -------------------------------------------------------------------- run

    def run(self) -> ScenarioResult:
        """Execute the scenario; returns the checked :class:`ScenarioResult`."""
        spec = self.spec
        self._crashed = {}
        sim = Simulation(seed=spec.seed)
        deployment = SCFSDeployment(spec.config, sim=sim)
        recorder = TraceRecorder()
        stats: dict[str, int] = {}

        if spec.pooled:
            prime_pool(deployment, spec, recorder)
        for agent_spec in spec.agents:
            self._wire_agent(deployment, agent_spec.name, recorder)
        if not spec.pooled:
            self._setup_files(deployment, recorder)

        queues = {
            a.name: self._agent_ops(a.name, a.ops, a.mix) for a in spec.agents
        }
        actions = self._fault_actions()
        live_windows: dict[FaultPhase, FaultWindow] = {}

        if spec.scheduling == "event-driven":
            self._run_event_driven(deployment, recorder, queues, actions,
                                   live_windows, stats)
        else:
            self._run_lockstep(deployment, recorder, queues, actions,
                               live_windows, stats)
        # Close any fault window that is still open past the last op.
        for pending in sorted(actions):
            for action, phase in actions[pending]:
                if action == "end":
                    self._apply_fault(deployment, recorder, action, phase, live_windows)

        deployment.drain(5.0)
        deployment.unmount_all()
        deployment.drain(1.0)
        recorder.record("scenario_done", time=sim.now(), ops=spec.total_ops)

        stats["events"] = len(recorder)
        stats["quorum_calls"] = recorder.count("quorum")
        stats["commits"] = recorder.count("commit")
        stats["lock_acquisitions"] = recorder.count("lock")
        if recorder.count("txn_begin"):
            stats["txn_commits"] = recorder.count("txn_commit")
            stats["txn_aborts"] = recorder.count("txn_abort")
        fingerprint = recorder.fingerprint()
        violations = check_all(recorder, deployment,
                               staleness=spec.config.metadata_expiration,
                               lock_lease=spec.config.lock_lease)
        return ScenarioResult(spec=spec, trace=recorder, fingerprint=fingerprint,
                              violations=violations, stats=stats)


def run_scenario(seed: int, mix: str = "fault-free", agents: int = 3,
                 ops_per_agent: int = 10, variant: str | None = None) -> ScenarioResult:
    """Generate the spec for ``(seed, mix)`` and run it (the test entry point)."""
    spec = ScenarioSpec.generate(seed, mix=mix, agents=agents,
                                 ops_per_agent=ops_per_agent, variant=variant)
    return ScenarioRunner(spec).run()
