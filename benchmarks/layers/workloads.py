"""The five workloads, each as one *pass*: set up, warm up, measure, verify.

A pass runs in a fresh child process (``run.py --child``) against the
unmodified ``src/repro``.  Closed loop, one driver, one thread: the next call
is issued when the previous one returned.  Every user-visible call goes through
:meth:`Pass.op`, which stamps it on both clocks (``sim_*`` =
``Simulation.now()`` seconds, ``host_*`` = ``time.perf_counter()``) and — in a
traced pass — opens the root span the per-layer ledger hangs from.  Payloads
come from the seed, are unique per round (content-addressed caches must miss)
and are generated outside the timers.
"""

from __future__ import annotations

import hashlib
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.common.errors import ReproError, TransactionAbortedError
from repro.common.types import Permission
from repro.core.config import DispatchPolicyConfig
from repro.core.deployment import SCFSDeployment
from repro.core.filesystem import SCFSFileSystem
from repro.simenv.failures import FaultKind

import ledger
from tracer import DRIVER, Tracer

MIB = 1 << 20

#: Dispatch policy of ``faulty_1m`` (the timeout is 10x a healthy 512 KiB PUT).
FAULTY_DISPATCH = {"timeout": 2.0, "retries": 1, "hedge_delay": 0.25,
                   "suspicion_threshold": 3}
#: Latency multiplier of the DEGRADED phase of ``faulty_1m``.
FAULTY_DEGRADATION = 8.0


@dataclass(frozen=True)
class Size:
    """How much work one pass of a workload does (full, and ~1/20 for ``--smoke``)."""

    full: dict[str, int]
    smoke: dict[str, int]


SIZES: dict[str, Size] = {
    "bulk_16m": Size({"rounds": 8, "bytes": 16 * MIB}, {"rounds": 1, "bytes": 16 * MIB}),
    "faulty_1m": Size({"rounds": 102, "bytes": MIB}, {"rounds": 6, "bytes": MIB}),
    "meta_small": Size({"iterations": 2000, "min_bytes": 8 * 1024, "max_bytes": 24 * 1024},
                       {"iterations": 104, "min_bytes": 8 * 1024, "max_bytes": 24 * 1024}),
    "txn_hot": Size({"transactions": 400, "bytes": 4096, "agents": 4, "files": 8},
                    {"transactions": 20, "bytes": 4096, "agents": 4, "files": 8}),
    "scale_200": Size({"agents": 200, "files": 20_000, "ops_per_agent": 25},
                      {"agents": 20, "files": 1_000, "ops_per_agent": 12}),
}

#: Payload bytes the kernel probes use per workload (what one encode sees).
PROBE_BYTES = {"bulk_16m": 16 * MIB, "faulty_1m": MIB, "meta_small": 16 * 1024,
               "txn_hot": 4096, "scale_200": 160}


class OpFailed(Exception):
    """A user-visible call raised; already counted, the round is abandoned."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_metrics(samples: dict[str, list[float]], ops: int) -> dict[str, float]:
    """The host-clock end-to-end metrics of ``commit`` / ``fetch`` / ``timeline`` samples.

    A per-op timing is the lower quartile of its samples; ``host_ms_per_op``
    is every timed second of the measured phase over the user-visible ops.
    """
    return {
        "host_commit_p25_ms": 1e3 * percentile(samples["commit"], 25),
        "host_fetch_p25_ms": 1e3 * percentile(samples["fetch"], 25),
        "host_ms_per_op": 1e3 * sum(samples["timeline"]) / ops,
    }


@dataclass
class Pass:
    """Timers, samples and verdicts of one pass of one workload."""

    workload: str
    seed: int
    smoke: bool = False
    tracer: Tracer | None = None
    #: ``time.time()`` when the parent spawned this process (0: now).
    spawned_at: float = 0.0
    samples: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Host seconds of every timed call of the measured phase, in script order.
    timeline: list[float] = field(default_factory=list)
    user_bytes: int = 0
    extra: dict[str, float] = field(default_factory=dict)
    measuring: bool = False
    deployment: SCFSDeployment | None = None

    def __post_init__(self) -> None:
        if not self.spawned_at:
            self.spawned_at = time.time()
        size = SIZES[self.workload]
        self.size = size.smoke if self.smoke else size.full
        self._sim_now: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------------ set-up

    def payloads(self) -> np.random.Generator:
        """The seed's payload stream."""
        return np.random.default_rng(self.seed)

    def deploy(self, variant: str, **overrides) -> SCFSDeployment:
        """Build the deployment and point both clocks' readers at its simulation."""
        self.deployment = SCFSDeployment.for_variant(variant, seed=self.seed, **overrides)
        self.attach(self.deployment)
        return self.deployment

    def attach(self, deployment: SCFSDeployment) -> None:
        self.deployment = deployment
        self._sim_now = deployment.sim.now
        if self.tracer is not None:
            self.tracer.sim_now = deployment.sim.now

    def start_measuring(self) -> None:
        """End of set-up: everything from here on is the measured phase."""
        self.setup_s = time.time() - self.spawned_at
        self.measuring = True
        self._costs0 = self.deployment.costs()
        self._sim0 = self._sim_now()
        if self.tracer is not None:
            self._raw0 = ledger.raw_counters(self.deployment)
            self.tracer.install()

    # --------------------------------------------------------------- measuring

    def op(self, kind: str, function: Callable, *args) -> Any:
        """Run one user-visible call, timed on both clocks under ``kind``.

        ``kind`` is ``commit`` / ``fetch`` / ``meta`` (the op classes the
        end-to-end metrics report), ``other`` (counted and timed, no class
        metric) or ``drain`` (timed, not a user op).  During warm-up nothing is
        recorded.  A :class:`ReproError` counts as a failed op and abandons the
        round through :class:`OpFailed`.
        """
        if not self.measuring:
            return function(*args)
        root = None
        if self.tracer is not None:
            root = self.tracer.begin(DRIVER, f"{kind}:{function.__name__}")
        sim0 = self._sim_now()
        host0 = time.perf_counter()
        try:
            result = function(*args)
        except ReproError as exc:
            self.timeline.append(time.perf_counter() - host0)
            if root is not None:
                self.tracer.end(root, failed=True)
            self.attempted += 1
            self.fail(f"{kind}:{function.__name__} raised {type(exc).__name__}: {exc}")
            raise OpFailed from exc
        host = time.perf_counter() - host0
        sim = self._sim_now() - sim0
        if root is not None:
            self.tracer.end(root)
        self.timeline.append(host)
        if kind != "drain":
            self.attempted += 1
        hosts, sims = self.samples.setdefault(kind, ([], []))
        hosts.append(host)
        sims.append(sim)
        return result

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A correctness check on an op's output; a miss is a failed op."""
        if not ok:
            self.fail(what)

    # ----------------------------------------------------------------- results

    def finish(self, fingerprint_extra: str = "") -> dict[str, Any]:
        """Fold the samples into this pass's metrics (``run.py`` folds the passes of a run)."""
        if self.tracer is not None:
            self.tracer.remove()
        costs = self.deployment.costs()
        usage, usage0 = costs.usage, self._costs0.usage
        dollars = ((costs.request_cost + costs.traffic_cost)
                   - (self._costs0.request_cost + self._costs0.traffic_cost))
        commit_h, commit_s = self.samples["commit"]
        fetch_h, fetch_s = self.samples["fetch"]
        _meta_h, meta_s = self.samples["meta"]
        makespan = self.extra.pop("sim_makespan_s", None)
        if makespan is None:
            makespan = self._sim_now() - self._sim0
        sim = {
            "sim_commit_p50_s": percentile(commit_s, 50),
            "sim_commit_p90_s": percentile(commit_s, 90),
            "sim_fetch_p50_s": percentile(fetch_s, 50),
            "sim_fetch_p90_s": percentile(fetch_s, 90),
            "sim_meta_mean_s": sum(meta_s) / len(meta_s),
            "sim_makespan_s": makespan,
            "upload_bytes_per_user_byte": (usage.bytes_in - usage0.bytes_in) / self.user_bytes,
            "usd_per_kop": 1e3 * dollars / self.attempted,
        }
        host_samples = {"commit": commit_h, "fetch": fetch_h, "timeline": self.timeline}
        digest = hashlib.sha256(fingerprint_extra.encode())
        for kind in sorted(self.samples):
            digest.update(repr((kind, self.samples[kind][1])).encode())
        digest.update(repr((sim, vars(usage))).encode())
        layers = None
        if self.tracer is not None:
            layers = ledger.layer_metrics(
                self.tracer, self._raw0, ledger.raw_counters(self.deployment),
                self.deployment, self.user_bytes, self.extra)
            layers.update(ledger.kernel_probes(PROBE_BYTES[self.workload], self.seed))
        return {
            "workload": self.workload, "seed": self.seed, "smoke": self.smoke,
            "traced": self.tracer is not None, "layers": layers,
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "measured_host_s": sum(self.timeline),
            "attempted": self.attempted, "failed": self.failed, "failures": self.failures,
            "sim": sim, "host": host_metrics(host_samples, self.attempted),
            "host_samples": host_samples,
            "samples": {"commit": len(commit_s), "fetch": len(fetch_s), "meta": len(meta_s)},
            "fingerprint": digest.hexdigest(),
            "extra": self.extra,
        }


# ------------------------------------------------------------ bulk_16m, faulty_1m


def _replace_and_fetch(p: Pass, variant_overrides: dict, faults: bool) -> None:
    """Writer replaces one shared file, reader fetches it cold; bytes compared."""
    size, rounds = p.size["bytes"], p.size["rounds"]
    deployment = p.deploy("SCFS-CoC-B", **variant_overrides)
    writer = deployment.create_agent("writer")
    reader = deployment.create_agent("reader")
    rng = p.payloads()
    path = "/shared.bin"
    writer.write_file(path, rng.bytes(size), shared=True)
    writer.setfacl(path, "reader", Permission.READ)
    deployment.drain()

    def one_round(data: bytes) -> None:
        p.op("meta", writer.stat, path)
        handle = p.op("other", writer.open, path, "r+")
        p.op("other", writer.truncate, handle, 0)
        p.op("other", writer.write, handle, data)
        p.op("commit", writer.close, handle)
        p.user_bytes += len(data)
        p.op("drain", deployment.drain)
        p.op("meta", reader.stat, path)
        got = p.op("fetch", reader.read_file, path)
        p.check(got == data, f"fetch returned wrong bytes ({len(got)} of {len(data)})")

    one_round(rng.bytes(size))  # warm-up: GF(256) pair tables, decode-matrix cache
    p.user_bytes = 0
    p.start_measuring()
    schedule = deployment.clouds[0].failures
    third = rounds // 3
    for index in range(rounds):
        if faults and index == 0:
            schedule.add(FaultKind.DEGRADED, start=deployment.sim.now(),
                         factor=FAULTY_DEGRADATION)
        elif faults and index == third:
            schedule.clear()
            schedule.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        elif faults and index == 2 * third:
            schedule.clear()
        data = rng.bytes(size)
        try:
            one_round(data)
        except OpFailed:
            continue


def bulk_16m(p: Pass) -> dict[str, Any]:
    _replace_and_fetch(p, {}, faults=False)
    return p.finish()


def faulty_1m(p: Pass) -> dict[str, Any]:
    _replace_and_fetch(p, {"dispatch": DispatchPolicyConfig(**FAULTY_DISPATCH)}, faults=True)
    return p.finish()


# ------------------------------------------------------------------- meta_small


def meta_small(p: Pass) -> dict[str, Any]:
    """Table 3's create/copy pattern with VFS-style lookups, non-blocking close.

    File sizes are drawn from the seed (8-24 KiB, 16 KiB on average): a
    non-blocking ``close`` costs the same simulated time for equal sizes, and a
    timing that reads the same for every seed measures nothing.
    """
    iterations = p.size["iterations"]
    deployment = p.deploy("SCFS-CoC-NB")
    fs = deployment.create_agent("alice")
    directories = [f"/d{index:02d}" for index in range(20)]
    for directory in directories:
        fs.mkdir(directory, shared=True)
    deployment.drain()
    rng = p.payloads()
    live = {directory: set() for directory in directories}
    recent: dict[int, bytes] = {}

    def path_of(index: int) -> str:
        return f"{directories[index % len(directories)]}/f{index:05d}"

    def create(path: str, data: bytes) -> None:
        handle = p.op("other", fs.open, path, "w", True)
        p.op("other", fs.write, handle, data)
        p.op("commit", fs.close, handle)
        p.user_bytes += len(data)
        live[path.rsplit("/", 1)[0]].add(path.rsplit("/", 1)[1])

    def iteration(index: int) -> None:
        directory, path = directories[index % len(directories)], path_of(index)
        data = rng.bytes(int(rng.integers(p.size["min_bytes"], p.size["max_bytes"] + 1)))
        p.op("meta", fs.stat, directory)
        p.check(p.op("meta", fs.exists, path) is False, f"{path} existed before its create")
        create(path, data)
        meta = p.op("meta", fs.stat, path)
        p.check(meta.size == len(data), f"stat({path}).size is {meta.size}, wrote {len(data)}")
        recent[index] = data
        recent.pop(index - 8, None)
        if index % 4 == 3 and index - 5 in recent:
            # Copy a file written five iterations ago: its data is still in the
            # local caches, its metadata-cache entry has expired.
            source = path_of(index - 5)
            got = p.op("fetch", fs.read_file, source)
            p.check(got == recent[index - 5], f"copy source {source} read wrong bytes")
            create(path + ".copy", got)
        if index % 8 == 7:
            old = path_of(index - 7)
            old_directory, old_name = old.rsplit("/", 1)
            p.op("meta", fs.rename, old, old + ".r")
            names = p.op("meta", fs.readdir, old_directory)
            live[old_directory].discard(old_name)
            p.check(set(names) == live[old_directory] | {old_name + ".r"},
                    f"readdir({old_directory}) lists {len(names)} names, "
                    f"expected {len(live[old_directory]) + 1}")
            p.op("meta", fs.unlink, old + ".r")

    for index in range(-8, 0):  # warm-up; the first measured copies read these files
        iteration(index)
    deployment.drain()
    p.user_bytes = 0
    p.start_measuring()
    for index in range(iterations):
        try:
            iteration(index)
        except OpFailed:
            continue
    p.op("drain", deployment.drain)
    for directory in directories:
        p.check(set(fs.readdir(directory)) == live[directory],
                f"final readdir({directory}) does not match the script")
    return p.finish()


# ---------------------------------------------------------------------- txn_hot


def txn_hot(p: Pass) -> dict[str, Any]:
    """Contended 3-file transactions; every 5th is scripted to abort."""
    size, transactions = p.size["bytes"], p.size["transactions"]
    deployment = p.deploy("SCFS-CoC-B")
    names = [f"agent{index}" for index in range(p.size["agents"])]
    agents = [deployment.create_agent(name) for name in names]
    auditor = deployment.create_agent("auditor")
    owner = agents[0]
    rng = p.payloads()
    files = [f"/hot/f{index}" for index in range(p.size["files"])]
    owner.mkdir("/hot", shared=True)
    expected: dict[str, bytes] = {}
    for path in files:
        expected[path] = rng.bytes(size)
        owner.write_file(path, expected[path], shared=True)
        for name in names[1:]:
            owner.setfacl(path, name, Permission.READ_WRITE)
        owner.setfacl(path, "auditor", Permission.READ)
    deployment.drain()
    script = random.Random(f"{p.seed}:txn_hot")
    commits = aborts = 0

    def transaction(index: int) -> None:
        nonlocal commits, aborts
        actor = script.randrange(len(agents))
        start = script.randrange(len(files))
        paths = [files[(start + offset) % len(files)] for offset in range(3)]
        payloads = [rng.bytes(size) for _ in paths]
        other = (actor + 1 + script.randrange(len(agents) - 1)) % len(agents)
        blocked_path = paths[script.randrange(3)]

        def body(txn) -> None:
            for path in paths:
                txn.read(path)
            for path, data in zip(paths, payloads):
                txn.write(path, data)

        def attempt() -> bool:
            try:
                agents[actor].run_transaction(body)
            except TransactionAbortedError:
                return False
            return True

        blocked = index % 5 == 4
        handle = agents[other].open(blocked_path, "r+") if blocked else None
        try:
            committed = p.op("abort" if blocked else "commit", attempt)
        finally:
            if handle is not None:
                agents[other].close(handle)
        p.check(committed is not blocked,
                f"transaction {index} {'committed' if committed else 'aborted'} "
                f"but was scripted to {'abort' if blocked else 'commit'}")
        if committed:
            commits += 1
            p.user_bytes += 3 * size
            expected.update(zip(paths, payloads))
            if commits % 2 == 0:
                p.op("meta", auditor.stat, paths[1])
                got = p.op("fetch", auditor.read_file, paths[1])
                p.check(got == payloads[1], f"auditor read torn or stale bytes of {paths[1]}")
        else:
            aborts += 1

    for index in range(4):  # warm-up: never blocked (index % 5 != 4)
        transaction(index)
    commits = aborts = 0
    p.user_bytes = 0
    p.start_measuring()
    for index in range(transactions):
        try:
            transaction(index)
        except OpFailed:
            continue
    p.check(aborts * 5 == transactions and commits * 5 == 4 * transactions,
            f"{commits} commits / {aborts} aborts, scripted "
            f"{4 * transactions // 5} / {transactions // 5}")
    for path in files:
        p.check(auditor.read_file(path) == expected[path],
                f"final content of {path} is not a whole transaction's bytes")
    return p.finish()


# -------------------------------------------------------------------- scale_200


def _rss_kib() -> int:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * (resource.getpagesize() // 1024)


def scale_200(p: Pass) -> dict[str, Any]:
    """``ScenarioRunner`` on a pooled namespace, timed from outside in chunks.

    ``run()`` cannot be driven op by op, so the host clock is read around the
    public calls it makes: every scheduled task (one ``step()`` can run the
    whole event chain, so the task callbacks are the chunks), every facade call
    (``close`` of a written handle, ``read_file`` and ``stat`` are the commit /
    fetch / meta samples), agent mounts, drains, the fingerprint and the
    checkers.  Outermost calls form the timeline; what is left of ``run()``
    after priming is its last entry.
    """
    from repro.scenarios import runner as runner_module
    from repro.scenarios.spec import ScenarioSpec
    from repro.scenarios.trace import TraceRecorder
    from repro.simenv.environment import Simulation

    spec = ScenarioSpec.generate_scale(
        p.seed, agents=p.size["agents"], files=p.size["files"],
        ops_per_agent=p.size["ops_per_agent"], directories=32, partitions=4)
    samples = {kind: ([], []) for kind in ("commit", "fetch", "meta")}
    kinds = {"close": "commit", "read_file": "fetch", "stat": "meta"}
    written: set[tuple[int, int]] = set()
    clock = time.perf_counter
    depth = 0

    def timed(original: Callable, name: str = "") -> Callable:
        hosts, sims = samples.get(kinds.get(name), (None, None))

        def call(*args, **kwargs):
            nonlocal depth
            sampled = hosts is not None
            if name == "write":
                written.add((id(args[0]), args[1]))
            elif name == "close":  # a commit only if the handle was written to
                sampled = (id(args[0]), args[1]) in written
                written.discard((id(args[0]), args[1]))
            depth += 1
            sim0, host0 = p._sim_now(), clock()
            try:
                return original(*args, **kwargs)
            finally:
                host = clock() - host0
                depth -= 1
                if depth == 0 and p.measuring:
                    p.timeline.append(host)
                if sampled:
                    hosts.append(host)
                    sims.append(p._sim_now() - sim0)

        return call

    def primed(deployment, *args, **kwargs):
        p.attach(deployment)
        rss0, host0 = _rss_kib(), clock()
        result = prime_pool(deployment, *args, **kwargs)
        p.extra["prime_host_s"] = clock() - host0
        p.extra["rss_kib_per_file"] = (_rss_kib() - rss0) / len(spec.shared_files)
        p.start_measuring()
        if p.tracer is not None:
            # The one root span: ``run()`` from the end of priming on.
            p.tracer.begin("scenarios", "ScenarioRunner.run")
        return result

    def checked(*args, **kwargs):
        host0 = clock()
        try:
            return check_all(*args, **kwargs)
        finally:
            p.extra["check_host_s"] = clock() - host0

    prime_pool, check_all = runner_module.prime_pool, runner_module.check_all
    patched = [(SCFSFileSystem, name) for name in (
        "open", "read", "write", "fsync", "close", "exists", "stat", "unlink", "setfacl",
        "read_file", "append_file", "run_transaction", "collect_garbage")]
    patched += [(SCFSDeployment, "create_agent"), (SCFSDeployment, "drain"),
                (SCFSDeployment, "unmount_all"), (TraceRecorder, "fingerprint")]
    originals = [(owner, name, getattr(owner, name)) for owner, name in patched]
    for owner, name, original in originals:
        setattr(owner, name, timed(original, name if owner is SCFSFileSystem else ""))
    schedule = Simulation.schedule
    originals.append((Simulation, "schedule", schedule))
    Simulation.schedule = lambda sim, delay, callback, name="": schedule(
        sim, delay, timed(callback), name)
    runner_module.prime_pool, runner_module.check_all = primed, timed(checked)
    host0 = clock()
    try:
        result = runner_module.ScenarioRunner(spec).run()
    finally:
        wall = clock() - host0
        if p.tracer is not None:
            p.tracer.end(0)
            p.tracer.remove()  # its wrappers sit on top of the ones undone below
        for owner, name, original in originals:
            setattr(owner, name, original)
        runner_module.prime_pool, runner_module.check_all = prime_pool, check_all

    p.samples = samples
    p.attempted = spec.total_ops
    p.timeline.append(wall - p.extra["prime_host_s"] - sum(p.timeline))
    errors = [e for e in result.trace.by_kind("op_error") if not e.get("benign")]
    p.failed = len(errors)
    p.failures = [f"{e.get('op')} {e.get('path')}: {e.get('error')}" for e in errors[:20]]
    if not result.ok:
        # An invariant violation taints the whole run (the issue's definition).
        p.failed = p.attempted
        p.failures += [f"invariant violated: {v}" for v in result.violations[:20]]
    p.user_bytes = sum(e.get("size", 0) for e in result.trace.by_kind("close")
                       if e.get("dirty"))
    p.extra["sim_makespan_s"] = result.trace.events[-1].time
    p.extra["trace_events"] = len(result.trace)
    return p.finish(fingerprint_extra=result.fingerprint)


WORKLOADS: dict[str, Callable[[Pass], dict[str, Any]]] = {
    "bulk_16m": bulk_16m, "faulty_1m": faulty_1m, "meta_small": meta_small,
    "txn_hot": txn_hot, "scale_200": scale_200,
}


def run_pass(workload: str, seed: int, smoke: bool = False, traced: bool = False,
             spawned_at: float = 0.0, spans_out: str | None = None) -> dict[str, Any]:
    """One pass of ``workload`` in this process; wrappers never outlive it."""
    tracer = Tracer() if traced else None
    p = Pass(workload, seed, smoke=smoke, tracer=tracer, spawned_at=spawned_at)
    try:
        result = WORKLOADS[workload](p)
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None and spans_out:
        tracer.write_jsonl(spans_out)
    return result
