"""Benchmark-owned span tracer: wraps ``repro``'s public callables from outside.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` replaces
class attributes (and module-level functions) with thin wrappers for the
duration of one traced pass and puts the originals back afterwards.  Every
wrapped call becomes a *span* stamped on both clocks:

* ``h0/h1`` — host clock, ``time.perf_counter()`` seconds;
* ``s0/s1`` — simulated clock, ``Simulation.now()`` seconds.

Spans nest through a stack (the simulation is single-threaded), so each span
knows its parent and the root span it belongs to — the user-visible call the
workload driver opened around it.  A layer's *self time* is a
span's duration minus the part of that interval its direct children cover;
summed over all spans the self times add up to the root spans' durations, which
is what lets ``LEDGER.md`` say which layer owns a 16 MiB ``close``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from typing import Any, Callable, Iterable

# Span record layout (a list, mutated in place when the span ends).
PARENT, ROOT, LAYER, NAME, H0, H1, S0, S1, NOTE, FAILED = range(10)

#: ``layer -> [(import path of the owner, attribute names)]``: the public
#: callables wrapped during a traced pass.  Owners are classes or modules of
#: ``repro``; module-level functions that other modules imported by name are
#: re-bound in every importing module's globals as well (see ``_rebind``).
WRAPPED: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "agent": [("repro.core.agent.SCFSAgent", (
        "open", "read", "write", "truncate", "fsync", "close", "mkdir", "rmdir",
        "readdir", "stat", "exists", "unlink", "rename", "setfacl", "getfacl",
        "flush_pending", "unmount", "collect_garbage"))],
    "metadata": [
        ("repro.core.metadata_service.MetadataService", (
            "lookup", "lookup_versioned", "get", "exists", "create", "update",
            "update_cas", "remove", "mark_deleted", "rename", "list_children",
            "promote_to_shared", "demote_to_private", "set_entry_grant")),
        ("repro.core.cache.MetadataCache", ("get", "put")),
    ],
    "lock": [("repro.core.lock_service.LockService", (
        "acquire", "release", "release_all", "still_held"))],
    "coordination": [
        (f"repro.coordination.{owner}", (
            "open_session", "renew_session", "close_session", "put", "get",
            "delete", "list_prefix", "set_entry_acl", "try_lock", "unlock"))
        for owner in ("adapters.DepSpaceCoordination",
                      "partitioned.PartitionedCoordination")
    ],
    "txn": [("repro.transactions.manager.TransactionManager", (
        "begin", "run", "commit", "rename_tree"))],
    "storage": [
        ("repro.core.storage_service.StorageService", (
            "read_version", "push_to_cloud", "push_to_cloud_uncharged",
            "flush_to_disk", "store_in_memory", "forget")),
        ("repro.core.cache.LRUByteCache", ("get", "put")),
    ],
    "backend": [("repro.core.backend.CloudOfCloudsBackend", (
        "write_version", "read_version", "delete_version", "list_versions",
        "set_acl", "destroy", "estimate_write_latency", "estimate_read_latency"))],
    "depsky": [("repro.depsky.protocol.DepSkyClient", (
        "write", "read_matching", "read_latest", "delete_version", "set_acl",
        "list_versions", "destroy_unit"))],
    "dispatch": [
        ("repro.clouds.dispatch.QuorumCall", ("execute",)),
        ("repro.clouds.dispatch.InstantCoalescer", ("lookup", "store", "invalidate")),
    ],
    "cloud": [("repro.clouds.eventual.EventuallyConsistentStore", (
        "put", "get", "delete", "list_keys", "set_bucket_policy"))],
    "erasure": [("repro.crypto.erasure.ErasureCoder", (
        "encode_stripes", "encode_into", "decode"))],
    "gf256": [("repro.crypto.gf256", ("matmul",))],
    "cipher": [("repro.crypto.cipher.SymmetricCipher", (
        "encrypt_into", "encrypt", "decrypt"))],
    "hashing": [("repro.crypto.hashing", ("content_digest",))],
    "secret_sharing": [("repro.crypto.secret_sharing", (
        "split_secret", "combine_secret"))],
    # ``advance`` is deliberately absent: the simulated seconds a caller
    # charges belong to the caller's layer, not to the clock that moves.
    "simenv": [("repro.simenv.environment.Simulation", (
        "step", "run_all", "run_until", "drain"))],
    "scenarios": [("repro.scenarios.trace.TraceRecorder", ("record",))],
}

#: Every layer the ledger reports (the wrapped ones; ``health`` and ``trace``
#: carry counters only).
SPAN_LAYERS: tuple[str, ...] = tuple(WRAPPED)

#: Layer of the root spans the workload driver opens around its own calls:
#: their self time is what no wrapped callable covers (the unattributed part).
DRIVER = "driver"


def _resolve(path: str) -> Any:
    """Import ``a.b.C`` — a module, or an attribute of one."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


class Tracer:
    """Span stack + the install/remove bookkeeping of the method wrappers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: Zero-argument callable returning simulated seconds; set once the
        #: pass has a ``Simulation`` (before that spans read 0.0).
        self.sim_now: Callable[[], float] = lambda: 0.0
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ spans

    def begin(self, layer: str, name: str) -> int:
        """Open a span under the current one; returns its id."""
        stack = self._stack
        index = len(self.spans)
        if stack:
            parent = stack[-1]
            root = self.spans[parent][ROOT]
        else:
            parent, root = -1, index
        self.spans.append([parent, root, layer, name, time.perf_counter(),
                           None, self.sim_now(), None, None, False])
        stack.append(index)
        return index

    def end(self, index: int, failed: bool = False) -> None:
        """Close span ``index`` (it must be the innermost open one)."""
        span = self.spans[index]
        span[S1] = self.sim_now()
        span[H1] = time.perf_counter()
        span[FAILED] = failed
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - a wrapper bug, never a workload's
            raise RuntimeError(f"span stack corrupted: closed {index}, innermost was {popped}")

    # --------------------------------------------------------------- wrappers

    def _wrapper(self, original: Callable, layer: str, name: str,
                 note: Callable[..., Any] | None) -> Callable:
        begin, end, spans = self.begin, self.end, self.spans

        if inspect.isgeneratorfunction(original):
            # One span per resume: the caller's work between two ``next()``
            # calls belongs to the caller, not to the generator's layer.
            def traced_generator(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    index = begin(layer, name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        end(index)
                        return
                    except BaseException:
                        end(index, failed=True)
                        raise
                    end(index)
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            index = begin(layer, name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end(index, failed=True)
                raise
            end(index)
            if note is not None:
                spans[index][NOTE] = note(result, *args, **kwargs)
            return result

        return traced

    def wrap(self, owner: Any, attr: str, layer: str,
             note: Callable[..., Any] | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (undone by ``remove``).

        ``note(result, *args, **kwargs)``, when given, is stored on the span
        after a successful call (bytes moved, quorum statistics).
        """
        original = getattr(owner, attr)
        name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        traced = self._wrapper(original, layer, name, note)
        traced.__wrapped__ = original
        # An inherited method is shadowed on the subclass and un-shadowed later.
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, traced)
        if not isinstance(owner, type):
            self._rebind(original, traced, attr)

    def _rebind(self, original: Callable, traced: Callable, attr: str) -> None:
        """Re-point ``from module import attr`` copies held by other repro modules."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if vars(module).get(attr) is original:
                setattr(module, attr, traced)
                self._undo.append((module, attr, original))

    def wrap_scheduled_tasks(self) -> None:
        """Make every ``Simulation.schedule``d callback a ``simenv`` task span."""
        from repro.simenv.environment import Simulation

        original = Simulation.schedule

        def schedule(sim, delay, callback, name=""):
            label = "task:" + name.partition(":")[0]
            return original(sim, delay, self._wrapper(callback, "simenv", label, None), name)

        Simulation.schedule = schedule
        self._undo.append((Simulation, "schedule", original))

    def install(self) -> None:
        """Wrap everything in :data:`WRAPPED`."""
        for layer, owners in WRAPPED.items():
            for path, attrs in owners:
                owner = _resolve(path)
                for attr in attrs:
                    self.wrap(owner, attr, layer, NOTES.get((layer, attr)))
        self.wrap_scheduled_tasks()

    def remove(self) -> None:
        """Put every original callable back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---------------------------------------------------------------- results

    def self_times(self) -> list[tuple[float, float]]:
        """Per span ``(host_self_s, sim_self_s)``: duration minus children coverage."""
        children: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                children.setdefault(span[PARENT], []).append(index)
        result = []
        for index, span in enumerate(self.spans):
            kids = [self.spans[c] for c in children.get(index, ())]
            host = (span[H1] - span[H0]) - covered(
                ((k[H0], k[H1]) for k in kids), span[H0], span[H1])
            sim = (span[S1] - span[S0]) - covered(
                ((k[S0], k[S1]) for k in kids), span[S0], span[S1])
            result.append((host, sim))
        return result

    def summary(self) -> dict[str, Any]:
        """Per-layer ``calls`` / ``sim_self_s`` / ``host_self_ms`` and the root totals."""
        selfs = self.self_times()
        host: dict[str, list[float]] = {}
        sim: dict[str, list[float]] = {}
        calls: dict[str, int] = {}
        for span, (host_self, sim_self) in zip(self.spans, selfs):
            layer = span[LAYER]
            host.setdefault(layer, []).append(host_self)
            sim.setdefault(layer, []).append(sim_self)
            calls[layer] = calls.get(layer, 0) + 1
        roots = [s for s in self.spans if s[PARENT] < 0]
        return {
            "layers": {
                layer: {"calls": calls[layer], "sim_self_s": math.fsum(sim[layer]),
                        "host_self_ms": 1e3 * math.fsum(host[layer])}
                for layer in calls
            },
            "root_spans": len(roots),
            "root_sim_s": math.fsum(s[S1] - s[S0] for s in roots),
            "root_host_ms": 1e3 * math.fsum(s[H1] - s[H0] for s in roots),
        }

    def select(self, layer: str, name: str) -> list[list[Any]]:
        """Spans of one wrapped callable, e.g. ``("lock", "LockService.acquire")``."""
        return [s for s in self.spans if s[LAYER] == layer and s[NAME] == name]

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: id, parent, root, layer, name, both clocks."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "parent": span[PARENT], "root": span[ROOT],
                    "layer": span[LAYER], "name": span[NAME],
                    "host_start_s": span[H0], "host_end_s": span[H1],
                    "sim_start_s": span[S0], "sim_end_s": span[S1],
                    "failed": span[FAILED],
                }, separators=(",", ":")) + "\n")


_INHERITED = object()


def _matmul_bytes(_result, _matrix, blocks, *args, **kwargs) -> int:
    return int(blocks.nbytes)


def _quorum_note(stats, *args, **kwargs) -> tuple[int, int, bool, float]:
    """What the ledger keeps of one ``QuorumCallStats``."""
    return (len(stats.traces), stats.hedged, stats.fallback_dispatched, stats.charged)


#: ``(layer, attribute) -> note`` hooks of :meth:`Tracer.install`.
NOTES: dict[tuple[str, str], Callable[..., Any]] = {
    ("gf256", "matmul"): _matmul_bytes,
    ("dispatch", "execute"): _quorum_note,
}
