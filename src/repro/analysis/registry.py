"""Rule registry: every rule id, its one-line contract, and the rule runners."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.analysis.core import ModuleContext
    from repro.analysis.findings import Finding

#: One-line contract per rule id (the ``--list-rules`` output and the docs
#: source of truth).  Sim-visible-only rules are marked in the text.
RULE_DOCS: dict[str, str] = {
    "DET001": "no wall-clock reads (time.time, datetime.now, ...) in sim-visible code; "
              "simulated time comes from Simulation.now()",
    "DET002": "no ambient randomness (module-level random.*, os.urandom, uuid.uuid4, "
              "secrets, random.SystemRandom) in sim-visible code; draw from a forked "
              "Simulation RNG stream",
    "DET003": "no iteration over unordered set/frozenset values in sim-visible code "
              "(wrap in sorted(...) or use an order-insensitive reduction)",
    "DET004": "no id()-based ordering (sort keys or comparisons on id(...)) in "
              "sim-visible code; object addresses vary between runs",
    "LCK001": "every lock acquire in a function that also releases must reach a "
              "release on all exit paths (try/finally-aware CFG walk)",
    "LCK002": "a loop that acquires locks must iterate a sorted(...) sequence, and "
              "acquire_set(...) must be given one (global acquisition order "
              "prevents deadlock)",
    "TRC001": "every emitted trace event uses a literal kind declared in "
              "repro.scenarios.trace.TRACE_SCHEMA",
    "TRC002": "every emitted trace event's fields are declared for its kind in "
              "TRACE_SCHEMA",
    "TRC003": "checker reads (by_kind/count/.kind/.get) reference only declared "
              "kinds and fields",
    "CHG001": "no assignment to an attribute named `charge_latency` outside __init__; "
              "background work goes through Simulation.background()",
    "EXC001": "no bare `except:` — name the exceptions (BaseException at broadest)",
    "EXC002": "no broad `except Exception/BaseException` that swallows (never "
              "re-raises) in sim-visible code; ReproError subclasses carry protocol "
              "outcomes that dispatch/commit paths must not eat",
    "PRG001": "every `# repro: allow[...]` pragma carries a `-- justification`",
}

#: Rule ids that only apply to sim-visible modules.
SIM_VISIBLE_ONLY: frozenset[str] = frozenset(
    {"DET001", "DET002", "DET003", "DET004", "EXC002"}
)

#: All enforceable rule ids (PRG001 is emitted by the driver, not a family).
ALL_RULES: tuple[str, ...] = tuple(sorted(RULE_DOCS))

RuleRunner = Callable[["ModuleContext"], "list[Finding]"]


def rule_runners() -> "list[RuleRunner]":
    """The per-family entry points (imported lazily to avoid cycles)."""
    from repro.analysis.rules import charging, determinism, exceptions, locks, traceschema

    return [determinism.check, locks.check, traceschema.check, exceptions.check,
            charging.check]
