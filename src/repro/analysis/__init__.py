"""Static determinism & protocol-discipline analysis for the repro codebase.

Every correctness claim in this repository rests on byte-identical replay
(the pinned SHA-256 scenario fingerprints) and on hand-enforced protocol
disciplines: sorted-order lock acquisition, RNG derivation only through
``Simulation.fork_rng`` / ``derive_rng``, trace events whose field names the
invariant checkers consume stringly.  This package catches the whole class of
"invariant broken at runtime" bugs *before* a seed sweep ever runs, with five
AST/CFG rule families:

* **determinism** (``DET``) — wall-clock reads, ambient (module-level) RNG,
  iteration over unordered sets, ``id()``-based ordering — in sim-visible
  modules;
* **lock discipline** (``LCK``) — every intra-function ``acquire`` paired
  with a ``release`` on all paths (try/finally-aware structured-CFG walk),
  multi-lock acquisition loops iterating a ``sorted(...)`` sequence;
* **trace schema** (``TRC``) — every emitted event kind and field set checked
  against the declared registry in :mod:`repro.scenarios.trace`, and checker
  reads of undeclared kinds/fields flagged;
* **exception hygiene** (``EXC``) — bare ``except`` and broad handlers that
  swallow :class:`~repro.common.errors.ReproError` subclasses on
  dispatch/commit paths;
* **cost charging** (``CHG``) — ``charge_latency`` is set at construction
  only; background work goes through ``Simulation.background()``.

Run it with ``python -m repro.analysis <paths> [--format=json]``.  A finding
is silenced only by an inline pragma carrying a justification::

    value = time.time()  # repro: allow[DET001] -- host profiling, not sim time

A pragma without a justification is itself an error (``PRG001``).
"""

from __future__ import annotations

from repro.analysis.core import AnalysisReport, analyze_paths, analyze_source
from repro.analysis.findings import Finding
from repro.analysis.registry import ALL_RULES, RULE_DOCS

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "RULE_DOCS",
    "analyze_paths",
    "analyze_source",
]
