"""Static determinism & protocol-discipline analysis for the repro codebase.

Every correctness claim in this repository rests on byte-identical replay
(the pinned SHA-256 scenario fingerprints) and on hand-enforced protocol
disciplines: sorted-order lock acquisition, RNG derivation only through
``derive_rng(sim.seed, label)``, trace events whose field names the
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
* **cost charging** (``CHG``) — no per-object ``charge_latency`` flag; a
  layer charges unless its caller runs under ``Simulation.background()``.

Run it with ``python -m repro.analysis <paths> [--format=json]``.  No comment
silences a finding: a false positive is fixed in the rule, and a true one in
the code.  A file directive, ``# repro: sim-visible`` or ``# repro:
not-sim-visible`` near its top, overrides the path-based classification of
what runs inside a simulation (the fixture corpus uses it).
"""

from __future__ import annotations

from repro.analysis.core import analyze_paths, analyze_source

__all__ = ["analyze_paths", "analyze_source"]
