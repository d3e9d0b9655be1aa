"""Configuration shared by the benchmark harness.

Every benchmark in this directory regenerates one table or figure of the
paper's evaluation section (§4).  The measurements are *simulated* latencies
and dollar costs produced by the deterministic simulation substrate, so each
benchmark runs its experiment exactly once (``rounds=1``) — wall-clock numbers
reported by pytest-benchmark only describe how long the simulation itself took
to execute, while the regenerated rows are printed to stdout (with ``-s``).
A paper figure's case runs its artefact function from ``repro.bench``, the
same function whose table ``python -m repro.cli <artefact>`` prints.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark's timer."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
