"""Deterministic simulation environment.

The paper evaluates SCFS against real commercial clouds; this reproduction
replaces wall-clock time and real networks by a discrete simulated clock and
per-provider latency models.  Every remote access (cloud storage request,
coordination service operation) *charges* its latency to the shared
:class:`SimClock`, so benchmarks measure deterministic simulated seconds
instead of noisy wall-clock time.
"""
