"""Benchmark harness regenerating every table and figure of the paper.

Each paper artefact is one function of its module, run at the
benchmark's own sizing and seed: it returns the results and the
:class:`~repro.bench.report.Table` they print as.  The ``benchmarks/`` case
asserts on those results, and ``python -m repro.cli <artefact>`` prints that
table:

* :mod:`~repro.bench.filebench` — the six Filebench micro-benchmarks of
  Table 3 (``table3``);
* :mod:`~repro.bench.syncservice` — the OpenOffice-style file-synchronisation
  benchmark of Figure 7/8, with cloud or local lock files (``fig8``);
* :mod:`~repro.bench.sharing` — the two-client sharing-latency experiment of
  Figure 9, SCFS variants vs a Dropbox-like service (``fig9``);
* :mod:`~repro.bench.sweeps` — the metadata-cache and PNS parameter sweeps of
  Figure 10 (``fig10a``, ``fig10b``);
* :mod:`~repro.bench.costs` — the operation/usage cost analysis of Figure 11
  (``fig11a``, ``fig11b``, ``fig11c``).

Under them, :mod:`~repro.bench.targets` builds every system under test (the
six SCFS variants of Table 2, S3FS, S3QL, LocalFS) on a fresh simulation, and
:mod:`~repro.bench.report` renders the tables.
"""
