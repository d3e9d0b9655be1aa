"""Table 3 — Filebench micro-benchmarks for the nine file systems.

Regenerates the full latency table: six micro-benchmarks (sequential and
random reads/writes, create files, copy files) across the six SCFS variants,
S3FS, S3QL and LocalFS.

The absolute numbers come from the simulation's latency models, so they do not
match the paper's testbed second-for-second; the assertions below check the
*shape* that Table 3 establishes:

* the IO-intensive benchmarks are nearly identical for all SCFS variants and
  LocalFS (they only touch the main-memory cache), with S3FS (no memory cache)
  and S3QL (slow small writes) as the outliers;
* the metadata-intensive benchmarks separate local/non-sharing systems from
  the shared variants by orders of magnitude, with blocking variants slower
  than non-blocking ones and S3FS slowest of all.

It also prints a canary for the create path: what one created file costs the
coordinated non-blocking variants, in cold ``stat`` calls (one coordination
access each) of the same run.  With the VFS lookups on that is ``exists``, the
``open(O_CREAT)`` that sends its insert first, and the ``stat`` of the
directory on the iterations that find its cache entry expired — 2.5 to 2.65.
A read back in front of the insert makes it 3.3 to 3.6 (what PR 16 measured)
and fails the run.
"""

from __future__ import annotations

import pytest

from repro.bench.filebench import TABLE3_PARAMS, create_files, table3
from repro.bench.report import render_table
from repro.bench.targets import build_target

#: Coordination accesses one created file may cost (see the module docstring).
CREATE_ACCESS_CEILING = 3.0


def accesses_per_created_file(variant: str) -> float:
    """Simulated seconds per created file over those of one cold ``stat``, in one run."""
    target = build_target(variant, seed=0)
    per_file = create_files(target, TABLE3_PARAMS) / TABLE3_PARAMS.create_count
    cold_stats = []
    for _ in range(20):
        target.sim.advance(1.0)  # past the metadata cache's expiration
        start = target.sim.now()
        target.fs.stat(TABLE3_PARAMS.directory)
        cold_stats.append(target.sim.now() - start)
    return per_file * len(cold_stats) / sum(cold_stats)


def test_table3_microbenchmarks(run_once, capsys):
    table, printed = run_once(table3)
    with capsys.disabled():
        print()
        print(render_table(*printed))
        print()
    create_accesses = {variant: accesses_per_created_file(variant)
                       for variant in ("SCFS-AWS-NB", "SCFS-CoC-NB")}
    with capsys.disabled():
        for variant, accesses in create_accesses.items():
            print(f"create files, {variant}: {accesses:.2f} cold stats per created file "
                  f"(ceiling {CREATE_ACCESS_CEILING})")

    # No coordination read ahead of the insert-if-absent of a create-open.
    for variant, accesses in create_accesses.items():
        assert accesses < CREATE_ACCESS_CEILING, (variant, accesses)

    create = table["create files"]
    copy = table["copy files"]
    random_write = table["random 4KB-write"]
    random_read = table["random 4KB-read"]

    # Metadata-intensive: NS/local vs shared variants differ by orders of magnitude.
    for coordinated in ("SCFS-AWS-NB", "SCFS-AWS-B", "SCFS-CoC-NB", "SCFS-CoC-B", "S3FS"):
        assert create[coordinated] > 20 * create["SCFS-CoC-NS"]
        assert create[coordinated] > 20 * create["LocalFS"]
        assert copy[coordinated] > 20 * copy["SCFS-CoC-NS"]

    # Blocking variants pay the cloud upload on every close: slower than non-blocking.
    assert create["SCFS-CoC-B"] > create["SCFS-CoC-NB"]
    assert create["SCFS-AWS-B"] > create["SCFS-AWS-NB"]

    # S3FS accesses the cloud on every create/open/close and is the slowest.
    assert create["S3FS"] > create["SCFS-AWS-NB"]

    # IO-intensive: every SCFS variant behaves like LocalFS (memory-cache reads/writes)...
    for variant in ("SCFS-AWS-NS", "SCFS-AWS-NB", "SCFS-AWS-B",
                    "SCFS-CoC-NS", "SCFS-CoC-NB", "SCFS-CoC-B"):
        assert random_read[variant] == pytest.approx(random_read["LocalFS"], rel=0.5)
    # ...S3QL's random 4 KB writes hit the documented slow path...
    assert random_write["S3QL"] > 3 * random_write["SCFS-CoC-NB"]
    # ...and S3FS pays for the missing main-memory cache.
    assert random_read["S3FS"] > random_read["SCFS-CoC-NB"]
