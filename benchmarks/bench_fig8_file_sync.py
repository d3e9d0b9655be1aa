"""Figure 8 — the file-synchronisation-service (OpenOffice-like) benchmark.

Regenerates the open/save/close action latencies of a 1.2 MB document for the
non-blocking systems (SCFS-AWS-NB, SCFS-CoC-NB, SCFS-CoC-NS, S3QL — Figure
8a) and the blocking systems (SCFS-AWS-B, SCFS-CoC-B, S3FS — Figure 8b), each
with lock files on the cloud-backed file system and with local lock files
(the "(L)" variants).

Shape assertions, mirroring §4.3:

* the non-sharing variant behaves like a local file system (sub-second save);
* saving on the non-blocking variants costs on the order of a second;
* the blocking variants are dominated by pushing the small lock files to the
  cloud(s), and become much more responsive once lock files are kept locally.
"""

from __future__ import annotations

from repro.bench.report import render_table
from repro.bench.syncservice import fig8


def test_fig8_file_synchronization_benchmark(run_once, capsys):
    results, table = run_once(fig8)
    with capsys.disabled():
        print()
        print(render_table(*table))

    def total(system, local=False):
        return results[(system, local)].total

    def save(system, local=False):
        return results[(system, local)].save_latency

    # The non-sharing variant behaves like a local file system.
    assert save("SCFS-CoC-NS") < 0.3

    # Non-blocking save is around a second (coordination accesses + lock files).
    assert 0.3 < save("SCFS-CoC-NB") < 6.0
    assert save("SCFS-CoC-NB") > save("SCFS-CoC-NS")

    # Blocking variants are far slower because the lock files are pushed to the
    # cloud synchronously; S3FS behaves like a blocking system too.
    assert total("SCFS-CoC-B") > 2 * total("SCFS-CoC-NB")
    assert total("S3FS") > total("SCFS-CoC-NS")

    # Keeping lock files locally makes the blocking variants much more responsive.
    assert total("SCFS-CoC-B", local=True) < 0.6 * total("SCFS-CoC-B")
    assert total("SCFS-AWS-B", local=True) < 0.6 * total("SCFS-AWS-B")
