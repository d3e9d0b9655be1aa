"""Figure 9 — file-sharing latency between two clients.

Regenerates the 50th/90th-percentile latency between the instant client A
closes a file written to a shared folder and the instant client B has that
exact version, for 256 KB–16 MB files, on SCFS-CoC-B/NB, SCFS-AWS-B/NB and a
Dropbox-like synchronisation service.

Shape assertions, mirroring §4.3:

* the blocking variants exhibit the *smallest* sharing latency — when close
  returns, the data is already in the clouds, so B only pays detection and
  download;
* the non-blocking variants add the (background) upload time;
* the Dropbox-like service is far slower than any SCFS variant;
* latency grows with the file size for the upload-bound systems.
"""

from __future__ import annotations

from repro.bench.report import render_table
from repro.bench.sharing import SIZES, SYSTEMS, fig9
from repro.common.units import KB, MB


def test_fig9_sharing_latency(run_once, capsys):
    results, table = run_once(fig9)
    with capsys.disabled():
        print()
        print(render_table(*table))

    def p50(system, size):
        return results[(system, size)].p50

    for size in SIZES:
        # Blocking beats non-blocking (the upload already happened inside close).
        assert p50("SCFS-CoC-B", size) < p50("SCFS-CoC-NB", size)
        assert p50("SCFS-AWS-B", size) < p50("SCFS-AWS-NB", size)
        # Every SCFS variant beats the Dropbox-like synchronisation pipeline.
        for system in ("SCFS-CoC-B", "SCFS-CoC-NB", "SCFS-AWS-B", "SCFS-AWS-NB"):
            assert p50(system, size) < p50("Dropbox", size)
        # Percentiles are ordered.
        for system in SYSTEMS:
            assert results[(system, size)].p90 >= results[(system, size)].p50

    # Upload-bound systems get slower as files grow.
    assert p50("SCFS-CoC-NB", 16 * MB) > p50("SCFS-CoC-NB", 256 * KB)
    assert p50("Dropbox", 16 * MB) > p50("Dropbox", 256 * KB)
