"""Figure 10 — varying SCFS parameters (metadata cache expiration and PNS sharing).

Regenerates the two §4.4 sweeps on SCFS-CoC-NB, using the create-files and
copy-files micro-benchmarks:

* Figure 10(a): metadata-cache expiration of 0, 250 and 500 ms — no cache is
  clearly worse, and the benefit saturates after a few hundred milliseconds;
* Figure 10(b): with Private Name Spaces enabled, the percentage of shared
  files varied from 0 to 100 % — latency decreases as more files are private,
  with the fully-private case close to a local file system.
"""

from __future__ import annotations

from repro.bench.report import render_table
from repro.bench.sweeps import fig10a, fig10b


def test_fig10a_metadata_cache_expiration(run_once, capsys):
    sweep, table = run_once(fig10a)
    with capsys.disabled():
        print()
        print(render_table(*table))

    by_setting = {point.setting: point for point in sweep.points}
    # Disabling the cache severely degrades both benchmarks...
    assert by_setting[0.0].create_seconds > 1.15 * by_setting[0.5].create_seconds
    assert by_setting[0.0].copy_seconds > 1.15 * by_setting[0.5].copy_seconds
    # ...while going from 250 ms to 500 ms changes little: the knee of Fig. 10a,
    # stated as a shape (the first 250 ms of expiry buy at least three times
    # what the next 250 ms do), not as a ratio of absolute times — a faster
    # create path shrinks both points and inflates any such ratio.
    first_drop = by_setting[0.0].create_seconds - by_setting[0.25].create_seconds
    second_drop = by_setting[0.25].create_seconds - by_setting[0.5].create_seconds
    assert first_drop >= 3 * second_drop


def test_fig10b_private_name_spaces(run_once, capsys):
    sweep, table = run_once(fig10b)
    with capsys.disabled():
        print()
        print(render_table(*table))

    by_percent = {point.setting: point for point in sweep.points}
    # Latency grows with the fraction of shared files...
    assert by_percent[0.0].create_seconds < by_percent[50.0].create_seconds < by_percent[100.0].create_seconds
    assert by_percent[0.0].copy_seconds < by_percent[100.0].copy_seconds
    # ...the fully-private case is near-local...
    assert by_percent[0.0].create_seconds < 0.1 * by_percent[100.0].create_seconds
    # ...and 25 % sharing is at least ~2x faster than full sharing (the paper
    # reports factors of 2.5 for create and 3.5 for copy).
    assert by_percent[100.0].create_seconds / by_percent[25.0].create_seconds > 2.0
    assert by_percent[100.0].copy_seconds / by_percent[25.0].copy_seconds > 2.0
