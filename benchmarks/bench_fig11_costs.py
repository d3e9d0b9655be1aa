"""Figure 11 — operation and usage costs of SCFS.

Regenerates the three cost views of §4.5:

* 11(a): the fixed cost of running the coordination service (VM rental per
  day for one EC2 instance, four EC2 instances, or one instance in each CoC
  provider) and its expected metadata capacity — these numbers are taken from
  the same price list as the paper and must match it exactly;
* 11(b): the measured cost per read/write operation as a function of file
  size — reads are dominated by outbound traffic and grow linearly, writes
  cost only requests/coordination accesses and stay flat, CoC ≥ AWS;
* 11(c): the measured storage cost per file version per day — the
  cloud-of-clouds pays roughly 50 % more than the single cloud thanks to the
  erasure code with preferred quorums.
"""

from __future__ import annotations

import pytest

from repro.bench.costs import DEFAULT_COST_SIZES as SIZES, cached_read_cost, fig11a, fig11b, fig11c
from repro.bench.report import render_table
from repro.common.units import MB


def test_fig11a_operation_costs_per_day(run_once, capsys):
    rows, table = run_once(fig11a)
    with capsys.disabled():
        print()
        print(render_table(*table))

    by_instance = {r.instance: r for r in rows}
    assert by_instance["large"].ec2_per_day == pytest.approx(6.24)
    assert by_instance["large"].ec2_times_four_per_day == pytest.approx(24.96)
    assert by_instance["large"].coc_per_day == pytest.approx(39.60)
    assert by_instance["large"].capacity_files == 7_000_000
    assert by_instance["extra_large"].ec2_per_day == pytest.approx(12.96)
    assert by_instance["extra_large"].ec2_times_four_per_day == pytest.approx(51.84)
    assert by_instance["extra_large"].coc_per_day == pytest.approx(77.04)
    assert by_instance["extra_large"].capacity_files == 15_000_000
    # The price of tolerating provider failures (the $451/month of §4.5) is the
    # difference between the CoC and the 4xEC2 deployments.
    fault_tolerance_premium = by_instance["large"].coc_per_day - by_instance["large"].ec2_times_four_per_day
    assert fault_tolerance_premium * 30 == pytest.approx(439.2, rel=0.05)


def test_fig11b_cost_per_operation(run_once, capsys):
    results, table = run_once(fig11b)
    with capsys.disabled():
        print()
        print(render_table(*table))
        print(f"cached read (metadata validation only): {cached_read_cost():.2f} u$")

    # Fault-free measured CoC reads must hit the preferred (systematic) quorum.
    for size in SIZES:
        assert results["CoC read"][size].read_path == "systematic"

    # Reads grow with the file size (outbound traffic is charged)...
    assert results["AWS read"][30 * MB].total > 10 * results["AWS read"][1 * MB].total
    assert results["CoC read"][30 * MB].total > 10 * results["CoC read"][1 * MB].total
    # ...while writes stay flat (inbound traffic is free).
    assert results["AWS write"][30 * MB].total < 2 * results["AWS write"][1 * MB].total
    assert results["CoC write"][30 * MB].total < 2 * results["CoC write"][1 * MB].total
    # Writing is much cheaper than reading for any non-trivial file size.
    assert results["AWS write"][10 * MB].total < results["AWS read"][10 * MB].total
    # The CoC backend costs at least as much as the single cloud for both.
    for size in SIZES:
        assert results["CoC read"][size].total >= 0.9 * results["AWS read"][size].total
        assert results["CoC write"][size].total >= results["AWS write"][size].total
    # Reading a locally cached file only pays the metadata validation (~11 u$).
    assert cached_read_cost() == pytest.approx(11.32, rel=0.05)


def test_fig11c_cost_per_file_per_day(run_once, capsys):
    results, table = run_once(fig11c)
    with capsys.disabled():
        print()
        print(render_table(*table))

    for size in SIZES:
        ratio = results["CoC"][size].micro_dollars_per_day / results["AWS"][size].micro_dollars_per_day
        # The erasure code with preferred quorums costs ~50% extra storage (§4.5).
        assert 1.3 < ratio < 1.8
    # Cost grows linearly with the file size.
    assert results["AWS"][30 * MB].micro_dollars_per_day == pytest.approx(
        30 * results["AWS"][1 * MB].micro_dollars_per_day, rel=0.1)
