"""Unit tests for deployments, benchmark targets, workloads and cost model."""

import pytest

from repro.bench.costs import cached_read_cost, operation_costs_per_day
from repro.bench.filebench import MICRO_BENCHMARKS, MicroBenchmarkParams, run_microbenchmark
from repro.bench.report import human_size, render_table
from repro.bench.targets import ALL_TARGET_NAMES, SCFS_VARIANT_NAMES, build_target
from repro.common.units import KB, MB
from repro.core.deployment import SCFSDeployment
from repro.core.modes import VARIANTS, BackendKind


class TestDeployment:
    def test_aws_deployment_has_one_cloud(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=1)
        assert len(deployment.clouds) == 1
        assert deployment.coordination is not None

    def test_coc_deployment_has_four_clouds(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=1)
        assert len(deployment.clouds) == 4
        assert deployment.config.backend is BackendKind.COC

    def test_non_sharing_deployment_has_no_coordination(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NS", seed=1)
        assert deployment.coordination is None

    def test_agents_share_the_infrastructure(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=1)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        assert alice.coordination is bob.coordination
        assert deployment.agent_for("alice") is alice

    def test_costs_accumulate_with_usage(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=1)
        fs = deployment.create_agent("alice")
        assert deployment.costs().total == pytest.approx(0.0, abs=1e-9)
        fs.write_file("/f.bin", b"x" * MB)
        costs = deployment.costs()
        assert costs.usage.put_requests >= 1
        assert costs.total > 0.0
        deployment.reset_costs()
        assert deployment.costs().usage.put_requests == 0

    def test_coordination_entries_counted(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=1)
        fs = deployment.create_agent("alice")
        before = deployment.coordination_entries()
        fs.write_file("/f.bin", b"1", shared=True)
        assert deployment.coordination_entries() == before + 1

    def test_variant_matrix_builds_all_six(self):
        matrix = {name: SCFSDeployment.for_variant(name, seed=1) for name in VARIANTS}
        assert set(matrix) <= set(SCFS_VARIANT_NAMES)
        assert len(matrix) == 6

    def test_unmount_all(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-NB", seed=1)
        deployment.create_agent("alice")
        deployment.create_agent("bob")
        deployment.unmount_all()
        deployment.drain()


class TestBenchTargets:
    def test_all_targets_build_and_serve_files(self):
        for name in ALL_TARGET_NAMES:
            target = build_target(name, seed=3)
            target.fs.write_file("/probe.txt", b"probe")
            target.drain(3.0)
            assert target.fs.read_file("/probe.txt") == b"probe", name

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            build_target("NFS")

    def test_scfs_targets_report_deployment(self):
        assert build_target("SCFS-CoC-NB").deployment is not None
        assert build_target("LocalFS").deployment is None

    def test_config_overrides_reach_the_agent(self):
        target = build_target("SCFS-CoC-NB", private_name_spaces=True)
        assert target.fs.config.private_name_spaces


class TestMicroBenchmarks:
    @pytest.fixture(scope="class")
    def quick_params(self):
        return MicroBenchmarkParams(sample_ops=64, create_count=6, copy_count=4)

    def test_all_six_benchmarks_run_on_localfs(self, quick_params):
        for name in MICRO_BENCHMARKS:
            seconds = run_microbenchmark(name, "LocalFS", params=quick_params)
            assert seconds >= 0.0

    def test_metadata_benchmarks_rank_variants_as_in_table3(self, quick_params):
        ns = run_microbenchmark("create files", "SCFS-CoC-NS", params=quick_params)
        nb = run_microbenchmark("create files", "SCFS-CoC-NB", params=quick_params)
        blocking = run_microbenchmark("create files", "SCFS-CoC-B", params=quick_params)
        assert ns < nb < blocking

    def test_io_benchmarks_are_mode_independent(self, quick_params):
        nb = run_microbenchmark("random 4KB-read", "SCFS-CoC-NB", params=quick_params)
        blocking = run_microbenchmark("random 4KB-read", "SCFS-CoC-B", params=quick_params)
        assert nb == pytest.approx(blocking, rel=0.35)

    def test_random_ops_are_scaled_to_full_count(self, quick_params):
        full = quick_params.random_ops
        sampled = run_microbenchmark("random 4KB-read", "LocalFS", params=quick_params)
        per_op = sampled / full
        assert 1e-6 < per_op < 1e-3


class TestCostModel:
    def test_operation_costs_match_figure_11a(self):
        rows = {r.instance: r for r in operation_costs_per_day()}
        large = rows["large"]
        assert large.ec2_per_day == pytest.approx(6.24)
        assert large.ec2_times_four_per_day == pytest.approx(24.96)
        assert large.coc_per_day == pytest.approx(39.60)
        assert large.capacity_files == 7_000_000
        extra = rows["extra_large"]
        assert extra.ec2_per_day == pytest.approx(12.96)
        assert extra.coc_per_day == pytest.approx(77.04)
        assert extra.capacity_files == 15_000_000

    def test_cached_read_costs_about_eleven_microdollars(self):
        assert cached_read_cost() == pytest.approx(11.32, rel=0.05)


class TestReport:
    def test_render_table_includes_all_cells(self):
        text = render_table("Title", ["a", "b"], [[1, 2.5], ["x", 3.0]])
        assert "Title" in text and "2.50" in text and "x" in text

    def test_human_size(self):
        assert human_size(256 * KB) == "256K"
        assert human_size(16 * MB) == "16M"
        assert human_size(100) == "100B"
