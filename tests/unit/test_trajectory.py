"""The BENCH_*.json perf-trajectory pipeline (:mod:`repro.bench.trajectory`)."""

from __future__ import annotations

import json

import pytest

from repro.bench import trajectory


@pytest.fixture
def root(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
    monkeypatch.delenv("BENCH_PR", raising=False)
    monkeypatch.setenv("BENCH_DATE", "2026-08-07")
    return tmp_path


class TestRecord:
    def test_first_entry_seeds_the_trajectory(self, root):
        path = trajectory.record_bench("demo", {"latency_s": 1.5}, pr=3)
        assert path == root / "BENCH_demo.json"
        entries = json.loads(path.read_text())
        assert entries == [
            {"pr": 3, "date": "2026-08-07", "metrics": {"latency_s": 1.5}}]

    def test_same_pr_merges_metrics(self, root):
        trajectory.record_bench("demo", {"a": 1}, pr=3)
        trajectory.record_bench("demo", {"b": 2}, pr=3)
        [entry] = trajectory.load_trajectory("demo")
        assert entry["metrics"] == {"a": 1, "b": 2}

    def test_default_pr_appends_a_candidate_entry(self, root):
        trajectory.record_bench("demo", {"a": 1}, pr=5)
        trajectory.record_bench("demo", {"a": 2})  # no BENCH_PR: candidate
        entries = trajectory.load_trajectory("demo")
        assert [e["pr"] for e in entries] == [5, 6]

    def test_all_default_pr_calls_share_one_candidate(self, root):
        # A harness records from several tests; without BENCH_PR they must
        # all merge into a single candidate entry, not a chain of them.
        trajectory.record_bench("demo", {"a": 1}, pr=5)
        trajectory.record_bench("demo", {"sweep": 1.0})
        trajectory.record_bench("demo", {"burst": 2.0})
        entries = trajectory.load_trajectory("demo")
        assert [e["pr"] for e in entries] == [5, 6]
        assert entries[-1]["metrics"] == {"sweep": 1.0, "burst": 2.0}

    def test_bench_pr_env_pins_the_entry(self, root, monkeypatch):
        monkeypatch.setenv("BENCH_PR", "9")
        trajectory.record_bench("demo", {"a": 1})
        assert trajectory.load_trajectory("demo")[0]["pr"] == 9

    def test_entries_stay_sorted_by_pr(self, root):
        trajectory.record_bench("demo", {"a": 1}, pr=7)
        trajectory.record_bench("demo", {"a": 2}, pr=2)
        assert [e["pr"] for e in trajectory.load_trajectory("demo")] == [2, 7]

    def test_rejects_non_array_file(self, root):
        (root / "BENCH_demo.json").write_text('{"pr": 1}')
        with pytest.raises(ValueError):
            trajectory.load_trajectory("demo")


def _entries(*metric_dicts):
    return [{"pr": index + 1, "date": "2026-08-07", "metrics": metrics}
            for index, metrics in enumerate(metric_dicts)]


class TestGate:
    def test_within_tolerance_passes(self):
        report, violations = trajectory.gate(
            _entries({"wall_ms": 10.0}, {"wall_ms": 14.0}), {"wall_ms": 0.5})
        assert violations == []
        assert any("ok" in line for line in report)

    def test_regression_past_tolerance_fails(self):
        report, violations = trajectory.gate(
            _entries({"wall_ms": 10.0}, {"wall_ms": 16.0}), {"wall_ms": 0.5})
        assert len(violations) == 1 and "wall_ms" in violations[0]

    def test_single_entry_is_ungated(self):
        report, violations = trajectory.gate(
            _entries({"wall_ms": 10.0}), {"wall_ms": 0.5})
        assert violations == []

    def test_missing_metric_is_reported_not_failed(self):
        report, violations = trajectory.gate(
            _entries({"other": 1.0}, {"wall_ms": 99.0}), {"wall_ms": 0.5})
        assert violations == []
        assert any("ungated" in line for line in report)

    def test_compares_last_two_entries_only(self):
        entries = _entries({"wall_ms": 1.0}, {"wall_ms": 100.0}, {"wall_ms": 101.0})
        _, violations = trajectory.gate(entries, {"wall_ms": 0.5})
        assert violations == []

    def test_a_row_without_the_metric_does_not_switch_the_gate_off(self):
        # A checked-in full-mode row carries no fast_ keys: the candidate is
        # gated against the newest row that does.
        entries = _entries({"fast_mbps": 100.0}, {"mbps": 300.0}, {"fast_mbps": 50.0})
        report, violations = trajectory.gate(entries, {}, {"fast_mbps": 0.2})
        assert len(violations) == 1 and "fast_mbps" in violations[0]
        assert any("(PR 1)" in line for line in report)

    def test_a_last_entry_without_a_baselined_metric_fails(self):
        _, violations = trajectory.gate(
            _entries({"mbps": 100.0}, {"other": 1.0}), {}, {"mbps": 0.2})
        assert violations == ["mbps: PR 1 records it, PR 2 not"]


class TestFloorGate:
    """Higher-is-better metrics gated by maximum allowed drop."""

    def test_drop_within_floor_passes(self):
        report, violations = trajectory.gate(
            _entries({"mbps": 100.0}, {"mbps": 85.0}), {}, {"mbps": 0.2})
        assert violations == []
        assert any("ok" in line for line in report)

    def test_drop_past_floor_fails(self):
        report, violations = trajectory.gate(
            _entries({"mbps": 100.0}, {"mbps": 79.0}), {}, {"mbps": 0.2})
        assert len(violations) == 1 and "mbps" in violations[0]
        assert "floor" in violations[0]

    def test_improvement_always_passes(self):
        _, violations = trajectory.gate(
            _entries({"mbps": 100.0}, {"mbps": 250.0}), {}, {"mbps": 0.2})
        assert violations == []

    def test_missing_floor_metric_is_ungated(self):
        report, violations = trajectory.gate(
            _entries({"other": 1.0}, {"mbps": 50.0}), {}, {"mbps": 0.2})
        assert violations == []
        assert any("ungated" in line for line in report)

    def test_ceilings_and_floors_combine(self):
        entries = _entries({"wall_ms": 10.0, "mbps": 100.0},
                           {"wall_ms": 20.0, "mbps": 50.0})
        _, violations = trajectory.gate(
            entries, {"wall_ms": 0.5}, {"mbps": 0.2})
        assert len(violations) == 2


class TestCli:
    def test_gate_command_passes_and_fails(self, root, capsys):
        trajectory.record_bench("demo", {"wall_ms": 10.0}, pr=1)
        trajectory.record_bench("demo", {"wall_ms": 12.0}, pr=2)
        path = str(root / "BENCH_demo.json")
        assert trajectory.main(["gate", path, "--tol", "wall_ms=0.5"]) == 0
        trajectory.record_bench("demo", {"wall_ms": 40.0}, pr=3)
        assert trajectory.main(["gate", path, "--tol", "wall_ms=0.5"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_show_command_prints_sorted_entries(self, root, capsys):
        trajectory.record_bench("demo", {"a": 1}, pr=2)
        trajectory.record_bench("demo", {"a": 2}, pr=1)
        assert trajectory.main(["show", str(root / "BENCH_demo.json")]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert [e["pr"] for e in shown] == [1, 2]

    def test_bad_tolerance_syntax_rejected(self, root):
        trajectory.record_bench("demo", {"a": 1}, pr=1)
        with pytest.raises(SystemExit):
            trajectory.main(["gate", str(root / "BENCH_demo.json"),
                             "--tol", "nonsense"])

    def test_floor_flag_gates_throughput_drops(self, root, capsys):
        trajectory.record_bench("demo", {"mbps": 100.0}, pr=1)
        trajectory.record_bench("demo", {"mbps": 90.0}, pr=2)
        path = str(root / "BENCH_demo.json")
        assert trajectory.main(["gate", path, "--floor", "mbps=0.2"]) == 0
        trajectory.record_bench("demo", {"mbps": 60.0}, pr=3)
        assert trajectory.main(["gate", path, "--floor", "mbps=0.2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
