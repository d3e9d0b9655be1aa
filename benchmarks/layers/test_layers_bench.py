"""Self-tests of the layer benchmark (``python -m pytest benchmarks/layers -q``).

Not part of the tier-1 ``testpaths``: these check the benchmark's own
arithmetic and contract, not ``repro``.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ledger  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _span(parent, layer, host, sim, root=0):
    return [parent, root, layer, layer, host[0], host[1], sim[0], sim[1], None, False]


def test_self_time_subtracts_the_union_of_the_children_on_both_clocks():
    tracer = tr.Tracer()
    tracer.spans = [
        _span(-1, tr.DRIVER, (0.0, 10.0), (100.0, 200.0)),
        _span(0, "a", (1.0, 4.0), (100.0, 130.0)),   # first child
        _span(0, "b", (3.0, 6.0), (120.0, 150.0)),   # overlaps it on both clocks
        _span(0, "a", (8.0, 9.0), (180.0, 190.0)),   # after a gap
        _span(1, "c", (1.5, 2.5), (100.0, 100.0)),   # grandchild, no simulated time
    ]
    assert tracer.self_times() == [
        (10.0 - (5.0 + 1.0), 100.0 - (50.0 + 10.0)),  # union, not sum, of the children
        (3.0 - 1.0, 30.0),
        (3.0, 30.0),
        (1.0, 10.0),
        (1.0, 0.0),
    ]


def test_layer_self_times_of_a_nested_tree_sum_to_the_root_span():
    tracer = tr.Tracer()
    tracer.spans = [
        _span(-1, tr.DRIVER, (0.0, 8.0), (0.0, 4.0)),
        _span(0, "a", (1.0, 3.0), (0.0, 1.5)),
        _span(1, "b", (1.25, 2.0), (0.5, 1.5)),
        _span(0, "b", (4.0, 7.5), (1.5, 4.0)),        # sibling after a gap
        _span(-1, tr.DRIVER, (9.0, 10.0), (4.0, 4.25), root=4),
    ]
    summary = tracer.summary()
    layers = summary["layers"]
    assert summary["root_spans"] == 2
    assert summary["root_host_ms"] == 9000.0 and summary["root_sim_s"] == 4.25
    assert layers["a"] == {"calls": 1, "sim_self_s": 0.5, "host_self_ms": 1250.0}
    assert layers["b"] == {"calls": 2, "sim_self_s": 3.5, "host_self_ms": 4250.0}
    assert sum(row["host_self_ms"] for row in layers.values()) == summary["root_host_ms"]
    assert sum(row["sim_self_s"] for row in layers.values()) == summary["root_sim_s"]


def test_wrappers_stamp_both_clocks_nest_and_come_off_again():
    class Clock:
        now = 0.0

        def advance(self, seconds):
            Clock.now += seconds
            return inner(self)

    def inner(_clock):
        raise KeyError("boom")

    tracer = tr.Tracer()
    tracer.sim_now = lambda: Clock.now
    tracer.wrap(Clock, "advance", "simenv")
    with pytest.raises(KeyError):
        Clock().advance(2.5)
    tracer.remove()
    (span,) = tracer.spans
    assert span[tr.NAME] == "Clock.advance" and span[tr.FAILED]
    assert span[tr.S1] - span[tr.S0] == 2.5 and span[tr.H1] >= span[tr.H0]
    assert not hasattr(Clock.advance, "__wrapped__")


@pytest.fixture(scope="module")
def smoke_passes():
    untraced = workloads.run_pass("meta_small", seed=5, smoke=True)
    traced = workloads.run_pass("meta_small", seed=5, smoke=True, traced=True)
    return untraced, traced


def test_tracing_is_transparent_to_the_simulation(smoke_passes):
    from repro.core.agent import SCFSAgent
    from repro.crypto import hashing

    untraced, traced = smoke_passes
    assert traced["sim"] == untraced["sim"]
    assert traced["fingerprint"] == untraced["fingerprint"]
    assert traced["failed"] == untraced["failed"] == 0
    layers, failures = run.traced_metrics(untraced, traced)
    assert failures == [] and layers["trace.sim_residual_s"] == 0
    assert layers["trace.host_unattributed_ratio"] <= 0.05
    # Every wrapper is gone once the pass has ended.
    assert not hasattr(SCFSAgent.close, "__wrapped__")
    assert not hasattr(hashing.content_digest, "__wrapped__")


def test_benchmark_json_names_are_exactly_the_names_emitted(smoke_passes):
    untraced, traced = smoke_passes
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["benchmarks/layers"]
    end_to_end = [entry["name"] for entry in spec["end_to_end"]]
    per_layer = [entry["name"] for entry in spec["per_layer"]]
    assert set(end_to_end) | set(ledger.HOST_TIMINGS) == set(run.per_pass_values(untraced))
    assert per_layer == ledger.metric_names()
    assert set(per_layer) == set(run.traced_metrics(untraced, traced)[0])
    assert "setup_s" in end_to_end and len(per_layer) <= 128
    for name in end_to_end + per_layer + list(workloads.WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in spec["per_layer"]:
        assert entry["unit"] == ledger.unit_of(entry["name"])
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25


def test_fold_takes_each_calls_best_sample_median_setup_and_flags_a_diverging_pass(smoke_passes):
    untraced, _ = smoke_passes
    spec = run.load_spec()
    noisy = json.loads(json.dumps(untraced))
    timeline = noisy["host_samples"]["timeline"]
    timeline[::2] = [2 * sample for sample in timeline[::2]]   # noise on every other call
    quiet_elsewhere = json.loads(json.dumps(untraced))
    quiet_elsewhere["host_samples"]["timeline"][1::2] = [3 * s for s in timeline[1::2]]
    quiet_elsewhere["setup_s"] = noisy["setup_s"] = untraced["setup_s"] + 1.0
    folded = run.fold([noisy, quiet_elsewhere, untraced], spec)
    assert folded["failures"] == []
    assert folded["metrics"]["setup_s"]["value"] == untraced["setup_s"] + 1.0
    clean = run.fold([noisy, quiet_elsewhere], spec)["metrics"]["host_ms_per_op"]
    assert clean["value"] == pytest.approx(untraced["host"]["host_ms_per_op"])
    noisy["sim"]["sim_makespan_s"] += 1e-9
    assert "determinism" in run.fold([untraced, noisy], spec)["failures"][0]
