#!/usr/bin/env python3
"""Two-clock, layer-by-layer benchmark of the unmodified ``src/repro``.

One command, two ways to call it (see ``README.md`` next to this file):

``python3 benchmarks/layers/run.py [--workload W] [--seed S] [--passes N] [--traced] [--smoke] [--out DIR]``
    runs the workloads, prints every metric by name with its unit, checks the
    outputs and writes ``results/baseline.json`` (``--traced`` adds
    ``layers.json``, ``LEDGER.md`` and the spans);

``python3 benchmarks/layers/run.py --workload W --seed S --seconds T --trace 0|1``
    one measured run of one workload: passes repeat until ``T`` seconds were
    measured, and the last line of stdout is one JSON object with the
    end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

``--compare A.json B.json`` reports B against A for every end-to-end metric.

Every pass is a fresh child process of this script (``--child``), one at a
time.  Simulated-clock metrics, counts, ratios and fingerprints must be
identical across the passes of a run — the determinism check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCES = os.path.join(ROOT, "src")
sys.path[:0] = [SOURCES, HERE]
if not os.path.isdir(os.path.join(SOURCES, "repro")):
    sys.exit(f"run.py: no program to measure: {SOURCES}/repro is missing")

import ledger  # noqa: E402
import workloads  # noqa: E402

#: A gating run repeats passes until ``--seconds`` of wall time are spent: never
#: fewer than two (the determinism check needs a second pass), never more than six.
MIN_PASSES, MAX_PASSES = 2, 6
#: ``--compare`` judges the ungated host timings against this advisory bound.
HOST_ADVISORY_BOUND = 0.10


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the names, units, directions and bounds this script emits."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------------ passes


def spawn_pass(workload: str, seed: int, smoke: bool = False, traced: bool = False,
               spans_out: str | None = None) -> dict[str, Any]:
    """Run one pass in a fresh child process and return what it printed."""
    command = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
               "--seed", str(seed), "--spawned-at", repr(time.time())]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    if spans_out:
        command += ["--spans-out", spans_out]
    # One hash seed for every pass: same dict/set layouts, same allocation pattern.
    child = subprocess.run(command, capture_output=True, text=True, check=False,
                           env={**os.environ, "PYTHONHASHSEED": "0"})
    if child.returncode != 0:
        raise RuntimeError(f"pass of {workload} exited {child.returncode}:\n{child.stderr[-4000:]}")
    return json.loads(child.stdout.splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    result = workloads.run_pass(args.workload, args.seed, smoke=args.smoke,
                                traced=args.traced, spawned_at=args.spawned_at,
                                spans_out=args.spans_out)
    print(json.dumps(result))
    return 0


def fold_rule(metric: str) -> str:
    """How a metric's per-pass values become one number.

    Host-clock noise on a shared machine is additive and right-tailed, and the
    passes of a run execute the same script, so a host timing is computed on
    each timed call's best (lowest) sample across the passes; set-up time and
    peak RSS take the median pass; everything on the simulated clock, every
    count and every ratio must be identical across passes.
    """
    if metric.startswith("host_"):
        return "best-per-op"
    if metric in ("setup_s", "peak_rss_mb"):
        return "median"
    return "identical"


def per_pass_values(result: dict[str, Any]) -> dict[str, float]:
    return {"setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"],
            **result["sim"], **result["host"]}


def fold(passes: list[dict[str, Any]], spec: dict[str, Any]) -> dict[str, Any]:
    """Fold the untraced passes of one run into its end-to-end metrics and verdicts."""
    failures: list[str] = []
    first = passes[0]
    for index, other in enumerate(passes[1:], start=1):
        if other["sim"] != first["sim"] or other["fingerprint"] != first["fingerprint"]:
            failures.append(f"determinism: pass {index} differs from pass 0 on the simulated clock")
    values = [per_pass_values(result) for result in passes]
    best_per_op = {}
    for kind in first["host_samples"]:
        rows = [result["host_samples"][kind] for result in passes]
        if len({len(row) for row in rows}) != 1:
            failures.append(f"determinism: passes timed different numbers of {kind} calls")
            rows = rows[:1]
        best_per_op[kind] = [min(column) for column in zip(*rows)]
    host = workloads.host_metrics(best_per_op, first["attempted"])
    metrics = {}
    gated = {entry["name"]: entry for entry in spec["end_to_end"]}
    for name in [*gated, *ledger.HOST_TIMINGS]:
        column = [row[name] for row in values]
        rule = fold_rule(name)
        chosen = (host[name] if rule == "best-per-op"
                  else statistics.median(column) if rule == "median" else column[0])
        # Sample count behind the number: ops of its class (``sim_<class>_...``,
        # ``host_<class>_...``), else all ops of a pass.
        op_class = name.split("_")[1]
        metrics[name] = {"value": chosen, "unit": gated.get(name, {"unit": "ms"})["unit"],
                         "fold": rule, "gated": name in gated,
                         "samples": first["samples"].get(op_class, first["attempted"]),
                         "per_pass": column}
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    for result in passes:
        failures += result["failures"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failed_ops_ratio": failed / attempted, "fingerprint": first["fingerprint"],
            "failures": failures, "passes": len(passes),
            "measured_host_s": [result["measured_host_s"] for result in passes]}


def traced_metrics(untraced: dict[str, Any], traced: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced pass, checked against an untraced pass of the same seed.

    The host timings of the user-visible calls ride along, from the untraced pass.
    """
    failures = list(traced["failures"])
    if traced["sim"] != untraced["sim"] or traced["fingerprint"] != untraced["fingerprint"]:
        failures.append("tracing perturbed the simulation: simulated metrics or fingerprint differ")
    layers = {**traced["layers"], **untraced["host"]}
    layers["trace.overhead_ratio"] = (traced["host"]["host_ms_per_op"]
                                      / untraced["host"]["host_ms_per_op"])
    if layers["trace.sim_residual_s"] != 0:
        failures.append(f"trace.sim_residual_s is {layers['trace.sim_residual_s']}, not 0")
    return layers, failures


# --------------------------------------------------------------------- one run


def driver_main(args: argparse.Namespace) -> int:
    """``--workload W --seed S --seconds T --trace 0|1``: one run, JSON on the last line."""
    spec = load_spec()
    workload = args.workload
    if args.trace:
        untraced = spawn_pass(workload, args.seed, args.smoke)
        traced = spawn_pass(workload, args.seed, args.smoke, traced=True)
        layers, failures = traced_metrics(untraced, traced)
        failures += untraced["failures"]
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        metrics = {name: {"value": layers[name], "unit": ledger.unit_of(name)}
                   for name in (entry["name"] for entry in spec["per_layer"])}
    else:
        started = time.perf_counter()
        passes: list[dict[str, Any]] = []
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - started < args.seconds and len(passes) < MAX_PASSES):
            passes.append(spawn_pass(workload, args.seed, args.smoke))
        folded = fold(passes, spec)
        failures, attempted, failed = folded["failures"], folded["attempted"], folded["failed"]
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in folded["metrics"].items() if m["gated"]}
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']!r} {metric['unit']}")
    for failure in failures:
        print(f"FAILED CHECK {workload}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ------------------------------------------------------------------- full report


def report_main(args: argparse.Namespace) -> int:
    """Run the chosen workloads ``--passes`` times each; print, check and write the results."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload in (None, "all") else [args.workload]
    out_dir = args.out or os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    baseline: dict[str, Any] = {"seed": args.seed, "passes": args.passes, "smoke": args.smoke,
                                "workloads": {}}
    layers_out: dict[str, dict[str, float]] = {}
    failing: list[str] = []
    for workload in chosen:
        started = time.perf_counter()
        passes = [spawn_pass(workload, args.seed, args.smoke) for _ in range(args.passes)]
        folded = fold(passes, spec)
        baseline["workloads"][workload] = folded
        print(f"\n== {workload}: {folded['passes']} passes, {folded['attempted']} ops attempted, "
              f"{folded['failed']} failed, fingerprint {folded['fingerprint'][:16]}")
        for name, metric in folded["metrics"].items():
            print(f"  {name:28s} {metric['value']:>16.6f} {metric['unit']:8s} "
                  f"[{metric['fold']}, n={metric['samples']}"
                  f"{'' if metric['gated'] else ', not gated'}]")
        print(f"  {'failed_ops_ratio':28s} {folded['failed_ops_ratio']:>16.6f} ratio")
        failures = list(folded["failures"])
        if args.traced:
            traced = spawn_pass(workload, args.seed, args.smoke, traced=True,
                                spans_out=os.path.join(out_dir, f"spans-{workload}.jsonl"))
            # Against the untraced passes' folded host timings, not one noisy pass.
            best = {name: folded["metrics"][name]["value"] for name in ledger.HOST_TIMINGS}
            layers, traced_failures = traced_metrics({**passes[0], "host": best}, traced)
            failures += traced_failures
            layers_out[workload] = layers
            for name in ledger.metric_names():
                print(f"  {name:40s} {layers[name]:>16.6f} {ledger.unit_of(name)}")
        for failure in failures:
            print(f"  FAILED CHECK: {failure}")
        failing += [f"{workload}: {failure}" for failure in failures]
        if folded["failed"] and not failures:
            failing.append(f"{workload}: failed_ops_ratio is {folded['failed_ops_ratio']}")
        print(f"  ({time.perf_counter() - started:.1f} s wall)")
    if not args.smoke or args.out:
        _write_json(os.path.join(out_dir, "baseline.json"), baseline)
        if args.traced:
            _write_json(os.path.join(out_dir, "layers.json"), layers_out)
            with open(os.path.join(out_dir, "LEDGER.md"), "w", encoding="utf-8") as handle:
                handle.write(ledger.render_ledger(layers_out))
    if failing:
        print("\nFAILED: " + "; ".join(failing), file=sys.stderr)
        return 1
    print("\nall checks passed (simulated clock unvalidated against the paper)")
    return 0


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------- compare


def spread(values: list[float]) -> float:
    """Relative spread of a metric's per-pass values (range over median)."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def compare_main(path_a: str, path_b: str) -> int:
    """Print B against A per workload and end-to-end metric; exit 1 on any ``worse``."""
    spec = load_spec()
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        base, change = json.load(a), json.load(b)
    worse = 0
    for workload in base["workloads"]:
        if workload not in change["workloads"]:
            continue
        print(f"\n== {workload}")
        print(f"  {'metric':28s} {'A':>14s} {'B':>14s} {'change vs A':>12s} {'bound':>7s}  verdict")
        advisory = [{"name": name, "bound": HOST_ADVISORY_BOUND, "better": "lower"}
                    for name in ledger.HOST_TIMINGS]
        for entry in spec["end_to_end"] + advisory:
            name, bound = entry["name"], entry["bound"]
            a_metric = base["workloads"][workload]["metrics"][name]
            b_metric = change["workloads"][workload]["metrics"][name]
            delta = (b_metric["value"] - a_metric["value"]) / a_metric["value"]
            if entry["better"] == "higher":
                delta = -delta
            noisy = max(spread(a_metric["per_pass"]), spread(b_metric["per_pass"])) > bound
            verdict = "ok" if delta <= bound else ("unresolved" if noisy else "worse")
            worse += verdict == "worse"
            print(f"  {name:28s} {a_metric['value']:>14.6g} {b_metric['value']:>14.6g} "
                  f"{100 * delta:>+11.2f}% {100 * bound:>6.1f}%  {verdict}")
    return 1 if worse else 0


# -------------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--passes", type=int, help="passes per workload (default 3; 2 with --smoke)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes is None:
        args.passes = 2 if args.smoke else 3
    if args.child:
        return child_main(args)
    if args.compare:
        return compare_main(*args.compare)
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return driver_main(args)
    return report_main(args)


if __name__ == "__main__":
    sys.exit(main())
