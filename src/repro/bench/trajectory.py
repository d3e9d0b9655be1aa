"""Per-PR benchmark trajectories: ``BENCH_<name>.json`` files at the repo root.

Every benchmark harness appends one entry per PR to its trajectory file::

    [
      {"pr": 5, "date": "2026-07-30", "metrics": {"read_p50_s": 0.141, ...}},
      {"pr": 6, "date": "2026-08-07", "metrics": {"read_p50_s": 0.139, ...}}
    ]

The file is a JSON array ordered by ``pr``; re-recording an existing PR
*merges* the new metrics into its entry (several tests of one harness
contribute to the same entry, and a re-run is idempotent).  The checked-in
files are the performance history of the repo: CI re-measures the tip as a
*candidate* entry and gates selected metrics against the last checked-in one
(:func:`gate`), so a perf regression fails the build while the diff of the
trajectory file documents every PR's numbers.

Environment knobs
-----------------
``BENCH_PR``
    PR number to record under.  Unset: one past the last recorded entry
    (the CI candidate-entry mode).
``BENCH_DATE``
    ISO date to stamp (unset: today).
``BENCH_OUTPUT_DIR``
    Directory holding the ``BENCH_*.json`` files (unset: the repo root,
    located relative to this package).

Command line
------------
``python -m repro.bench.trajectory gate BENCH_scale.json --tol metric=0.5``
compares the last entry against the newest earlier one recording each metric:
each ``--tol`` metric is lower-is-better and may grow by at most the given
fraction (``0.5`` = +50 %), while each ``--floor`` metric is higher-is-better
and may *drop* by at most the given fraction (``--floor encode_mbps_4_2=0.2``
fails below 80 % of the baseline).  Exit status 1 on violation.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path
from typing import Any


def bench_root() -> Path:
    """Directory holding the trajectory files (env override or repo root)."""
    override = os.environ.get("BENCH_OUTPUT_DIR")
    if override:
        return Path(override)
    # src/repro/bench/trajectory.py -> repo root is four parents up.
    return Path(__file__).resolve().parents[3]


def trajectory_path(name: str, root: Path | None = None) -> Path:
    """Path of the ``BENCH_<name>.json`` trajectory file."""
    return (root or bench_root()) / f"BENCH_{name}.json"


def load_trajectory(name: str, root: Path | None = None) -> list[dict[str, Any]]:
    """The recorded entries of one trajectory, ordered by PR (empty if none)."""
    path = trajectory_path(name, root)
    if not path.exists():
        return []
    entries = json.loads(path.read_text())
    if not isinstance(entries, list):
        raise ValueError(f"{path} must hold a JSON array of entries")
    return sorted(entries, key=lambda entry: entry["pr"])


#: Candidate PR numbers picked per (file, trajectory) this process.  All
#: default-pr record_bench calls of one bench run must land on ONE candidate
#: entry — without this, the second test of a harness would see the first
#: test's candidate as "the last entry" and open yet another one, and the
#: gate would end up comparing the two halves of the same run.
_candidate_prs: dict[Path, int] = {}


def record_bench(name: str, metrics: dict[str, Any], pr: int | None = None,
                 date: str | None = None, root: Path | None = None) -> Path:
    """Merge ``metrics`` into the trajectory entry for ``pr`` and rewrite the file.

    ``pr`` defaults to ``$BENCH_PR`` when set, otherwise to one past the last
    recorded entry (a fresh *candidate* entry for CI gating; ``1`` on an empty
    trajectory).  The candidate number is remembered per trajectory file, so
    every default-pr call in one process merges into the same entry.
    Returns the path written.
    """
    entries = load_trajectory(name, root)
    if pr is None:
        env = os.environ.get("BENCH_PR")
        if env:
            pr = int(env)
        else:
            candidate_key = trajectory_path(name, root).resolve()
            pr = _candidate_prs.get(candidate_key)
            if pr is None:
                pr = entries[-1]["pr"] + 1 if entries else 1
                _candidate_prs[candidate_key] = pr
    if date is None:
        date = os.environ.get("BENCH_DATE") or datetime.date.today().isoformat()
    for entry in entries:
        if entry["pr"] == pr:
            entry["date"] = date
            entry["metrics"].update(metrics)
            break
    else:
        entries.append({"pr": pr, "date": date, "metrics": dict(metrics)})
        entries.sort(key=lambda entry: entry["pr"])
    path = trajectory_path(name, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return path


def gate(entries: list[dict[str, Any]],
         tolerances: dict[str, float],
         floors: dict[str, float] | None = None) -> tuple[list[str], list[str]]:
    """Compare the last entry against the previous one under the given bounds.

    ``tolerances`` maps a lower-is-better metric to its maximum allowed
    fractional growth (``0.5`` allows the metric to rise by 50 %).
    ``floors`` maps a higher-is-better metric (e.g. a throughput) to its
    maximum allowed fractional *drop* (``0.2`` fails when it falls below
    80 % of the baseline).  Returns ``(report_lines, violations)`` — an
    empty violation list means the gate passes.  A metric's baseline is the
    newest earlier entry recording it, so a row measured in another mode does
    not switch the gate off; with none the metric is ungated (it seeds its
    baseline), and a last entry that lacks a baselined metric fails.
    """
    report: list[str] = []
    violations: list[str] = []
    if len(entries) < 2:
        report.append("gate: fewer than two entries recorded — nothing to compare")
        return report, violations
    current = entries[-1]
    report.append(f"gate: PR {current['pr']} vs the newest earlier entry with each metric")
    bounds = [(metric, tolerance, "ceiling")
              for metric, tolerance in sorted(tolerances.items())]
    bounds += [(metric, fraction, "floor")
               for metric, fraction in sorted((floors or {}).items())]
    for metric, fraction, kind in bounds:
        baseline = next((entry for entry in reversed(entries[:-1])
                         if metric in entry["metrics"]), None)
        after = current["metrics"].get(metric)
        if baseline is None:
            report.append(f"  {metric}: no earlier entry records it — ungated")
            continue
        before = baseline["metrics"][metric]
        if after is None:
            violations.append(f"{metric}: PR {baseline['pr']} records it, PR {current['pr']} not")
            continue
        if kind == "ceiling":
            limit = before * (1.0 + fraction)
            violated = after > limit
            bound_text = f"limit {limit:g}, +{fraction:.0%}"
            fail_text = (f"{metric} regressed: {after:g} > {limit:g} "
                         f"(baseline {before:g} +{fraction:.0%})")
        else:
            limit = before * (1.0 - fraction)
            violated = after < limit
            bound_text = f"floor {limit:g}, -{fraction:.0%}"
            fail_text = (f"{metric} regressed: {after:g} < floor {limit:g} "
                         f"(baseline {before:g} -{fraction:.0%})")
        status = "REGRESSION" if violated else "ok"
        report.append(f"  {metric}: {before:g} (PR {baseline['pr']}) -> {after:g} "
                      f"({bound_text}) {status}")
        if violated:
            violations.append(fail_text)
    return report, violations


def _parse_tolerance(text: str) -> tuple[str, float]:
    metric, _, value = text.partition("=")
    if not metric or not value:
        raise argparse.ArgumentTypeError(
            f"expected metric=fraction, got {text!r}")
    return metric, float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="Inspect and gate BENCH_*.json perf trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)
    gate_parser = sub.add_parser(
        "gate", help="fail when the last entry regresses past tolerance")
    gate_parser.add_argument("file", type=Path, help="trajectory JSON file")
    gate_parser.add_argument(
        "--tol", action="append", type=_parse_tolerance, default=[],
        metavar="METRIC=FRACTION",
        help="gate lower-is-better METRIC to at most +FRACTION growth "
             "over the baseline")
    gate_parser.add_argument(
        "--floor", action="append", type=_parse_tolerance, default=[],
        metavar="METRIC=FRACTION",
        help="gate higher-is-better METRIC to at most -FRACTION drop "
             "below the baseline")
    show_parser = sub.add_parser("show", help="print one trajectory")
    show_parser.add_argument("file", type=Path)
    args = parser.parse_args(argv)

    entries = json.loads(args.file.read_text())
    entries.sort(key=lambda entry: entry["pr"])
    if args.command == "show":
        json.dump(entries, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    report, violations = gate(entries, dict(args.tol), dict(args.floor))
    print("\n".join(report))
    if violations:
        print("\n".join(f"FAIL: {v}" for v in violations), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    raise SystemExit(main())
