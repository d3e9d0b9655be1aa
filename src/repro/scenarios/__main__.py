"""Replay one scenario from the command line.

The sweep in ``tests/scenarios/test_random_scenarios.py`` prints this exact
invocation when a seed fails; running it reproduces the identical trace::

    PYTHONPATH=src python -m repro.scenarios --seed 17 --mix crash-hang

``--dump-trace`` prints the full JSONL history (diffable between runs).
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import ConfigurationError
from repro.core.modes import VARIANTS
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import FAULT_MIXES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.scenarios",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="scenario seed (the whole run derives from it)")
    parser.add_argument("--mix", choices=FAULT_MIXES, default="fault-free",
                        help="fault mix (default: fault-free)")
    parser.add_argument("--agents", type=int, default=3,
                        help="number of concurrent agents (default: 3)")
    parser.add_argument("--ops", type=int, default=10,
                        help="workload operations per agent (default: 10)")
    parser.add_argument("--variant", choices=sorted(VARIANTS), default=None,
                        help="force a Table 2 variant (default: seed-derived)")
    parser.add_argument("--dump-trace", action="store_true",
                        help="print the full JSONL trace after the report")
    args = parser.parse_args(argv)

    try:
        result = run_scenario(args.seed, mix=args.mix, agents=args.agents,
                              ops_per_agent=args.ops, variant=args.variant)
    except ConfigurationError as exc:  # e.g. a dispatch-policy mix on SCFS-AWS
        parser.error(str(exc))
    print(result.report())
    if args.dump_trace:
        print(result.trace.to_jsonl())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
