"""Command-line interface to the SCFS reproduction.

Each artefact command runs the one function its ``benchmarks/`` case asserts
on, at the benchmark's own sizing and seed, and prints that function's table::

    python -m repro.cli table3      # Table 3, Filebench micro-benchmarks
    python -m repro.cli fig8        # Figure 8, file synchronisation
    python -m repro.cli fig9        # Figure 9, sharing latency
    python -m repro.cli fig10a      # Figure 10(a), metadata cache expiration
    python -m repro.cli fig10b      # Figure 10(b), PNS sharing percentage
    python -m repro.cli fig11a      # Figure 11(a), coordination cost per day
    python -m repro.cli fig11b      # Figure 11(b), cost per operation
    python -m repro.cli fig11c      # Figure 11(c), storage cost per day
    python -m repro.cli variants    # list the Table 2 variants
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.costs import fig11a, fig11b, fig11c
from repro.bench.filebench import table3
from repro.bench.report import render_table
from repro.bench.sharing import fig9
from repro.bench.sweeps import fig10a, fig10b
from repro.bench.syncservice import fig8
from repro.core.modes import VARIANTS

#: Artefact name -> the function that runs it and returns ``(results, table)``.
ARTEFACTS = {
    "table3": table3,
    "fig8": fig8,
    "fig9": fig9,
    "fig10a": fig10a,
    "fig10b": fig10b,
    "fig11a": fig11a,
    "fig11b": fig11b,
    "fig11c": fig11c,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("variants", help="list the Table 2 variants")
    for name in ARTEFACTS:
        sub.add_parser(name, help=f"print {name} as its benchmark does")
    return parser


def main(argv: list[str] | None = None) -> int:
    command = build_parser().parse_args(argv).command
    if command == "variants":
        rows = [[spec.name, spec.mode.value, spec.backend.value, spec.label]
                for spec in VARIANTS.values()]
        print(render_table("Table 2 - SCFS variants", ["name", "mode", "backend", "label"], rows))
    else:
        _, table = ARTEFACTS[command]()
        print(render_table(*table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
