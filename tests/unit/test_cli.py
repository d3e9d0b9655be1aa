"""Unit tests for the command-line interface.

Each artefact command prints the table of the one function its benchmark case
asserts on.  The last test reads ``benchmarks/bench_*.py`` without importing
them and checks that every figure case calls the function ``repro.cli`` maps
its artefact name to, so the CLI and the benchmarks cannot drift apart.
"""

import ast
from pathlib import Path

import pytest

from repro.bench.costs import fig11a
from repro.bench.report import render_table
from repro.cli import ARTEFACTS, build_parser, main

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_the_commands_are_variants_and_the_artefacts(self):
        assert list(ARTEFACTS) == ["table3", "fig8", "fig9", "fig10a", "fig10b",
                                   "fig11a", "fig11b", "fig11c"]
        parser = build_parser()
        for command in ["variants", *ARTEFACTS]:
            assert parser.parse_args([command]).command == command

    def test_no_command_takes_an_option(self):
        for argv in (["--seed", "7", "fig8"], ["table3", "--quick"], ["fig9", "--trials", "5"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestCommands:
    def test_variants_lists_table2(self, capsys):
        assert main(["variants"]) == 0
        output = capsys.readouterr().out
        assert "SCFS-CoC-NB" in output and "non-blocking" in output

    def test_fig11a_prints_the_benchmarks_table(self, capsys):
        assert main(["fig11a"]) == 0
        _, table = fig11a()
        assert capsys.readouterr().out == render_table(*table) + "\n"
        assert "39.60" in render_table(*table)


def test_every_figure_case_calls_the_function_the_cli_prints():
    cases: dict[str, list[str]] = {name: [] for name in ARTEFACTS}
    for path in sorted(BENCHMARKS.glob("bench_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(node.module, alias.name) for node in tree.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            artefact = node.name.removeprefix("test_").partition("_")[0]
            if artefact not in ARTEFACTS:
                continue
            function = ARTEFACTS[artefact]
            where = f"{path.name}::{node.name}"
            assert (function.__module__, function.__name__) in imported, where
            # ``run_once(fig8)``: the case hands the function to the benchmark timer.
            assert function.__name__ in {name.id for name in ast.walk(node)
                                         if isinstance(name, ast.Name)}, where
            cases[artefact].append(where)
    assert all(cases.values()), cases
