"""Every name README.md puts in backticks still exists in the repository.

The README describes the code; a backticked identifier or dotted name that no
file defines or uses any more is prose that outlived its code.  The check
collects every identifier that ``src/``, ``benchmarks/``, ``examples/`` and
``tests/`` define or use (with ``ast``), plus the names of the repository's
files and directories, and fails on a README name outside that set.  A
string constant counts when it is a whole identifier or dotted name, as the
layer tracer's table is; prose in docstrings does not.  A dotted name
resolves when each of its parts does; Python keywords are not names.
"""

from __future__ import annotations

import ast
import keyword
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CODE_TREES = ("src", "benchmarks", "examples", "tests")
#: External tools the README names; nothing in the repository defines them.
EXTERNAL = {"ruff", "mypy", "RUF"}
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)


def _known_names() -> set[str]:
    names: set[str] = set()
    for path in ROOT.rglob("*"):
        if ".git" not in path.parts:
            names.add(path.name)
            names.add(path.stem)
    for tree_root in CODE_TREES:
        for path in (ROOT / tree_root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        names.update(alias.name.split("."))
                    if isinstance(node, ast.ImportFrom) and node.module:
                        names.update(node.module.split("."))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and NAME.fullmatch(node.value)):
                    names.update(node.value.split("."))
    return names


def test_every_backticked_readme_name_exists():
    prose = FENCE.sub("", (ROOT / "README.md").read_text())
    tokens = {span for span in re.findall(r"`([^`\n]+)`", prose)
              if NAME.fullmatch(span) and not keyword.iskeyword(span)}
    assert len(tokens) > 50
    known = _known_names()
    missing = sorted(
        token for token in tokens
        if len(token) > 1 and token not in EXTERNAL and token not in known
        and not all(part in known for part in token.split(".")))
    assert not missing, f"README.md names what the repository no longer has: {missing}"


#: README's prose budget in bytes: what outgrows it belongs in a module docstring.
README_BYTES = 25_000


def test_readme_stays_under_its_size_budget():
    size = len((ROOT / "README.md").read_bytes())
    assert size < README_BYTES, f"README.md is {size} B, the budget is {README_BYTES} B"
