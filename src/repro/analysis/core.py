"""The analysis driver: file walking, module context, pragma filtering."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaTable
from repro.analysis.registry import SIM_VISIBLE_ONLY, rule_runners

#: ``repro`` sub-packages whose code executes inside a simulation (and whose
#: behaviour therefore lands in replay fingerprints).  Determinism rules and
#: the swallow rule apply here; pure tooling (bench, cli, analysis, common)
#: is exempt.  A file directive (``# repro: sim-visible``) overrides this.
SIM_VISIBLE_SUBPACKAGES: frozenset[str] = frozenset({
    "baselines", "clouds", "coordination", "core", "crypto", "depsky",
    "scenarios", "simenv", "transactions",
})


def _is_sim_visible(path: Path) -> bool:
    """Path-based classification: is this module simulation-visible?"""
    parts = path.parts
    for index, part in enumerate(parts):
        if part == "repro" and index + 1 < len(parts):
            return parts[index + 1].removesuffix(".py") in SIM_VISIBLE_SUBPACKAGES
    return False


@dataclass
class ModuleContext:
    """Everything a rule runner needs about one parsed module."""

    path: str
    tree: ast.Module
    sim_visible: bool
    pragmas: PragmaTable
    #: ``local name -> module path`` from ``import x[.y] [as z]``.
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: ``local name -> (module, attr)`` from ``from m import attr [as z]``.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)

    def functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function/method in the module, outermost first."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored to ``node``."""
        return Finding(path=self.path, line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0), rule=rule,
                       message=message)


def _build_context(path: Path, source: str) -> ModuleContext:
    tree = ast.parse(source, filename=str(path))
    pragmas = PragmaTable(source, str(path))
    sim_visible = pragmas.sim_visible_override \
        if pragmas.sim_visible_override is not None else _is_sim_visible(path)
    ctx = ModuleContext(path=str(path), tree=tree,
                        sim_visible=sim_visible, pragmas=pragmas)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.module_aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                ctx.from_imports[alias.asname or alias.name] = (node.module, alias.name)
    return ctx


def analyze_source(source: str, path: str = "<memory>") -> list[Finding]:
    """Analyze one module given as a string (the fixture-test entry point)."""
    try:
        ctx = _build_context(Path(path), source)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 0, col=exc.offset or 0,
                        rule="PARSE", message=f"syntax error: {exc.msg}")]
    return _run_rules(ctx)


def _run_rules(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for runner in rule_runners():
        for finding in runner(ctx):
            if finding.rule in SIM_VISIBLE_ONLY and not ctx.sim_visible:
                continue
            if ctx.pragmas.suppresses(finding.rule, finding.line):
                continue
            findings.append(finding)
    findings.extend(ctx.pragmas.unjustified())
    return sorted(findings)


def _python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    return files


@dataclass
class AnalysisReport:
    """The result of analyzing a set of paths."""

    findings: list[Finding]
    files_analyzed: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> dict[str, int]:
        """``rule -> count`` over all findings (sorted by rule id)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, Any]:
        """The ``--format=json`` document shape (stable, versioned)."""
        return {
            "version": 1,
            "files_analyzed": self.files_analyzed,
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": self.summary(),
            "ok": self.ok,
        }

    def render_text(self) -> str:
        """Human-readable report (one finding per line + a tally)."""
        lines = [str(finding) for finding in self.findings]
        tally = ", ".join(f"{rule}={count}" for rule, count in self.summary().items())
        lines.append(f"{self.files_analyzed} file(s) analyzed, "
                     f"{len(self.findings)} finding(s)"
                     + (f" [{tally}]" if tally else ""))
        return "\n".join(lines)


def analyze_paths(paths: list[str]) -> AnalysisReport:
    """Analyze every ``.py`` file under ``paths`` (files or directories)."""
    files = _python_files(paths)
    findings: list[Finding] = []
    for file_path in files:
        findings.extend(analyze_source(file_path.read_text(encoding="utf-8"),
                                       path=str(file_path)))
    return AnalysisReport(findings=sorted(findings), files_analyzed=len(files))
