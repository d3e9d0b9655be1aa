"""The analyzer's file directives, and the absence of any way to silence a finding."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_source

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SIM = "# repro: sim-visible\n"
WALLCLOCK = "import time\n\n\ndef f():\n    return time.time()\n"


def _rules(findings):
    return [f.rule for f in findings]


def test_a_comment_silences_no_finding():
    # An ``allow`` comment is an ordinary comment: the finding stands.
    for comment in ("  # repro: allow[DET001] -- host watchdog only",
                    "  # repro: allow[DET001]"):
        source = SIM + WALLCLOCK.replace("return time.time()", "return time.time()" + comment)
        assert _rules(analyze_source(source)) == ["DET001"]


def test_no_allow_pragma_is_left_in_src():
    found = [f"{path.relative_to(SRC)}:{lineno}" for path in sorted(SRC.rglob("*.py"))
             for lineno, text in enumerate(path.read_text().splitlines(), start=1)
             if "repro: allow[" in text]
    assert found == []


def test_sim_visible_directive_opts_in():
    # Outside src/repro the path-based classifier says "not sim-visible";
    # the directive turns the determinism rules on.
    assert analyze_source(WALLCLOCK, path="elsewhere.py") == []
    assert _rules(analyze_source(SIM + WALLCLOCK, path="elsewhere.py")) == ["DET001"]


def test_not_sim_visible_directive_opts_out():
    source = "# repro: not-sim-visible\n" + WALLCLOCK
    assert analyze_source(source, path="src/repro/core/fake.py") == []


def test_directive_outside_header_window_is_ignored():
    padding = "\n" * 30
    source = padding + "# repro: sim-visible\n" + WALLCLOCK
    assert analyze_source(source, path="elsewhere.py") == []
