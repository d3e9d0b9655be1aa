"""Self-test of the static analyzer against its fixture corpus.

Every ``bad_*.py`` fixture must flag *exactly* the findings its ``# expect:``
markers declare (a marker names the rules expected on the next source line);
every ``good_*.py`` twin must analyze clean.  This pins both directions of
each rule: the defect is caught, and the idiomatic fix is not harassed.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import analyze_source

FIXTURES = Path(__file__).parent / "fixtures"
FAMILIES = ("determinism", "locks", "traceschema", "exceptions", "charging")

_EXPECT_RE = re.compile(
    r"#\s*expect:\s*(?P<rules>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\s*$"
)


def _expected(source: str) -> set[tuple[int, str]]:
    """``(line, rule)`` pairs declared by ``# expect:`` marker lines."""
    expected: set[tuple[int, str]] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(text)
        if match is not None:
            for rule in re.split(r"\s*,\s*", match.group("rules")):
                expected.add((lineno + 1, rule))
    return expected


def _fixture_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


BAD = sorted(FIXTURES.rglob("bad_*.py"))
GOOD = sorted(FIXTURES.rglob("good_*.py"))


def test_corpus_covers_every_family():
    assert {p.parent.name for p in BAD + GOOD} == set(FAMILIES)
    for family in FAMILIES:
        bad = list((FIXTURES / family).glob("bad_*.py"))
        good = list((FIXTURES / family).glob("good_*.py"))
        assert len(bad) >= 2, f"{family}: need >= 2 flagged fixtures"
        assert len(good) >= 2, f"{family}: need >= 2 passing fixtures"


@pytest.mark.parametrize("fixture", BAD, ids=_fixture_id)
def test_bad_fixture_flags_exactly_what_it_declares(fixture: Path):
    source = fixture.read_text(encoding="utf-8")
    expected = _expected(source)
    assert expected, f"bad fixture {fixture.name} declares no # expect: markers"
    findings = analyze_source(source, path=str(fixture))
    actual = {(f.line, f.rule) for f in findings}
    assert actual == expected, (
        f"{fixture.name}: expected {sorted(expected)}, got "
        + "\n".join(str(f) for f in findings)
    )


@pytest.mark.parametrize("fixture", GOOD, ids=_fixture_id)
def test_good_fixture_passes_clean(fixture: Path):
    source = fixture.read_text(encoding="utf-8")
    assert not _EXPECT_RE.search(source), \
        f"good fixture {fixture.name} must not declare expected findings"
    findings = analyze_source(source, path=str(fixture))
    assert findings == [], "\n".join(str(f) for f in findings)
