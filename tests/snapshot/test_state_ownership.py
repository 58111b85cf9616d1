"""DESIGN §14.2's state-ownership table, held to what actually registers.

The table is hand-written; the keys are not. Every section a captured
lab carries must match a row, and every row must match a section — of the
paper lab, or for the overload/load rows the protected lab built on it.
"""

import re
from pathlib import Path

from repro.load import build_load_lab
from repro.scenarios import build_paper_lab
from repro.snapshot.capture import capture_state

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def _table_patterns() -> dict:
    """``{key as written: compiled pattern}`` from the §14.2 table."""
    section = DESIGN.read_text(encoding="utf-8").split(
        "### 14.2 State ownership", 1)[1].split("\n### ", 1)[0]
    patterns = {}
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        for key in re.findall(r"`([^`]+)`", row.split("|")[1]):
            # ``<id>`` / ``<host>`` stand for one run-specific component.
            patterns[key] = re.compile(
                re.sub(r"<\w+>", ".+", re.escape(key)))
    return patterns


def test_table_rows_and_registered_sections_agree():
    lab = build_paper_lab(seed=2009)
    lab.settle(6.0)
    lab.run_six_steps()
    protected = build_load_lab(seed=2009, duration=1.0)
    sections = (set(capture_state(lab.env))
                | set(capture_state(protected.lab.env)))
    patterns = _table_patterns()
    assert patterns, "found no rows in the §14.2 table"
    undocumented = sorted(
        section for section in sections
        if not any(p.fullmatch(section) for p in patterns.values()))
    assert not undocumented, f"sections with no §14.2 row: {undocumented}"
    stale = sorted(
        key for key, pattern in patterns.items()
        if not any(pattern.fullmatch(section) for section in sections))
    assert not stale, f"§14.2 rows nothing registers: {stale}"
