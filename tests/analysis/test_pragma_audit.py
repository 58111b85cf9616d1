"""Repo-wide audit of determinism-lint suppressions.

File-wide pragmas are the blunt instrument: one line exempts a whole file
from a rule forever. The only legitimate users are the wall-clock
benchmarks and the flight-recorder profiler (they *must* call
``time.perf_counter`` — wall-clock measurement is the thing itself), and
only for DET001. The profiler qualifies because it is a pure side
channel: the kernel hands it events to observe and never reads its state
back, so wall time cannot leak into simulation behavior (DESIGN §12
pins this with byte-identity tests). Anything else must use a line-level
``# repro: allow[...]`` with the offending line in view, so this audit
fails the build if a file-wide pragma creeps in anywhere else.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FILE_PRAGMA = re.compile(r"#\s*repro:\s*allow-file\[([A-Za-z0-9_,\s]*)\]")

#: The closed set of files allowed a file-wide suppression, with the rules
#: each may suppress. Adding an entry here is a reviewed decision.
ALLOWED = {
    "benchmarks/bench_expression.py": {"DET001"},
    "benchmarks/bench_health.py": {"DET001"},
    "benchmarks/bench_overhead.py": {"DET001"},
    "benchmarks/bench_prof.py": {"DET001"},
    "benchmarks/bench_snapshot.py": {"DET001"},
    # The profiler is the one src/ module allowed to read the wall clock:
    # it exists to measure the simulator and is isolated behind the
    # kernel's side-channel-only hook (see the module docstring).
    "src/repro/observability/profile.py": {"DET001"},
}


def _python_sources():
    for root in ("src", "benchmarks", "tests"):
        yield from (REPO / root).rglob("*.py")


def _file_pragmas(path):
    rules = set()
    for match in FILE_PRAGMA.finditer(path.read_text()):
        rules.update(token.strip() for token in match.group(1).split(",")
                     if token.strip())
    return rules


def test_allow_file_pragmas_only_in_wall_clock_benchmarks():
    offenders = {}
    for path in _python_sources():
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(("tests/analysis/", "src/repro/analysis/")):
            continue  # the lint suite and its hints quote pragma syntax
        rules = _file_pragmas(path)
        if not rules:
            continue
        if rules - ALLOWED.get(rel, set()):
            offenders[rel] = sorted(rules)
    assert not offenders, (
        "file-wide lint suppressions outside the reviewed allowlist: "
        f"{offenders} — use line-level '# repro: allow[...]' instead")


def test_allowlisted_benchmarks_still_exist():
    """A deleted benchmark should take its allowlist entry with it."""
    for rel in ALLOWED:
        assert (REPO / rel).is_file(), f"stale allowlist entry {rel}"


def test_wall_clock_pragmas_carry_a_justification():
    for rel in ALLOWED:
        line = next(l for l in (REPO / rel).read_text().splitlines()
                    if FILE_PRAGMA.search(l))
        assert re.search(r"\]\s*-\s*\S", line), (
            f"{rel}: file-wide pragma needs a trailing '- why' justification")


# ---------------------------------------------------------------------------
# Line-level pragmas for the lifecycle family (RES)
#
# These rules encode resource contracts (a leaked span or history-store
# handle), so a suppression is a reviewed claim that the analyzer is wrong
# or the handle is released elsewhere. The audit holds them to a higher
# bar than the DET/SIM rules: every pragma must name a registered rule and
# every RES pragma must say *why* inline.

LINE_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]*)\]")
PROGRAM_FAMILIES = ("RES",)


def _line_pragmas():
    for path in _python_sources():
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(("tests/", "src/repro/analysis/")):
            continue  # suites and rule hints quote pragma syntax
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "allow-file[" in line:
                continue
            match = LINE_PRAGMA.search(line)
            if match:
                rules = {token.strip()
                         for token in match.group(1).split(",")
                         if token.strip()}
                yield rel, lineno, line, rules


def test_line_pragmas_name_registered_rules():
    """A typo'd rule id (`allow[RES01]`) suppresses nothing — it must not
    sit in the tree looking like a waiver."""
    from repro.analysis import RULES
    offenders = [(rel, lineno, sorted(rules - set(RULES)))
                 for rel, lineno, line, rules in _line_pragmas()
                 if rules - set(RULES)]
    assert not offenders, f"pragmas naming unknown rules: {offenders}"


def test_program_family_pragmas_carry_a_justification():
    offenders = [(rel, lineno)
                 for rel, lineno, line, rules in _line_pragmas()
                 if any(rule.startswith(PROGRAM_FAMILIES) for rule in rules)
                 and not re.search(r"\]\s*-\s*\S", line)]
    assert not offenders, (
        "RES suppressions need a trailing '- why' justification: "
        f"{offenders}")


def test_program_families_are_never_file_wide_suppressed():
    """One line may waive one finding; a file-wide waiver of a lifecycle
    rule would hide every *future* leak in the file too."""
    for rel, rules in ALLOWED.items():
        assert rules == {"DET001"}, (
            f"{rel}: the reviewed file-wide allowlist is DET001-only")
    offenders = {}
    for path in _python_sources():
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(("tests/analysis/", "src/repro/analysis/")):
            continue
        waived = {rule for rule in _file_pragmas(path)
                  if rule.startswith(PROGRAM_FAMILIES)}
        if waived:
            offenders[rel] = sorted(waived)
    assert not offenders, (
        f"file-wide RES suppressions are never allowed: {offenders}")
