"""The committed experiment tables are what the experiments print.

Every simulation-only ``benchmarks/bench_*.py`` — every one *not* on the
wall-clock allowlist ``test_pragma_audit`` keeps — is deterministic, so its
smoke-mode tables can be held byte for byte. This runs them all in a temp
copy of ``benchmarks/`` (the checkout's ``results/`` is never written) and
compares what they wrote with what is committed. The wall-clock
experiments run in CI's ``experiments`` job, outside tier-1.
"""

import shutil
import subprocess
import sys

import pytest

from tests.analysis.test_pragma_audit import ALLOWED as WALL_CLOCK
from tests.test_planes import ROOT, SRC, _probe_env

BENCHMARKS = ROOT / "benchmarks"
RESULTS = BENCHMARKS / "results"
SIMULATION_ONLY = sorted(
    path.name for path in BENCHMARKS.glob("bench_*.py")
    if f"benchmarks/{path.name}" not in WALL_CLOCK)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """All of them, once, in one subprocess: (completed process, results)."""
    copy = tmp_path_factory.mktemp("experiments") / "benchmarks"
    shutil.copytree(BENCHMARKS, copy, ignore=shutil.ignore_patterns(
        "e2e", "results", "__pycache__"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *SIMULATION_ONLY],
        cwd=copy, env=dict(_probe_env(SRC), REPRO_BENCH_SMOKE="1"),
        capture_output=True, text=True, timeout=300)
    return run, copy / "results"


def test_simulation_experiments_pass(smoke_run):
    run, _ = smoke_run
    assert run.returncode == 0, run.stdout + run.stderr


def test_committed_tables_are_what_the_experiments_print(smoke_run):
    _, results = smoke_run
    written = {path.name: path.read_bytes() for path in results.iterdir()}
    assert len(written) >= len(SIMULATION_ONLY), sorted(written)
    drifted = sorted(name for name, content in written.items()
                     if not (RESULTS / name).is_file()
                     or (RESULTS / name).read_bytes() != content)
    assert not drifted, (
        f"benchmarks/results/ is stale for {drifted}: rerun "
        "REPRO_BENCH_SMOKE=1 python -m pytest benchmarks "
        "--ignore=benchmarks/e2e and commit the tables")


def test_every_committed_table_has_an_experiment_that_writes_it():
    """A deleted or renamed bench test takes its table with it."""
    sources = "".join(path.read_text(encoding="utf-8")
                      for path in BENCHMARKS.glob("bench_*.py"))
    orphans = [path.name for path in RESULTS.glob("*.txt")
               if f"def {path.stem}(" not in sources]
    assert not orphans, f"no bench test writes {orphans}"
