"""Experiment-harness plumbing.

Every ``bench_*.py`` regenerates one experiment from DESIGN.md's
per-experiment index as plain pytest tests: the *reported* quantities are
simulated-time latencies, byte counts and convergence times, printed as
tables and saved under ``benchmarks/results/`` by :func:`report`. The few
experiments whose claim is a wall-clock number time it themselves with
``time.perf_counter``. ``REPRO_BENCH_SMOKE=1`` is the only mode switch.
"""

import pathlib

import pytest

from repro.util.atomicio import atomic_write_text
from repro.util.canonical import canonical_document

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report(request):
    """Print a result table and persist it under the test's name; each
    keyword is a document persisted beside it as ``<keyword>.json``."""

    def _report(table: str, **documents) -> None:
        print("\n" + table)
        RESULTS_DIR.mkdir(exist_ok=True)
        atomic_write_text(RESULTS_DIR / f"{request.node.name}.txt",
                          table + "\n")
        for stem, document in documents.items():
            atomic_write_text(RESULTS_DIR / f"{stem}.json",
                              canonical_document(document))

    return _report
