"""The harness's only readers of host clocks and process memory.

Everything else under ``benchmarks/e2e`` measures through these three
functions, so the determinism lint has exactly one place to audit: host
time flows *out* of the simulator into reports and never back into a
scheduling decision.
"""

from __future__ import annotations

import resource
import sys
import time

__all__ = ["wall", "cpu", "peak_rss_mb"]


def wall() -> float:
    """Monotonic host seconds. On Linux this is CLOCK_MONOTONIC, whose
    epoch is shared by every process on the machine — the orchestrator
    stamps a spawn time that the worker subtracts for ``setup_s``."""
    return time.perf_counter()  # repro: allow[DET001] - host time is the measured quantity


def cpu() -> float:
    """CPU seconds (user + system) this process has consumed; wall ÷ cpu
    above 1.10 over a timed phase means the rep was descheduled."""
    return time.process_time()  # repro: allow[DET001] - CPU time detects contended reps


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
