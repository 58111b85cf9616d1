"""Smoke test of the E-E2E harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (the path is
for ``benchmarks/conftest.py``; the harness finds ``src`` itself).

Kept out of tier-1 by ``testpaths``. Runs the ``--smoke`` sizes end to
end — two untraced sets and one traced pass, under 30 s in total — and
checks what a later PR is most likely to break: a metric going missing,
sim metrics depending on anything but the seed, and host time the traced
pass can no longer attribute to a layer.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def _run(*flags) -> dict:
    """One harness invocation; returns ``{workload: result line}``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *flags],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()[-len(spec.WORKLOADS):]
    return dict(zip((w.name for w in spec.WORKLOADS), map(json.loads, lines)))


@pytest.fixture(scope="module")
def untraced():
    return _run(), _run()


@pytest.fixture(scope="module")
def traced():
    return _run("--trace")


def test_every_end_to_end_metric_is_reported_with_its_unit(untraced):
    for workload, result in untraced[0].items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m.name: m.unit for m in spec.END_TO_END}, workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_sim_metrics_are_bit_equal_across_runs(untraced):
    first, second = untraced
    for workload in first:
        for name in spec.SIM_METRICS:
            assert (first[workload]["metrics"][name]["value"]
                    == second[workload]["metrics"][name]["value"]), (workload, name)


def test_traced_pass_reports_every_layer_metric_and_attributes_host_time(traced):
    for workload, result in traced.items():
        # correct also means: the traced pass reproduced the untraced digest
        assert result["correct"], workload
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            name: unit for name, unit, _better in spec.PER_LAYER}, workload
        assert result["metrics"]["client.attributed_ratio"]["value"] >= 0.95, workload


def test_benchmark_json_restates_the_spec():
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert declared["run_seconds"] == spec.DEFAULT_SECONDS
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in spec.WORKLOADS]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in spec.PER_LAYER]
