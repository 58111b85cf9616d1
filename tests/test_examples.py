"""Every example script must run end to end (they are part of the API)."""

import importlib.util
import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        module.main()
    return buffer.getvalue()


def test_quickstart():
    output = run_example("quickstart")
    assert "Sensor Services" in output
    assert "Neem-Sensor" in output
    assert "(a + b)/2" in output


def test_paper_experiment():
    output = run_example("paper_experiment")
    assert "step 6: New-Composite value" in output
    assert "Logical Sensor Network" in output
    assert "ground truth" in output
    # The composition tree of Fig 3.
    assert "- New-Composite" in output
    assert "  - Composite-Service" in output


def test_farm_monitoring():
    output = run_example("farm_monitoring")
    assert "Field averages" in output
    assert "mistyped alert refused" in output
    assert "heat event detected" in output


def test_fault_tolerant_fleet():
    output = run_example("fault_tolerant_fleet")
    assert "re-provisioned Fleet-Telemetry" in output
    assert "fleet mean after self-healing" in output
    assert "survivors" in output


def test_space_computing():
    output = run_example("space_computing")
    assert "worker-0 crashed" in output
    assert "batch status: done" in output
    assert "anomaly scores" in output
