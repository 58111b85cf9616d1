"""Exertion/Task/Job object model (no network involved)."""

import pytest

from repro.sorcer import (
    ExertionStatus,
    Job,
    ServiceContext,
    Signature,
    Strategy,
    Task,
)
from repro.jini import Name


def sig(selector="getValue"):
    return Signature("SensorDataAccessor", selector)


def test_task_defaults():
    t = Task("t1", sig())
    assert t.status is ExertionStatus.INITIAL
    assert not t.is_done and not t.is_failed
    assert t.context.name == "t1-ctx"


def test_report_exception_sets_failed():
    t = Task("t1", sig())
    t.report_exception(ValueError("x"))
    assert t.is_failed
    assert "x" in t.exceptions[0]


def test_copy_is_independent():
    t = Task("t1", sig())
    t.context.put_value("a", [1])
    dup = t.copy()
    dup.context.get_value("a").append(2)
    dup.status = ExertionStatus.DONE
    assert t.context.get_value("a") == [1]
    assert t.status is ExertionStatus.INITIAL


def test_job_add_and_component():
    job = Job("j")
    t1, t2 = Task("t1", sig()), Task("t2", sig())
    job.add(t1).add(t2)
    assert job.component("t2") is t2
    with pytest.raises(KeyError):
        job.component("missing")


def test_job_duplicate_component_name_rejected():
    job = Job("j")
    job.add(Task("t", sig()))
    with pytest.raises(ValueError):
        job.add(Task("t", sig()))


def test_signature_template_includes_name_and_type():
    s = Signature("SensorDataAccessor", "getValue", provider_name="Neem-Sensor")
    template = s.template()
    assert template.types == ("SensorDataAccessor",)
    assert Name("Neem-Sensor") in template.attributes


def test_signature_str():
    assert str(sig()) == "SensorDataAccessor#getValue@*"
    assert "Neem" in str(Signature("X", "y", provider_name="Neem"))


def test_job_strategy_default_sequential():
    assert Job("j").control.strategy is Strategy.SEQUENTIAL


def test_get_return_value_shortcut():
    t = Task("t", sig())
    t.context.set_return_value(7)
    assert t.get_return_value() == 7
    assert Task("u", sig()).get_return_value() is None


def test_principal_survives_copy():
    task = Task("t", sig(), principal="alice")
    assert task.copy().principal == "alice"
