"""Elementary sensor provider behaviour."""

import numpy as np
import pytest

from repro.net import Host
from repro.jini import SensorType, ServiceTemplate
from repro.observability import metrics_registry
from repro.sensors import SunSpotDevice, SunSpotTemperatureProbe
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import (
    KIND_ELEMENTARY,
    OP_GET_INFO,
    OP_GET_VALUE,
    SENSOR_DATA_ACCESSOR,
)

from .conftest import make_esp


def exert_op(env, net, esp_name, selector, settle=2.0, **args):
    exerter = Exerter(Host(net, f"req-{selector}-{esp_name}"))

    def proc():
        yield env.timeout(settle)
        ctx = ServiceContext()
        for key, value in args.items():
            ctx.put_in_value(f"arg/{key}", value)
        task = Task(f"t-{selector}",
                    Signature(SENSOR_DATA_ACCESSOR, selector,
                              provider_name=esp_name), ctx)
        result = yield env.process(exerter.exert(task))
        return result

    return env.run(until=env.process(proc()))


def test_esp_registers_as_sensor_accessor(grid):
    env, net, world, lus = grid
    make_esp(net, world, "T1")
    env.run(until=3.0)
    items = lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 10)
    assert len(items) == 1
    assert items[0].name() == "T1"


def test_esp_sensor_type_entry(grid):
    env, net, world, lus = grid
    make_esp(net, world, "T1")
    env.run(until=3.0)
    items = lus.lookup(ServiceTemplate(attributes=(
        SensorType(quantity="temperature", service_kind=KIND_ELEMENTARY),)), 10)
    assert len(items) == 1


def test_get_value_matches_ground_truth(grid):
    env, net, world, lus = grid
    make_esp(net, world, "T1", location=(4.0, 2.0))
    result = exert_op(env, net, "T1", OP_GET_VALUE)
    assert result.is_done
    value = result.get_return_value()
    truth = world.sample("temperature", (4.0, 2.0), env.now)
    assert abs(value - truth) < 1.0


def test_sampler_fills_buffer(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=0.5)
    env.run(until=10.0)
    assert len(esp.buffer) >= 15
    assert esp.buffer.last().timestamp <= env.now


def test_get_info_shape(grid):
    env, net, world, lus = grid
    make_esp(net, world, "T1")
    result = exert_op(env, net, "T1", OP_GET_INFO)
    info = result.get_return_value()
    assert info["name"] == "T1"
    assert info["service_type"] == KIND_ELEMENTARY
    assert info["quantity"] == "temperature"
    assert info["contained_services"] == []
    assert info["expression"] is None


def test_probe_faults_counted_not_fatal(grid):
    env, net, world, lus = grid
    # Four reads' worth of charge: the battery is flat within ~2 s.
    device = SunSpotDevice(env, "t1")
    device.charge_mah = 0.028
    probe = SunSpotTemperatureProbe(env, device, world, (0, 0),
                                    rng=np.random.default_rng(1))
    esp = make_esp(net, world, "T1", sample_interval=0.5, probe=probe)
    env.run(until=6.0)
    errors = metrics_registry(net).value("esp.sample_errors", provider="T1")
    assert errors > 0 and probe.read_errors == errors
    # Still serving while flat, with the buffered readings kept.
    info = exert_op(env, net, "T1", OP_GET_INFO, settle=0.1)
    assert info.is_done and len(esp.buffer.window(2)) == 2
    # Recharged, the sampler picks up again.
    device.recharge()
    env.run(until=12.0)
    assert esp.buffer.last().timestamp > 6.0


def test_fresh_read_when_buffer_stale(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=1.0)
    env.run(until=5.0)
    esp._sampling = False  # sampling stops; buffer goes stale
    env.run(until=30.0)
    result = exert_op(env, net, "T1", OP_GET_VALUE, settle=0.1)
    reading = esp.buffer.last()
    # A fresh probe read happened at query time, not a stale buffered one.
    assert reading.timestamp > 29.0
    assert result.is_done


def test_destroy_disconnects_probe(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1")
    env.run(until=3.0)

    def proc():
        yield env.process(esp.destroy())

    env.process(proc())
    env.run(until=10.0)
    assert not esp.probe.connected
    assert lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 10) == []
