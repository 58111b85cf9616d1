"""Probe drivers, TEDS, read errors, Sun SPOT device."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.sensors import (
    BatteryExhausted,
    HumidityProbe,
    PhysicalEnvironment,
    ProbeNotConnected,
    SunSpotDevice,
    SunSpotTemperatureProbe,
    TemperatureProbe,
    TransducerTEDS,
)


@pytest.fixture
def sim_env():
    return Environment()


@pytest.fixture
def world():
    return PhysicalEnvironment(seed=5)


def read_once(sim_env, probe):
    p = sim_env.process(probe.read())
    return sim_env.run(until=p)


def test_read_requires_connect(sim_env, world):
    probe = TemperatureProbe(sim_env, "t1", world, (0, 0))
    with pytest.raises(ProbeNotConnected):
        # read() raises before the first yield, at generator creation time
        # via next(); drive it through the kernel.
        sim_env.run(until=sim_env.process(probe.read()))


def test_temperature_read_close_to_ground_truth(sim_env, world):
    probe = TemperatureProbe(sim_env, "t1", world, (2.0, 3.0),
                             rng=np.random.default_rng(1))
    probe.connect()
    reading = read_once(sim_env, probe)
    truth = world.sample("temperature", (2.0, 3.0), reading.timestamp)
    assert abs(reading.value - truth) < 1.0
    assert reading.unit == "celsius"
    assert reading.quality == "good"
    assert reading.sensor_id == "t1"


def test_read_takes_latency(sim_env, world):
    probe = TemperatureProbe(sim_env, "t1", world, (0, 0))
    probe.connect()
    reading = read_once(sim_env, probe)
    assert probe.read_latency > 0
    assert reading.timestamp == pytest.approx(probe.read_latency)


def test_quantization_to_resolution(sim_env, world):
    probe = TemperatureProbe(sim_env, "t1", world, (0, 0),
                             rng=np.random.default_rng(2))
    probe.connect()
    reading = read_once(sim_env, probe)
    steps = reading.value / 0.0625
    assert steps == pytest.approx(round(steps))


def test_out_of_range_clamped(sim_env, world):
    # A thermometer topping out at -30 C reads any room at its limit.
    cold = TransducerTEDS("m", "m", "s", "v", "temperature", "celsius",
                          -40.0, -30.0, 0.5, 0.0625)
    probe = TemperatureProbe(sim_env, "t1", world, (0, 0), teds=cold)
    probe.connect()
    reading = read_once(sim_env, probe)
    assert reading.value == -30.0
    assert reading.quality == "clamped"


def test_all_driver_quantities(sim_env, world):
    probes = [
        TemperatureProbe(sim_env, "t", world, (0, 0)),
        HumidityProbe(sim_env, "h", world, (0, 0)),
    ]
    for probe in probes:
        probe.connect()
        reading = read_once(sim_env, probe)
        assert probe.teds.in_range(reading.value)
    units = [p.teds.unit for p in probes]
    assert units == ["celsius", "percent"]


def test_teds_validation():
    with pytest.raises(ValueError):
        TransducerTEDS("m", "m", "s", "v", "q", "u", 10.0, 5.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        TransducerTEDS("m", "m", "s", "v", "q", "u", 0.0, 5.0, -0.1, 0.1)


def test_sunspot_reads_and_drains_battery(sim_env, world):
    device = SunSpotDevice(sim_env, "neem")
    probe = SunSpotTemperatureProbe(sim_env, device, world, (1, 1),
                                    rng=np.random.default_rng(5))
    probe.connect()
    before = device.battery_fraction
    reading = read_once(sim_env, probe)
    assert device.battery_fraction < before
    assert device.total_reads == 1
    truth = world.sample("temperature", (1, 1), reading.timestamp)
    assert abs(reading.value - truth) < 1.5  # self-heating + noise


def test_sunspot_battery_exhaustion(sim_env, world):
    device = SunSpotDevice(sim_env, "tiny")
    device.charge_mah = 0.01  # two reads' worth: 0.007 mAh each, radio on
    probe = SunSpotTemperatureProbe(sim_env, device, world, (0, 0))
    probe.connect()

    def proc():
        ok = 0
        try:
            for _ in range(10):
                yield from probe.read()
                ok += 1
        except BatteryExhausted:
            return ok
        return ok

    ok = sim_env.run(until=sim_env.process(proc()))
    assert ok == 2
    device.recharge()
    assert device.battery_fraction == 1.0


def test_flat_battery_read_counts_as_read_error(sim_env, world):
    device = SunSpotDevice(sim_env, "flat")
    device.charge_mah = 0.0
    probe = SunSpotTemperatureProbe(sim_env, device, world, (0, 0))
    probe.connect()
    with pytest.raises(BatteryExhausted):
        read_once(sim_env, probe)
    assert (probe.reads, probe.read_errors) == (0, 1)
    assert probe.checkpoint_state() == {"connected": True, "read_errors": 1,
                                        "reads": 0}


def test_sunspot_idle_drain(sim_env):
    device = SunSpotDevice(sim_env, "idle")

    def proc():
        yield sim_env.timeout(1800.0)  # half an hour at 0.2 mA -> 0.1 mAh

    sim_env.run(until=sim_env.process(proc()))
    assert device.battery_fraction == pytest.approx(
        (SunSpotDevice.BATTERY_MAH - 0.1) / SunSpotDevice.BATTERY_MAH)
