#!/usr/bin/env python3
"""Precision agriculture — the motivating scenario of the paper's §II.2.

Instead of a data-collection specialist driving from field to field, each
field's stations join the network as sensor services; a composite per field
aggregates them, a farm-level composite aggregates the fields, and a heat
alert is a compute-expression — all managed remotely from the browser.

Demonstrates:
  * field subnets built at runtime (composeService);
  * per-field average temperature vs ground truth;
  * an alert expression ("max(a, b) > 30 ? 1 : 0") evaluated at query time;
  * a mistyped expression refused remotely, the composite left unchanged;
  * a localized heat event injected into the physical environment and
    detected through the very same composite.

Run:  python examples/farm_monitoring.py
"""

from repro.core import BrowserError
from repro.scenarios import build_farm
from repro.sensors import FieldEvent


def main() -> None:
    farm = build_farm(seed=7, n_fields=3, sensors_per_field=4)
    farm.settle(6.0)
    env, browser = farm.env, farm.browser

    temp_sensors = {
        field: [esp.name for esp in esps
                if esp.probe.teds.quantity == "temperature"]
        for field, esps in farm.fields.items()
    }

    def build_logical_network():
        # One composite per field, averaging its temperature stations.
        for field, names in temp_sensors.items():
            yield from browser.compose_service(field, names)
            yield from browser.add_expression(field, "(a + b)/2")
        # The whole farm as one composite over the field composites.
        yield from browser.compose_service("Farm", list(temp_sensors))
        yield from browser.add_expression("Farm", "(a + b + c)/3")

    env.run(until=env.process(build_logical_network()))

    def read_fields():
        values = {}
        for field in temp_sensors:
            values[field] = yield from browser.get_value(field)
        values["Farm"] = yield from browser.get_value("Farm")
        return values

    values = env.run(until=env.process(read_fields()))
    print("Field averages (service value vs environment ground truth):")
    for field in temp_sensors:
        truth = farm.ground_truth_field_mean(field, "temperature")
        print(f"  {field:<9} {values[field]:7.2f} C   truth {truth:7.2f} C")
    print(f"  {'Farm':<9} {values['Farm']:7.2f} C")

    # -- Heat alert on Field-1 -------------------------------------------------
    def mistype_alert():
        # The composite parses the text before adopting it: a typo is
        # refused and Field-1 keeps averaging.
        try:
            yield from browser.add_expression("Field-1", "max(a, b) > > 30")
        except BrowserError as exc:
            return str(exc)
        return None

    refused = env.run(until=env.process(mistype_alert()))
    print(f"\nmistyped alert refused: {refused}")

    def arm_alert():
        # Re-purpose Field-1's expression into a threshold alert.
        yield from browser.add_expression("Field-1", "max(a, b) > 30 ? 1 : 0")
        before = yield from browser.get_value("Field-1")
        return before

    before = env.run(until=env.process(arm_alert()))
    print(f"Field-1 heat alert armed (threshold 30 C): state={before:.0f}")

    # Inject a +15 C heat plume over Field-1 for ten minutes.
    center = farm.locations[temp_sensors["Field-1"][0]]
    farm.world.add_event(FieldEvent(
        quantity="temperature", center=center, radius=60.0, delta=15.0,
        start=env.now + 5.0, end=env.now + 605.0))

    def watch_alert():
        fired_at = None
        for _ in range(30):
            yield env.timeout(10.0)
            state = yield from browser.get_value("Field-1")
            if state == 1.0 and fired_at is None:
                fired_at = env.now
                break
        return fired_at

    fired_at = env.run(until=env.process(watch_alert()))
    if fired_at is None:
        print("alert did NOT fire (unexpected)")
    else:
        print(f"heat event detected at t={fired_at:.1f}s "
              f"(event started at t={fired_at - fired_at % 10:.0f}s window)")

    def read_after():
        yield from browser.add_expression("Field-1", "(a + b)/2")
        return (yield from browser.get_value("Field-1"))

    hot = env.run(until=env.process(read_after()))
    print(f"Field-1 average during the event: {hot:.2f} C "
          f"(was {values['Field-1']:.2f} C)")


if __name__ == "__main__":
    main()
