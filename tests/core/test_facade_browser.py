"""Façade + browser against the full paper-lab deployment (Fig 2 / Fig 3)."""

import pytest

from repro.scenarios import SENSOR_NAMES, build_paper_lab
from repro.jini import ServiceTemplate
from repro.core import SENSOR_DATA_ACCESSOR


@pytest.fixture(scope="module")
def lab():
    lab = build_paper_lab(seed=2009)
    lab.settle(6.0)
    return lab


def run(lab, gen):
    return lab.env.run(until=lab.env.process(gen))


def test_fig2_service_inventory(lab):
    """Every service of the paper's Fig 2 listing is registered."""
    names = {item.name() for item in lab.lus.lookup_all()}
    expected = {
        "Transaction Manager", "Event Mailbox", "Lease Renewal Service",
        "Lookup Discovery Service", "Monitor", "Jobber",
        "Composite-Service", "SenSORCER Facade",
        *SENSOR_NAMES,
    }
    assert expected <= names
    # Two cybernodes, both named "Cybernode" like the Fig 2 listing.
    cybernodes = lab.lus.lookup(ServiceTemplate.by_type("Cybernode"), 10)
    assert len(cybernodes) == 2


def test_browser_lists_sensor_services(lab):
    sensors = run(lab, lab.browser.get_sensor_list())
    names = {s["name"] for s in sensors}
    assert set(SENSOR_NAMES) <= names
    assert "Composite-Service" in names
    rendered = lab.browser.render_service_list()
    for name in SENSOR_NAMES:
        assert name in rendered


def test_browser_reads_sensor_value(lab):
    value = run(lab, lab.browser.get_value("Neem-Sensor"))
    truth = lab.world.sample("temperature", (0.0, 0.0), lab.env.now)
    assert abs(value - truth) < 1.5


def test_facade_get_info_elementary(lab):
    info = run(lab, lab.browser.get_info("Jade-Sensor"))
    assert info["service_type"] == "ELEMENTARY"
    assert info["quantity"] == "temperature"
    assert info["model"] == "SunSPOT/ADT7411"


def test_unknown_sensor_is_reported(lab):
    from repro.core import BrowserError
    with pytest.raises(BrowserError):
        run(lab, lab.browser.get_value("Ghost-Sensor"))


def test_fig3_six_step_experiment(lab):
    """The paper's §VI experiment, steps 1-6, end to end."""
    browser, env, world = lab.browser, lab.env, lab.world

    def experiment():
        # Step 1: form a subnet of three elementary services.
        assigned = yield from browser.compose_service(
            "Composite-Service", ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
        assert assigned == {"Neem-Sensor": "a", "Jade-Sensor": "b",
                            "Diamond-Sensor": "c"}
        # Step 2: average-of-three expression.
        yield from browser.add_expression("Composite-Service", "(a + b + c)/3")
        # Step 3: provision a new composite service onto the network.
        created = yield from browser.create_service("New-Composite")
        assert created["name"] == "New-Composite"
        # Step 4: network = {subnet from step 1, Coral-Sensor}.
        assigned2 = yield from browser.compose_service(
            "New-Composite", ["Composite-Service", "Coral-Sensor"])
        assert assigned2 == {"Composite-Service": "a", "Coral-Sensor": "b"}
        # Step 5: average of the two composed services.
        yield from browser.add_expression("New-Composite", "(a + b)/2")
        # Step 6: read the sensor value from the new composite.
        value = yield from browser.get_value("New-Composite")
        return value

    value = env.run(until=env.process(experiment()))
    t = env.now
    subnet_locations = [(0.0, 0.0), (8.0, 2.0), (12.0, 7.0)]  # Neem/Jade/Diamond
    truth = (world.mean_over("temperature", subnet_locations, t)
             + world.sample("temperature", (3.0, 9.0), t)) / 2
    assert abs(value - truth) < 1.5

    # The provisioned service landed on one of the two cybernodes.
    items = lab.lus.lookup(
        ServiceTemplate(types=(SENSOR_DATA_ACCESSOR,)), 64)
    new_composite = [i for i in items if i.name() == "New-Composite"]
    assert len(new_composite) == 1
    assert new_composite[0].service.host in ("cybernode-0", "cybernode-1")


def test_info_pane_after_experiment(lab):
    """Fig 3's 'Sensor Service Information' for the provisioned composite."""
    info = run(lab, lab.browser.get_info("New-Composite"))
    assert info["service_type"] == "COMPOSITE"
    assert info["contained_services"] == ["Composite-Service", "Coral-Sensor"]
    assert info["expression"] == "(a + b)/2"
    pane = lab.browser.render_info_pane()
    assert "New-Composite" in pane
    assert "COMPOSITE" in pane
    assert "(a + b)/2" in pane


def test_values_pane_lists_all_sensors(lab):
    values = run(lab, lab.browser.get_all_values())
    for name in SENSOR_NAMES:
        assert isinstance(values[name], float)
    pane = lab.browser.render_values_pane()
    assert "Neem-Sensor" in pane


def test_topology_reflects_composition(lab):
    snapshot = run(lab, lab.browser.refresh_topology())
    names = {n["name"]: n["service_id"] for n in snapshot["nodes"]}
    edges = {(e["parent"], e["child"]) for e in snapshot["edges"]}
    assert (names["New-Composite"], names["Composite-Service"]) in edges
    assert (names["Composite-Service"], names["Neem-Sensor"]) in edges
    rendered = lab.browser.render_topology()
    assert "New-Composite" in rendered


def test_compose_rejects_non_composite_target(lab):
    from repro.core import BrowserError
    with pytest.raises(BrowserError):
        run(lab, lab.browser.compose_service("Neem-Sensor", ["Jade-Sensor"]))


def test_batch_get_values_concurrent(lab):
    values = run(lab, lab.browser.get_values(list(SENSOR_NAMES)))
    assert set(values) == set(SENSOR_NAMES)
    assert all(isinstance(v, float) for v in values.values())


def test_batch_get_values_tolerates_unknown(lab):
    values = run(lab, lab.browser.get_values(["Neem-Sensor", "Ghost"]))
    assert isinstance(values["Neem-Sensor"], float)
    assert values["Ghost"] is None


def test_refused_cyclic_compose_leaves_no_half_state():
    """The model vetoes a cycle before the composite is touched: the refused
    child is not added, and both composites keep answering."""
    from repro.core import BrowserError
    lab = build_paper_lab(seed=2009)
    lab.settle(6.0)
    browser = lab.browser
    run(lab, browser.compose_service("Composite-Service", ["Neem-Sensor"]))
    run(lab, browser.create_service("New-Composite"))
    run(lab, browser.compose_service("Composite-Service", ["New-Composite"]))
    with pytest.raises(BrowserError, match="would create a cycle"):
        run(lab, browser.compose_service("New-Composite",
                                         ["Composite-Service"]))
    info = run(lab, browser.get_info("New-Composite"))
    assert info["contained_services"] == []
    run(lab, browser.compose_service("New-Composite", ["Jade-Sensor"]))
    assert isinstance(run(lab, browser.get_value("Composite-Service")), float)
    assert isinstance(run(lab, browser.get_value("New-Composite")), float)
