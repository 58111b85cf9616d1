"""FIG3 — the §VI six-step logical-sensor-networking experiment.

Regenerates Fig 3: subnet of three sensors with "(a+b+c)/3", a provisioned
New-Composite, the two-level network with "(a+b)/2", and the composite
sensor value — checked against the synthetic environment's ground truth.
Reported: per-step simulated latency (including Rio provisioning).
"""

from repro.util.table import render_table
from repro.scenarios import build_paper_lab


def run_experiment():
    lab = build_paper_lab(seed=2009)
    lab.settle(6.0)
    env, browser = lab.env, lab.browser
    steps: list = []

    def step(label):
        steps.append([label, env.now])

    def experiment():
        t0 = env.now
        yield from browser.compose_service(
            "Composite-Service",
            ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
        step("1 compose subnet (3 ESPs)")
        yield from browser.add_expression("Composite-Service", "(a + b + c)/3")
        step("2 attach (a+b+c)/3")
        yield from browser.create_service("New-Composite")
        step("3 provision New-Composite")
        yield from browser.compose_service(
            "New-Composite", ["Composite-Service", "Coral-Sensor"])
        step("4 compose network (subnet+Coral)")
        yield from browser.add_expression("New-Composite", "(a + b)/2")
        step("5 attach (a+b)/2")
        value = yield from browser.get_value("New-Composite")
        step("6 read composite value")
        return value, t0

    value, t0 = env.run(until=env.process(experiment()))
    # Per-step latency = delta between consecutive step stamps.
    previous = t0
    for row in steps:
        row_time = row[1]
        row[1] = row_time - previous
        previous = row_time
    return lab, value, steps, previous - t0


def test_fig3_six_steps(report):
    lab, value, steps, total = run_experiment()
    env, world = lab.env, lab.world
    subnet = [(0.0, 0.0), (8.0, 2.0), (12.0, 7.0)]
    truth = (world.mean_over("temperature", subnet, env.now)
             + world.sample("temperature", (3.0, 9.0), env.now)) / 2
    assert abs(value - truth) < 1.5, (value, truth)

    rows = [[label, latency] for label, latency in steps]
    rows.append(["TOTAL (all six steps)", total])
    report(render_table(
        ["step", "sim latency (s)"], rows,
        title=(f"FIG3 — six-step experiment; "
               f"New-Composite value {value:.3f} C vs ground truth "
               f"{truth:.3f} C (delta {abs(value - truth):.3f})")))
