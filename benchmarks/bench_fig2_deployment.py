"""FIG2 — the SORCER-Lab deployment and its service inventory.

Regenerates the content of the paper's Fig 2: the full service listing a
browser attached to the lookup service would show (Jini infrastructure,
Rio provisioning services, four temperature ESPs, one composite, one
façade) once the whole deployment is built and settled.
"""

from repro.util.table import render_table
from repro.scenarios import SENSOR_NAMES, build_paper_lab

EXPECTED = {
    "Transaction Manager", "Event Mailbox", "Lease Renewal Service",
    "Lookup Discovery Service", "Monitor", "Jobber", "Composite-Service",
    "SenSORCER Facade", *SENSOR_NAMES,
}


def deploy():
    lab = build_paper_lab(seed=2009)
    lab.settle(6.0)
    return lab


def test_fig2_deployment(report):
    lab = deploy()

    items = sorted(lab.lus.lookup_all(), key=lambda i: i.name() or "")
    names = {item.name() for item in items}
    assert EXPECTED <= names, f"missing services: {EXPECTED - names}"
    cybernodes = [i for i in items if i.name() == "Cybernode"]
    assert len(cybernodes) == 2

    rows = [[item.name(), item.service.host,
             "/".join(t for t in item.service.type_names if t != "Servicer")]
            for item in items]
    report(render_table(
        ["service", "host", "remote types"], rows,
        title=(f"FIG2 — registered services after settle "
               f"(t={lab.env.now:.1f}s sim, {len(items)} services, "
               f"{lab.net.stats.messages} messages)")))
