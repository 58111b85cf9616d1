"""SenSORCER reproduction — a framework for managing sensor-federated
networks (Bhosale & Sobolewski, ICPP Workshops 2009) rebuilt in Python on a
deterministic discrete-event simulation substrate.

Layers (bottom up):

* :mod:`repro.sim` — discrete-event kernel;
* :mod:`repro.net` — simulated network, multicast, RPC, wire accounting;
* :mod:`repro.jini` — discovery/join, lookup, leases, events, transactions;
* :mod:`repro.rio` — cybernodes, provision monitor, QoS, selection, SLA;
* :mod:`repro.sorcer` — exertions, contexts, signatures, Jobber/Spacer,
  exertion space;
* :mod:`repro.expr` — the compute-expression language (Groovy substitute);
* :mod:`repro.sensors` — environment model, probes, Sun SPOT;
* :mod:`repro.resilience` — retry/backoff policies, deadlines, circuit
  breakers and the resilience event stream;
* :mod:`repro.observability` — spans, metrics, health/SLOs, profiling;
* :mod:`repro.core` — SenSORCER proper: ESP, CSP, façade, browser,
  network manager, provisioner;
* :mod:`repro.baselines` — direct-IP collection and TCI/SSP/ASP;
* :mod:`repro.scenarios` — canned deployments (the paper-lab of Fig 2).

Planes — leaf packages the layers above never import; each brings its
CLI verbs through one line of the table in :mod:`repro.cli`:

* :mod:`repro.overload` + :mod:`repro.load` — admission control and the
  open-loop load engine (``load``);
* :mod:`repro.chaos` — seeded fault campaigns, invariants, shrinking
  (``chaos``);
* :mod:`repro.snapshot` — checkpoint/restore (``snapshot``, ``restore``);
* :mod:`repro.analysis` — stdlib-only static analysis (``lint``).

Importing :mod:`repro` imports no subpackage, so ``repro lint`` runs in
environments without numpy.

Quick start::

    from repro.scenarios import build_paper_lab

    lab = build_paper_lab(seed=2009)
    lab.settle(6.0)

    def experiment():
        yield from lab.browser.compose_service(
            "Composite-Service", ["Neem-Sensor", "Jade-Sensor"])
        yield from lab.browser.add_expression("Composite-Service", "(a+b)/2")
        value = yield from lab.browser.get_value("Composite-Service")
        return value

    print(lab.env.run(until=lab.env.process(experiment())))
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
