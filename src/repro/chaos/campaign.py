"""Campaigns — N seeded chaos plans against a scenario, with verdicts.

A campaign run is: build the scenario fresh, settle, start a steady
workload, execute the seed's fault plan, quiesce, then judge every
invariant. The verdict is plain data with canonical JSON rendering —
``repro chaos run --json`` is byte-identical across invocations of the
same build (and across ``REPRO_SHUFFLE_SEED`` values: nothing in the
pipeline depends on tie-break order).

The scenario seed stays fixed (the deployment under test is a constant);
the *campaign* seed varies and fully determines the fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .injectors import InjectorEngine
from .invariants import RunRecord, builtin_invariants, evaluate_invariants
from .plan import ChaosPlan, TargetCatalog

__all__ = ["CampaignConfig", "CampaignRunner", "ScenarioContext",
           "SCENARIOS", "mttr_from_transitions"]


@dataclass
class CampaignConfig:
    """Knobs shared by every run of a campaign."""

    horizon: float = 90.0          # total simulated seconds per run
    settle: float = 6.0            # discovery/join convergence time
    workload_period: float = 2.0   # seconds between workload requests
    stop_margin: float = 15.0      # stop issuing this long before horizon
    convergence_windows: int = 25  # health must recover within K windows
    scenario_seed: int = 2009      # the deployment under test is fixed
    min_events: int = 2
    max_events: int = 5


@dataclass
class ScenarioContext:
    """Everything the runner needs from a built scenario."""

    env: object
    net: object
    catalog: TargetCatalog
    request: object                 # generator fn(target) -> value
    targets: list                   # workload rotation
    lus: object = None
    txn_managers: tuple = ()
    spaces: tuple = ()
    health: object = None
    tracer: object = None
    prepare: object = None          # optional one-shot setup generator fn
    load_engine: object = None      # OpenLoopEngine (overload scenarios)


def _build_paper_lab(config: CampaignConfig) -> ScenarioContext:
    from ..observability import tracer_of
    from ..scenarios.paper_lab import SENSOR_NAMES, build_paper_lab
    lab = build_paper_lab(seed=config.scenario_seed)
    sensors = list(SENSOR_NAMES)
    sensor_hosts = [f"{name.split('-')[0].lower()}-host" for name in sensors]
    catalog = TargetCatalog(
        crash_hosts=sensor_hosts + ["cybernode-0", "cybernode-1",
                                    "composite-host"],
        link_pairs=([(host, "persimmon") for host in sensor_hosts]
                    + [(host, "composite-host") for host in sensor_hosts]
                    + [("composite-host", "facade-host")]),
        churn_services=sensors + ["Composite-Service"])

    def prepare():
        yield from lab.browser.compose_service(
            "Composite-Service",
            ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
        yield from lab.browser.add_expression(
            "Composite-Service", "(a + b + c)/3")

    return ScenarioContext(
        env=lab.env, net=lab.net, catalog=catalog,
        request=lab.browser.get_value,
        targets=sensors + ["Composite-Service"],
        lus=lab.lus, txn_managers=(lab.txn_manager,), spaces=(),
        health=lab.health, tracer=tracer_of(lab.net), prepare=prepare)


def _build_paper_lab_load(config: CampaignConfig) -> ScenarioContext:
    """The paper lab behind admission control, under open-loop load.

    Capacity is deliberately tight (2 slots, ~0.15s service time → ~13
    req/s) against ~12 req/s offered, so the lab sits just below the knee
    at baseline and every ``tenant-burst`` or ``slowdown`` pushes it past
    saturation — the regime the overload oracle judges.
    """
    from ..observability import tracer_of
    from ..load import TenantSpec, build_load_lab
    from ..scenarios.paper_lab import SENSOR_NAMES
    sensors = list(SENSOR_NAMES)
    tenants = (
        TenantSpec("gold", rate=6.0, weight=3.0,
                   targets=SENSOR_NAMES),
        TenantSpec("silver", rate=4.0, weight=2.0,
                   targets=SENSOR_NAMES),
        TenantSpec("bronze", rate=2.0, weight=1.0,
                   targets=SENSOR_NAMES),
    )
    # The runner settles and starts the engine itself; arrivals stop at
    # the same stop_margin as the closed-loop workload so health can
    # converge inside the horizon.
    duration = config.horizon - config.settle - config.stop_margin
    load_lab = build_load_lab(
        seed=config.scenario_seed, tenants=tenants, duration=duration,
        scale=1.0, max_inflight=2, max_queue=8, esp_overhead=0.12,
        settle=0.0)
    lab = load_lab.lab
    sensor_hosts = [f"{name.split('-')[0].lower()}-host" for name in sensors]
    catalog = TargetCatalog(
        crash_hosts=sensor_hosts + ["cybernode-0", "cybernode-1"],
        link_pairs=[(host, "persimmon") for host in sensor_hosts],
        churn_services=sensors,
        kinds=("crash", "partition", "slowdown", "tenant-burst"),
        tenants=tuple(spec.name for spec in tenants))

    def prepare():
        yield from lab.browser.compose_service(
            "Composite-Service",
            ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
        yield from lab.browser.add_expression(
            "Composite-Service", "(a + b + c)/3")

    return ScenarioContext(
        env=lab.env, net=lab.net, catalog=catalog,
        request=lab.browser.get_value,
        targets=sensors + ["Composite-Service"],
        lus=lab.lus, txn_managers=(lab.txn_manager,), spaces=(),
        health=lab.health, tracer=tracer_of(lab.net), prepare=prepare,
        load_engine=load_lab.engine)


#: Scenario registry: name -> factory(config) -> ScenarioContext.
SCENARIOS = {"paper-lab": _build_paper_lab,
             "paper-lab-load": _build_paper_lab_load}


def mttr_from_transitions(transitions) -> dict:
    """Recovery accounting from the health model's transition log.

    An incident opens when an entity leaves UP and closes when it returns;
    the intermediate DEGRADED→DOWN hops stay inside one incident.
    """
    open_since: dict = {}
    durations: list = []
    for transition in transitions:
        entity = transition["entity"]
        if transition["from"] == "UP" and transition["to"] != "UP":
            open_since.setdefault(entity, transition["t"])
        elif transition["to"] == "UP" and entity in open_since:
            durations.append(transition["t"] - open_since.pop(entity))
    mttr = (round(sum(durations) / len(durations), 3)
            if durations else None)
    return {"incidents": len(durations) + len(open_since),
            "recovered": len(durations),
            "unrecovered": len(open_since),
            "mttr": mttr}


class CampaignRunner:
    """Runs seeded chaos plans against one scenario and collects verdicts."""

    def __init__(self, scenario: str = "paper-lab",
                 config: Optional[CampaignConfig] = None,
                 invariants: Optional[list] = None,
                 scenario_factory=None):
        if scenario_factory is None and scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; "
                             f"known: {', '.join(sorted(SCENARIOS))}")
        self.scenario = scenario
        self.config = config if config is not None else CampaignConfig()
        self._factory = (scenario_factory if scenario_factory is not None
                         else SCENARIOS[scenario])
        self._invariants = invariants

    # -- plan derivation -------------------------------------------------------

    def plan_for(self, seed: int) -> ChaosPlan:
        """The seed's fault schedule (no simulation; pure derivation)."""
        context = self._factory(self.config)
        return self._generate(seed, context.catalog)

    def _generate(self, seed: int, catalog: TargetCatalog) -> ChaosPlan:
        return ChaosPlan.generate(
            seed, catalog, scenario=self.scenario,
            horizon=self.config.horizon,
            min_events=self.config.min_events,
            max_events=self.config.max_events)

    # -- execution -------------------------------------------------------------

    def run_seed(self, seed: int) -> dict:
        return self.run_plan(None, seed=seed)

    def run_plan(self, plan: Optional[ChaosPlan], seed: Optional[int] = None,
                 checkpointer=None) -> dict:
        """Execute one campaign run; returns the verdict dict.

        ``checkpointer``, when given, is a callable invoked with the
        fresh environment right after the scenario build and before any
        simulated time passes — the snapshot layer uses it to attach a
        :class:`repro.snapshot.checkpoint.Checkpointer` whose schedule
        is then part of the deterministic event order (so a restored
        replay reproduces the run exactly).
        """
        config = self.config
        context = self._factory(config)
        env = context.env
        if plan is None:
            plan = self._generate(seed, context.catalog)
        if checkpointer is not None:
            checkpointer(env)
        env.run(until=env.now + config.settle)
        counts = {"issued": 0, "completed": 0, "failed": 0, "inflight": 0}
        engine = InjectorEngine(context.net, lus=context.lus,
                                txn_manager=(context.txn_managers[0]
                                             if context.txn_managers else None),
                                seed=plan.seed,
                                load_engine=context.load_engine)
        engine.apply(plan)
        env.process(self._workload(context, counts,
                                   stop_at=plan.horizon - config.stop_margin),
                    name="chaos-workload")
        if context.load_engine is not None:
            env.process(context.load_engine.run(), name="load-engine")
        env.run(until=plan.horizon)
        return self._judge(context, plan, engine, counts)

    def _judge(self, context: ScenarioContext, plan: ChaosPlan,
               engine: InjectorEngine, counts: dict) -> dict:
        """Judge a finished run: final health tick, invariants, verdict."""
        env = context.env
        if context.health is not None:
            # Make sure the horizon state got judged — but never evaluate
            # the same timestamp twice (the at-risk hysteresis counts
            # evaluations, so a double tick manufactures DEGRADED).
            if context.health.model.evaluated_at != env.now:
                context.health.tick(env.now)
        record = RunRecord(
            env=env, net=context.net, plan=plan, health=context.health,
            tracer=context.tracer, txn_managers=context.txn_managers,
            spaces=context.spaces, issued=counts["issued"],
            completed=counts["completed"], failed=counts["failed"],
            inflight=counts["inflight"])
        if context.load_engine is not None:
            record.extra["load"] = context.load_engine.summary()
        invariants = self._invariants
        if invariants is None:
            invariants = builtin_invariants(
                convergence_windows=self.config.convergence_windows)
        results = evaluate_invariants(record, invariants)
        transitions = (context.health.model.transitions
                       if context.health is not None else [])
        verdict = {
            "seed": plan.seed,
            "scenario": self.scenario,
            "ok": all(result.ok for result in results),
            "plan": plan.to_dict(),
            "invariants": [result.to_dict() for result in results],
            "workload": {key: counts[key] for key in sorted(counts)},
            "faults": {"applied": {kind: engine.applied[kind]
                                   for kind in sorted(engine.applied)},
                       "links": engine.link_stats()},
            "recovery": mttr_from_transitions(transitions),
        }
        if context.load_engine is not None:
            # Load scenarios ship their traffic accounting in the verdict
            # (scenarios without an engine keep the stock byte shape).
            verdict["load"] = record.extra["load"]
        return verdict

    def run(self, seeds) -> dict:
        """Run every seed; returns the campaign summary (JSON-ready)."""
        runs = [self.run_seed(seed) for seed in seeds]
        passed = sum(1 for run in runs if run["ok"])
        mttrs = [run["recovery"]["mttr"] for run in runs
                 if run["recovery"]["mttr"] is not None]
        failures: dict = {}
        for run in runs:
            for result in run["invariants"]:
                if not result["ok"]:
                    failures[result["name"]] = failures.get(result["name"], 0) + 1
        return {
            "scenario": self.scenario,
            "seeds": list(seeds),
            "passed": passed,
            "failed": len(runs) - passed,
            "pass_rate": round(passed / len(runs), 4) if runs else None,
            "mean_mttr": (round(sum(mttrs) / len(mttrs), 3)
                          if mttrs else None),
            "invariant_failures": failures,
            "runs": runs,
        }

    # -- workload ---------------------------------------------------------------

    def _workload(self, context: ScenarioContext, counts: dict,
                  stop_at: float):
        env = context.env
        if context.prepare is not None:
            try:
                yield from context.prepare()
            except Exception:  # repro: allow[SIM001] - best-effort warm-up
                pass  # chaos may already be biting; elementary reads remain
        index = 0
        while env.now < stop_at:
            target = context.targets[index % len(context.targets)]
            index += 1
            env.process(self._request(context, target, counts),
                        name=f"chaos-request:{target}")
            yield env.timeout(self.config.workload_period)

    def _request(self, context: ScenarioContext, target: str, counts: dict):
        counts["issued"] += 1
        counts["inflight"] += 1
        try:
            yield from context.request(target)
        except Exception:  # repro: allow[SIM001] - any failure is counted
            counts["failed"] += 1
        else:
            counts["completed"] += 1
        counts["inflight"] -= 1
