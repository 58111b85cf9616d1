"""Rendezvous — the job-coordinating half of the Jobber and the Spacer.

Receives a :class:`~repro.sorcer.exertion.Job`, runs its components
(sequentially or in parallel per the job's control strategy) and
aggregates component results into the job's context under
``<component>/<return path>``. How one component reaches a provider is the
concrete peer's ``_dispatch``.
"""

from __future__ import annotations

from typing import Optional

from ..observability import propagate_trace
from .exertion import Exertion, ExertionStatus, Job, Strategy
from .provider import ServiceProvider

__all__ = ["Rendezvous"]


class Rendezvous(ServiceProvider):
    """Subclasses supply ``_dispatch(component, route)``, a generator
    returning the component's result exertion."""

    #: Kernel process names (``<prefix>:<component>``) of dispatches; with
    #: no sequential prefix those run in line, in the serving process.
    PARALLEL_PROCESS: str
    SEQUENTIAL_PROCESS: Optional[str] = None

    def _route(self, txn_id: Optional[int]):
        """Generator returning what every dispatch of one job is handed."""
        yield from ()
        return txn_id

    def _execute(self, exertion: Exertion, txn_id: Optional[int]):
        if not isinstance(exertion, Job):
            raise TypeError(f"{self.SERVICE_TYPES[0]} got a "
                            f"{type(exertion).__name__}; jobs only")
        job = exertion
        route = yield from self._route(txn_id)
        if job.control.strategy is Strategy.PARALLEL:
            yield from self._run_parallel(job, route)
        else:
            yield from self._run_sequential(job, route)
        failed = [e for e in job.exertions if e.is_failed]
        if failed:
            job.report_exception(
                f"{len(failed)} component exertion(s) failed: "
                + ", ".join(e.name for e in failed))
        else:
            job.status = ExertionStatus.DONE
        return job

    # -- strategies -----------------------------------------------------------

    def _run_sequential(self, job: Job, route):
        for index, component in enumerate(list(job.exertions)):
            # Component hops become children of this peer's serve span (the
            # link rides the component's context, even through the space).
            propagate_trace(job.context, component.context)
            if self.SEQUENTIAL_PROCESS is None:
                result = yield from self._dispatch(component, route)
            else:
                result = yield self.env.process(
                    self._dispatch(component, route),
                    name=f"{self.SEQUENTIAL_PROCESS}:{component.name}")
            job.exertions[index] = result
            self._collect(job, result)
            if result.is_failed:
                # Fail fast: downstream components likely depend on this one.
                for rest in job.exertions[index + 1:]:
                    rest.report_exception(
                        f"skipped: upstream {result.name!r} failed")
                return

    def _run_parallel(self, job: Job, route):
        procs = []
        for component in job.exertions:
            propagate_trace(job.context, component.context)
            procs.append(self.env.process(
                self._dispatch(component, route),
                name=f"{self.PARALLEL_PROCESS}:{component.name}"))
        results = yield self.env.all_of(procs)
        job.exertions = list(results)
        for result in results:
            self._collect(job, result)

    # -- data flow ------------------------------------------------------------------

    def _collect(self, job: Job, result: Exertion) -> None:
        job.context.put_value(
            f"{result.name}/{result.context.return_path}",
            result.context.get_return_value(default=None))
