"""The DYNACO container: wiring observe, decide, plan and execute together.

A :class:`Dynaco` instance is created *per application* (the paper: "a
complete instance of DYNACO is included in the MRunner on a per-application
basis").  The runner frontend feeds scheduler messages into the monitor; the
framework then runs the control loop — decide, plan, execute — and returns an
event that the runner awaits to learn the adaptation's outcome, from which it
generates the acknowledgment back to the scheduler.

An adaptation that changes the allocation is executed from an URGENT relay
queued by :meth:`Dynaco.adapt`, so it starts right after the event in which
it was requested, ahead of every NORMAL event of that instant.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.dynaco.decide import DecisionProcedure, Strategy
from repro.dynaco.events import AdaptationResult, EnvironmentEvent
from repro.dynaco.execute import AfpacExecutor
from repro.dynaco.observe import Monitor, SchedulerFrontendMonitor
from repro.dynaco.plan import Plan, Planner
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event


class Dynaco:
    """One DYNACO control loop specialised for a single application.

    Parameters
    ----------
    env:
        Simulation environment.
    decision:
        The application-specific decide component.
    planner:
        The plan component.
    executor:
        The execute component (AFPAC for SPMD applications).
    monitor:
        The observe component; a :class:`SchedulerFrontendMonitor` is created
        when omitted.  Every event the monitor publishes starts one pass of
        the control loop.
    """

    def __init__(
        self,
        env: Environment,
        decision: DecisionProcedure,
        planner: Planner,
        executor: AfpacExecutor,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.env = env
        self.decision = decision
        self.planner = planner
        self.executor = executor
        self.monitor = monitor or SchedulerFrontendMonitor()
        self.monitor.subscribe(self._on_event)
        #: Completed adaptation results, in completion order.
        self.history: List[AdaptationResult] = []
        #: Events whose adaptation is still being executed.
        self._in_flight: List[EnvironmentEvent] = []
        #: ``(event, completion)`` keyed by ``id`` of the triggering
        #: environment event (events compare by value, so they cannot be keys).
        self._completions: dict[int, tuple] = {}

    # -- public API --------------------------------------------------------

    def adapt(self, event: EnvironmentEvent, current_allocation: int) -> Event:
        """Run one pass of the control loop for *event*.

        Returns a simulation event that succeeds with the
        :class:`AdaptationResult` once the adaptation has been executed (or
        immediately, if the decision is to not adapt).

        Calling :meth:`adapt` twice for the same event object returns the same
        completion event, so the runner frontend and the monitor subscription
        can both refer to an adaptation without duplicating it.
        """
        key = id(event)
        if key in self._completions:
            return self._completions[key][1]
        completion = self.env.event()
        self._completions[key] = (event, completion)
        strategy = self.decision.decide(event, current_allocation)
        plan = self.planner.plan(current_allocation, strategy)

        if plan.empty:
            result = AdaptationResult(
                event=event,
                accepted_change=0,
                new_allocation=current_allocation,
                completed_at=None,
            )
            self.history.append(result)
            completion.succeed(result)
            return completion

        self._in_flight.append(event)
        self.env.relay(partial(self._execute, plan, event, completion), URGENT)
        return completion

    def preview(self, event: EnvironmentEvent, current_allocation: int) -> Strategy:
        """Run only the decide step (no side effects).

        The scheduler-side protocol needs the accepted processor count
        *before* allocating resources ("get accepted number of processors
        from Job" in the FPSMA/EGS pseudo-code); the runner obtains it by
        previewing the decision.
        """
        return self.decision.decide(event, current_allocation)

    @property
    def busy(self) -> bool:
        """Whether an adaptation is currently being executed."""
        return bool(self._in_flight)

    @property
    def executed_adaptations(self) -> int:
        """Number of adaptations that actually changed the allocation."""
        return sum(1 for result in self.history if not result.declined)

    def __setstate__(self, state: dict) -> None:
        # Unpickled events have new ids: key their completions afresh.
        completions = state["_completions"].values()
        state["_completions"] = {id(entry[0]): entry for entry in completions}
        self.__dict__.update(state)

    # -- internals ------------------------------------------------------------

    def _on_event(self, event: EnvironmentEvent) -> None:
        # Events arriving directly through the monitor (e.g. from a
        # CallbackMonitor used for application-initiated requests) are adapted
        # against the executor's current view of the application.
        self.adapt(event, self.executor.application.allocation)

    def _execute(
        self, plan: Plan, event: EnvironmentEvent, completion: Event, _relay: Event
    ) -> None:
        self.executor.execute(plan, event, partial(self._executed, event, completion))

    def _executed(
        self, event: EnvironmentEvent, completion: Event, result: AdaptationResult
    ) -> None:
        self.history.append(result)
        if event in self._in_flight:
            self._in_flight.remove(event)
        if not completion.triggered:
            completion.succeed(result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Dynaco monitor={self.monitor.name!r} adaptations={len(self.history)} "
            f"busy={self.busy}>"
        )
