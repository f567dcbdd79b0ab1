"""The *execute* component: carrying out an adaptation plan.

AFPAC is the paper's execute component for SPMD applications: it makes sure
adaptation actions run at a consistent point of the parallel execution (an
*adaptation point*) on all processes.  In the simulation the adaptation-point
wait and the data-redistribution pause are modelled inside
:class:`~repro.apps.runtime.RunningApplication`; the executor's job is to
drive those steps in plan order and to report what the runner must do with
processors (recruit before the adaptation, release after it).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.apps.runtime import RunningApplication
from repro.dynaco.events import AdaptationResult, EnvironmentEvent
from repro.dynaco.plan import Plan
from repro.sim.core import Environment
from repro.sim.events import Event

#: Receives the :class:`AdaptationResult` of an executed plan.
ResultCallback = Callable[[AdaptationResult], None]


class AfpacExecutor:
    """Executes malleability plans against a :class:`RunningApplication`.

    Parameters
    ----------
    env:
        Simulation environment.
    application:
        The running application the plans act upon.
    """

    def __init__(self, env: Environment, application: RunningApplication) -> None:
        self.env = env
        self.application = application
        #: Number of adaptations executed (grow + shrink), for diagnostics.
        self.executed_count = 0

    def execute(self, plan: Plan, event: EnvironmentEvent, then: ResultCallback) -> None:
        """Run *plan* to completion, then call *then* with its :class:`AdaptationResult`.

        A plan that changes nothing calls *then* at once; otherwise *then*
        runs when the application acknowledges its new size.  The caller
        (the MRunner) is responsible for having recruited new processors
        *before* executing a grow plan and for releasing processors *after*
        a shrink plan completes, as reported by the result.
        """
        app = self.application
        old_allocation = app.allocation
        target = plan.strategy.target_allocation

        if plan.empty or target == old_allocation:
            then(
                AdaptationResult(
                    event=event,
                    accepted_change=0,
                    new_allocation=old_allocation,
                    completed_at=None,
                )
            )
            return

        # The adaptation-point wait and the redistribution pause are both part
        # of the application runtime's reallocation protocol.
        ack = app.set_allocation(target)
        ack.callbacks.append(partial(self._adopted, event, old_allocation, then))

    def _adopted(
        self, event: EnvironmentEvent, old_allocation: int, then: ResultCallback, ack: Event
    ) -> None:
        adopted = ack.value
        self.executed_count += 1
        then(
            AdaptationResult(
                event=event,
                accepted_change=adopted - old_allocation,
                new_allocation=adopted,
                completed_at=self.env.now,
            )
        )
