"""DYNACO — the dynamic-adaptation framework used on the application side.

DYNACO (Buisson, André, Pazat) decomposes adaptability into four components
arranged as a control loop (Figure 2 of the paper):

* **observe** — monitors the execution environment and emits events when
  something relevant changes (here: grow/shrink messages arriving from the
  KOALA scheduler through the runner frontend);
* **decide** — decides *whether* and *to what* the application should adapt
  (here: which processor count to actually adopt, applying the application's
  own size constraints and its minimum/maximum);
* **plan** — produces the list of actions realising the adopted strategy;
* **execute** — schedules those actions in synchronisation with the
  application code (AFPAC provides this for SPMD applications: adaptation
  happens at the next adaptation point).

The framework is deliberately application-agnostic; applications specialise
it by providing the decision procedure, planning rules and action
implementations.  In this reproduction the specialisation for malleable
SPMD applications is provided by :class:`~repro.dynaco.decide.MalleabilityDecision`,
:class:`~repro.dynaco.plan.MalleabilityPlanner` and
:class:`~repro.dynaco.execute.AfpacExecutor`.
"""

from repro.dynaco.events import (
    AdaptationResult,
    EnvironmentEvent,
    GrowOffer,
    ShrinkRequest,
)
from repro.dynaco.observe import CallbackMonitor, Monitor, SchedulerFrontendMonitor
from repro.dynaco.decide import (
    DecisionProcedure,
    MalleabilityDecision,
    Strategy,
)
from repro.dynaco.plan import Action, MalleabilityPlanner, Plan, Planner
from repro.dynaco.execute import AfpacExecutor
from repro.dynaco.framework import Dynaco

__all__ = [
    "Action",
    "AdaptationResult",
    "AfpacExecutor",
    "CallbackMonitor",
    "DecisionProcedure",
    "Dynaco",
    "EnvironmentEvent",
    "GrowOffer",
    "MalleabilityDecision",
    "MalleabilityPlanner",
    "Monitor",
    "Plan",
    "Planner",
    "SchedulerFrontendMonitor",
    "ShrinkRequest",
    "Strategy",
]
