#!/usr/bin/env python
"""Application-initiated adaptation: the paper's future-work extension.

Section VIII of the paper leaves *application-initiated* grow requests as
future work ("this feature is mainly useful in case the parallelism pattern
is irregular").  The building blocks exist in this reproduction: DYNACO's
observe component accepts events from any monitor, not just the scheduler
frontend, so an application whose own computation needs more processors can
publish a grow request through a :class:`~repro.dynaco.CallbackMonitor`.

This example runs a single irregular application whose parallelism doubles
halfway through (think of an adaptive-mesh refinement step): at that point
the *application itself* asks for more processors; the runner-side DYNACO
instance decides how many it can actually use and the allocation changes
accordingly, while a scheduler-side grow offer later in the run shows the two
initiation paths coexisting.

Run it with::

    python examples/application_initiated_growth.py
"""

from __future__ import annotations

from repro.apps import (
    ApplicationProfile,
    PerProcessorReconfigurationCost,
    PowerLawSpeedup,
    RunningApplication,
)
from repro.dynaco import (
    AfpacExecutor,
    CallbackMonitor,
    Dynaco,
    GrowOffer,
    MalleabilityDecision,
    MalleabilityPlanner,
)
from repro.sim import Environment
from repro.sim.events import URGENT


def main() -> None:
    env = Environment()

    # An irregular application: scales well, pays a small per-processor
    # reconfiguration cost, and knows that its second phase needs many more
    # processors than its first.
    profile = ApplicationProfile(
        name="adaptive-mesh",
        speedup=PowerLawSpeedup(sequential_time=1200.0, alpha=0.95),
        reconfiguration=PerProcessorReconfigurationCost(base=2.0, per_processor=0.25),
        default_minimum=2,
        default_maximum=64,
    )
    application = RunningApplication(env, profile, initial_allocation=4, job_id="amr-1")

    # The DYNACO instance for this application: the frontend monitor is the
    # usual scheduler-facing one; we add a second, application-facing monitor.
    application_monitor = CallbackMonitor("application-monitor")
    dynaco = Dynaco(
        env,
        decision=MalleabilityDecision(minimum=2, maximum=64, constraint=profile.constraint),
        planner=MalleabilityPlanner(),
        executor=AfpacExecutor(env, application),
        monitor=application_monitor,
    )

    log: list[str] = []

    # Both activities are callback chains: each link does its work and
    # appends the next link to the callbacks of the event it waits on.

    def application_logic(_event) -> None:
        """The application's own progress loop: it requests growth itself."""
        application.start()
        log.append(f"[{env.now:7.1f}s] started on {application.allocation} processors")
        check_progress()

    def check_progress(_event=None) -> None:
        # Phase 1: run until ~40% of the work is done.
        if application.remaining_fraction > 0.6:
            env.timeout(10.0).callbacks.append(check_progress)
            return
        # The refinement step arrives: the application asks for 16 more
        # processors through its own monitor (application-initiated growth).
        event = GrowOffer(
            time=env.now,
            offered=16,
            current_allocation=application.allocation,
            source="application",
        )
        log.append(f"[{env.now:7.1f}s] application requests 16 more processors")
        dynaco.adapt(event, application.allocation).callbacks.append(application_adapted)

    def application_adapted(completion) -> None:
        result = completion.value
        log.append(
            f"[{env.now:7.1f}s] adaptation executed: +{result.accepted_change} "
            f"processors -> {result.new_allocation}"
        )

    def scheduler_logic(_event) -> None:
        """Independently, the scheduler also offers processors (the usual path)."""
        env.timeout(60.0).callbacks.append(scheduler_offer)

    def scheduler_offer(_event) -> None:
        if application.is_finished:
            return
        event = GrowOffer(
            time=env.now, offered=8, current_allocation=application.allocation,
            source="scheduler",
        )
        log.append(f"[{env.now:7.1f}s] scheduler offers 8 more processors")
        dynaco.adapt(event, application.allocation).callbacks.append(scheduler_adapted)

    def scheduler_adapted(completion) -> None:
        result = completion.value
        log.append(
            f"[{env.now:7.1f}s] scheduler-initiated adaptation: "
            f"+{result.accepted_change} -> {result.new_allocation} processors"
        )

    # Each chain's first link runs in an URGENT event at t=0, in this order.
    env.relay(application_logic, URGENT)
    env.relay(scheduler_logic, URGENT)
    env.run(application.completed)

    log.append(
        f"[{env.now:7.1f}s] finished; execution time "
        f"{application.record.execution_time:.1f}s, "
        f"{len(application.record.reconfigurations)} reconfigurations"
    )
    print("\n".join(log))
    print()
    fixed = profile.execution_time(4)
    print(f"Staying on 4 processors would have taken {fixed:.0f} s; "
          f"with the two growth paths it took {application.record.execution_time:.0f} s.")


if __name__ == "__main__":
    main()
