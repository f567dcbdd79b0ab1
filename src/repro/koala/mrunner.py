"""The Malleable Runner (MRunner).

The MRunner extends the usual control role of a runner with malleability
operations (Section V-A of the paper).  Key design points reproduced here:

* a complete DYNACO instance is embedded per application; the runner
  frontend is reflected as a DYNACO monitor that turns scheduler grow/shrink
  messages into adaptation events;
* because GRAM cannot manage malleable jobs, the malleable application is
  managed as a *collection of GRAM jobs of size 1*: growth submits new
  size-1 GRAM jobs, shrinking releases some of them;
* GRAM interactions overlap with application execution: on growth the
  application is not suspended before all new processors are held (the
  stubs are recruited first), and on shrink the processors are only released
  to GRAM after the application has given them back, while execution resumes
  immediately;
* the application may accept fewer processors than offered (e.g. FT's
  power-of-two constraint); the surplus is voluntarily released and the
  scheduler is notified.

Start, grow, shrink and failure survival are callback chains.  Each begins
in an URGENT relay queued by the call, so the GRAM submissions and DYNACO
adaptations of operations started in one instant keep the order of their
calls.  The stub claims of one operation are awaited one at a time, in
submission order.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from repro.apps.runtime import RunningApplication
from repro.cluster.gram import GramJob
from repro.dynaco.decide import MalleabilityDecision
from repro.dynaco.events import GrowOffer, ShrinkRequest
from repro.dynaco.execute import AfpacExecutor
from repro.dynaco.framework import Dynaco
from repro.dynaco.observe import SchedulerFrontendMonitor
from repro.dynaco.plan import MalleabilityPlanner
from repro.koala.claiming import ClaimLedger, PendingClaim
from repro.koala.job import JobKind, JobState
from repro.koala.runners import JobRunner
from repro.sim.events import URGENT, Event, when_all_processed, when_processed


def _granted(submissions: Sequence[Event]) -> List[GramJob]:
    """The GRAM jobs of the settled stub *submissions*; refused stubs are skipped."""
    return [submission.value for submission in submissions if submission.ok]


class MalleableRunner(JobRunner):
    """Runner for malleable (DYNACO-based) applications."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.dynaco: Optional[Dynaco] = None
        self.monitor = SchedulerFrontendMonitor(frontend_name=f"frontend:{self.job.name}")
        self._reconfiguring = False
        #: Count of grow/shrink operations that were actually executed.
        self.grow_operations = 0
        self.shrink_operations = 0
        #: Processors voluntarily released (offered or claimed but not used).
        self.voluntarily_released = 0

    # -- queries used by the malleability policies ----------------------------

    @property
    def reconfiguring(self) -> bool:
        """Whether a grow or shrink operation is currently in flight."""
        return self._reconfiguring

    def preview_grow(self, offered: int) -> int:
        """Additional processors the application would accept from *offered*.

        Previews are pure message exchanges ("get accepted number of
        processors from Job" in the policy pseudo-code): they never publish
        through the monitor, so no adaptation is triggered.
        """
        if self.dynaco is None or self.application is None or self.application.is_finished:
            return 0
        current = self.application.allocation
        event = GrowOffer(time=self.env.now, offered=offered, current_allocation=current)
        strategy = self.dynaco.preview(event, current)
        return max(0, strategy.target_allocation - current)

    def preview_shrink(self, requested: int) -> int:
        """Processors the application would release if asked for *requested*."""
        if self.dynaco is None or self.application is None or self.application.is_finished:
            return 0
        current = self.application.allocation
        event = ShrinkRequest(time=self.env.now, requested=requested, current_allocation=current)
        strategy = self.dynaco.preview(event, current)
        return max(0, current - strategy.target_allocation)

    @property
    def shrinkable_processors(self) -> int:
        """Processors the job could give up without going below its minimum."""
        if self.application is None or self.application.is_finished:
            return 0
        return max(0, self.application.allocation - self.job.minimum_processors)

    @property
    def growable_processors(self) -> int:
        """Processors the job could still gain before reaching its maximum."""
        if self.application is None or self.application.is_finished:
            return 0
        return max(0, self.job.maximum_processors - self.application.allocation)

    # -- placement -------------------------------------------------------------

    def start(
        self,
        cluster_name: str,
        processors: int,
        *,
        claim: Optional[PendingClaim] = None,
        ledger: Optional[ClaimLedger] = None,
    ) -> Event:
        if self.application is not None:
            raise RuntimeError(f"job {self.job.name!r} has already been started")
        if self.job.kind is not JobKind.MALLEABLE:
            raise ValueError("MalleableRunner only runs malleable jobs")
        outcome = self.env.event()
        self.cluster_name = cluster_name
        self.env.relay(partial(self._claim_start, processors, claim, ledger, outcome), URGENT)
        return outcome

    def _claim_stub_jobs(self, count: int, then) -> None:
        """Submit *count* size-1 GRAM jobs; call *then* with the submissions once all settled."""
        endpoint = self.multicluster.gram(self.cluster_name)
        when_all_processed([endpoint.submit(self.job.name, 1) for _ in range(count)], then)

    def _claim_start(self, processors, claim, ledger, outcome, _relay) -> None:
        self._claim_stub_jobs(
            processors, partial(self._start_claimed, processors, claim, ledger, outcome)
        )

    def _start_claimed(self, processors, claim, ledger, outcome, submissions) -> None:
        granted = _granted(submissions)
        self._settle(claim, ledger)
        cluster_name = self.cluster_name
        if len(granted) < processors:
            # Claiming failed: give back whatever was obtained and let the
            # scheduler re-queue the job.
            endpoint = self.multicluster.gram(cluster_name)
            for gram_job in granted:
                endpoint.release(gram_job)
            if granted:
                self.callbacks.processors_released(cluster_name)
            self.job.state = JobState.QUEUED
            outcome.succeed(False)
            return

        self.gram_jobs.extend(granted)
        application = RunningApplication(
            self.env,
            self.job.profile,
            processors,
            job_id=self.job.name,
            adaptation_point_interval=self.adaptation_point_interval,
            rng=self.rng,
        )
        application.record.submit_time = self.job.submit_time
        self.application = application
        self.dynaco = Dynaco(
            self.env,
            decision=MalleabilityDecision(
                self.job.minimum_processors,
                self.job.maximum_processors,
                self.job.profile.constraint,
            ),
            planner=MalleabilityPlanner(),
            executor=AfpacExecutor(self.env, application),
            monitor=self.monitor,
        )
        self.job.start_time = self.env.now
        self.job.state = JobState.RUNNING
        self.job.single_component.cluster = cluster_name
        application.start()
        self.callbacks.job_started(self.job)
        outcome.succeed(True)
        application.completed.callbacks.append(self._completed)

    # -- fault tolerance ---------------------------------------------------------

    def survive_failure(self, lost: int) -> Event:
        """Shrink through a node failure: *lost* held processors just died.

        The paper's adaptation story made concrete: where a rigid job dies
        with the node, a malleable job whose minimum still fits gives the
        dead processors up and keeps computing.  The corresponding size-1
        GRAM jobs are released immediately (the nodes are gone — the caller
        has already marked them failed, so they cannot be re-promised) and a
        *mandatory* shrink is pushed through DYNACO so the application adapts
        down to what is left at its next adaptation point.

        Returns an event succeeding with the number of processors the
        application actually gave up (at least *lost*, more if its structural
        size constraint rounds further down).
        """
        done = self.env.event()
        application = self.application
        if (
            lost <= 0
            or application is None
            or application.is_finished
            or self.dynaco is None
            or lost > len(self.gram_jobs)
        ):
            done.succeed(0)
            return done
        # The dead stubs: released without the voluntary-release accounting —
        # nothing voluntary about a node failure.
        self._release_gram_jobs(self.gram_jobs[-lost:])
        self.env.relay(partial(self._survive_start, lost, done), URGENT)
        return done

    def _survive_start(self, lost, done, _relay) -> None:
        current = self.application.allocation
        event = self.monitor.on_shrink_message(self.env.now, lost, current, mandatory=True)
        when_processed(self.dynaco.adapt(event, current), partial(self._survived, lost, done))

    def _survived(self, lost, done, adaptation) -> None:
        released = max(0, -adaptation.value.accepted_change)
        if released > lost:
            # The size constraint rounded below the surviving size (e.g. FT
            # dropping to the next power of two): the application gave up
            # healthy processors too — release their GRAM jobs normally.
            extra = min(released - lost, len(self.gram_jobs))
            if extra > 0:
                self._release_gram_jobs(self.gram_jobs[-extra:])
        if released > 0:
            self.shrink_operations += 1
        done.succeed(released)

    # -- malleability operations -------------------------------------------------

    def grow(
        self,
        offered: int,
        *,
        claim: Optional[PendingClaim] = None,
        ledger: Optional[ClaimLedger] = None,
    ) -> Event:
        """Offer the application *offered* additional processors.

        Returns an event succeeding with the number of processors actually
        adopted (0 if the application declined, finished first, or the
        processors could not be claimed).
        """
        done = self.env.event()
        if (
            offered <= 0
            or self.application is None
            or self.application.is_finished
            or self.dynaco is None
        ):
            self._settle(claim, ledger)
            done.succeed(0)
            return done
        self.env.relay(partial(self._grow_start, offered, claim, ledger, done), URGENT)
        return done

    def _grow_start(self, offered, claim, ledger, done, _relay) -> None:
        self._reconfiguring = True
        # How many of the offered processors would the application use?
        # (A pure preview: the real adaptation event is only published
        # once all new processors are actually held.)
        usable = self.preview_grow(offered)
        if usable == 0 or self.application.is_finished:
            self._settle(claim, ledger)
            self._grow_done(done, 0)
            return
        # Claim only what will be used; the rest of the offer is declined
        # up front (the scheduler keeps those processors available).
        self._claim_stub_jobs(usable, partial(self._grow_claimed, claim, ledger, done))

    def _grow_claimed(self, claim, ledger, done, submissions) -> None:
        granted = _granted(submissions)
        self._settle(claim, ledger)
        endpoint = self.multicluster.gram(self.cluster_name)
        if not granted or self.application.is_finished:
            for gram_job in granted:
                endpoint.release(gram_job)
            if granted:
                self.voluntarily_released += len(granted)
                self.callbacks.processors_released(self.cluster_name)
            self._grow_done(done, 0)
            return

        # With a partial grant the application re-decides on what it got
        # (FT may round a partial grant down to a smaller power of two).
        adopted_extra = self.preview_grow(len(granted))
        surplus = granted[adopted_extra:]
        keep = granted[:adopted_extra]
        for gram_job in surplus:
            endpoint.release(gram_job)
        if surplus:
            self.voluntarily_released += len(surplus)
            self.callbacks.processors_released(self.cluster_name)
        if not keep:
            self._grow_done(done, 0)
            return
        self._recruit(keep, 0, done)

    def _recruit(self, keep, recruited, done, _event=None) -> None:
        """Recruit the kept stubs one at a time, then adapt.

        Recruiting turns the stubs into application processes (fast path);
        DYNACO then executes the adaptation at the next adaptation point.
        Only now is the grow message reflected as a monitor event: the
        application is never suspended before all resources are held.
        """
        if recruited < len(keep):
            recruit = self.multicluster.gram(self.cluster_name).recruit(keep[recruited])
            recruit.callbacks.append(partial(self._recruit, keep, recruited + 1, done))
            return
        self.gram_jobs.extend(keep)
        application = self.application
        grow_event = self.monitor.on_grow_message(
            self.env.now, len(keep), application.allocation
        )
        when_processed(
            self.dynaco.adapt(grow_event, application.allocation),
            partial(self._grown, keep, done),
        )

    def _grown(self, keep, done, adaptation) -> None:
        actually_added = max(0, adaptation.value.accepted_change)
        if actually_added < len(keep):
            # The application finished (or adopted less) while we were
            # recruiting; release the stubs it will never use.
            unused = keep[actually_added:]
            self._release_gram_jobs(unused)
            self.voluntarily_released += len(unused)
        if actually_added > 0:
            self.grow_operations += 1
        self._grow_done(done, actually_added)

    def _grow_done(self, done: Event, added: int) -> None:
        done.succeed(added)
        self._reconfiguring = False

    def shrink(
        self,
        requested: int,
        *,
        mandatory: bool = True,
    ) -> Event:
        """Ask the application to give back *requested* processors.

        Returns an event succeeding with the number of processors actually
        released (after the application has reconfigured and the
        corresponding GRAM jobs have been released).
        """
        done = self.env.event()
        if (
            requested <= 0
            or self.application is None
            or self.application.is_finished
            or self.dynaco is None
        ):
            done.succeed(0)
            return done
        self.env.relay(partial(self._shrink_start, requested, mandatory, done), URGENT)
        return done

    def _shrink_start(self, requested, mandatory, done, _relay) -> None:
        self._reconfiguring = True
        current = self.application.allocation
        event = self.monitor.on_shrink_message(self.env.now, requested, current, mandatory)
        when_processed(self.dynaco.adapt(event, current), partial(self._shrunk, done))

    def _shrunk(self, done, adaptation) -> None:
        released = max(0, -adaptation.value.accepted_change)
        if released > 0:
            # Execution has already resumed inside the application; only
            # now are the GRAM jobs released (the paper's ordering).
            self._release_gram_jobs(self.gram_jobs[-released:])
            self.shrink_operations += 1
        done.succeed(released)
        self._reconfiguring = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        allocation = self.current_allocation
        return (
            f"<MalleableRunner {self.job.name!r} on {self.cluster_name!r} "
            f"allocation={allocation} reconfiguring={self._reconfiguring}>"
        )
