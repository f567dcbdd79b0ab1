"""Write your own scheduling policy in ~30 lines.

One ``@register`` decorator plugs a policy into every surface of the system:
``ExperimentConfig``/``SchedulerConfig`` fields, scenario sweeps, the result
cache and ``repro-cli`` (run this file's directory with
``repro-cli --policy-module examples/custom_policy.py list policies``).

Run directly::

    PYTHONPATH=src python examples/custom_policy.py
"""

from repro.koala.placement import PlacementDecision, PlacementPolicy
from repro.policies import register


# -- the policy: ~30 lines ---------------------------------------------------
@register("placement", "BESTFIT")
class BestFit(PlacementPolicy):
    """Place each component on the *fullest* cluster that still fits it.

    The opposite of the paper's Worst-Fit: instead of balancing load, it
    packs jobs tightly, keeping whole clusters free for large arrivals.
    ``headroom`` processors are kept free on every cluster.
    """

    name = "BESTFIT"

    def __init__(self, headroom: int = 0) -> None:
        if headroom < 0:
            raise ValueError("headroom must be non-negative")
        self.headroom = int(headroom)

    def place(self, job, idle_processors, multicluster):
        remaining = dict(idle_processors)
        decision = PlacementDecision(job=job)
        for index, component in self._component_requests(job):
            fits = [
                (idle, name)
                for name, idle in remaining.items()
                if idle - self.headroom >= component.processors
            ]
            if not fits:
                return PlacementDecision.failure(
                    job, f"no cluster fits component {index}"
                )
            fits.sort(key=lambda pair: (pair[0], pair[1]))  # fullest first
            _, chosen = fits[0]
            decision.placements[index] = (chosen, component.processors)
            remaining[chosen] -= component.processors
        return decision


# -- using it ----------------------------------------------------------------
def main() -> None:
    from repro.experiments.setup import ExperimentConfig, run_experiment

    # The registered name works everywhere, parameterised or not; unknown
    # names or parameters would fail right here, listing what is registered.
    config = ExperimentConfig(
        name="custom-policy-demo",
        workload="Wm",
        job_count=12,
        placement_policy="BESTFIT?headroom=2",
        malleability_policy="EGS",
        approach="PRA",
        seed=0,
    )
    result = run_experiment(config)
    print(f"placement={config.placement_policy}  jobs={result.metrics.job_count}")
    mean_response = sum(j.response_time for j in result.metrics.jobs) / max(
        1, len(result.metrics.jobs)
    )
    print(f"mean response time: {mean_response:.1f}s  all done: {result.all_done}")


if __name__ == "__main__":
    main()
