"""Property: pickle a run at any instant, load it, and it ends as the run does.

Drawn over the swept configurations (malleable, background-loaded, EASY,
jittered and fault-injected ones included) and over instants: a fraction of
the submission horizon, optionally the exact time of the next pending event
(the clock on an event's instant with that event still pending), then a few
single events, so the pickle may split an instant.  The loaded run must end
with the straight run's full metrics digest and kernel event count.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint import SimulationRun, load_checkpoint, save_checkpoint

from _checkpoint_runs import configurations, digest, fire_one

CONFIGURATIONS = configurations(12)
FAULTED = [index for index, (_id, config) in enumerate(CONFIGURATIONS) if config.fault_model]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.one_of(
        st.integers(min_value=0, max_value=len(CONFIGURATIONS) - 1), st.sampled_from(FAULTED)
    ),
    fraction=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
    on_event=st.booleans(),
    events=st.integers(min_value=0, max_value=40),
)
def test_a_pickled_run_resumes_exactly(tmp_path_factory, index, fraction, on_event, events):
    _id, config = CONFIGURATIONS[index]
    run = SimulationRun.fresh(config)
    env = run.env
    env.run(until=fraction * run.workload.duration)
    if on_event:
        env.run(until=env.peek())
    for _ in range(events):
        fire_one(env)
    path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
    save_checkpoint(run, path)
    run.run_to_completion()

    resumed = load_checkpoint(path)
    resumed.run_to_completion()
    assert resumed.env.now == run.env.now
    assert resumed.env.processed_events == run.env.processed_events
    assert digest(resumed) == digest(run)
