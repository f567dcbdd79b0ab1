"""Unit tests of the DYNACO control loop: observe, plan, execute, framework."""

from __future__ import annotations

import pytest

from repro.apps import NoReconfigurationCost, RunningApplication, gadget2_profile, ft_profile
from repro.dynaco import (
    AfpacExecutor,
    CallbackMonitor,
    Dynaco,
    GrowOffer,
    MalleabilityDecision,
    MalleabilityPlanner,
    SchedulerFrontendMonitor,
    ShrinkRequest,
    Strategy,
)
from repro.sim import Environment


def at(env, time, action):
    """Run *action* in a NORMAL event at *time*."""
    env.timeout(time - env.now).callbacks.append(lambda _event: action())


# ---------------------------------------------------------------------------
# Observe
# ---------------------------------------------------------------------------


def test_frontend_monitor_publishes_grow_and_shrink_events():
    monitor = SchedulerFrontendMonitor("frontend")
    received = []
    monitor.subscribe(received.append)
    grow = monitor.on_grow_message(10.0, offered=5, current_allocation=2)
    shrink = monitor.on_shrink_message(20.0, requested=3, current_allocation=7, mandatory=True)
    assert received == [grow, shrink]
    assert monitor.history == [grow, shrink]
    assert isinstance(grow, GrowOffer) and grow.offered == 5
    assert isinstance(shrink, ShrinkRequest) and shrink.mandatory
    assert monitor.name == "frontend"


def test_callback_monitor_emits_custom_events():
    monitor = CallbackMonitor("app-monitor")
    received = []
    monitor.subscribe(received.append)
    event = GrowOffer(time=1.0, offered=4, current_allocation=2, source="application")
    monitor.emit(event)
    assert received == [event]


def test_event_validation():
    with pytest.raises(ValueError):
        GrowOffer(time=0.0, offered=-1, current_allocation=2)
    with pytest.raises(ValueError):
        ShrinkRequest(time=0.0, requested=-1, current_allocation=2)


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------


def test_planner_produces_grow_recipe():
    planner = MalleabilityPlanner()
    plan = planner.plan(4, Strategy(target_allocation=10))
    kinds = [action.kind for action in plan]
    assert kinds == ["recruit-processors", "wait-adaptation-point", "redistribute-data"]
    assert plan.actions[0].parameter("count") == 6
    assert plan.actions[2].parameter("to") == 10
    assert not plan.empty and len(plan) == 3


def test_planner_produces_shrink_recipe():
    planner = MalleabilityPlanner()
    plan = planner.plan(10, Strategy(target_allocation=4))
    kinds = [action.kind for action in plan]
    assert kinds == ["wait-adaptation-point", "redistribute-data", "release-processors"]
    assert plan.actions[2].parameter("count") == 6
    assert plan.actions[0].parameter("missing", default="x") == "x"


def test_planner_empty_plan_when_nothing_changes():
    plan = MalleabilityPlanner().plan(8, Strategy(target_allocation=8))
    assert plan.empty and len(plan) == 0


# ---------------------------------------------------------------------------
# Execute + framework
# ---------------------------------------------------------------------------


def build_loop(env, profile=None, initial=2):
    profile = profile or gadget2_profile().with_reconfiguration(NoReconfigurationCost())
    app = RunningApplication(env, profile, initial, adaptation_point_interval=0.0).start()
    monitor = SchedulerFrontendMonitor()
    dynaco = Dynaco(
        env,
        decision=MalleabilityDecision(2, profile.default_maximum, profile.constraint),
        planner=MalleabilityPlanner(),
        executor=AfpacExecutor(env, app),
        monitor=monitor,
    )
    return app, monitor, dynaco


def test_adapt_executes_grow_and_reports_result():
    env = Environment()
    app, monitor, dynaco = build_loop(env)
    results = []

    def grow():
        event = monitor.on_grow_message(env.now, offered=6, current_allocation=app.allocation)
        dynaco.adapt(event, app.allocation).callbacks.append(
            lambda completion: results.append(completion.value)
        )

    at(env, 10, grow)
    env.run(app.completed)
    [result] = results
    assert result.accepted_change == 6
    assert result.new_allocation == 8
    assert not result.declined
    assert app.record.grow_count == 1
    assert dynaco.executed_adaptations == 1


def test_adapt_is_idempotent_per_event():
    env = Environment()
    app, monitor, dynaco = build_loop(env)
    completions = []

    def grow():
        event = monitor.on_grow_message(env.now, offered=4, current_allocation=app.allocation)
        completions.append(dynaco.adapt(event, app.allocation))
        completions.append(dynaco.adapt(event, app.allocation))

    at(env, 5, grow)
    env.run(app.completed)
    first, second = completions
    assert first is second
    # The monitor subscription plus two explicit calls still execute only one
    # adaptation.
    assert app.record.grow_count == 1


def test_declined_adaptation_completes_immediately():
    env = Environment()
    app, monitor, dynaco = build_loop(env)
    event = GrowOffer(time=0.0, offered=0, current_allocation=app.allocation)
    completion = dynaco.adapt(event, app.allocation)
    assert completion.triggered
    assert completion.value.declined
    env.run(app.completed)
    assert app.record.grow_count == 0


def test_preview_has_no_side_effects():
    env = Environment()
    app, monitor, dynaco = build_loop(env, profile=ft_profile().with_reconfiguration(NoReconfigurationCost()))
    strategy = dynaco.preview(GrowOffer(time=0.0, offered=13, current_allocation=2), 2)
    assert strategy.target_allocation == 8
    env.run(app.completed)
    assert app.record.grow_count == 0
    assert dynaco.history == []


def test_monitor_driven_adaptation_without_explicit_adapt_call():
    env = Environment()
    app, monitor, dynaco = build_loop(env)
    at(env, 10, lambda: monitor.on_grow_message(
        env.now, offered=8, current_allocation=app.allocation
    ))
    env.run(app.completed)
    # The subscription alone executed the adaptation.
    assert app.record.grow_count == 1
    assert app.record.maximum_allocation == 10
