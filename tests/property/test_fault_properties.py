"""Property-based tests for the robustness layer.

Hypothesis generates random fault plans, finite capacities and traffic
schedules and asserts the two load-bearing properties of the design:

* **resume fidelity** — snapshotting an engine mid-run and replaying
  the remainder on a fresh engine reproduces the uninterrupted
  trajectory exactly, on both engines, faults and all;
* **ledger balance** — the extended conservation law
  ``injected == delivered + in_flight + dropped`` holds after *every*
  step, not just at the end, for any fault plan and overflow
  discipline;
* **a clean halt** — a halt changes nothing at its step, so a run may
  resume where it struck.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversaries import ScheduleAdversary
from repro.errors import FaultError
from repro.network.engine_fast import PathEngine
from repro.network.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RandomFaults,
)
from repro.network.simulator import Simulator
from repro.network.topology import path
from repro.policies import GreedyPolicy, OddEvenPolicy

POLICIES = st.sampled_from([OddEvenPolicy, GreedyPolicy])
OVERFLOWS = st.sampled_from(["drop-tail", "drop-oldest", "push-back"])


def schedule_strategy(n_nodes: int, steps: int):
    return st.lists(
        st.one_of(st.none(), st.integers(0, n_nodes - 2)),
        min_size=steps,
        max_size=steps,
    )


@st.composite
def fault_plan(draw, n: int, steps: int):
    """A random survivable fault plan (no halts — those are exercised
    by the dedicated recovery tests)."""
    events = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            [FaultKind.LINK_DOWN, FaultKind.CRASH, FaultKind.JITTER]
        ))
        start = draw(st.integers(0, max(0, steps - 1)))
        if kind is FaultKind.JITTER:
            events.append(FaultEvent(
                kind=kind, start=start,
                duration=draw(st.integers(1, 5)),
                delay=draw(st.integers(1, 3)),
            ))
        else:
            events.append(FaultEvent(
                kind=kind, start=start,
                node=draw(st.integers(0, n - 2)),
                duration=draw(st.integers(1, 5)),
                wipe=draw(st.booleans()),
            ))
    random = None
    if draw(st.booleans()):
        random = RandomFaults(
            p_link_down=draw(st.floats(0.0, 0.2)),
            p_crash=draw(st.floats(0.0, 0.1)),
            duration=draw(st.integers(1, 3)),
            wipe=draw(st.booleans()),
        )
    return FaultPlan(
        events=tuple(events), random=random, seed=draw(st.integers(0, 999))
    )


@st.composite
def degraded_run(draw):
    n = draw(st.integers(4, 16))
    steps = draw(st.integers(2, 50))
    sched = draw(schedule_strategy(n, steps))
    plan = draw(fault_plan(n, steps))
    cap = draw(st.one_of(st.none(), st.integers(1, 6)))
    overflow = draw(OVERFLOWS)
    policy_cls = draw(POLICIES)
    return n, steps, sched, plan, cap, overflow, policy_cls


def as_adversary(sched):
    return ScheduleAdversary(
        {i: (s,) for i, s in enumerate(sched) if s is not None}
    )


def build(engine_cls, n, sched, plan, cap, overflow, policy_cls):
    if engine_cls is Simulator:
        return Simulator(
            path(n), policy_cls(), as_adversary(sched),
            buffer_capacity=cap, overflow=overflow, faults=plan,
            validate=False,
        )
    return PathEngine(
        n, policy_cls(), as_adversary(sched),
        buffer_capacity=cap, overflow=overflow, faults=plan,
    )


@given(degraded_run(), st.data())
@settings(max_examples=50, deadline=None)
def test_snapshot_resume_matches_uninterrupted(run, data):
    """Killing a run at a random step and resuming from the snapshot
    must finish in exactly the state of the uninterrupted run — on both
    engines."""
    n, steps, sched, plan, cap, overflow, policy_cls = run
    cut = data.draw(st.integers(0, steps), label="cut")
    for engine_cls in (Simulator, PathEngine):
        smooth = build(engine_cls, n, sched, plan, cap, overflow, policy_cls)
        for _ in range(steps):
            smooth.step()

        first = build(engine_cls, n, sched, plan, cap, overflow, policy_cls)
        for _ in range(cut):
            first.step()
        snap = first.snapshot()

        resumed = build(engine_cls, n, sched, plan, cap, overflow,
                        policy_cls)
        resumed.restore(snap)
        for _ in range(steps - cut):
            resumed.step()

        assert np.array_equal(
            np.asarray(resumed.heights), np.asarray(smooth.heights)
        )
        assert resumed.metrics.delivered == smooth.metrics.delivered
        assert resumed.metrics.injected == smooth.metrics.injected
        assert (resumed.metrics.ledger.detail()
                == smooth.metrics.ledger.detail())


@given(degraded_run())
@settings(max_examples=50, deadline=None)
def test_ledger_balances_after_every_step(run):
    """injected == delivered + in_flight + dropped at every step, and
    the two engines agree on all four terms throughout."""
    n, steps, sched, plan, cap, overflow, policy_cls = run
    sim = build(Simulator, n, sched, plan, cap, overflow, policy_cls)
    eng = build(PathEngine, n, sched, plan, cap, overflow, policy_cls)
    for _ in range(steps):
        sim.step()
        eng.step()
        for e in (sim, eng):
            m = e.metrics
            in_flight = int(np.asarray(e.heights).sum())
            assert m.ledger.balanced(m.injected, m.delivered, in_flight), (
                e.step_index, m.injected, m.delivered, in_flight,
                m.ledger.detail(),
            )
        assert np.array_equal(np.asarray(sim.heights), eng.heights)
        assert sim.metrics.ledger.detail() == eng.metrics.ledger.detail()


@given(degraded_run(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_halt_changes_nothing_at_its_step(run, data):
    """An unfired halt raises before its step touches the injector:
    ``snapshot()`` is unchanged although a crash (wiping or not), a link
    outage, a jitter window, a deferred release and a background draw
    all share the halt's step, and outages end there.  The retried step
    then answers what a halt-free twin answers."""
    n, steps, _sched, plan, _cap, _overflow, _policy = run
    t = data.draw(st.integers(0, steps - 1), label="halt step")
    node = st.integers(0, n - 2)
    shared = (
        FaultEvent(kind=FaultKind.CRASH, start=t, node=data.draw(node),
                   duration=data.draw(st.integers(1, 3)),
                   wipe=data.draw(st.booleans())),
        FaultEvent(kind=FaultKind.LINK_DOWN, start=t, node=data.draw(node)),
        FaultEvent(kind=FaultKind.JITTER, start=t, delay=2),
    )
    background = RandomFaults(
        p_link_down=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        p_crash=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        wipe=True,
    )
    # the halt comes last, after every event it shares its step with
    events = plan.events + shared
    halted = FaultInjector(FaultPlan(
        events + (FaultEvent(kind=FaultKind.HALT, start=t),),
        random=background, seed=plan.seed,
    ), path(n))
    twin = FaultInjector(
        FaultPlan(events, random=background, seed=plan.seed), path(n)
    )
    for inj in (halted, twin):
        for s in range(t):
            inj.begin_step(s)
        inj.defer_injections(max(0, t - 1), (0, n - 2), t - max(0, t - 1))
    before = halted.snapshot()
    with pytest.raises(FaultError, match=f"halt killed the run at step {t}"):
        halted.begin_step(t)
    assert halted.snapshot() == before
    assert halted.begin_step(t) == twin.begin_step(t)
    assert halted.snapshot() == twin.snapshot()
