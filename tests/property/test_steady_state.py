"""The steady-state fast-forward is exact: ``run(k)`` == k ``step()`` calls.

The kernel's batched :meth:`~repro.network.dag_engine._DagEngineCore.run`
skips whole laps of a configuration it has already visited when the
policy keeps no state and the injections repeat (a periodic schedule,
or a ``heights_only`` adversary).  These properties pin it to the
unchanged per-step :meth:`step` of the same engine class — heights,
``step_index``, ``result()``, the loss ledger's per-node per-cause
detail and the policy's state — on paths, in-trees and layered DAGs,
under every service adversary and a periodic script, both decision
timings, unbounded and finite buffers under all three disciplines, and
fault plans driven through :func:`run_with_recovery`.  Horizons run many
laps past the first repeat, split across several ``run()`` calls.

Round-robin tie rotation keeps state between steps, so a
``TreeOddEvenPolicy(tie_rule="round_robin")`` run must match and must
never skip.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversaries import (
    BackfillAdversary,
    FarEndAdversary,
    MaxHeightChaserAdversary,
    PreSinkAdversary,
    PressureAdversary,
    RoundRobinAdversary,
    ScheduleAdversary,
    SeesawAdversary,
    UniformRandomAdversary,
)
from repro.adversaries.base import Adversary
from repro.errors import FaultError, RateViolation
from repro.network import dag_engine
from repro.network.buffers import Overflow
from repro.network.dag import layered_dag
from repro.network.dag_engine import DagEngine
from repro.network.engine_fast import PathEngine
from repro.network.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    run_with_recovery,
)
from repro.network.topology import from_parent_array, path
from repro.network.tree_engine import TreeEngine
from repro.policies import (
    DownhillPolicy,
    GreedyPolicy,
    OddEvenPolicy,
    TreeOddEvenPolicy,
)
from repro.policies.dag import DagGreedyPolicy, DagOddEvenPolicy

TIMINGS = st.sampled_from(["pre_injection", "post_injection"])

#: adversary family -> factory(n, seed); which families a topology kind
#: runs is listed per kind below
FAMILIES = {
    "far-end": lambda n, seed: FarEndAdversary(),
    "pre-sink": lambda n, seed: PreSinkAdversary(),
    "round-robin": lambda n, seed: RoundRobinAdversary(),
    "seesaw": lambda n, seed: SeesawAdversary(fill=seed % (2 * n)),
    "scripted": lambda n, seed: _periodic_script(n, seed),
    "max-chaser": lambda n, seed: MaxHeightChaserAdversary(),
    "pressure": lambda n, seed: PressureAdversary(),
    "backfill": lambda n, seed: BackfillAdversary(),
    "uniform": lambda n, seed: UniformRandomAdversary(
        p=(0.5, 1.0)[seed % 2], seed=seed
    ),
}
PATH_FAMILIES = tuple(FAMILIES)
TREE_FAMILIES = tuple(f for f in FAMILIES if f != "pressure")
DAG_FAMILIES = ("far-end", "round-robin", "scripted", "max-chaser", "uniform")


def _periodic_script(n: int, seed: int) -> ScheduleAdversary:
    """A script that repeats a short pattern (empty steps included) for
    far longer than any run here; the sink is node ``n - 1`` on a path
    and node 0 elsewhere, so sites avoid both where they can."""
    rng = np.random.default_rng(seed)
    pattern = [
        () if rng.random() < 0.3 else (int(rng.integers(1, max(n - 1, 2))),)
        for _ in range(int(rng.integers(1, 6)))
    ]
    return ScheduleAdversary(
        {t: pattern[t % len(pattern)] for t in range(4000)}
    )


@st.composite
def kernel_run(draw, with_buffers: bool = True):
    """``(make_engine, chunks)``: a factory for two identical engines
    and the ``run()`` lengths to split the horizon into."""
    kind = draw(st.sampled_from(["path", "tree", "dag"]))
    timing = draw(TIMINGS)
    seed = draw(st.integers(0, 2**16))
    kw: dict = {"decision_timing": timing}
    if with_buffers and draw(st.booleans()):
        kw["buffer_capacity"] = draw(st.integers(1, 4))
        kw["overflow"] = draw(st.sampled_from(list(Overflow)))
    if kind == "path":
        n = draw(st.integers(3, 16))
        family = draw(st.sampled_from(PATH_FAMILIES))
        policy = draw(st.sampled_from(
            [OddEvenPolicy, DownhillPolicy, GreedyPolicy]
        ))

        def make():
            return PathEngine(n, policy(), FAMILIES[family](n, seed), **kw)
    elif kind == "tree":
        n = draw(st.integers(3, 14))
        parents = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
        topo = from_parent_array(parents)
        family = draw(st.sampled_from(TREE_FAMILIES))
        tie = draw(st.sampled_from(["min_id", "max_id", "round_robin"]))

        def make():
            return TreeEngine(
                topo, TreeOddEvenPolicy(tie), FAMILIES[family](n, seed), **kw
            )
    else:
        layers, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        dag = layered_dag(layers, width, out_degree=2, seed=seed)
        family = draw(st.sampled_from(DAG_FAMILIES))
        policy = draw(st.sampled_from([DagOddEvenPolicy, DagGreedyPolicy]))

        def make():
            return DagEngine(
                dag, policy(), FAMILIES[family](dag.n, seed), **kw
            )
    chunks = draw(st.lists(st.integers(0, 150), min_size=1, max_size=4))
    return make, chunks


def _state(engine) -> tuple:
    """Everything a fast-forward must reproduce."""
    return (
        engine.heights.tolist(),
        engine.step_index,
        engine.result(),
        engine.metrics.ledger.detail(),
        engine.metrics.tracker.per_node_max.tolist(),
        {k: v for k, v in vars(engine.policy).items()},
    )


def _skips():
    """Record every lap skip: ``(patch, calls)``."""
    calls: list[int] = []
    real = dag_engine._Lap.repeat

    def repeat(self, step, length):
        calls.append(length)
        return real(self, step, length)

    return mock.patch.object(dag_engine._Lap, "repeat", repeat), calls


@given(kernel_run())
@settings(max_examples=150, deadline=None)
def test_run_equals_stepping(case):
    make, chunks = case
    batched, stepped = make(), make()
    patch, skipped = _skips()
    with patch:
        for k in chunks:
            batched.run(k)
            for _ in range(k):
                stepped.step()
            assert _state(batched) == _state(stepped)
    if getattr(batched.policy, "tie_rule", None) == "round_robin":
        assert not skipped  # rotation is state: never fast-forwarded


def _halting_plan(n: int, steps: int, data) -> FaultPlan:
    """Link outages, crashes with wipe, jitter and halts."""
    events = data.draw(st.lists(
        st.builds(
            FaultEvent,
            kind=st.sampled_from(list(FaultKind)),
            start=st.integers(0, max(steps - 1, 0)),
            node=st.integers(1, n - 2),
            duration=st.integers(1, 6),
            wipe=st.booleans(),
            delay=st.integers(1, 3),
        ),
        max_size=5,
    ))
    return FaultPlan(events=tuple(events))


def _stepped_recovery(engine, steps: int, snapshot_every: int) -> int:
    """:func:`run_with_recovery` as it was: one :meth:`step` at a time."""
    target = engine.step_index + steps
    snap = engine.snapshot()
    recoveries = 0
    while engine.step_index < target:
        try:
            while engine.step_index < target:
                engine.step()
                if engine.step_index % snapshot_every == 0:
                    snap = engine.snapshot()
        except FaultError:
            recoveries += 1
            engine.restore(snap)
    return recoveries


@given(
    st.sampled_from(["path", "tree"]),
    st.integers(4, 14),
    st.sampled_from(TREE_FAMILIES),
    TIMINGS,
    st.sampled_from([None, 2, 3]),
    st.sampled_from(list(Overflow)),
    st.integers(1, 300),
    st.integers(1, 40),
    st.integers(0, 2**16),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_faulted_run_with_recovery_equals_stepping(
    kind, n, family, timing, cap, overflow, steps, every, seed, data
):
    """Quiet stretches run batched between the faults' active steps, and
    ``run_with_recovery`` advances by ``run()`` between snapshots."""
    plan = _halting_plan(n, steps, data)
    if kind == "path":
        topo = path(n)
        policy = OddEvenPolicy
    else:
        topo = from_parent_array(
            [-1] + [data.draw(st.integers(0, v - 1)) for v in range(1, n)]
        )
        policy = TreeOddEvenPolicy

    def make():
        return TreeEngine(
            topo, policy(), FAMILIES[family](n, seed),
            decision_timing=timing, buffer_capacity=cap, overflow=overflow,
            faults=plan,
        )

    batched, stepped = make(), make()
    got = run_with_recovery(batched, steps, snapshot_every=every)
    want = _stepped_recovery(stepped, steps, every)
    assert got == want
    assert _state(batched) == _state(stepped)


# ---------------------------------------------------------------------
# engagement


class _Counting(OddEvenPolicy):
    """Odd-Even that counts its decisions (still stateless: the count
    does not steer it)."""

    def __init__(self) -> None:
        self.decisions = 0

    def send_counts(self, heights, topology, capacity):
        self.decisions += 1
        return super().send_counts(heights, topology, capacity)


@pytest.mark.parametrize("timing", ["pre_injection", "post_injection"])
def test_far_end_decides_about_n_times(timing):
    n = 1024
    policy = _Counting()
    engine = PathEngine(n, policy, FarEndAdversary(), decision_timing=timing)
    engine.run(16 * n)
    stepped = PathEngine(n, OddEvenPolicy(), FarEndAdversary(),
                         decision_timing=timing)
    for _ in range(16 * n):
        stepped.step()
    assert engine.result() == stepped.result()
    assert policy.decisions <= n + 2 * dag_engine._LAP_STRIDE


def test_seeded_uniform_is_never_shortened():
    policy = _Counting()
    engine = PathEngine(256, policy, UniformRandomAdversary(seed=3))
    engine.run(4000)
    assert policy.decisions == 4000


class _Quota(Adversary):
    """Far-end traffic, asked step by step (no schedule), that breaks
    the rate limit at step k."""

    def __init__(self, k: int) -> None:
        self.k = k

    def inject(self, step, heights, topology):
        return (0, 0) if step == self.k else (0,)


@pytest.mark.parametrize("cap", [None, 2])
def test_live_rate_violation_leaves_stepped_state(cap):
    k = 700
    batched = PathEngine(64, OddEvenPolicy(), _Quota(k), buffer_capacity=cap)
    stepped = PathEngine(64, OddEvenPolicy(), _Quota(k), buffer_capacity=cap)
    with pytest.raises(RateViolation):
        batched.run(1000)
    for _ in range(k):
        stepped.step()
    with pytest.raises(RateViolation):
        stepped.step()
    assert _state(batched) == _state(stepped)
    assert batched.result().injected == k
