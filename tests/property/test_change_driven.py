"""The change-driven loop is exact: ``run(k)`` == k ``step()`` calls.

A 1-local pairwise rule at c = 1 (Odd-Even, Downhill, Downhill-or-Flat,
FIE, the modular rules) decides each buffer from its own height and its
successor's, so the kernel's
:meth:`~repro.network.dag_engine._DagEngineCore._run_changes` re-decides
only the buffers next to a change and moves only the buffers whose
inflow differs from their send.  These properties pin it to the
unchanged per-step :meth:`step` of the same engine class — heights,
``step_index``, ``result()``, per-node maxima and the loss ledger — on
paths and random in-trees, both decision timings, scheduled adversaries
(far-end, seesaw, round-robin, seeded uniform, a periodic script) and
live ones (pressure on paths, max-chaser, backfill).  The hand-off
limit is drawn too, so runs move to the dense loop mid-run; horizons
are split across several ``run()`` calls and run long enough to skip
laps.  Two engagement pins show the loop is taken where it pays and
left where it does not.
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
    PressureAdversary,
    RoundRobinAdversary,
    ScheduleAdversary,
    SeesawAdversary,
    UniformRandomAdversary,
)
from repro.network import dag_engine
from repro.network.engine_fast import PathEngine
from repro.network.topology import from_parent_array
from repro.network.tree_engine import TreeEngine
from repro.policies import (
    DownhillOrFlatPolicy,
    DownhillPolicy,
    ForwardIfEmptyPolicy,
    OddEvenPolicy,
)
from repro.policies.modular import ModularPolicy

POLICIES = {
    "odd-even": OddEvenPolicy,
    "downhill": DownhillPolicy,
    "downhill-or-flat": DownhillOrFlatPolicy,
    "fie": ForwardIfEmptyPolicy,
    "modular-3": lambda: ModularPolicy(3, permissive_residues=(1, 2)),
}


def _periodic_script(n: int, seed: int) -> ScheduleAdversary:
    """A short pattern (empty steps included) repeated past any horizon
    here; sites avoid node 0 (a tree's sink) and node n - 1 (a path's)."""
    rng = np.random.default_rng(seed)
    pattern = [
        () if rng.random() < 0.3 else (int(rng.integers(1, n - 1)),)
        for _ in range(int(rng.integers(1, 6)))
    ]
    return ScheduleAdversary(
        {t: pattern[t % len(pattern)] for t in range(2000)}
    )


#: adversary family -> factory(n, seed)
FAMILIES = {
    "far-end": lambda n, seed: FarEndAdversary(),
    "seesaw": lambda n, seed: SeesawAdversary(fill=seed % (2 * n)),
    "round-robin": lambda n, seed: RoundRobinAdversary(),
    "uniform": lambda n, seed: UniformRandomAdversary(
        p=(0.2, 1.0)[seed % 2], seed=seed
    ),
    "scripted": _periodic_script,
    "pressure": lambda n, seed: PressureAdversary(),
    "max-chaser": lambda n, seed: MaxHeightChaserAdversary(),
    "backfill": lambda n, seed: BackfillAdversary(),
}


def _state(engine) -> tuple:
    """Everything the change-driven loop must reproduce."""
    return (
        engine.heights.tolist(),
        engine.step_index,
        engine.result(),
        engine.metrics.ledger.detail(),
        engine.metrics.tracker.per_node_max.tolist(),
    )


def _spy():
    """Record the steps each change-driven loop call did."""
    done: list[int] = []
    real = dag_engine._DagEngineCore._run_changes

    def run_changes(self, *args, **kwargs):
        done.append(real(self, *args, **kwargs))
        return done[-1]

    return mock.patch.object(
        dag_engine._DagEngineCore, "_run_changes", run_changes
    ), done


@st.composite
def local_run(draw):
    """``(make_engine, chunks, limit)``: a factory for two identical
    engines, the ``run()`` lengths to split the horizon into, and the
    hand-off limit of the batched one."""
    timing = draw(st.sampled_from(["pre_injection", "post_injection"]))
    policy = POLICIES[draw(st.sampled_from(sorted(POLICIES)))]
    seed = draw(st.integers(0, 2**16))
    kw = {"decision_timing": timing}
    if draw(st.booleans()):
        n = draw(st.integers(3, 24))
        family = draw(st.sampled_from(sorted(FAMILIES)))

        def make():
            return PathEngine(n, policy(), FAMILIES[family](n, seed), **kw)
    else:
        n = draw(st.integers(3, 18))
        parents = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
        topo = from_parent_array(parents)
        family = draw(st.sampled_from(
            sorted(f for f in FAMILIES if f != "pressure")
        ))

        def make():
            return TreeEngine(
                topo, policy(), FAMILIES[family](n, seed), **kw
            )
    chunks = draw(st.lists(st.integers(0, 300), min_size=1, max_size=4))
    limit = draw(st.sampled_from([0, 1, 2, 4, 8, 16, 10**6]))
    return make, chunks, limit


@given(local_run())
@settings(max_examples=200, deadline=None)
def test_run_equals_stepping(case):
    make, chunks, limit = case
    batched, stepped = make(), make()
    batched._CHANGE_LIMIT = limit
    patch, done = _spy()
    with patch:
        for k in chunks:
            batched.run(k)
            for _ in range(k):
                stepped.step()
            assert _state(batched) == _state(stepped)
    if any(chunks):
        assert done  # the loop is taken (it may hand off at once)


@pytest.mark.parametrize("timing", ["pre_injection", "post_injection"])
@pytest.mark.parametrize("family", ["far-end", "pressure", "max-chaser"])
def test_long_runs_skip_laps_inside_the_loop(timing, family):
    n, steps = 40, 3000
    make = lambda: PathEngine(  # noqa: E731
        n, OddEvenPolicy(), FAMILIES[family](n, 0), decision_timing=timing
    )
    batched, stepped = make(), make()
    patch, done = _spy()
    skips: list[int] = []
    real_repeat = dag_engine._Lap.repeat

    def repeat(self, step, length):
        skips.append(length)
        return real_repeat(self, step, length)

    with patch, mock.patch.object(dag_engine._Lap, "repeat", repeat):
        batched.run(steps)
    for _ in range(steps):
        stepped.step()
    assert _state(batched) == _state(stepped)
    assert done == [steps] and skips


class _CountingOddEven(OddEvenPolicy):
    """Odd-Even that counts its scalar and array decisions (the counts
    do not steer it)."""

    def __init__(self) -> None:
        self.scalar = self.arrays = 0

    def forwards(self, h_v, h_succ):
        if np.ndim(h_v):
            self.arrays += 1
        else:
            self.scalar += 1
        return super().forwards(h_v, h_succ)


@pytest.mark.parametrize("timing", ["pre_injection", "post_injection"])
def test_far_end_decides_o1_buffers_per_step(timing):
    n, steps = 1024, 3000
    policy = _CountingOddEven()
    engine = PathEngine(n, policy, FarEndAdversary(), decision_timing=timing)
    engine.run(steps)
    stepped = PathEngine(
        n, OddEvenPolicy(), FarEndAdversary(), decision_timing=timing
    )
    for _ in range(steps):
        stepped.step()
    assert engine.result() == stepped.result()
    assert policy.arrays == 1  # the standing decisions, taken once
    assert policy.scalar <= 3 * steps


def test_uniform_on_a_long_path_hands_off_early():
    n, steps = 1024, 2000
    engine = PathEngine(n, OddEvenPolicy(), UniformRandomAdversary(seed=5))
    patch, done = _spy()
    with patch:
        engine.run(steps)
    stepped = PathEngine(n, OddEvenPolicy(), UniformRandomAdversary(seed=5))
    for _ in range(steps):
        stepped.step()
    assert _state(engine) == _state(stepped)
    assert len(done) == 1 and done[0] < 64


def test_series_keeps_the_dense_loop():
    # finite buffers take the loop too (tests/property/
    # test_finite_fast_loops.py); a sampled series does not
    patch, done = _spy()
    with patch:
        PathEngine(
            64, OddEvenPolicy(), FarEndAdversary(), series_every=5
        ).run(100)
    assert done == []


def test_a_record_tie_goes_to_the_first_node():
    # nodes 1 and 3 reach the new record 2 in the same step (FIE on a
    # tree, deciding after injection): the first argmax is node 1
    topo = from_parent_array([-1, 0, 1, 2, 3, 1, 4, 5])
    script = {0: (3,), 1: (7,), 2: (1,), 3: (6,), 4: (5,), 5: (3,), 6: (3,)}

    def make():
        return TreeEngine(
            topo, ForwardIfEmptyPolicy(), ScheduleAdversary(script),
            decision_timing="post_injection",
        )

    batched, stepped = make(), make()
    batched.run(7)
    for _ in range(7):
        stepped.step()
    assert _state(batched) == _state(stepped)
    assert batched.result().argmax_node == 1
