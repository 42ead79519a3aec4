"""Unit coverage for the cross-run FleetEngine.

The statistical contract (bit-parity with per-run engines across
overflow × faults × adversaries) lives in
``tests/property/test_fleet_parity.py``; this module pins the API
surface: construction validation, per-run broadcasting, lane
classification, checkpoint/snapshot round trips, the ``run_fleet``
result shape, and the fleet-backed ``worst_case_over_suite``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.adversaries import (
    FarEndAdversary,
    FixedNodeAdversary,
    MaxHeightChaserAdversary,
    ScheduleAdversary,
    SeesawAdversary,
    UniformRandomAdversary,
)
from repro.analysis.occupancy import measure_path, worst_case_over_suite
from repro.errors import CheckpointError, SimulationError
from repro.network.engine_fast import PathEngine
from repro.network.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    run_with_recovery,
)
from repro.network.fleet_engine import FleetEngine
from repro.network.simulator import RunResult
from repro.network.topology import balanced_tree, path, spider
from repro.network.tree_engine import TreeEngine
from repro.policies import GreedyPolicy, OddEvenPolicy, TreeOddEvenPolicy

_FIELDS = [
    f.name for f in dataclasses.fields(RunResult)
    if f.name != "delay_summary"
]


def suite(n):
    return [
        FarEndAdversary(),
        FixedNodeAdversary(0),
        ScheduleAdversary({0: (1,), 2: (n - 2,)}),
    ]


# ------------------------------------------------------------------
# construction and validation


def test_int_topology_is_canonical_path():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8))
    assert fleet.n == 8
    assert fleet.sink == 7
    assert fleet.runs == 3
    assert fleet.heights.shape == (3, 8)


def test_empty_fleet_rejected():
    with pytest.raises(SimulationError):
        FleetEngine(8, OddEvenPolicy(), [])


def test_unknown_decision_timing_rejected():
    with pytest.raises(SimulationError):
        FleetEngine(8, OddEvenPolicy(), suite(8), decision_timing="mid")


def test_per_run_sequence_length_must_match_runs():
    with pytest.raises(SimulationError, match="injection_limit"):
        FleetEngine(8, OddEvenPolicy(), suite(8), injection_limit=[1, 2])
    with pytest.raises(SimulationError, match="faults"):
        FleetEngine(8, OddEvenPolicy(), suite(8), faults=[None])


def test_shared_adversary_instance_rejected():
    # one stateful adversary stepped by two lanes would tie the runs
    # together: run 1 would not match a lone engine
    adv = UniformRandomAdversary(p=0.5, seed=7)
    with pytest.raises(SimulationError, match="runs 0 and 1"):
        FleetEngine(16, OddEvenPolicy(), [adv, adv])


def test_shared_fault_injector_rejected():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.CRASH, start=3, node=2, duration=4),
    ))
    injector = FaultInjector(plan, path(16))
    with pytest.raises(SimulationError, match="runs 0 and 1"):
        FleetEngine(
            16, OddEvenPolicy(), [FarEndAdversary(), FarEndAdversary()],
            faults=injector,
        )
    # a plan broadcasts: every lane builds its own injector
    fleet = FleetEngine(
        16, OddEvenPolicy(), [FarEndAdversary(), FarEndAdversary()],
        faults=plan,
    )
    fleet.run(12)
    assert (fleet.heights[0] == fleet.heights[1]).all()


def test_path_below_two_nodes_rejected():
    with pytest.raises(SimulationError, match="at least 2 nodes"):
        FleetEngine(
            1, OddEvenPolicy(), [FarEndAdversary(), FarEndAdversary()]
        )


def test_injection_limit_broadcast_and_per_run():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8), injection_limit=2)
    assert fleet.injection_limits == [2, 2, 2]
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8),
                        injection_limit=[1, 2, 3])
    assert fleet.injection_limits == [1, 2, 3]
    # None lanes default to the uniform rate (= capacity)
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8),
                        injection_limit=[None, 4, None])
    assert fleet.injection_limits == [1, 4, 1]


# ------------------------------------------------------------------
# lane classification


def test_deterministic_and_stochastic_lanes_vectorise():
    advs = [FarEndAdversary(), UniformRandomAdversary(p=0.5, seed=7), None]
    fleet = FleetEngine(8, OddEvenPolicy(), advs)
    assert fleet.vectorized_runs == (0, 1, 2)
    assert fleet.fallback_runs == ()


def test_adaptive_adversary_falls_back():
    advs = [FarEndAdversary(), MaxHeightChaserAdversary()]
    fleet = FleetEngine(8, OddEvenPolicy(), advs)
    assert fleet.vectorized_runs == (0,)
    assert fleet.fallback_runs == (1,)


def test_faulted_lane_falls_back():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.LINK_DOWN, start=2, node=3, duration=2),
    ))
    fleet = FleetEngine(
        8, OddEvenPolicy(), suite(8), faults=[None, plan, None]
    )
    assert fleet.fallback_runs == (1,)
    assert fleet.vectorized_runs == (0, 2)


def _same_result(got, want):
    for name in _FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("tree", [False, True])
def test_one_run_fleet_steps_on_its_dedicated_engine(tree):
    # a one-row matrix has nothing to vectorise across: the run steps
    # on the engine a fallback lane gets, and the probe is skipped
    topo = balanced_tree(2, 3) if tree else 16
    policy = TreeOddEvenPolicy if tree else OddEvenPolicy
    fleet = FleetEngine(topo, policy(), [FarEndAdversary()])
    assert fleet.fallback_runs == (0,)
    assert fleet.vectorized_runs == ()
    got = fleet.run_horizons([60])[0]
    if tree:
        eng = TreeEngine(topo, policy(), FarEndAdversary())
    else:
        eng = PathEngine(topo, policy(), FarEndAdversary())
    eng.run(60)
    _same_result(got, eng.result())
    assert (fleet.heights[0] == eng.heights).all()


def test_halting_faulted_lane_finishes_run_horizons():
    # a halt used to abort the fleet; the faulted lane now survives it
    # under run_with_recovery over its own horizon, beside two
    # vectorised lanes with shorter and longer horizons
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.HALT, start=7),
        FaultEvent(kind=FaultKind.LINK_DOWN, start=3, node=4, duration=5),
        FaultEvent(kind=FaultKind.HALT, start=21),
    ))
    horizons = [20, 33, 45]
    fleet = FleetEngine(
        12, OddEvenPolicy(),
        [FarEndAdversary(), SeesawAdversary(), FixedNodeAdversary(2)],
        faults=[None, plan, None],
    )
    assert fleet.fallback_runs == (1,)
    got = fleet.run_horizons(horizons)
    oracle = PathEngine(12, OddEvenPolicy(), SeesawAdversary(), faults=plan)
    assert run_with_recovery(
        oracle, horizons[1], snapshot_every=max(1, horizons[1] // 8)
    ) == 2
    _same_result(got[1], oracle.result())
    for r, adv in ((0, FarEndAdversary()), (2, FixedNodeAdversary(2))):
        eng = PathEngine(12, OddEvenPolicy(), adv)
        eng.run(horizons[r])
        _same_result(got[r], eng.result())
    assert fleet.step_index == max(horizons)


def test_mixed_lanes_agree_with_dedicated_engines():
    advs = [FarEndAdversary(), SeesawAdversary(), FixedNodeAdversary(0)]
    fleet = FleetEngine(8, OddEvenPolicy(), advs)
    fleet.run(40)
    for r, adv_cls in enumerate(
        [FarEndAdversary, SeesawAdversary, lambda: FixedNodeAdversary(0)]
    ):
        eng = PathEngine(8, OddEvenPolicy(), adv_cls())
        eng.run(40)
        assert (fleet.heights[r] == eng.heights).all()


# ------------------------------------------------------------------
# run_fleet and results


def test_run_fleet_shape_and_order():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8))
    results = fleet.run_fleet(32)
    assert len(results) == 3
    for r, res in enumerate(results):
        assert isinstance(res, RunResult)
        assert res.steps == 32
        assert res is not results[(r + 1) % 3]
    # results() re-reads the same state
    again = fleet.results()
    for a, b in zip(results, again):
        for name in _FIELDS:
            assert getattr(a, name) == getattr(b, name)


def test_max_heights_tracks_per_run_peaks():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8))
    fleet.run(64)
    peaks = fleet.max_heights
    assert peaks.shape == (3,)
    assert fleet.max_height == int(peaks.max())
    for r in range(3):
        assert fleet.result(r).max_height == int(peaks[r])


# ------------------------------------------------------------------
# checkpoint / snapshot


def _round_robin_lanes():
    # spider(4, 2): leaves 3, 5, 7, 9; two sites a step keep the hub's
    # four children tied, so the tie rotation decides who moves
    legs = (3, 5, 7, 9)
    return [
        ScheduleAdversary({
            t: (legs[(t + k) % 4], legs[(t + k + 1) % 4]) for t in range(50)
        })
        for k in range(3)
    ]


@pytest.mark.parametrize("topology, policy, adversaries, limit", [
    pytest.param(
        8, OddEvenPolicy,
        lambda: [FarEndAdversary(), SeesawAdversary(),
                 UniformRandomAdversary(p=0.5, seed=3)],
        1, id="odd-even-path",
    ),
    pytest.param(
        spider(4, 2), lambda: TreeOddEvenPolicy("round_robin"),
        _round_robin_lanes, 2, id="round-robin-spider",
    ),
])
def test_checkpoint_restore_replays_identically(
    topology, policy, adversaries, limit
):
    # a restored snapshot must put its policy where the lanes decide:
    # a stateful (round-robin) policy left behind replays differently
    fleet = FleetEngine(
        topology, policy(), adversaries(), injection_limit=limit
    )
    fleet.run(20)
    snap = fleet.snapshot()
    fleet.run(30)
    want = [fleet.heights.copy(), fleet.max_heights.copy()]
    fleet.restore(snap)
    assert fleet.step_index == 20
    fleet.run(30)
    assert (fleet.heights == want[0]).all()
    assert (fleet.max_heights == want[1]).all()


def test_load_checkpoint_of_another_size_is_refused(tmp_path):
    def build(n):
        return FleetEngine(
            n, OddEvenPolicy(),
            [FarEndAdversary(), SeesawAdversary(),
             UniformRandomAdversary(p=0.5, seed=3)],
        )

    path = build(8).run(10).save_checkpoint(tmp_path / "small.ckpt")
    fleet = build(16).run(5)
    before = fleet.heights
    with pytest.raises(CheckpointError, match="shape"):
        fleet.load_checkpoint(path)
    assert fleet.step_index == 5
    assert (fleet.heights == before).all()
    fleet.run(5)


def test_save_load_checkpoint_into_fresh_fleet(tmp_path):
    def build():
        return FleetEngine(
            8, OddEvenPolicy(),
            [FarEndAdversary(), SeesawAdversary(),
             UniformRandomAdversary(p=0.5, seed=3)],
        )

    fleet = build()
    fleet.run(25)
    path = tmp_path / "fleet.ckpt"
    fleet.save_checkpoint(path)
    fleet.run(25)

    fresh = build()
    fresh.load_checkpoint(path)
    assert fresh.step_index == 25
    fresh.run(25)
    assert (fresh.heights == fleet.heights).all()
    for r in range(3):
        a, b = fresh.result(r), fleet.result(r)
        for name in _FIELDS:
            assert getattr(a, name) == getattr(b, name)


# ------------------------------------------------------------------
# trees and the fleet-backed suite sweep


def test_tree_fleet_runs_on_balanced_tree():
    topo = balanced_tree(2, 3)
    advs = [FarEndAdversary(), ScheduleAdversary({0: (1,), 1: (2,)})]
    fleet = FleetEngine(topo, TreeOddEvenPolicy(), advs)
    fleet.run(40)
    from repro.network.tree_engine import TreeEngine

    for r, adv in enumerate(
        [FarEndAdversary(), ScheduleAdversary({0: (1,), 1: (2,)})]
    ):
        eng = TreeEngine(topo, TreeOddEvenPolicy(), adv)
        eng.run(40)
        assert (fleet.heights[r] == eng.heights).all()
    fleet.assert_conservation()


def test_worst_case_over_suite_matches_manual_loop():
    n, steps = 16, 128
    advs = [FarEndAdversary(), FixedNodeAdversary(0), SeesawAdversary()]
    got = worst_case_over_suite(
        n, OddEvenPolicy, advs, steps
    )
    best = None
    for adv_cls in (FarEndAdversary, FixedNodeAdversary, SeesawAdversary):
        adv = adv_cls(0) if adv_cls is FixedNodeAdversary else adv_cls()
        res = measure_path(n, OddEvenPolicy(), adv, steps)
        if best is None or res.max_height > best.max_height:
            best = res
    assert got == best
