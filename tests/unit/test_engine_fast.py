"""Unit tests for the vectorised path engine (the §2 model on paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries import (
    FarEndAdversary,
    FixedNodeAdversary,
    NullAdversary,
    RoundRobinAdversary,
    ScheduleAdversary,
)
from repro.errors import RateViolation, SimulationError
from repro.network.engine_fast import PathEngine
from repro.network.events import TraceRecorder
from repro.network.validation import check_trace
from repro.policies import GreedyPolicy, OddEvenPolicy


class TestConstruction:
    def test_requires_two_nodes(self):
        with pytest.raises(SimulationError):
            PathEngine(1, GreedyPolicy(), None)

    def test_unknown_timing_rejected(self):
        with pytest.raises(SimulationError):
            PathEngine(4, GreedyPolicy(), None, decision_timing="magic")

    def test_capacity_checked_against_policy(self):
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            PathEngine(4, OddEvenPolicy(), None, capacity=2)

    def test_injection_limit_defaults_to_capacity(self):
        e = PathEngine(4, GreedyPolicy(), None, capacity=3)
        assert e.injection_limit == 3

    def test_heights_start_empty(self):
        e = PathEngine(5, GreedyPolicy(), None)
        assert e.heights.tolist() == [0] * 5


class TestStepSemantics:
    def test_injection_lands_in_buffer(self):
        e = PathEngine(4, OddEvenPolicy(), FixedNodeAdversary(0))
        e.step()
        assert e.heights[0] == 1

    def test_manual_injection_override(self):
        e = PathEngine(4, OddEvenPolicy(), None)
        e.step(injections=(1,))
        assert e.heights[1] == 1

    def test_pre_injection_packet_not_forwarded_same_step(self):
        # a height-0 node cannot forward the packet injected this step
        e = PathEngine(3, GreedyPolicy(), None, decision_timing="pre_injection")
        e.step(injections=(1,))
        assert e.heights[1] == 1

    def test_post_injection_packet_forwarded_same_step(self):
        e = PathEngine(3, GreedyPolicy(), None, decision_timing="post_injection")
        e.step(injections=(1,))
        # node 1 is the sink's predecessor: the packet is delivered
        assert e.heights.sum() == 0
        assert e.metrics.delivered == 1

    def test_sink_height_pinned_to_zero(self):
        e = PathEngine(2, GreedyPolicy(), FixedNodeAdversary(0))
        e.run(10)
        assert e.heights[-1] == 0

    def test_greedy_stream_delivers_at_rate_one(self):
        n = 6
        e = PathEngine(n, GreedyPolicy(), FarEndAdversary())
        e.run(50)
        # the first packet needs n-1 steps to reach the sink (injection
        # step + n-2 forwards); every step after that delivers one
        assert e.metrics.delivered == 50 - (n - 1)

    def test_simultaneous_moves_shift_train(self):
        e = PathEngine(6, GreedyPolicy(), None)
        e.heights[:] = np.asarray([1, 1, 1, 0, 0, 0])
        e.step()
        assert e.heights.tolist() == [0, 1, 1, 1, 0, 0]

    def test_injection_at_sink_rejected(self):
        e = PathEngine(4, GreedyPolicy(), None)
        with pytest.raises(RateViolation):
            e.step(injections=(3,))

    def test_rate_limit_enforced(self):
        e = PathEngine(4, GreedyPolicy(), None)
        with pytest.raises(RateViolation):
            e.step(injections=(0, 0))

    def test_injection_limit_allows_bursts(self):
        e = PathEngine(4, GreedyPolicy(), None, injection_limit=3)
        e.step(injections=(0, 0, 1))
        assert e.heights[0] == 2 and e.heights[1] == 1


class TestCapacity:
    def test_greedy_capacity_two_moves_two(self):
        e = PathEngine(4, GreedyPolicy(), None, capacity=2)
        e.heights[:] = np.asarray([3, 0, 0, 0])
        e.step()
        assert e.heights.tolist() == [1, 2, 0, 0]

    def test_capacity_injections(self):
        e = PathEngine(4, GreedyPolicy(), None, capacity=2)
        e.step(injections=(0, 0))
        assert e.heights[0] == 2


class TestConservationAndMetrics:
    def test_conservation_invariant(self):
        e = PathEngine(8, OddEvenPolicy(), FarEndAdversary(), validate=True)
        e.run(100)  # validate=True asserts every step
        assert e.metrics.injected == 100

    def test_delivered_plus_in_flight(self):
        e = PathEngine(8, GreedyPolicy(), FarEndAdversary())
        e.run(30)
        assert e.metrics.injected == e.metrics.delivered + int(e.heights.sum())

    def test_max_height_tracked(self):
        e = PathEngine(3, OddEvenPolicy(), FixedNodeAdversary(0))
        e.run(10)
        assert e.max_height >= 1


class TestCheckpointRestore:
    def test_roundtrip_heights_and_step(self):
        e = PathEngine(6, OddEvenPolicy(), FarEndAdversary())
        e.run(10)
        cp = e.checkpoint()
        h10 = e.heights.copy()
        e.run(10)
        e.restore(cp)
        assert (e.heights == h10).all()
        assert e.step_index == 10

    def test_restore_rolls_back_metrics(self):
        e = PathEngine(6, GreedyPolicy(), None)
        cp = e.checkpoint()
        e.step(injections=(0,))
        e.restore(cp)
        assert e.metrics.injected == 0
        assert e.max_height == 0

    def test_deterministic_replay_after_restore(self):
        e = PathEngine(6, OddEvenPolicy(), FarEndAdversary())
        e.run(5)
        cp = e.checkpoint()
        e.run(7)
        after_a = e.heights.copy()
        e.restore(cp)
        e.run(7)
        assert (e.heights == after_a).all()


class TestTraceRecording:
    def test_trace_chains_and_audits(self):
        trace = TraceRecorder()
        e = PathEngine(
            6,
            OddEvenPolicy(),
            ScheduleAdversary({i: (i % 4,) for i in range(20)}),
            trace=trace,
        )
        e.run(20)
        checked = check_trace(trace, e.topology, capacity=1)
        assert checked == 20

    def test_trace_records_injections(self):
        trace = TraceRecorder()
        e = PathEngine(4, OddEvenPolicy(), FixedNodeAdversary(2), trace=trace)
        e.step()
        assert trace[0].injections == (2,)


def _metrics_key(engine):
    """Comparable view of a full metrics snapshot."""
    snap = engine.metrics.snapshot()
    snap["tracker"]["per_node_max"] = snap["tracker"]["per_node_max"].tolist()
    return snap


def _pair(n=16, adversary_cls=FarEndAdversary, policy_cls=OddEvenPolicy,
          **kwargs):
    make = lambda: PathEngine(  # noqa: E731
        n, policy_cls(), adversary_cls(), **kwargs
    )
    return make(), make()


class TestBatchedRun:
    """run() takes a batched fast path for schedule-capable adversaries;
    it must be bit-identical to per-step stepping, metrics included."""

    def test_run_matches_stepping(self):
        batched, stepped = _pair()
        batched.run(200)
        for _ in range(200):
            stepped.step()
        assert (batched.heights == stepped.heights).all()
        assert batched.step_index == stepped.step_index == 200
        assert _metrics_key(batched) == _metrics_key(stepped)

    def test_interleaved_runs_and_steps(self):
        batched, stepped = _pair(adversary_cls=RoundRobinAdversary)
        batched.run(100)
        for _ in range(37):
            batched.step()
        batched.run(63)
        for _ in range(200):
            stepped.step()
        assert (batched.heights == stepped.heights).all()
        assert _metrics_key(batched) == _metrics_key(stepped)

    def test_series_recording_matches(self):
        batched, stepped = _pair(series_every=7)
        batched.run(100)
        for _ in range(100):
            stepped.step()
        assert _metrics_key(batched) == _metrics_key(stepped)

    def test_adaptive_adversary_still_runs(self):
        # SeesawAdversary reads the heights, so there is no schedule;
        # run() must transparently fall back to per-step stepping
        from repro.adversaries import SeesawAdversary

        batched, stepped = _pair(adversary_cls=SeesawAdversary)
        batched.run(150)
        for _ in range(150):
            stepped.step()
        assert (batched.heights == stepped.heights).all()
        assert _metrics_key(batched) == _metrics_key(stepped)

    def test_validate_mode_matches(self):
        # validate=True disables the batch (it asserts per step) but
        # must not change the trajectory
        plain, validated = (
            PathEngine(12, OddEvenPolicy(), FarEndAdversary()),
            PathEngine(12, OddEvenPolicy(), FarEndAdversary(),
                       validate=True),
        )
        plain.run(80)
        validated.run(80)
        assert (plain.heights == validated.heights).all()

    def test_short_schedule_rejected(self):
        class LyingAdversary(FarEndAdversary):
            def inject_schedule(self, start, steps, topology):
                return (((self._node,),) * (steps - 1))  # one short

        e = PathEngine(8, OddEvenPolicy(), LyingAdversary())
        with pytest.raises(SimulationError):
            e.run(10)

    def test_run_zero_steps_is_noop(self):
        e = PathEngine(8, OddEvenPolicy(), FarEndAdversary())
        e.run(0)
        assert e.step_index == 0
        assert e.metrics.injected == 0

    @pytest.mark.parametrize("bad, message", [
        ((7,), "step 12: injection at the sink (node 7) is not allowed"),
        ((9,), "step 12: injection site (node 9) out of range for n=8"),
        ((2, 3), "step 12: adversary injected 2 packets at sites (2, 3); "
                 "rate limit is 1"),
        ((-1,), "step 12: injection site (node -1) out of range for n=8"),
    ])
    def test_a_bad_batch_names_its_first_step(self, bad, message):
        # a one-run schedule is validated in bulk; the error still names
        # the first step the offending batch appears at, before any step
        script = {t: (t % 5,) for t in range(40)}
        script[12] = script[30] = bad
        e = PathEngine(8, OddEvenPolicy(), ScheduleAdversary(script))
        e.run(3)
        with pytest.raises(RateViolation) as err:
            e.run(37)
        assert str(err.value) == message
        assert e.step_index == 3

    def test_sites_that_are_not_plain_ints_are_validated_one_by_one(self):
        # numpy ints and bools pass validation as the ints they convert
        # to, exactly as step() lands them
        script = {t: (np.int64(t % 6),) if t % 2 else (True,)
                  for t in range(50)}
        batched = PathEngine(8, OddEvenPolicy(), ScheduleAdversary(script),
                             buffer_capacity=2)
        stepped = PathEngine(8, OddEvenPolicy(), ScheduleAdversary(script),
                             buffer_capacity=2)
        batched.run(50)
        for _ in range(50):
            stepped.step()
        assert batched.heights.tolist() == stepped.heights.tolist()
        assert _metrics_key(batched) == _metrics_key(stepped)
        assert batched.metrics.ledger.detail() == (
            stepped.metrics.ledger.detail()
        )

    def test_a_constant_schedule_is_validated_too(self):
        # one batch object for every step: a bad one still raises, and
        # numpy sites still land as the ints they convert to
        bad = (7,)
        e = PathEngine(8, OddEvenPolicy(),
                       ScheduleAdversary({t: bad for t in range(40)}))
        with pytest.raises(RateViolation, match="step 0: injection at the"):
            e.run(10)
        site = (np.int64(2),)
        e = PathEngine(8, OddEvenPolicy(),
                       ScheduleAdversary({t: site for t in range(40)}))
        e.run(10)
        assert e.metrics.injected == 10

    def test_equal_batches_are_one_object(self):
        # the schedule-period detection compares batches by identity
        script = {t: (t % 3 + 1,) for t in range(30)}
        e = PathEngine(8, OddEvenPolicy(), ScheduleAdversary(script))
        sched = e.adversary.inject_schedule(0, 30, e.topology)
        batches, _ = e._flatten([(e.adversary, sched, 1)], 30)
        assert [b for b in batches] == [(t % 3 + 1,) for t in range(30)]
        assert len({id(b) for b in batches}) == 3
