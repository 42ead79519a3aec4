"""Unit tests for the robustness layer: finite buffers with overflow
disciplines, fault plans and their injector, the loss ledger, and the
checkpoint/resume machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BufferOverflow, FaultError, RateViolation
from repro.network.buffers import Buffer, Overflow
from repro.network.engine_fast import PathEngine
from repro.network.faults import (
    NO_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RandomFaults,
    run_with_recovery,
)
from repro.network.metrics import LossLedger
from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.network.topology import path
from repro.network.validation import validate_injections
from repro.adversaries import FarEndAdversary, SeesawAdversary
from repro.policies import GreedyPolicy, OddEvenPolicy


def pkt(pid: int) -> Packet:
    return Packet(pid=pid, origin=0, birth_step=0)


class TestFiniteBuffers:
    def test_unbounded_by_default(self):
        b = Buffer()
        assert b.capacity is None and b.free is None and not b.full
        for i in range(1000):
            assert b.push(pkt(i)) is None
        assert b.height == 1000

    def test_capacity_validation(self):
        with pytest.raises(BufferOverflow):
            Buffer(capacity=0)

    def test_drop_tail_rejects_arrival(self):
        b = Buffer(capacity=2)
        assert b.push(pkt(0)) is None and b.push(pkt(1)) is None
        victim = b.push(pkt(2))
        assert victim is not None and victim.pid == 2
        assert [p.pid for p in b] == [0, 1]

    def test_drop_oldest_evicts_head(self):
        b = Buffer(capacity=2, overflow=Overflow.DROP_OLDEST)
        b.push(pkt(0))
        b.push(pkt(1))
        victim = b.push(pkt(2))
        assert victim is not None and victim.pid == 0
        assert [p.pid for p in b] == [1, 2]

    def test_push_back_raises_on_blind_forward(self):
        b = Buffer(capacity=1, overflow=Overflow.PUSH_BACK)
        b.push(pkt(0))
        with pytest.raises(BufferOverflow):
            b.push(pkt(1))

    def test_push_back_drop_tails_injections(self):
        b = Buffer(capacity=1, overflow=Overflow.PUSH_BACK)
        b.push(pkt(0), injection=True)
        victim = b.push(pkt(1), injection=True)
        assert victim is not None and victim.pid == 1

    def test_requeue_restores_fifo_order(self):
        b = Buffer(capacity=3)
        for i in range(3):
            b.push(pkt(i))
        p = b.pop()
        b.requeue(p)
        assert [q.pid for q in b] == [0, 1, 2]

    def test_drain_empties_and_returns_contents(self):
        b = Buffer(capacity=4)
        for i in range(3):
            b.push(pkt(i))
        drained = b.drain()
        assert [p.pid for p in drained] == [0, 1, 2]
        assert b.height == 0

    def test_clone_preserves_capacity_and_overflow(self):
        b = Buffer(capacity=2, overflow=Overflow.DROP_OLDEST)
        b.push(pkt(0))
        c = b.clone()
        assert c.capacity == 2 and c.overflow is Overflow.DROP_OLDEST
        assert c.height == 1


class TestLossLedger:
    def test_records_and_aggregates(self):
        led = LossLedger()
        led.record(3, "overflow", 2)
        led.record(3, "wipe")
        led.record(5, "overflow")
        assert led.total == 4
        assert led.by_cause() == {"overflow": 3, "wipe": 1}
        assert led.by_node() == {3: 3, 5: 1}
        assert led.detail() == {"overflow": {3: 2, 5: 1}, "wipe": {3: 1}}

    def test_balanced_is_exact(self):
        led = LossLedger()
        led.record(1, "crash", 3)
        assert led.balanced(injected=10, delivered=5, in_flight=2)
        assert not led.balanced(injected=10, delivered=5, in_flight=3)

    def test_snapshot_restore_round_trip(self):
        led = LossLedger()
        led.record(1, "overflow", 2)
        snap = led.snapshot()
        led.record(2, "wipe", 5)
        led.restore(snap)
        assert led.detail() == {"overflow": {1: 2}}


class TestFaultPlanSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind=FaultKind.LINK_DOWN, start=3, node=1,
                           duration=4),
                FaultEvent(kind=FaultKind.CRASH, start=9, node=2,
                           duration=2, wipe=True),
                FaultEvent(kind=FaultKind.JITTER, start=12, duration=5,
                           delay=3),
                FaultEvent(kind=FaultKind.HALT, start=20),
            ),
            random=RandomFaults(p_link_down=0.1, p_crash=0.01, duration=3,
                                wipe=True),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_file(self, tmp_path):
        plan = FaultPlan(events=(FaultEvent(kind="crash", start=1, node=0),))
        p = tmp_path / "plan.json"
        p.write_text(plan.to_json())
        assert FaultPlan.from_file(p) == plan

    def test_empty_detection(self):
        assert FaultPlan().empty
        assert FaultPlan(random=RandomFaults()).empty
        assert not FaultPlan(random=RandomFaults(p_crash=0.1)).empty
        assert not FaultPlan(
            events=(FaultEvent(kind=FaultKind.HALT, start=0),)
        ).empty

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=FaultKind.CRASH, start=-1, node=0),
            dict(kind=FaultKind.CRASH, start=0, node=0, duration=0),
            dict(kind=FaultKind.CRASH, start=0),  # missing node
            dict(kind=FaultKind.LINK_DOWN, start=0),
            dict(kind=FaultKind.JITTER, start=0, delay=0),
        ],
    )
    def test_event_validation(self, kwargs):
        with pytest.raises(FaultError):
            FaultEvent(**kwargs)

    def test_malformed_json_chains_cause(self):
        with pytest.raises(FaultError) as ei:
            FaultPlan.from_json("{not json")
        assert ei.value.__cause__ is not None

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultError):
            RandomFaults(p_crash=1.5)


class TestFaultInjector:
    def topo(self, n=8):
        return path(n)

    def test_rejects_sink_and_out_of_range_targets(self):
        with pytest.raises(FaultError):
            FaultInjector(
                FaultPlan(events=(
                    FaultEvent(kind=FaultKind.CRASH, start=0, node=7),
                )),
                self.topo(8),
            )
        with pytest.raises(FaultError):
            FaultInjector(
                FaultPlan(events=(
                    FaultEvent(kind=FaultKind.CRASH, start=0, node=99),
                )),
                self.topo(8),
            )

    def test_quiet_steps_return_singleton(self):
        inj = FaultInjector(
            FaultPlan(events=(
                FaultEvent(kind=FaultKind.LINK_DOWN, start=5, node=2),
            )),
            self.topo(),
        )
        assert inj.begin_step(0) is NO_FAULTS

    def test_outage_window_and_expiry(self):
        inj = FaultInjector(
            FaultPlan(events=(
                FaultEvent(kind=FaultKind.LINK_DOWN, start=2, node=3,
                           duration=2),
            )),
            self.topo(),
        )
        assert inj.begin_step(0).quiet and inj.begin_step(1).quiet
        assert inj.begin_step(2).blocked == {3}
        assert inj.begin_step(3).blocked == {3}
        assert inj.begin_step(4).quiet  # duration elapsed

    def test_crash_blocks_and_marks_crashed(self):
        inj = FaultInjector(
            FaultPlan(events=(
                FaultEvent(kind=FaultKind.CRASH, start=1, node=2,
                           duration=2, wipe=True),
            )),
            self.topo(),
        )
        f = inj.begin_step(1)
        assert f.crashed == {2} and f.blocked == {2} and f.wiped == (2,)
        f2 = inj.begin_step(2)
        assert f2.crashed == {2} and f2.wiped == ()  # wipe only at onset

    def test_back_to_back_crashes_wipe_twice(self):
        # first crash ends exactly when the second begins: the expiry
        # must run before onset processing so the second wipe fires
        inj = FaultInjector(
            FaultPlan(events=(
                FaultEvent(kind=FaultKind.CRASH, start=0, node=1,
                           duration=2, wipe=True),
                FaultEvent(kind=FaultKind.CRASH, start=2, node=1,
                           duration=2, wipe=True),
            )),
            self.topo(),
        )
        assert inj.begin_step(0).wiped == (1,)
        assert inj.begin_step(1).wiped == ()
        assert inj.begin_step(2).wiped == (1,)

    def test_jitter_defers_and_releases(self):
        inj = FaultInjector(
            FaultPlan(events=(
                FaultEvent(kind=FaultKind.JITTER, start=4, duration=2,
                           delay=3),
            )),
            self.topo(),
        )
        f = inj.begin_step(4)
        assert f.defer == 3
        inj.defer_injections(4, (1, 2), f.defer)
        assert inj.begin_step(5).defer == 3
        assert inj.begin_step(6).quiet  # window over
        assert inj.begin_step(7).released == (1, 2)

    def test_halt_fires_once(self):
        inj = FaultInjector(
            FaultPlan(events=(FaultEvent(kind=FaultKind.HALT, start=3),)),
            self.topo(),
        )
        with pytest.raises(FaultError, match="step 3"):
            inj.begin_step(3)
        snap = inj.snapshot()
        inj.restore(snap)
        assert inj.begin_step(3).quiet  # fired-halt memory survives restore

    def test_stochastic_draws_are_step_keyed(self):
        plan = FaultPlan(
            random=RandomFaults(p_link_down=0.5, p_crash=0.3, duration=1),
            seed=11,
        )
        a = FaultInjector(plan, self.topo())
        b = FaultInjector(plan, self.topo())
        # same plan, arbitrary evaluation order: identical verdicts
        for step in (5, 3, 7, 3):
            fa, fb = a.begin_step(step), b.begin_step(step)
            assert fa.blocked == fb.blocked and fa.crashed == fb.crashed

    def test_snapshot_restore_round_trip(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.LINK_DOWN, start=0, node=1,
                       duration=10),
            FaultEvent(kind=FaultKind.JITTER, start=0, duration=5, delay=2),
        ))
        inj = FaultInjector(plan, self.topo())
        inj.begin_step(0)
        inj.defer_injections(0, (3,), 2)
        snap = inj.snapshot()
        inj.begin_step(1)
        inj.defer_injections(1, (4,), 2)
        inj.restore(snap)
        assert inj.begin_step(2).released == (3,)


class TestEngineIntegration:
    """Fault/capacity extensions as seen through the engines."""

    N, T = 17, 150

    def plan(self):
        return FaultPlan(events=(
            FaultEvent(kind=FaultKind.LINK_DOWN, start=10, node=4,
                       duration=3),
            FaultEvent(kind=FaultKind.CRASH, start=30, node=8, duration=4,
                       wipe=True),
            FaultEvent(kind=FaultKind.JITTER, start=60, duration=4, delay=2),
        ))

    def engines(self, **kw):
        sim = Simulator(path(self.N), OddEvenPolicy(), SeesawAdversary(),
                        validate=False, **kw)
        eng = PathEngine(self.N, OddEvenPolicy(), SeesawAdversary(), **kw)
        return sim, eng

    @pytest.mark.parametrize("overflow", ["drop-tail", "drop-oldest",
                                          "push-back"])
    def test_cross_engine_heights_and_ledger_agree(self, overflow):
        sim, eng = self.engines(buffer_capacity=3, overflow=overflow,
                                faults=self.plan())
        for _ in range(self.T):
            sim.step()
            eng.step()
        assert np.array_equal(sim.heights, eng.heights)
        assert sim.metrics.delivered == eng.metrics.delivered
        assert sim.metrics.ledger.detail() == eng.metrics.ledger.detail()
        sim.assert_conservation()
        eng.assert_conservation()

    def test_no_faults_unbounded_matches_seed_behavior(self):
        # the extensions must be inert when disabled
        plain_sim, plain_eng = self.engines()
        gated_sim, gated_eng = self.engines(
            buffer_capacity=None, overflow="drop-tail", faults=None
        )
        for _ in range(self.T):
            for e in (plain_sim, plain_eng, gated_sim, gated_eng):
                e.step()
        assert np.array_equal(plain_sim.heights, gated_sim.heights)
        assert np.array_equal(plain_eng.heights, gated_eng.heights)
        assert gated_sim.metrics.ledger.total == 0

    def test_crashed_node_drops_injections_only(self):
        # far-end adversary always injects at node 0; crash node 0
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.CRASH, start=5, node=0, duration=3),
        ))
        sim = Simulator(path(8), GreedyPolicy(), FarEndAdversary(),
                        faults=plan, validate=False)
        for _ in range(20):
            sim.step()
        assert sim.metrics.ledger.by_cause() == {"crash": 3}
        assert sim.metrics.ledger.by_node() == {0: 3}
        sim.assert_conservation()

    def test_wipe_loses_the_buffer_contents(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.CRASH, start=10, node=0, duration=1,
                       wipe=True),
        ))
        # greedy on a path drains fast; far-end keeps node 0 occupied
        sim = Simulator(path(8), OddEvenPolicy(), FarEndAdversary(),
                        faults=plan, validate=False)
        for _ in range(30):
            sim.step()
        assert sim.metrics.ledger.by_cause().get("wipe", 0) > 0
        sim.assert_conservation()

    def test_run_result_carries_drop_accounting(self):
        sim, _ = self.engines(buffer_capacity=2, faults=self.plan())
        res = sim.run(self.T)
        assert res.dropped == sim.metrics.ledger.total
        assert res.injected == res.delivered + res.in_flight + res.dropped
        assert 0.0 <= res.loss_rate <= 1.0

    def test_halt_via_engine_raises_fault_error(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.HALT, start=7),
        ))
        _, eng = self.engines(faults=plan)
        with pytest.raises(FaultError):
            for _ in range(20):
                eng.step()
        assert eng.step_index == 7  # died before step 7 mutated state

    def test_run_with_recovery_survives_halts(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.HALT, start=40),
            FaultEvent(kind=FaultKind.HALT, start=90),
        ))
        _, eng = self.engines(faults=plan)
        recoveries = run_with_recovery(eng, self.T, snapshot_every=10)
        assert recoveries == 2 and eng.step_index == self.T

    def test_run_with_recovery_gives_up_eventually(self):
        class DoomedEngine:
            step_index = 0

            def snapshot(self):
                return {}

            def restore(self, snap):
                pass

            def step(self):
                raise FaultError("always dead")

            def run(self, steps):
                raise FaultError("always dead")

        with pytest.raises(FaultError, match="gave up"):
            run_with_recovery(DoomedEngine(), 10, max_recoveries=2)


class TestValidationMessages:
    """Error messages must locate failures: step, node, count."""

    def test_injection_rate_message(self):
        with pytest.raises(RateViolation) as ei:
            validate_injections((1, 2), path(8), limit=1, step=17)
        msg = str(ei.value)
        assert "step 17" in msg and "2 packets" in msg

    def test_injection_site_message(self):
        with pytest.raises(RateViolation) as ei:
            validate_injections((99,), path(8), limit=1, step=4)
        msg = str(ei.value)
        assert "step 4" in msg and "node 99" in msg

    def test_sink_injection_message(self):
        with pytest.raises(RateViolation) as ei:
            validate_injections((7,), path(8), limit=1, step=0)
        assert "sink" in str(ei.value) and "node 7" in str(ei.value)
