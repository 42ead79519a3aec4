"""Unit tests for the packet-tracking reference simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries import (
    FarEndAdversary,
    FixedNodeAdversary,
    LeafSweepAdversary,
)
from repro.errors import RateViolation, SimulationError
from repro.network.buffers import Discipline
from repro.network.events import TraceRecorder
from repro.network.simulator import Simulator
from repro.network.topology import path, spider
from repro.network.validation import check_trace
from repro.policies import GreedyPolicy, OddEvenPolicy, TreeOddEvenPolicy


class TestBasics:
    def test_heights_reflect_buffers(self):
        sim = Simulator(path(4), GreedyPolicy(), None)
        sim.step(injections=(0,))
        assert sim.heights.tolist() == [1, 0, 0, 0]

    def test_unknown_timing_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(path(3), GreedyPolicy(), None, decision_timing="nope")

    def test_packet_identity_preserved(self):
        sim = Simulator(path(3), GreedyPolicy(), None)
        sim.step(injections=(0,))
        for _ in range(4):
            sim.step()
        assert len(sim.delivered_packets) == 1
        pkt = sim.delivered_packets[0]
        assert pkt.origin == 0 and pkt.hops == 2

    def test_delay_equals_distance_plus_wait(self):
        sim = Simulator(path(5), GreedyPolicy(), None)
        sim.step(injections=(0,))
        for _ in range(10):
            sim.step()
        # injected at step 0, starts moving step 1, 4 hops -> step 4
        assert sim.delivered_packets[0].delay == 4

    def test_rate_violation_raised(self):
        sim = Simulator(path(3), GreedyPolicy(), None)
        with pytest.raises(RateViolation):
            sim.step(injections=(0, 1))

    def test_result_summary_fields(self):
        sim = Simulator(path(4), GreedyPolicy(), FarEndAdversary())
        res = sim.run(20)
        assert res.steps == 20
        assert res.injected == 20
        assert res.injected == res.delivered + res.in_flight
        assert res.delay_summary["count"] == res.delivered


class TestDisciplines:
    def _delays(self, discipline: str) -> list[int]:
        sim = Simulator(
            path(3),
            OddEvenPolicy(),
            FixedNodeAdversary(0),
            discipline=discipline,
        )
        sim.run(40)
        return [p.delay for p in sim.delivered_packets]

    def test_fifo_delays_monotone_origin_order(self):
        delays = self._delays("fifo")
        assert delays and all(d >= 2 for d in delays)

    def test_lifo_same_throughput_as_fifo(self):
        assert len(self._delays("lifo")) == len(self._delays("fifo"))

    def test_discipline_enum_accepted(self):
        sim = Simulator(path(3), GreedyPolicy(), None,
                        discipline=Discipline.LIFO)
        assert sim.discipline is Discipline.LIFO


class TestTreeForwarding:
    def test_sibling_arbitration_admits_one(self, small_spider):
        sim = Simulator(small_spider, TreeOddEvenPolicy(), None)
        hub = small_spider.children[small_spider.sink][0]
        heads = small_spider.children[hub]
        # one packet on every arm head; only one may enter the hub
        sim.step(injections=(heads[0],))
        sim.step(injections=(heads[1],))
        sim.step(injections=(heads[2],))
        h_before = sim.heights.copy()
        sim.step()
        moved_in = sim.heights[hub] - h_before[hub]
        assert moved_in <= 1

    def test_pairwise_policy_floods_hub(self, small_spider):
        from repro.network.packet import Packet

        sim = Simulator(small_spider, OddEvenPolicy(), None)
        hub = small_spider.children[small_spider.sink][0]
        heads = small_spider.children[hub]
        for h in heads:
            sim.buffers[h].push(Packet(pid=99 + h, origin=h, birth_step=0))
            sim._heights[h] += 1  # keep the incremental cache in sync
        sim.metrics.injected += len(heads)
        sim.step()
        # every head forwards at once (no arbitration in a 1-local
        # pairwise rule): the hub receives len(heads) packets
        assert sim.heights[hub] == len(heads)

    def test_leaf_sweep_conserves(self, small_binary):
        sim = Simulator(small_binary, TreeOddEvenPolicy(), LeafSweepAdversary())
        sim.run(60)
        sim.assert_conservation()


class TestCheckpoint:
    def test_packet_state_rolls_back(self):
        sim = Simulator(path(5), GreedyPolicy(), FarEndAdversary())
        sim.run(6)
        cp = sim.checkpoint()
        delivered_at_cp = len(sim.delivered_packets)
        sim.run(10)
        sim.restore(cp)
        assert len(sim.delivered_packets) == delivered_at_cp
        assert sim.step_index == 6

    def test_snapshot_shares_delivered_packets(self):
        # a packet is last written when it is delivered, so a snapshot
        # copies the list, not the packets; buffered packets are copied
        sim = Simulator(path(6), OddEvenPolicy(), FarEndAdversary())
        sim.run(30)
        snap = sim.snapshot()
        assert snap["delivered_packets"] is not sim.delivered_packets
        assert len(snap["delivered_packets"]) == len(sim.delivered_packets)
        assert all(
            a is b for a, b in zip(snap["delivered_packets"],
                                   sim.delivered_packets)
        )
        in_flight = [p for buf in sim.buffers for p in buf]
        copied = [p for buf in snap["buffers"] for p in buf]
        assert in_flight and not any(
            a is b for a, b in zip(in_flight, copied)
        )
        sim.run(10)
        sim.restore(snap)
        assert sim.delivered_packets is not snap["delivered_packets"]
        assert sim.delivered_packets == snap["delivered_packets"]

    def test_recovery_with_frequent_snapshots_matches_stepping(self):
        from repro.adversaries import UniformRandomAdversary
        from repro.network.faults import (
            FaultEvent, FaultKind, FaultPlan, run_with_recovery,
        )

        plan = FaultPlan(events=tuple(
            FaultEvent(kind=FaultKind.HALT, start=s) for s in (37, 151, 290)
        ))

        def make(faults):
            return Simulator(
                path(16), OddEvenPolicy(), UniformRandomAdversary(seed=4),
                faults=faults,
            )

        recovered = make(plan)
        assert run_with_recovery(recovered, 400, snapshot_every=10) == 3
        plain = make(None)
        plain.run(400)
        assert recovered.result() == plain.result()
        assert (recovered.heights == plain.heights).all()
        assert [
            (p.pid, p.origin, p.birth_step, p.delivered_step, p.hops)
            for p in recovered.delivered_packets
        ] == [
            (p.pid, p.origin, p.birth_step, p.delivered_step, p.hops)
            for p in plain.delivered_packets
        ]

    def test_replay_after_restore_is_deterministic(self):
        sim = Simulator(path(5), OddEvenPolicy(), FarEndAdversary())
        sim.run(4)
        cp = sim.checkpoint()
        sim.run(8)
        h_a = sim.heights.copy()
        sim.restore(cp)
        sim.run(8)
        assert (sim.heights == h_a).all()


class TestTraceAudit:
    def test_recorded_trace_passes_audit(self, small_spider):
        trace = TraceRecorder()
        sim = Simulator(
            small_spider, TreeOddEvenPolicy(), LeafSweepAdversary(),
            trace=trace,
        )
        sim.run(40)
        assert check_trace(trace, small_spider, capacity=1) == 40
