"""Reference packet-tracking simulator for arbitrary in-trees.

This is the faithful implementation of the §2 model:

* time proceeds in steps, each split into two mini-steps;
* mini-step 1: the adversary injects at most ``c`` packets anywhere;
* mini-step 2: every node simultaneously forwards at most ``c`` packets
  along its outgoing link, as chosen by the scheduling policy;
* the sink consumes packets instantly; buffers are unbounded and no
  packet is ever dropped (zero loss is an *invariant* here, checked by
  conservation accounting, not a metric).

Two opt-in extensions relax the clean-room assumptions without
perturbing the faithful model (a run with unbounded buffers and no
fault plan is bit-identical to the seed simulator):

* **finite buffers** — ``buffer_capacity`` plus an
  :class:`~repro.network.buffers.Overflow` discipline (drop-tail,
  drop-oldest, push-back).  Losses are accounted per node and cause in
  the :class:`~repro.network.metrics.LossLedger`, and the invariant
  becomes the extended conservation law
  ``injected == delivered + in_flight + dropped``;
* **fault injection** — a :class:`~repro.network.faults.FaultPlan`
  (link outages, node crashes with buffer wipe or retention, injection
  jitter, process kills) consulted at the top of every step.

Packets are real objects so that delays, ordering and provenance are
measurable (experiment E12).  For big parameter sweeps prefer the
vectorised height-only engines —
:class:`repro.network.engine_fast.PathEngine` on paths,
:class:`repro.network.tree_engine.TreeEngine` on arbitrary in-trees;
property-based tests prove each engine generates height trajectories,
metrics and loss ledgers identical to this reference implementation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .buffers import Buffer, Discipline, Overflow, coerce_overflow
from .dag_engine import _Durable, check_fault_state, check_heights
from .events import StepRecord, TraceRecorder
from .faults import NO_FAULTS, FaultInjector, FaultPlan, StepFaults
from .metrics import MetricsBundle
from .packet import Packet
from .topology import Topology
from .validation import validate_injections
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.base import Adversary
from ..errors import BufferOverflow, ConservationViolation, SimulationError
from ..policies.base import ForwardingPolicy

__all__ = ["Simulator", "RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Summary of a finished run.

    ``dropped``/``drops_by_cause``/``drops_by_node`` are all zero/empty
    in the faithful zero-loss model; they only fill in under the
    finite-buffer or fault-injection extensions.
    """

    steps: int
    max_height: int
    argmax_node: int
    argmax_step: int
    injected: int
    delivered: int
    in_flight: int
    delay_summary: dict[str, float]
    dropped: int = 0
    drops_by_cause: dict[str, int] = field(default_factory=dict)
    drops_by_node: dict[int, int] = field(default_factory=dict)

    @property
    def loss_rate(self) -> float:
        """Fraction of injected packets that were lost."""
        return self.dropped / self.injected if self.injected else 0.0


class Simulator(_Durable):
    """Packet-level synchronous simulator on an arbitrary in-tree.

    Parameters (beyond the faithful-model ones)
    -------------------------------------------
    buffer_capacity:
        Finite per-node buffer size; ``None`` (default) keeps the
        paper's unbounded buffers.
    overflow:
        Overflow discipline for finite buffers (see
        :class:`~repro.network.buffers.Overflow`).
    faults:
        A :class:`~repro.network.faults.FaultPlan` (or a prebuilt
        :class:`~repro.network.faults.FaultInjector`) to thread through
        the run; ``None`` disables fault injection entirely.
    """

    def __init__(
        self,
        topology: Topology,
        policy: ForwardingPolicy,
        adversary: Adversary | None,
        *,
        capacity: int = 1,
        injection_limit: int | None = None,
        decision_timing: str = "pre_injection",
        discipline: Discipline | str = Discipline.FIFO,
        buffer_capacity: int | None = None,
        overflow: Overflow | str = Overflow.DROP_TAIL,
        faults: FaultPlan | FaultInjector | None = None,
        series_every: int = 0,
        trace: TraceRecorder | None = None,
        validate: bool = True,
    ) -> None:
        if decision_timing not in ("pre_injection", "post_injection"):
            raise SimulationError(f"unknown decision timing {decision_timing!r}")
        policy.check_capacity(capacity)
        self.topology = topology
        self.policy = policy
        self.adversary = adversary
        self.capacity = int(capacity)
        # see PathEngine: the (rho, sigma) model allows one-step bursts
        # above the link capacity.
        self.injection_limit = int(
            capacity if injection_limit is None else injection_limit
        )
        self.decision_timing = decision_timing
        self.discipline = Discipline(discipline)
        self.buffer_capacity = (
            None if buffer_capacity is None else int(buffer_capacity)
        )
        self.overflow = coerce_overflow(overflow)
        if isinstance(faults, FaultInjector):
            self.faults: FaultInjector | None = faults
        elif faults is not None:
            self.faults = FaultInjector(faults, topology)
        else:
            self.faults = None
        self.validate = validate
        self.trace = trace

        self.buffers: list[Buffer] = [
            Buffer(
                self.discipline,
                capacity=self.buffer_capacity,
                overflow=self.overflow,
            )
            for _ in range(topology.n)
        ]
        self._heights = np.zeros(topology.n, dtype=np.int64)
        self.step_index = 0
        self._next_pid = 0
        self.delivered_packets: list[Packet] = []
        self.metrics = MetricsBundle.for_n(topology.n, series_every)
        policy.reset(topology)
        if adversary is not None:
            adversary.reset(topology, self.injection_limit)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def heights(self) -> np.ndarray:
        """Current configuration (h(sink) ≡ 0 by construction).

        Maintained incrementally on every push/pop/drain rather than
        rebuilt from the buffer list — this property sits inside every
        hot loop (policies, adversaries, validation, tracing).  Under
        ``validate=True`` each step cross-checks the cache against the
        buffer-derived value.
        """
        return self._heights.copy()

    def _derived_heights(self) -> np.ndarray:
        """Ground truth recomputed from the buffers (slow path)."""
        return np.asarray([b.height for b in self.buffers], dtype=np.int64)

    def _record_drop(
        self, drops: dict[tuple[int, str], int], node: int, cause: str,
        count: int = 1,
    ) -> None:
        self.metrics.ledger.record(node, cause, count)
        key = (node, cause)
        drops[key] = drops.get(key, 0) + count

    def _inject(
        self,
        sites: tuple[int, ...],
        fault: StepFaults,
        drops: dict[tuple[int, str], int],
    ) -> None:
        for s in sites:
            pkt = Packet(
                pid=self._next_pid, origin=s, birth_step=self.step_index
            )
            self._next_pid += 1
            if s in fault.crashed:
                # the node's ingestion interface is down: the packet is
                # offered and lost
                self._record_drop(drops, s, "crash")
                continue
            rejected = self.buffers[s].push(pkt, injection=True)
            if rejected is not None:
                # a packet was lost (the new one under drop-tail, the
                # oldest under drop-oldest): net height unchanged
                self._record_drop(drops, s, "overflow")
            else:
                self._heights[s] += 1
        self.metrics.injected += len(sites)

    def _forward(
        self,
        counts: np.ndarray,
        drops: dict[tuple[int, str], int],
    ) -> tuple[int, np.ndarray]:
        """Apply simultaneous moves; returns (delivered, effective sends).

        Effective sends differ from ``counts`` only under push-back:
        a packet refused by a full receiver stays at its sender — the
        send never happened and the packet keeps occupying a slot at
        the sender.  Because a held-back packet shrinks the sender's
        own room for arrivals, refusals cascade upstream; transfers are
        therefore resolved receiver-first, in ascending depth of the
        sender (the receiver nearest the sink settles before anyone
        sends into it — the sink itself never refuses).  Siblings
        sharing a receiver are processed in ascending sender id, the
        same deterministic order the vectorised engine uses.
        """
        sink = self.topology.sink
        moving: list[tuple[int, int, Packet]] = []
        for v in np.flatnonzero(counts):
            v = int(v)
            k = int(counts[v])
            if self.validate:
                if v == sink:
                    raise SimulationError(
                        f"step {self.step_index}: the sink (node {v}) "
                        "cannot forward packets"
                    )
                if k > self.capacity:
                    raise SimulationError(
                        f"step {self.step_index}: node {v} sent {k} > "
                        f"capacity {self.capacity}"
                    )
                if k > self.buffers[v].height:
                    raise SimulationError(
                        f"step {self.step_index}: node {v} sent {k} from "
                        f"height {self.buffers[v].height}"
                    )
            dest = int(self.topology.succ[v])
            for _ in range(k):
                moving.append((v, dest, self.buffers[v].pop()))
            self._heights[v] -= k
        delivered = 0
        effective = np.asarray(counts, dtype=np.int64).copy()
        # receiver-first order: (sender depth, sender id); the sort is
        # stable, so a sender's packets stay in pop order
        depth = self.topology.depth
        moving.sort(key=lambda m: (depth[m[0]], m[0]))
        i = 0
        while i < len(moving):
            src, dest, _ = moving[i]
            j = i
            while j < len(moving) and moving[j][0] == src:
                j += 1
            group = [pkt for _, _, pkt in moving[i:j]]
            i = j
            if dest == sink:
                for pkt in group:
                    pkt.hops += 1
                    pkt.delivered_step = self.step_index
                    self.delivered_packets.append(pkt)
                    self.metrics.delays.record(pkt.delay)
                    delivered += 1
                continue
            buf = self.buffers[dest]
            push_back = buf.overflow is Overflow.PUSH_BACK
            for k, pkt in enumerate(group):
                if push_back and buf.full:
                    # the receiver's own sends are already settled and
                    # arrivals only fill it further, so the whole
                    # remaining suffix is refused; requeue restores
                    # pre-pop positions (last-popped goes back first)
                    for refused in reversed(group[k:]):
                        self.buffers[src].requeue(refused)
                    effective[src] -= len(group) - k
                    self._heights[src] += len(group) - k
                    break
                pkt.hops += 1
                evicted = buf.push(pkt)
                if evicted is not None:
                    self._record_drop(drops, dest, "overflow")
                else:
                    self._heights[dest] += 1
        self.metrics.delivered += delivered
        return delivered, effective

    def step(self, injections: tuple[int, ...] | None = None) -> None:
        """Advance one round.

        ``injections`` overrides the adversary for this step (used by
        orchestrating adversaries such as the Theorem 3.1 attack).

        Raises
        ------
        FaultError
            If the fault plan kills the run at this step (before any
            state is mutated, so a snapshot-resume is clean).
        """
        fault = (
            self.faults.begin_step(self.step_index)
            if self.faults is not None
            else NO_FAULTS
        )
        drops: dict[tuple[int, str], int] = {}
        # trace snapshot first: the audit equation charges wipes to this
        # step, so heights_before must still contain the wiped packets
        h_before = self.heights
        for v in fault.wiped:
            lost = self.buffers[v].drain()
            self._record_drop(drops, v, "wipe", len(lost))
            self._heights[v] = 0
        h_start = h_before if not fault.wiped else self.heights

        if injections is not None:
            batch = validate_injections(
                injections, self.topology, self.injection_limit,
                step=self.step_index,
            )
        elif self.adversary is not None:
            batch = validate_injections(
                self.adversary.inject(self.step_index, h_start, self.topology),
                self.topology,
                self.injection_limit,
                step=self.step_index,
            )
        else:
            batch = ()
        if fault.defer and batch:
            self.faults.defer_injections(  # type: ignore[union-attr]
                self.step_index, batch, fault.defer
            )
            batch = ()
        sites = fault.released + batch
        self.policy.observe_injections(sites)

        if self.decision_timing == "pre_injection":
            counts = self.policy.send_counts(
                h_start, self.topology, self.capacity
            )
            self._inject(sites, fault, drops)
        else:
            self._inject(sites, fault, drops)
            counts = self.policy.send_counts(
                self.heights, self.topology, self.capacity
            )
        if fault.blocked:
            counts = np.asarray(counts, dtype=np.int64).copy()
            counts[list(fault.blocked)] = 0
        delivered, sends = self._forward(counts, drops)

        self.step_index += 1
        h_after = self.heights
        self.metrics.observe(self.step_index, h_after)
        if self.validate:
            derived = self._derived_heights()
            if not np.array_equal(self._heights, derived):
                raise SimulationError(
                    f"step {self.step_index}: incremental height cache "
                    f"diverged from buffers (cache={self._heights.tolist()}, "
                    f"buffers={derived.tolist()})"
                )
            self.assert_conservation(h_after)
        if self.trace is not None:
            dropped = sum(drops.values())
            self.trace.append(
                StepRecord(
                    step=self.step_index - 1,
                    heights_before=h_before,
                    injections=sites,
                    sends=sends,
                    heights_after=h_after,
                    delivered=delivered,
                    dropped=dropped,
                    drops=tuple(
                        (node, cause, k)
                        for (node, cause), k in sorted(drops.items())
                    ),
                )
            )

    def run(self, steps: int) -> RunResult:
        """Advance ``steps`` rounds and return a summary."""
        for _ in range(steps):
            self.step()
        return self.result()

    def result(self) -> RunResult:
        h = self.heights
        ledger = self.metrics.ledger
        return RunResult(
            steps=self.step_index,
            max_height=self.metrics.max_height,
            argmax_node=self.metrics.tracker.argmax_node,
            argmax_step=self.metrics.tracker.argmax_step,
            injected=self.metrics.injected,
            delivered=self.metrics.delivered,
            in_flight=int(h.sum()),
            delay_summary=self.metrics.delays.summary(),
            dropped=ledger.total,
            drops_by_cause=ledger.by_cause(),
            drops_by_node=ledger.by_node(),
        )

    # ------------------------------------------------------------------
    def assert_capacity(self, heights: np.ndarray | None = None) -> None:
        """Finite-buffer invariant: no non-sink node above capacity.

        Trivially true with unbounded buffers; under a finite
        ``buffer_capacity`` every overflow discipline must keep every
        non-sink buffer at or below the capacity (the sink consumes
        instantly and holds nothing).
        """
        cap = self.buffer_capacity
        if cap is None:
            return
        h = self.heights if heights is None else heights
        over = np.flatnonzero(h > cap)
        if over.size:
            v = int(over[0])
            raise BufferOverflow(
                f"step {self.step_index}: node {v} holds {int(h[v])} "
                f"packets > buffer_capacity {cap}"
            )

    def assert_conservation(self, heights: np.ndarray | None = None) -> None:
        """Conservation ledger: injected == delivered + buffered + dropped.

        In the faithful model the dropped term is identically zero and
        this is the paper's zero-loss invariant; under the finite-buffer
        or fault extensions it is the extended law that every loss must
        be accounted to a node and a cause.  Also re-checks the
        finite-buffer capacity invariant (:meth:`assert_capacity`).
        """
        h = self.heights if heights is None else heights
        self.assert_capacity(h)
        in_flight = int(h.sum())
        ledger = self.metrics.ledger
        if not ledger.balanced(
            self.metrics.injected, self.metrics.delivered, in_flight
        ):
            raise ConservationViolation(
                f"step {self.step_index}: injected={self.metrics.injected} "
                f"!= delivered={self.metrics.delivered} + in_flight="
                f"{in_flight} + dropped={ledger.total} "
                f"(drops by cause: {ledger.by_cause()})"
            )

    @property
    def max_height(self) -> int:
        return self.metrics.max_height

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        """Deep snapshot (packets included) for scenario rollback.

        Includes the fault injector's replay state so orchestrating
        adversaries (Theorem 3.1) explore identical fault trajectories
        in both scenarios.  Policy/adversary state is *not* captured —
        use :meth:`snapshot` for full crash-resume fidelity.
        """
        return {
            "buffers": copy.deepcopy(self.buffers),
            "step": self.step_index,
            "next_pid": self._next_pid,
            "delivered_packets": copy.deepcopy(self.delivered_packets),
            "metrics": self.metrics.snapshot(),
            "faults": (
                self.faults.snapshot() if self.faults is not None else None
            ),
        }

    def snapshot(self) -> dict[str, Any]:
        """Full state for checkpoint/resume across an induced crash.

        Extends :meth:`checkpoint` with deep copies of the policy and
        adversary, so a restored run continues bit-identically to one
        that was never interrupted.
        """
        cp = self.checkpoint()
        cp["policy"] = copy.deepcopy(self.policy)
        cp["adversary"] = copy.deepcopy(self.adversary)
        return cp

    def restore(self, cp: dict[str, Any]) -> None:
        """Roll back to a previous :meth:`checkpoint` / :meth:`snapshot`.

        Refuses a checkpoint that does not fit with
        :class:`~repro.errors.CheckpointError`, as the height engines
        do (heights of another shape, or the other fault state), and
        is untouched then.
        """
        check_heights(
            np.asarray([b.height for b in cp["buffers"]], dtype=np.int64),
            (self.n,),
        )
        check_fault_state(cp.get("faults"), self.faults)
        self.buffers = copy.deepcopy(cp["buffers"])
        self._heights = self._derived_heights()
        self.step_index = cp["step"]
        self._next_pid = cp["next_pid"]
        self.delivered_packets = copy.deepcopy(cp["delivered_packets"])
        self.metrics.restore(cp["metrics"])
        if self.faults is not None:
            self.faults.restore(cp["faults"])
        if "policy" in cp:
            self.policy = copy.deepcopy(cp["policy"])
        if "adversary" in cp:
            self.adversary = copy.deepcopy(cp["adversary"])
