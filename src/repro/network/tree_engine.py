"""Vectorised height-only engine for arbitrary in-trees.

:class:`TreeEngine` runs the shared height kernel
(:class:`~repro.network.dag_engine._DagEngineCore`) on single-sink
in-trees with pure numpy height arithmetic — parent-pointer and depth
arrays plus scatter-adds (``np.add.at`` on ``topology.succ``) — instead
of per-packet objects, which is what lets the tree experiments (E7, E8,
E14 and the tree branch of E19) sweep into the n ≥ 2¹⁰ regimes where
logarithmic and polynomial bound shapes actually separate.  The kernel
brings finite buffers with all three overflow disciplines, fault plans
and the loss ledger, the batched :meth:`run`, optional
:class:`~repro.network.events.TraceRecorder` step records (what the
tree certifier consumes), ``result()``, the invariant asserts and the
checkpoint quartet.  What is the tree's own:

* each node sends ``send_counts`` packets (up to the link capacity c)
  to its static successor, checked under ``validate`` — for one run, or
  for every column of a fleet's node-major ``(n, runs)`` matrix, which
  is how :class:`~repro.network.fleet_engine.FleetEngine`'s vectorised
  lanes run on a TreeEngine instance;
* the static sender/receiver arrays and the receiver-first push-back
  order: senders in ascending depth (their receivers, one hop closer to
  the sink, settle first, and the sink itself never refuses), siblings
  sharing a receiver in ascending node id — exactly the deterministic
  order the Simulator uses, so refusals cascade away from the sink;
* the slice-shift move on the canonical path
  (``topology.is_canonical_path``), which is what
  :class:`~repro.network.engine_fast.PathEngine` runs on, and there one
  unbounded run's dense step for a pairwise rule: decide on views, move
  one mask;
* Algorithm 5's sibling-arbitration rule for the sparse loop, and a
  pairwise policy's scalar rule for the change-driven loop.

It is at full feature parity with the packet-tracking
:class:`~repro.network.simulator.Simulator`, which remains the semantic
reference (a Hypothesis suite pins the two to identical height
trajectories, delivered counts and loss ledgers on random trees).  The
only Simulator feature that has no height-only counterpart is
per-packet observability (delays, provenance, service disciplines) —
experiment E12 stays on the Simulator for that reason.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .buffers import Overflow
from .dag_engine import (
    DecisionTiming,
    LocalRule,
    SparseRule,
    _DagEngineCore,
    check_send_counts,
)
from .events import TraceRecorder
from .faults import FaultInjector, FaultPlan
from .topology import SINK_SUCC, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.base import Adversary
from ..policies.base import ForwardingPolicy, PairwisePolicy

__all__ = ["TreeEngine"]


class TreeEngine(_DagEngineCore):
    """Height-only synchronous engine on an arbitrary in-tree.

    Accepts the same ``(topology, policy, adversary)`` triple and the
    same keyword surface as the Simulator, so experiments port by
    swapping the class name.

    Parameters
    ----------
    policy / adversary:
        Any :class:`ForwardingPolicy`, whose ``send_counts`` decides;
        the adversary may be ``None`` for drain-only runs.
    capacity:
        Link capacity = injection rate ``c`` (§2).
    decision_timing:
        ``"pre_injection"`` computes forwarding decisions from the
        start-of-step configuration (the semantics analysed by the
        paper's proof, see DESIGN.md §3); ``"post_injection"`` lets
        decisions see the freshly injected packets.
    series_every / trace:
        Optional time-series sampling stride and full trace recording.
    buffer_capacity / overflow / faults:
        The degradation extensions (finite buffers with an overflow
        discipline; a deterministic fault plan).  All default to off.
    validate:
        Defaults to ``False`` (the convention for a sweep engine); turn
        it on to assert the conservation and capacity invariants after
        every step.
    """

    def __init__(
        self,
        topology: Topology,
        policy: ForwardingPolicy,
        adversary: Adversary | None,
        *,
        capacity: int = 1,
        injection_limit: int | None = None,
        decision_timing: DecisionTiming = "pre_injection",
        buffer_capacity: int | None = None,
        overflow: Overflow | str = Overflow.DROP_TAIL,
        faults: FaultPlan | FaultInjector | None = None,
        series_every: int = 0,
        trace: TraceRecorder | None = None,
        validate: bool = False,
    ) -> None:
        policy.check_capacity(capacity)
        self.capacity = int(capacity)
        self.trace = trace
        # static scatter geometry: who sends, where it lands, who feeds
        # the sink (the receiver-first order is derived from it)
        succ = topology.succ
        self._canonical = topology.is_canonical_path
        self._senders = np.flatnonzero(succ != SINK_SUCC)
        self._dest = succ[self._senders]
        self._pre_sink = np.flatnonzero(succ == topology.sink)
        super().__init__(
            topology, policy, adversary, decision_timing=decision_timing,
            # the (rho, sigma) model allows one-step bursts above the
            # link capacity; default is the plain rate-c adversary of §2.
            injection_limit=(
                capacity if injection_limit is None else injection_limit
            ),
            series_every=series_every, buffer_capacity=buffer_capacity,
            overflow=overflow, faults=faults, validate=validate,
        )

    def _receiver_first_order(self) -> np.ndarray:
        """Push-back settle order: senders in ascending ``(depth, id)``."""
        depth = self.topology.depth[self._senders]
        return self._senders[np.lexsort((self._senders, depth))]

    def _decide(self, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        counts = self.policy.send_counts(heights, self.topology, self.capacity)
        if self.validate:
            check_send_counts(
                counts, heights, self.capacity, self._sink, self.step_index
            )
        return counts, self.topology.succ

    def _move(
        self, h: np.ndarray, sends: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        h -= sends
        if self._canonical:
            # path(n): node v sends to v + 1, and a slice shift beats
            # the scatter-add on this hot path
            h[1:] += sends[:-1]
            h[-1] = 0
            return sends[-2]
        np.add.at(h, self._dest, sends[self._senders])
        h[self._sink] = 0
        return sends[self._pre_sink].sum(axis=0)

    def _mask_step(self, h: np.ndarray) -> tuple[Callable, Callable] | None:
        """One run of a pairwise rule on the canonical path: decide on
        views of ``h``, ``(h[:-1] > 0) & forwards(h[:-1], h[1:])`` into
        one preallocated mask, and move it with two in-place slice
        updates — what :meth:`_decide` and :meth:`_settle` compute,
        without the gather, the send-count checks and the temporaries
        in between.  ``forwards`` is the change-driven loop's rule.

        Finite buffers take it too.  A move after which no buffer holds
        more than the capacity refused nothing, and is then the
        unbounded move under every discipline (the fast loops' own
        test, see :meth:`_DagEngineCore._run_quiet`; the dense loop
        lands each site against the capacity itself).  A move that
        leaves a buffer above it is undone, and the step settles
        through :meth:`_settle`, which owns refusals and the ledger.
        """
        forwards = self._local_rule()
        if forwards is None or not self._canonical:
            return None
        mask = np.empty(self.n - 1, dtype=bool)
        senders, receivers = h[:-1], h[1:]
        cap = self.buffer_capacity

        def decide(_: np.ndarray) -> tuple[np.ndarray, None]:
            # a height is never negative, so a non-zero one holds
            # packets; the mask moves as the heights' dtype, since a
            # bool operand costs a cast in each of the two updates
            np.logical_and(senders, forwards(senders, receivers), out=mask)
            return mask.astype(h.dtype), None

        def settle(_: np.ndarray, sends: np.ndarray, __: Any,
                   ledgers: list) -> tuple:
            np.subtract(senders, sends, out=senders)
            np.add(receivers, sends, out=receivers)
            # the sink held nothing before the move, and now holds at
            # most one packet: within any capacity
            if cap is not None and h.max() > cap:
                np.subtract(receivers, sends, out=receivers)
                np.add(senders, sends, out=senders)
                full = np.zeros_like(h)
                full[:-1] = sends
                return self._settle(h, full, self.topology.succ, ledgers)
            h[-1] = 0
            return sends.item(-1), sends

        return decide, settle

    def _local_rule(self) -> LocalRule | None:
        """The policy's ``forwards`` when it is the whole decision: a
        :class:`PairwisePolicy` at c = 1 that keeps the default
        ``send_mask`` and ``send_counts`` (Odd-Even, Downhill,
        Downhill-or-Flat, FIE, the modular rules)."""
        cls = type(self.policy)
        if (
            self.capacity != 1 or not issubclass(cls, PairwisePolicy)
            or cls.send_mask is not PairwisePolicy.send_mask
            or cls.send_counts is not ForwardingPolicy.send_counts
        ):
            return None
        return self.policy.forwards

    def _sparse_rule(self) -> SparseRule | None:
        """Algorithm 5 over plain lists: sibling arbitration.

        Among the occupied children of each parent the highest wins
        (ties broken by the policy's tie rule, identical winners and
        parity rule to :meth:`TreeOddEvenPolicy.send_mask`), and the
        winner forwards under the odd/even rule.  A fixed tie rule
        finds each winner in one pass; round-robin ties gather the tied
        children and advance the policy's rotation once per step, as
        ``send_mask`` does.
        """
        from ..policies.tree import TreeOddEvenPolicy

        policy = self.policy
        if type(policy) is not TreeOddEvenPolicy or self.capacity != 1:
            return None
        succ_l = self.topology.succ.tolist()
        tie = policy.tie_rule
        lowest = tie == "min_id"

        def fixed_ties(
            hl: list[int], occ: set[int]
        ) -> list[tuple[int, int]]:
            # min_id / max_id: each parent's winner in one pass, no
            # candidate lists to build and sort
            win: dict[int, int] = {}
            for v in occ:
                p = succ_l[v]
                w = win.get(p)
                if w is None or hl[v] > hl[w] or (
                    hl[v] == hl[w] and (v < w) == lowest
                ):
                    win[p] = v
            moves = []
            for p, w in win.items():
                hw = hl[w]
                # odd height: forward iff parent <= h; even: strictly
                if hl[p] <= hw if hw & 1 else hl[p] < hw:
                    moves.append((w, p))
            return moves

        if tie != "round_robin":
            return fixed_ties

        def rule(hl: list[int], occ: set[int]) -> list[tuple[int, int]]:
            cands: dict[int, list[int]] = {}
            besth: dict[int, int] = {}
            for v in occ:
                hv = hl[v]
                p = succ_l[v]
                b = besth.get(p, 0)
                if hv > b:
                    besth[p] = hv
                    cands[p] = [v]
                elif hv == b:
                    cands[p].append(v)
            moves = []
            for p, group in cands.items():
                if len(group) > 1:
                    group.sort()  # set iteration scrambled the ids
                    w = group[policy._rotation % len(group)]
                else:
                    w = group[0]
                hw = besth[p]
                hp = hl[p]
                if hp <= hw if hw & 1 else hp < hw:
                    moves.append((w, p))
            policy._rotation += 1
            return moves

        return rule
