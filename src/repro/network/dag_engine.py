"""The shared height kernel, and the engines for single-sink DAGs (§6).

A directed path is an in-tree and an in-tree is a single-sink DAG of
out-degree 1, so every vectorised engine runs on one core,
:class:`_DagEngineCore`.  Its heights are one run's ``(n,)`` vector or
— for the vectorised lanes of
:class:`~repro.network.fleet_engine.FleetEngine` — a node-major
``(n, runs)`` matrix whose column ``r`` is run ``r``; node-indexed
expressions apply to both unchanged.  Each of these mechanisms exists
there once:

* finite ``buffer_capacity`` with the three overflow disciplines, the
  :class:`~repro.network.faults.FaultPlan` hooks and the
  :class:`~repro.network.metrics.LossLedger` conservation law;
* the injection mini-step, with pre-/post-injection decision timing;
* the settle step behind :meth:`~_DagEngineCore.step` and the dense
  loop: move, then find refusals once; push-back transfers settle
  receiver-first in :func:`resolve_push_back`, for refusing runs only;
* the batched :meth:`~_DagEngineCore.run`, how every engine advances
  many rounds: one schedule flattener, a change-driven loop for the
  1-local pairwise rules, a sparse-occupancy loop skeleton and one
  dense numpy loop, whose per-run records serve one run and a fleet
  alike.  Finite buffers take the first two loops until their first
  refusal, which the dense loop resolves.  A published
  :meth:`~repro.adversaries.base.Adversary.inject_schedule` is
  flattened once, an adaptive adversary is asked step by step inside
  the change-driven or dense loop, and a fault plan's quiet stretches
  run batched;
* the steady-state fast-forward (:class:`_Lap`): a run whose policy
  keeps no state and whose injections repeat skips the laps of a
  configuration it has already visited;
* ``result()``, one capacity and conservation check, and the checkpoint
  quartet, whose ``restore`` refuses a checkpoint that does not fit the
  engine.

An engine supplies only how it decides, how its packets land, and its
sparse or pairwise rule: :class:`~repro.network.tree_engine.TreeEngine` sends
``send_counts`` packets to each node's static successor (and
:class:`~repro.network.engine_fast.PathEngine` is TreeEngine on the
canonical path); :class:`DagEngine` sends one packet along the out-edge
its :class:`DagPolicy` chooses per step.

DAG model: the natural extension of §2 — each *edge* carries at most
c = 1 packet per step; a node holding packets may, per step, forward at
most one packet along *one* of its out-edges (keeping the per-node
service rate of the path/tree model, so results are comparable); the
policy chooses the edge.  Decisions are simultaneous on a height
snapshot.  DAG policies implement :class:`DagPolicy.choose`: given the
heights, return for every node either the chosen out-neighbour or -1
(hold).  Because that choice is dynamic, the DAG engine has no static
sender/destination geometry; its scatter targets are the policy's
per-step choices.

:class:`DagLoopEngine` is the pinned per-node loop reference the
Hypothesis parity suite (``tests/property/test_dag_engine_parity``)
compares :class:`DagEngine` against, trajectory for trajectory; it keeps
its own step and push-back sweep and never takes the batched path.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import operator
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Literal, Sequence

import numpy as np

from .buffers import Overflow, coerce_overflow
from .dag import DagTopology
from .events import StepRecord, TraceRecorder
from .faults import NO_FAULTS, FaultInjector, FaultPlan, StepFaults
from .metrics import LossLedger, MetricsBundle
from .validation import validate_injections

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import RunResult
    from .topology import Topology
from ..errors import (
    BufferOverflow,
    CheckpointError,
    ConservationViolation,
    SimulationError,
)

__all__ = [
    "DagPolicy",
    "DagEngine",
    "DagLoopEngine",
    "check_fault_state",
    "check_heights",
    "check_send_counts",
    "check_settings",
    "resolve_push_back",
]

DecisionTiming = Literal["pre_injection", "post_injection"]

#: delay summary of a height-only run: per-packet delays are
#: unobservable without packet identity, so the summary is the empty
#: DelayRecorder's NaN shape
_NO_DELAYS = {
    "count": 0, "mean": float("nan"), "p50": float("nan"),
    "p95": float("nan"), "p99": float("nan"), "max": float("nan"),
}

#: a fleet's injection batch longer than this lands through one
#: ``np.add.at`` call instead of a Python loop over its flat indices
_SHORT_BATCH = 16

#: ``rule(heights, occupied)`` -> the step's (sender, receiver) moves
SparseRule = Callable[[list[int], set[int]], list[tuple[int, int]]]

#: ``forwards(h_v, h_succ)`` on two ints: does a non-empty node send?
LocalRule = Callable[[int, int], Any]

#: how many candidate periods :func:`_schedule_period` tries
_PERIOD_TRIES = 4

#: a :class:`_Lap` compares at most every this many steps (a multiple
#: of the period), so a period-1 run pays one check per 16 steps
_LAP_STRIDE = 16


class DagPolicy(ABC):
    """Forwarding rule for DAGs: pick an out-edge (or hold) per node."""

    name: str = "abstract-dag"
    locality: int | None = 1
    #: ``choose`` is a function of the heights alone (see
    #: :attr:`repro.policies.base.ForwardingPolicy.stateless`)
    stateless: bool = False

    def reset(self, dag: DagTopology) -> None:
        """Hook called once before a run."""

    def observe_injections(self, sites: tuple[int, ...]) -> None:
        """Called each step with its injection sites; local DAG
        policies ignore it (the engine skips it in batched runs)."""

    @abstractmethod
    def choose(self, heights: np.ndarray, dag: DagTopology) -> np.ndarray:
        """``target[v]`` = out-neighbour to send to, or -1 to hold.

        Nodes with empty buffers and the sink must hold; the engine
        validates.  ``heights`` must not be mutated.
        """


def resolve_push_back(
    heights: np.ndarray,
    sends: np.ndarray,
    receivers: np.ndarray,
    order: np.ndarray,
    cap: int,
    sink: int,
) -> np.ndarray:
    """Effective sends of one run under :attr:`Overflow.PUSH_BACK`.

    A send into a full buffer is refused and the packet stays with its
    sender, where it keeps occupying a slot — so refusals cascade away
    from the sink.  ``receivers[v]`` is where node ``v`` sends (its tree
    parent, or the out-neighbour a DAG policy chose this step) and
    ``order`` lists every non-sink node receiver-first: a node settles
    only after its receiver has settled its own sends and its requeued
    refusals, and senders sharing a receiver fill its remaining room in
    ``order`` — on trees ascending ``(depth, id)``, exactly the
    deterministic order the packet Simulator resolves its ``moving``
    list in.  The sink never refuses.  Only the kernel's settle step
    calls this, and only for a run in which some buffer refuses.
    """
    eff = sends.tolist()
    # room after each node popped its own sends; refusals put packets
    # back and shrink it again as the sweep proceeds
    free = (cap - heights + sends).tolist()
    free[sink] = float("inf")  # the sink never refuses
    to = receivers.tolist()
    for v in order.tolist():
        k = eff[v]
        if k:
            p = to[v]
            a = min(k, max(free[p], 0))
            if a < k:
                eff[v] = a
                free[v] -= k - a  # requeued packets occupy slots again
            free[p] -= a
    return np.asarray(eff, dtype=sends.dtype)


def check_heights(heights: Any, shape: tuple[int, ...]) -> None:
    """Refuse checkpoint heights that do not fit an engine.

    Raises
    ------
    CheckpointError
        If ``heights`` is not an array of ``shape``, has a non-integer
        dtype, or has a negative entry — before any state is touched,
        instead of deferring the failure to an arbitrary later step.
    """
    if not isinstance(heights, np.ndarray) or heights.shape != shape:
        raise CheckpointError(
            "refusing to restore: checkpoint heights shape "
            f"{getattr(heights, 'shape', None)} does not match the "
            f"engine's {shape}"
        )
    if not np.issubdtype(heights.dtype, np.integer):
        raise CheckpointError(
            "refusing to restore: checkpoint heights dtype "
            f"{heights.dtype} is not an integer type"
        )
    if (heights < 0).any():
        at = [int(i) for i in np.argwhere(heights < 0)[0]]
        raise CheckpointError(
            "refusing to restore: checkpoint heights are negative at "
            f"node {at[-1]}" + (f" of row {at[0]}" if len(at) > 1 else "")
        )


def check_fault_state(saved: Any, faults: Any) -> None:
    """Refuse a checkpoint whose fault state (``saved``) does not match
    the engine's injector (``faults``): one was taken with a fault plan
    and the other runs without one."""
    if (saved is None) != (faults is None):
        raise CheckpointError(
            "refusing to restore: the checkpoint was taken "
            + ("without" if faults is not None else "with")
            + " a fault plan and this engine runs "
            + ("with" if faults is not None else "without")
            + " one"
        )


def check_settings(
    decision_timing: str, buffer_capacity: int | None
) -> int | None:
    """Validate the decision timing; return the buffer capacity, an
    int >= 1 or ``None`` for unbounded buffers."""
    if decision_timing not in ("pre_injection", "post_injection"):
        raise SimulationError(f"unknown decision timing {decision_timing!r}")
    if buffer_capacity is not None and int(buffer_capacity) < 1:
        raise SimulationError(
            f"buffer_capacity must be >= 1 or None, got {buffer_capacity}"
        )
    return None if buffer_capacity is None else int(buffer_capacity)


def check_send_counts(
    counts: np.ndarray, heights: np.ndarray, capacity: int, sink: int,
    step: int,
) -> None:
    """``validate=True`` checks of ``send_counts`` output (one run or a
    node-major ``(n, runs)`` fleet matrix): counts within
    ``[0, capacity]``, no send from an empty buffer, nothing forwarded
    by the sink."""
    if counts.min(initial=0) < 0 or counts.max(initial=0) > capacity:
        raise SimulationError("policy produced an illegal send count")
    if (counts > heights).any():
        raise SimulationError("policy sent from an empty buffer")
    if counts[sink].any():
        raise SimulationError(
            f"step {step}: the sink (node {sink}) cannot forward packets"
        )


def check_capacity(
    heights: np.ndarray, cap: int | None, step: int,
    labels: Sequence[int] | None = None,
) -> None:
    """No node of ``(n,)`` or ``(n, runs)`` heights above ``cap``;
    ``labels`` names a fleet's runs in the message."""
    if cap is None:
        return
    per_run = heights.reshape(len(heights), -1).T
    over = np.argwhere(per_run > cap)
    if over.size:
        i, v = (int(x) for x in over[0])
        run = "" if labels is None else f"run {labels[i]} "
        raise BufferOverflow(
            f"step {step}: {run}node {v} holds {int(per_run[i, v])} "
            f"packets > buffer_capacity {cap}"
        )


def _record_overflow(
    ledgers: list[LossLedger], refused: np.ndarray,
    drops: dict[tuple[int, str], int] | None = None,
) -> None:
    """Account node-major ``refused`` packets (run ``r``'s node ``v`` at
    flat index ``v·runs + r``) to the runs' ledgers and a trace's tally."""
    per_run = refused.reshape(-1, len(ledgers))
    for v, r in zip(*np.nonzero(per_run)):
        node, k = int(v), int(per_run[v, r])
        ledgers[r].record(node, "overflow", k)
        if drops is not None:
            drops[(node, "overflow")] = drops.get((node, "overflow"), 0) + k


def _schedule_period(batches: list) -> tuple[int, int] | None:
    """``(start, period)`` such that ``batches[t]`` and
    ``batches[t + period]`` are one batch for every ``t >= start``, or
    ``None`` when no tail of the schedule repeats.

    ``batches`` are one run's flattened batches, in which equal sites
    are one tuple object, so ``==`` between them compares identities.
    The candidate periods are the distances from the last batch back to
    its earlier occurrences, nearest first; one is taken when the last
    two periods agree, and its tail is then extended backwards as far
    as it repeats (a binary search: every suffix of a repeating tail
    repeats).
    """
    size = len(batches)
    if size < 2:
        return None
    rev = batches[::-1]
    p = 0
    for _ in range(_PERIOD_TRIES):
        try:
            p = rev.index(rev[0], p + 1)
        except ValueError:
            return None
        if 2 * p > size:
            return None
        if rev[:p] == rev[p:2 * p]:
            break
    else:
        return None
    if batches[:size - p] == batches[p:]:
        return 0, p
    lo, hi = 1, size - 2 * p
    while lo < hi:
        mid = (lo + hi) // 2
        if batches[mid:size - p] == batches[mid + p:]:
            hi = mid
        else:
            lo = mid + 1
    return lo, p


def _advance(it: Any, k: int) -> None:
    """Consume ``k`` items of the iterator ``it``."""
    next(itertools.islice(it, k, k), None)


def _meets_full(hl: list[int], sites: Sequence[int], cap: int) -> bool:
    """Would a site of ``sites``, landing one by one on the list heights
    ``hl``, meet a buffer already holding ``cap`` packets (which the
    injection mini-step refuses)?"""
    return any(hl[s] + sites[:i].count(s) >= cap for i, s in enumerate(sites))


def _plain(batches: Iterable[tuple], topology: Any, limit: int) -> bool:
    """Would :func:`~repro.network.validation.validate_injections` pass
    every batch unchanged: at most ``limit`` sites each, and every site
    a plain int naming a node other than the sink?"""
    if max(map(len, batches), default=0) > limit:
        return False
    n, sink = topology.n, topology.sink
    return all(
        type(s) is int and 0 <= s < n and s != sink
        for s in set(itertools.chain.from_iterable(batches))
    )


def _observes(policy: Any) -> bool:
    """Does ``policy`` override the documented no-op
    ``observe_injections``?"""
    from ..policies.base import ForwardingPolicy

    return type(policy).observe_injections not in (
        ForwardingPolicy.observe_injections, DagPolicy.observe_injections,
    )


#: a run's records, named as :class:`~repro.network.simulator.RunResult`
#: fields
_RECORDS = (
    "max_height", "argmax_node", "argmax_step", "injected", "delivered",
)


class _Rows:
    """Per-run records of the dense loop: one column per run.

    A fleet's runs are the columns of its ``(n, runs)`` height matrix;
    a lone engine's run is a one-column view of its
    :class:`~repro.network.metrics.MetricsBundle` (:meth:`of`, then
    :meth:`into`).  ``low`` is the lowest record height: no run can set
    a record in a step whose highest buffer does not top it.
    """

    def __init__(
        self, per_node_max: np.ndarray, ledgers: list[LossLedger],
        labels: Sequence[int] | None = None, records=(0, -1, -1, 0, 0),
    ) -> None:
        self.per_node_max = per_node_max
        self.ledgers = ledgers
        self.labels = labels  # a fleet's run indices, for messages
        self._set(np.array([[v] * len(ledgers) for v in records]))

    def _set(self, rec: np.ndarray) -> None:
        self.rec = rec.astype(np.int64)
        for key, row in zip(_RECORDS, self.rec):
            setattr(self, key, row)  # views: in-place updates land in rec
        self.low = int(self.max_height.min()) if self.rec.shape[1] else 0

    @classmethod
    def of(cls, metrics: MetricsBundle) -> "_Rows":
        t = metrics.tracker
        return cls(t.per_node_max, [metrics.ledger], None, (
            t.max_height, t.argmax_node, t.argmax_step, metrics.injected,
            metrics.delivered,
        ))

    def into(self, metrics: MetricsBundle) -> None:
        t = metrics.tracker
        (t.max_height, t.argmax_node, t.argmax_step, metrics.injected,
         metrics.delivered) = (int(v) for v in self.rec[:, 0])

    def observe(self, heights: np.ndarray, step: int) -> None:
        """Strict-greater record updates, first-argmax tie break (the
        :class:`~repro.network.metrics.MaxHeightTracker` semantics).

        Records are found by comparing against them, not by column
        maxima: numpy reduces a narrow node-major matrix along its node
        axis an order of magnitude slower than it compares it."""
        h = heights.reshape(len(heights), -1)
        above = h > self.max_height
        if not above.any():
            return
        for r in np.flatnonzero(above.any(axis=0)):
            self.max_height[r] = h[:, r].max()
            self.argmax_node[r] = h[:, r].argmax()
            self.argmax_step[r] = step
        self.low = int(self.max_height.min())

    def check(self, heights: np.ndarray, cap: int | None, step: int) -> None:
        """Capacity, then each run's conservation law."""
        check_capacity(heights, cap, step, self.labels)
        in_flight = heights.reshape(len(heights), -1).sum(axis=0)
        for i, ledger in enumerate(self.ledgers):
            injected, delivered = int(self.injected[i]), int(self.delivered[i])
            if not ledger.balanced(injected, delivered, int(in_flight[i])):
                run = "" if self.labels is None else f"run {self.labels[i]}: "
                raise ConservationViolation(
                    f"step {step}: {run}injected={injected} != delivered="
                    f"{delivered} + in_flight={int(in_flight[i])} + dropped="
                    f"{ledger.total} (drops by cause: {ledger.by_cause()})"
                )

    def result(self, i: int, steps: int, in_flight: int) -> "RunResult":
        """Run ``i``'s summary in the Simulator's shape; per-packet
        delays are unobservable here, so ``delay_summary`` is the empty
        recorder's NaN summary."""
        # lazy: the simulator imports the policy package, which imports
        # this module for DagPolicy — a top-level import cycles
        from .simulator import RunResult

        ledger = self.ledgers[i]
        return RunResult(
            steps=int(steps), in_flight=int(in_flight),
            **{key: int(v) for key, v in zip(_RECORDS, self.rec[:, i])},
            delay_summary=dict(_NO_DELAYS), dropped=ledger.total,
            drops_by_cause=ledger.by_cause(), drops_by_node=ledger.by_node(),
        )

    def snapshot(self) -> dict[str, Any]:
        """The records in the durable fleet layout (``(runs, n)``)."""
        return {
            "per_node_max": self.per_node_max.T.copy(),
            **dict(zip(_RECORDS, self.rec.copy())),
            "ledgers": [led.snapshot() for led in self.ledgers],
        }

    def restore(self, cp: dict[str, Any]) -> None:
        self.per_node_max = np.array(cp["per_node_max"].T, order="C")
        self._set(np.array([cp[key] for key in _RECORDS]))
        for led, snap in zip(self.ledgers, cp["ledgers"]):
            led.restore(snap)


class _Lap:
    """Steady-state detection for one run of the batched loops.

    From step ``start`` on, the loop's injections repeat with period
    ``period`` and its policy keeps no state, so a configuration is the
    heights plus the step's phase: two in-phase configurations with
    equal heights have equal futures.  The loop offers its heights to
    :meth:`check` every :attr:`stride` steps from :attr:`next` on — the
    least multiple of the period that is at least :data:`_LAP_STRIDE`.
    The anchor they are compared with doubles its distance as in
    Brent's cycle detection, and the array comparison sits behind a
    scalar one — equal heights hold as many packets, and the packets in
    flight are what came in minus what left — so a run whose backlog
    keeps changing does no array work.

    ``fed`` is the number of packets one period injects, or ``None``
    when the loop counts its injections and passes the count to
    :meth:`check`; ``ledger`` is the run's loss ledger when packets can
    drop (finite buffers).  On a repeat the loop skips the whole laps
    that fit before step ``end``: :meth:`repeat` adds their drops to the
    ledger, and the loop advances its step, delivered and injected
    counts by the laps times a lap's.  Heights, per-node maxima and the
    max-height records stay as they are: every skipped configuration
    was already observed, and a record moves only on a strictly greater
    height.
    """

    def __init__(
        self, start: int, period: int, now: int, end: int, *,
        fed: int | None = None, ledger: LossLedger | None = None,
        listed: bool = False,
    ) -> None:
        self.stride = stride = period * -(-_LAP_STRIDE // period)
        # the first in-phase step after ``now``
        self.next = start if start > now else (
            now + ((start - now) % stride or stride)
        )
        self.end = end
        self.fed = None if fed is None else fed * (stride // period)
        self.ledger = ledger
        self._copy, self._same = (
            (list.copy, operator.eq) if listed
            else (np.ndarray.copy, np.array_equal)
        )
        self._power = 1
        self._lam = 0
        self._anchor: Any = None
        self.skipped = False

    def check(self, heights: Any, delivered: Any, came: int = 0) -> int:
        """The lap length, in steps, if ``heights`` repeat the anchor's
        configuration; else 0 (and the anchor may move).  ``delivered``
        counts the loop's deliveries so far, ``came`` its injections
        when :attr:`fed` is ``None``."""
        dropped = 0 if self.ledger is None else self.ledger.total
        if self._anchor is not None:
            self._lam += 1
            fed = came - self.came if self.fed is None else self._lam * self.fed
            if (
                fed == delivered - self.delivered + dropped - self.dropped
                and self._same(heights, self._anchor)
            ):
                return self._lam * self.stride
            if self._lam < self._power:
                return 0
            self._power *= 2
        self._anchor = self._copy(heights)
        self.delivered, self.dropped, self.came = delivered, dropped, came
        self._lam = 0
        if self.ledger is not None:
            self.drops = self.ledger.detail()
        return 0

    def repeat(self, step: int, length: int) -> int:
        """How many laps of ``length`` steps fit between ``step`` and
        :attr:`end`; their drops (the anchor's lap's, that many times)
        go into the ledger."""
        self.skipped = True
        laps = (self.end - step) // length
        if self.ledger is not None:
            for cause, per_node in self.ledger.detail().items():
                before = self.drops.get(cause, {})
                for node, k in per_node.items():
                    self.ledger.record(
                        node, cause, laps * (k - before.get(node, 0))
                    )
        return laps


class _Durable:
    """Durable checkpoints over ``snapshot()`` / ``restore()``."""

    def save_checkpoint(self, path):
        """Persist :meth:`snapshot` to a durable, checksummed file.

        Atomic write (temp + fsync + rename); see
        :mod:`repro.io.checkpoint` for the format and failure modes.
        """
        from ..io.checkpoint import save_checkpoint

        return save_checkpoint(self, path)

    def load_checkpoint(self, path) -> dict[str, Any]:
        """Restore state saved by :meth:`save_checkpoint`.

        Raises :class:`~repro.errors.CheckpointError` (naming the file
        and the diagnosis) on corruption, truncation, schema-version or
        engine-class mismatch, and (from ``restore``) on state that
        does not fit this engine; the engine is untouched on failure.
        """
        from ..io.checkpoint import load_checkpoint

        return load_checkpoint(self, path)


class _DagEngineCore(_Durable):
    """The height kernel every vectorised single-run engine runs on
    (the module docstring lists what it holds once).

    A subclass supplies :meth:`_decide`, :meth:`_move` and optionally
    :meth:`_sparse_rule` or :meth:`_local_rule`; its constructor may
    widen the keyword surface
    (TreeEngine adds ``capacity`` and ``trace``).
    """

    #: per-node service rate, as on paths/trees (TreeEngine sets c)
    capacity = 1
    trace: TraceRecorder | None = None
    # how many occupied nodes the pure-Python sparse loop tolerates
    # before handing the remaining steps to the numpy loop: beyond
    # this, O(occupied·degree) Python work loses to O(n) C work
    _SPARSE_OCCUPANCY_LIMIT = 256
    # how many buffers one step may change before the change-driven
    # loop hands the remaining steps to the numpy loop: a changed
    # buffer costs 0.5-1 µs of Python, a dense step 8-26 µs
    _CHANGE_LIMIT = 16

    def __init__(
        self,
        dag: DagTopology | Topology,
        policy: Any,
        adversary=None,
        *,
        decision_timing: DecisionTiming = "pre_injection",
        injection_limit: int = 1,
        series_every: int = 0,
        buffer_capacity: int | None = None,
        overflow: Overflow | str = Overflow.DROP_TAIL,
        faults: FaultPlan | FaultInjector | None = None,
        validate: bool = False,
    ) -> None:
        self.buffer_capacity = check_settings(decision_timing, buffer_capacity)
        self.topology: Any = dag
        self.policy = policy
        self.adversary = adversary
        self.decision_timing: DecisionTiming = decision_timing
        self.injection_limit = int(injection_limit)
        self.overflow = coerce_overflow(overflow)
        if isinstance(faults, FaultInjector):
            self.faults: FaultInjector | None = faults
        elif faults is not None:
            self.faults = FaultInjector(faults, self.topology)
        else:
            self.faults = None
        self.validate = validate
        self._sink = int(dag.sink)
        self._pb_order = self._receiver_first_order()
        self.heights = np.zeros(dag.n, dtype=np.int64)
        self.step_index = 0
        self.metrics = MetricsBundle.for_n(dag.n, series_every)
        policy.reset(dag)
        if adversary is not None:
            # tree-style adversaries need .children/.leaves etc.; DAG
            # workloads use the duck-typed subset (sink, n, depth)
            adversary.reset(dag, self.injection_limit)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def sink(self) -> int:
        return self._sink

    @property
    def max_height(self) -> int:
        return self.metrics.max_height

    def _receiver_first_order(self) -> np.ndarray:
        """Push-back settle order: priority-topological by (depth, id).

        Kahn's algorithm from the sink over reversed edges, always
        popping the *ready* node (all out-neighbours already settled)
        with minimal ``(depth, id)``.  On an in-tree every out-neighbour
        is strictly shallower, so this reduces to plain ascending
        (depth, id) — exactly TreeEngine's order.  On a general DAG,
        ``depth`` alone is not well-founded (an out-edge may point
        sideways to an equal-depth node, since depth is
        shortest-hops-to-sink); the topological constraint guarantees
        every receiver has settled before its sender is swept.  The
        sink is omitted: it never sends and never refuses.
        """
        dag = self.topology
        rev: list[list[int]] = [[] for _ in range(dag.n)]
        pending = [0] * dag.n  # out-neighbours not yet settled
        for v, outs in enumerate(dag.out_edges):
            pending[v] = len(outs)
            for u in outs:
                rev[u].append(v)
        heap: list[tuple[int, int]] = [(0, dag.sink)]
        order: list[int] = []
        while heap:
            _, u = heapq.heappop(heap)
            order.append(u)
            for w in rev[u]:
                pending[w] -= 1
                if pending[w] == 0:
                    heapq.heappush(heap, (int(dag.depth[w]), w))
        return np.asarray([v for v in order if v != dag.sink], dtype=np.int64)

    def _decide(self, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(sends, receivers)``: packets node ``v`` sends, and where."""
        raise NotImplementedError

    def _move(
        self, h: np.ndarray, sends: np.ndarray, receivers: np.ndarray
    ) -> Any:
        """Apply ``sends`` to ``h`` in place (the sink consumes what
        reaches it); return the number of packets delivered, per run
        when ``h`` is a fleet's ``(n, runs)`` matrix."""
        raise NotImplementedError

    def _sparse_rule(self) -> SparseRule | None:
        """The policy's rule over plain-Python heights, or ``None``."""
        return None

    def _local_rule(self) -> LocalRule | None:
        """The policy's scalar pairwise rule for :meth:`_run_changes`, or
        ``None``."""
        return None

    def _mask_step(self, h: np.ndarray) -> tuple[Callable, Callable] | None:
        """A ``(decide, settle)`` pair that replaces :meth:`_decide` and
        :meth:`_settle` in the dense loop over one run's heights ``h``,
        or ``None``."""
        return None

    # ------------------------------------------------------------------
    def _begin_step(
        self, injections: tuple[int, ...] | None
    ) -> tuple[StepFaults, tuple[int, ...], dict[tuple[int, str], int]]:
        """Fault hooks and the adversary's turn, before any decision.

        Returns the step's faults, its validated injection sites (wiped
        buffers emptied, deferred injections released) and the drop
        tally a trace record reports.  Raises
        :class:`~repro.errors.FaultError` if the fault plan kills the
        run at this step, before any state is mutated.
        """
        fault = (
            self.faults.begin_step(self.step_index)
            if self.faults is not None
            else NO_FAULTS
        )
        h = self.heights
        drops: dict[tuple[int, str], int] = {}
        for v in fault.wiped:
            k = int(h[v])
            if k:
                self.metrics.ledger.record(v, "wipe", k)
                drops[(v, "wipe")] = k
                h[v] = 0
        if injections is not None:
            batch = validate_injections(
                injections, self.topology, self.injection_limit,
                step=self.step_index,
            )
        elif self.adversary is not None:
            batch = validate_injections(
                self.adversary.inject(self.step_index, h, self.topology),
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
        return fault, sites, drops

    def _inject(
        self,
        sites: tuple[int, ...],
        fault: StepFaults,
        drops: dict[tuple[int, str], int],
    ) -> None:
        """The injection mini-step: land ``sites`` on the heights."""
        h = self.heights
        cap = self.buffer_capacity
        if not fault.crashed and cap is None:
            for s in sites:  # the seed fast path, untouched
                h[s] += 1
            return
        for s in sites:
            if s in fault.crashed:
                cause = "crash"
            elif cap is not None and h[s] >= cap:
                # push-back buffers drop-tail adversary traffic too:
                # there is no upstream sender to hold the packet
                cause = "overflow"
            else:
                h[s] += 1
                continue
            self.metrics.ledger.record(s, cause)
            drops[(s, cause)] = drops.get((s, cause), 0) + 1

    def step(self, injections: tuple[int, ...] | None = None) -> None:
        """Advance one round (injection mini-step, then forwarding).

        ``injections`` overrides the adversary for this step — used by
        orchestrating adversaries (Theorem 3.1) that drive the engine
        directly with checkpoints.

        Raises
        ------
        FaultError
            If the fault plan kills the run at this step (before any
            state is mutated, so a snapshot-resume is clean).
        """
        h = self.heights
        before = h.copy() if self.trace is not None else None
        fault, sites, drops = self._begin_step(injections)
        if self.decision_timing == "pre_injection":
            sends, receivers = self._decide(h)
            self._inject(sites, fault, drops)
        else:
            self._inject(sites, fault, drops)
            sends, receivers = self._decide(h)
        if fault.blocked:
            sends = np.array(sends, dtype=np.int64)
            sends[list(fault.blocked)] = 0
        self.metrics.injected += len(sites)
        delivered, sends = self._settle(
            h, sends, receivers, [self.metrics.ledger], drops
        )
        delivered = int(delivered)
        self.metrics.delivered += delivered

        self.step_index += 1
        self.metrics.observe(self.step_index, h)
        if self.validate:
            self.assert_conservation()
        if self.trace is not None:
            self.trace.append(
                StepRecord(
                    step=self.step_index - 1,
                    heights_before=before,
                    injections=sites,
                    sends=sends.copy(),
                    heights_after=h.copy(),
                    delivered=delivered,
                    dropped=sum(drops.values()),
                    drops=tuple(
                        (node, cause, k)
                        for (node, cause), k in sorted(drops.items())
                    ),
                )
            )

    def _settle(
        self,
        h: np.ndarray,
        sends: np.ndarray,
        receivers: np.ndarray,
        ledgers: list[LossLedger],
        drops: dict[tuple[int, str], int] | None = None,
    ) -> tuple[Any, np.ndarray]:
        """Move ``sends`` on one run's ``(n,)`` heights or a fleet's
        ``(n, runs)`` matrix; return what reached the sink (per run)
        and the sends that moved.

        With finite buffers the refusals are found once: arrivals beyond
        the room a node's own sends left.  Drop-tail and drop-oldest
        (same height dynamics) drop them at the receiver.  Under
        push-back the heights go back, :func:`resolve_push_back` settles
        each refusing run receiver-first, and the effective sends move.
        """
        cap = self.buffer_capacity
        if cap is None:
            return self._move(h, sends, receivers), sends
        base = h - sends
        delivered = self._move(h, sends, receivers)
        refused = np.maximum(h - base - np.maximum(cap - base, 0), 0)
        if not refused.any():
            return delivered, sends
        if self.overflow is not Overflow.PUSH_BACK:
            h -= refused
            _record_overflow(ledgers, refused, drops)
            return delivered, sends
        np.add(base, sends, out=h)
        sends = sends.copy()
        n = len(h)
        per_run = h.reshape(n, -1), sends.reshape(n, -1)
        for r in np.flatnonzero(refused.reshape(n, -1).any(axis=0)):
            heights, effective = (a[:, r] for a in per_run)
            effective[:] = resolve_push_back(
                heights, effective, receivers, self._pb_order, cap,
                self._sink,
            )
        return self._move(h, sends, receivers), sends

    # ------------------------------------------------------------------
    def run(self, steps: int) -> "_DagEngineCore":
        """Advance ``steps`` rounds; returns self for chaining.

        How every kernel engine advances many rounds.  Unless a trace or
        ``validate`` asks for per-step records (then every round is a
        :meth:`step`), the rounds run through the sparse and dense loops
        (:meth:`_run_quiet`); under a fault plan only the steps its
        injector does not report quiet
        (:meth:`~repro.network.faults.FaultInjector.quiet_steps`) go
        through :meth:`step`.  Bit-identical to stepping (pinned by
        tests), and so is the steady-state fast-forward inside the
        loops (:class:`_Lap`): purely a throughput optimisation.
        """
        if self.trace is not None or self.validate:
            for _ in range(steps):
                self.step()
            return self
        end = self.step_index + steps
        while self.step_index < end:
            quiet = end - self.step_index
            if self.faults is not None:
                quiet = self.faults.quiet_steps(self.step_index, quiet)
            if quiet:
                self._run_quiet(quiet)
            else:
                self.step()
        return self

    def _run_quiet(self, steps: int) -> None:
        """``steps`` rounds no fault touches: the sparse or change-driven
        loop while it can, then the dense loop.

        A published schedule is flattened once; an adversary that
        publishes none is asked step by step (:meth:`_live`), by the
        change-driven loop or the dense loop.  A run whose policy keeps
        no state (its ``stateless`` declaration, and no
        ``observe_injections``) and records no series is watched for a
        repeat when its schedule has a repeating tail
        (:func:`_schedule_period`) or its adversary declares
        ``heights_only`` (period 1).

        Finite buffers take the sparse and change-driven loops too: a
        step in which no site lands on a full buffer and no buffer ends
        above capacity refuses nothing, and is then exactly the
        unbounded step under every discipline.  Those loops check both
        before they commit a step and hand the first step that would
        refuse, and every step after it, to the dense loop, which owns
        refusals and the loss ledger.
        """
        adv = self.adversary
        start, end = self.step_index, self.step_index + steps
        schedule = (
            None if adv is None
            else adv.inject_schedule(start, steps, self.topology)
        )
        cap = self.buffer_capacity
        series = self.metrics.series.enabled
        watch = (
            not series and getattr(self.policy, "stateless", False)
            and not _observes(self.policy)
        )
        ledger = None if cap is None else self.metrics.ledger
        # the fast loops start only from heights within the capacity
        # (a restored checkpoint need not be)
        fits = cap is None or int(self.heights.max(initial=0)) <= cap
        forwards = self._local_rule() if watch and fits else None
        if schedule is None and adv is not None:
            came = [0]
            asked = self._live(end, came)
            steady = watch and adv.heights_only
            if forwards is not None:
                lap = _Lap(start, 1, start, end, listed=True) if steady else None
                self._run_changes(asked, forwards, lap, live=True)
                if self.step_index == end:
                    return
                came[0] = 0  # the change-driven loop counted its own
                steady = steady and not lap.skipped  # type: ignore[union-attr]
            lap = (
                _Lap(self.step_index, 1, self.step_index, end, ledger=ledger)
                if steady else None
            )
            self._run_rows(asked, None, lap, came)
            return
        batches, _ = self._flatten(
            [None if adv is None else (adv, schedule, self.injection_limit)],
            steps,
        )
        period = _schedule_period(batches) if watch else None
        if period is not None:
            first, p = period
            # every in-phase window of the tail injects as many packets
            fed = sum(map(len, batches[first:first + p]))
        rule = None if series or not fits else self._sparse_rule()
        if rule is not None or forwards is not None:
            lap = None if period is None else _Lap(
                start + first, p, start, end, listed=True
            )
            if forwards is not None:
                done = self._run_changes(batches, forwards, lap)
            else:
                assert rule is not None
                done = self._run_sparse(batches, rule, lap)
            batches = batches[done:]
            if lap is not None and lap.skipped:
                period = None
        if not batches:
            return
        lap = None if period is None else _Lap(
            start + first, p, self.step_index, end, fed=fed, ledger=ledger
        )
        self._run_rows(batches, sum(map(len, batches)), lap)

    def _run_rows(
        self, batches: Iterable, injected: Any, lap: _Lap | None,
        came: list[int] | None = None,
    ) -> None:
        """One run's dense loop, with its records in a one-column view
        of the metrics, committed even if a step raises."""
        rows = _Rows.of(self.metrics)
        try:
            self._run_dense(batches, rows, injected, lap, came)
        finally:
            rows.into(self.metrics)

    def _live(self, end: int, came: list[int]):
        """The adversary's sites for every step before ``end``, asked
        from the live heights and validated as :meth:`step` validates
        them; ``came[0]`` tallies the sites handed out.  A loop that
        hands a step back uncommitted leaves ``step_index`` where it
        was, and the next loop gets the same batch again: the adversary
        is asked once per step."""
        adv, topo, limit = self.adversary, self.topology, self.injection_limit
        h = self.heights
        asked = -1
        sites: tuple[int, ...] = ()
        while self.step_index < end:
            if self.step_index != asked:
                asked = self.step_index
                sites = validate_injections(
                    adv.inject(asked, h, topo), topo, limit, step=asked,
                )
            came[0] += len(sites)
            yield sites

    def _flatten(
        self, lanes: list[tuple[Any, Sequence, int] | None], steps: int,
        labels: Sequence[int] | None = None,
    ) -> tuple[list, np.ndarray]:
        """Per-step flat injection batches and each run's injection
        count, for one run or a fleet.

        ``lanes[r]`` is run ``r``'s ``(adversary, schedule, injection
        limit)``, or ``None``.  Each distinct batch is validated once
        (:meth:`_lane_batches`); run ``r``'s site ``v`` becomes flat
        index ``v·runs + r`` of the node-major heights.  A constant
        schedule collapses to one batch; a fleet's long batches become
        arrays.  ``labels`` names a fleet's runs in messages.
        """
        runs = len(lanes)
        injected = np.zeros(runs, dtype=np.int64)
        static: list[int] = []
        dynamic: list[list[tuple[int, ...]]] = []
        for r, lane in enumerate(lanes):
            if lane is None:
                continue
            adversary, sched, limit = lane
            if len(sched) != steps:
                run = "" if labels is None else f" (run {labels[r]})"
                raise SimulationError(
                    f"adversary {adversary!r}{run} returned {len(sched)} "
                    f"schedule entries for {steps} steps"
                )
            if steps and all(entry is sched[0] for entry in sched):
                sched = sched[:1]  # one batch object repeated
            per_step, distinct = self._lane_batches(sched, limit, runs, r)
            if distinct == 1:
                static.extend(per_step[0])
                injected[r] = len(per_step[0]) * steps
            elif distinct:
                dynamic.append(per_step)
                injected[r] = sum(map(len, per_step))

        def batch(sites: list[int]) -> Any:
            if runs > 1 and len(sites) > _SHORT_BATCH:
                return np.asarray(sites, dtype=np.int64)
            return tuple(sites)

        if not dynamic:
            return [batch(static)] * steps, injected
        if len(dynamic) == 1 and not static:
            return dynamic[0], injected
        return [
            batch(static + [i for lane in dynamic for i in lane[t]])
            for t in range(steps)
        ], injected

    def _lane_batches(
        self, sched: Sequence, limit: int, runs: int, r: int
    ) -> tuple[list[tuple[int, ...]], int]:
        """Run ``r``'s per-step flat batches, in which equal batches are
        one tuple object (what :func:`_schedule_period` compares), and
        how many distinct batches there are.

        Each distinct batch is validated as :meth:`step` validates it,
        at the first step it appears.  A lone run's site is its own flat
        index, so its batches are kept as given when one check over all
        of them finds every site a valid node id (:func:`_plain`); only
        otherwise are they validated one by one, which raises the first
        offending step's :class:`~repro.errors.RateViolation`.
        """
        canon: dict[tuple[int, ...], tuple[int, ...]] = {}
        prev: Any = canon  # sentinel never identical to a batch
        per_step: list[tuple[int, ...]] = []
        if runs == 1:
            for entry in sched:
                if entry is not prev:
                    key = tuple(entry)
                    flat = canon.setdefault(key, key)
                    prev = entry
                per_step.append(flat)
            if _plain(canon, self.topology, limit):
                return per_step, len(canon)
            canon, per_step = {}, []
            prev = canon
        for t, entry in enumerate(sched):
            if entry is not prev:
                key = tuple(entry)
                flat = canon.get(key)
                if flat is None:
                    sites = validate_injections(
                        key, self.topology, limit, step=self.step_index + t
                    )
                    flat = canon[key] = tuple(v * runs + r for v in sites)
                prev = entry
            per_step.append(flat)
        return per_step, len(canon)

    def _land(
        self, flat: np.ndarray, sites, ledgers: list[LossLedger]
    ) -> None:
        """Inject a fleet's long batch (an array of flat sites); under
        finite buffers an arrival at a full node drops with cause
        ``"overflow"`` (push-back too: adversary traffic has no upstream
        sender to hold it), as on the dense loop's per-site path."""
        cap = self.buffer_capacity
        if cap is None:
            np.add.at(flat, sites, 1)
            return
        if not len(sites):
            return
        arrivals = np.bincount(
            np.asarray(sites, dtype=np.int64), minlength=flat.size
        )
        admitted = np.minimum(arrivals, np.maximum(cap - flat, 0))
        flat += admitted.astype(flat.dtype)
        _record_overflow(ledgers, arrivals - admitted)

    def _run_dense(
        self, batches: Iterable, rows: _Rows, injected: Any,
        lap: _Lap | None = None, came: list[int] | None = None,
    ) -> None:
        """The dense batched loop over one run's ``(n,)`` heights or a
        fleet's ``(n, runs)`` matrix, recorded into ``rows`` (every step
        under ``validate``, and checked).

        ``batches`` from :meth:`_flatten` inject ``injected`` packets per
        run; batches from :meth:`_live` inject as many as ``came[0]``
        tallies (``injected`` is then ``None``).  ``lap`` watches one run
        for a repeat and skips its laps (:class:`_Lap`).  The totals are
        committed even if a step raises.
        """
        observe = (
            self.policy.observe_injections if _observes(self.policy)
            else None
        )
        h = self.heights
        flat = h.reshape(-1)
        cap = self.buffer_capacity
        pre = self.decision_timing == "pre_injection"
        validate = self.validate
        step = None
        if h.ndim == 1 and not validate:
            step = self._mask_step(h)
        decide, settle = step or (self._decide, self._settle)
        land = self._land
        ledgers = rows.ledgers
        runs = len(ledgers)
        per_node_max = rows.per_node_max
        series = self.metrics.series if self.metrics.series.enabled else None
        delivered: Any = 0
        nxt = -1 if lap is None else lap.next
        it = iter(batches)
        try:
            for sites in it:
                if observe is not None:
                    observe(sites)
                if pre:
                    sends, receivers = decide(h)
                if type(sites) is not tuple:
                    land(flat, sites, ledgers)
                elif cap is None:
                    for i in sites:
                        flat[i] += 1
                else:
                    # push-back buffers drop-tail adversary traffic too
                    for i in sites:
                        if flat[i] < cap:
                            flat[i] += 1
                        else:
                            ledgers[i % runs].record(i // runs, "overflow")
                if not pre:
                    sends, receivers = decide(h)
                delivered = delivered + settle(h, sends, receivers, ledgers)[0]
                self.step_index += 1
                np.maximum(per_node_max, h, out=per_node_max)
                if h.max() > rows.low:
                    rows.observe(h, self.step_index)
                if series is not None:
                    series.observe(self.step_index, h)
                if validate:
                    rows.injected += np.bincount(
                        np.asarray(sites, dtype=np.int64) % runs,
                        minlength=runs,
                    )
                    rows.delivered += delivered
                    delivered = 0
                    rows.check(h, cap, self.step_index)
                if self.step_index == nxt:
                    nxt += lap.stride  # type: ignore[union-attr]
                    length = lap.check(  # type: ignore[union-attr]
                        h, delivered, 0 if came is None else came[0]
                    )
                    if length:
                        nxt = -1
                        laps = lap.repeat(self.step_index, length)
                        self.step_index += laps * length
                        delivered = delivered + laps * (delivered - lap.delivered)
                        if came is None:
                            _advance(it, laps * length)
                        else:
                            came[0] += laps * (came[0] - lap.came)
        finally:
            if not validate:
                rows.injected += injected if came is None else came[0]
                rows.delivered += delivered

    def _run_sparse(
        self, batches: list, rule: SparseRule, lap: _Lap | None = None
    ) -> int:
        """Sparse inner loop for the bounded policies; returns steps done.

        Under a rate-1 adversary those policies keep the backlog at
        O(log n) packets, so on a large topology almost every buffer is
        empty almost always — and the per-step cost of the numpy loop
        is pure call overhead.  This loop keeps plain-Python mirrors of
        the heights and the occupied set and does O(occupied) work per
        step.  ``rule(heights, occupied)`` is the engine's exact
        re-implementation of its policy (pinned by the batched-run
        parity tests); it returns the step's ``(sender, receiver)``
        moves, all decided on the decision-time snapshot before any
        move lands.  Max tracking is incremental — a node can only set
        a height record in a step that increased it, so records are
        detected from the touched nodes alone.  Delivered packets are
        recovered at the end from conservation (no drops happen here:
        no faults, and a finite-buffer step that would refuse a packet
        is handed back uncommitted).

        If occupancy ever exceeds :attr:`_SPARSE_OCCUPANCY_LIMIT`, or a
        step would refuse a packet (:meth:`_run_quiet`), the loop stops
        early and reports how many steps it completed; the caller
        finishes the rest in the dense loop.  A rule may tick the
        policy's state (round-robin rotation), so a step handed back
        restores it.  ``lap`` watches the run for a repeat and skips its
        laps (:class:`_Lap`), which count as steps done.
        """
        h = self.heights
        topo = self.topology
        sink = self._sink
        cap = self.buffer_capacity
        # a stateful rule's state, restored when a step is handed back
        state: dict[str, Any] = {}
        if cap is not None and not getattr(self.policy, "stateless", False):
            state = vars(self.policy)
        hl = h.tolist()
        pre = self.decision_timing == "pre_injection"
        tracker = self.metrics.tracker
        pnm = tracker.per_node_max
        pnm_l = pnm.tolist()
        cur_max = tracker.max_height
        argmax_node = tracker.argmax_node
        argmax_step = tracker.argmax_step
        occ = {v for v in range(topo.n) if hl[v] > 0 and v != sink}
        limit = self._SPARSE_OCCUPANCY_LIMIT
        injected = 0
        gone = 0  # delivered, for the lap's in-flight check
        in_flight_start = sum(hl)
        done = 0
        nxt = -1 if lap is None else lap.next
        it = iter(batches)
        for sites in it:
            if len(occ) > limit:
                break
            if cap is not None and _meets_full(hl, sites, cap):
                break
            if not pre:
                for s in sites:
                    hl[s] += 1
                    occ.add(s)
            if state:
                saved = dict(state)
            moves = rule(hl, occ)
            if pre:
                for s in sites:
                    hl[s] += 1
            grew = list(sites)
            arrived = 0
            for v, u in moves:
                hl[v] -= 1
                if u != sink:
                    hl[u] += 1
                    grew.append(u)
                else:
                    arrived += 1
            if cap is not None and any(hl[v] > cap for v in grew):
                # the step would refuse: hand it back uncommitted
                for v, u in moves:
                    hl[v] += 1
                    if u != sink:
                        hl[u] -= 1
                for s in sites:
                    hl[s] -= 1
                if state:
                    state.update(saved)
                break
            injected += len(sites)
            gone += arrived
            for v, _ in moves:
                if hl[v] == 0:
                    occ.discard(v)
            self.step_index += 1
            done += 1
            m = cur_max
            for v in grew:
                nv = hl[v]
                if nv > 0:
                    occ.add(v)
                if nv > pnm_l[v]:
                    pnm_l[v] = nv
                if nv > m:
                    m = nv
            if m > cur_max:
                # every node at a fresh record grew this step, so the
                # full-array argmax reduces to the touched nodes
                cur_max = m
                argmax_node = min(v for v in grew if hl[v] == m)
                argmax_step = self.step_index
            if self.step_index == nxt:
                nxt += lap.stride  # type: ignore[union-attr]
                length = lap.check(hl, gone, injected)  # type: ignore[union-attr]
                if length:
                    nxt = -1
                    laps = lap.repeat(self.step_index, length)
                    _advance(it, laps * length)
                    self.step_index += laps * length
                    done += laps * length
                    injected += laps * (injected - lap.came)
        h[:] = hl
        pnm[:] = pnm_l
        tracker.max_height = cur_max
        tracker.argmax_node = argmax_node
        tracker.argmax_step = argmax_step
        self.metrics.injected += injected
        # conservation: nothing can be dropped here, so what was
        # injected and is no longer buffered was delivered
        self.metrics.delivered += injected + in_flight_start - sum(hl)
        return done

    def _run_changes(
        self, batches: Iterable, forwards: LocalRule,
        lap: _Lap | None = None, live: bool = False,
    ) -> int:
        """Change-driven loop for a 1-local pairwise rule on an in-tree;
        returns steps done.

        Node ``v`` sends one packet iff it is non-empty and
        ``forwards(h(v), h(succ(v)))``, so between two steps only a node
        whose own height or whose successor's height changed can decide
        differently.  The loop keeps plain-list heights, each node's
        standing send and the net flow ``inflow - send`` of every node
        where the two differ; each step it re-decides only the nodes next
        to a change (and, deciding after injection, the step's sites),
        and heights move only where the flow is non-zero and at the
        sites.  Records move only on the nodes that grew (the
        first-argmax rule of :meth:`_run_sparse`); deliveries are the
        sink's inflow.  ``batches`` from :meth:`_live` (``live``) ask the
        adversary from numpy heights kept in sync on the changed nodes.

        Before it takes a batch the loop checks how many buffers the
        last step changed; past :attr:`_CHANGE_LIMIT` it stops, and the
        caller runs the remaining steps in the dense loop.  Under finite
        buffers it also stops at a step that would refuse a packet
        (:meth:`_run_quiet`): a site meets a full buffer, or a buffer's
        net flow takes it past the capacity.  That step is handed back
        uncommitted, and its batch is the dense loop's first (a live
        adversary's too: :meth:`_live`).  ``lap`` watches the run for a
        repeat and skips its laps (:class:`_Lap`), which count as steps
        done.  The state reached is committed even if a step raises.
        """
        h = self.heights
        sink = self._sink
        cap = self.buffer_capacity
        limit = self._CHANGE_LIMIT
        sends, receivers = self._decide(h)
        flow = np.zeros_like(h)
        to_sink = int(self._move(flow, sends, receivers))
        moving = np.flatnonzero(flow)
        if len(moving) > limit:
            return 0
        net = dict(zip(moving.tolist(), flow[moving].tolist()))
        sent = sends.tolist()
        succ = self.topology.succ.tolist()
        kids = self.topology.children
        hl = h.tolist()
        pre = self.decision_timing == "pre_injection"
        tracker = self.metrics.tracker
        pnm = tracker.per_node_max.tolist()
        top = tracker.max_height
        top_node, top_step = tracker.argmax_node, tracker.argmax_step
        redo: set[int] = set()
        injected = delivered = done = 0
        nxt = -1 if lap is None else lap.next
        it = iter(batches)
        try:
            for sites in it:
                if cap is not None and _meets_full(hl, sites, cap):
                    break
                if not pre:
                    for s in sites:
                        hl[s] += 1
                        redo.add(s)
                        redo.update(kids[s])
                for v in redo:
                    hv = hl[v]
                    now = 1 if hv and forwards(hv, hl[succ[v]]) else 0
                    d = now - sent[v]
                    if d:
                        sent[v] = now
                        f = net.get(v, 0) - d
                        if f:
                            net[v] = f
                        else:
                            del net[v]
                        u = succ[v]
                        if u == sink:
                            to_sink += d
                        else:
                            f = net.get(u, 0) + d
                            if f:
                                net[u] = f
                            else:
                                del net[u]
                if pre:
                    for s in sites:
                        hl[s] += 1
                if cap is not None and any(
                    hl[v] + f > cap for v, f in net.items()
                ):
                    for s in sites:
                        hl[s] -= 1
                    break
                grew = list(sites)
                for v, f in net.items():
                    hl[v] += f
                    if f > 0:
                        grew.append(v)
                injected += len(sites)
                delivered += to_sink
                self.step_index += 1
                done += 1
                m = top
                for v in grew:
                    x = hl[v]
                    if x > pnm[v]:
                        pnm[v] = x
                    if x > m:
                        m = x
                if m > top:
                    # every node at a fresh record grew this step
                    top = m
                    top_node = min(v for v in grew if hl[v] == m)
                    top_step = self.step_index
                changed = [*net, *sites]
                redo = set(changed)
                for v in changed:
                    redo.update(kids[v])
                if live:
                    for v in changed:
                        h[v] = hl[v]
                if self.step_index == nxt:
                    assert lap is not None
                    nxt += lap.stride
                    length = lap.check(hl, delivered, injected)
                    if length:
                        nxt = -1
                        laps = lap.repeat(self.step_index, length)
                        if not live:
                            _advance(it, laps * length)
                        self.step_index += laps * length
                        done += laps * length
                        injected += laps * (injected - lap.came)
                        delivered += laps * (delivered - lap.delivered)
                if len(changed) > limit:
                    break
        finally:
            h[:] = hl
            tracker.per_node_max[:] = pnm
            tracker.max_height = top
            tracker.argmax_node, tracker.argmax_step = top_node, top_step
            self.metrics.injected += injected
            self.metrics.delivered += delivered
        return done

    # ------------------------------------------------------------------
    def result(self) -> "RunResult":
        """Summary of the run so far (Simulator-compatible shape).

        This is what lets :class:`~repro.network.fleet_engine.FleetEngine`
        report per-run results uniformly whether a run was vectorised
        or fell back to a dedicated engine.
        """
        return _Rows.of(self.metrics).result(
            0, self.step_index, self.heights.sum()
        )

    def assert_capacity(self) -> None:
        """Finite-buffer invariant: no non-sink node above capacity.

        Trivially true with unbounded buffers; under a finite
        ``buffer_capacity`` every overflow discipline must keep every
        non-sink height at or below the capacity.  The fleet shares the
        check (:func:`check_capacity`) — checked every step under
        ``validate=True``.
        """
        check_capacity(self.heights, self.buffer_capacity, self.step_index)

    def assert_conservation(self) -> None:
        """Conservation ledger: injected == delivered + buffered + dropped.

        With unbounded buffers and no faults the dropped term is
        identically zero and this is the paper's zero-loss invariant.
        Also re-checks the finite-buffer capacity invariant
        (:meth:`assert_capacity`) so a ``validate=True`` run catches a
        height above ``buffer_capacity`` the moment it appears.
        """
        _Rows.of(self.metrics).check(
            self.heights, self.buffer_capacity, self.step_index
        )

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        """Snapshot engine state (used by the Theorem 3.1 adversary).

        Includes the fault injector's replay state, so a restored
        scenario re-experiences exactly the faults of the original.
        Policy/adversary state is *not* captured — use :meth:`snapshot`
        for full crash-resume fidelity.
        """
        return {
            "heights": self.heights.copy(),
            "step": self.step_index,
            "metrics": self.metrics.snapshot(),
            "faults": (
                self.faults.snapshot() if self.faults is not None else None
            ),
        }

    def snapshot(self) -> dict[str, Any]:
        """Full state for checkpoint/resume across an induced crash.

        Extends :meth:`checkpoint` with deep copies of the policy and
        adversary.
        """
        return {
            "engine": self.checkpoint(),
            "policy": copy.deepcopy(self.policy),
            "adversary": copy.deepcopy(self.adversary),
        }

    def restore(self, cp: dict[str, Any]) -> None:
        """Roll back to a previous :meth:`checkpoint` / :meth:`snapshot`.

        Raises
        ------
        CheckpointError
            If the checkpoint's heights do not fit this engine's
            topology (wrong shape, non-integer dtype, or negative
            entries), or it was taken with a fault plan and this engine
            runs without one (or the reverse) — the same refusal style
            as the durable-checkpoint loader, which only compares
            engine class names.  The engine is untouched on refusal.
        """
        if "engine" in cp:  # full snapshot()
            self.restore(cp["engine"])
            self.policy = copy.deepcopy(cp["policy"])
            self.adversary = copy.deepcopy(cp["adversary"])
            return
        check_heights(cp["heights"], (self.n,))
        check_fault_state(cp.get("faults"), self.faults)
        self.heights = cp["heights"].astype(np.int64, copy=True)
        self.step_index = int(cp["step"])
        self.metrics.restore(cp["metrics"])
        if self.faults is not None:
            self.faults.restore(cp["faults"])


class DagEngine(_DagEngineCore):
    """Vectorised height-only simulator on a :class:`DagTopology`.

    Semantics are pinned against :class:`DagLoopEngine` by the
    Hypothesis parity suite: identical height trajectories, delivered
    counts and loss ledgers across random DAGs, overflow disciplines,
    fault plans and decision timings, and batched == stepped runs.
    """

    def _validate_targets(
        self, targets: np.ndarray, sendable: np.ndarray
    ) -> None:
        """Reject illegal policy output.

        The structural checks (the sink cannot forward; a target must
        be a real out-edge) are always on — a misroute would silently
        corrupt the height dynamics.  The documented "nodes with empty
        buffers must hold" contract is enforced under ``validate=True``
        only, keeping the hot path free of the extra comparison.
        """
        if targets[self._sink] >= 0:
            raise SimulationError("the sink cannot forward")
        active = np.flatnonzero(targets >= 0)
        if not active.size:
            return
        pad, mask, _ = self.topology.packed_out_edges()
        ok = ((pad[active] == targets[active, None]) & mask[active]).any(
            axis=1
        )
        if not ok.all():
            v = int(active[int(np.flatnonzero(~ok)[0])])
            raise SimulationError(
                f"policy chose a non-edge {v}->{int(targets[v])}"
            )
        if self.validate:
            empty = active[~sendable[active]]
            if empty.size:
                v = int(empty[0])
                raise SimulationError(
                    f"step {self.step_index}: policy chose a target for "
                    f"node {v} with an empty buffer (nodes with empty "
                    "buffers must hold)"
                )

    def _decide(self, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        targets = np.asarray(
            self.policy.choose(heights.copy(), self.topology), dtype=np.int64
        )
        sendable = heights > 0
        self._validate_targets(targets, sendable)
        # an empty node's target is silently a hold outside validate
        return ((targets >= 0) & sendable).astype(np.int64), targets

    def _move(
        self, h: np.ndarray, sends: np.ndarray, receivers: np.ndarray
    ) -> int:
        senders = np.flatnonzero(sends)
        tgt = receivers[senders]
        to_sink = tgt == self._sink
        h -= sends
        np.add.at(h, tgt[~to_sink], 1)
        h[self._sink] = 0
        if (h < 0).any():
            raise SimulationError("negative height on a DAG node")
        return int(np.count_nonzero(to_sink))

    def _sparse_rule(self) -> SparseRule | None:
        """The built-in policies' argmin edge choice, over plain lists.

        Each occupied node picks its (height, depth, id)-argmin
        out-neighbour and, under DAG Odd-Even, the parity rule decides
        whether it sends; DAG decisions are per-node independent, so no
        sibling arbitration is needed.  O(occupied · degree) per step.
        """
        from ..policies.dag import DagGreedyPolicy, DagOddEvenPolicy

        if type(self.policy) not in (DagOddEvenPolicy, DagGreedyPolicy):
            return None
        out_l = [list(outs) for outs in self.topology.out_edges]
        depth_l = self.topology.depth.tolist()
        odd_even = type(self.policy) is DagOddEvenPolicy

        def rule(hl: list[int], occ: set[int]) -> list[tuple[int, int]]:
            moves = []
            for v in occ:
                hv = hl[v]
                best = -1
                bh = bd = 0
                for u in out_l[v]:
                    hu = hl[u]
                    if best >= 0:
                        if hu > bh:
                            continue
                        if hu == bh:
                            du = depth_l[u]
                            if du > bd or (du == bd and u > best):
                                continue
                    best = u
                    bh = hu
                    bd = depth_l[u]
                if odd_even:
                    # odd height: forward iff best <= h; even: strictly
                    if bh > hv if hv & 1 else bh >= hv:
                        continue
                moves.append((v, best))
            return moves

        return rule


class DagLoopEngine(_DagEngineCore):
    """Per-node loop reference for :class:`DagEngine` (pinned).

    The original pure-Python stepper, kept at full feature parity
    (overflow disciplines, faults, validation) as the semantic
    reference the Hypothesis parity suite and the ``dag_sps`` perf
    telemetry compare the vectorised engine against.  It shares only
    the injection mini-step with the kernel; its decisions, push-back
    sweep and moves are its own.  Use :class:`DagEngine` for real
    workloads.
    """

    def _validate_targets(
        self, targets: np.ndarray, sendable: np.ndarray
    ) -> None:
        for v in range(self.topology.n):
            t = int(targets[v])
            if t < 0:
                continue
            if v == self._sink:
                raise SimulationError("the sink cannot forward")
            if t not in self.topology.out_edges[v]:
                raise SimulationError(f"policy chose a non-edge {v}->{t}")
            if self.validate and not sendable[v]:
                raise SimulationError(
                    f"step {self.step_index}: policy chose a target for "
                    f"node {v} with an empty buffer (nodes with empty "
                    "buffers must hold)"
                )

    def run(self, steps: int) -> "_DagEngineCore":
        """Advance ``steps`` rounds by calling :meth:`step` once each.

        The reference never takes the kernel's batched path: the parity
        suite compares the two, and ``loop_sps`` times this loop.
        """
        for _ in range(steps):
            self.step()
        return self

    def step(self, injections: tuple[int, ...] | None = None) -> None:
        fault, sites, drops = self._begin_step(injections)
        h = self.heights
        dag = self.topology
        if self.decision_timing == "pre_injection":
            targets = self.policy.choose(h.copy(), dag)
            sendable = h > 0
            self._inject(sites, fault, drops)
        else:
            self._inject(sites, fault, drops)
            targets = self.policy.choose(h.copy(), dag)
            sendable = h > 0
        self._validate_targets(targets, sendable)
        if fault.blocked:
            targets = np.asarray(targets, dtype=np.int64).copy()
            targets[list(fault.blocked)] = -1
        self.metrics.injected += len(sites)

        moves = [
            (v, int(targets[v]))
            for v in range(dag.n)
            if targets[v] >= 0 and sendable[v]
        ]
        sink = self._sink
        cap = self.buffer_capacity
        delivered = 0
        if cap is not None and self.overflow is Overflow.PUSH_BACK:
            # receiver-first sweep, same arithmetic as the kernel's
            # resolve_push_back
            intended = dict(moves)
            room = [
                (cap - int(h[v])) + (1 if v in intended else 0)
                for v in range(dag.n)
            ]
            effective = []
            for v in self._pb_order:
                t = intended.get(v)
                if t is None:
                    continue
                if t == sink:
                    effective.append((v, t))
                elif room[t] >= 1:
                    effective.append((v, t))
                    room[t] -= 1
                else:
                    room[v] -= 1
            moves = effective
        recv = np.zeros(dag.n, dtype=np.int64)
        for v, t in moves:
            h[v] -= 1
            if t == sink:
                delivered += 1
            else:
                recv[t] += 1
        if cap is None or self.overflow is Overflow.PUSH_BACK:
            h += recv
        else:
            # a node's own send frees a slot before arrivals land;
            # excess arrivals are dropped drop-tail at the receiver
            room_a = cap - h
            room_a[sink] = np.iinfo(np.int64).max
            admitted = np.minimum(recv, np.maximum(room_a, 0))
            refused = recv - admitted
            h += admitted
            for v in np.flatnonzero(refused):
                self.metrics.ledger.record(
                    int(v), "overflow", int(refused[v])
                )
        h[sink] = 0
        if (h < 0).any():
            raise SimulationError("negative height on a DAG node")
        self.metrics.delivered += delivered

        self.step_index += 1
        self.metrics.observe(self.step_index, h)
        if self.validate:
            self.assert_conservation()
