"""Cross-run vectorised fleet engine (ROADMAP item 1).

The paper's results are statements about *ensembles* — worst-case and
expected occupancy over adversary suites, seeds and parameter grids —
yet :class:`~repro.network.engine_fast.PathEngine` and
:class:`~repro.network.tree_engine.TreeEngine` advance one run at a
time, so every sweep pays the full Python-dispatch cost per run.
:class:`FleetEngine` vectorises *across runs* the way TreeEngine
vectorised across nodes: it holds a ``(runs, n)`` height matrix and
advances every run of a sweep in lockstep with whole-matrix numpy
arithmetic, one set of ufunc calls per step for the entire fleet.

A *fleet* is one topology, one policy and one adversary per run (plus
optional per-run injection limits and fault plans).  At construction
each run is classified:

* **vectorised lanes** — the policy implements
  :meth:`~repro.policies.base.ForwardingPolicy.fleet_send_counts`
  (and does not override ``observe_injections``), the lane has no
  fault plan, and its adversary publishes an injection schedule via
  :meth:`~repro.adversaries.base.Adversary.inject_schedule`.  These
  rows live in the height matrix and advance together.  Finite buffers
  are vectorised too — all three overflow disciplines; the rare rows
  where push-back refuses a transfer settle through the kernel's
  receiver-first resolver, in ``(depth, id)`` order.
* **fallback lanes** — adaptive adversaries, fault plans, a policy
  without a fleet rule, or a fleet of one run (a one-row matrix has
  nothing to vectorise across).  Each such run gets its own PathEngine
  (on the canonical path) or TreeEngine with a deep-copied policy —
  both the shared height kernel of :mod:`repro.network.dag_engine` —
  so the fleet's results are complete either way.  A faulted lane runs
  under :func:`~repro.network.faults.run_with_recovery`, so it
  survives its ``halt`` events the way a lone engine does.

Every lane — vectorised or not — is **bit-identical** to running that
configuration alone on PathEngine/TreeEngine/Simulator (the Hypothesis
suite in ``tests/property/test_fleet_parity.py`` pins trajectories,
delivered counts and loss ledgers).  The established engine contract
is honoured fleet-wide: per-run :class:`LossLedger` conservation,
``assert_capacity`` / ``assert_conservation``, ``checkpoint`` /
``snapshot`` / ``restore`` (which refuses a checkpoint that does not
fit the fleet), and durable ``save_checkpoint`` / ``load_checkpoint``
through :mod:`repro.io.checkpoint`.

What a fleet does **not** do: per-step traces and sampled series (use
a dedicated engine for instrumented single runs).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .buffers import Overflow, coerce_overflow
from .dag_engine import (
    DecisionTiming,
    _Durable,
    check_heights,
    check_send_counts,
    check_settings,
    height_result,
    resolve_push_back,
)
from .engine_fast import PathEngine
from .faults import FaultInjector, FaultPlan, run_with_recovery
from .metrics import LossLedger
from .simulator import RunResult
from .topology import SINK_SUCC, Topology, path
from .tree_engine import TreeEngine
from .validation import validate_injections

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.base import Adversary
from ..errors import (
    BufferOverflow,
    CheckpointError,
    ConservationViolation,
    SimulationError,
)
from ..policies.base import ForwardingPolicy

__all__ = ["FleetEngine"]

# the height matrix is int32: half the memory traffic of int64 on
# every kernel pass, and heights are bounded by total injections (a
# fleet would need > 2^31 lane-injections into one buffer to wrap)
_H_DTYPE = np.int32
_BIG = np.iinfo(_H_DTYPE).max


class FleetEngine(_Durable):
    """Advance a whole sweep of runs in lockstep on one height matrix.

    Parameters
    ----------
    topology:
        A :class:`Topology`, or an int ``n`` for the canonical directed
        path (matching ``PathEngine(n, ...)``).
    policy:
        One policy instance shared by the vectorised rows (its
        ``fleet_send_counts`` sees the whole matrix per step); fallback
        lanes receive deep copies, so a stateful policy behaves exactly
        as ``runs`` fresh per-run instances stepping on one clock.
    adversaries:
        One adversary (or ``None`` for a drain-only run) **per run**;
        ``runs = len(adversaries)``.  Instances must not be shared
        between runs — each lane owns and mutates its adversary's
        state.
    injection_limit / faults:
        Either one value for every run or a sequence of per-run values.
        Any lane with a fault plan falls back to a dedicated engine.
    capacity / decision_timing / buffer_capacity / overflow / validate:
        Exactly the PathEngine/TreeEngine keyword surface; traces and
        sampled series are intentionally not offered (see the module
        docstring).
    """

    def __init__(
        self,
        topology: Topology | int,
        policy: ForwardingPolicy,
        adversaries: Sequence["Adversary | None"],
        *,
        capacity: int = 1,
        injection_limit: int | Sequence[int | None] | None = None,
        decision_timing: DecisionTiming = "pre_injection",
        buffer_capacity: int | None = None,
        overflow: Overflow | str = Overflow.DROP_TAIL,
        faults: FaultPlan | FaultInjector | Sequence[
            "FaultPlan | FaultInjector | None"
        ] | None = None,
        validate: bool = False,
    ) -> None:
        if isinstance(topology, (int, np.integer)):
            topology = path(int(topology))
        self.buffer_capacity = check_settings(decision_timing, buffer_capacity)
        adversaries = list(adversaries)
        if not adversaries:
            raise SimulationError("a fleet needs at least one run")
        policy.check_capacity(capacity)
        self.topology = topology
        self.policy = policy
        self.adversaries: list[Adversary | None] = adversaries
        self.runs = len(adversaries)
        self.capacity = int(capacity)
        self.decision_timing: DecisionTiming = decision_timing
        self.overflow = coerce_overflow(overflow)
        self.validate = validate
        self.injection_limits = self._per_run(
            injection_limit, "injection_limit"
        )
        self.injection_limits = [
            self.capacity if lim is None else int(lim)
            for lim in self.injection_limits
        ]
        lane_faults = self._per_run(faults, "faults")

        n = topology.n
        succ = topology.succ
        self._sink = int(topology.sink)
        self._canonical = topology.is_canonical_path
        self._senders = np.flatnonzero(succ != SINK_SUCC)
        self._dest = succ[self._senders]
        self._pre_sink = np.flatnonzero(succ == self._sink)
        self._pb_order = self._senders[
            np.lexsort((self._senders, topology.depth[self._senders]))
        ]

        # --- lane classification -------------------------------------
        # The shared policy is row-vectorisable iff a throwaway copy
        # answers fleet_send_counts (the copy absorbs any probe side
        # effects, e.g. a round-robin rotation tick) and the policy
        # does not consume per-step injection observations.  A fleet
        # of one run skips the probe: it steps on a dedicated engine.
        vec_policy = (
            self.runs > 1
            and type(policy).observe_injections
            is ForwardingPolicy.observe_injections
            and copy.deepcopy(policy).fleet_send_counts(
                np.zeros((1, n), dtype=_H_DTYPE), topology, self.capacity
            )
            is not None
        )
        self._vec_rows: list[int] = []
        self._engines: dict[int, Any] = {}
        for r, adv in enumerate(adversaries):
            batchable = vec_policy and lane_faults[r] is None
            if batchable and adv is not None:
                adv.reset(topology, self.injection_limits[r])
                batchable = adv.inject_schedule(0, 0, topology) is not None
            if batchable:
                self._vec_rows.append(r)
            else:
                self._engines[r] = self._make_engine(
                    r, adv, lane_faults[r]
                )
        self._row_of = {r: i for i, r in enumerate(self._vec_rows)}

        rv = len(self._vec_rows)
        self._H = np.zeros((rv, n), dtype=_H_DTYPE)
        self._row_grid = np.arange(rv, dtype=np.int64)[:, None]
        self._per_node_max = np.zeros((rv, n), dtype=_H_DTYPE)
        self._max_height = np.zeros(rv, dtype=np.int64)
        self._argmax_node = np.full(rv, -1, dtype=np.int64)
        self._argmax_step = np.full(rv, -1, dtype=np.int64)
        self._injected = np.zeros(rv, dtype=np.int64)
        self._delivered = np.zeros(rv, dtype=np.int64)
        self._ledgers = [LossLedger() for _ in range(rv)]
        self.step_index = 0
        policy.reset(topology)

    # ------------------------------------------------------------------
    def _per_run(self, value, what: str) -> list:
        """Broadcast a scalar setting or check a per-run sequence."""
        if isinstance(value, (list, tuple)):
            if len(value) != self.runs:
                raise SimulationError(
                    f"{what}: got {len(value)} per-run values for "
                    f"{self.runs} runs"
                )
            return list(value)
        return [value] * self.runs

    def _make_engine(self, r: int, adv, fault):
        """A dedicated engine for one fallback lane."""
        kwargs: dict[str, Any] = dict(
            capacity=self.capacity,
            injection_limit=self.injection_limits[r],
            decision_timing=self.decision_timing,
            buffer_capacity=self.buffer_capacity,
            overflow=self.overflow,
            faults=fault,
            validate=self.validate,
        )
        lane_policy = copy.deepcopy(self.policy)
        if self._canonical:
            return PathEngine(self.topology.n, lane_policy, adv, **kwargs)
        return TreeEngine(self.topology, lane_policy, adv, **kwargs)

    @staticmethod
    def _advance(eng, steps: int) -> None:
        """Step one fallback lane; a faulted lane survives its halts."""
        if eng.faults is None:
            eng.run(steps)
        elif steps > 0:
            run_with_recovery(eng, steps, snapshot_every=max(1, steps // 8))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def sink(self) -> int:
        return self._sink

    @property
    def vectorized_runs(self) -> tuple[int, ...]:
        """Run indices advancing on the shared height matrix."""
        return tuple(self._vec_rows)

    @property
    def fallback_runs(self) -> tuple[int, ...]:
        """Run indices stepping on dedicated per-run engines."""
        return tuple(sorted(self._engines))

    @property
    def heights(self) -> np.ndarray:
        """The ``(runs, n)`` height matrix (a fresh copy per call)."""
        out = np.zeros((self.runs, self.n), dtype=np.int64)
        if self._vec_rows:
            out[self._vec_rows] = self._H
        for r, eng in self._engines.items():
            out[r] = eng.heights
        return out

    @property
    def max_heights(self) -> np.ndarray:
        """Per-run running maximum height, as a ``(runs,)`` array."""
        out = np.zeros(self.runs, dtype=np.int64)
        if self._vec_rows:
            out[self._vec_rows] = self._max_height
        for r, eng in self._engines.items():
            out[r] = eng.metrics.max_height
        return out

    @property
    def max_height(self) -> int:
        """Fleet-wide maximum height over every run so far."""
        mh = self.max_heights
        return int(mh.max()) if mh.size else 0

    # ------------------------------------------------------------------
    def run(self, steps: int) -> "FleetEngine":
        """Advance every run ``steps`` rounds in lockstep."""
        if steps <= 0:
            return self
        for eng in self._engines.values():
            self._advance(eng, steps)
        if self._vec_rows:
            self._run_vec(steps)
        self.step_index += steps
        return self

    def run_fleet(self, steps: int) -> list[RunResult]:
        """Batched sweep: advance ``steps`` rounds, return per-run
        :class:`RunResult` summaries (bit-identical to stepping each
        run alone on PathEngine/TreeEngine)."""
        self.run(steps)
        return self.results()

    def run_horizons(self, horizons: Sequence[int]) -> list[RunResult]:
        """Heterogeneous sweep: run lane ``r`` to ``horizons[r]`` steps.

        The vectorised rows advance in lockstep through the sorted set
        of their horizons, capturing each lane's :class:`RunResult`
        the moment its own horizon is reached, while longer lanes keep
        advancing.  A fallback lane shares no state with the matrix: it
        advances straight to its own horizon and stops there, so a
        faulted lane spends one recovery budget on its whole run.
        Every result is bit-identical to running that lane alone for
        exactly ``horizons[r]`` steps.

        ``horizons`` are absolute step indices and must each be >= the
        current ``step_index``; afterwards ``step_index`` is the
        longest horizon.
        """
        if len(horizons) != self.runs:
            raise SimulationError(
                f"run_horizons: got {len(horizons)} horizons for "
                f"{self.runs} runs"
            )
        targets = [int(h) for h in horizons]
        low = min(targets, default=0)
        if low < self.step_index:
            raise SimulationError(
                f"run_horizons: horizon {low} is behind the fleet's "
                f"current step {self.step_index}"
            )
        captured: dict[int, RunResult] = {}
        for r, eng in self._engines.items():
            self._advance(eng, targets[r] - eng.step_index)
            captured[r] = eng.result()
        for target in sorted({targets[r] for r in self._vec_rows}):
            if target > self.step_index:
                self._run_vec(target - self.step_index)
                self.step_index = target
            for r in self._vec_rows:
                if targets[r] == target:
                    captured[r] = self.result(r)
        self.step_index = max(self.step_index, *targets)
        return [captured[r] for r in range(self.runs)]

    # ------------------------------------------------------------------
    def _fetch_schedules(self, steps: int):
        """Validate every vectorised lane's schedule for the horizon.

        Returns the static flat-index array shared by every step (for
        lanes whose schedule repeats one batch), the per-step dynamic
        flat-index lists, and the per-step injected-count matrices.
        """
        topo = self.topology
        n = topo.n
        start = self.step_index
        rv = len(self._vec_rows)
        static_sites: list[int] = []
        static_cnt = np.zeros(rv, dtype=np.int64)
        dynamic: list[list[int]] | None = None
        dynamic_cnt: np.ndarray | None = None
        for i, r in enumerate(self._vec_rows):
            adv = self.adversaries[r]
            if adv is None:
                continue
            sched = adv.inject_schedule(start, steps, topo)
            if sched is None:
                raise SimulationError(
                    f"adversary {adv!r} (run {r}) withdrew its injection "
                    f"schedule at step {start}; a lane classified as "
                    "batchable must stay batchable for the whole run"
                )
            if len(sched) != steps:
                raise SimulationError(
                    f"adversary {adv!r} (run {r}) returned {len(sched)} "
                    f"schedule entries for {steps} steps"
                )
            lim = self.injection_limits[r]
            base = i * n
            # constant-batch fast path: deterministic adversaries
            # publish `(burst,) * steps`, one tuple object repeated —
            # an identity sweep detects it without per-step hashing
            head = sched[0] if steps else ()
            if steps and all(entry is head for entry in sched):
                sites = validate_injections(
                    tuple(head), topo, lim, step=start
                )
                static_sites.extend(base + s for s in sites)
                static_cnt[i] = len(sites)
                continue
            canon: dict[tuple[int, ...], tuple[int, ...]] = {}
            entries: list[tuple[int, ...]] = []
            const = True
            prev_entry: Any = canon  # sentinel never identical to a batch
            prev_sites: tuple[int, ...] = ()
            for t, entry in enumerate(sched):
                if entry is prev_entry:
                    sites = prev_sites
                else:
                    key = tuple(entry)
                    sites = canon.get(key)
                    if sites is None:
                        sites = validate_injections(
                            key, topo, lim, step=start + t
                        )
                        canon[key] = sites
                    prev_entry, prev_sites = entry, sites
                entries.append(sites)
                if const and sites != entries[0]:
                    const = False
            if const:
                first = entries[0] if entries else ()
                static_sites.extend(base + s for s in first)
                static_cnt[i] = len(first)
            else:
                if dynamic is None:
                    dynamic = [[] for _ in range(steps)]
                    dynamic_cnt = np.zeros((steps, rv), dtype=np.int64)
                for t, sites in enumerate(entries):
                    if sites:
                        dynamic[t].extend(base + s for s in sites)
                        dynamic_cnt[t, i] = len(sites)
        static_idx = (
            np.asarray(static_sites, dtype=np.int64)
            if static_sites
            else None
        )
        return static_idx, static_cnt, dynamic, dynamic_cnt

    def _decide(self, heights: np.ndarray) -> np.ndarray:
        counts = self.policy.fleet_send_counts(
            heights, self.topology, self.capacity
        )
        if counts is None:  # pragma: no cover - guarded at classification
            raise SimulationError(
                f"policy {self.policy.name!r} withdrew its fleet rule"
            )
        if self.validate:
            check_send_counts(
                counts, heights, self.capacity, self._sink, self.step_index
            )
        return counts

    def _incoming(self, counts: np.ndarray) -> np.ndarray:
        incoming = np.zeros_like(counts)
        if self._canonical:
            incoming[:, 1:] = counts[:, :-1]
        else:
            np.add.at(
                incoming,
                (self._row_grid, self._dest[None, :]),
                counts[:, self._senders],
            )
        return incoming

    def _push_back_sends(
        self, H: np.ndarray, counts: np.ndarray, cap: int
    ) -> np.ndarray:
        """Fleet push-back: vector pre-check, per-row cascade when hot.

        Rows where no buffer can refuse keep their counts untouched;
        each rare refusing row settles through
        :func:`~repro.network.dag_engine.resolve_push_back`, the same
        receiver-first ``(depth, id)`` sweep the single-run engines use.
        """
        incoming = self._incoming(counts)
        room = cap - (H - counts)
        room[:, self._sink] = _BIG
        hot = (incoming > np.maximum(room, 0)).any(axis=1)
        if not hot.any():
            return counts
        sends = counts.copy()
        for i in np.flatnonzero(hot):
            sends[i] = resolve_push_back(
                H[i], counts[i], self.topology.succ, self._pb_order, cap,
                self._sink,
            )
        return sends

    def _run_vec(self, steps: int) -> None:
        """The lockstep kernel: one set of matrix ops per step."""
        H = self._H
        flat = H.reshape(-1)
        cap = self.buffer_capacity
        pre = self.decision_timing == "pre_injection"
        push_back = self.overflow is Overflow.PUSH_BACK
        canonical = self._canonical
        sink = self._sink
        pre_sink = self._pre_sink
        pnm = self._per_node_max
        mh = self._max_height
        static_idx, static_cnt, dynamic, dynamic_cnt = (
            self._fetch_schedules(steps)
        )

        def apply_injections(t: int) -> None:
            if cap is None:
                if static_idx is not None:
                    np.add.at(flat, static_idx, 1)
                if dynamic is not None and dynamic[t]:
                    np.add.at(
                        flat, np.asarray(dynamic[t], dtype=np.int64), 1
                    )
                return
            # finite buffers: arrivals at a full node drop with cause
            # "overflow" (even under push-back — adversary traffic has
            # no upstream sender to hold the packet)
            inj = np.zeros_like(H)
            if static_idx is not None:
                np.add.at(inj.reshape(-1), static_idx, 1)
            if dynamic is not None and dynamic[t]:
                np.add.at(
                    inj.reshape(-1),
                    np.asarray(dynamic[t], dtype=np.int64),
                    1,
                )
            admitted = np.minimum(inj, np.maximum(cap - H, 0))
            over = inj - admitted
            H[...] += admitted
            if over.any():
                for i, v in zip(*np.nonzero(over)):
                    self._ledgers[int(i)].record(
                        int(v), "overflow", int(over[i, v])
                    )

        for t in range(steps):
            step_inj = static_cnt
            if dynamic_cnt is not None:
                step_inj = static_cnt + dynamic_cnt[t]
            if pre:
                counts = self._decide(H)
                apply_injections(t)
            else:
                apply_injections(t)
                counts = self._decide(H)
            self._injected += step_inj

            if cap is None:
                if canonical:
                    self._delivered += counts[:, -2]
                    H -= counts
                    H[:, 1:] += counts[:, :-1]
                else:
                    self._delivered += counts[:, pre_sink].sum(axis=1)
                    H -= counts
                    np.add.at(
                        H,
                        (self._row_grid, self._dest[None, :]),
                        counts[:, self._senders],
                    )
                H[:, sink] = 0
            elif push_back:
                # a refused packet never leaves its sender; only the
                # effective sends move and nothing is dropped here
                sends = self._push_back_sends(H, counts, cap)
                self._delivered += sends[:, pre_sink].sum(axis=1)
                H -= sends
                H += self._incoming(sends)
                H[:, sink] = 0
            else:
                # drop-tail / drop-oldest: same height dynamics — each
                # node's own sends free space before arrivals land
                self._delivered += counts[:, pre_sink].sum(axis=1)
                H -= counts
                incoming = self._incoming(counts)
                room = cap - H
                room[:, sink] = _BIG
                admitted = np.minimum(incoming, np.maximum(room, 0))
                refused = incoming - admitted
                H += admitted
                H[:, sink] = 0
                if refused.any():
                    for i, v in zip(*np.nonzero(refused)):
                        self._ledgers[int(i)].record(
                            int(v), "overflow", int(refused[i, v])
                        )

            # per-run metrics (MaxHeightTracker semantics, vectorised:
            # strict-greater record updates, first-argmax tie break)
            np.maximum(pnm, H, out=pnm)
            row_max = H.max(axis=1)
            upd = row_max > mh
            if upd.any():
                mh[upd] = row_max[upd]
                self._argmax_node[upd] = H[upd].argmax(axis=1)
                self._argmax_step[upd] = self.step_index + t + 1
            if self.validate:
                self._assert_vec_invariants(self.step_index + t + 1)

    # ------------------------------------------------------------------
    def _assert_vec_capacity(self, step: int) -> None:
        cap = self.buffer_capacity
        if cap is None:
            return
        over = np.argwhere(self._H > cap)
        if over.size:
            i, v = (int(x) for x in over[0])
            raise BufferOverflow(
                f"step {step}: run {self._vec_rows[i]} node {v} holds "
                f"{int(self._H[i, v])} packets > buffer_capacity {cap}"
            )

    def _assert_vec_invariants(self, step: int) -> None:
        self._assert_vec_capacity(step)
        in_flight = self._H.sum(axis=1)
        for i, r in enumerate(self._vec_rows):
            dropped = self._ledgers[i].total
            if not self._ledgers[i].balanced(
                int(self._injected[i]),
                int(self._delivered[i]),
                int(in_flight[i]),
            ):
                raise ConservationViolation(
                    f"step {step}: run {r}: injected={int(self._injected[i])}"
                    f" != delivered={int(self._delivered[i])} + in_flight="
                    f"{int(in_flight[i])} + dropped={dropped}"
                )

    def assert_capacity(self) -> None:
        """Finite-buffer invariant across every lane of the fleet."""
        for eng in self._engines.values():
            eng.assert_capacity()
        self._assert_vec_capacity(self.step_index)

    def assert_conservation(self) -> None:
        """Per-run conservation: injected == delivered + in-flight +
        dropped, for every lane (fallback engines check themselves)."""
        self.assert_capacity()
        for eng in self._engines.values():
            eng.assert_conservation()
        if self._vec_rows:
            self._assert_vec_invariants(self.step_index)

    # ------------------------------------------------------------------
    def result(self, run: int) -> RunResult:
        """Per-run summary, Simulator-compatible (height-only delays)."""
        if not 0 <= run < self.runs:
            raise SimulationError(
                f"run index {run} out of range for {self.runs} runs"
            )
        eng = self._engines.get(run)
        if eng is not None:
            return eng.result()
        i = self._row_of[run]
        return height_result(
            self.step_index, self._max_height[i], self._argmax_node[i],
            self._argmax_step[i], self._injected[i], self._delivered[i],
            self._H[i].sum(), self._ledgers[i],
        )

    def results(self) -> list[RunResult]:
        """Per-run summaries for the whole fleet, in run order."""
        return [self.result(r) for r in range(self.runs)]

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        """Snapshot fleet state (metrics and fallback lanes included).

        Policy/adversary state is *not* captured — use :meth:`snapshot`
        for full crash-resume fidelity, as on the per-run engines.
        """
        return {
            "heights": self._H.copy(),
            "step": self.step_index,
            "per_node_max": self._per_node_max.copy(),
            "max_height": self._max_height.copy(),
            "argmax_node": self._argmax_node.copy(),
            "argmax_step": self._argmax_step.copy(),
            "injected": self._injected.copy(),
            "delivered": self._delivered.copy(),
            "ledgers": [led.snapshot() for led in self._ledgers],
            "lanes": {r: eng.checkpoint() for r, eng in self._engines.items()},
        }

    def snapshot(self) -> dict[str, Any]:
        """Full state for checkpoint/resume across an induced crash."""
        return {
            "engine": self.checkpoint(),
            "policy": copy.deepcopy(self.policy),
            "adversary": [
                copy.deepcopy(self.adversaries[r]) for r in self._vec_rows
            ],
            "lanes": {
                r: eng.snapshot() for r, eng in self._engines.items()
            },
        }

    def restore(self, cp: dict[str, Any]) -> None:
        """Roll back to a previous :meth:`checkpoint` / :meth:`snapshot`.

        Raises
        ------
        CheckpointError
            If the checkpoint does not fit this fleet: its height
            matrix is not ``(vectorised lanes, n)`` non-negative
            integers, or it holds other fallback lanes.  The fleet is
            untouched on refusal.
        """
        fleet_cp = cp.get("engine", cp)
        check_heights(fleet_cp["heights"], (len(self._vec_rows), self.n))
        if set(fleet_cp["lanes"]) != set(self._engines):
            raise CheckpointError(
                "refusing to restore: checkpoint fallback lanes "
                f"{sorted(fleet_cp['lanes'])} do not match this fleet's "
                f"{sorted(self._engines)}"
            )
        if "engine" in cp:  # full snapshot()
            self.policy = copy.deepcopy(cp["policy"])
            for i, r in enumerate(self._vec_rows):
                self.adversaries[r] = copy.deepcopy(cp["adversary"][i])
            for r, snap in cp["lanes"].items():
                self._engines[r].restore(snap)
                self.adversaries[r] = self._engines[r].adversary
            self.restore(fleet_cp)
            return
        self._H = cp["heights"].astype(_H_DTYPE, copy=True)
        self.step_index = cp["step"]
        self._per_node_max = cp["per_node_max"].copy()
        self._max_height = cp["max_height"].copy()
        self._argmax_node = cp["argmax_node"].copy()
        self._argmax_step = cp["argmax_step"].copy()
        self._injected = cp["injected"].copy()
        self._delivered = cp["delivered"].copy()
        for led, snap in zip(self._ledgers, cp["ledgers"]):
            led.restore(snap)
        for r, lane_cp in cp["lanes"].items():
            self._engines[r].restore(lane_cp)
