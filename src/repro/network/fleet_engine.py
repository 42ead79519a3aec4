"""Cross-run vectorised fleet engine.

The paper's results are statements about *ensembles* — worst-case and
expected occupancy over adversary suites, seeds and parameter grids —
yet :class:`~repro.network.engine_fast.PathEngine` and
:class:`~repro.network.tree_engine.TreeEngine` advance one run at a
time, so every sweep pays the full Python-dispatch cost per run.
:class:`FleetEngine` vectorises *across runs* the way TreeEngine
vectorised across nodes: it advances every run of a sweep in lockstep,
one set of ufunc calls per step for the entire fleet.

A *fleet* is one topology, one policy and one adversary per run (plus
optional per-run injection limits and fault plans).  At construction
each run is classified:

* **vectorised lanes** — the policy does not consume per-step injection
  observations (such a policy holds per-run state), the lane has no
  fault plan, and its adversary publishes an injection schedule via
  :meth:`~repro.adversaries.base.Adversary.inject_schedule`.  These
  runs are the columns of one node-major ``(n, runs)`` height matrix,
  advanced by the shared height kernel of
  :mod:`repro.network.dag_engine` — its settle step (all three overflow
  disciplines), dense batched loop, schedule flattener and invariant
  checks — with the policy's one ``send_counts`` rule deciding for the
  whole matrix.
* **fallback lanes** — adaptive adversaries, fault plans, a policy that
  observes injections, or a fleet of one run (a one-column matrix has
  nothing to vectorise across).  Each such run gets its own PathEngine
  (on the canonical path) or TreeEngine with a deep-copied policy, so
  the fleet's results are complete either way.  Every such lane runs
  under :func:`~repro.network.faults.run_through_halts` (a plain run
  for a lane without a fault plan): a ``halt`` raises before its step
  changes anything, so a faulted lane resumes where it struck, with no
  snapshots and no replay, on a lone engine's recovery budget, and ends
  exactly where :func:`~repro.network.faults.run_with_recovery` would
  have.

Every lane — vectorised or not — is **bit-identical** to running that
configuration alone on PathEngine/TreeEngine/Simulator (the Hypothesis
suite in ``tests/property/test_fleet_parity.py`` pins trajectories,
delivered counts and loss ledgers).  The established engine contract
is honoured fleet-wide: per-run :class:`LossLedger` conservation,
``assert_capacity`` / ``assert_conservation``, ``checkpoint`` /
``snapshot`` / ``restore`` (which refuses a checkpoint that does not
fit the fleet), and durable ``save_checkpoint`` / ``load_checkpoint``
through :mod:`repro.io.checkpoint`, whose fleet arrays stay in the
``(runs, n)`` layout.

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
    _Rows,
    check_capacity,
    check_heights,
    check_settings,
)
from .engine_fast import PathEngine
from .faults import FaultInjector, FaultPlan, run_through_halts
from .metrics import LossLedger
from .simulator import RunResult
from .topology import Topology, path
from .tree_engine import TreeEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.base import Adversary
from ..errors import CheckpointError, SimulationError
from ..policies.base import ForwardingPolicy

__all__ = ["FleetEngine"]

# the height matrix is int32: half the memory traffic of int64 on
# every kernel pass, and heights are bounded by total injections (a
# fleet would need > 2^31 lane-injections into one buffer to wrap)
_H_DTYPE = np.int32


class FleetEngine(_Durable):
    """Advance a whole sweep of runs in lockstep on one height matrix.

    Parameters
    ----------
    topology:
        A :class:`Topology`, or an int ``n`` >= 2 for the canonical
        directed path (matching ``PathEngine(n, ...)``).
    policy:
        One policy instance shared by the vectorised lanes (its
        ``send_counts`` sees the whole matrix per step); fallback
        lanes receive deep copies, so a stateful policy behaves exactly
        as ``runs`` fresh per-run instances stepping on one clock.
    adversaries:
        One adversary (or ``None`` for a drain-only run) **per run**;
        ``runs = len(adversaries)``.  Each lane owns and mutates its
        adversary's state, so an instance shared between runs is
        refused.
    injection_limit / faults:
        Either one value for every run or a sequence of per-run values.
        Any lane with a fault plan falls back to a dedicated engine; a
        :class:`FaultPlan` may serve several lanes (each builds its own
        injector), a :class:`FaultInjector` only one.
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
            if topology < 2:
                raise SimulationError("a useful path needs at least 2 nodes")
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
        # what every lane's engine shares, the kernel's included
        self._engine_kw: dict[str, Any] = dict(
            capacity=self.capacity, decision_timing=decision_timing,
            buffer_capacity=self.buffer_capacity, overflow=self.overflow,
            validate=validate,
        )
        self.injection_limits = [
            self.capacity if lim is None else int(lim)
            for lim in self._per_run(injection_limit, "injection_limit")
        ]
        lane_faults = self._per_run(faults, "faults")
        _refuse_shared(adversaries, "adversary")
        _refuse_shared(lane_faults, "FaultInjector")

        # a policy that observes injections holds per-run state; a
        # fleet of one run steps on a dedicated engine
        vec_policy = (
            self.runs > 1
            and type(policy).observe_injections
            is ForwardingPolicy.observe_injections
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
        self._H = np.zeros((topology.n, len(self._vec_rows)), dtype=_H_DTYPE)
        self._rows = _Rows(
            np.zeros_like(self._H), [LossLedger() for _ in self._vec_rows],
            self._vec_rows,
        )
        # the vectorised lanes are the columns of one kernel instance;
        # the fleet drives its dense loop directly, never its run/step
        self._kernel: TreeEngine | None = None
        if self._vec_rows:
            self._kernel = TreeEngine(
                topology, policy, None, **self._engine_kw
            )
            self._kernel.heights = self._H
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
        kwargs = dict(
            self._engine_kw, injection_limit=self.injection_limits[r],
            faults=fault,
        )
        lane_policy = copy.deepcopy(self.policy)
        if self.topology.is_canonical_path:
            return PathEngine(self.topology.n, lane_policy, adv, **kwargs)
        return TreeEngine(self.topology, lane_policy, adv, **kwargs)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def sink(self) -> int:
        return int(self.topology.sink)

    @property
    def vectorized_runs(self) -> tuple[int, ...]:
        """Run indices advancing on the shared height matrix."""
        return tuple(self._vec_rows)

    @property
    def fallback_runs(self) -> tuple[int, ...]:
        """Run indices stepping on dedicated per-run engines."""
        return tuple(sorted(self._engines))

    def _gather(self, vectorised: np.ndarray, lane) -> np.ndarray:
        """One value per run: ``vectorised`` for the matrix's lanes,
        ``lane(engine)`` for each fallback lane (a fresh array)."""
        out = np.zeros((self.runs, *vectorised.shape[1:]), dtype=np.int64)
        out[self._vec_rows] = vectorised
        for r, eng in self._engines.items():
            out[r] = lane(eng)
        return out

    @property
    def heights(self) -> np.ndarray:
        """The ``(runs, n)`` height matrix (a fresh copy per call)."""
        return self._gather(self._H.T, lambda eng: eng.heights)

    @property
    def max_heights(self) -> np.ndarray:
        """Per-run running maximum height, as a ``(runs,)`` array."""
        return self._gather(
            self._rows.max_height, lambda eng: eng.metrics.max_height
        )

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
            run_through_halts(eng, steps)
        if self._kernel is not None:
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

        The vectorised lanes advance in lockstep through the sorted set
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
            run_through_halts(eng, targets[r] - eng.step_index)
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

    def _run_vec(self, steps: int) -> None:
        """Fetch the vectorised lanes' schedules; run the kernel's
        dense loop over the matrix."""
        kernel = self._kernel
        assert kernel is not None
        kernel.step_index = self.step_index
        lanes: list[tuple[Any, Sequence, int] | None] = []
        for r in self._vec_rows:
            adv = self.adversaries[r]
            if adv is None:
                lanes.append(None)
                continue
            sched = adv.inject_schedule(self.step_index, steps, self.topology)
            if sched is None:
                raise SimulationError(
                    f"adversary {adv!r} (run {r}) withdrew its injection "
                    f"schedule at step {self.step_index}; a lane classified "
                    "as batchable must stay batchable for the whole run"
                )
            lanes.append((adv, sched, self.injection_limits[r]))
        batches, injected = kernel._flatten(lanes, steps, self._vec_rows)
        kernel._run_dense(batches, self._rows, injected)

    # ------------------------------------------------------------------
    def assert_capacity(self) -> None:
        """Finite-buffer invariant across every lane of the fleet."""
        for eng in self._engines.values():
            eng.assert_capacity()
        check_capacity(
            self._H, self.buffer_capacity, self.step_index,
            self._vec_rows,
        )

    def assert_conservation(self) -> None:
        """Per-run conservation: injected == delivered + in-flight +
        dropped, for every lane (fallback engines check themselves)."""
        for eng in self._engines.values():
            eng.assert_conservation()
        self._rows.check(self._H, self.buffer_capacity, self.step_index)

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
        return self._rows.result(
            i, self.step_index, self._H[:, i].sum()
        )

    def results(self) -> list[RunResult]:
        """Per-run summaries for the whole fleet, in run order."""
        return [self.result(r) for r in range(self.runs)]

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        """Snapshot fleet state (metrics and fallback lanes included),
        with the vectorised lanes' arrays in the ``(runs, n)`` layout.

        Policy/adversary state is *not* captured — use :meth:`snapshot`
        for full crash-resume fidelity, as on the per-run engines.
        """
        return {
            "heights": self._H.T.copy(),
            "step": self.step_index,
            **self._rows.snapshot(),
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
            if self._kernel is not None:
                # the kernel decides with its own policy reference
                self._kernel.policy = self.policy
            for i, r in enumerate(self._vec_rows):
                self.adversaries[r] = copy.deepcopy(cp["adversary"][i])
            for r, snap in cp["lanes"].items():
                self._engines[r].restore(snap)
                self.adversaries[r] = self._engines[r].adversary
            self.restore(fleet_cp)
            return
        self._H = np.array(cp["heights"].T, dtype=_H_DTYPE, order="C")
        if self._kernel is not None:
            self._kernel.heights = self._H
        self.step_index = cp["step"]
        self._rows.restore(cp)
        for r, lane_cp in cp["lanes"].items():
            self._engines[r].restore(lane_cp)


def _refuse_shared(items: Sequence[Any], what: str) -> None:
    """Refuse one stateful instance serving several runs: each lane
    steps its own, so a shared one would tie the runs together (a
    :class:`FaultPlan` is plain data: each lane builds its injector)."""
    first: dict[int, int] = {}
    for r, item in enumerate(items):
        if item is None or isinstance(item, FaultPlan):
            continue
        if first.setdefault(id(item), r) != r:
            raise SimulationError(
                f"runs {first[id(item)]} and {r} share one {what} "
                "instance; give every run its own"
            )
