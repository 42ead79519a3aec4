"""Path engines.

:class:`PathEngine` simulates a directed path with pure numpy height
arithmetic — no packet objects — which is what makes the paper-scale
sweeps (n up to 2¹⁴–2¹⁶, millions of steps in total) tractable in
Python.  It is :class:`~repro.network.tree_engine.TreeEngine` on the
canonical path ``path(n)``, where the shared height kernel moves
packets with a slice shift instead of a scatter-add; the class keeps
its name because durable checkpoint headers record it, ``--engine
path`` and the sweeps build it from a node count, and
:class:`~repro.network.fleet_engine.FleetEngine` builds it for
canonical-path fallback lanes.  The packet-tracking
:class:`repro.network.simulator.Simulator` is the reference
implementation; a hypothesis test asserts the two produce identical
height trajectories, with finite buffers and fault plans too.

:class:`UndirectedPathEngine` extends the model with a leftwards
(away-from-sink) link per edge for the Theorem 3.3 experiment.

Both engines support :meth:`checkpoint` / :meth:`restore`, which the
recursive lower-bound adversary of Theorem 3.1 uses to explore its two
scenarios and keep the denser one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .dag_engine import DecisionTiming
from .metrics import MetricsBundle
from .topology import Topology, path
from .tree_engine import TreeEngine
from .validation import validate_injections
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.base import Adversary
from ..errors import SimulationError
from ..policies.base import ForwardingPolicy
from ..policies.undirected import UndirectedPathPolicy

__all__ = ["DecisionTiming", "PathEngine", "UndirectedPathEngine"]


@dataclass
class _Checkpoint:
    heights: np.ndarray
    step: int
    metrics: dict[str, Any]
    faults: dict[str, Any] | None = None


class PathEngine(TreeEngine):
    """Vectorised directed-path engine (heights only): TreeEngine on
    ``path(n)``.

    ``n`` is the number of nodes including the sink; positions are
    ordered from the far end (0) to the sink (n-1), matching
    :func:`repro.network.topology.path`.  Pairwise policies are
    evaluated through their vectorised rule.  Every keyword is
    :class:`TreeEngine`'s (capacity, injection limit, decision timing,
    finite buffers with an overflow discipline, a fault plan, series
    sampling, trace recording, validation); with neither finite
    buffers nor faults enabled the trajectories are bit-identical to
    the seed engine.
    """

    def __init__(
        self, n: int, policy: ForwardingPolicy, adversary: Adversary | None,
        **kwargs: Any,
    ) -> None:
        if n < 2:
            raise SimulationError("a useful path needs at least 2 nodes")
        super().__init__(path(n), policy, adversary, **kwargs)


class UndirectedPathEngine:
    """Bidirectional path engine for the Theorem 3.3 experiment (E11).

    Each undirected edge provides capacity 1 in each direction per
    step.  Policies are :class:`UndirectedPathPolicy` instances; the
    engine sanitises their masks (no sends from empty buffers, no
    leftwards send from position 0, nothing from the sink, and a node
    holding a single packet may use only one direction — rightwards
    wins).
    """

    def __init__(
        self,
        n: int,
        policy: UndirectedPathPolicy,
        adversary: Adversary | None,
        *,
        capacity: int = 1,
        decision_timing: DecisionTiming = "pre_injection",
        series_every: int = 0,
    ) -> None:
        if n < 2:
            raise SimulationError("a useful path needs at least 2 nodes")
        if capacity != 1:
            raise SimulationError(
                "the undirected engine implements the c = 1 model only"
            )
        self.topology: Topology = path(n)
        self.policy = policy
        self.adversary = adversary
        self.capacity = 1
        self.injection_limit = 1
        self.decision_timing: DecisionTiming = decision_timing
        self.heights = np.zeros(n, dtype=np.int64)
        self.step_index = 0
        self.metrics = MetricsBundle.for_n(n, series_every)
        policy.reset(n)
        if adversary is not None:
            adversary.reset(self.topology, capacity)

    @property
    def n(self) -> int:
        return self.topology.n

    def _decide(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        right, left = self.policy.send_directions(h)
        right = right.copy()
        left = left.copy()
        right &= h > 0
        left &= h > 0
        right[-1] = False
        left[-1] = False
        left[0] = False
        # one packet cannot split in two directions
        both = right & left & (h < 2)
        left[both] = False
        return right, left

    def step(self, injections: tuple[int, ...] | None = None) -> None:
        h = self.heights
        if injections is not None:
            sites = validate_injections(
                injections, self.topology, self.injection_limit,
                step=self.step_index,
            )
        elif self.adversary is not None:
            sites = validate_injections(
                self.adversary.inject(self.step_index, h, self.topology),
                self.topology,
                self.injection_limit,
                step=self.step_index,
            )
        else:
            sites = ()

        if self.decision_timing == "pre_injection":
            right, left = self._decide(h)
            for s in sites:
                h[s] += 1
        else:
            for s in sites:
                h[s] += 1
            right, left = self._decide(h)

        self.metrics.injected += len(sites)
        delivered = int(right[-2])
        moved = right.astype(np.int64) + left.astype(np.int64)
        h -= moved
        h[1:] += right[:-1].astype(np.int64)
        h[:-1] += left[1:].astype(np.int64)
        h[-1] = 0
        self.metrics.delivered += delivered
        if (h < 0).any():
            raise SimulationError("negative height: policy oversent")

        self.step_index += 1
        self.metrics.observe(self.step_index, h)

    def run(self, steps: int) -> "UndirectedPathEngine":
        for _ in range(steps):
            self.step()
        return self

    def checkpoint(self) -> _Checkpoint:
        return _Checkpoint(
            heights=self.heights.copy(),
            step=self.step_index,
            metrics=self.metrics.snapshot(),
        )

    def restore(self, cp: _Checkpoint) -> None:
        self.heights = cp.heights.copy()
        self.step_index = cp.step
        self.metrics.restore(cp.metrics)

    @property
    def max_height(self) -> int:
        return self.metrics.max_height
