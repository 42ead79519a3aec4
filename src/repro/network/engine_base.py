"""The unified engine contract every simulation backend satisfies.

The repo has five engines — the packet-tracking
:class:`~repro.network.simulator.Simulator` (semantic reference), the
vectorised :class:`~repro.network.engine_fast.PathEngine`,
:class:`~repro.network.tree_engine.TreeEngine` and
:class:`~repro.network.dag_engine.DagEngine` (one height kernel,
``dag_engine._DagEngineCore``, on a path, a tree and a DAG), and the
cross-run :class:`~repro.network.fleet_engine.FleetEngine` — and three
consumers that drive "any engine": the buffer-provisioning service's
shard pool, :func:`~repro.network.faults.run_with_recovery`, and the
durable checkpoint layer.  This module writes the contract those
consumers rely on down as :class:`typing.Protocol` classes (checked
structurally, so the Simulator and FleetEngine need no common base
with the kernel and no import cycles appear) and provides the
:func:`resolve_engine` registry the CLI dispatches over.

Two facets:

* :class:`SimulationEngine` — what every backend provides: ``run``,
  state access (``heights``/``step_index``/``metrics``), the invariant
  asserts, and the checkpoint quartet (``snapshot``/``checkpoint``/
  ``restore`` plus the durable ``save_checkpoint``/``load_checkpoint``).
* :class:`SteppableEngine` — adds single-round ``step(injections)``,
  which orchestrating adversaries (the Theorem 3.1 attack) and the
  recovery driver need.  FleetEngine advances whole fleets only, so it
  satisfies the base facet but not this one.

Planned backends (locally-bursty adversaries, arXiv 2208.09522;
speed-s links, arXiv 1902.08069) implement these protocols instead of
re-growing parity by hand; the conformance suite
(``tests/unit/test_engine_base.py``) pins all five current engines.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..errors import SimulationError

__all__ = [
    "SimulationEngine",
    "SteppableEngine",
    "ENGINE_KINDS",
    "resolve_engine",
]


@runtime_checkable
class SimulationEngine(Protocol):
    """Structural contract shared by every simulation backend."""

    step_index: int

    @property
    def heights(self) -> np.ndarray: ...  # noqa: E704  (protocol stub)

    def run(self, steps: int) -> Any: ...

    def assert_capacity(self) -> None: ...

    def assert_conservation(self) -> None: ...

    def checkpoint(self) -> Any: ...

    def snapshot(self) -> Any: ...

    def restore(self, cp: Any) -> None: ...

    def save_checkpoint(self, path: Any) -> Any: ...

    def load_checkpoint(self, path: Any) -> Any: ...


@runtime_checkable
class SteppableEngine(SimulationEngine, Protocol):
    """A backend that can advance one round at a time.

    Everything the recovery driver and the checkpoint-rollback attack
    need on top of :class:`SimulationEngine`.
    """

    def step(self, injections: tuple[int, ...] | None = None) -> None: ...


# single-run engine kinds the CLI can dispatch over (the fleet engine
# is not a per-topology backend, so it is not registered here)
ENGINE_KINDS: tuple[str, ...] = ("path", "tree", "dag")


def resolve_engine(kind: str) -> type:
    """Engine class for a ``--engine`` kind; lazy to avoid import cycles.

    Raises
    ------
    SimulationError
        For an unknown kind, naming the valid ones.
    """
    if kind == "path":
        from .engine_fast import PathEngine

        return PathEngine
    if kind == "tree":
        from .tree_engine import TreeEngine

        return TreeEngine
    if kind == "dag":
        from .dag_engine import DagEngine

        return DagEngine
    raise SimulationError(
        f"unknown engine kind {kind!r}; choose from "
        + ", ".join(repr(k) for k in ENGINE_KINDS)
    )
