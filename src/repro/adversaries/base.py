"""Adversary abstractions (the rate-c traffic model of §2).

In every step's first mini-step the adversary injects a total of at
most ``c`` packets at nodes of its choice.  An adversary here is a
callback producing the injection sites for a step; it may observe the
full configuration (the adversary is adaptive and omniscient — this is
a *worst-case* model, so giving the adversary more information only
strengthens the results).

Rate enforcement is done by the engine via :func:`validate_injections`;
a misbehaving adversary raises :class:`RateViolation` rather than
silently corrupting an experiment.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import TopologyError
from ..network.topology import Topology
from ..network.validation import validate_injections

__all__ = ["Adversary", "validate_injections", "NullAdversary", "sink_children"]


class Adversary(ABC):
    """Base class for per-step traffic generators.

    Attributes
    ----------
    name:
        Stable identifier used in reports.
    """

    name: str = "abstract"

    def reset(self, topology: Topology, capacity: int) -> None:
        """Called once before a run starts; stateful adversaries re-arm."""

    @abstractmethod
    def inject(
        self, step: int, heights: np.ndarray, topology: Topology
    ) -> Sequence[int]:
        """Node ids receiving one packet each this step (≤ c total).

        Repeats are allowed (several packets at one node) when c > 1.
        ``heights`` is the configuration at the start of the step and
        must not be mutated.
        """

    def inject_schedule(
        self, start: int, steps: int, topology: Topology
    ) -> Sequence[tuple[int, ...]] | None:
        """Optional batched protocol: the next ``steps`` injection
        batches, for steps ``start .. start + steps - 1``.

        Height-independent adversaries (whose choices never depend on
        the configuration) may override this so that
        :meth:`repro.network.engine_fast.PathEngine.run` can precompute
        the whole schedule once and skip per-step Python dispatch on
        its hot loop.  Returning ``None`` — the default, and the only
        correct answer for adaptive adversaries — makes the engine fall
        back to per-step :meth:`inject`.

        An implementation must leave the adversary in exactly the state
        ``steps`` sequential :meth:`inject` calls would, so batched and
        per-step runs can interleave freely on one engine.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def sink_children(topology: Topology, who: str) -> tuple[int, ...]:
    """The sink's children, for ``who``'s ``reset``; an in-tree has
    child lists, a DAG does not and is refused."""
    if not isinstance(topology, Topology):
        raise TopologyError(
            f"{who} walks an in-tree's child lists, which a DAG does not have"
        )
    return topology.children[topology.sink]


class NullAdversary(Adversary):
    """Injects nothing — useful for drain phases and unit tests."""

    name = "null"

    def inject(self, step, heights, topology):
        return ()

    def inject_schedule(self, start, steps, topology):
        return ((),) * steps
