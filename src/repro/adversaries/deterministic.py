"""Deterministic scripted adversaries.

These are the building blocks of the crafted worst-case workloads: fix
a node, follow a schedule, or chain phases.  All respect the rate
constraint ``≤ c`` injections per step.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .base import Adversary, sink_children
from ..errors import RateViolation
from ..network.topology import Topology

__all__ = [
    "FixedNodeAdversary",
    "FarEndAdversary",
    "PreSinkAdversary",
    "ScheduleAdversary",
    "PhasedAdversary",
    "RoundRobinAdversary",
    "AmplifiedAdversary",
]


class FixedNodeAdversary(Adversary):
    """Inject ``count`` packets at one node every step (optionally for a
    limited number of steps)."""

    def __init__(self, node: int, count: int = 1, duration: int | None = None):
        self.node = int(node)
        self.count = int(count)
        self.duration = duration
        self.name = f"fixed(node={node},count={count})"
        self._start: int | None = None

    def reset(self, topology: Topology, capacity: int) -> None:
        if self.count > capacity:
            raise RateViolation(
                f"fixed adversary count {self.count} exceeds rate {capacity}"
            )
        self._start = None

    def inject(self, step, heights, topology):
        if self._start is None:
            self._start = step
        if self.duration is not None and step - self._start >= self.duration:
            return ()
        return (self.node,) * self.count

    def inject_schedule(self, start, steps, topology):
        if self._start is None:
            self._start = start
        burst = (self.node,) * self.count
        if self.duration is None:
            return (burst,) * steps
        remaining = max(self.duration - (start - self._start), 0)
        on = min(remaining, steps)
        return (burst,) * on + ((),) * (steps - on)


class FarEndAdversary(Adversary):
    """Inject at a node of maximum depth (the paper's "leftmost node")."""

    name = "far-end"

    def __init__(self, count: int = 1):
        self.count = int(count)
        self._node = -1

    def reset(self, topology: Topology, capacity: int) -> None:
        if self.count > capacity:
            raise RateViolation("far-end count exceeds rate")
        self._node = int(np.argmax(topology.depth))

    def inject(self, step, heights, topology):
        return (self._node,) * self.count

    def inject_schedule(self, start, steps, topology):
        return ((self._node,) * self.count,) * steps


class PreSinkAdversary(Adversary):
    """Inject at a child of the sink (the node one hop from delivery)."""

    name = "pre-sink"

    def __init__(self, count: int = 1):
        self.count = int(count)
        self._node = -1

    def reset(self, topology: Topology, capacity: int) -> None:
        if self.count > capacity:
            raise RateViolation("pre-sink count exceeds rate")
        kids = sink_children(topology, self.name)
        if not kids:
            raise RateViolation("sink has no predecessor to inject at")
        self._node = kids[0]

    def inject(self, step, heights, topology):
        return (self._node,) * self.count

    def inject_schedule(self, start, steps, topology):
        return ((self._node,) * self.count,) * steps


class ScheduleAdversary(Adversary):
    """Follow an explicit step → injection-sites script.

    Steps are indexed from the adversary's reset (relative), so a
    schedule can be replayed inside a :class:`PhasedAdversary`.
    Steps absent from the mapping inject nothing.
    """

    name = "scripted"

    def __init__(self, schedule: Mapping[int, Sequence[int]]):
        self.schedule = {int(k): tuple(v) for k, v in schedule.items()}
        self._start: int | None = None

    def reset(self, topology: Topology, capacity: int) -> None:
        self._start = None

    def inject(self, step, heights, topology):
        if self._start is None:
            self._start = step
        return self.schedule.get(step - self._start, ())

    def inject_schedule(self, start, steps, topology):
        if self._start is None:
            self._start = start
        rel = start - self._start
        return [self.schedule.get(rel + i, ()) for i in range(steps)]


class PhasedAdversary(Adversary):
    """Chain sub-adversaries: run each for a fixed number of steps.

    The classic anti-greedy *seesaw* is
    ``PhasedAdversary([(n, FarEndAdversary()), (n, PreSinkAdversary())])``.
    The final phase runs forever.
    """

    name = "phased"

    def __init__(self, phases: Sequence[tuple[int, Adversary]]):
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = list(phases)
        self._start: int | None = None
        self._bounds: list[int] = []

    def reset(self, topology: Topology, capacity: int) -> None:
        self._start = None
        self._bounds = []
        acc = 0
        for dur, sub in self.phases:
            acc += int(dur)
            self._bounds.append(acc)
            sub.reset(topology, capacity)

    def inject(self, step, heights, topology):
        if self._start is None:
            self._start = step
        rel = step - self._start
        for bound, (dur, sub) in zip(self._bounds, self.phases):
            if rel < bound:
                return sub.inject(step, heights, topology)
        return self.phases[-1][1].inject(step, heights, topology)


class AmplifiedAdversary(Adversary):
    """Repeat an inner adversary's proposals ``factor`` times per step.

    Turns the rate-1 crafted workloads into rate-c workloads for the
    higher-rate experiments (E16): each proposed site receives
    ``factor`` packets, clipped to the engine's rate limit.
    """

    def __init__(self, inner: Adversary, factor: int):
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.inner = inner
        self.factor = int(factor)
        self.name = f"x{factor}({inner.name})"
        self._limit = factor

    def reset(self, topology: Topology, capacity: int) -> None:
        self._limit = capacity
        self.inner.reset(topology, max(1, capacity // self.factor))

    def inject(self, step, heights, topology):
        proposed = list(self.inner.inject(step, heights, topology))
        out: list[int] = []
        for site in proposed:
            out.extend([site] * self.factor)
        return tuple(out[: self._limit])

    def inject_schedule(self, start, steps, topology):
        # amplification is height-independent, so the wrapper is
        # batchable exactly when the inner adversary is
        inner = self.inner.inject_schedule(start, steps, topology)
        if inner is None:
            return None
        out = []
        for entry in inner:
            batch: list[int] = []
            for site in entry:
                batch.extend([site] * self.factor)
            out.append(tuple(batch[: self._limit]))
        return out


class RoundRobinAdversary(Adversary):
    """Cycle injections over a set of nodes (default: all non-sink)."""

    name = "round-robin"

    def __init__(self, nodes: Sequence[int] | None = None):
        self._nodes = tuple(nodes) if nodes is not None else None
        self._cycle: tuple[int, ...] = ()

    def reset(self, topology: Topology, capacity: int) -> None:
        if self._nodes is None:
            self._cycle = tuple(
                v for v in range(topology.n) if v != topology.sink
            )
        else:
            self._cycle = self._nodes
        if not self._cycle:
            raise RateViolation("round-robin has no nodes to inject at")

    def inject(self, step, heights, topology):
        return (self._cycle[step % len(self._cycle)],)

    def inject_schedule(self, start, steps, topology):
        # one tuple per cycle position, shared across the schedule
        period = [(v,) for v in self._cycle]
        m = len(period)
        return [period[(start + i) % m] for i in range(steps)]
