"""Forwarding-policy abstractions.

A *policy* (the paper's "scheduling policy" / "queueing discipline")
decides, in every forwarding mini-step, which nodes send a packet to
their successor.  All decisions in a step are simultaneous and are
functions of the same height snapshot — the defining feature of the
synchronous model of §2.

Two decision granularities are supported:

* :meth:`ForwardingPolicy.send_mask` — which nodes forward one packet
  (capacity c = 1, the setting of the paper's algorithms);
* :meth:`ForwardingPolicy.send_counts` — how many packets each node
  forwards (for capacity c > 1 baselines and lower-bound experiments).

Both take one run's ``(n,)`` heights or a fleet's node-major
``(n, runs)`` matrix, whose column ``r`` is run ``r``, and return the
same rank: column ``r`` of the answer must equal what one run's heights
alone would get.  With the node axis first, node-indexed expressions
(``heights[succ]``, ``mask[sink] = False``) apply to a fleet unchanged,
which is how :class:`~repro.network.fleet_engine.FleetEngine` advances a
whole sweep with one call per step.  A stateful rule (round-robin tie
rotation) advances its state once per call, as ``runs`` fresh per-run
instances stepping on one clock would.

Locality is *declared* metadata (``locality`` attribute).  Rather than
slowing the hot loop with access guards, the test-suite verifies the
declaration behaviourally: :func:`locality_respected` perturbs heights
outside a node's ℓ-ball and asserts the node's decision is unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import PolicyError
from ..network.topology import Topology

__all__ = [
    "ForwardingPolicy",
    "PairwisePolicy",
    "locality_respected",
]


def _successor_heights(heights: np.ndarray, topology: Topology) -> np.ndarray:
    """``heights[succ]`` for one run's ``(n,)`` heights or a fleet's
    ``(n, runs)`` matrix; the sink's entry is junk for the caller to
    mask.  One run takes numpy's gather, the fastest way up to
    n = 1024 (0.3-1.2 µs; a slice shift costs 0.7-1.0 µs and
    ``np.take`` 1.4-2.7 µs).  numpy's row gather is slow on a narrow
    fleet matrix (24 µs at n = 1024 and 5 runs), so a fleet takes a
    slice shift on the canonical path (3 µs) and ``np.take`` elsewhere
    (8 µs)."""
    if heights.ndim == 1:
        return heights[topology.succ]
    if not topology.is_canonical_path:
        return np.take(heights, topology.succ, axis=0)
    out = np.empty_like(heights)
    out[:-1] = heights[1:]
    out[-1] = 0
    return out


class ForwardingPolicy(ABC):
    """Base class for all schedulers.

    Attributes
    ----------
    name:
        Stable identifier used by the registry, CLI and reports.
    locality:
        ℓ such that decisions depend only on heights within hop
        distance ℓ; ``None`` marks a centralized (global-view) policy.
    max_capacity:
        Largest link capacity the policy is defined for (``None`` means
        any).  The paper's local algorithms assume ``c = 1``.
    stateless:
        The policy keeps no state between steps: its decision is a
        function of the heights alone.  An engine may then fast-forward
        a run whose configuration repeats (see
        :meth:`repro.network.dag_engine._DagEngineCore.run`); the
        default never allows it.
    """

    name: str = "abstract"
    locality: int | None = None
    max_capacity: int | None = None
    stateless: bool = False

    def reset(self, topology: Topology) -> None:
        """Hook called once before a run; stateful policies clear here."""

    def observe_injections(self, sites: tuple[int, ...]) -> None:
        """Called by the engine each step with that step's injection
        sites, before decisions are requested.

        Local policies ignore this (their information is the heights in
        their ℓ-ball); the *centralized* train algorithm of [21] is
        defined in terms of the injected packet's path and overrides it.
        """

    def check_capacity(self, capacity: int) -> None:
        """Raise :class:`PolicyError` if ``capacity`` is unsupported."""
        if capacity < 1:
            raise PolicyError(f"capacity must be >= 1, got {capacity}")
        if self.max_capacity is not None and capacity > self.max_capacity:
            raise PolicyError(
                f"policy {self.name!r} is defined for c <= "
                f"{self.max_capacity}, got c = {capacity}"
            )

    @abstractmethod
    def send_mask(self, heights: np.ndarray, topology: Topology) -> np.ndarray:
        """Boolean array: ``mask[v]`` iff node ``v`` forwards one packet.

        ``heights`` is the decision-time snapshot, ``(n,)`` or
        ``(n, runs)`` with ``heights[sink] == 0`` (see the module
        docstring).  Implementations must never mark the sink or an
        empty node as sending.
        """

    def send_counts(
        self, heights: np.ndarray, topology: Topology, capacity: int
    ) -> np.ndarray:
        """Packets forwarded per node (≤ capacity), in the dtype and
        shape of ``heights``.

        The default is only valid for ``capacity == 1``; capacity-aware
        policies (e.g. greedy) override it.
        """
        self.check_capacity(capacity)
        if capacity != 1:
            raise PolicyError(
                f"policy {self.name!r} has no multi-packet rule; "
                "override send_counts for c > 1"
            )
        return self.send_mask(heights, topology).astype(heights.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        loc = "centralized" if self.locality is None else f"{self.locality}-local"
        return f"<{type(self).__name__} {self.name!r} ({loc})>"


class PairwisePolicy(ForwardingPolicy):
    """A 1-local policy whose rule compares ``h(v)`` with ``h(s(v))``.

    Subclasses implement :meth:`forwards` as a vectorised predicate.
    This covers Greedy, Downhill, Downhill-or-Flat, FIE and Odd-Even —
    every local path algorithm discussed in §4 — plus the modular and
    scaled Odd-Even variants of E15 and E16, and runs unchanged on
    trees (where it becomes the 1-local strawman of experiment E8,
    since it performs no sibling arbitration).
    """

    locality: int | None = 1
    stateless = True

    @abstractmethod
    def forwards(self, h_v: np.ndarray, h_succ: np.ndarray) -> np.ndarray:
        """Vectorised rule: does a node of height ``h_v`` forward to a
        successor of height ``h_succ``?  Emptiness (``h_v == 0``) is
        handled by the caller and need not be checked here."""

    def send_mask(self, heights: np.ndarray, topology: Topology) -> np.ndarray:
        # the sink's successor height is junk; masked out
        h_succ = _successor_heights(heights, topology)
        mask = (heights > 0) & self.forwards(heights, h_succ)
        mask[topology.sink] = False
        return mask


def locality_respected(
    policy: ForwardingPolicy,
    topology: Topology,
    heights: np.ndarray,
    node: int,
    rng: np.random.Generator,
    trials: int = 8,
    max_height: int = 12,
) -> bool:
    """Behavioural locality check used by the test-suite.

    Randomly rewrites heights *outside* ``node``'s ℓ-ball and reports
    whether the node's decision ever changed.  Centralized policies
    (``locality is None``) vacuously pass.
    """
    if policy.locality is None:
        return True
    ball = topology.ball(node, policy.locality)
    outside = np.asarray(
        [v for v in range(topology.n) if v not in ball and v != topology.sink],
        dtype=np.int64,
    )
    base = policy.send_mask(heights, topology)[node]
    if outside.size == 0:
        return True
    for _ in range(trials):
        h = heights.copy()
        h[outside] = rng.integers(0, max_height + 1, size=outside.size)
        h[topology.sink] = 0
        if policy.send_mask(h, topology)[node] != base:
            return False
    return True
