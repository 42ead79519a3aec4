"""Greedy (work-conserving) baseline.

A greedy policy forwards whenever it has something to forward.  For
information gathering on a path all greedy protocols coincide from the
throughput point of view (§1.1), and Rosén & Scalosub [23] show greedy
needs Θ(n)-sized buffers to guarantee no loss — the linear baseline the
paper's Θ(log n) result is measured against (experiments E1, E6).

Unlike the parity policies, greedy is well-defined for any link
capacity ``c``: forward ``min(h(v), c)`` packets.
"""

from __future__ import annotations

import numpy as np

from .base import PairwisePolicy
from ..network.topology import Topology

__all__ = ["GreedyPolicy"]


class GreedyPolicy(PairwisePolicy):
    """Forward whenever the buffer is non-empty (work conservation)."""

    name = "greedy"
    locality = 0  # needs no neighbour information at all
    max_capacity = None

    def forwards(self, h_v: np.ndarray, h_succ: np.ndarray) -> np.ndarray:
        return np.ones_like(h_v, dtype=bool)

    def send_counts(
        self, heights: np.ndarray, topology: Topology, capacity: int
    ) -> np.ndarray:
        self.check_capacity(capacity)
        counts = np.minimum(heights, capacity)
        counts[topology.sink] = 0
        return counts
