"""A candidate rate-c generalisation of Odd-Even (open question of §6).

The paper's conclusions: *"The existence of local algorithms with
O(log n) buffers for higher rate adversaries remains open."*  Theorem
3.1 forces Ω(c·log n/ℓ), so the natural target is O(c·log n) with a
1-local rule.

The candidate implemented here — **Scaled Odd-Even** — runs Odd-Even on
heights quantised to blocks of ``c`` packets: with
``H(v) = ⌈h(v)/c⌉``,

* if ``H(v)`` is odd, forward ``min(h(v), c)`` packets iff
  ``H(s(v)) ≤ H(v)``;
* if ``H(v)`` is even, forward iff ``H(s(v)) < H(v)``.

For c = 1 this *is* Algorithm 1.  The intuition transfers: a block of c
packets plays the role of one packet, so the attachment-scheme cost
argument should pay per block, giving ≈ c·(log₂ n + O(1)).  This module
makes the conjecture executable; experiment E16 attacks it with the
Theorem 3.1 adversary at c ∈ {1, 2, 4} and classifies the growth.  The
measured behaviour (see EXPERIMENTS.md) is logarithmic at every tested
rate — evidence for, not a proof of, the conjecture.
"""

from __future__ import annotations

import numpy as np

from .base import PairwisePolicy
from ..errors import PolicyError
from ..network.topology import Topology

__all__ = ["ScaledOddEvenPolicy"]


class ScaledOddEvenPolicy(PairwisePolicy):
    """Odd-Even on ⌈h/c⌉-quantised heights; forwards c-packet blocks."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise PolicyError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.max_capacity = int(capacity)
        self.name = f"scaled-odd-even(c={capacity})"

    def check_capacity(self, capacity: int) -> None:
        if capacity != self.capacity:
            raise PolicyError(
                f"{self.name} must run at exactly c = {self.capacity}"
            )

    def forwards(self, h_v: np.ndarray, h_succ: np.ndarray) -> np.ndarray:
        # Odd-Even on blocks (ceil division): an odd block count
        # forwards iff H_succ <= H, i.e. H_succ < H + 1
        H, H_succ = -(-h_v // self.capacity), -(-h_succ // self.capacity)
        return H_succ < H + (H & 1)

    def send_counts(
        self, heights: np.ndarray, topology: Topology, capacity: int
    ) -> np.ndarray:
        self.check_capacity(capacity)
        mask = self.send_mask(heights, topology)
        return np.where(
            mask, np.minimum(heights, self.capacity), 0
        ).astype(heights.dtype)
